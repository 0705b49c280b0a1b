"""Reference models of the element layer and the three search layers:
the only oracle of each layer in the tests.

Each model is written from the definition of its layer and shares no
code with what it checks: it imports from ``elements`` only
``GroupElement``, the constructions and ``LeadDescriptor``, from
``evaluate`` only ``Truth`` and ``Verdict``, and nothing from
``fragments``, ``predicates``, ``hull`` or ``suites``; the search models
enter no element method but the validating constructor and ``==``
(``test_surface`` checks both).

- The element model follows the docstrings of ``elements`` and
  ``positions``: a dict from position to value, computed with
  ``Fraction``'s own operators, positions ordered by ``rank``.
- ``fragment`` enumerates a fragment naively, every coefficient vector
  summed afresh in the model; ``cong_free_below``, ``window`` and
  ``in_tail`` are the congruence closed form on the model's leads.
- ``evaluate`` is the three-valued evaluator as a recursion on the
  negation normal form of a formula, with miniscoping; its quantifiers
  enumerate ``fragment``, and its atoms are decided in the model.
"""

import itertools
from fractions import Fraction
from functools import cache, reduce

from oagw.elements import GAMMA, GroupElement, LeadDescriptor
from oagw.evaluate import Truth, Verdict
from oagw.formulas import (
    ATOMS, And, BoolC, Cong, Eq, Exists, Forall, Implies, Lt, Not, Or, free_vars,
)
from oagw.positions import CIRCLE, G1, G2, HASH_MODULUS, SQUARE

# -- elements ---------------------------------------------------------------------
# An element: position -> a nonzero Fraction, or at a lambda square slot -> nonzero int.

HASH_POINT = 0x9E3779B97F4A7C15 % HASH_MODULUS  # where the hash evaluates a polynomial


def model(e):
    """The model of a GroupElement, or of an entry tuple."""
    return {p: dict(v) if isinstance(v, tuple) else v for p, v in (e if isinstance(e, tuple) else e.entries)}


@cache
def rank(pos):
    """pos's place, leftmost first: G2 before G1; G2 pairs descending, the
    circle before the square; G1 blocks ascending, squares by slot, then the circle."""
    if pos.area == G2:
        return (0, -pos.index, pos.shape == SQUARE, 0)
    return (1, pos.index, pos.shape == CIRCLE, pos.slot)


def entries(x):
    """x as the entry tuple of an element: by rank, a polynomial by slot."""
    return tuple((p, tuple(sorted(x[p].items())) if isinstance(x[p], dict) else x[p])
                 for p in sorted(x, key=rank))


def to_element(construction, x):
    return GroupElement(construction, entries(x))


def add(x, y):
    out = {**x, **y}
    for p in x.keys() & y.keys():
        u, v = x[p], y[p]
        v = ({s: c for s in u.keys() | v.keys() if (c := u.get(s, 0) + v.get(s, 0))}
             if isinstance(v, dict) else u + v)
        if v:
            out[p] = v
        else:
            del out[p]
    return out


def scale(x, k):
    return {p: {s: c * k for s, c in v.items()} if isinstance(v, dict) else v * k
            for p, v in x.items()} if k else {}


def sub(x, y):
    return add(x, scale(y, -1))


def _lead(x):
    """(position, slot, value) of x's leftmost nonzero slot; None for zero."""
    if not x:
        return None
    p = min(x, key=rank)
    v = x[p]
    return (p, min(v), v[min(v)]) if isinstance(v, dict) else (p, 0, v)


def sign(x):
    lead = _lead(x)
    return 0 if lead is None else 1 if lead[2] > 0 else -1


def cmp(x, y):
    return sign(sub(x, y))


def lead_descriptor(x):
    lead = _lead(x)
    return None if lead is None else LeadDescriptor(*lead[:2])


def lead_mod(construction, x, n):
    """The leftmost slot whose value n does not divide, or None: a
    coefficient at a lambda square, never a lambda circle, which is
    rational; at gamma a value v where v/n has a denominator that the
    position's local prime divides (3 at a square, 2 at a circle)."""
    for p in sorted(x, key=rank):
        v = x[p]
        if isinstance(v, dict):
            for s in sorted(v):
                if v[s] % n:
                    return LeadDescriptor(p, s)
        elif construction is GAMMA and (v / n).denominator % (3 if p.shape == SQUARE else 2) == 0:
            return LeadDescriptor(p, 0)
    return None


def hash_of(x):
    """The sum of weight times value modulo ``HASH_MODULUS`` over the components;
    None when a denominator has no inverse there: that fallback hash is unspecified."""
    h = 0
    for p, v in x.items():
        if isinstance(v, dict):
            r = sum(c * pow(HASH_POINT, s, HASH_MODULUS) for s, c in v.items())
        elif v.denominator % HASH_MODULUS:
            r = v.numerator * pow(v.denominator, -1, HASH_MODULUS)
        else:
            return None
        h += p.weight * r
    return h % HASH_MODULUS


def text(x):
    """"0", or "{position: value, ...}" by rank: a rational as str() writes
    it, a polynomial's terms by slot, slot 0 bare and any other as c*cS,
    each term after the first with its sign."""
    return "{" + ", ".join(f"{p}: {_body(x[p])}" for p in sorted(x, key=rank)) + "}" if x else "0"


def _body(v):
    if not isinstance(v, dict):
        return str(v)
    terms = [f"{v[s]}*c{s}" if s else str(v[s]) for s in sorted(v)]
    return terms[0] + "".join(t if t[0] == "-" else "+" + t for t in terms[1:])


def fresh_block(*xs):
    """The least G1 block index past every position of the xs."""
    return max((p.index + 1 for x in xs for p in x if p.area == G1), default=0)


# -- fragments --------------------------------------------------------------------


def fragment(construction, params, cfg):
    """The fragment of ``params`` and the pool of ``cfg``, lazily: zero,
    the params, then, for m = 1, ..., coeff_bound, the sum of every
    coefficient vector over the distinct nonzero params and pool
    generators whose largest |coefficient| is m, in product order with
    each axis running 0, 1, -1, ..., m, -m.  Each element comes once, and
    at most ``size_cap`` of them."""
    for x in fragment_models([model(p) for p in params], cfg):
        yield to_element(construction, x)


def fragment_models(ps, cfg):
    """``fragment`` of the element models ps, as models."""
    gens = list({_key(g): g for g in (*ps, *map(model, cfg.generator_pool)) if g}.values())
    seen = set()
    for x in itertools.chain([{}], ps, _layer_sums(gens, cfg.coeff_bound)):
        key = _key(x)
        if key not in seen:
            seen.add(key)
            yield x
            if len(seen) == cfg.size_cap:
                return


def _key(x):
    """The entries of x as a set of ints and positions, which hash in C."""
    return frozenset((p, frozenset(v.items()) if isinstance(v, dict) else v.as_integer_ratio())
                     for p, v in x.items())


def _layer_sums(gens, bound):
    for m in range(1, bound + 1):
        axis = [0] + [s * k for k in range(1, m + 1) for s in (1, -1)]
        multiples = [{k: scale(g, k) for k in axis} for g in gens]
        for vec in itertools.product(axis, repeat=len(gens)):
            if m in vec or -m in vec:
                yield reduce(add, [row[k] for row, k in zip(multiples, vec) if k])


# -- the congruence closed form ------------------------------------------------------


def cong_free_below(n, a, b):
    """No y with 0 < y < b and y = a (mod n): the atom ``desc_lt(n, a, b)``."""
    return _desc_lt(a.construction, n, model(a), model(b))


def _desc_lt(construction, n, x, y):
    return sign(y) <= 0 or _free_below(n, x, lead_mod(construction, x, n), y)


def cong_free_below_given(n, a, d, b):
    """``cong_free_below(n, a, b)`` with ``d`` read as a's n-lead: true for
    b <= 0; for b > 0 false when d is None, else d against b's lead, and
    on a tie true only at an integer slot where b's lead coefficient lies
    below a's least residue mod n."""
    return _free_below(n, model(a), d, model(b))


def _free_below(n, x, d, y):
    if sign(y) <= 0:
        return True
    if d is None:
        return False
    p, s, lead = _lead(y)
    if (d.position, d.inner_slot) != (p, s):
        return (rank(d.position), d.inner_slot) < (rank(p), s)
    if isinstance(lead, Fraction):
        return False
    if not isinstance(x.get(p), dict):
        raise ValueError(f"{p} holds no polynomial")
    return lead < x[p].get(s, 0) % n


def window(c, x, b):
    """x lies in the index window of c and b: x > 0, and some n in {2, 3}
    makes ``desc_lt(n, c, x)``, and some makes ``desc_lt(n, x, b)``."""
    k, mc, mx, mb = c.construction, model(c), model(x), model(b)
    return (sign(mx) > 0 and any(_desc_lt(k, n, mc, mx) for n in (2, 3))
            and any(_desc_lt(k, n, mx, mb) for n in (2, 3)))


def in_tail(cut, b):
    """b lies in the tail set cut at ``cut``: zero, or an element whose
    lead descriptor comes after the cut.  The cut None is the empty set."""
    if cut is None:
        return False
    d = lead_descriptor(model(b))
    return d is None or (rank(cut.position), cut.inner_slot) < (rank(d.position), d.inner_slot)


# -- the evaluator -------------------------------------------------------------------

_UNKNOWN = Verdict(Truth.UNKNOWN, None, "fragment bounds exhausted")


def evaluate(construction, f, env, cfg, scoped=True):
    """Three-valued truth of f under env, recursing on f in negation
    normal form, with the node dispatched afresh at every candidate.

    A junction returns its first absorbing verdict (False for ``&``,
    True for ``|``); when both sides are neutral it keeps the bindings
    of both, the right side's over the left's.  A quantifier searches
    ``fragment`` of its bindings, then the nonzero constants of its
    body, left to right: ``E`` stops on True with a witness, ``A`` on
    False with a counterexample, and either is Unknown at the end.  Its
    own binding comes first in its witness and shadows an inner one of
    the same name.  With ``scoped``, a quantifier first decides the
    quantifier-free parts of its body (conjuncts of ``E``, disjuncts of
    ``A``) that do not mention its variable, and returns at once if
    they decide it; without, it always searches.
    """
    return _eval(construction, _nnf(f), {v: model(e) for v, e in env.items()}, cfg, scoped)


def _nnf(f, neg=False):
    """f, or ~f if ``neg``, with ~ pushed down to the atoms and a -> b
    read as ~a | b; under ~, & and | trade places, and so do E and A."""
    if isinstance(f, Not):
        return _nnf(f.body, not neg)
    if isinstance(f, Implies):
        return _nnf(Or(Not(f.lhs), f.rhs), neg)
    if isinstance(f, (And, Or)):
        kind = type(f) if not neg else Or if isinstance(f, And) else And
        return kind(_nnf(f.lhs, neg), _nnf(f.rhs, neg))
    if isinstance(f, (Exists, Forall)):
        kind = type(f) if not neg else Forall if isinstance(f, Exists) else Exists
        return kind(f.var, _nnf(f.body, neg))
    return Not(f) if neg else f


def _constants(f):
    """The nonzero element constants of f, atoms left to right."""
    if isinstance(f, ATOMS):
        return [t.const for t in (f.lhs, f.rhs) if t.const is not None and t.const.entries]
    if isinstance(f, (Not, Exists, Forall)):
        return _constants(f.body)
    if isinstance(f, (And, Or)):
        return _constants(f.lhs) + _constants(f.rhs)
    return []


def _quantifier_free(f):
    if isinstance(f, (And, Or)):
        return _quantifier_free(f.lhs) and _quantifier_free(f.rhs)
    return not isinstance(f, (Exists, Forall))


def _parts(f, conj):
    """f, in negation normal form, as conjuncts (conj) or disjuncts; a
    quantifier of the splitting kind (E for conjuncts, A for disjuncts)
    stands for the parts it moves out, then itself."""
    if isinstance(f, And if conj else Or):
        return _parts(f.lhs, conj) + _parts(f.rhs, conj)
    if isinstance(f, Exists if conj else Forall):
        return _moved(f) + [f]
    return [f]


def _moved(q):
    """The parts of q's body that the scoping rule decides before q searches."""
    parts = _parts(q.body, isinstance(q, Exists))
    return [p for p in parts if _quantifier_free(p) and q.var not in free_vars(p)]


def _truth(holds):
    return Verdict(Truth.TRUE if holds else Truth.FALSE)


def _term(t, env):
    """The model of term t under env."""
    x = model(t.const) if t.const is not None else {}
    for v, k in t.coeffs:
        x = add(x, scale(env[v], k))
    return x


def _atom(construction, a, env):
    lhs, rhs = _term(a.lhs, env), _term(a.rhs, env)
    if isinstance(a, Lt):
        return cmp(lhs, rhs) < 0
    if isinstance(a, Eq):
        return lhs == rhs
    if isinstance(a, Cong):
        return lead_mod(construction, sub(rhs, lhs), a.modulus) is None
    return _desc_lt(construction, a.modulus, lhs, rhs)


def _eval(construction, f, env, cfg, scoped):
    def rec(g, e):
        return _eval(construction, g, e, cfg, scoped)

    if isinstance(f, Not):  # ~ stands only before an atom or true/false
        return _truth(rec(f.body, env).truth is not Truth.TRUE)
    if isinstance(f, BoolC):
        return _truth(f.value)
    if isinstance(f, ATOMS):
        return _truth(_atom(construction, f, env))
    if isinstance(f, (And, Or)):
        stop, agree = (Truth.FALSE, Truth.TRUE) if isinstance(f, And) else (Truth.TRUE, Truth.FALSE)
        left = rec(f.lhs, env)
        if left.truth is stop:
            return left
        right = rec(f.rhs, env)
        if right.truth is stop:
            return right
        if left.truth is not agree or right.truth is not agree:
            return _UNKNOWN
        if left.witness is None:
            return right if right.witness is not None else Verdict(agree)
        if right.witness is None:
            return left
        return Verdict(agree, {**left.witness, **right.witness}, right.reason)
    exists = isinstance(f, Exists)
    if not exists and not isinstance(f, Forall):
        raise TypeError(f"not a formula: {f!r}")
    moved = _moved(f) if scoped else []
    if moved:
        # the moved parts are quantifier-free, so they are decided
        m = rec(reduce(And if exists else Or, moved), env)
        if m.truth is (Truth.FALSE if exists else Truth.TRUE):
            return m
    stop, reason = (Truth.TRUE, "") if exists else (Truth.FALSE, "counterexample")
    for cand in fragment_models([*env.values(), *map(model, _constants(f))], cfg):
        got = rec(f.body, {**env, f.var: cand})
        if got.truth is stop:
            inner = {k: e for k, e in (got.witness or {}).items() if k != f.var}
            return Verdict(stop, {f.var: to_element(construction, cand), **inner}, reason)
    return _UNKNOWN


def same_verdict(got, want):
    """Assert that two verdicts agree: truth, reason and witness, in order."""
    assert got.truth is want.truth
    assert got.reason == want.reason
    if want.witness is None:
        assert got.witness is None
    else:
        assert list(got.witness.items()) == list(want.witness.items())
