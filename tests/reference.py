"""Reference models of the three search layers: the only oracle of each
layer in the tests.

Each model is written from the definition of its layer and shares no
search code with it: it reads elements and formulas, and imports
nothing from ``fragments``, ``predicates``, ``hull`` or ``suites``, nor
from ``evaluate`` but ``Truth`` and ``Verdict`` (``test_surface``
checks this).

- ``fragment`` enumerates a fragment naively: every coefficient vector
  is summed afresh from scaled generators.
- ``cong_free_below``, ``window`` and ``in_tail`` are the congruence
  closed form written on ``LeadDescriptor`` order.
- ``evaluate`` is the three-valued evaluator as a recursion on the
  negation normal form of a formula, with miniscoping; its quantifiers
  enumerate ``fragment`` and its ``desc_lt`` atoms read
  ``cong_free_below``.
"""

import itertools
from fractions import Fraction
from functools import reduce

from oagw.elements import zero
from oagw.evaluate import Truth, Verdict
from oagw.formulas import (
    ATOMS, And, BoolC, Cong, Eq, Exists, Forall, Implies, Lt, Not, Or, free_vars,
)

# -- fragments --------------------------------------------------------------------


def fragment(construction, params, cfg):
    """The fragment of ``params`` and the pool of ``cfg``, lazily.

    Zero, then the params, then, for m = 1, ..., coeff_bound, the sum of
    every coefficient vector over the distinct nonzero params and pool
    generators whose largest |coefficient| is m, in product order with
    each axis running 0, 1, -1, ..., m, -m.  Each element comes once,
    and at most ``size_cap`` of them.  The construction is passed in,
    because the params and the pool may both be empty.
    """
    z = zero(construction)
    gens = list(dict.fromkeys(g for g in (*params, *cfg.generator_pool) if not g.is_zero()))
    seen = set()
    for x in itertools.chain([z], params, _layer_sums(z, gens, cfg.coeff_bound)):
        if x not in seen:
            seen.add(x)
            yield x
            if len(seen) == cfg.size_cap:
                return


def _layer_sums(z, gens, bound):
    for m in range(1, bound + 1):
        axis = [0] + [s * k for k in range(1, m + 1) for s in (1, -1)]
        multiples = [{k: g.scale(k) for k in axis} for g in gens]
        for vec in itertools.product(axis, repeat=len(gens)):
            if m in vec or -m in vec:
                yield sum((row[k] for row, k in zip(multiples, vec) if k), z)


# -- the congruence closed form ------------------------------------------------------


def cong_free_below(n, a, b):
    """No y with 0 < y < b and y = a (mod n): the atom ``desc_lt(n, a, b)``."""
    return cong_free_below_given(n, a, a.lead_mod(n), b)


def cong_free_below_given(n, a, d, b):
    """``cong_free_below(n, a, b)`` with ``d`` read as a's n-lead.

    True for b <= 0.  For b > 0: false when a is divisible by n (d is
    None); otherwise d against b's lead descriptor, and on a tie true
    only at an integer slot whose lead coefficient in b lies below a's
    least residue mod n there.
    """
    if b.sign() <= 0:
        return True
    if d is None:
        return False
    beta = b.lead_descriptor()
    if d < beta or beta < d:
        return d < beta
    lead = b.lead_value()
    return not isinstance(lead, Fraction) and lead < a.coeff_at(d) % n


def window(c, x, b):
    """x lies in the index window of c and b: x > 0, and some n in {2, 3}
    makes ``desc_lt(n, c, x)``, and some makes ``desc_lt(n, x, b)``."""
    return (
        x.sign() > 0
        and any(cong_free_below(n, c, x) for n in (2, 3))
        and any(cong_free_below(n, x, b) for n in (2, 3))
    )


def in_tail(cut, b):
    """b lies in the tail set cut at ``cut``: zero, or an element whose
    lead descriptor comes after the cut.  The cut None is the empty set."""
    if cut is None:
        return False
    d = b.lead_descriptor()
    return d is None or cut < d


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
    return _eval(construction, _nnf(f), dict(env), cfg, scoped)


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
        return [t.const for t in (f.lhs, f.rhs) if t.const is not None and not t.const.is_zero()]
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
    """f, in negation normal form, as conjuncts (conj) or disjuncts.

    A quantifier of the splitting kind (E for conjuncts, A for
    disjuncts) stands for the parts it moves out, then itself.
    """
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


def _atom(construction, a, env):
    lhs, rhs = a.lhs.evaluate(construction, env), a.rhs.evaluate(construction, env)
    if isinstance(a, Lt):
        return lhs < rhs
    if isinstance(a, Eq):
        return lhs == rhs
    if isinstance(a, Cong):
        return (rhs - lhs).is_divisible(a.modulus)
    return cong_free_below(a.modulus, lhs, rhs)


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
    for cand in fragment(construction, list(env.values()) + _constants(f), cfg):
        sub = rec(f.body, {**env, f.var: cand})
        if sub.truth is stop:
            inner = {k: e for k, e in (sub.witness or {}).items() if k != f.var}
            return Verdict(stop, {f.var: cand, **inner}, reason)
    return _UNKNOWN


def same_verdict(got, want):
    """Assert that two verdicts agree: truth, reason, and the witness
    bindings in order."""
    assert got.truth is want.truth
    assert got.reason == want.reason
    if want.witness is None:
        assert got.witness is None
    else:
        assert list(got.witness.items()) == list(want.witness.items())
