"""Sound three-valued evaluation over the infinite groups.

Quantifier-free formulas are decided exactly.  Quantifiers search a
deterministic finite fragment: an existential is True only when an
explicit witness is found and a universal is False only on an explicit
counterexample; everything else is Unknown.  Decided verdicts are
therefore sound for the infinite structure.

Formulas are compiled in negation normal form: ``~`` is pushed through
``&``, ``|``, ``->`` and ``~~`` down to the atoms, and through the
quantifiers to their duals, so ``~E v. phi`` runs as ``A v. ~phi`` and
``~A v. phi`` as ``E v. ~phi``.  A decided quantifier verdict is thus
always the quantifier's own: True with a witness from an existential,
False with a counterexample from a universal.

A junction (``&`` or ``|``) runs its parts left to right and returns
the first absorbing verdict, False for ``&`` and True for ``|``.  When
every part agrees on the neutral one, it keeps every binding: its
witness is the union of the parts' witnesses, and a part that alone
has a witness gives its verdict unchanged.  A quantifier writes its
own binding after its body's, so an inner binding of the same name
never hides it.

Quantifier bodies are miniscoped when the formula is compiled: ``E v.``
splits its body into conjuncts and ``A v.`` into disjuncts, and a
quantifier-free part that does not mention v moves out into a junction
whose last part is the quantifier: ``E v. (chi & phi)`` runs as
``chi & E v. phi`` and ``A v. (chi | psi)`` as ``chi | A v. psi``.
So ``chi`` is decided once, before the search, and a false ``chi``
makes the existential False and a true one the universal True.  This
is sound: each rewrite states an equivalence, and miniscoping's side
condition, a nonempty domain, holds because every group contains 0.  A
part that holds a quantifier stays where it is, since its fragments
are seeded by every binding around it.  The rule changes no fragment
and no witness: a quantifier still searches the fragment of its whole
original body (the bindings, then every constant of the body in order,
moved out or not), and a moved part carries no witness.  Some
sentences now decide where they were Unknown: in
``E x. A y. (x = y -> false) | b < x`` the disjunct ``b < x`` is
decided for each x before the search over y, which alone could never
confirm the universal, so the sentence is True on the first x above b.

Every node records which decided truths it can return: an atom True
or False, ``true`` and ``false`` only themselves, a quantifier its
stopping truth (True for E, False for A) if its body can and otherwise
none, ``&`` False if some part can and True if every part can (an
empty ``&`` is True), and ``|`` the dual.  A quantifier whose body
cannot return its stopping truth does not search: a search only ever
ends on that truth or Unknown, so it returns Unknown at once.  So
``A x. E y. phi`` and ``E x. A y. phi`` enumerate no fragment at
all, rather than up to size_cap**2 candidates for the same Unknown.
The body is still compiled, so a constant of another construction
still raises, and the pool is still checked, so a pool of another
construction raises where the first fragment did.  Until an Unknown
names its cause, a skipped quantifier keeps the reason "fragment
bounds exhausted" of every other Unknown.

A quantifier whose body can return its stopping truth is skipped too
when the divisible hull shows that it never does.  The compiler writes
"the body returns that truth" as disjuncts, each a set of homogeneous
integer rows ``sum_v k_v*v < 0`` or ``<= 0`` over the free and bound
variables.  A ``<`` or ``=`` atom whose terms carry no element constant
gives rows, a false ``=`` two disjuncts (``s < t`` or ``t < s``); any
other atom gives none.  A junction takes the union of its parts'
disjuncts for its absorbing truth and their product for the neutral
one, and a quantifier gives its body's unrefuted disjuncts for its own
stopping truth, its variable renamed to a fresh name.  Fourier-Motzkin
elimination (Fourier 1827; Motzkin 1936) runs on each disjunct, and a
quantifier all of whose disjuncts derive ``0 < 0`` is skipped and gives
no truth.  This is sound: each construction G lies in its divisible
hull D, an ordered Q-vector space; elimination only adds rows with
positive integer multipliers, and a dropped atom only weakens a
system; so a refuted disjunct has no solution in D, hence none in G,
and the search could only have ended Unknown.  In
``A x. A y. A z. (x < y & y < z -> x < z)`` a counterexample of
``A y.`` needs ``x < y``, ``y < z`` and ``z <= x`` for some z, which
has no solution, so no fragment is enumerated at all.  Past fixed
numbers of disjuncts and rows the hull gives up, and the search runs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial, reduce
from operator import itemgetter
from typing import Callable, Hashable, Mapping, Optional

from .elements import Construction, ConstructionMismatch, GroupElement
from .formulas import (
    And,
    Atom,
    BoolC,
    Cong,
    DescLt,
    Eq,
    Exists,
    Forall,
    Formula,
    Implies,
    Lt,
    Not,
    Or,
    Term,
)
from .fragments import FragmentConfig, iter_fragment
from .predicates import cong_free_below


class Truth(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Verdict:
    truth: Truth
    witness: Optional[dict[str, GroupElement]] = None
    reason: str = ""

    @property
    def decided(self) -> bool:
        return self.truth is not Truth.UNKNOWN

    def __bool__(self) -> bool:  # pragma: no cover - guard against misuse
        raise TypeError("Verdict is three-valued; inspect .truth explicitly")


# Verdicts without a witness are immutable and shared.
_TRUE = Verdict(Truth.TRUE)
_FALSE = Verdict(Truth.FALSE)
_UNKNOWN = Verdict(Truth.UNKNOWN, None, "fragment bounds exhausted")

# The decided truths a node can return, as a set of these bits: an int
# mask, because a junction works out its own from its parts' at every
# compile, and hashing the enum would cost more than the mask.
_CAN_TRUE, _CAN_FALSE = 1, 2

# The divisible hull's view of a node returning a truth: a row
# ``(k, strict)`` says that sum_v k[v]*v is < 0 if strict, else <= 0;
# a disjunct is a tuple of rows that hold together, and a _Dnf is a
# tuple of disjuncts one of which holds.  A variable is a free name, a
# name bound further in, or the fresh token of a quantifier it left.
_Row = tuple[dict[Hashable, int], bool]
_Dnf = tuple[tuple[_Row, ...], ...]
_TOP: _Dnf = ((),)  # one disjunct without rows: nothing is known
# Past these sizes the hull gives up on a condition, and its search runs.
_MAX_DISJUNCTS = 32
_MAX_ROWS = 32


# -- three-valued evaluation --------------------------------------------------

# A formula is compiled once per evaluate() call into nested closures
# that take the variable environment and return a Verdict.  One
# bottom-up pass turns every subformula into a _Node that knows its
# free variables, with ~ pushed down to the atoms; the constants are
# collected in the same pass, in the order the atoms are compiled.  A
# quantifier splits its body, moves the parts it may decide once into a
# junction before itself, and compiles the rest into closures; a moved
# part is compiled once it reaches the quantifier its terms hoist into.
# A term becomes a closure over the environment: a variable is read, a
# constant kept, a term without the innermost quantifier's variable is
# summed from its bindings once per run of that quantifier (at the top
# level, once per call), and a term with it adds only that summand per
# candidate.  The environment is one dict, extended by each quantifier
# while its body runs.  Every fragment of one call shares fresh pool
# memos, carried by a clone of the config, so they live for one call.
_Compiled = Callable[[dict[str, GroupElement]], Verdict]
_TermFn = Callable[[dict[str, GroupElement]], GroupElement]


class _Scope:
    """The innermost quantifier around an atom, seen from the atom's terms.

    Terms that need arithmetic but do not mention ``var`` keep their
    value for a whole run of the quantifier: they are registered here,
    evaluated once when a run starts, and read back per candidate.
    """

    def __init__(self, var: str) -> None:
        self.var = var
        self.terms: list[_TermFn] = []
        self.values: list[GroupElement] = []

    def hoist(self, term: _TermFn) -> _TermFn:
        k, values = len(self.terms), self.values
        self.terms.append(term)
        return lambda env: values[k]


class _Node:
    """A subformula, miniscoped, waiting for the scope of its atoms.

    ``conj`` is None for a leaf, which ``leaf(scope)`` compiles.
    Otherwise the node is a junction (``&`` if ``conj``, else ``|``) of
    ``parts``, none of them a junction of the same kind.  ``fixed``
    marks a node that holds a quantifier: its fragments read every
    binding around it, so it never moves.  ``gives`` is the mask of
    decided truths the node can return; a leaf states it, a junction
    works it out from its parts.  A leaf's ``rows``, if it has them,
    give its ``hull`` of a truth it can return.
    """

    __slots__ = ("fv", "fixed", "conj", "parts", "leaf", "gives", "rows")

    def __init__(self, fv, fixed, conj, parts, leaf, gives=0, rows=None) -> None:
        self.fv: frozenset[str] = fv
        self.fixed: bool = fixed
        self.conj: Optional[bool] = conj
        self.parts: tuple[_Node, ...] = parts
        self.leaf: Optional[Callable[[Optional[_Scope]], _Compiled]] = leaf
        self.rows: Optional[Callable[[int], _Dnf]] = rows
        if conj is not None:
            # & can give False if some part can and True if every part can
            # (an empty & is True); | is the dual
            some, every = 0, _CAN_TRUE | _CAN_FALSE
            for p in parts:
                some |= p.gives
                every &= p.gives
            stop = _CAN_FALSE if conj else _CAN_TRUE
            gives = (some & stop) | (every & ~stop)
        self.gives: int = gives

    def flat(self, conj: bool) -> tuple["_Node", ...]:
        """The parts of self as one side of a junction of kind ``conj``."""
        return self.parts if self.conj is conj else (self,)

    def build(self, scope: Optional[_Scope]) -> _Compiled:
        if self.conj is None:
            return self.leaf(scope)
        return _compile_junction(self.conj, [p.build(scope) for p in self.parts])

    def hull(self, truth: int) -> _Dnf:
        """Disjuncts, one of which holds in the divisible hull whenever
        the node returns ``truth`` (_CAN_TRUE or _CAN_FALSE)."""
        if not self.gives & truth:
            return ()
        if self.conj is None:
            return _TOP if self.rows is None else self.rows(truth)
        parts = [p.hull(truth) for p in self.parts]
        if truth == (_CAN_FALSE if self.conj else _CAN_TRUE):
            # the absorbing truth comes from some part
            out = tuple([d for dnf in parts for d in dnf])
            return out if len(out) <= _MAX_DISJUNCTS else _TOP
        # the neutral truth from every part; a part left out only weakens
        out = _TOP
        for dnf in parts:
            if len(out) * len(dnf) <= _MAX_DISJUNCTS:
                out = tuple([a + b for a in out for b in dnf])
        return out


def evaluate(
    construction: Construction,
    f: Formula,
    env: Mapping[str, GroupElement],
    cfg: FragmentConfig,
) -> Verdict:
    """Three-valued truth of ``f`` under ``env``."""
    for v, e in env.items():
        if e.construction is not construction:
            raise ConstructionMismatch(f"binding {v!r} is not a {construction} element")
    root = _compile(construction, f, False, cfg._with_fresh_memo(), [])
    missing = root.fv - set(env)
    if missing:
        raise KeyError(f"unbound variables: {sorted(missing)}")
    return root.build(None)(dict(env))


def _compile(
    construction: Construction,
    f: Formula,
    neg: bool,
    cfg: FragmentConfig,
    consts: list[GroupElement],
) -> _Node:
    """``f``, or ``~f`` if ``neg``, as a node.

    Appends the element constants of ``f`` to ``consts``.
    """
    kind = f.__class__
    if kind is And or kind is Or or kind is Implies:
        # a -> b is ~a | b, and ~ turns & into | and | into &
        lhs = _compile(construction, f.lhs, neg is not (kind is Implies), cfg, consts)
        rhs = _compile(construction, f.rhs, neg, cfg, consts)
        conj = (kind is And) is not neg
        parts = lhs.flat(conj) + rhs.flat(conj)
        return _Node(lhs.fv | rhs.fv, lhs.fixed or rhs.fixed, conj, parts, None)
    if kind is Not:
        return _compile(construction, f.body, not neg, cfg, consts)
    if kind is Exists or kind is Forall:
        return _compile_quantifier(construction, f, neg, cfg, consts)
    if kind is BoolC:
        verdict = _TRUE if f.value != neg else _FALSE
        gives = _CAN_TRUE if verdict is _TRUE else _CAN_FALSE
        return _Node(frozenset(), False, None, (), lambda scope: lambda env: verdict, gives)
    if isinstance(f, Atom):
        consts += [t.const for t in (f.lhs, f.rhs) if t.const is not None and not t.const.is_zero()]
        fv = frozenset([v for v, _ in f.lhs.coeffs + f.rhs.coeffs])
        leaf = partial(_compile_atom, construction, f, neg)
        return _Node(fv, False, None, (), leaf, _CAN_TRUE | _CAN_FALSE, partial(_atom_hull, f, neg))
    raise TypeError(f"not a formula: {f!r}")


def _compile_junction(conj: bool, parts: list[_Compiled]) -> _Compiled:
    """``&`` (conj) or ``|`` of parts, left to right: the first absorbing
    verdict, else, if every part is neutral, the neutral verdict with the
    union of the parts' witnesses, a later binding of a name over an
    earlier one; a part that alone has a witness gives its own verdict."""
    if len(parts) == 1:
        return parts[0]
    stop, neutral = (Truth.FALSE, _TRUE) if conj else (Truth.TRUE, _FALSE)
    agree = neutral.truth

    def run(env: dict[str, GroupElement]) -> Verdict:
        out = neutral
        for part in parts:
            v = part(env)
            if v.truth is stop:
                return v
            if v.truth is not agree:
                out = _UNKNOWN
            elif v.witness is not None and out is not _UNKNOWN:
                if out.witness is not None:
                    # witnessed neutral parts share a reason: "" for a True
                    # existential, "counterexample" for a False universal
                    v = Verdict(agree, out.witness | v.witness, v.reason)
                out = v
        return out

    return run


def _compile_quantifier(
    construction: Construction,
    f: Exists | Forall,
    neg: bool,
    cfg: FragmentConfig,
    outer_consts: list[GroupElement],
) -> _Node:
    """``f``, or ``~f`` if ``neg``, as a node."""
    # ~ turns E into A and A into E, and goes on into the body
    var, conj = f.var, isinstance(f, Exists) is not neg
    start = len(outer_consts)
    body = _compile(construction, f.body, neg, cfg, outer_consts)
    # the fragment is seeded by every constant of the body, moved out or not
    consts = outer_consts[start:]
    # an existential splits its body into conjuncts, a universal into
    # disjuncts; the quantifier-free ones without var are decided first
    parts = body.flat(conj)
    moved = tuple([p for p in parts if not p.fixed and var not in p.fv])
    if moved:
        stay = tuple([p for p in parts if p.fixed or var in p.fv])
        body = _Node(body.fv, body.fixed, conj, stay, None)
    scope = _Scope(var)
    run_body = body.build(scope)
    hoisted, values = scope.terms, scope.values
    # an existential stops on a witness, a universal on a counterexample
    stop, reason = (Truth.TRUE, "") if conj else (Truth.FALSE, "counterexample")

    def search(env: dict[str, GroupElement]) -> Verdict:
        params = list(env.values()) + consts
        shadowed = env.get(var)
        if hoisted:
            values[:] = [term(env) for term in hoisted]
        found = None
        for cand in iter_fragment(params, cfg, construction):
            env[var] = cand
            sub = run_body(env)
            if sub.truth is stop:
                # the own binding goes last: a shadowed inner one cannot hide it
                found = Verdict(stop, {var: cand, **(sub.witness or {}), var: cand}, reason)
                break
        if shadowed is None:
            env.pop(var, None)
        else:
            env[var] = shadowed
        # the fragment cannot exhaust the infinite structure
        return _UNKNOWN if found is None else found

    # a search ends only on its stopping truth or Unknown, so one whose
    # body cannot return that truth is skipped, and so is one whose body
    # returns it only where the divisible hull has no solution
    gives = body.gives & (_CAN_TRUE if conj else _CAN_FALSE)
    open_: _Dnf = tuple([d for d in body.hull(gives) if _feasible(d)]) if gives else ()
    if not open_:
        gives = 0
    run = search if gives else partial(_skip, cfg, construction)
    fresh = object()  # var seen from outside: a name no other binding shares
    rows = partial(_rename, open_, var, fresh)
    node = _Node(body.fv - {var}, True, None, (), lambda scope: run, gives, lambda truth: rows())
    return node if not moved else _Node(node.fv, True, conj, moved + (node,), None)


def _skip(cfg: FragmentConfig, construction: Construction, env: dict[str, GroupElement]) -> Verdict:
    """A quantifier that no search could decide: Unknown at once."""
    cfg._pool(construction)  # a pool of another construction raises, as in a search
    return _UNKNOWN


def _atom_hull(a: Atom, neg: bool, truth: int) -> _Dnf:
    """The rows of ``a``, or ``~a`` if ``neg``, returning ``truth``: a
    ``<`` or ``=`` between terms without constants gives rows, and any
    other atom nothing."""
    kind = a.__class__
    if (kind is not Lt and kind is not Eq) or a.lhs.const is not None or a.rhs.const is not None:
        return _TOP
    d: dict[Hashable, int] = {}  # lhs - rhs
    for v, k in a.lhs.coeffs:
        d[v] = d.get(v, 0) + k
    for v, k in a.rhs.coeffs:
        d[v] = d.get(v, 0) - k
    d = {v: k for v, k in d.items() if k}
    minus_d = {v: -k for v, k in d.items()}
    holds = (truth == _CAN_TRUE) != neg
    if kind is Lt:
        # lhs < rhs, or else rhs <= lhs
        return (((d, True),),) if holds else (((minus_d, False),),)
    # lhs = rhs, or else lhs < rhs or rhs < lhs
    return (((d, False), (minus_d, False)),) if holds else (((d, True),), ((minus_d, True),))


def _rename(dnf: _Dnf, var: str, fresh: Hashable) -> _Dnf:
    """``dnf`` with the variable ``var`` called ``fresh``."""

    def row(c: dict[Hashable, int], strict: bool) -> _Row:
        return ({fresh if v == var else v: k for v, k in c.items()} if var in c else c), strict

    return tuple(tuple([row(c, strict) for c, strict in d]) for d in dnf)


def _feasible(rows: tuple[_Row, ...]) -> bool:
    """Whether the rows may hold together in an ordered Q-vector space.

    False only when Fourier-Motzkin elimination, which adds rows with
    positive integer multipliers, derives 0 < 0; True also once there
    are more than _MAX_ROWS rows.
    """
    while len(rows) <= _MAX_ROWS:
        if not any(strict for _, strict in rows):
            return True  # every variable 0 solves rows that are not strict
        # eliminate the variable that makes the fewest new rows
        signs: dict[Hashable, list[int]] = {}
        for c, _ in rows:
            for v, k in c.items():
                signs.setdefault(v, [0, 0])[k < 0] += 1
        if not signs:
            return False  # a strict row reads 0 < 0
        var = min(signs, key=lambda v: signs[v][0] * signs[v][1])
        out: list[_Row] = []
        pos: list[_Row] = []
        neg: list[_Row] = []
        for row in rows:
            k = row[0].get(var, 0)
            (pos if k > 0 else neg if k < 0 else out).append(row)
        for p, p_strict in pos:
            for n, n_strict in neg:
                a, b = -n[var], p[var]
                c = {v: a * k for v, k in p.items()}
                for v, k in n.items():
                    c[v] = c.get(v, 0) + b * k
                c = {v: k for v, k in c.items() if k}
                if c:
                    out.append((c, p_strict or n_strict))
                elif p_strict or n_strict:
                    return False  # 0 < 0
        rows = tuple(out)
    return True


def _compile_term(construction: Construction, t: Term, scope: Optional[_Scope]) -> _TermFn:
    """``t`` as a closure that does per candidate only the work that
    depends on the variable of the innermost quantifier around it."""
    if t.const is not None and t.const.construction is not construction:
        raise ConstructionMismatch(f"cannot mix {construction} and {t.const.construction} elements")
    if not t.coeffs:
        value = t.evaluate(construction, {})
        return lambda env: value
    var = t.is_single_var()
    if var is not None:
        return itemgetter(var)
    if scope is None:
        return _sum_term(t)
    own = [c for v, c in t.coeffs if v == scope.var]
    if not own:
        return scope.hoist(_sum_term(t))
    # the summand k * var is added to the rest, which a run holds fixed
    own_fn = _summand(scope.var, sum(own))
    rest = Term(tuple(c for c in t.coeffs if c[0] != scope.var), t.const)
    if not rest.coeffs and rest.const is None:
        return own_fn
    return _plus(_compile_term(construction, rest, scope), own_fn)


def _sum_term(t: Term) -> _TermFn:
    """``t`` as a closure that adds up its summands afresh at each call,
    the constant last."""
    summands = [_summand(v, k) for v, k in t.coeffs]
    if t.const is not None:
        const = t.const
        summands.append(lambda env: const)
    return reduce(_plus, summands)


def _summand(var: str, k: int) -> _TermFn:
    get = itemgetter(var)
    return get if k == 1 else lambda env: get(env).scale(k)


def _plus(f: _TermFn, g: _TermFn) -> _TermFn:
    return lambda env: f(env) + g(env)


def _compile_atom(
    construction: Construction, a: Atom, neg: bool, scope: Optional[_Scope]
) -> _Compiled:
    """``a``, or ``~a`` if ``neg``, as a closure."""
    lhs = _compile_term(construction, a.lhs, scope)
    rhs = _compile_term(construction, a.rhs, scope)
    yes, no = (_FALSE, _TRUE) if neg else (_TRUE, _FALSE)
    if isinstance(a, Lt):
        return lambda env: yes if lhs(env) < rhs(env) else no
    if isinstance(a, Eq):
        return lambda env: yes if lhs(env) == rhs(env) else no
    n = a.modulus
    if isinstance(a, Cong):
        return lambda env: yes if (rhs(env) - lhs(env)).is_divisible(n) else no
    if isinstance(a, DescLt):
        return lambda env: yes if cong_free_below(n, lhs(env), rhs(env)) else no
    raise TypeError(f"not an atom: {a!r}")
