"""Sound three-valued evaluation over the infinite groups.

Quantifier-free formulas are decided exactly.  Quantifiers search a
deterministic finite fragment: an existential is True only when an
explicit witness is found and a universal is False only on an explicit
counterexample; everything else is Unknown.  Decided verdicts are
therefore sound for the infinite structure.

A formula is compiled once, by ``compile_formula``, into a ``Program``
that ``run_program`` runs under any number of configs; ``evaluate``
compiles and runs once.  Compiling binds no config: a run puts its
config, a plain frozen value, into the program's one-slot cell, where
every search and every skipped quantifier reads it; each fragment keeps
its memos to itself.  One slot is enough, because no run re-enters its
own program.  So ``closure_audit`` compiles each sentence once and runs
it under the full-group config and, when that run decides True, under
the image config.  Errors come in a fixed order: a binding of another
construction, then, at compile time, a constant of another
construction, then an unbound variable.

Formulas are compiled in negation normal form: ``~`` is pushed through
``&``, ``|``, ``->`` and ``~~`` down to the atoms, and through the
quantifiers to their duals, so ``~E v. phi`` runs as ``A v. ~phi`` and
``~A v. phi`` as ``E v. ~phi``.  A decided quantifier verdict is thus
always the quantifier's own: True with a witness from an existential,
False with a counterexample from a universal.

A junction (``&`` or ``|``) runs its parts left to right and returns
the first absorbing verdict, False for ``&`` and True for ``|``.  When
every part agrees on the neutral one, it keeps every binding: its
witness is the union of the parts' witnesses, and when one part alone
has a witness, its verdict is returned unchanged.  A quantifier writes its
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
moved out or not), and a moved part carries no witness.  The rule
decides some sentences that the searches alone leave Unknown: in
``E x. A y. (x = y -> false) | b < x`` the disjunct ``b < x`` is
decided for each x before the search over y, which alone could never
confirm the universal, so the sentence is True on the first x above b.

A search ends only on its stopping truth (True for E, False for A) or
Unknown, so a quantifier whose hull of that truth is ``hull.NONE`` is
skipped: it returns Unknown at once, with the reason "fragment bounds
exhausted" of every other Unknown, and enumerates no fragment.  A
node's hull of a truth is a condition in the divisible hull wherever
the node returns that truth (see ``hull.py``, which also argues that
this is sound): ``true`` and ``false`` have ``TOP`` for their own truth
and ``NONE`` for the other, an atom has ``hull.atom``, a junction the
union of its parts' hulls for its absorbing truth and their product
for the neutral one, and a quantifier ``NONE`` for the truth it does
not stop on and, for the one it does, its body's hull as
``hull.exists`` sees it from outside.  So ``A x. E y. phi`` and
``E x. A y. phi`` enumerate no fragment at all, rather than up to
size_cap**2 candidates for the same Unknown, and neither does
``A x. A y. A z. (x < y & y < z -> x < z)``: a counterexample of
``A y.`` needs ``x < y``, ``y < z`` and ``z <= x`` for some z, which
has no solution.  A quantifier's hull is worked out
once, when first asked for, by its own build or by the hull of a
quantifier around it, and a junction reads its parts' hulls only until
one decides it, so under a skipped quantifier none is worked out and
no closure is built.  The body is still walked, so a constant of
another construction still raises, and the pool is still checked, so
one of another construction raises where the first fragment did.
``desc_lt(n, s, t)`` with s free of variables reads s's n-lead once,
when it is compiled.  When s is divisible by n, zero included,
``cong_free_below``'s closed form makes the atom ``t <= 0``: for t > 0,
n times an element below t's lead is congruent to s modulo n and lies
in (0, t).  The atom then has the hull of ``~(0 < t)``, which holds at
the same elements of G.
"""

from __future__ import annotations

import enum
from functools import partial
from operator import itemgetter
from typing import Callable, Mapping, Optional

from . import hull
from .elements import Construction, ConstructionMismatch, GroupElement
from .formulas import (
    ATOMS,
    And,
    Atom,
    BoolC,
    Cong,
    DescLt,
    Eq,
    Exists,
    Forall,
    Formula,
    Frozen,
    Implies,
    Lt,
    Not,
    Or,
    Term,
)
from .fragments import FragmentConfig, iter_fragment
from .predicates import cong_free_below, cong_free_below_given


class Truth(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"


class Verdict(Frozen, fields="truth witness reason", defaults=(None, "")):
    """A truth, the bindings that witness it, if any, and its reason."""

    __slots__ = ()

    @property
    def decided(self) -> bool:
        return self.truth is not Truth.UNKNOWN

    def __bool__(self) -> bool:  # pragma: no cover - guard against misuse
        raise TypeError("Verdict is three-valued; inspect .truth explicitly")


# Verdicts without a witness are immutable and shared.
_TRUE = Verdict(Truth.TRUE)
_FALSE = Verdict(Truth.FALSE)
_UNKNOWN = Verdict(Truth.UNKNOWN, None, "fragment bounds exhausted")


# -- three-valued evaluation --------------------------------------------------

# A term becomes a closure over the environment: a constant is kept, a
# lone variable read, and any other term summed from its bindings at
# each call.  The environment is one dict, extended by each quantifier
# while its body runs.
_Compiled = Callable[[dict[str, GroupElement]], Verdict]
_TermFn = Callable[[dict[str, GroupElement]], GroupElement]


class _Node:
    """A subformula, miniscoped, waiting to be built into closures.

    ``conj`` is None for a leaf, which ``leaf()`` compiles.
    Otherwise the node is a junction (``&`` if ``conj``, else ``|``) of
    ``parts``, none of them a junction of the same kind.  ``fixed``
    marks a node that holds a quantifier: its fragments read every
    binding around it, so it never moves.  A leaf's ``own`` returns its
    ``hull`` of a truth; a junction works its hull out from its parts'.
    """

    __slots__ = ("fv", "fixed", "conj", "parts", "leaf", "own")

    def __init__(self, fv, fixed, conj, parts, leaf, own=None) -> None:
        self.fv: frozenset[str] = fv
        self.fixed: bool = fixed
        self.conj: Optional[bool] = conj
        self.parts: tuple[_Node, ...] = parts
        self.leaf: Optional[Callable[[], _Compiled]] = leaf
        self.own: Optional[Callable[[bool], hull.Dnf]] = own

    def flat(self, conj: bool) -> tuple["_Node", ...]:
        """The parts of self as one side of a junction of kind ``conj``."""
        return self.parts if self.conj is conj else (self,)

    def build(self) -> _Compiled:
        if self.conj is None:
            return self.leaf()
        return _compile_junction(self.conj, [p.build() for p in self.parts])

    def hull(self, truth: bool) -> hull.Dnf:
        """A condition that holds in the divisible hull wherever the node
        returns ``truth``."""
        if self.conj is None:
            return self.own(truth)
        parts = (p.hull(truth) for p in self.parts)
        # a junction returns its absorbing truth (False for &) where some
        # part does, and the neutral one where every part does
        return hull.some(parts) if truth is not self.conj else hull.every(parts)


class Program:
    """A formula compiled for one construction, to run under any config.

    ``root`` runs it in an environment of its free variables ``fv``, and
    ``cell`` holds the config of the run under way.
    """

    __slots__ = ("construction", "fv", "root", "cell")

    def __init__(self, construction, fv, root, cell) -> None:
        self.construction: Construction = construction
        self.fv: frozenset[str] = fv
        self.root: _Compiled = root
        self.cell: list[Optional[FragmentConfig]] = cell


def evaluate(
    construction: Construction,
    f: Formula,
    env: Mapping[str, GroupElement],
    cfg: FragmentConfig,
) -> Verdict:
    """Three-valued truth of ``f`` under ``env``: ``f`` compiled, then run."""
    _check_bindings(construction, env)  # before a constant can raise in the compile
    return run_program(compile_formula(construction, f), env, cfg)


def compile_formula(construction: Construction, f: Formula) -> Program:
    """``f`` compiled once, for ``run_program`` under any number of configs.

    Raises ``ConstructionMismatch`` for a constant of another construction.
    """
    cell: list[Optional[FragmentConfig]] = [None]
    root = _compile(construction, f, False, cell, [])
    return Program(construction, root.fv, root.build(), cell)


def run_program(
    program: Program, env: Mapping[str, GroupElement], cfg: FragmentConfig
) -> Verdict:
    """Three-valued truth of the compiled formula under ``env``, with the
    fragments of ``cfg``: what ``evaluate`` returns for it."""
    _check_bindings(program.construction, env)
    missing = program.fv - set(env)
    if missing:
        raise KeyError(f"unbound variables: {sorted(missing)}")
    program.cell[0] = cfg
    return program.root(dict(env))


def _check_bindings(construction: Construction, env: Mapping[str, GroupElement]) -> None:
    for v, e in env.items():
        if e.construction is not construction:
            raise ConstructionMismatch(f"binding {v!r} is not a {construction} element")


def _compile(
    construction: Construction,
    f: Formula,
    neg: bool,
    cell: list[Optional[FragmentConfig]],
    consts: list[GroupElement],
) -> _Node:
    """``f``, or ``~f`` if ``neg``, as a node whose searches read their
    config from ``cell``.

    Appends the element constants of ``f`` to ``consts``.
    """
    kind = f.__class__
    if kind is And or kind is Or or kind is Implies:
        # a -> b is ~a | b, and ~ turns & into | and | into &
        lhs = _compile(construction, f.lhs, neg is not (kind is Implies), cell, consts)
        rhs = _compile(construction, f.rhs, neg, cell, consts)
        conj = (kind is And) is not neg
        parts = lhs.flat(conj) + rhs.flat(conj)
        return _Node(lhs.fv | rhs.fv, lhs.fixed or rhs.fixed, conj, parts, None)
    if kind is Not:
        return _compile(construction, f.body, not neg, cell, consts)
    if kind is Exists or kind is Forall:
        return _compile_quantifier(construction, f, neg, cell, consts)
    if kind is BoolC:
        value = f.value != neg
        verdict = _TRUE if value else _FALSE
        own = lambda truth: hull.TOP if truth is value else hull.NONE
        return _Node(frozenset(), False, None, (), lambda: lambda env: verdict, own)
    if isinstance(f, ATOMS):
        for t in (f.lhs, f.rhs):
            if t.const is not None:
                if t.const.construction is not construction:
                    raise ConstructionMismatch(
                        f"cannot mix {construction} and {t.const.construction} elements"
                    )
                if not t.const.is_zero():
                    consts.append(t.const)
        fv = frozenset([v for v, _ in f.lhs.coeffs + f.rhs.coeffs])
        if kind is DescLt and not f.lhs.coeffs:
            return _compile_fixed_desc_lt(construction, f, neg, fv)
        leaf = partial(_compile_atom, construction, f, neg)
        return _Node(fv, False, None, (), leaf, partial(hull.atom, f, neg))
    raise TypeError(f"not a formula: {f!r}")


def _compile_junction(conj: bool, parts: list[_Compiled]) -> _Compiled:
    """``&`` (conj) or ``|`` of parts, left to right: the first absorbing
    verdict, else, if every part is neutral, the neutral verdict with the
    union of the parts' witnesses, a later binding of a name over an
    earlier one; when one part alone has a witness, its own verdict."""
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
                    witness = out.witness | v.witness
                    v = tuple.__new__(Verdict, ("Verdict", agree, witness, v.reason))
                out = v
        return out

    return run


def _compile_quantifier(
    construction: Construction,
    f: Exists | Forall,
    neg: bool,
    cell: list[Optional[FragmentConfig]],
    outer_consts: list[GroupElement],
) -> _Node:
    """``f``, or ``~f`` if ``neg``, as a node."""
    # ~ turns E into A and A into E, and goes on into the body
    var, conj = f.var, isinstance(f, Exists) is not neg
    start = len(outer_consts)
    body = _compile(construction, f.body, neg, cell, outer_consts)
    # the fragment is seeded by every constant of the body, moved out or not
    consts = outer_consts[start:]
    # an existential splits its body into conjuncts, a universal into
    # disjuncts; the quantifier-free ones without var are decided first
    parts = body.flat(conj)
    moved = tuple([p for p in parts if not p.fixed and var not in p.fv])
    if moved:
        stay = tuple([p for p in parts if p.fixed or var in p.fv])
        body = _Node(body.fv, body.fixed, conj, stay, None)
    # a search ends only on its stopping truth, which is conj, or Unknown.
    # The hull of that truth is worked out when first asked for: by this
    # quantifier's build, or by the hull of a quantifier around it
    known: list[hull.Dnf] = []

    def own(truth: bool) -> hull.Dnf:
        if truth is not conj:
            return hull.NONE
        if not known:
            known.append(hull.exists(body.hull(conj), var))
        return known[0]

    def leaf() -> _Compiled:
        # the body is built only when the quantifier searches, so under a
        # skipped quantifier nothing is
        if not own(conj):  # hull.NONE: the search could only end Unknown
            return partial(_skip, cell, construction)
        return _search(construction, var, conj, body, consts, cell)

    node = _Node(body.fv - {var}, True, None, (), leaf, own)
    return node if not moved else _Node(node.fv, True, conj, moved + (node,), None)


def _search(
    construction: Construction,
    var: str,
    conj: bool,
    body: _Node,
    consts: list[GroupElement],
    cell: list[Optional[FragmentConfig]],
) -> _Compiled:
    """The search of ``E var. body`` (conj) or ``A var. body`` over the
    fragment of the bindings and ``consts``."""
    run_body = body.build()
    # an existential stops on a witness, a universal on a counterexample
    stop, reason = (Truth.TRUE, "") if conj else (Truth.FALSE, "counterexample")

    def search(env: dict[str, GroupElement]) -> Verdict:
        params = list(env.values()) + consts
        shadowed = env.get(var)
        found = None
        for cand in iter_fragment(params, cell[0], construction):
            env[var] = cand
            sub = run_body(env)
            if sub.truth is stop:
                # the own binding goes last: a shadowed inner one cannot hide it
                witness = {var: cand, **(sub.witness or {}), var: cand}
                found = tuple.__new__(Verdict, ("Verdict", stop, witness, reason))
                break
        if shadowed is None:
            env.pop(var, None)
        else:
            env[var] = shadowed
        # the fragment cannot exhaust the infinite structure
        return _UNKNOWN if found is None else found

    return search


def _skip(
    cell: list[Optional[FragmentConfig]], construction: Construction, env: dict[str, GroupElement]
) -> Verdict:
    """A quantifier that no search could decide: Unknown at once."""
    cell[0]._check_pool(construction)  # a pool of another construction raises, as in a search
    return _UNKNOWN


def _compile_term(construction: Construction, t: Term) -> _TermFn:
    """``t`` as a closure over the environment: a constant evaluated
    once, a lone variable read, any other term summed at each call."""
    if not t.coeffs:
        value = t.evaluate(construction, {})
        return lambda env: value
    var = t.is_single_var()
    if var is not None:
        return itemgetter(var)
    return _sum_term(t)


def _sum_term(t: Term) -> _TermFn:
    """``t`` as one closure that adds up its summands afresh at each
    call, in order, the constant last."""
    (first, k0), *rest = [(itemgetter(v), k) for v, k in t.coeffs]
    const = t.const

    def total(env: dict[str, GroupElement]) -> GroupElement:
        acc = first(env) if k0 == 1 else first(env).scale(k0)
        for get, k in rest:
            acc = acc + (get(env) if k == 1 else get(env).scale(k))
        return acc if const is None else acc + const

    return total


def _compile_atom(construction: Construction, a: Atom, neg: bool) -> _Compiled:
    """``a``, or ``~a`` if ``neg``, as a closure."""
    lhs = _compile_term(construction, a.lhs)
    rhs = _compile_term(construction, a.rhs)
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


def _compile_fixed_desc_lt(
    construction: Construction, a: DescLt, neg: bool, fv: frozenset[str]
) -> _Node:
    """``desc_lt(n, s, t)``, or its negation if ``neg``, for an ``s``
    without variables, as a node.

    s's lead is read once, here, not per candidate.  When it is None (s
    divisible by n, zero included), cong_free_below's closed form makes
    the atom ``t <= 0``, that is ``~(0 < t)``, whose hull it has.
    """
    n, s = a.modulus, _compile_term(construction, a.lhs)({})
    d = s.lead_mod(n)
    yes, no = (_FALSE, _TRUE) if neg else (_TRUE, _FALSE)

    def leaf() -> _Compiled:
        t = _compile_term(construction, a.rhs)
        return lambda env: yes if cong_free_below_given(n, s, d, t(env)) else no

    # in the closed form the atom is ~(0 < t)
    closed = (Lt(Term(), a.rhs), not neg) if d is None else (a, neg)
    return _Node(fv, False, None, (), leaf, partial(hull.atom, *closed))
