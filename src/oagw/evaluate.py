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

Quantifier bodies are miniscoped when the formula is compiled: ``E v.``
splits its body into conjuncts and ``A v.`` into disjuncts.  A
quantifier-free part that does not mention v is decided once, before
the search: ``E v. (chi & phi)`` runs as ``chi & E v. phi`` and
``A v. (chi | psi)`` as ``chi | A v. psi``, so a false ``chi`` makes the
existential False and a true one makes the universal True without a
search.  This is sound: each rewrite states an equivalence, and
miniscoping's side condition, a nonempty domain, holds because every
group contains 0.  A part that holds a quantifier stays where it is,
since its fragments are seeded by every binding around it.  The rule
changes no fragment and no witness: a quantifier still searches the
fragment of its whole original body (the bindings, then every constant
of the body in order, moved out or not), and behind a neutral ``chi``
it returns its own verdict, witness included.  Some sentences now
decide where they were Unknown: in ``E x. A y. (x = y -> false) | b < x``
the disjunct ``b < x`` is decided for each x before the search over y,
which alone could never confirm the universal, so the sentence is True
on the first x above b.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import partial
from operator import itemgetter
from typing import Callable, Mapping, Optional

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


# -- three-valued evaluation --------------------------------------------------

# A formula is compiled once per evaluate() call into nested closures
# that take the variable environment and return a Verdict.  One
# bottom-up pass turns every subformula into a _Node that knows its
# free variables, with ~ pushed down to the atoms; the constants are
# collected in the same pass, in the order the atoms are compiled.  A
# quantifier splits its body, moves out the parts it may decide once,
# and compiles the rest into closures; a moved part is compiled once it
# reaches the quantifier its terms hoist into.  The environment is one
# dict, extended by each quantifier while its body runs.  Every fragment
# of one call shares the pool-part memo of a per-call copy of the
# config, so the memo lives for one call.
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
    ``parts``, none of them a junction of the same kind; a guard also
    has ``tail``, the quantifier whose body its parts were moved out
    of, and returns the tail's own verdict when every part is neutral.
    ``fixed`` marks a node that holds a quantifier: its fragments read
    every binding around it, so it never moves.
    """

    __slots__ = ("fv", "fixed", "conj", "parts", "tail", "leaf")

    def __init__(self, fv, fixed, conj, parts, tail, leaf) -> None:
        self.fv: frozenset[str] = fv
        self.fixed: bool = fixed
        self.conj: Optional[bool] = conj
        self.parts: tuple[_Node, ...] = parts
        self.tail: Optional[_Node] = tail
        self.leaf: Optional[Callable[[Optional[_Scope]], _Compiled]] = leaf

    def flat(self, conj: bool) -> tuple["_Node", ...]:
        """The parts of self as one side of a junction of kind ``conj``."""
        if self.conj is not conj:
            return (self,)
        return self.parts if self.tail is None else self.parts + (self.tail,)

    def build(self, scope: Optional[_Scope]) -> _Compiled:
        if self.conj is None:
            return self.leaf(scope)
        parts = [p.build(scope) for p in self.parts]
        if self.tail is None:
            return _compile_junction(self.conj, parts)
        tail = self.tail.build(scope)
        if not parts:
            return tail
        return _compile_guard(self.conj, _compile_junction(self.conj, parts), tail)


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
    root = _compile(construction, f, False, replace(cfg), [])
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
        return _Node(lhs.fv | rhs.fv, lhs.fixed or rhs.fixed, conj, parts, None, None)
    if kind is Not:
        return _compile(construction, f.body, not neg, cfg, consts)
    if kind is Exists or kind is Forall:
        return _compile_quantifier(construction, f, neg, cfg, consts)
    if kind is BoolC:
        verdict = _TRUE if f.value != neg else _FALSE
        return _Node(frozenset(), False, None, (), None, lambda scope: lambda env: verdict)
    if isinstance(f, Atom):
        consts += [t.const for t in (f.lhs, f.rhs) if t.const is not None and not t.const.is_zero()]
        fv = frozenset([v for v, _ in f.lhs.coeffs + f.rhs.coeffs])
        return _Node(fv, False, None, (), None, partial(_compile_literal, construction, f, neg))
    raise TypeError(f"not a formula: {f!r}")


def _compile_junction(conj: bool, parts: list[_Compiled]) -> _Compiled:
    """``&`` (conj) or ``|`` of parts, left to right: the first absorbing
    verdict, else the bare neutral one if every part is neutral."""
    stop, neutral = (Truth.FALSE, _TRUE) if conj else (Truth.TRUE, _FALSE)
    agree = neutral.truth
    if len(parts) == 2:
        lhs, rhs = parts

        def run2(env: dict[str, GroupElement]) -> Verdict:
            left = lhs(env)
            if left.truth is stop:
                return left
            right = rhs(env)
            if right.truth is stop:
                return right
            if left.truth is agree and right.truth is agree:
                return neutral
            return _UNKNOWN

        return run2

    def run(env: dict[str, GroupElement]) -> Verdict:
        decided = True
        for part in parts:
            v = part(env)
            if v.truth is stop:
                return v
            decided = decided and v.truth is not Truth.UNKNOWN
        return neutral if decided else _UNKNOWN

    return run


def _compile_guard(conj: bool, moved: _Compiled, quantifier: _Compiled) -> _Compiled:
    """``moved & quantifier`` (conj) or ``moved | quantifier``, where
    ``moved`` was moved out of the quantifier's body: the quantifier
    keeps its own verdict, witness included, behind a neutral ``moved``."""
    stop = Truth.FALSE if conj else Truth.TRUE

    def run(env: dict[str, GroupElement]) -> Verdict:
        left = moved(env)
        if left.truth is stop:
            return left
        right = quantifier(env)
        if right.truth is stop or left.truth is not Truth.UNKNOWN:
            return right
        return _UNKNOWN

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
        # a guard of this kind keeps its quantifier as the tail, not a part
        tail = body.tail if body.conj is conj else None
        stay = tuple([p for p in parts if p is not tail and (p.fixed or var in p.fv)])
        body = _Node(body.fv, body.fixed, conj, stay, tail, None)
    scope = _Scope(var)
    run_body = body.build(scope)
    hoisted, values = scope.terms, scope.values
    # an existential stops on a witness, a universal on a counterexample
    stop, reason = (Truth.TRUE, "") if conj else (Truth.FALSE, "counterexample")

    def run(env: dict[str, GroupElement]) -> Verdict:
        params = list(env.values()) + consts
        shadowed = env.get(var)
        if hoisted:
            values[:] = [term(env) for term in hoisted]
        found = None
        for cand in iter_fragment(params, cfg, construction):
            env[var] = cand
            sub = run_body(env)
            if sub.truth is stop:
                found = Verdict(stop, {var: cand, **(sub.witness or {})}, reason)
                break
        if shadowed is None:
            env.pop(var, None)
        else:
            env[var] = shadowed
        # the fragment cannot exhaust the infinite structure
        return _UNKNOWN if found is None else found

    node = _Node(body.fv - {var}, True, None, (), None, lambda scope: run)
    return node if not moved else _Node(node.fv, True, conj, moved, node, None)


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
        return partial(t.evaluate, construction)
    own = [c for v, c in t.coeffs if v == scope.var]
    if not own:
        return scope.hoist(partial(t.evaluate, construction))
    # the summand k * var is added to the rest, which a run holds fixed
    k = sum(own)
    get = itemgetter(scope.var)
    rest = Term(tuple(c for c in t.coeffs if c[0] != scope.var), t.const)
    if not rest.coeffs and rest.const is None:
        return lambda env: get(env).scale(k)
    rest_fn = _compile_term(construction, rest, scope)
    if k == 1:
        return lambda env: rest_fn(env) + get(env)
    return lambda env: rest_fn(env) + get(env).scale(k)


def _compile_literal(
    construction: Construction, a: Atom, neg: bool, scope: Optional[_Scope]
) -> _Compiled:
    holds = _compile_atom(construction, a, scope)
    if neg:
        return lambda env: _FALSE if holds(env) else _TRUE
    return lambda env: _TRUE if holds(env) else _FALSE


def _compile_atom(
    construction: Construction, a: Atom, scope: Optional[_Scope]
) -> Callable[[dict[str, GroupElement]], bool]:
    lhs = _compile_term(construction, a.lhs, scope)
    rhs = _compile_term(construction, a.rhs, scope)
    if isinstance(a, Lt):
        return lambda env: lhs(env) < rhs(env)
    if isinstance(a, Eq):
        return lambda env: lhs(env) == rhs(env)
    n = a.modulus
    if isinstance(a, Cong):
        return lambda env: (rhs(env) - lhs(env)).is_divisible(n)
    if isinstance(a, DescLt):
        return lambda env: cong_free_below(n, lhs(env), rhs(env))
    raise TypeError(f"not an atom: {a!r}")
