"""Sound three-valued evaluation over the infinite groups.

Quantifier-free formulas are decided exactly.  Quantifiers search a
deterministic finite fragment: an existential is True only when an
explicit witness is found and a universal is False only on an explicit
counterexample; everything else is Unknown.  Decided verdicts are
therefore sound for the infinite structure.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import Callable, Mapping, Optional

from .elements import Construction, ConstructionMismatch, GroupElement
from .formulas import (
    And,
    AtomF,
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
    free_vars,
)
from .fragments import FragmentConfig, iter_fragment
from .predicates import cong_free_below


class Truth(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"

    def negate(self) -> "Truth":
        if self is Truth.TRUE:
            return Truth.FALSE
        if self is Truth.FALSE:
            return Truth.TRUE
        return Truth.UNKNOWN


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


def _negate(v: Verdict) -> Verdict:
    if v is _TRUE:
        return _FALSE
    if v is _FALSE:
        return _TRUE
    if v is _UNKNOWN:
        return v
    return Verdict(v.truth.negate(), v.witness, v.reason)


# -- three-valued evaluation --------------------------------------------------

# A formula is compiled once per evaluate() call into nested closures
# that take the variable environment and return a Verdict.  Quantifier
# closures hold the constants of their body, collected in the same pass
# in the order the atoms are compiled; the environment is one dict,
# extended by each quantifier while its body runs.  Every fragment of
# one call shares its pool part through a per-call copy of the config.
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


def evaluate(
    construction: Construction,
    f: Formula,
    env: Mapping[str, GroupElement],
    cfg: FragmentConfig,
    candidate_filter: Optional[Callable[[GroupElement], bool]] = None,
) -> Verdict:
    """Three-valued truth of ``f`` under ``env``.

    ``candidate_filter`` restricts quantifier witness search to a
    subset of the fragment (used for substructure audits); parameters
    and constants always seed the fragment.
    """
    missing = free_vars(f) - set(env)
    if missing:
        raise KeyError(f"unbound variables: {sorted(missing)}")
    for v, e in env.items():
        if e.construction is not construction:
            raise ValueError(f"binding {v!r} is not a {construction} element")
    run = _compile(construction, f, cfg.with_shared_pool(), candidate_filter, None, [])
    return run(dict(env))


def _compile(
    construction: Construction,
    f: Formula,
    cfg: FragmentConfig,
    flt: Optional[Callable[[GroupElement], bool]],
    scope: Optional[_Scope],
    consts: list[GroupElement],
) -> _Compiled:
    """``f`` as a closure; appends the element constants of ``f`` to ``consts``."""
    if isinstance(f, BoolC):
        verdict = _TRUE if f.value else _FALSE
        return lambda env: verdict
    if isinstance(f, AtomF):
        a = f.atom
        consts += [t.const for t in (a.lhs, a.rhs) if t.const is not None and not t.const.is_zero()]
        holds = _compile_atom(construction, a, scope)
        return lambda env: _TRUE if holds(env) else _FALSE
    if isinstance(f, Not):
        body = _compile(construction, f.body, cfg, flt, scope, consts)
        return lambda env: _negate(body(env))
    if isinstance(f, And):
        return _compile_and(
            _compile(construction, f.lhs, cfg, flt, scope, consts),
            _compile(construction, f.rhs, cfg, flt, scope, consts),
        )
    if isinstance(f, (Or, Implies)):
        # a -> b is ~a | b
        lhs = Not(f.lhs) if isinstance(f, Implies) else f.lhs
        return _compile_or(
            _compile(construction, lhs, cfg, flt, scope, consts),
            _compile(construction, f.rhs, cfg, flt, scope, consts),
        )
    if isinstance(f, (Exists, Forall)):
        return _compile_quantifier(construction, f, cfg, flt, consts)
    raise TypeError(f"not a formula: {f!r}")


def _compile_and(lhs: _Compiled, rhs: _Compiled) -> _Compiled:
    def run(env: dict[str, GroupElement]) -> Verdict:
        left = lhs(env)
        if left.truth is Truth.FALSE:
            return left
        right = rhs(env)
        if right.truth is Truth.FALSE:
            return right
        if left.truth is Truth.TRUE and right.truth is Truth.TRUE:
            return _TRUE
        return _UNKNOWN

    return run


def _compile_or(lhs: _Compiled, rhs: _Compiled) -> _Compiled:
    def run(env: dict[str, GroupElement]) -> Verdict:
        left = lhs(env)
        if left.truth is Truth.TRUE:
            return left
        right = rhs(env)
        if right.truth is Truth.TRUE:
            return right
        if left.truth is Truth.FALSE and right.truth is Truth.FALSE:
            return _FALSE
        return _UNKNOWN

    return run


def _compile_quantifier(
    construction: Construction,
    f: Exists | Forall,
    cfg: FragmentConfig,
    flt: Optional[Callable[[GroupElement], bool]],
    outer_consts: list[GroupElement],
) -> _Compiled:
    var = f.var
    consts: list[GroupElement] = []
    scope = _Scope(var)
    body = _compile(construction, f.body, cfg, flt, scope, consts)
    outer_consts += consts
    hoisted, values = scope.terms, scope.values
    # an existential stops on a witness, a universal on a counterexample
    stop, reason = (Truth.TRUE, "") if isinstance(f, Exists) else (Truth.FALSE, "counterexample")

    def run(env: dict[str, GroupElement]) -> Verdict:
        params = list(env.values()) + consts
        shadowed = env.get(var)
        if hoisted:
            values[:] = [term(env) for term in hoisted]
        found = None
        for cand in iter_fragment(params, cfg, construction):
            if flt is not None and not flt(cand):
                continue
            env[var] = cand
            sub = body(env)
            if sub.truth is stop:
                found = Verdict(stop, {var: cand, **(sub.witness or {})}, reason)
                break
        if shadowed is None:
            env.pop(var, None)
        else:
            env[var] = shadowed
        # the fragment cannot exhaust the infinite structure
        return _UNKNOWN if found is None else found

    return run


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


def _compile_atom(
    construction: Construction, a, scope: Optional[_Scope]
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
