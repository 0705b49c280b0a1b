"""Translation of valuation statements into the ring language of series.

Source atoms speak about valuations of products of series variables:
``v(s) < v(t)`` and ``v(s) + v(t) = v(u)``.  The target speaks ring:
polynomial equalities between series terms plus the unary valuation
ring predicate, with one quantified shape ``E g (ValRing(g) & s = g*t)``
expressing ``v(s) >= v(t)`` without division.  Both languages build
boolean structure from the formula layer's ``Not``, ``And`` and ``Or``,
and one walker decides those connectives for either side.  Nodes are
immutable tuples compared by class and fields, as the formula layer's.

The target's quantifier ranges over the full series field, so its
semantics here is decided by the exact valuation comparison rather than
by searching finite-support witnesses; both sides are evaluated on
finite-support series and compared by the test suites.
"""

from __future__ import annotations

from typing import Callable, Mapping, Union

from .formulas import And, Frozen, Not, Or
from .hahn import HahnSeries, membership

# -- series terms ------------------------------------------------------------

Factor = Union[str, HahnSeries]


class SeriesTerm(Frozen, fields="factors"):
    """Product of series variables and constants."""

    __slots__ = ()

    def evaluate(self, env: Mapping[str, HahnSeries]) -> HahnSeries:
        if not self.factors:
            raise ValueError("empty series term")
        acc: HahnSeries | None = None
        for f in self.factors:
            s = env[f] if isinstance(f, str) else f
            acc = s if acc is None else acc * s
        assert acc is not None
        return acc

    def __mul__(self, other: "SeriesTerm") -> "SeriesTerm":
        return tuple.__new__(SeriesTerm, ("SeriesTerm", self.factors + other.factors))

    def __str__(self) -> str:
        return "*".join(f if isinstance(f, str) else f"({f})" for f in self.factors)


def svar(name: str) -> SeriesTerm:
    return tuple.__new__(SeriesTerm, ("SeriesTerm", (name,)))


# -- source: valuation statements ---------------------------------------------


class VLt(Frozen, fields="lhs rhs"):
    """v(lhs) < v(rhs)."""

    __slots__ = ()


class VSumEq(Frozen, fields="a b c"):
    """v(a) + v(b) = v(c)."""

    __slots__ = ()


ValFormula = Union[VLt, VSumEq, Not, And, Or]


# -- target: ring formulas -----------------------------------------------------


class RingEq(Frozen, fields="lhs rhs"):
    __slots__ = ()


class ValRing(Frozen, fields="arg"):
    __slots__ = ()


class RExists(Frozen, fields="var body"):
    __slots__ = ()


RingFormula = Union[RingEq, ValRing, RExists, Not, And, Or]


class NonValuationAtom(TypeError):
    pass


def _ge_pattern(s: SeriesTerm, t: SeriesTerm) -> RingFormula:
    # v(s) >= v(t)  <=>  s/t in the valuation ring, division-free.  The
    # bound g scopes over s and t only, and no pattern nests inside
    # another, so g need avoid only the variables of s and t.
    taken = {f for f in s.factors + t.factors if isinstance(f, str)}
    g, k = "g", 0
    while g in taken:
        k += 1
        g = f"g{k}"
    gv = svar(g)
    valring = tuple.__new__(ValRing, ("ValRing", gv))
    eq = tuple.__new__(RingEq, ("RingEq", s, gv * t))
    return tuple.__new__(RExists, ("RExists", g, tuple.__new__(And, ("And", valring, eq))))


def translate_to_ring(f: ValFormula) -> RingFormula:
    """Syntactic translation; boolean structure is preserved."""
    if isinstance(f, VLt):
        return Not(_ge_pattern(f.lhs, f.rhs))
    if isinstance(f, VSumEq):
        prod = f.a * f.b
        lt1 = Not(_ge_pattern(prod, f.c))  # v(ab) < v(c)
        lt2 = Not(_ge_pattern(f.c, prod))  # v(ab) > v(c)
        return And(Not(lt1), Not(lt2))
    if isinstance(f, Not):
        return Not(translate_to_ring(f.body))
    if isinstance(f, (And, Or)):
        return type(f)(translate_to_ring(f.lhs), translate_to_ring(f.rhs))
    raise NonValuationAtom(f"not a valuation statement: {f!r}")


# -- semantics ----------------------------------------------------------------


def _decide(f, env: Mapping[str, HahnSeries], atom: Callable[..., bool]) -> bool:
    """Truth of ``Not``/``And``/``Or`` over ``atom``, which decides the rest."""
    if isinstance(f, Not):
        return not _decide(f.body, env, atom)
    if isinstance(f, And):
        return _decide(f.lhs, env, atom) and _decide(f.rhs, env, atom)
    if isinstance(f, Or):
        return _decide(f.lhs, env, atom) or _decide(f.rhs, env, atom)
    return atom(f, env)


def _divides_in_val_ring(a: HahnSeries, b: HahnSeries) -> bool:
    """Truth of E g (ValRing(g) & a = g*b) over the full series field."""
    if b.is_zero():
        return a.is_zero()
    if a.is_zero():
        return True
    return a.valuation() >= b.valuation()


def _ring_atom(f: RingFormula, env: Mapping[str, HahnSeries]) -> bool:
    if isinstance(f, RingEq):
        return f.lhs.evaluate(env) == f.rhs.evaluate(env)
    if isinstance(f, ValRing):
        return membership(f.arg.evaluate(env)).in_val_ring
    if isinstance(f, RExists):
        body = f.body
        if (
            isinstance(body, And)
            and isinstance(body.lhs, ValRing)
            and body.lhs.arg.factors == (f.var,)
            and isinstance(body.rhs, RingEq)
        ):
            eq = body.rhs
            if eq.rhs.factors[:1] == (f.var,):
                a = eq.lhs.evaluate(env)
                b = tuple.__new__(SeriesTerm, ("SeriesTerm", eq.rhs.factors[1:])).evaluate(env)
                return _divides_in_val_ring(a, b)
        raise NonValuationAtom("only the division-free valuation-ring pattern is evaluable")
    raise NonValuationAtom(f"not a ring formula: {f!r}")


def eval_ring(f: RingFormula, env: Mapping[str, HahnSeries]) -> bool:
    """Evaluate a ring formula; quantifiers must be the divisibility shape."""
    return _decide(f, env, _ring_atom)


def _valuation_atom(f: ValFormula, env: Mapping[str, HahnSeries]) -> bool:
    # v(0) is +infinity here, decided apart from _divides_in_val_ring so
    # that the two sides of the translation are checked against each other
    if isinstance(f, VLt):
        s = f.lhs.evaluate(env)
        t = f.rhs.evaluate(env)
        if s.is_zero():
            return False
        if t.is_zero():
            return True
        return s.valuation() < t.valuation()
    if isinstance(f, VSumEq):
        ab = f.a.evaluate(env) * f.b.evaluate(env)
        c = f.c.evaluate(env)
        if ab.is_zero() or c.is_zero():
            return ab.is_zero() and c.is_zero()
        return ab.valuation() == c.valuation()
    raise NonValuationAtom(f"not a valuation statement: {f!r}")


def eval_valuation(f: ValFormula, env: Mapping[str, HahnSeries]) -> bool:
    """Group-side truth via exact valuations (v(0) treated as +infinity)."""
    return _decide(f, env, _valuation_atom)
