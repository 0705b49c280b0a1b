"""Finite-support formal series with exponents in a construction group.

A series is a finite sum of ``coeff * t^exponent`` terms ordered by the
group order of the exponents; ``valuation`` returns the least exponent.
Coefficients live in a prime field of characteristic p: GF(p), or the
rationals for p = 0.  A coefficient is a plain Python number, and each
field supplies its own sum, product and negation, which the series
operations call on every coefficient: int arithmetic followed by one
reduction modulo p over GF(p), and over Q the one-frame ``Fraction``
helpers of ``oagw.elements``, which skip ``Fraction``'s operators.
Fields are interned: each p has exactly one ``PrimeField``, so two
series share a field exactly when they hold the same object.

Series values follow ``GroupElement``'s design.  ``HahnSeries`` is
immutable, and its public constructor validates: every exponent is an
element of the series' construction, the exponents ascend strictly in
the group order, and every coefficient is canonical and nonzero (a
``Fraction`` over Q, an int in ``1..p-1`` over GF(p)).  ``series()``
canonicalizes raw input and, like every operation whose result is
canonical by construction, builds through the unchecked ``_series``.
Equality compares fields by identity, exponents with
``GroupElement.__eq__`` and rational coefficients by their slots, and
the text form writes rationals from the same slots.

Membership predicates classify series by their exponents alone:

* ``in_val_ring``: every exponent is >= 0 (the full valuation ring).
* ``in_k_lambda1``: every exponent is supported on G1 positions.
* ``in_a``: every exponent has zero or positive left (G2) part; this
  cone is a subring containing both of the sets above.

Every ring operation builds its terms in ascending order, so no
exponent is hashed or sorted.  A sum merges the two ascending term
tuples, one ``cmp`` per step.  A product is a sum of rows, one per term
c1 * t^g1 of the shorter operand: the row multiplies c1 * t^g1 into
every term of the other.  A row is ascending and its exponents are distinct, because
translation by g1 preserves the group order, and its coefficients are
nonzero, because a field has no zero divisors.  So each row merges into
the rows before it, and a monomial times a series compares nothing.  A
negation keeps the exponents, and a lifted embedding keeps their order,
because an order embedding is strictly increasing and so maps sorted
exponents to sorted ones.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter, itemgetter
from typing import Iterable, Mapping, Union

from .elements import (
    Construction,
    ConstructionMismatch,
    GroupElement,
    LAMBDA,
    _fraction_add,
    _fraction_mul,
    _fraction_neg,
    _rational,
    format_element,
    unit,
    zero as group_zero,
)
from .embeddings import Embedding, apply as apply_embedding
from .positions import G2, g1_square

# p -> the one PrimeField of characteristic p
_FIELDS: dict[int, "PrimeField"] = {}


class PrimeField:
    """The prime field of characteristic p: GF(p), or the rationals for p = 0.

    Interned like ``Position``: ``PrimeField(p)`` checks p once, on first
    use, and returns the same object ever after, so fields compare and
    hash by identity; pickle, ``copy`` and ``deepcopy`` return it too.

    A coefficient is a plain number, a ``Fraction`` over Q and an int in
    ``0..p-1`` over GF(p).  ``add``, ``mul`` and ``neg`` take and return
    such coefficients: over GF(p) they are int arithmetic followed by
    ``% p``, over Q ``Fraction``'s results written in one Python frame.
    ``numerator`` reads a coefficient's numerator without a Python call
    (an int is its own), so a zero sum shows without ``Fraction.__bool__``.
    """

    __slots__ = ("p", "add", "mul", "neg", "numerator")

    def __new__(cls, p: int) -> "PrimeField":
        # before the lookup: 5.0 and True hash like 5 and 1
        if p.__class__ is not int:
            raise TypeError(f"the characteristic must be an int, got {p!r}")
        try:
            return _FIELDS[p]
        except KeyError:
            pass
        if p and (p < 2 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1))):
            raise ValueError(f"{p} is not prime")
        if p:
            def add(a, b):
                return (a + b) % p

            def mul(a, b):
                return a * b % p

            def neg(a):
                return -a % p

            ops = (add, mul, neg, attrgetter("numerator"))
        else:
            ops = (_fraction_add, _fraction_mul, _fraction_neg, attrgetter("_numerator"))
        self = object.__new__(cls)
        for name, value in zip(cls.__slots__, (p, *ops)):
            object.__setattr__(self, name, value)
        return _FIELDS.setdefault(p, self)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"PrimeField is immutable: cannot set {name!r}")

    def __reduce__(self) -> tuple:
        # pickle, copy and deepcopy go back through the intern table
        return (PrimeField, (self.p,))

    def __hash__(self) -> int:
        return hash(self.p)

    def __repr__(self) -> str:
        return f"GF({self.p})" if self.p else "Q"

    def coerce(self, x):
        if self.p:
            return int(x) % self.p
        # a Fraction is canonical as it is, and an int is n/1
        if x.__class__ is Fraction:
            return x
        if x.__class__ is int:
            return _rational(x, 1)
        return Fraction(x)

    def inv(self, a):
        p = self.p
        if p:
            if not a % p:
                raise ZeroDivisionError("inverse of zero")
            return pow(a, -1, p)
        # over Q from the slots, an int read as n/1: numerator and
        # denominator swap, coprime as they were, and the sign moves up
        num, den = (a, 1) if a.__class__ is int else (a._numerator, a._denominator)
        if not num:
            raise ZeroDivisionError("inverse of zero")
        if num < 0:
            num, den = -num, -den
        out = object.__new__(Fraction)
        out._numerator = den
        out._denominator = num
        return out


QQ = PrimeField(0)


class HahnSeries:
    """Immutable; the constructor validates, ``_series`` does not."""

    __slots__ = ("construction", "coeff_field", "terms")

    construction: Construction
    coeff_field: PrimeField
    terms: tuple[tuple[GroupElement, object], ...]  # ascending exponents

    def __init__(
        self,
        construction: Construction,
        coeff_field: PrimeField,
        terms: Iterable[tuple[GroupElement, object]],
    ) -> None:
        if not isinstance(construction, Construction):
            raise ValueError(f"unknown construction {construction!r}")
        if coeff_field.__class__ is not PrimeField:
            raise ValueError(f"expected a PrimeField, got {coeff_field!r}")
        terms = tuple((g, c) for g, c in terms)
        p = coeff_field.p
        prev = None
        for g, c in terms:
            if g.__class__ is not GroupElement:
                raise ValueError(f"expected a group element exponent, got {g!r}")
            if g.construction is not construction:
                raise ConstructionMismatch(f"exponent {g} is not a {construction} element")
            if prev is not None and not prev < g:
                raise ValueError("exponents must be in strictly ascending group order")
            # int == Fraction and bool == int, so the class decides first
            if p:
                canonical = c.__class__ is int and 0 < c < p
            else:
                canonical = (
                    c.__class__ is Fraction
                    and c._numerator != 0
                    and c._denominator > 0
                    and math.gcd(c._numerator, c._denominator) == 1
                )
            if not canonical:
                raise ValueError(f"{c!r} is not a nonzero coefficient of {coeff_field}")
            prev = g
        _set_construction(self, construction)
        _set_field(self, coeff_field)
        _set_terms(self, terms)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"HahnSeries is immutable: cannot set {name!r}")

    def __reduce__(self) -> tuple:
        return (HahnSeries, (self.construction, self.coeff_field, self.terms))

    def __repr__(self) -> str:
        return (
            f"HahnSeries(construction={self.construction!r}, "
            f"coeff_field={self.coeff_field!r}, terms={self.terms!r})"
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not HahnSeries:
            return NotImplemented
        if self is other:
            return True
        ta, tb = self.terms, other.terms
        if (
            self.construction is not other.construction
            or self.coeff_field is not other.coeff_field
            or len(ta) != len(tb)
        ):
            return False
        if self.coeff_field.p:
            return ta == tb
        # canonical rationals are equal exactly when their slots are
        for (ga, ca), (gb, cb) in zip(ta, tb):
            if ga is not gb and not ga == gb:
                return False
            if ca is not cb and (
                ca._numerator != cb._numerator or ca._denominator != cb._denominator
            ):
                return False
        return True

    def __hash__(self) -> int:
        return hash((self.construction, self.coeff_field, self.terms))

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "HahnSeries") -> "HahnSeries":
        _compat(self, other)
        F = self.coeff_field
        return _series(self.construction, F, _merge(self.terms, other.terms, F.add, F.numerator))

    def __neg__(self) -> "HahnSeries":
        neg = self.coeff_field.neg
        return _series(
            self.construction, self.coeff_field, tuple([(g, neg(c)) for g, c in self.terms])
        )

    def __sub__(self, other: "HahnSeries") -> "HahnSeries":
        return self + (-other)

    def __mul__(self, other: "HahnSeries") -> "HahnSeries":
        _compat(self, other)
        F = self.coeff_field
        mul, add, numerator = F.mul, F.add, F.numerator
        short, long = self.terms, other.terms
        if len(long) < len(short):
            short, long = long, short
        # the group and the field are commutative, so either operand may
        # give the rows
        acc = ()
        for g1, c1 in short:
            acc = _merge(acc, [(g1 + g2, mul(c1, c2)) for g2, c2 in long], add, numerator)
        return _series(self.construction, F, tuple(acc))

    def valuation(self) -> GroupElement:
        if not self.terms:
            raise ZeroDivisionError("the zero series has no valuation")
        return self.terms[0][0]

    def lead_coeff(self):
        if not self.terms:
            raise ZeroDivisionError("the zero series has no leading term")
        return self.terms[0][1]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        # one frame: a rational is written from its slots, as str() writes it
        parts = []
        if self.coeff_field.p:
            for g, c in self.terms:
                parts.append(f"{c} * t^{format_element(g)}")
        else:
            for g, c in self.terms:
                den = c._denominator
                if den == 1:
                    parts.append(f"{c._numerator} * t^{format_element(g)}")
                else:
                    parts.append(f"{c._numerator}/{den} * t^{format_element(g)}")
        return " + ".join(parts)


# the slot setters write past the immutable __setattr__ without a Python call
_set_construction = HahnSeries.construction.__set__  # type: ignore[attr-defined]
_set_field = HahnSeries.coeff_field.__set__  # type: ignore[attr-defined]
_set_terms = HahnSeries.terms.__set__  # type: ignore[attr-defined]
_new_series = object.__new__


def _series(
    construction: Construction, coeff_field: PrimeField, terms: tuple
) -> HahnSeries:
    """Unchecked constructor for terms that are canonical by construction."""
    s = _new_series(HahnSeries)
    _set_construction(s, construction)
    _set_field(s, coeff_field)
    _set_terms(s, terms)
    return s


def _merge(a, b, add, numerator) -> tuple:
    """The sum of two ascending term sequences, as an ascending tuple.

    One ``cmp`` per step, skipped when the two exponents are one object.
    At an equal exponent the coefficients add in the field, and the term
    is dropped when the sum's numerator is zero.  An empty side returns
    the other as it is.
    """
    if not a or not b:
        return a or b
    out = []
    append = out.append
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        (ga, ca), (gb, cb) = a[i], b[j]
        s = 0 if ga is gb else ga.cmp(gb)
        if s < 0:
            append(a[i])
            i += 1
        elif s:
            append(b[j])
            j += 1
        else:
            c = add(ca, cb)
            if numerator(c):
                append((ga, c))
            i += 1
            j += 1
    return (*out, *a[i:], *b[j:])


def _compat(a: HahnSeries, b: HahnSeries) -> None:
    if a.construction is not b.construction:
        raise ConstructionMismatch("series over different constructions")
    if a.coeff_field is not b.coeff_field:
        raise ValueError(f"series over different fields {a.coeff_field} and {b.coeff_field}")


def series(
    construction: Construction,
    terms: Mapping[GroupElement, Union[int, Fraction]],
    coeff_field: PrimeField = QQ,
) -> HahnSeries:
    # the exponents are distinct keys, so no two coefficients add
    kept = []
    coerce, numerator = coeff_field.coerce, coeff_field.numerator
    for g, c in terms.items():
        if g.construction is not construction:
            raise ConstructionMismatch("exponent from the wrong construction")
        c = coerce(c)
        if numerator(c):
            kept.append((g, c))
    return _series(construction, coeff_field, tuple(sorted(kept, key=itemgetter(0))))


def monomial(
    exponent: GroupElement,
    coeff: Union[int, Fraction] = 1,
    coeff_field: PrimeField = QQ,
) -> HahnSeries:
    # one term needs no dict and no sort
    c = coeff_field.coerce(coeff)
    terms = ((exponent, c),) if coeff_field.numerator(c) else ()
    return _series(exponent.construction, coeff_field, terms)


def one(construction: Construction, coeff_field: PrimeField = QQ) -> HahnSeries:
    return monomial(group_zero(construction), 1, coeff_field)


# -- membership -------------------------------------------------------------


@dataclass(frozen=True)
class Membership:
    in_val_ring: bool
    in_k_lambda1: bool
    in_a: bool


# the eight flag triples, each built once: membership hands out these values
_MEMBERSHIPS = {
    flags: Membership(*flags)
    for flags in itertools.product((False, True), repeat=3)
}


def membership(f: HahnSeries) -> Membership:
    """Exponent-wise classification; defined on the lambda construction.

    One pass over the exponents.  G2 positions sort first, so an
    exponent has a G2 part exactly when its leading entry is at a G2
    position, and then its sign is the sign of that part.  The sign is
    read from the lead itself, as ``sign()`` reads it: the least slot's
    coefficient of a polynomial, or a rational's numerator.
    """
    if f.construction is not LAMBDA:
        raise ConstructionMismatch("membership flags are defined for lambda series")
    in_val_ring = in_k_lambda1 = in_a = True
    for g, _ in f.terms:
        if not g.entries:
            continue  # the zero exponent is in all three
        pos, v = g.entries[0]
        negative = (v[0][1] if v.__class__ is tuple else v._numerator) < 0
        if negative:
            in_val_ring = False
        if pos.area == G2:
            in_k_lambda1 = False
            if negative:
                in_a = False
    return _MEMBERSHIPS[in_val_ring, in_k_lambda1, in_a]


# -- units ------------------------------------------------------------------


def truncated_inverse(f: HahnSeries, precision: GroupElement) -> HahnSeries:
    """g with v(f*g - 1) > precision, by leading-term factoring.

    Write f = c * t^v * (1 + u) with v(u) > 0; geometric expansion of
    1/(1+u) accumulates until the error valuation clears the requested
    precision.  Monomials invert exactly.  Raises ``ValueError`` when no
    multiple of v(u) can exceed the precision (incomparable archimedean
    classes), and when v(u) is 0, which no correct valuation gives.
    """
    if f.is_zero():
        raise ZeroDivisionError("cannot invert the zero series")
    if precision.construction is not f.construction:
        raise ConstructionMismatch("precision exponent from the wrong construction")
    F = f.coeff_field
    v = f.valuation()
    lead_inv = monomial(-v, F.inv(f.lead_coeff()), F)
    one_series = one(f.construction, F)
    u = lead_inv * f - one_series
    if u.is_zero():
        return lead_inv
    err = u.valuation()  # > 0
    if precision.sign() > 0:
        dp = precision.lead_descriptor()
        de = err.lead_descriptor()
        if de is None:  # v(u) = 0, which only a wrong valuation gives
            raise ValueError(
                f"no truncated inverse of {f} to precision {precision}: "
                f"error valuation {err} is not positive"
            )
        if dp < de:
            raise ValueError(
                f"precision {precision} is unreachable: error valuation {err} "
                "is infinitesimal relative to it"
            )
    acc = power = one_series
    neg_u = -u
    total = err
    while not (total > precision):
        power = power * neg_u
        acc = acc + power
        total = total + err
    return lead_inv * acc


# -- lifted embeddings -------------------------------------------------------


def lift_embedding(e: Embedding, f: HahnSeries) -> HahnSeries:
    """Apply the group embedding to every exponent; a ring embedding.

    An order embedding is strictly increasing, so the images of the
    sorted exponents are sorted and distinct as they come: the terms
    keep their order and their coefficients.
    """
    if f.construction is not LAMBDA:
        raise ConstructionMismatch("lifted embeddings are defined for lambda series")
    return _series(
        f.construction, f.coeff_field, tuple([(apply_embedding(e, g), c) for g, c in f.terms])
    )


def subring_escape_witness() -> tuple[HahnSeries, HahnSeries]:
    """A series x inside the cone A whose lifted image leaves it.

    x = t^(-u) for the head square unit u of the right block: the
    exponent has no left part, so x sits in the Laurent branch of A;
    the left-shift embedding moves the exponent onto a G2 square with a
    negative entry, which is outside the cone.
    """
    g = -unit(LAMBDA, g1_square(0, 0), {0: 1})
    x = monomial(g)
    hx = lift_embedding(Embedding.F1, x)
    return x, hx
