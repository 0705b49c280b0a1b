"""Deterministic random generators for suite and test inputs.

Every suite derives one ``random.Random`` per case from (seed, case
index), so reports are reproducible and parallelism-safe.

The samplers draw from tables built once at import: the interned
positions as ``_POSITIONS[kind][index]`` (the G1 squares one row deeper,
``[block][slot]``), the canonical rationals as ``[numerator][denominator]``
per denominator set, and the polynomial slots and term counts.  A draw
is ``_pick(rng, table)``, the item ``rng.choice(table)`` would return.
In CPython ``choice(seq)`` is ``seq[_randbelow(len(seq))]``,
``randrange(n)`` is ``_randbelow(n)`` and ``randrange(a, b)`` is ``a +
_randbelow(b - a)``, so a choice from a table of n items uses up the
stream exactly as a ``randrange`` of n values does, and the values
drawn, in the order drawn, fix every case.  Two rules keep that order:
an outer choice picks the row before the inner one picks the item, and
a polynomial term draws its coefficient before its slot, because the
assignment ``coeffs[slot] = coeff`` that the tables replace evaluates
its right-hand side first.

``_randbelow(n)`` is ``_randbelow_with_getrandbits``: it draws ``k =
n.bit_length()`` bits, and draws again while the result is ``>= n``.
``_pick`` runs that same loop against ``rng.getrandbits``, so it reads
the same bits from the stream and returns the same item as ``choice``,
without the two Python frames of ``choice`` and ``_randbelow``.  It calls
the generator's own ``getrandbits``, so a subclass that overrides it
(Hypothesis's ``st.randoms()``, say) still controls every draw.

Table values are canonical, so sampled elements skip ``element()``'s
per-component validation: their entries are sorted once by position and
handed to ``_from_canonical``.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .elements import (
    Construction,
    GAMMA,
    GroupElement,
    LAMBDA,
    _from_canonical,
    zero,
)
from .hahn import HahnSeries, PrimeField, QQ, series
from .positions import G2, Position, g1_circle, g1_square, g2_circle, g2_square


def case_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}:{index}")


def _pick(rng: random.Random, seq):
    """``rng.choice(seq)``, drawn from the same bits; see the module docstring."""
    n = len(seq)
    if not n:
        raise IndexError("cannot choose from an empty sequence")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return seq[r]


_NUMERATORS = tuple(k for k in range(-12, 13) if k)
_POLY_COEFFS = (-6, -4, -3, -2, -1, 1, 2, 3, 4, 6)  # LAMBDA square coefficients
_POLY_SLOTS = tuple(range(6))
_POLY_TERM_COUNTS = (1, 2, 3)
_SERIES_COEFFS = (-3, -2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-5, 3))

# kind -> index -> position: G2 circles, G2 squares, G1 squares (one row
# per block, indexed by slot), G1 circles; the first 3 pairs or blocks
_POSITIONS = (
    tuple(g2_circle(m) for m in range(3)),
    tuple(g2_square(m) for m in range(3)),
    tuple(tuple(g1_square(b, p) for p in range(5)) for b in range(3)),
    tuple(g1_circle(b) for b in range(3)),
)
_G2_CIRCLES, _G2_SQUARES, _G1_SQUARES, _G1_CIRCLES = _POSITIONS


def _rationals(dens: tuple[int, ...]) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(num, den) for den in dens) for num in _NUMERATORS)


# (circle table, square table) of each construction, indexed by
# ``pos.is_square``; None where squares hold polynomials.  GAMMA circles
# take odd denominators, GAMMA squares those prime to 3.
_GAMMA_RATIONALS = (_rationals((1, 3, 5, 7, 9)), _rationals((1, 2, 4, 5, 7, 8)))
_LAMBDA_RATIONALS = (_rationals((1, 2, 3, 4, 5)), None)


def _sampled(construction: Construction, comps: dict) -> GroupElement:
    """The element of nonzero canonical ``comps``.

    The positions are distinct, so the pairs sort by position alone
    (``Position.__lt__``) and no two values are compared.
    """
    return _from_canonical(construction, tuple(sorted(comps.items())))


def random_position(rng: random.Random) -> Position:
    """One of the first 3 G2 pairs or G1 blocks; a G1 square in slot 0..4."""
    pos = _pick(rng, _pick(rng, _POSITIONS))
    return _pick(rng, pos) if pos.__class__ is tuple else pos


def random_value(rng: random.Random, construction: Construction, pos: Position):
    """A nonzero canonical value that ``pos`` can hold."""
    # an Enum hashes in Python, so the construction is not a dict key here
    table = (_GAMMA_RATIONALS if construction is GAMMA else _LAMBDA_RATIONALS)[pos.is_square]
    if table is not None:
        return _pick(rng, _pick(rng, table))
    coeffs = {}
    for _ in range(_pick(rng, _POLY_TERM_COUNTS)):
        c = _pick(rng, _POLY_COEFFS)  # before the slot; see the module docstring
        coeffs[_pick(rng, _POLY_SLOTS)] = c
    return tuple(sorted(coeffs.items()))


def random_element(
    rng: random.Random,
    construction: Construction,
    max_support: int = 4,
    allow_zero: bool = True,
) -> GroupElement:
    if allow_zero and rng.random() < 0.05:
        return zero(construction)
    comps = {}
    for _ in range(_pick(rng, range(1, max_support + 1))):
        pos = random_position(rng)
        comps[pos] = random_value(rng, construction, pos)
    # at least one component, each of a nonzero value: never zero
    return _sampled(construction, comps)


def random_nonzero(rng: random.Random, construction: Construction, max_support: int = 4) -> GroupElement:
    return random_element(rng, construction, max_support, allow_zero=False)


def random_positive(rng: random.Random, construction: Construction) -> GroupElement:
    e = random_nonzero(rng, construction)
    return e if e.sign() > 0 else -e


def random_g1_element(rng: random.Random, construction: Construction, max_support: int = 3) -> GroupElement:
    """Support confined to the right block."""
    comps = {}
    for _ in range(_pick(rng, range(1, max_support + 1))):
        if rng.random() < 0.7:
            pos: Position = _pick(rng, _pick(rng, _G1_SQUARES))
        else:
            pos = _pick(rng, _G1_CIRCLES)
        comps[pos] = random_value(rng, construction, pos)
    return _sampled(construction, comps)


def random_a_cone_exponent(rng: random.Random) -> GroupElement:
    """LAMBDA exponent with zero or positive G2 part."""
    if rng.random() < 0.5:
        return random_g1_element(rng, LAMBDA)
    g2pos = _pick(rng, _G2_SQUARES) if rng.random() < 0.5 else _pick(rng, _G2_CIRCLES)
    e = _from_canonical(LAMBDA, ((g2pos, random_value(rng, LAMBDA, g2pos)),))
    if rng.random() < 0.7:
        e = e + random_g1_element(rng, LAMBDA, 2)
    if e.is_zero():
        return e
    if e.entries[0][0].area == G2 and e.sign() < 0:
        return -e
    return e


def random_valring_exponent(rng: random.Random) -> GroupElement:
    if rng.random() < 0.1:
        return zero(LAMBDA)
    return random_nonzero(rng, LAMBDA).abs()


def random_series(
    rng: random.Random,
    construction: Construction = LAMBDA,
    coeff_field: PrimeField = QQ,
    max_terms: int = 3,
    allow_zero: bool = False,
    exponents=None,
) -> HahnSeries:
    n = _pick(rng, range(0 if allow_zero else 1, max_terms + 1))
    terms = {}
    for _ in range(n):
        g = exponents(rng) if exponents is not None else random_element(rng, construction, 3)
        c = _pick(rng, _SERIES_COEFFS)
        terms[g] = c
    s = series(construction, terms, coeff_field)
    if s.is_zero() and not allow_zero:
        return series(construction, {zero(construction): 1}, coeff_field)
    return s
