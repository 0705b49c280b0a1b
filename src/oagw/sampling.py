"""Deterministic random generators for suite and test inputs.

Every suite derives one ``random.Random`` per case from (seed, case
index), so reports are reproducible and parallelism-safe.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .elements import (
    Construction,
    GAMMA,
    GroupElement,
    LAMBDA,
    element,
    uses_poly,
    zero,
)
from .hahn import CoefficientField, HahnSeries, QQ, series
from .positions import G2, Position, g1_circle, g1_square, g2_circle, g2_square


def case_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}:{index}")


_ODD_DENS = (1, 3, 5, 7, 9)  # usable at GAMMA circles
_NON3_DENS = (1, 2, 4, 5, 7, 8)  # usable at GAMMA squares
_NUMERATORS = tuple(k for k in range(-12, 13) if k)
_POLY_COEFFS = (-6, -4, -3, -2, -1, 1, 2, 3, 4, 6)  # LAMBDA square coefficients
_SERIES_COEFFS = (-3, -2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-5, 3))


def random_position(rng: random.Random) -> Position:
    """One of the first 3 G2 pairs or G1 blocks; a G1 square in slot 0..4."""
    kind = rng.randrange(4)
    if kind == 0:
        return g2_circle(rng.randrange(3))
    if kind == 1:
        return g2_square(rng.randrange(3))
    if kind == 2:
        return g1_square(rng.randrange(3), rng.randrange(5))
    return g1_circle(rng.randrange(3))


def random_value(rng: random.Random, construction: Construction, pos: Position):
    if uses_poly(construction, pos):
        coeffs = {}
        for _ in range(rng.randrange(1, 4)):
            coeffs[rng.randrange(0, 6)] = rng.choice(_POLY_COEFFS)
        return coeffs
    num = rng.choice(_NUMERATORS)
    if construction is GAMMA:
        den = rng.choice(_ODD_DENS if pos.is_circle else _NON3_DENS)
    else:
        den = rng.choice((1, 2, 3, 4, 5))
    return Fraction(num, den)


def random_element(
    rng: random.Random,
    construction: Construction,
    max_support: int = 4,
    allow_zero: bool = True,
) -> GroupElement:
    if allow_zero and rng.random() < 0.05:
        return zero(construction)
    comps = {}
    for _ in range(rng.randrange(1, max_support + 1)):
        pos = random_position(rng)
        comps[pos] = random_value(rng, construction, pos)
    # at least one component, each of a nonzero value: never zero
    return element(construction, comps)


def random_nonzero(rng: random.Random, construction: Construction, max_support: int = 4) -> GroupElement:
    return random_element(rng, construction, max_support, allow_zero=False)


def random_positive(rng: random.Random, construction: Construction) -> GroupElement:
    e = random_nonzero(rng, construction)
    return e if e.sign() > 0 else -e


def random_g1_element(rng: random.Random, construction: Construction, max_support: int = 3) -> GroupElement:
    """Support confined to the right block."""
    comps = {}
    for _ in range(rng.randrange(1, max_support + 1)):
        if rng.random() < 0.7:
            pos: Position = g1_square(rng.randrange(3), rng.randrange(5))
        else:
            pos = g1_circle(rng.randrange(3))
        comps[pos] = random_value(rng, construction, pos)
    return element(construction, comps)


def random_a_cone_exponent(rng: random.Random) -> GroupElement:
    """LAMBDA exponent with zero or positive G2 part."""
    if rng.random() < 0.5:
        return random_g1_element(rng, LAMBDA)
    g2pos = g2_square(rng.randrange(3)) if rng.random() < 0.5 else g2_circle(rng.randrange(3))
    comps = {g2pos: random_value(rng, LAMBDA, g2pos)}
    if rng.random() < 0.7:
        tail = random_g1_element(rng, LAMBDA, 2)
        e = element(LAMBDA, comps) + tail
    else:
        e = element(LAMBDA, comps)
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
    coeff_field: CoefficientField = QQ,
    max_terms: int = 3,
    allow_zero: bool = False,
    exponents=None,
) -> HahnSeries:
    n = rng.randrange(0 if allow_zero else 1, max_terms + 1)
    terms = {}
    for _ in range(n):
        g = exponents(rng) if exponents is not None else random_element(rng, construction, 3)
        c = rng.choice(_SERIES_COEFFS)
        terms[g] = c
    s = series(construction, terms, coeff_field)
    if s.is_zero() and not allow_zero:
        return series(construction, {zero(construction): 1}, coeff_field)
    return s
