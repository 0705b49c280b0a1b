"""The table-driven samplers against the randrange-based reference.

The reference below is the sampler as it was before the tables, kept
verbatim under its own names: every position and every rational built
per draw, indexed by ``randrange``, and every element built through the
validating ``element()``.  Each sampler must return what the reference
returns from the same stream, and leave the stream where the reference
leaves it, which the test shows by drawing one more ``rng.random()``
from both.
"""

import random
from fractions import Fraction

import pytest

from oagw.elements import (
    GAMMA,
    LAMBDA,
    Construction,
    GroupElement,
    _canon_value,
    element,
    uses_poly,
    zero,
)
from oagw.positions import G2, Position, g1_circle, g1_square, g2_circle, g2_square
from oagw import sampling
from oagw.sampling import case_rng

CASES = 2000
SEEDS = (7, 2024)

# -- reference sampler -------------------------------------------------------

_ODD_DENS = (1, 3, 5, 7, 9)  # usable at GAMMA circles
_NON3_DENS = (1, 2, 4, 5, 7, 8)  # usable at GAMMA squares
_NUMERATORS = tuple(k for k in range(-12, 13) if k)
_POLY_COEFFS = (-6, -4, -3, -2, -1, 1, 2, 3, 4, 6)  # LAMBDA square coefficients


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


# -- the comparison ----------------------------------------------------------


def same_draws(draw, ref_draw, same=lambda got, want: got == want):
    """``draw`` and ``ref_draw`` agree on CASES streams of every seed and
    leave each stream at the same place."""
    for seed in SEEDS:
        for i in range(CASES):
            rng, ref_rng = case_rng(seed, i), case_rng(seed, i)
            got, want = draw(rng), ref_draw(ref_rng)
            assert same(got, want), f"case ({seed}, {i}): {got!r} vs {want!r}"
            assert rng.random() == ref_rng.random(), f"case ({seed}, {i}): stream moved apart"


def canonical(got: GroupElement, want: GroupElement) -> bool:
    """Equal, and the sampled entries pass the validating constructor."""
    return got == want and GroupElement(got.construction, got.entries) == got


def test_random_position():
    same_draws(sampling.random_position, random_position, lambda got, want: got is want)


@pytest.mark.parametrize("construction", [LAMBDA, GAMMA], ids=str)
def test_random_value(construction):
    def draw(rng):
        pos = sampling.random_position(rng)
        return pos, sampling.random_value(rng, construction, pos)

    def ref_draw(rng):
        pos = random_position(rng)
        return pos, random_value(rng, construction, pos)

    def same(got, want):
        # the table value is the canonical form of the reference's raw one
        (pos, v), (ref_pos, raw) = got, want
        canon = _canon_value(construction, ref_pos, raw)
        return pos is ref_pos and v == canon and v.__class__ is canon.__class__

    same_draws(draw, ref_draw, same)


@pytest.mark.parametrize("construction", [LAMBDA, GAMMA], ids=str)
@pytest.mark.parametrize("max_support, allow_zero", [(4, True), (2, False)])
def test_random_element(construction, max_support, allow_zero):
    same_draws(
        lambda rng: sampling.random_element(rng, construction, max_support, allow_zero),
        lambda rng: random_element(rng, construction, max_support, allow_zero),
        canonical,
    )


@pytest.mark.parametrize("construction", [LAMBDA, GAMMA], ids=str)
@pytest.mark.parametrize("max_support", [1, 3])
def test_random_g1_element(construction, max_support):
    same_draws(
        lambda rng: sampling.random_g1_element(rng, construction, max_support),
        lambda rng: random_g1_element(rng, construction, max_support),
        canonical,
    )


def test_random_a_cone_exponent():
    same_draws(sampling.random_a_cone_exponent, random_a_cone_exponent, canonical)
