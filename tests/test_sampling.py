"""The table-driven samplers against the randrange-based reference.

The reference below is the sampler as it was before the tables, kept
verbatim under its own names: every position and every rational built
per draw, indexed by ``randrange``, and every element built through the
validating ``element()``.  Each sampler must return what the reference
returns from the same stream, and leave the stream where the reference
leaves it, which the test shows by drawing one more ``rng.random()``
from both.  Scripted generators pin single draws bit by bit, rejections
included.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oagw.elements import (
    GAMMA,
    LAMBDA,
    Construction,
    ConstructionMismatch,
    GroupElement,
    _canon_value,
    element,
    format_element,
    uses_poly,
    zero,
)
from oagw.hahn import HahnSeries, PrimeField, QQ, series
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


def random_nonzero(rng: random.Random, construction: Construction, max_support: int = 4) -> GroupElement:
    return random_element(rng, construction, max_support, allow_zero=False)


def random_positive(rng: random.Random, construction: Construction) -> GroupElement:
    e = random_nonzero(rng, construction)
    return e if e.sign() > 0 else -e


def random_valring_exponent(rng: random.Random) -> GroupElement:
    if rng.random() < 0.1:
        return zero(LAMBDA)
    return random_nonzero(rng, LAMBDA).abs()


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


# the series sampler, with its term count drawn by randrange
_SERIES_COEFFS = (-3, -2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-5, 3))


def random_series(
    rng: random.Random,
    construction: Construction = LAMBDA,
    coeff_field: PrimeField = QQ,
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


@pytest.mark.parametrize("construction", [LAMBDA, GAMMA], ids=str)
@pytest.mark.parametrize("max_support", [1, 4])
def test_random_nonzero(construction, max_support):
    same_draws(
        lambda rng: sampling.random_nonzero(rng, construction, max_support),
        lambda rng: random_nonzero(rng, construction, max_support),
        canonical,
    )


@pytest.mark.parametrize("construction", [LAMBDA, GAMMA], ids=str)
def test_random_positive(construction):
    same_draws(
        lambda rng: sampling.random_positive(rng, construction),
        lambda rng: random_positive(rng, construction),
        canonical,
    )


def test_random_valring_exponent():
    same_draws(sampling.random_valring_exponent, random_valring_exponent, canonical)


@pytest.mark.parametrize("construction", [LAMBDA, GAMMA], ids=str)
@pytest.mark.parametrize("max_terms, allow_zero", [(3, False), (4, True)])
def test_random_series(construction, max_terms, allow_zero):
    for field in (QQ, PrimeField(5)):
        same_draws(
            lambda rng: sampling.random_series(rng, construction, field, max_terms, allow_zero),
            lambda rng: random_series(rng, construction, field, max_terms, allow_zero),
        )


# a callback that repeats one exponent: every term lands on it
_REPEATED = element(LAMBDA, {g1_circle(0): Fraction(1, 2), g1_square(1, 0): {0: 1}})


def _pool(construction):
    """Exponents whose draws repeat, with -(-a) equal to a but another object."""
    one = {0: 1} if construction is LAMBDA else 1
    a = element(construction, {g2_circle(0): Fraction(1, 5), g1_square(0, 0): one})
    b = element(construction, {g2_circle(0): Fraction(-1, 3)})
    return (zero(construction), a, b, a + b, a.scale(2), -a, b - a, -(-a))


# sampler callback, reference callback, (max_terms, allow_zero)
EXPONENTS = {
    "valring": (sampling.random_valring_exponent, random_valring_exponent, (3, False)),
    "a-cone": (sampling.random_a_cone_exponent, random_a_cone_exponent, (3, False)),
    "repeated": (lambda rng: _REPEATED, lambda rng: _REPEATED, (4, True)),
}


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=str)
@pytest.mark.parametrize("exponents", sorted(EXPONENTS))
def test_random_series_exponents(field, exponents):
    draw, ref_draw, (max_terms, allow_zero) = EXPONENTS[exponents]
    same_draws(
        lambda rng: sampling.random_series(rng, LAMBDA, field, max_terms, allow_zero, draw),
        lambda rng: random_series(rng, LAMBDA, field, max_terms, allow_zero, ref_draw),
    )


@pytest.mark.parametrize("allow_zero", [False, True])
@pytest.mark.parametrize("construction", [LAMBDA, GAMMA], ids=str)
def test_random_series_pooled_exponents(construction, allow_zero):
    pool = _pool(construction)
    for field in (QQ, PrimeField(3), PrimeField(5)):
        same_draws(
            lambda rng: sampling.random_series(rng, construction, field, 5, allow_zero, lambda r: r.choice(pool)),
            lambda rng: random_series(rng, construction, field, 5, allow_zero, lambda r: r.choice(pool)),
        )


def test_table_draw_draws_what_choice_draws():
    # a table draw copies the rejection loop of _randbelow_with_getrandbits;
    # a Python whose choice draws another way fails here first
    assert random.Random._randbelow is random.Random._randbelow_with_getrandbits
    for seed in SEEDS:
        rng, ref_rng = random.Random(seed), random.Random(seed)
        # the powers of two reject about half their draws
        for n in range(1, 71):
            seq = tuple(range(n))
            table = sampling._table(seq)
            for _ in range(40):
                assert sampling._draw(rng.getrandbits, table) == ref_rng.choice(seq)
        assert rng.getstate() == ref_rng.getstate()
    with pytest.raises(IndexError):
        sampling._table(())


class ScriptedRandom(random.Random):
    """A generator whose ``getrandbits`` hands out a fixed script."""

    def __init__(self, script):
        super().__init__(0)
        self.script = list(script)
        self.asked = []

    def getrandbits(self, k):
        self.asked.append(k)
        return self.script.pop(0)


def test_table_draw_goes_through_the_generators_getrandbits():
    # a subclass's getrandbits decides every draw: 5 and 7 are rejected
    # for a table of 5, then 3 is taken
    rng = ScriptedRandom([5, 7, 3])
    assert sampling._draw(rng.getrandbits, sampling._table("abcde")) == "d"
    assert rng.asked == [3, 3, 3] and not rng.script


def test_samplers_follow_hypothesis_randoms():
    # the property tests draw elements from st.randoms(); those draws
    # must vary with the generated data
    picks, sizes = set(), set()

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.randoms(use_true_random=False))
    def draw(rng):
        picks.add(sampling._draw(rng.getrandbits, sampling._table(range(70))))
        sizes.add(len(sampling.random_element(rng, LAMBDA, 4, allow_zero=False).entries))

    draw()
    assert len(picks) > 1 and len(sizes) > 1


def test_random_element_draws_inline_through_getrandbits():
    # term count 1 of 4; kind 5 rejected, then G1 squares; block 3
    # rejected, then 1; slot 4; one polynomial term, coefficient 12
    # rejected, then 1; slot 7 rejected, then 2
    rng = ScriptedRandom([0, 5, 2, 3, 1, 4, 0, 12, 5, 7, 2])
    e = sampling.random_element(rng, LAMBDA, 4, allow_zero=False)
    assert str(e) == "{G1[1].s[4]: 1*c2}"
    assert rng.asked == [3, 3, 3, 2, 2, 3, 2, 4, 4, 3, 3] and not rng.script


def test_random_series_repeated_exponent_takes_the_later_coefficient():
    # 2 terms of range(0, 4), both at _REPEATED; coefficients from 8
    def draw(script, field):
        rng = ScriptedRandom(script)
        s = sampling.random_series(rng, LAMBDA, field, 3, True, lambda rng: _REPEATED)
        assert rng.asked == [3, 4, 4] and not rng.script
        return s.terms

    assert draw([2, 6, 0], QQ) == ((_REPEATED, -3),)
    assert draw([2, 0, 6], QQ) == ((_REPEATED, Fraction(1, 2)),)
    assert draw([2, 6, 0], PrimeField(5)) == ((_REPEATED, 2),)
    # 1/2 coerces to 0 in GF(5), and the term goes
    assert draw([2, 0, 6], PrimeField(5)) == ()


def test_empty_bounds_and_foreign_exponents_raise():
    rng = case_rng(7, 0)
    with pytest.raises(IndexError, match="empty sequence"):
        sampling.random_element(rng, LAMBDA, max_support=0, allow_zero=False)
    with pytest.raises(IndexError, match="empty sequence"):
        sampling.random_series(rng, LAMBDA, QQ, max_terms=0)
    assert sampling.random_series(rng, LAMBDA, QQ, max_terms=0, allow_zero=True).is_zero()
    with pytest.raises(ConstructionMismatch):
        sampling.random_series(rng, LAMBDA, exponents=lambda rng: sampling.random_nonzero(rng, GAMMA))


@pytest.mark.parametrize("construction", [LAMBDA, GAMMA], ids=str)
def test_format_element_writes_every_table_rational_as_str(construction):
    rats = sampling._GAMMA_RATIONALS if construction is GAMMA else sampling._LAMBDA_RATIONALS
    written = 0
    for pos, table in zip((g1_circle(0), g1_square(0, 0)), rats):
        if table is None:
            continue
        for row in filter(None, table[1]):
            for v in filter(None, row[1]):
                assert format_element(element(construction, {pos: v})) == f"{{{pos}: {v}}}"
                written += 1
    assert written == 24 * (5 if construction is LAMBDA else 11)
