from fractions import Fraction
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from oagw.elements import ConstructionMismatch, GAMMA, LAMBDA, element, zero
from oagw.embeddings import Embedding, apply as apply_embedding
from oagw.hahn import (
    HahnSeries,
    PrimeField,
    QQ,
    lift_embedding,
    membership,
    monomial,
    one,
    series,
    subring_escape_witness,
    truncated_inverse,
)
from oagw.positions import G1, G2, g1_square, g2_square
from oagw.sampling import (
    case_rng,
    random_a_cone_exponent,
    random_element,
    random_g1_element,
    random_series,
    random_valring_exponent,
)

S00 = g1_square(0, 0)


def gamma_unit():
    return element(LAMBDA, {S00: {0: 1}})


class TestArithmetic:
    def test_monomial_product(self):
        g = gamma_unit()
        d = element(LAMBDA, {g2_square(0): {0: 1}})
        assert monomial(g) * monomial(d) == monomial(g + d)

    def test_additive_inverse(self):
        f = series(LAMBDA, {gamma_unit(): Fraction(2, 3), zero(LAMBDA): -1})
        assert (f + (-f)).is_zero()

    def test_difference_of_squares(self):
        g = gamma_unit()
        f = one(LAMBDA) + monomial(g)
        h = one(LAMBDA) - monomial(g)
        assert f * h == one(LAMBDA) - monomial(g.scale(2))

    def test_prime_field(self):
        F = PrimeField(5)
        f = series(LAMBDA, {zero(LAMBDA): 3}, F)
        g = series(LAMBDA, {zero(LAMBDA): 2}, F)
        assert (f + g).is_zero()
        assert (f * g) == series(LAMBDA, {zero(LAMBDA): 1}, F)
        with pytest.raises(ValueError):
            PrimeField(6)

    def test_field_mismatch(self):
        with pytest.raises(ValueError):
            one(LAMBDA, QQ) + one(LAMBDA, PrimeField(3))
        with pytest.raises(ConstructionMismatch):
            one(LAMBDA) + one(GAMMA)

    def test_ring_axioms_random(self):
        for i in range(150):
            rng = case_rng(41, i)
            f = random_series(rng, LAMBDA, QQ, allow_zero=True)
            g = random_series(rng, LAMBDA, QQ)
            h = random_series(rng, LAMBDA, QQ)
            assert (f + g) + h == f + (g + h)
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert f * g == g * f


class TestValuation:
    def test_monomial(self):
        g = gamma_unit()
        assert monomial(g).valuation() == g

    def test_zero_has_none(self):
        with pytest.raises(ZeroDivisionError):
            series(LAMBDA, {}).valuation()

    def test_multiplicative_and_ultrametric(self):
        for i in range(150):
            rng = case_rng(43, i)
            f = random_series(rng, LAMBDA, QQ)
            g = random_series(rng, LAMBDA, QQ)
            assert (f * g).valuation() == f.valuation() + g.valuation()
            s = f + g
            if not s.is_zero():
                vmin = min(f.valuation(), g.valuation())
                assert s.valuation() >= vmin
                if f.valuation() != g.valuation():
                    assert s.valuation() == vmin


class TestMembership:
    def test_negative_g1_exponent(self):
        g = -element(LAMBDA, {S00: {0: 1}})
        m = membership(monomial(g))
        assert m.in_a and m.in_k_lambda1 and not m.in_val_ring

    def test_negative_g2_exponent(self):
        g = -element(LAMBDA, {g2_square(0): {0: 1}})
        m = membership(monomial(g))
        assert not m.in_a and not m.in_k_lambda1 and not m.in_val_ring

    def test_one(self):
        m = membership(one(LAMBDA))
        assert m.in_a and m.in_k_lambda1 and m.in_val_ring

    def test_positive_g2_with_negative_g1_tail(self):
        g = element(LAMBDA, {g2_square(1): {0: 1}, S00: {0: -9}})
        m = membership(monomial(g))
        assert m.in_a and not m.in_k_lambda1
        # positive G2 lead still means the exponent is positive overall
        assert m.in_val_ring

    def test_cone_contains_ring_and_laurent_branch(self):
        for i in range(100):
            rng = case_rng(47, i)
            f = random_series(rng, LAMBDA, QQ, exponents=random_valring_exponent)
            assert membership(f).in_a
            g = random_series(
                rng, LAMBDA, QQ, exponents=lambda r: random_element(r, LAMBDA)
            )
            if membership(g).in_k_lambda1:
                assert membership(g).in_a

    def test_cone_closed_under_ops(self):
        for i in range(150):
            rng = case_rng(53, i)
            f = random_series(rng, LAMBDA, QQ, exponents=random_a_cone_exponent)
            g = random_series(rng, LAMBDA, QQ, exponents=random_a_cone_exponent)
            assert membership(f + g).in_a
            assert membership(f * g).in_a

    def test_gamma_not_supported(self):
        with pytest.raises(ConstructionMismatch):
            membership(one(GAMMA))


class TestTruncatedInverse:
    def test_monomial_exact(self):
        g = gamma_unit()
        f = monomial(g, Fraction(3))
        inv = truncated_inverse(f, zero(LAMBDA))
        assert (f * inv) == one(LAMBDA)

    def test_geometric(self):
        g = gamma_unit()
        f = one(LAMBDA) - monomial(g)
        inv = truncated_inverse(f, g.scale(3))
        expected = (
            one(LAMBDA)
            + monomial(g)
            + monomial(g.scale(2))
            + monomial(g.scale(3))
        )
        assert inv == expected
        err = f * inv - one(LAMBDA)
        assert err.valuation() > g.scale(3)

    def test_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            truncated_inverse(series(LAMBDA, {}), zero(LAMBDA))

    def test_unreachable_precision(self):
        # error valuation lives in the right block, precision in the left
        f = one(LAMBDA) + monomial(element(LAMBDA, {S00: {1: 1}}))
        precision = element(LAMBDA, {g2_square(0): {0: 1}})
        with pytest.raises(ValueError):
            truncated_inverse(f, precision)

    def test_random_precisions(self):
        for i in range(80):
            rng = case_rng(59, i)
            f = random_series(rng, LAMBDA, QQ)
            lead = monomial(-f.valuation(), QQ.inv(f.lead_coeff()))
            u = lead * f - one(LAMBDA)
            precision = (
                u.valuation().scale(rng.randrange(1, 5))
                if not u.is_zero()
                else random_element(rng, LAMBDA)
            )
            g = truncated_inverse(f, precision)
            err = f * g - one(LAMBDA)
            assert err.is_zero() or err.valuation() > precision


class TestLift:
    def test_monomial_functoriality(self):
        from oagw.embeddings import apply

        g = element(LAMBDA, {S00: {0: 2, 1: 1}})
        assert lift_embedding(Embedding.F1, monomial(g)) == monomial(
            apply(Embedding.F1, g)
        )

    def test_ring_homomorphism(self):
        for i in range(100):
            rng = case_rng(61, i)
            f = random_series(rng, LAMBDA, QQ)
            g = random_series(rng, LAMBDA, QQ)
            lf = lift_embedding(Embedding.F1, f)
            lg = lift_embedding(Embedding.F1, g)
            assert lift_embedding(Embedding.F1, f + g) == lf + lg
            assert lift_embedding(Embedding.F1, f * g) == lf * lg
            assert lift_embedding(Embedding.F1, f).valuation() is not None

    def test_valuation_commutes(self):
        from oagw.embeddings import apply

        for i in range(60):
            rng = case_rng(67, i)
            f = random_series(rng, LAMBDA, QQ)
            assert lift_embedding(Embedding.F1, f).valuation() == apply(
                Embedding.F1, f.valuation()
            )

    def test_ring_maps_into_cone(self):
        for i in range(80):
            rng = case_rng(71, i)
            f = random_series(rng, LAMBDA, QQ, exponents=random_valring_exponent)
            lifted = lift_embedding(Embedding.F1, f)
            assert membership(lifted).in_val_ring
            assert membership(lifted).in_a


class TestEscapeWitness:
    def test_flip(self):
        x, hx = subring_escape_witness()
        mx, mhx = membership(x), membership(hx)
        assert mx.in_a and mx.in_k_lambda1 and not mx.in_val_ring
        assert not mhx.in_a
        assert hx == lift_embedding(Embedding.F1, x)


# -- the previous definitions, verbatim ----------------------------------------
# lift_embedding built a dict of the images and sorted it, and membership
# made one pass per flag; the present code must agree with both.


def _build(construction, F, acc):
    # exponents are distinct keys, so the group order sorts them totally
    items = sorted(acc.items(), key=itemgetter(0))
    return HahnSeries(construction, F, tuple(items))


def previous_lift_embedding(e, f):
    """Apply the group embedding to every exponent; a ring embedding."""
    if f.construction is not LAMBDA:
        raise ConstructionMismatch("lifted embeddings are defined for lambda series")
    acc = {apply_embedding(e, g): c for g, c in f.terms}
    return _build(f.construction, f.coeff_field, acc)


def _g2_part_nonnegative(g):
    # G2 positions sort first: the leading entry is the leading G2 entry
    # whenever any exists
    if not g.entries:
        return True
    pos, _ = g.entries[0]
    if pos.area != G2:
        return True
    return g.sign() > 0


def previous_membership(f):
    """Exponent-wise classification; defined on the lambda construction."""
    if f.construction is not LAMBDA:
        raise ConstructionMismatch("membership flags are defined for lambda series")
    in_val_ring = all(g.sign() >= 0 for g, _ in f.terms)
    in_k_lambda1 = all(
        all(pos.area == G1 for pos, _ in g.entries) for g, _ in f.terms
    )
    in_a = all(_g2_part_nonnegative(g) for g, _ in f.terms)
    return (in_val_ring, in_k_lambda1, in_a)


# exponent samplers that reach every membership flag both ways
_EXPONENTS = (
    lambda rng: random_element(rng, LAMBDA, 3),
    random_a_cone_exponent,
    random_valring_exponent,
    lambda rng: random_g1_element(rng, LAMBDA),
)


def _sampled_series(seed, which, field):
    rng = case_rng(seed, which)
    return random_series(
        rng, LAMBDA, field, max_terms=5, allow_zero=True, exponents=_EXPONENTS[which]
    )


class TestAgainstThePreviousCode:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, len(_EXPONENTS) - 1), st.sampled_from([QQ, PrimeField(5)]))
    def test_lift_embedding(self, seed, which, field):
        f = _sampled_series(seed, which, field)
        for e in Embedding:
            got, want = lift_embedding(e, f), previous_lift_embedding(e, f)
            assert got == want and got.terms == want.terms
            assert got.coeff_field == field and got.construction is LAMBDA

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, len(_EXPONENTS) - 1))
    def test_membership(self, seed, which):
        f = _sampled_series(seed, which, QQ)
        for g in (f, -f, lift_embedding(Embedding.F1, f), lift_embedding(Embedding.F2, f)):
            m = membership(g)
            assert (m.in_val_ring, m.in_k_lambda1, m.in_a) == previous_membership(g)

    def test_membership_reaches_every_flag_both_ways(self):
        seen = set()
        for which in range(len(_EXPONENTS)):
            for i in range(200):
                seen.add(previous_membership(_sampled_series(i, which, QQ)))
        for k in range(3):
            assert {flags[k] for flags in seen} == {False, True}
