from fractions import Fraction

import pytest

from oagw.elements import ConstructionMismatch, GAMMA, LAMBDA, element, zero
from oagw.embeddings import Embedding
from oagw.hahn import (
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
from oagw.positions import g1_square, g2_square
from oagw.sampling import (
    case_rng,
    random_a_cone_exponent,
    random_element,
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
