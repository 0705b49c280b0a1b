import copy
import pickle
from fractions import Fraction
from functools import cmp_to_key

import pytest

from oagw.elements import ConstructionMismatch, GAMMA, GroupElement, LAMBDA, element, zero
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
from oagw.positions import G1, G2, g1_square, g2_circle, g2_square
from oagw.sampling import (
    case_rng,
    random_a_cone_exponent,
    random_element,
    random_g1_element,
    random_series,
    random_valring_exponent,
)

import reference
from conftest import element_calls, fraction_calls

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

    def test_a_product_over_q_enters_no_fraction_method(self):
        # rational exponents that share positions, and coefficients that
        # multiply, add at a repeated exponent and cancel there to zero
        a = element(LAMBDA, {g2_circle(0): Fraction(1, 2), S00: {0: 1}})
        b = element(LAMBDA, {g2_circle(0): Fraction(-1, 3)})
        c = element(LAMBDA, {g2_circle(0): Fraction(1, 5), g2_circle(1): 2})
        o = zero(LAMBDA)
        f = series(LAMBDA, {a: Fraction(1, 2), b: Fraction(2, 3), o: -5})
        g = series(LAMBDA, {a: Fraction(3, 4), c: Fraction(-1, 7), o: Fraction(15, 2)})
        out = []
        assert fraction_calls(lambda: out.extend((f * g, -f))) == []
        want = {a + a: Fraction(3, 8), a + c: Fraction(-1, 14), b + a: Fraction(1, 2),
                b + c: Fraction(-2, 21), b: 5, c: Fraction(5, 7), o: Fraction(-75, 2)}
        assert out == [series(LAMBDA, want), series(LAMBDA, {a: Fraction(-1, 2), b: Fraction(-2, 3), o: 5})]

    def test_a_repeated_exponent_built_twice_enters_no_fraction_method(self):
        # a + b and b + a are equal exponents whose shared rational was
        # summed twice, into two Fraction objects: the merge tells them
        # equal by cmp, which reads the slots, not by Fraction.__eq__
        a = element(LAMBDA, {g2_circle(0): Fraction(1, 2), S00: {0: 1}})
        b = element(LAMBDA, {g2_circle(0): Fraction(-1, 3)})
        f = series(LAMBDA, {a: 1, b: Fraction(1, 2)})
        assert fraction_calls(lambda: f * f) == []

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


class TestConstructorContract:
    """The public constructor accepts exactly the canonical series."""

    def _exponents(self):
        # G2 positions are more significant: low < high
        return element(LAMBDA, {S00: {0: 1}}), element(LAMBDA, {g2_square(0): {0: 1}})

    def test_canonical_terms_are_accepted(self):
        low, high = self._exponents()
        f = HahnSeries(LAMBDA, QQ, [(low, Fraction(1, 2)), (high, Fraction(-3))])
        assert f == series(LAMBDA, {high: -3, low: Fraction(1, 2)})
        assert f.valuation() is low and f.terms == ((low, Fraction(1, 2)), (high, Fraction(-3)))
        g = HahnSeries(LAMBDA, PrimeField(5), ((low, 4), (high, 1)))
        assert g == series(LAMBDA, {low: -1, high: 6}, PrimeField(5))
        assert HahnSeries(GAMMA, QQ, ()).is_zero()

    def test_unsorted_exponents_are_rejected(self):
        low, high = self._exponents()
        with pytest.raises(ValueError, match="ascending"):
            HahnSeries(LAMBDA, QQ, ((high, Fraction(1)), (low, Fraction(1))))
        # a repeated exponent is not strictly ascending either
        with pytest.raises(ValueError, match="ascending"):
            HahnSeries(LAMBDA, QQ, ((low, Fraction(1)), (low, Fraction(2))))

    @pytest.mark.parametrize(
        "field, coeff",
        [
            (QQ, 1),  # an int over Q
            (QQ, Fraction(0)),
            (QQ, 0.5),
            (PrimeField(5), 0),
            (PrimeField(5), 5),
            (PrimeField(5), 7),
            (PrimeField(5), -1),
            (PrimeField(5), True),
            (PrimeField(5), Fraction(2)),
        ],
        ids=repr,
    )
    def test_a_non_canonical_or_zero_coefficient_is_rejected(self, field, coeff):
        low, _ = self._exponents()
        with pytest.raises(ValueError, match="coefficient"):
            HahnSeries(LAMBDA, field, ((low, coeff),))

    def test_an_exponent_of_the_other_construction_is_rejected(self):
        g = element(GAMMA, {g2_circle(0): 1})
        with pytest.raises(ConstructionMismatch):
            HahnSeries(LAMBDA, QQ, ((g, Fraction(1)),))
        with pytest.raises(ValueError):
            HahnSeries(LAMBDA, QQ, (("{G2[0].c: 1}", Fraction(1)),))
        with pytest.raises(ValueError):
            HahnSeries("lambda", QQ, ())
        with pytest.raises(ValueError):
            HahnSeries(LAMBDA, 0, ())

    def test_series_are_immutable(self):
        f = one(LAMBDA)
        with pytest.raises(AttributeError):
            f.terms = ()  # type: ignore[misc]
        with pytest.raises(AttributeError):
            QQ.p = 3  # type: ignore[misc]

    def test_fields_are_interned(self):
        assert PrimeField(5) is PrimeField(5) and PrimeField(0) is QQ
        assert PrimeField(3) is not PrimeField(5)
        # 5.0 and True hash like 5 and 1, so they are refused before the lookup
        for p in (5.0, True, "5"):
            with pytest.raises(TypeError):
                PrimeField(p)

    def test_pickle_and_copy_return_the_interned_field_and_an_equal_series(self):
        for field in (QQ, PrimeField(5), PrimeField(7)):
            assert pickle.loads(pickle.dumps(field)) is field
            assert copy.copy(field) is field
            assert copy.deepcopy(field) is field
            assert copy.deepcopy([field, field])[0] is field
            f = random_series(case_rng(3, field.p), GAMMA, field, max_terms=4)
            for g in (pickle.loads(pickle.dumps(f)), copy.copy(f), copy.deepcopy(f)):
                assert g == f and g.terms == f.terms and g.coeff_field is field
                assert str(g) == str(f) and hash(g) == hash(f)

    def test_text_is_the_text_of_each_term(self):
        for i in range(60):
            rng = case_rng(73, i)
            field = QQ if i % 3 else PrimeField(5)
            f = random_series(rng, rng.choice([GAMMA, LAMBDA]), field, max_terms=4, allow_zero=True)
            want = " + ".join(f"{c} * t^{g}" for g, c in f.terms) if f.terms else "0"
            assert str(f) == want

    def test_text_of_a_q_series_enters_no_fraction_method(self):
        a = element(LAMBDA, {g2_circle(0): Fraction(1, 2), S00: {0: 1}})
        f = series(LAMBDA, {a: Fraction(-7, 2), zero(LAMBDA): 3})
        out = []
        assert fraction_calls(lambda: out.append(str(f))) == []
        assert out == ["3 * t^0 + -7/2 * t^{G2[0].c: 1/2, G1[0].s[0]: 1}"]

    def test_equal_q_series_compare_without_a_fraction_method(self):
        # shared exponents, equal coefficients held by distinct Fraction objects
        a = element(LAMBDA, {g2_circle(0): Fraction(1, 2), S00: {0: 1}})
        o = zero(LAMBDA)
        f = HahnSeries(LAMBDA, QQ, ((o, Fraction(-7, 2)), (a, Fraction(2, 3))))
        g = HahnSeries(LAMBDA, QQ, ((o, Fraction(-7, 2)), (a, Fraction(2, 3))))
        h = HahnSeries(LAMBDA, QQ, ((o, Fraction(-7, 2)), (a, Fraction(2, 5))))
        assert f.terms[0][1] is not g.terms[0][1]
        verdicts = []
        assert fraction_calls(lambda: verdicts.extend((f == g, f != g, f == h))) == []
        assert verdicts == [True, False, False]

    @pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=str)
    def test_series_that_differ_in_one_exponent_are_unequal(self, field):
        # equal length and equal coefficients, so only the exponents tell them apart
        o, g = zero(LAMBDA), gamma_unit()
        f, h = series(LAMBDA, {o: 3, g: 2}, field), series(LAMBDA, {o: 3, g.scale(2): 2}, field)
        assert [c for _, c in f.terms] == [c for _, c in h.terms]
        assert f != h and h != f
        assert not f == h and not h == f


def test_hahn_ring_computes_each_shared_product_once(monkeypatch):
    from oagw.suites import SuiteOptions, run_suite

    products = []
    mul = HahnSeries.__mul__
    monkeypatch.setattr(HahnSeries, "__mul__", lambda a, b: products.append(a) or mul(a, b))
    report = run_suite("hahn-ring", SuiteOptions(construction=LAMBDA, seed=5, samples=20))
    assert [c.verdict for c in report.cases] == ["pass"] * 20
    # fg, fg*h, g*h, f*(g*h), g*f, f*(g+h) and f*h: f*g is not repeated
    assert len(products) == 7 * 20


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

    def test_u_is_negated_once_whatever_the_number_of_steps(self, monkeypatch):
        g = gamma_unit()
        f = one(LAMBDA) - monomial(g)
        negations, products = [], []
        neg, mul = HahnSeries.__neg__, HahnSeries.__mul__
        monkeypatch.setattr(HahnSeries, "__neg__", lambda a: negations.append(a) or neg(a))
        monkeypatch.setattr(HahnSeries, "__mul__", lambda a, b: products.append(a) or mul(a, b))
        truncated_inverse(f, g.scale(3))
        # one inside u = lead_inv * f - 1, one of u; three steps of the loop
        assert (len(negations), len(products)) == (2, 5)

    def test_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            truncated_inverse(series(LAMBDA, {}), zero(LAMBDA))

    def test_an_error_term_without_a_positive_valuation_is_a_named_error(self, monkeypatch):
        # a valuation that read the last exponent leaves an error term of valuation 0
        monkeypatch.setattr(HahnSeries, "valuation", lambda s: s.terms[-1][0])
        g = gamma_unit()
        f = one(LAMBDA) - monomial(g)
        with pytest.raises(ValueError, match="no truncated inverse") as err:
            truncated_inverse(f, g.scale(3))
        assert str(f) in str(err.value) and str(g.scale(3)) in str(err.value)

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

    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA])
    @pytest.mark.parametrize("p", [0, 3, 5])
    def test_v_of_u_is_the_gap_between_the_first_two_exponents(self, construction, p):
        # the truncated-inverse suite reads v(f/(c0*t^g0) - 1) = g1 - g0 off f
        F = QQ if p == 0 else PrimeField(p)
        monomials = 0
        for i in range(60):
            f = random_series(case_rng(61, i), construction, F)
            (g0, c0), *rest = f.terms
            u = monomial(-g0, F.inv(c0), F) * f - one(construction, F)
            if rest:
                assert u.valuation() == rest[0][0] - g0
            else:
                monomials += 1
                assert u.is_zero()
        assert 0 < monomials < 60


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


class TestFields:
    def test_the_field_value(self):
        assert PrimeField(0) == QQ and PrimeField(5) == PrimeField(5) != QQ
        assert hash(PrimeField(0)) == hash(QQ)
        assert (repr(QQ), str(QQ), repr(PrimeField(5))) == ("Q", "Q", "GF(5)")
        for p in (6, 1, -5, 9):
            with pytest.raises(ValueError):
                PrimeField(p)
        for a in (0, 5, -10, 25):
            with pytest.raises(ZeroDivisionError):
                PrimeField(5).inv(a)
        for a in (0, Fraction(0)):
            with pytest.raises(ZeroDivisionError):
                QQ.inv(a)
        assert PrimeField(5).inv(2) == 3 and PrimeField(5).inv(7) == 3
        assert QQ.inv(Fraction(-2, 3)) == Fraction(-3, 2)
        F = PrimeField(5)
        assert (F.add(3, 4), F.mul(3, 4), F.neg(2), F.neg(0)) == (2, 2, 3, 0)
        half, third = Fraction(1, 2), Fraction(-1, 3)
        assert (QQ.add(half, third), QQ.mul(half, third), QQ.neg(half)) == (
            Fraction(1, 6), Fraction(-1, 6), Fraction(-1, 2)
        )
        assert (F.numerator(3), QQ.numerator(Fraction(-7, 2))) == (3, -7)

    def test_an_inverse_over_q_enters_no_fraction_method(self):
        values = (Fraction(-2, 3), Fraction(7), Fraction(5, 12), Fraction(-1, 9), 3, -4)
        out = []
        assert fraction_calls(lambda: out.extend(QQ.inv(a) for a in values)) == []
        # the operator's result, in lowest terms over a positive denominator
        assert [(x.__class__, x.numerator, x.denominator) for x in out] == [
            (Fraction, -3, 2), (Fraction, 1, 7), (Fraction, 12, 5), (Fraction, -9, 1),
            (Fraction, 1, 3), (Fraction, -1, 4),
        ]
        assert out == [1 / Fraction(a) for a in values]

    def test_coerce_over_q_enters_no_fraction_method(self):
        half = Fraction(1, 2)
        out = []
        assert fraction_calls(lambda: out.extend(QQ.coerce(x) for x in (half, 3, -4, 0))) == []
        assert out[0] is half
        assert [(x.__class__, x.numerator, x.denominator) for x in out[1:]] == [
            (Fraction, 3, 1), (Fraction, -4, 1), (Fraction, 0, 1),
        ]
        # any other input still goes through Fraction()
        assert [QQ.coerce(x) for x in (True, 0.25, "-5/3")] == [1, Fraction(1, 4), Fraction(-5, 3)]
        assert all(QQ.coerce(x).__class__ is Fraction for x in (True, 0.25, "-5/3"))

    @pytest.mark.xfail(
        strict=True,
        reason="PrimeField.coerce truncates a fraction with int() instead of dividing mod p",
    )
    def test_coerce_a_fraction_into_gf5(self):
        F = PrimeField(5)
        assert F.coerce(Fraction(1, 2)) == 3
        assert F.coerce(Fraction(-5, 3)) == 0


# -- one model of the series layer ---------------------------------------------
# A series is a dict from exponent, an entry tuple, to nonzero coefficient: a
# Fraction over Q and an int in 0..p-1 over GF(p), where a/b is a * b^-1 mod p.
# Sums and products collect in a dict, exponents summed in the element model of
# ``reference``, sorted once by its order.  Each operation must give the model's
# terms, of its coefficient class, as a series the validating constructor takes.


def model_terms(x):
    """The series x as a model: exponent entries -> coefficient."""
    return {g.entries: c for g, c in x.terms}


def model_coeff(field, c):
    c = Fraction(c)
    return c.numerator * pow(c.denominator, -1, field.p) % field.p if field.p else c


def model_collect(field, terms):
    """The sum of (exponent, coefficient) terms, without its zero terms."""
    out = {}
    for g, c in terms:
        out[g] = model_coeff(field, out.get(g, 0) + c)
    return {g: c for g, c in out.items() if c}


def model_sum(field, f, g):
    return model_collect(field, [*f.items(), *g.items()])


def model_product(field, f, g):
    add, m = reference.add, reference.model
    return model_collect(field, [(reference.entries(add(m(g1), m(g2))), c1 * c2)
                                 for g1, c1 in f.items() for g2, c2 in g.items()])


def model_neg(field, f):
    return model_collect(field, [(g, -c) for g, c in f.items()])


def model_lift(e, f):
    return {apply_embedding(e, GroupElement(LAMBDA, g)).entries: c for g, c in f.items()}


def model_flags(f):
    """(in_val_ring, in_k_lambda1, in_a) as ``oagw.hahn`` defines them."""
    exps = [reference.model(g) for g in f]
    return (
        all(reference.sign(x) >= 0 for x in exps),
        all(p.area == G1 for x in exps for p in x),
        all(reference.sign({p: v for p, v in x.items() if p.area == G2}) >= 0 for x in exps),
    )


_BY_EXPONENT = cmp_to_key(lambda s, t: reference.cmp(reference.model(s[0]), reference.model(t[0])))


def agrees(got, model, construction, field):
    """``got`` holds the model's terms, ascending, of the model's classes."""
    want = sorted(model.items(), key=_BY_EXPONENT)
    assert [(g.entries, c, c.__class__) for g, c in got.terms] == [(g, c, c.__class__) for g, c in want]
    assert got.coeff_field is field and got.construction is construction
    HahnSeries(construction, field, got.terms)


def _pool(rng, construction):
    """A few exponents closed enough under + that products repeat them,
    and a copy of one, equal to it but another object.  The multiples of
    a lie in G1, so some series have G1 exponents alone."""
    a = random_g1_element(rng, construction)
    b = random_element(rng, construction, 2, allow_zero=False)
    return [zero(construction), a, b, a + b, a.scale(2), -a, b - a, -(-a)]


_SERIES_FIELDS = (QQ, PrimeField(3), PrimeField(5))
# over GF(p) integers alone: coerce truncates a fraction (the xfail above)
_Q_COEFFS = (0, 1, -1, 2, -3, 4, 5, Fraction(1, 2), Fraction(-5, 3), Fraction(10, 2))
_INT_COEFFS = (0, 1, -1, 2, -3, 4, 5, 6, -7)


def _raw_terms(construction, field, cases=60):
    """Per case, three term dicts drawn from one pool, and a monomial."""
    for i in range(cases):
        rng = case_rng(39, i)
        pool = _pool(rng, construction)
        coeffs = _Q_COEFFS if field is QQ else _INT_COEFFS
        raws = [{rng.choice(pool): rng.choice(coeffs) for _ in range(rng.randrange(6))} for _ in range(3)]
        yield raws, monomial(rng.choice(pool), rng.choice((1, -2, 4)), field)


def _operands(construction, field):
    for raws, m in _raw_terms(construction, field):
        yield [series(construction, raw, field) for raw in raws] + [m, HahnSeries(construction, field, ())]


def _pairs(construction, field):
    for f, g, h, m, z in _operands(construction, field):
        yield from ((f, g), (g, f), (f, f), (f, -f), (f, z), (z, f), (z, z), (m, f), (f, m), (f + g, h), (f * g, h))


def _membership_inputs(field):
    for xs in _operands(LAMBDA, field):
        yield from xs
        yield from (lift_embedding(e, x) for x in xs[:3] for e in Embedding)


@pytest.mark.parametrize("field", _SERIES_FIELDS, ids=str)
class TestAgainstTheModel:
    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA], ids=str)
    def test_series(self, construction, field):
        for raws, _ in _raw_terms(construction, field):
            for raw in raws:
                terms = [(g.entries, c) for g, c in raw.items()]
                agrees(series(construction, raw, field), model_collect(field, terms), construction, field)

    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA], ids=str)
    def test_sum(self, construction, field):
        for x, y in _pairs(construction, field):
            agrees(x + y, model_sum(field, model_terms(x), model_terms(y)), construction, field)

    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA], ids=str)
    def test_product(self, construction, field):
        for x, y in _pairs(construction, field):
            agrees(x * y, model_product(field, model_terms(x), model_terms(y)), construction, field)

    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA], ids=str)
    def test_negation(self, construction, field):
        for xs in _operands(construction, field):
            for x in xs:
                agrees(-x, model_neg(field, model_terms(x)), construction, field)

    def test_lift_embedding(self, field):
        for xs in _operands(LAMBDA, field):
            for x in xs:
                for e in Embedding:
                    agrees(lift_embedding(e, x), model_lift(e, model_terms(x)), LAMBDA, field)
        with pytest.raises(ConstructionMismatch):
            lift_embedding(Embedding.F1, one(GAMMA, field))

    def test_membership(self, field):
        for x in _membership_inputs(field):
            m = membership(x)
            assert (m.in_val_ring, m.in_k_lambda1, m.in_a) == model_flags(model_terms(x))

    def test_membership_reaches_every_flag_both_ways(self, field):
        seen = {model_flags(model_terms(x)) for x in _membership_inputs(field)}
        assert all({flags[k] for flags in seen} == {False, True} for k in range(3))


class TestOrderedMerge:
    @pytest.mark.parametrize("field", _SERIES_FIELDS, ids=str)
    def test_a_repeated_exponent_cancels_and_reappears(self, field):
        a = element(LAMBDA, {g2_circle(0): Fraction(1, 2), S00: {0: 1}})
        o, two_a = zero(LAMBDA), a.scale(2)
        # (1 + t^a)(1 - t^a): the cross terms cancel at t^a
        f = series(LAMBDA, {o: 1, a: 1}, field)
        g = series(LAMBDA, {o: 1, a: -1}, field)
        assert f * g == series(LAMBDA, {o: 1, two_a: -1}, field)
        # t^2a is reached three times: by the first row, cancelled by the
        # second and brought back by the third
        f = series(LAMBDA, {o: 1, a: 1, two_a: 1}, field)
        g = series(LAMBDA, {o: 1, a: -1, two_a: 1}, field)
        for x, y in ((f, g), (g, f)):
            got = x * y
            agrees(got, model_product(field, model_terms(x), model_terms(y)), LAMBDA, field)
            assert dict(got.terms)[two_a] == field.coerce(1)

    def test_sum_and_product_enter_no_hash_eq_lt_or_fraction_method(self):
        for construction in (LAMBDA, GAMMA):
            for i in range(20):
                rng = case_rng(40, i)
                pool = _pool(rng, construction)
                f = random_series(rng, construction, QQ, 5, True, lambda r: r.choice(pool))
                g = random_series(rng, construction, QQ, 3, True, lambda r: r.choice(pool))
                ops = lambda: (f + g, f * g, g * f, f * f, f + -f)
                assert fraction_calls(ops) == []
                assert not {"__hash__", "__eq__", "__lt__"} & set(element_calls(ops))

    def test_a_monomial_times_a_series_compares_nothing(self):
        rng = case_rng(41, 0)
        f = random_series(rng, LAMBDA, QQ, 6)
        m = monomial(random_element(rng, LAMBDA, 3), Fraction(-2, 3))
        calls = element_calls(lambda: (m * f, f * m))
        assert "cmp" not in calls and "__add__" in calls
