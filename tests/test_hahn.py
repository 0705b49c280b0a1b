import copy
import pickle
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
from oagw.positions import G1, G2, g1_square, g2_circle, g2_square
from oagw.sampling import (
    _coefficients,
    _counts,
    case_rng,
    random_a_cone_exponent,
    random_element,
    random_g1_element,
    random_series,
    random_valring_exponent,
)

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


# -- the previous coefficient fields, verbatim ---------------------------------
# Q and GF(p) were two classes with one method per operation, and a sum or
# product added every coefficient to the field's zero; the one PrimeField
# with its reduction must give the same terms, of the same types.


class CoefficientField:
    """Common base of the exact coefficient fields: the rationals and GF(p)."""

    name: str = "?"

    def __repr__(self) -> str:
        return self.name


class RationalField(CoefficientField):
    name = "Q"

    def coerce(self, x):
        return Fraction(x)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def is_zero(self, a) -> bool:
        return not a

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("QQ")


class PreviousPrimeField(CoefficientField):
    """Integers modulo a small prime."""

    def __init__(self, p: int) -> None:
        if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"GF({p})"

    def __eq__(self, other) -> bool:
        return isinstance(other, PreviousPrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("GF", self.p))

    def coerce(self, x):
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0


def previous_add(F, f, g):
    z = F.coerce(0)
    acc = dict(f.terms)
    for e, c in g.terms:
        s = F.add(acc.get(e, z), c)
        if F.is_zero(s):
            acc.pop(e, None)
        else:
            acc[e] = s
    return _build(f.construction, f.coeff_field, acc)


def previous_mul(F, f, g):
    z = F.coerce(0)
    acc = {}
    for g1, c1 in f.terms:
        for g2, c2 in g.terms:
            e = g1 + g2
            s = F.add(acc.get(e, z), F.mul(c1, c2))
            if F.is_zero(s):
                acc.pop(e, None)
            else:
                acc[e] = s
    return _build(f.construction, f.coeff_field, acc)


def previous_neg(F, f):
    return HahnSeries(f.construction, f.coeff_field, tuple((e, F.neg(c)) for e, c in f.terms))


def previous_series(construction, terms, F, field):
    acc = {}
    for e, c in terms.items():
        cc = F.coerce(c)
        if not F.is_zero(cc):
            acc[e] = cc
    return _build(construction, field, acc)


def typed(f):
    return [(e, c, type(c)) for e, c in f.terms]


_FIELDS = ((QQ, RationalField()), (PrimeField(5), PreviousPrimeField(5)))
_COEFFS = (0, 1, -1, 2, -3, 4, 5, Fraction(1, 2), Fraction(-5, 3), Fraction(10, 2))


class TestAgainstThePreviousFields:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 2**32),
        st.sampled_from([LAMBDA, GAMMA]),
        st.sampled_from(range(len(_FIELDS))),
    )
    def test_arithmetic_and_series(self, seed, construction, which):
        field, previous = _FIELDS[which]
        rng = case_rng(seed, 0)
        # a small exponent pool makes sums and products cancel
        pool = [zero(construction)] + [random_element(rng, construction, 2) for _ in range(3)]

        def draw():
            terms = {rng.choice(pool): rng.choice(_COEFFS) for _ in range(rng.randrange(0, 5))}
            got = series(construction, terms, field)
            want = previous_series(construction, terms, previous, field)
            assert typed(got) == typed(want) and str(got) == str(want)
            return got

        f, g, h = draw(), draw(), draw()
        for x, y in ((f, g), (g, h), (f, -f), (f + g, h), (f * g, f)):
            for got, want in (
                (x + y, previous_add(previous, x, y)),
                (x * y, previous_mul(previous, x, y)),
                (-x, previous_neg(previous, x)),
            ):
                assert typed(got) == typed(want) and str(got) == str(want)
                assert got.coeff_field == field and got.construction is construction

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


# -- the previous sum, product and series sampler, verbatim --------------------
# A sum or product collected its terms in a dict and sorted the distinct
# exponents once, and the sampler kept its exponents in a list searched by
# ``==`` and sorted at the end; the ordered merges and the sampler's
# ascending insertion must give the same terms, of the same types.


def previous_collect(construction, F, terms):
    add, numerator = F.add, F.numerator
    acc = {}
    for g, c in terms:
        old = acc.get(g)
        if old is None:
            acc[g] = c
        elif numerator(s := add(old, c)):
            acc[g] = s
        else:
            del acc[g]
    return HahnSeries(construction, F, tuple(sorted(acc.items(), key=itemgetter(0))))


def previous_sum(f, g):
    return previous_collect(f.construction, f.coeff_field, f.terms + g.terms)


def previous_product(f, g):
    mul = f.coeff_field.mul
    return previous_collect(
        f.construction, f.coeff_field,
        [(g1 + g2, mul(c1, c2)) for g1, c1 in f.terms for g2, c2 in g.terms],
    )


def previous_random_series(rng, construction=LAMBDA, coeff_field=QQ, max_terms=3,
                           allow_zero=False, exponents=None):
    g = rng.getrandbits
    k, t = _counts(0 if allow_zero else 1, max_terms)
    n = t[g(k)]
    while n is None:
        n = t[g(k)]
    ck, ct = _coefficients(coeff_field.p)
    terms = []  # [exponent, coefficient], the exponents distinct
    for _ in range(n):
        e = exponents(rng) if exponents is not None else random_element(rng, construction, 3)
        c = ct[g(ck)]
        while c is None:
            c = ct[g(ck)]
        for term in terms:
            if term[0] == e:
                term[1] = c
                break
        else:
            if e.construction is not construction:
                raise ConstructionMismatch("exponent from the wrong construction")
            terms.append([e, c])
    numerator = coeff_field.numerator
    kept = [(e, c) for e, c in terms if numerator(c)]
    if not kept and not allow_zero:
        kept.append((zero(construction), coeff_field.coerce(1)))
    return HahnSeries(construction, coeff_field, tuple(sorted(kept, key=itemgetter(0))))


def same_terms(got, want):
    """Equal terms, of the same types, that pass the validating constructor."""
    HahnSeries(got.construction, got.coeff_field, got.terms)
    return typed(got) == typed(want) and str(got) == str(want)


def _pool(rng, construction):
    """A few exponents closed enough under + that products repeat them,
    and a copy of one, equal to it but another object."""
    a, b = (random_element(rng, construction, 2, allow_zero=False) for _ in range(2))
    return [zero(construction), a, b, a + b, a.scale(2), -a, b - a, -(-a)]


_SERIES_FIELDS = (QQ, PrimeField(3), PrimeField(5))


class TestAgainstThePreviousCollect:
    @pytest.mark.parametrize("field", _SERIES_FIELDS, ids=str)
    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA], ids=str)
    def test_sums_and_products_of_seeded_series(self, construction, field):
        for i in range(60):
            rng = case_rng(39, i)
            pool = _pool(rng, construction)

            def draw(max_terms):
                return random_series(rng, construction, field, max_terms, True, lambda r: r.choice(pool))

            f, g = draw(6), draw(2)
            z = HahnSeries(construction, field, ())
            m = monomial(rng.choice(pool), rng.choice((1, -2, Fraction(1, 2))), field)
            cases = ((f, g), (g, f), (f, f), (f, -f), (f, z), (z, f), (z, z), (m, f), (f, m))
            for x, y in cases:
                assert same_terms(x + y, previous_sum(x, y))
                assert same_terms(x * y, previous_product(x, y))

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
            assert same_terms(got, previous_product(x, y))
            assert dict(got.terms)[two_a] == field.coerce(1)

    @pytest.mark.parametrize("field", _SERIES_FIELDS, ids=str)
    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA], ids=str)
    def test_random_series_against_the_previous_sampler(self, construction, field):
        for i in range(200):
            rng, ref_rng = case_rng(39, i), case_rng(39, i)
            pool = _pool(rng, construction)
            assert pool == _pool(ref_rng, construction)
            for exponents in (None, lambda r: r.choice(pool)):
                got = random_series(rng, construction, field, 5, i % 2 == 0, exponents)
                want = previous_random_series(ref_rng, construction, field, 5, i % 2 == 0, exponents)
                assert same_terms(got, want)
                assert rng.random() == ref_rng.random()

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
