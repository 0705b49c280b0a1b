import copy
import pickle
import sys
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oagw.elements import (
    _fraction_add,
    _fraction_mul,
    _fraction_neg,
    ComponentError,
    ConstructionMismatch,
    GAMMA,
    GroupElement,
    LAMBDA,
    LeadDescriptor,
    ParseError,
    element,
    format_element,
    parse_element,
    unit,
    zero,
)
from oagw.positions import g1_square, g2_circle, g2_square
from oagw.sampling import random_element

from conftest import fraction_calls, seeded_elements

S00 = g1_square(0, 0)


def _split(e, k):
    """The entries of e before index k and from k on, as two elements.

    Their supports do not overlap, and every position of the first comes
    before every position of the second.
    """
    return GroupElement(e.construction, e.entries[:k]), GroupElement(e.construction, e.entries[k:])


def _components(*elems):
    """The components of the elements, as raw values that element() takes."""
    return {pos: dict(v) if isinstance(v, tuple) else v for e in elems for pos, v in e.entries}


class TestOrder:
    def test_c1_exceeds_multiples_of_c2(self):
        # generators at deeper slots are infinitesimal relative to earlier ones
        a = element(LAMBDA, {S00: {1: 1}})
        b = element(LAMBDA, {S00: {2: 2}})
        assert a.cmp(b) == 1
        for n in range(1, 65):
            assert element(LAMBDA, {S00: {2: n}}) < element(LAMBDA, {S00: {1: 1}})

    def test_zero_equal(self):
        assert zero(LAMBDA).cmp(zero(LAMBDA)) == 0

    def test_g2_dominates_g1(self):
        a = element(LAMBDA, {g2_circle(0): Fraction(1)})
        b = element(LAMBDA, {S00: {0: 10**6}})
        assert a.cmp(b) == 1

    def test_archimedean_separation_all_slots(self):
        for i in range(0, 63):
            hi = element(LAMBDA, {S00: {i: 1}})
            lo = element(LAMBDA, {S00: {i + 1: 1}})
            for n in range(1, 65):
                assert lo.scale(n) < hi

    def test_translation_invariance_bulk(self):
        # deterministic large-sample check of order/addition compatibility
        from oagw.sampling import case_rng

        for construction in (LAMBDA, GAMMA):
            for i in range(10_000):
                rng = case_rng(777, i)
                a = random_element(rng, construction, 3)
                b = random_element(rng, construction, 3)
                c = random_element(rng, construction, 3)
                if a < b:
                    assert a + c < b + c

    def test_mixed_construction_rejected(self):
        with pytest.raises(ConstructionMismatch):
            zero(LAMBDA).cmp(zero(GAMMA))
        with pytest.raises(ConstructionMismatch):
            zero(LAMBDA) + zero(GAMMA)

    @settings(max_examples=150, deadline=None)
    @given(seeded_elements(LAMBDA), seeded_elements(LAMBDA), seeded_elements(LAMBDA))
    def test_translation_invariance(self, a, b, c):
        if a < b:
            assert a + c < b + c

    @settings(max_examples=100, deadline=None)
    @given(seeded_elements(GAMMA), seeded_elements(GAMMA), seeded_elements(GAMMA))
    def test_translation_invariance_gamma(self, a, b, c):
        if a < b:
            assert a + c < b + c


class TestArithmetic:
    def test_inverse_law(self):
        a = element(LAMBDA, {S00: {0: 1, 1: 1}, g2_circle(0): Fraction(1, 2)})
        assert (a + (-a)).is_zero()

    def test_componentwise_add(self):
        a = element(LAMBDA, {S00: {0: 1}})
        b = element(LAMBDA, {S00: {0: 1, 1: 1}})
        assert a + b == element(LAMBDA, {S00: {0: 2, 1: 1}})

    def test_rational_add(self):
        h = element(LAMBDA, {g2_circle(0): Fraction(1, 2)})
        assert h + h == element(LAMBDA, {g2_circle(0): 1})

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([LAMBDA, GAMMA]), st.randoms(use_true_random=False), st.integers(1, 5))
    def test_commutative(self, construction, rng, k):
        # supports that interleave or share positions merge
        a, b = random_element(rng, construction), random_element(rng, construction)
        assert a + b == b + a
        # supports that do not overlap are joined, in either order
        left, right = _split(random_element(rng, construction, 6), k)
        union = element(construction, _components(left, right))
        assert left + right == right + left == union

    @settings(max_examples=100, deadline=None)
    @given(seeded_elements(LAMBDA), seeded_elements(LAMBDA), seeded_elements(LAMBDA))
    def test_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA], ids=str)
    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False), st.booleans())
    def test_negation_matches_scale_minus_one(self, construction, rng, hashed):
        # scale(-1) is the reference: the same entries, value classes and
        # carried hash
        a = random_element(rng, construction)
        if hashed:
            hash(a)
        neg, ref = -a, a.scale(-1)
        assert neg.entries == ref.entries
        assert [v.__class__ for _, v in neg.entries] == [v.__class__ for _, v in ref.entries]
        assert neg._hash == ref._hash
        if hashed:
            assert neg._hash is not None
        assert (a + neg).is_zero() and a + neg == zero(construction)

    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA], ids=str)
    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(-12, 12), st.booleans())
    def test_scale_matches_the_generic_multiply(self, construction, rng, k, hashed):
        # each rational scaled by the generic Fraction multiply is the
        # reference: the same values in lowest terms, classes and hash
        a = random_element(rng, construction)
        if hashed:
            hash(a)
        got = a.scale(k)
        want = tuple(
            (pos, tuple((s, c * k) for s, c in v) if v.__class__ is tuple else v * k)
            for pos, v in a.entries
        ) if k else ()
        assert got.entries == want
        assert [v.__class__ for _, v in got.entries] == [v.__class__ for _, v in want]
        for (_, v), (_, w) in zip(got.entries, want):
            if v.__class__ is Fraction:
                assert (v.numerator, v.denominator) == (w.numerator, w.denominator)
                assert hash(v) == hash(w)
        rebuilt = GroupElement(construction, want)
        if hashed:
            assert got._hash == hash(rebuilt)
        assert hash(got) == hash(rebuilt)

    def test_scale(self):
        a = element(LAMBDA, {S00: {0: 3}})
        assert a.scale(0).is_zero()
        assert a.scale(-2) == element(LAMBDA, {S00: {0: -6}})
        with pytest.raises(TypeError):
            a.scale(Fraction(1, 2))


# zero, small and shared denominators, and big ints on either side
_NUMERATORS = st.one_of(st.integers(-12, 12), st.integers(-(2**100), 2**100))
_DENOMINATORS = st.one_of(st.sampled_from([1, 2, 3, 4, 6, 9, 12]), st.integers(1, 2**100))
_RATIONALS = st.builds(Fraction, _NUMERATORS, _DENOMINATORS)


def _slots(x):
    return x.__class__, x._numerator, x._denominator


class TestRationalHelpers:
    """The one-frame helpers give exactly Fraction's own results."""

    @pytest.mark.parametrize(
        "a, b",
        [
            (Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(-3, 4)),
            (Fraction(-1, 2), Fraction(1, 2)),  # a zero sum over a shared denominator
            (Fraction(1, 6), Fraction(5, 6)),  # a sum that cancels to an integer
            (Fraction(1, 6), Fraction(1, 6)),
            (Fraction(2, 3), Fraction(-3, 4)),  # coprime denominators
            (Fraction(5, 12), Fraction(7, 18)),  # a common factor
            (Fraction(-7), Fraction(3)),
            (Fraction(2**100 + 1, 3**70), Fraction(-(3**71), 2**99)),
        ],
    )
    def test_fixed_cases(self, a, b):
        for x, y in ((a, b), (b, a)):
            assert _slots(_fraction_add(x, y)) == _slots(x + y)
            assert _slots(_fraction_mul(x, y)) == _slots(x * y)
            assert _slots(_fraction_neg(x)) == _slots(-x)

    @settings(max_examples=400, deadline=None)
    @given(_RATIONALS, _RATIONALS, st.booleans())
    def test_the_operators_results_slot_for_slot(self, a, b, same_denominator):
        if same_denominator:
            b = Fraction(b._numerator * a._denominator + 1, a._denominator)
        assert _slots(_fraction_add(a, b)) == _slots(a + b)
        assert _slots(_fraction_mul(a, b)) == _slots(a * b)
        assert _slots(_fraction_neg(a)) == _slots(-a)

    # -1/3 cancels the shared position
    @pytest.mark.parametrize("shared", [Fraction(1, 5), Fraction(-1, 3)])
    def test_gamma_arithmetic_enters_no_fraction_method(self, shared):
        # two GAMMA elements that share a rational position: the sum
        # there, negation, hash, comparison and sign read Fraction's slots
        a = element(GAMMA, {g2_circle(0): Fraction(1, 3), g2_square(1): Fraction(2, 5)})
        b = element(GAMMA, {g2_circle(0): shared, g2_circle(1): Fraction(-3, 7)})

        out = []

        def run():
            s = a + b
            out.extend((s, (-s + s).is_zero(), (a + (-a)).is_zero()))
            out.extend((hash(a), hash(b), hash(s), a.cmp(b), b.cmp(s), s.sign(), (-a).sign()))

        assert fraction_calls(run) == []
        s = out[0]
        assert s.value_at(g2_circle(0)) == (Fraction(1, 3) + shared or None)
        assert out[1:3] == [True, True]
        assert out[3:] == [hash(a), hash(b), hash(s), a.cmp(b), b.cmp(s), s.sign(), (-a).sign()]


class TestHashAndSign:
    # (construction, a, b, a + b written out by hand, a + b as text)
    ROUTES = [
        (
            LAMBDA,
            {S00: {0: 1, 1: 2}, g2_circle(0): Fraction(1, 2)},
            {S00: {1: -2, 3: 1}, g2_square(1): {2: 3}},
            {g2_square(1): {2: 3}, g2_circle(0): Fraction(1, 2), S00: {0: 1, 3: 1}},
            "{G2[1].s: 3*c2, G2[0].c: 1/2, G1[0].s[0]: 1+c3}",
        ),
        (
            GAMMA,
            {g2_circle(0): Fraction(1, 3), S00: 2},
            {g2_circle(0): Fraction(-1, 3), g2_square(1): Fraction(-5, 2)},
            {g2_square(1): Fraction(-5, 2), S00: 2},
            "{G2[1].s: -5/2, G1[0].s[0]: 2}",
        ),
    ]

    @pytest.mark.parametrize("construction,xs,ys,total,text", ROUTES)
    def test_equal_elements_hash_alike(self, construction, xs, ys, total, text):
        a, b = element(construction, xs), element(construction, ys)
        routes = [a + b, b + a, element(construction, total), parse_element(text, construction)]
        for r in routes:
            assert r == routes[0]
            assert hash(r) == hash(routes[0])
            assert hash(r) == hash(r)  # the kept hash answers again
        assert len(set(routes)) == 1
        assert len({a + b, a, b, b + a}) == 3

    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA])
    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(-5, 5))
    def test_carried_hash_matches_rebuilt(self, construction, rng, k):
        a = random_element(rng, construction, 4)
        b = random_element(rng, construction, 4)
        left, right = _split(random_element(rng, construction, 6), k % 5 + 1)
        # the results below carry their hash from these
        ha, hb, hl, hr = hash(a), hash(b), hash(left), hash(right)
        modulus = sys.hash_info.modulus
        results = {
            "a + b": (a + b, ha + hb),
            "left + right": (left + right, hl + hr),
            "right + left": (right + left, hl + hr),
            "a - b": (a - b, ha - hb),
            "-a": (-a, -ha),
            "k*a": (k * a, k * ha),
            "a + (b - a)": (a + (b - a), hb),
        }
        for name, (r, additive) in results.items():
            rebuilt = GroupElement(construction, r.entries)
            assert r._hash == hash(rebuilt) == additive % modulus, name
            assert hash(r) == r._hash, name
        assert a + (b - a) == b

    def test_small_multiples_hash_apart(self):
        # Python hashes -1 like -2, so hashing values through hash() made
        # {p: -1} and {p: -2} collide in every set of fragment sums
        for construction, value in ((GAMMA, 1), (GAMMA, Fraction(1, 5)), (LAMBDA, {0: 1, 2: 1})):
            a = unit(construction, S00, value)
            assert len({hash(a.scale(k)) for k in range(-6, 7)}) == 13

    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA])
    def test_denominator_divisible_by_the_hash_modulus(self, construction):
        # 2**61 - 1 is odd and prime to 3, so both constructions take it at
        # a circle; such a value has no residue modulo the hash modulus
        modulus = 2**61 - 1
        odd = element(construction, {g2_circle(0): Fraction(1, modulus)})
        other = element(construction, {g2_circle(0): Fraction(1, 3), S00: 2})
        hash(other)
        sums = [odd, -odd, odd.scale(3), odd + other, other + odd, (odd + other) - odd, odd - odd]
        for r in sums:
            rebuilt = GroupElement(construction, r.entries)
            assert r == rebuilt and hash(r) == hash(rebuilt) == hash(r)
        assert (odd + other) - odd == other
        assert hash((odd + other) - odd) == hash(other)
        assert hash(odd - odd) == hash(zero(construction)) == 0
        assert len({odd, GroupElement(construction, odd.entries), odd + zero(construction)}) == 1

    def test_zero_sum_hashes_like_zero(self):
        a = element(GAMMA, {g2_circle(0): Fraction(1, 3), S00: 2})
        assert hash(a + (-a)) == hash(zero(GAMMA))
        assert {a - a, zero(GAMMA)} == {zero(GAMMA)}

    @settings(max_examples=150, deadline=None)
    @given(seeded_elements(LAMBDA))
    def test_sign_matches_cmp_zero_lambda(self, a):
        self._check_sign(a)

    @settings(max_examples=150, deadline=None)
    @given(seeded_elements(GAMMA))
    def test_sign_matches_cmp_zero_gamma(self, a):
        self._check_sign(a)

    @staticmethod
    def _check_sign(a):
        z = zero(a.construction)
        assert a.sign() == a.cmp(z) == -z.cmp(a)
        if a.is_zero():
            assert a.sign() == 0
        else:
            v = a.lead_value()
            assert a.sign() == (v > 0) - (v < 0)
        assert (-a).sign() == -a.sign()

    def test_raw_zero_component_rejected(self):
        # a stored zero rational would give an element unequal to zero
        with pytest.raises(ComponentError):
            GroupElement(LAMBDA, ((g2_circle(0), Fraction(0)),))


class TestValidation:
    """The public constructor rejects every non-canonical entry tuple."""

    BAD = {
        "unsorted positions": (LAMBDA, ((S00, ((0, 1),)), (g2_circle(0), Fraction(1))),),
        "duplicate position": (GAMMA, ((S00, Fraction(1)), (S00, Fraction(2)))),
        "stored zero rational": (GAMMA, ((S00, Fraction(0)),)),
        "empty polynomial": (LAMBDA, ((S00, ()),)),
        "unsorted slots": (LAMBDA, ((S00, ((1, 1), (0, -1))),)),
        "duplicate slot": (LAMBDA, ((S00, ((0, 1), (0, 2))),)),
        "zero coefficient": (LAMBDA, ((S00, ((0, 0),)),)),
        "negative slot": (LAMBDA, ((S00, ((-1, 1),)),)),
        "non-int coefficient": (LAMBDA, ((S00, ((0, Fraction(1, 2)),)),)),
        "bool coefficient": (LAMBDA, ((S00, ((0, True),)),)),
        "bool slot": (LAMBDA, ((S00, ((True, 2),)),)),
        "malformed term": (LAMBDA, ((S00, ((0,),)),)),
        "fraction at a lambda square": (LAMBDA, ((S00, Fraction(1)),)),
        "polynomial at a lambda circle": (LAMBDA, ((g2_circle(0), ((0, 1),)),)),
        "polynomial at a gamma square": (GAMMA, ((S00, ((0, 1),)),)),
        "int instead of a rational": (GAMMA, ((S00, 1),)),
        "gamma circle denominator 2": (GAMMA, ((g2_circle(2), Fraction(1, 2)),)),
        "gamma square denominator 3": (GAMMA, ((S00, Fraction(1, 3)),)),
        "not a position": (GAMMA, ((("G2", 0, "c"), Fraction(1)),)),
    }

    @pytest.mark.parametrize("construction,entries", BAD.values(), ids=list(BAD))
    def test_rejected(self, construction, entries):
        with pytest.raises(ComponentError):
            GroupElement(construction, entries)

    def test_out_of_order_slots_cannot_flip_the_sign(self):
        # 1*c1 - 1 stored out of order would read sign 1; canonical is -1 + c1
        canonical = element(LAMBDA, {S00: {0: -1, 1: 1}})
        assert canonical.sign() == -1
        with pytest.raises(ComponentError):
            GroupElement(LAMBDA, ((S00, ((1, 1), (0, -1))),))
        assert GroupElement(LAMBDA, canonical.entries) == canonical

    def test_stored_zero_coefficient_is_not_a_second_zero(self):
        with pytest.raises(ComponentError):
            GroupElement(LAMBDA, ((S00, ((0, 0),)),))
        assert GroupElement(LAMBDA, ()) == zero(LAMBDA)

    def test_canonical_entries_accepted(self):
        a = element(GAMMA, {g2_circle(1): Fraction(1, 3), S00: Fraction(5, 2)})
        b = GroupElement(GAMMA, list(a.entries))
        assert b == a and hash(b) == hash(a) and b.entries == a.entries

    def test_immutable(self):
        a = element(LAMBDA, {S00: 1})
        with pytest.raises(AttributeError):
            a.entries = ()  # type: ignore[misc]

    def test_pickle_and_copy_round_trip(self):
        a = element(LAMBDA, {S00: {0: 2, 3: -1}, g2_circle(0): Fraction(1, 2)})
        for b in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
            assert b == a and hash(b) == hash(a)
            assert b.entries[0][0] is a.entries[0][0]


class TestRawComponents:
    """``element()`` validates each raw component in its one pass."""

    BAD = {
        "mapping at a rational position": (LAMBDA, {g2_circle(0): {0: 1}}),
        "mapping at a gamma square": (GAMMA, {S00: {0: 1}}),
        "fraction at a lambda square": (LAMBDA, {S00: Fraction(1, 2)}),
        "non-int coefficient": (LAMBDA, {S00: {0: Fraction(1, 2)}}),
        "negative slot": (LAMBDA, {S00: {-1: 1}}),
        # True == 1, but {0: True} would print as True and {True: 2} as 2*cTrue
        "bool coefficient": (LAMBDA, {S00: {0: True}}),
        "bool slot": (LAMBDA, {S00: {True: 2}}),
        "float coefficient": (LAMBDA, {S00: {0: 2.0}}),
        "float slot": (LAMBDA, {S00: {1.0: 2}}),
        "bool at a lambda square": (LAMBDA, {S00: True}),
        "float at a lambda square": (LAMBDA, {S00: 1.0}),
        "gamma circle denominator 2": (GAMMA, {g2_circle(2): Fraction(1, 2)}),
        "gamma square denominator 3": (GAMMA, {S00: Fraction(1, 3)}),
        # only int and Fraction are rational values; each of these converts
        "float at a lambda circle": (LAMBDA, {g2_circle(0): 0.1}),
        "str at a gamma circle": (GAMMA, {g2_circle(0): "1/3"}),
        "bool at a gamma circle": (GAMMA, {g2_circle(0): True}),
    }

    @pytest.mark.parametrize("construction,components", BAD.values(), ids=list(BAD))
    def test_rejected(self, construction, components):
        with pytest.raises(ComponentError):
            element(construction, components)

    def test_mapping_proxy_polynomial_accepted(self):
        a = element(LAMBDA, {S00: types.MappingProxyType({2: -1, 0: 3, 1: 0})})
        assert a == element(LAMBDA, {S00: {0: 3, 2: -1}})
        assert a.entries == ((S00, ((0, 3), (2, -1))),)


def _revalidated(r):
    """``r`` rebuilt through the validating public constructor."""
    return GroupElement(r.construction, r.entries)


class TestCanonicalResults:
    """Every unchecked internal result passes the public validation."""

    @staticmethod
    def _check(results):
        for r in results:
            if r is None:
                continue
            v = _revalidated(r)
            assert v == r and hash(v) == hash(r)

    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA])
    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(-4, 4))
    def test_arithmetic_results(self, construction, rng, k):
        from oagw.sampling import random_element

        a = random_element(rng, construction, 4)
        b = random_element(rng, construction, 4)
        self._check([a, b, a + b, a - b, b - a, -a, a.scale(k), a + a, a - a, zero(construction)])

    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA])
    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_embedding_results(self, construction, rng):
        from oagw.embeddings import Embedding, apply, preimage
        from oagw.sampling import random_element

        a = random_element(rng, construction, 4)
        for emb in Embedding:
            fa = apply(emb, a)
            self._check([fa, preimage(emb, fa), preimage(emb, a)])

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from([LAMBDA, GAMMA]),
        st.dictionaries(
            st.sampled_from([g2_circle(1), g2_square(0), S00, g1_square(0, 2), g1_square(1, 0)]),
            st.integers(-3, 3),
            max_size=4,
        ),
        st.dictionaries(st.integers(0, 3), st.integers(-2, 2), max_size=3),
    )
    def test_element_results(self, construction, ints, poly):
        self._check([element(construction, ints)])
        if construction is LAMBDA:
            self._check([element(LAMBDA, {S00: poly, g1_square(1, 0): poly})])


class TestIdentityFastPaths:
    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA])
    def test_unit_scale_returns_self(self, construction):
        a = element(construction, {g2_circle(0): Fraction(1, 5), S00: 2})
        assert a.scale(1) is a
        assert a * 1 is a
        assert a.scale(2) == a + a  # other factors still build new elements

    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA])
    def test_zero_is_shared(self, construction):
        z = zero(construction)
        assert z is zero(construction)
        assert z == element(construction, {}) and hash(z) == hash(element(construction, {}))
        assert z.is_zero() and z.construction is construction
        a = element(construction, {S00: 3})
        assert a.scale(0) is z
        assert z.scale(1) is z

    def test_zeros_of_the_two_constructions_differ(self):
        assert zero(LAMBDA) != zero(GAMMA)


class TestDivisibility:
    def test_lambda_square_even(self):
        assert element(LAMBDA, {S00: {0: 2, 1: 4}}).is_divisible(2)
        assert not element(LAMBDA, {S00: {0: 2, 1: 3}}).is_divisible(2)

    def test_lambda_circle_divisible(self):
        assert element(LAMBDA, {g2_circle(0): Fraction(1, 3)}).is_divisible(5)

    def test_gamma_circle_localization(self):
        # solving 2*b = 1/3 needs denominator 6, which is outside the odd-denominator circle
        assert not element(GAMMA, {g2_circle(0): Fraction(1, 3)}).is_divisible(2)
        assert element(GAMMA, {g2_circle(0): Fraction(2, 3)}).is_divisible(2)
        # 3 is invertible at circles, so dividing by 3 always works
        assert element(GAMMA, {g2_circle(0): Fraction(1, 3)}).is_divisible(3)

    def test_gamma_square_localization(self):
        assert not element(GAMMA, {g2_square(0): Fraction(1)}).is_divisible(3)
        assert element(GAMMA, {g2_square(0): Fraction(3, 2)}).is_divisible(3)
        assert element(GAMMA, {g2_square(0): Fraction(1)}).is_divisible(2)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([LAMBDA, GAMMA]).flatmap(seeded_elements), st.integers(2, 6))
    def test_divisible_exactly_when_no_lead_mod(self, e, n):
        assert e.is_divisible(n) == (e.lead_mod(n) is None)

    def test_modulus_validation(self):
        with pytest.raises(ValueError):
            zero(LAMBDA).is_divisible(1)
        with pytest.raises(ValueError):
            zero(LAMBDA).lead_mod(0)


class TestLeads:
    def test_lead_mod_skips_divisible_circle(self):
        a = element(LAMBDA, {g2_circle(0): Fraction(1, 2), S00: {0: 3}})
        assert a.lead_mod(2) == LeadDescriptor(S00, 0)

    def test_lead_mod_inner_slot(self):
        a = element(LAMBDA, {S00: {0: 2, 1: 1}})
        assert a.lead_mod(2) == LeadDescriptor(S00, 1)

    def test_lead_mod_absent(self):
        assert element(LAMBDA, {g2_circle(0): 1}).lead_mod(2) is None
        assert zero(LAMBDA).lead_mod(2) is None

    def test_gamma_lead_mod(self):
        a = element(GAMMA, {g2_square(1): Fraction(2), g2_circle(0): Fraction(1)})
        # squares are 2-divisible in the 3-localization; the odd circle is not
        assert a.lead_mod(2) == LeadDescriptor(g2_circle(0), 0)
        assert a.lead_mod(3) == LeadDescriptor(g2_square(1), 0)

    def test_plain_lead(self):
        a = element(LAMBDA, {S00: {2: -1, 5: 3}})
        assert a.lead_descriptor() == LeadDescriptor(S00, 2)
        assert a.lead_value() == -1
        assert a.sign() == -1

    def test_descriptor_order(self):
        assert LeadDescriptor(S00, 0) < LeadDescriptor(S00, 1)
        assert LeadDescriptor(g2_square(0), 5) < LeadDescriptor(S00, 0)
        # tuple order is address order: positions compare by sort key
        positions = [g2_circle(1), g2_square(1), g2_circle(0), g2_square(0), S00, g1_square(0, 2)]
        descs = [LeadDescriptor(p, i) for p in positions for i in (0, 1, 3)]
        for d in descs:
            for e in descs:
                assert (d < e) == ((d.position.key, d.inner_slot) < (e.position.key, e.inner_slot))
        assert sorted(reversed(descs)) == descs
        assert str(LeadDescriptor(S00, 1)) == "(G1[0].s[0], 1)"


class TestText:
    CASES = [
        (LAMBDA, "{G2[0].c: 1}"),
        (LAMBDA, "{G1[0].s[0]: 2+4*c1}"),
        (LAMBDA, "{G2[1].s: 1*c3, G1[0].s[0]: -2, G1[2].c: -7/3}"),
        (GAMMA, "{G2[0].c: 1/3, G2[0].s: -5/2}"),
        (LAMBDA, "0"),
    ]

    @pytest.mark.parametrize("construction,text", CASES)
    def test_round_trip(self, construction, text):
        a = parse_element(text, construction)
        assert parse_element(format_element(a), construction) == a

    def test_canonical_order(self):
        a = parse_element("{G1[0].s[0]: 1, G2[0].c: 1}", LAMBDA)
        assert format_element(a) == "{G2[0].c: 1, G1[0].s[0]: 1}"

    def test_unit_at_critical_circle(self):
        a = parse_element("{G2[0].c: 1}", LAMBDA)
        assert a == unit(LAMBDA, g2_circle(0), Fraction(1))

    def test_lambda_square_rejects_fraction(self):
        with pytest.raises(ParseError):
            parse_element("{G1[0].s[0]: 1/2}", LAMBDA)
        with pytest.raises(ComponentError):
            element(LAMBDA, {S00: Fraction(1, 2)})

    def test_gamma_denominator_checks(self):
        with pytest.raises(ParseError):
            parse_element("{G2[0].c: 1/2}", GAMMA)
        with pytest.raises(ParseError):
            parse_element("{G2[0].s: 1/3}", GAMMA)
        parse_element("{G2[0].s: 1/2}", GAMMA)

    def test_gamma_denominator_error_points_at_its_value(self):
        text = "{G2[0].s: 1/2, G2[0].c: 1/2}"
        with pytest.raises(ParseError) as err:
            parse_element(text, GAMMA)
        assert err.value.at == text.index(": 1/2}") + 2

    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA])
    @pytest.mark.parametrize("value", ["1/0", "0/0", "-3 / 0"])
    def test_zero_denominator_is_a_parse_error(self, construction, value):
        text = f"{{G2[0].s: 1, G2[0].c: {value}}}"
        with pytest.raises(ParseError) as err:
            parse_element(text, construction)
        assert err.value.at == text.index(f": {value}}}") + 2

    @pytest.mark.parametrize(
        "text, at, message",
        # ids from the text alone, every blank spelled "_": a changed
        # offset renames no test, and texts that differ only in a run of
        # blanks stay apart in a listing that collapses blanks
        [pytest.param(*case, id=case[0].replace(" ", "_")) for case in (
            ("  {G9: 1}", 3, "bad position 'G9'"),
            (" {G2[0].c: 1/0}", 11, "zero denominator in '1/0'"),
            ("  nonsense", 2, "expected '{...}' or '0'"),
            # a polynomial's terms count past the blanks before the value
            ("{G2[0].s: 1 + x}", 12, "expected polynomial term"),
            ("{G2[0].s:   1 + x}", 14, "expected polynomial term"),
            ("{G2[0].s:1 + x}", 11, "expected polynomial term"),
            # and so does every other error of the value
            ("{G2[0].s:   1/2}", 12, "G2[0].s takes integer polynomials"),
            ("{G2[0].c:   x}", 12, "bad rational 'x'"),
            ("{G2[0].c:1/0}", 9, "zero denominator in '1/0'"),
        )],
    )
    def test_offsets_count_from_the_start_of_the_text(self, text, at, message):
        with pytest.raises(ParseError) as err:
            parse_element(text, LAMBDA)
        assert str(err.value) == f"at index {at}: {message} in {text!r}"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{G2[0].s: }", "expected polynomial term"),
            ("{G2[0].c: }", "bad rational ''"),
        ],
    )
    def test_an_empty_value_is_a_parse_error_at_its_offset(self, text, message):
        # a polynomial value with no term is not zero: it fails as a
        # rational one does, where the value would start
        with pytest.raises(ParseError) as err:
            parse_element(text, LAMBDA)
        assert (err.value.at, err.value.message) == (10, message)
        with pytest.raises(ParseError) as err:
            parse_element("{G2[0].c: 1, G1[0].s[0]:}", LAMBDA)
        assert err.value.at == 24

    def test_syntax_errors(self):
        with pytest.raises(ParseError):
            parse_element("{G2[0].q: 1}", LAMBDA)
        with pytest.raises(ParseError):
            parse_element("{G2[0].c 1}", LAMBDA)
        with pytest.raises(ParseError):
            parse_element("nonsense", LAMBDA)

    @settings(max_examples=120, deadline=None)
    @given(seeded_elements(LAMBDA))
    def test_round_trip_random_lambda(self, a):
        assert parse_element(format_element(a), LAMBDA) == a

    @settings(max_examples=120, deadline=None)
    @given(seeded_elements(GAMMA))
    def test_round_trip_random_gamma(self, a):
        assert parse_element(format_element(a), GAMMA) == a
