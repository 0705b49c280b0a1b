import copy
import pickle
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oagw.elements import (
    _fraction_add,
    _fraction_mul,
    _fraction_neg,
    ComponentError,
    Construction,
    ConstructionMismatch,
    GAMMA,
    GroupElement,
    LAMBDA,
    LeadDescriptor,
    ParseError,
    element,
    format_element,
    fresh_g1_block,
    parse_element,
    unit,
    zero,
)
from oagw.embeddings import Embedding, apply
from oagw.positions import G1, G2, g1_circle, g1_square, g2_circle, g2_square
from oagw.sampling import case_rng, random_element

import reference
from conftest import fraction_calls

S00 = g1_square(0, 0)


def _split(e, k):
    """The entries of e before index k and from k on, as two elements.

    Their supports do not overlap, and every position of the first comes
    before every position of the second.
    """
    return GroupElement(e.construction, e.entries[:k]), GroupElement(e.construction, e.entries[k:])


def _pairs(construction):
    """Seeded pairs: two draws, a split draw's halves both ways round, a draw with
    its negation and with an equal copy of new objects, and a circle value whose
    denominator is the hash modulus; every other case hashes its draws first."""
    odd = unit(construction, g2_circle(1), Fraction(1, 2**61 - 1))
    for i in range(120):
        rng = case_rng(45, i)
        a, b = random_element(rng, construction, 4), random_element(rng, construction, 4)
        left, right = _split(random_element(rng, construction, 6), rng.randrange(1, 6))
        twin = reference.to_element(construction, reference.scale(reference.model(a), 1))
        if i % 2:
            hash(a), hash(b), hash(left), hash(right)
        yield from ((a, b), (left, right), (right, left), (a, -a), (a, twin), (odd, a), (b, a + odd))


def _elements(construction):
    return {id(e): e for pair in _pairs(construction) for e in pair}.values()


def _is_model(r, x, construction):
    """r holds the model x's entries, which the validating constructor takes, and
    its hash, or hashes as a fresh copy does where the model leaves the hash open."""
    assert r.construction is construction
    assert r.entries == reference.entries(x)
    rebuilt = GroupElement(construction, r.entries)
    want = reference.hash_of(x)
    assert hash(r) == (hash(rebuilt) if want is None else want)


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

    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA])
    def test_comparison_operators_agree_with_cmp(self, construction):
        # cmp and the four operators give the model's cmp; the pairs meet every sign
        signs = set()
        for a, b in _pairs(construction):
            c = reference.cmp(reference.model(a), reference.model(b))
            signs.add(c)
            assert a.cmp(b) == c
            assert (a < b, a <= b, a > b, a >= b) == (c < 0, c <= 0, c > 0, c >= 0)
        assert signs == {-1, 0, 1}

    def test_mixed_construction_rejected(self):
        with pytest.raises(ConstructionMismatch):
            zero(LAMBDA).cmp(zero(GAMMA))
        with pytest.raises(ConstructionMismatch):
            zero(LAMBDA) + zero(GAMMA)


class TestArithmetic:
    def test_componentwise_add(self):
        a = element(LAMBDA, {S00: {0: 1}})
        b = element(LAMBDA, {S00: {0: 1, 1: 1}})
        assert a + b == element(LAMBDA, {S00: {0: 2, 1: 1}})

    def test_rational_add(self):
        h = element(LAMBDA, {g2_circle(0): Fraction(1, 2)})
        assert h + h == element(LAMBDA, {g2_circle(0): 1})

    def test_scale(self):
        a = element(LAMBDA, {S00: {0: 3}})
        assert a.scale(0).is_zero()
        assert a.scale(-2) == element(LAMBDA, {S00: {0: -6}})
        with pytest.raises(TypeError):
            a.scale(Fraction(1, 2))

    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA], ids=str)
    def test_negation_matches_scale_minus_one(self, construction):
        # the model's scale(-1): the same entries, and the same hash
        for a in _elements(construction):
            _is_model(-a, reference.scale(reference.model(a), -1), construction)

    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA], ids=str)
    def test_scale_matches_the_generic_multiply(self, construction):
        # the model scales each value with Fraction's own multiply
        for a in _elements(construction):
            x = reference.model(a)
            for k in range(-6, 7):
                _is_model(a.scale(k), reference.scale(x, k), construction)


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
    def test_carried_hash_matches_rebuilt(self, construction):
        # the results of hashed operands carry their hash, and it is the model's
        for a, b in _pairs(construction):
            if a._hash is None or b._hash is None:
                continue
            x, y = reference.model(a), reference.model(b)
            for r, want in ((a + b, reference.add(x, y)), (a - b, reference.sub(x, y)),
                            (-a, reference.scale(x, -1)), (a.scale(3), reference.scale(x, 3))):
                assert r._hash == reference.hash_of(want) == hash(GroupElement(construction, r.entries))

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

    def test_sign_matches_cmp_zero_lambda(self):
        self._check_sign(LAMBDA)

    def test_sign_matches_cmp_zero_gamma(self):
        self._check_sign(GAMMA)

    @staticmethod
    def _check_sign(construction):
        z = zero(construction)
        for a in _elements(construction):
            s = reference.sign(reference.model(a))
            assert a.sign() == s == a.cmp(z) == -z.cmp(a)
            assert (-a).sign() == -s

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

    @pytest.mark.parametrize("construction,components", BAD.values(), ids=list(BAD))
    def test_unit_rejects_with_the_same_text(self, construction, components):
        [(pos, raw)] = components.items()
        with pytest.raises(ComponentError) as want:
            element(construction, components)
        with pytest.raises(ComponentError) as got:
            unit(construction, pos, raw)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA])
    @pytest.mark.parametrize(
        "pos,raw",
        [
            (g2_circle(1), 3),
            (g2_circle(1), -1),
            (g2_circle(1), Fraction(-7, 5)),
            (g1_circle(2), Fraction(4, 1)),
            (g2_square(0), 2),
            (S00, Fraction(1, 2)),
            (S00, {0: 1, 3: -2, 1: 5}),
            (g1_square(1, 2), {2: -1}),
            (g1_square(1, 2), types.MappingProxyType({4: 1, 0: -3})),
            # a zero value gives the zero element
            (g2_circle(0), 0),
            (g2_circle(0), Fraction(0)),
            (S00, 0),
            (S00, {}),
            (S00, {0: 0, 2: 0}),
        ],
    )
    def test_unit_equals_a_one_component_element(self, construction, pos, raw):
        try:
            want = element(construction, {pos: raw})
        except ComponentError as exc:
            # a mapping at a gamma square or a fraction at a lambda square
            with pytest.raises(ComponentError) as got:
                unit(construction, pos, raw)
            assert str(got.value) == str(exc)
            return
        got = unit(construction, pos, raw)
        assert got == want and got.entries == want.entries and hash(got) == hash(want)
        assert got.construction is construction
        assert got.is_zero() == (raw == 0 or isinstance(raw, dict) and not any(raw.values()))
        assert GroupElement(construction, got.entries) == got

    def test_mapping_proxy_polynomial_accepted(self):
        a = element(LAMBDA, {S00: types.MappingProxyType({2: -1, 0: 3, 1: 0})})
        assert a == element(LAMBDA, {S00: {0: 3, 2: -1}})
        assert a.entries == ((S00, ((0, 3), (2, -1))),)


class TestCanonicalResults:
    """Each sum and difference holds the model's entries, which the validating
    constructor takes, and the model's hash."""

    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA])
    def test_arithmetic_results(self, construction):
        for a, b in _pairs(construction):
            x, y = reference.model(a), reference.model(b)
            _is_model(a + b, reference.add(x, y), construction)
            _is_model(a - b, reference.sub(x, y), construction)


class TestFreshBlock:
    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA])
    def test_last_entry_equals_a_full_scan(self, construction):
        lasts = set()
        for i in range(300):
            rng = case_rng(11, i)
            elems = [random_element(rng, construction) for _ in range(rng.randrange(0, 4))]
            # F2 moves G2 pair 0 into G1 and every block one further on
            elems += [apply(Embedding.F2, e) for e in elems[:1]]
            lasts.update(e.entries[-1][0].area for e in elems if e.entries)
            assert fresh_g1_block(*elems) == reference.fresh_block(*map(reference.model, elems))
        assert lasts == {G1, G2}

    def test_fixed_cases(self):
        g2_only = element(LAMBDA, {g2_circle(2): 1, g2_square(0): 3})
        mixed = element(LAMBDA, {g2_circle(0): 1, g1_square(4, 2): 1, g1_circle(1): 5})
        assert fresh_g1_block() == 0
        assert fresh_g1_block(zero(LAMBDA), g2_only) == 0
        # block 1's circle sorts before block 4's square, the last entry
        assert fresh_g1_block(mixed) == 5
        assert fresh_g1_block(g2_only, unit(LAMBDA, g1_circle(6)), mixed) == 7


@pytest.mark.parametrize("member", list(Construction))
def test_construction_text(member):
    assert str(member) == f"{member}" == {GAMMA: "gamma", LAMBDA: "lambda"}[member]


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

    def test_divisible_exactly_when_no_lead_mod(self):
        # the model's lead, lead_mod(n) and so divisibility by n
        for construction in (LAMBDA, GAMMA):
            for a in _elements(construction):
                x = reference.model(a)
                assert a.lead_descriptor() == reference.lead_descriptor(x)
                for n in range(2, 7):
                    d = reference.lead_mod(construction, x, n)
                    assert a.lead_mod(n) == d
                    assert a.is_divisible(n) is (d is None)

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

    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA])
    def test_format_equals_the_reference_and_parses_back(self, construction):
        seen = set()
        for i in range(400):
            a = random_element(case_rng(5, i), construction)
            text = format_element(a)
            assert text == reference.text(reference.model(a)) == str(a)
            assert parse_element(text, construction) == a
            polys = [v for _, v in a.entries if isinstance(v, tuple)]
            seen.update(
                ("later" if i else "lead", c if slot else "slot 0")
                for v in polys for i, (slot, c) in enumerate(v)
            )
        if construction is LAMBDA:
            # negative and +-1 coefficients, leading and later, and slot 0
            assert {("lead", "slot 0"), ("lead", 1), ("lead", -1), ("lead", -4),
                    ("later", 1), ("later", -1), ("later", -6)} <= seen

    def test_format_fixed_polynomials(self):
        a = element(LAMBDA, {S00: {0: -1, 1: 1, 2: -1, 5: 6}, g1_square(0, 1): {3: -1, 4: 1}})
        assert format_element(a) == "{G1[0].s[0]: -1+1*c1-1*c2+6*c5, G1[0].s[1]: -1*c3+1*c4}"
        assert format_element(unit(LAMBDA, S00, {2: 1})) == "{G1[0].s[0]: 1*c2}"
        assert format_element(unit(LAMBDA, S00, {0: 1})) == "{G1[0].s[0]: 1}"

