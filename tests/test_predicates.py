"""Congruence-gap predicate, tail sets, and the right-block formula.

The oracles are the models of ``reference``: the closed form written on
the element model's leads, and plain witness search over its naive
fragments, where any witness found refutes the predicate.  A refuted
case's explicit certificate must verify in the element model.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings

from oagw.elements import (
    GAMMA,
    LAMBDA,
    ComponentError,
    ConstructionMismatch,
    GroupElement,
    LeadDescriptor,
    element,
    unit,
    zero,
)
from oagw.fragments import FragmentConfig
from oagw.embeddings import Embedding, in_image
from oagw.positions import CRITICAL_CIRCLE, g1_circle, g1_square, g2_circle, g2_square
from oagw.predicates import (
    cong_free_below,
    cong_free_below_given,
    cong_witness_below,
    g1_part_by_formula,
    in_g1_part,
    in_tail,
    index_window,
    inner_anchor_below,
    tail_set,
    window_positions,
)
from oagw.sampling import case_rng, random_element

import reference
from conftest import generated_calls, seeded_elements

S00 = g1_square(0, 0)


def _refutes(construction, n, neg_a, neg_b, y):
    """0 < y < b and y = a (mod n), on element models, given -a and -b."""
    r = reference
    return r.sign(y) > 0 and r.lead_mod(construction, r.add(y, neg_a), n) is None and r.sign(r.add(y, neg_b)) < 0


def brute_refute(n, a, b, pool):
    """A y with 0 < y < b and y = a mod n in the model fragment, or None."""
    cfg = FragmentConfig(3, tuple(pool), 400)
    ma, mb = reference.model(a), reference.model(b)
    neg_a, neg_b = reference.scale(ma, -1), reference.scale(mb, -1)
    ys = reference.fragment_models([ma, mb], cfg)
    y = next((y for y in ys if _refutes(a.construction, n, neg_a, neg_b, y)), None)
    return None if y is None else reference.to_element(a.construction, y)


class TestCongFreeBelow:
    def test_unit_below_deeper_generator(self):
        a = element(LAMBDA, {S00: {0: 1}})
        b = element(LAMBDA, {S00: {1: 1}})
        assert cong_free_below(2, a, b) is True

    def test_vacuous_on_negative_bound(self):
        a = element(LAMBDA, {S00: {0: 1}})
        b = -element(LAMBDA, {S00: {0: 1}})
        assert cong_free_below(2, a, b) is True
        assert cong_free_below(2, zero(LAMBDA), zero(LAMBDA)) is True

    def test_equal_element_refuted_by_named_witness(self):
        a = element(LAMBDA, {S00: {0: 1}})
        y = a - element(LAMBDA, {g1_square(5, 0): {0: 1}}).scale(2)
        assert y.sign() > 0 and y < a and (y - a).is_divisible(2)
        assert cong_free_below(2, a, a) is False

    def test_divisible_lhs_with_positive_bound(self):
        a = element(LAMBDA, {S00: {0: 2}})
        b = element(LAMBDA, {S00: {0: 1}})
        assert cong_free_below(2, a, b) is False

    def test_lead_value_boundary(self):
        # bound leading with value 1 at the same slot: residue 2 mod 3 cannot fit
        a = element(LAMBDA, {S00: {0: 2}})
        b = element(LAMBDA, {S00: {0: 1}})
        assert cong_free_below(3, a, b) is True
        assert cong_free_below(3, a, b.scale(2)) is False

    def test_bound_lead_before_its_own_obstruction(self):
        # b = 2 + c1 leads at slot 0 even though its 2-obstruction is at slot 1
        a = element(LAMBDA, {S00: {0: 1}})
        b = element(LAMBDA, {S00: {0: 2, 1: 1}})
        assert cong_free_below(2, a, b) is False
        assert brute_refute(2, a, b, []) is not None

    def test_gamma_same_position_dense(self):
        a = element(GAMMA, {g2_circle(0): Fraction(3)})
        b = element(GAMMA, {g2_circle(0): Fraction(1)})
        assert cong_free_below(2, a, b) is False
        w = cong_witness_below(2, a, b)
        assert w is not None and w.sign() > 0 and w < b and (w - a).is_divisible(2)

    def test_gamma_pair_forces_position_gap(self):
        # when either avoidance relation holds between positives, the
        # leading position of the left element strictly precedes the right's
        for i in range(300):
            rng = case_rng(8200, i)
            a = random_element(rng, GAMMA)
            b = random_element(rng, GAMMA)
            if not (a.sign() > 0 and b.sign() > 0):
                continue
            if cong_free_below(2, a, b) or cong_free_below(3, a, b):
                da = a.lead_descriptor()
                db = b.lead_descriptor()
                assert da is not None and db is not None
                assert da.position.key < db.position.key

    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_against_brute_search(self, construction, n):
        for i in range(120):
            rng = case_rng(9100 + n, i)
            a = random_element(rng, construction)
            b = random_element(rng, construction)
            deep = unit(
                construction,
                g1_square(6, 0),
                {0: 1} if construction is LAMBDA else 1,
            )
            pool = [deep]
            got = cong_free_below(n, a, b)
            found = brute_refute(n, a, b, pool)
            if found is not None:
                assert got is False, f"witness {found} refutes claimed truth"
            if got is False:
                w = cong_witness_below(n, a, b)
                assert w is not None
                neg_a, neg_b = (reference.scale(reference.model(e), -1) for e in (a, b))
                assert _refutes(construction, n, neg_a, neg_b, reference.model(w))
            else:
                assert cong_witness_below(n, a, b) is None

    @pytest.mark.parametrize(
        "n, a, b, want",
        [
            (2, {0: 1}, {0: 1}, {0: 1, 1: -2}),
            (2, {0: 1, 1: 1}, {0: 1, 1: -3}, {0: 1, 1: -5}),  # needs m = 3
            (3, {0: 2, 1: 5}, {0: 2, 1: 4}, {0: 2, 1: -1}),  # the max(1, .) clamp
        ],
        ids=["equal", "m3", "clamp"],
    )
    def test_lambda_tie_pushes_the_next_slot_below(self, n, a, b, want):
        # residue of a ties b's lead value at a shared slot, so the
        # certificate must undercut b at the next inner slot
        a, b = element(LAMBDA, {S00: a}), element(LAMBDA, {S00: b})
        w = cong_witness_below(n, a, b)
        assert w is not None
        assert w.sign() > 0 and w < b and (w - a).is_divisible(n)
        assert w == element(LAMBDA, {S00: want})

    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA])
    def test_witness_computes_the_lead_once(self, construction, monkeypatch):
        calls = []
        lead_mod = GroupElement.lead_mod

        def spy(self, n):
            calls.append(n)
            return lead_mod(self, n)

        monkeypatch.setattr(GroupElement, "lead_mod", spy)
        outcomes = set()
        for i in range(120):
            rng = case_rng(9300, i)
            a = random_element(rng, construction)
            b = random_element(rng, construction)
            calls.clear()
            w = cong_witness_below(2, a, b)
            assert calls == ([2] if b.sign() > 0 else [])
            outcomes.add((b.sign() > 0, w is None))
        assert outcomes == {(False, True), (True, True), (True, False)}


class TestIndexWindow:
    def test_rejects_mixed_constructions(self):
        window = index_window(zero(LAMBDA), zero(LAMBDA))
        with pytest.raises(ConstructionMismatch):
            window(zero(GAMMA))


# -- the closed form against its descriptor-ordered reference ---------------


MODULI = (2, 3, 4, 6)

# positions in address order, with squares that hold polynomials on lambda
_TIE_POSITIONS = (
    g2_circle(1), g2_square(1), g2_circle(0), g2_square(0),
    S00, g1_square(0, 1), g1_circle(0), g1_square(1, 0),
)


def _tie_values(construction, pos):
    """Raw values at ``pos`` whose leads fall at several slots, residues
    and signs, so that equal leads meet every branch of the tie."""
    if construction is LAMBDA and pos.is_square:
        return ({0: 1}, {0: -2}, {0: 2}, {0: 6, 1: 1}, {0: 4, 1: -3}, {1: 2}, {1: 5, 2: -1},
                {0: 12, 2: 1}, {2: 3})
    return (1, -1, 2, 3, Fraction(4, 5), Fraction(-9, 7), 6, 12)


def _tie_elements(construction):
    """One-entry elements, and elements whose first entry is n-divisible
    for some n, so that lead_mod reads past it."""
    out = []
    for pos in _TIE_POSITIONS:
        for raw in _tie_values(construction, pos):
            out.append(element(construction, {pos: raw}))
    deep = element(construction, {g2_square(2): {0: 12} if construction is LAMBDA else 12})
    return out + [deep + e for e in out[::3]]


class TestClosedFormMatchesDescriptorOrder:
    """The closed form on raw lead addresses equals the reference that
    orders ``LeadDescriptor`` tuples, which shares none of its code."""

    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA])
    def test_constructed_leads_and_ties(self, construction):
        elems = _tie_elements(construction)
        kinds = Counter()
        for a in elems:
            for n in MODULI:
                d = a.lead_mod(n)
                for b in elems:
                    want = reference.cong_free_below(n, a, b)
                    assert cong_free_below(n, a, b) is want, (n, str(a), str(b))
                    assert cong_free_below_given(n, a, d, b) is want
                    if d is None or b.sign() <= 0:
                        continue
                    beta = b.lead_descriptor()
                    if d.position is not beta.position:
                        kinds["other position"] += 1
                    elif d.inner_slot != beta.inner_slot:
                        kinds["same position, other slot"] += 1
                    elif isinstance(b.lead_value(), Fraction):
                        kinds["same rational component"] += 1
                    elif b.lead_value() == a.coeff_at(d) % n:
                        kinds["same slot, equal residue"] += 1
                    else:
                        kinds["same slot, unequal residue"] += 1
        # every kind of comparison the construction has is met, and met often
        if construction is LAMBDA:
            expected = {"other position", "same position, other slot",
                        "same slot, equal residue", "same slot, unequal residue"}
        else:
            expected = {"other position", "same rational component"}
        assert set(kinds) == expected and min(kinds.values()) >= 10, kinds

    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA])
    def test_constructed_tail_sets(self, construction):
        elems = _tie_elements(construction)
        for a in elems:
            cut = tail_set(a)
            for b in elems + [zero(construction)]:
                assert in_tail(cut, b) is reference.in_tail(cut, b)

    @settings(max_examples=200, deadline=None)
    @given(seeded_elements(LAMBDA), seeded_elements(LAMBDA))
    def test_seeded_lambda(self, a, b):
        self._check_seeded(a, b)

    @settings(max_examples=200, deadline=None)
    @given(seeded_elements(GAMMA), seeded_elements(GAMMA))
    def test_seeded_gamma(self, a, b):
        self._check_seeded(a, b)

    @staticmethod
    def _check_seeded(a, b):
        for y in (b, b.abs(), -b.abs()):
            for n in MODULI:
                assert cong_free_below(n, a, y) is reference.cong_free_below(n, a, y)
            cut = tail_set(a)
            assert in_tail(cut, y) is reference.in_tail(cut, y)

    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA])
    def test_constructed_windows(self, construction):
        elems = _tie_elements(construction)
        bounds = elems[::5] + [zero(construction)]
        held = Counter()
        for c in elems[::5]:
            for b in bounds:
                window = index_window(c, b)
                for x in elems + [zero(construction)]:
                    want = reference.window(c, x, b)
                    assert window(x) is want, (str(c), str(x), str(b))
                    held[want, b.sign() > 0] += 1
        # the window holds and fails both for b > 0 and, vacuously on its
        # second half, for b <= 0
        assert len(held) == 4 and min(held.values()) >= 10, held

    @settings(max_examples=200, deadline=None)
    @given(seeded_elements(LAMBDA), seeded_elements(LAMBDA), seeded_elements(LAMBDA))
    def test_seeded_windows_lambda(self, c, x, b):
        for y in (b, b.abs()):
            assert index_window(c, y)(x) is reference.window(c, x, y)
            assert index_window(c, y)(x.abs()) is reference.window(c, x.abs(), y)

    @settings(max_examples=200, deadline=None)
    @given(seeded_elements(GAMMA), seeded_elements(GAMMA), seeded_elements(GAMMA))
    def test_seeded_windows_gamma(self, c, x, b):
        for y in (b, b.abs()):
            assert index_window(c, y)(x) is reference.window(c, x, y)
            assert index_window(c, y)(x.abs()) is reference.window(c, x.abs(), y)

    def test_a_given_lead_that_a_does_not_hold(self):
        # read as coeff_at reads it: a position without a polynomial is
        # rejected (the model, which imports no ComponentError, raises the
        # ValueError it derives from), an absent slot of a polynomial holds 0
        a = element(LAMBDA, {S00: {0: 1}})
        d = LeadDescriptor(g1_square(0, 1), 0)
        for call, error in ((reference.cong_free_below_given, ValueError), (cong_free_below_given, ComponentError)):
            with pytest.raises(error):
                call(2, a, d, element(LAMBDA, {g1_square(0, 1): {0: 1}}))
        d = LeadDescriptor(S00, 3)
        for lead in (1, 2, 5):
            b = element(LAMBDA, {S00: {3: lead}})
            assert cong_free_below_given(2, a, d, b) is reference.cong_free_below_given(2, a, d, b)

    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA])
    def test_no_generated_code_runs(self, construction):
        # the lambda-repair window and elements on each side of its bounds
        elems = _tie_elements(construction)
        c, b = unit(construction, g2_square(1)), unit(construction, g2_square(0))
        window = index_window(c, b)
        cut = tail_set(c)
        entered = generated_calls(lambda: [
            (window(x), cong_free_below(2, x, b), cong_free_below(3, c, x), in_tail(cut, x))
            for x in elems
        ])
        assert entered == []

    def test_mixed_constructions_still_raise(self):
        a, b = element(LAMBDA, {S00: {0: 1}}), element(GAMMA, {S00: 1})
        for call in (
            lambda: cong_free_below(2, a, b),
            lambda: cong_free_below_given(2, a, a.lead_mod(2), b),
            lambda: index_window(a, b),
            lambda: a + b,
            lambda: a.cmp(b),
            lambda: a < b,
        ):
            with pytest.raises(ConstructionMismatch):
                call()


def _hits(gens, bound, predicate):
    """The sums of every coefficient vector over gens with entries in
    [-bound, bound] that satisfy the predicate, each sum once."""
    cfg = FragmentConfig(bound, tuple(gens), (2 * bound + 1) ** len(gens))
    return [x for x in reference.fragment(GAMMA, [], cfg) if predicate(x)]


def _nonzero_at_some(x, positions):
    return any(x.value_at(p) is not None for p in positions)


# the gamma-counterexample parameters, and the six generators of the
# F1-image subgroup its old scan covered
DEMO_C = unit(GAMMA, g2_square(1))
DEMO_B = unit(GAMMA, g2_square(0))
DEMO_IMAGE_GENS = (
    DEMO_C,
    DEMO_B,
    unit(GAMMA, g2_circle(1)),
    unit(GAMMA, g2_square(2)),
    unit(GAMMA, g1_square(0, 0)),
    unit(GAMMA, g1_circle(0)),
)


class TestWindowPositions:
    """The gamma window certificate against witness search, both ways."""

    def test_demo_window_is_the_critical_circle(self):
        assert window_positions(DEMO_C, DEMO_B) == (CRITICAL_CIRCLE,)
        assert not in_image(Embedding.F1, unit(GAMMA, CRITICAL_CIRCLE))

    def test_bound_two_image_scan_agrees(self):
        assert all(in_image(Embedding.F1, g) for g in DEMO_IMAGE_GENS)
        rel = index_window(DEMO_C, DEMO_B)
        assert _hits(DEMO_IMAGE_GENS, 2, rel) == []

    def test_critical_circle_generator_gives_witnesses(self):
        # negative control: with the critical circle in the subgroup the
        # certificate no longer refutes, and the scan finds witnesses
        gens = DEMO_IMAGE_GENS + (unit(GAMMA, CRITICAL_CIRCLE),)
        open_positions = window_positions(DEMO_C, DEMO_B)
        hits = _hits(gens, 1, index_window(DEMO_C, DEMO_B))
        assert hits
        assert all(_nonzero_at_some(x, open_positions) for x in hits)

    def test_exact_on_seeded_pairs(self):
        pool = tuple(unit(GAMMA, f(m)) for m in (2, 1, 0) for f in (g2_circle, g2_square))
        cfg = FragmentConfig(coeff_bound=1, generator_pool=pool, size_cap=200)
        listed = hits = 0
        for i in range(500):
            rng = case_rng(5, i)
            c, b = random_element(rng, GAMMA), random_element(rng, GAMMA)
            open_positions = window_positions(c, b)
            if open_positions is None:
                continue
            rel = index_window(c, b)
            # tight: a unit at any listed position is a witness
            for p in open_positions:
                assert rel(unit(GAMMA, p)), (c, b, p)
            listed += len(open_positions)
            # sound: every witness is nonzero at a listed position
            for x in reference.fragment(GAMMA, [c, b], cfg):
                if rel(x):
                    hits += 1
                    assert _nonzero_at_some(x, open_positions), (c, b, x)
        assert listed and hits

    def test_nonpositive_bound_is_not_finite(self):
        assert window_positions(DEMO_C, -DEMO_B) is None
        assert window_positions(DEMO_C, zero(GAMMA)) is None

    def test_zero_c_has_no_witness(self):
        assert window_positions(zero(GAMMA), DEMO_B) == ()
        gens = DEMO_IMAGE_GENS + (unit(GAMMA, CRITICAL_CIRCLE),)
        assert not _hits(gens, 1, index_window(zero(GAMMA), DEMO_B))

    def test_bound_leading_in_g1_is_not_finite(self):
        assert window_positions(DEMO_C, unit(GAMMA, g1_square(0, 0))) is None

    def test_rejects_lambda(self):
        c = element(LAMBDA, {g2_square(1): {0: 1}})
        with pytest.raises(ConstructionMismatch):
            window_positions(c, element(LAMBDA, {g2_square(0): {0: 1}}))
        with pytest.raises(ConstructionMismatch):
            window_positions(DEMO_C, c)


class TestTailSets:
    def test_circle_lead_cut(self):
        a = element(LAMBDA, {g2_circle(0): Fraction(5)})
        assert tail_set(a) == LeadDescriptor(g2_square(0), 0)

    def test_square_lead_cut(self):
        a = element(LAMBDA, {S00: {0: 1, 1: 2}})
        assert tail_set(a) == LeadDescriptor(S00, 0)

    def test_zero_empty(self):
        assert tail_set(zero(LAMBDA)) is None
        assert not in_tail(None, zero(LAMBDA))

    def test_membership_boundaries(self):
        a = element(LAMBDA, {S00: {0: 1}})
        cut = tail_set(a)
        assert in_tail(cut, zero(LAMBDA))
        assert not in_tail(cut, a)  # at the cut, not after it
        assert in_tail(cut, element(LAMBDA, {S00: {1: 1}}))
        assert in_tail(cut, -element(LAMBDA, {S00: {3: 1}}))
        assert not in_tail(cut, element(LAMBDA, {g2_square(0): {0: 1}}))

    def test_sign_blind(self):
        a = element(LAMBDA, {g1_circle(1): Fraction(2, 7), g1_square(2, 0): {0: 5}})
        assert tail_set(a) == tail_set(-a)

    def test_depends_only_on_lead_component(self):
        a = element(LAMBDA, {S00: {0: 3, 2: -1}})
        b = a + element(LAMBDA, {g1_circle(0): Fraction(9, 2), g1_square(1, 1): {4: -6}})
        assert tail_set(a) == tail_set(b)

    def test_gamma_circle_lead(self):
        a = element(GAMMA, {g2_circle(1): Fraction(1)})
        cut = tail_set(a)
        assert cut == LeadDescriptor(g2_circle(1), 0)
        assert in_tail(cut, element(GAMMA, {g2_square(1): 1}))
        assert not in_tail(cut, element(GAMMA, {g2_circle(1): Fraction(1, 3)}))

    def test_gamma_square_lead_defers_to_next_circle(self):
        a = element(GAMMA, {g1_square(0, 2): Fraction(1)})
        cut = tail_set(a)
        assert cut == LeadDescriptor(g1_circle(0), 0)
        # a deeper square of the same block is swept by no anchor
        assert not in_tail(cut, element(GAMMA, {g1_square(0, 5): 1}))
        assert in_tail(cut, element(GAMMA, {g1_square(1, 0): 1}))

    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA])
    def test_no_generated_code_runs(self, construction):
        # a cut is a LeadDescriptor built by tuple.__new__, or None
        elems = _tie_elements(construction) + [zero(construction)]
        decide = g1_part_by_formula if construction is LAMBDA else lambda a: None
        entered = generated_calls(lambda: [
            (decide(a), [in_tail(tail_set(a), b) for b in elems[::3]]) for a in elems
        ])
        assert entered == []

    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA])
    def test_union_characterization(self, construction):
        """The cut realizes exactly the reach of anchors below |a|."""
        for i in range(150):
            rng = case_rng(7300, i)
            a = random_element(rng, construction)
            anchor = inner_anchor_below(a)
            cut = tail_set(a)
            if a.is_zero():
                assert anchor is None and cut is None
                continue
            m = a.abs()
            assert anchor is not None
            assert anchor.sign() > 0 and anchor < m
            assert anchor.lead_mod(2) == cut
            probe = random_element(rng, construction)
            want = in_tail(cut, probe)
            # found anchor certifies membership of |probe|
            if not probe.is_zero():
                got = cong_free_below(2, anchor, probe.abs())
                assert got == want


class TestG1Part:
    def test_examples(self):
        assert g1_part_by_formula(element(LAMBDA, {g1_circle(3): Fraction(7, 2)}))
        assert not g1_part_by_formula(element(LAMBDA, {g2_square(0): {0: 1}}))
        assert g1_part_by_formula(zero(LAMBDA))

    def test_gamma_element_rejected(self):
        with pytest.raises(ConstructionMismatch):
            g1_part_by_formula(element(GAMMA, {S00: 1}))

    def test_matches_support_check_random(self):
        for i in range(400):
            rng = case_rng(51, i)
            a = random_element(rng, LAMBDA)
            assert g1_part_by_formula(a) == in_g1_part(a)

    @pytest.mark.parametrize(
        "comps,expected",
        [
            ({S00: {0: 1}}, True),
            ({S00: {0: -1}}, True),
            ({S00: {3: 2}}, True),
            ({g1_circle(0): Fraction(1, 2)}, True),
            ({g1_square(4, 2): {1: -5}}, True),
            ({g2_square(0): {0: 1}}, False),
            ({g2_square(0): {4: -1}}, False),
            ({g2_circle(0): Fraction(1)}, False),
            ({g2_circle(2): Fraction(-1, 3)}, False),
            ({g2_square(1): {0: 1}, S00: {0: 1}}, False),
        ],
    )
    def test_boundary(self, comps, expected):
        a = element(LAMBDA, comps)
        assert g1_part_by_formula(a) is expected
        assert in_g1_part(a) is expected
