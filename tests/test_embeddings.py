from fractions import Fraction

import pytest

from oagw.elements import GAMMA, LAMBDA, GroupElement, element, unit, zero
from oagw.embeddings import (
    Embedding,
    _f1_pos,
    _f1_pos_inv,
    _f2_pos,
    _f2_pos_inv,
    apply,
    in_image,
    perturb_into_image,
    preimage,
)
from oagw.positions import (
    CRITICAL_CIRCLE,
    g1_circle,
    g1_square,
    g2_circle,
    g2_square,
)
from oagw.sampling import case_rng, random_element, random_positive

S00 = g1_square(0, 0)
F1, F2 = Embedding.F1, Embedding.F2

# G2 pairs 0-6 and G1 blocks 0-6 with square slots 0-6, in the group order
POSITIONS = sorted(
    [p for m in range(7) for p in (g2_circle(m), g2_square(m))]
    + [g1_square(b, s) for b in range(7) for s in range(7)]
    + [g1_circle(b) for b in range(7)],
    key=lambda p: p.key,
)


class TestApply:
    def test_f1_head_square_to_last_g2_square(self):
        a = element(LAMBDA, {S00: {0: 2, 3: -1}})
        assert apply(F1, a) == element(LAMBDA, {g2_square(0): {0: 2, 3: -1}})

    def test_f1_shifts_g2(self):
        a = element(LAMBDA, {g2_circle(0): Fraction(1, 3)})
        assert apply(F1, a) == element(LAMBDA, {g2_circle(1): Fraction(1, 3)})

    def test_f1_fixes_tail(self):
        a = element(LAMBDA, {g1_circle(2): Fraction(5)})
        assert apply(F1, a) == a

    def test_f1_shifts_head_block_squares_down(self):
        a = element(LAMBDA, {g1_square(0, 4): {0: 1}})
        assert apply(F1, a) == element(LAMBDA, {g1_square(0, 3): {0: 1}})

    def test_f2_positions(self):
        assert apply(F2, element(LAMBDA, {g2_square(1): {0: 1}})) == element(
            LAMBDA, {g2_square(0): {0: 1}}
        )
        assert apply(F2, element(LAMBDA, {g2_circle(0): Fraction(1)})) == element(
            LAMBDA, {g1_circle(0): Fraction(1)}
        )
        assert apply(F2, element(LAMBDA, {g2_square(0): {0: 1}})) == element(
            LAMBDA, {g1_square(1, 0): {0: 1}}
        )
        assert apply(F2, element(LAMBDA, {S00: {0: 1}})) == element(
            LAMBDA, {g1_square(1, 1): {0: 1}}
        )
        assert apply(F2, element(LAMBDA, {g1_circle(0): Fraction(1)})) == element(
            LAMBDA, {g1_circle(1): Fraction(1)}
        )
        assert apply(F2, element(LAMBDA, {g1_square(2, 1): {0: 1}})) == element(
            LAMBDA, {g1_square(3, 1): {0: 1}}
        )

    def test_f2_on_gamma_round_trips(self):
        a = element(GAMMA, {g2_square(0): 1})
        fa = apply(F2, a)
        assert fa == element(GAMMA, {g1_square(1, 0): 1})
        assert in_image(F2, fa)
        assert preimage(F2, fa) == a
        assert not in_image(F2, element(GAMMA, {S00: 1}))
        assert preimage(F2, element(GAMMA, {S00: 1})) is None

    @pytest.mark.parametrize("emb", [F1, F2])
    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA])
    def test_homomorphism_and_order(self, emb, construction):
        for i in range(300):
            rng = case_rng(17, i)
            a = random_element(rng, construction)
            b = random_element(rng, construction)
            fa = apply(emb, a)
            fb = apply(emb, b)
            assert apply(emb, a + b) == fa + fb
            assert (a < b) == (fa < fb)
            assert preimage(emb, fa) == a


class TestOrderEmbedding:
    """``apply`` and ``preimage`` keep the entry order of their argument;
    these tests show that the entries they return are sorted anyway."""

    @pytest.mark.parametrize("pos_map", [_f1_pos, _f1_pos_inv, _f2_pos, _f2_pos_inv])
    def test_position_maps_strictly_increasing(self, pos_map):
        keys = [q.key for q in map(pos_map, POSITIONS) if q is not None]
        assert all(x < y for x, y in zip(keys, keys[1:]))
        # the inverses are undefined exactly off the image
        assert len(keys) == len(POSITIONS) - {
            _f1_pos_inv: 1,  # the critical circle
            _f2_pos_inv: 7,  # the squares of block 0
        }.get(pos_map, 0)

    @pytest.mark.parametrize("emb", [F1, F2])
    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA], ids=str)
    def test_results_pass_the_validating_constructor(self, emb, construction):
        def validated(a):
            return GroupElement(a.construction, a.entries) == a

        for i in range(300):
            rng = case_rng(29, i)
            wide = element(construction, {p: 1 for p in rng.sample(POSITIONS, rng.randrange(1, 9))})
            for a in (random_element(rng, construction), wide):
                fa = apply(emb, a)
                assert validated(fa) and validated(preimage(emb, fa))
                back = preimage(emb, a)
                assert back is None or validated(back)


class TestImage:
    def test_f1_image_is_zero_critical_circle(self):
        inside = element(LAMBDA, {g2_square(0): {0: 1}, g1_circle(0): Fraction(1)})
        outside = inside + unit(LAMBDA, CRITICAL_CIRCLE, Fraction(2))
        assert in_image(F1, inside)
        assert not in_image(F1, outside)
        assert preimage(F1, outside) is None

    def test_f1_preimage_examples(self):
        assert preimage(F1, unit(LAMBDA, CRITICAL_CIRCLE, Fraction(1))) is None
        assert preimage(F1, element(LAMBDA, {g2_square(0): {0: 3}})) == element(
            LAMBDA, {S00: {0: 3}}
        )

    def test_f2_image_omits_block0_squares(self):
        assert preimage(F2, element(LAMBDA, {g1_square(0, 5): {0: 1}})) is None
        assert not in_image(F2, element(LAMBDA, {g1_square(0, 5): {0: 1}}))
        assert in_image(F2, element(LAMBDA, {g1_circle(0): Fraction(1)}))

    @pytest.mark.parametrize("emb", [F1, F2])
    def test_image_characterization_random(self, emb):
        for i in range(300):
            rng = case_rng(23, i)
            c = random_element(rng, LAMBDA)
            if emb is F1:
                expected = c.value_at(CRITICAL_CIRCLE) is None
            else:
                expected = not any(
                    pos.area == "G1" and pos.index == 0 and pos.is_square
                    for pos, _ in c.entries
                )
            assert in_image(emb, c) == expected
            assert (preimage(emb, c) is not None) == expected


class TestPerturb:
    def test_documented_case(self):
        t = element(LAMBDA, {g2_square(0): {0: 1}})
        eps = element(LAMBDA, {g1_square(5, 0): {0: 1}})
        t2 = perturb_into_image(t, eps, [(2, t)])
        assert t2 == t + element(LAMBDA, {g1_square(6, 0): {0: 1}})
        d = t2 - t
        assert d.sign() > 0 and d < eps
        assert not (t2 - t).is_divisible(2)

    def test_zero_start(self):
        eps = element(LAMBDA, {g2_circle(1): Fraction(1)})
        t2 = perturb_into_image(zero(LAMBDA), eps, [])
        assert in_image(Embedding.F1, t2)
        assert t2.abs() < eps

    def test_requires_image(self):
        with pytest.raises(ValueError):
            perturb_into_image(unit(LAMBDA, CRITICAL_CIRCLE, Fraction(1)), unit(LAMBDA, S00, {0: 1}), [])

    def test_requires_positive_eps(self):
        with pytest.raises(ValueError):
            perturb_into_image(zero(LAMBDA), zero(LAMBDA), [])

    def test_many_constraints(self):
        for i in range(100):
            rng = case_rng(31, i)
            t = apply(F1, random_element(rng, LAMBDA))
            eps = random_positive(rng, LAMBDA)
            constraints = [
                (rng.choice([2, 3, 5]), random_element(rng, LAMBDA)) for _ in range(3)
            ]
            t2 = perturb_into_image(t, eps, constraints)
            assert in_image(F1, t2)
            assert (t2 - t).abs() < eps
            for n, r in constraints:
                assert not (t2 - r).is_divisible(n)



@pytest.mark.parametrize("member", list(Embedding))
def test_embedding_text(member):
    assert str(member) == f"{member}" == {F1: "f1", F2: "f2"}[member]
