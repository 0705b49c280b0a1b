import copy
import itertools
import pickle

import pytest

from oagw.positions import (
    CRITICAL_CIRCLE,
    G1,
    Position,
    g1_circle,
    g1_square,
    g2_circle,
    g2_square,
)


def sample_positions():
    out = []
    for m in range(3):
        out.extend([g2_circle(m), g2_square(m)])
    for b in range(3):
        out.extend([g1_square(b, p) for p in range(3)])
        out.append(g1_circle(b))
    return out


def test_g2_precedes_g1():
    for m in range(3):
        for b in range(3):
            assert g2_square(m).key < g1_square(b, 0).key
            assert g2_circle(m).key < g1_circle(b).key


def test_g2_pairs_descend_and_circle_first():
    assert g2_circle(2).key < g2_circle(1).key
    assert g2_square(1).key < g2_circle(0).key
    assert g2_circle(0).key < g2_square(0).key


def test_g1_blocks_ascend_squares_before_circle():
    assert g1_square(0, 0).key < g1_square(0, 1).key
    assert g1_square(0, 7).key < g1_circle(0).key
    assert g1_circle(0).key < g1_square(1, 0).key


def test_total_irreflexive_transitive():
    ps = sample_positions()
    for a in ps:
        assert not a.key < a.key
    for a, b in itertools.permutations(ps, 2):
        assert (a.key < b.key) != (b.key < a.key)
    for a, b, c in itertools.permutations(ps, 3):
        if a.key < b.key and b.key < c.key:
            assert a.key < c.key


def test_successor_is_immediate_in_samples():
    ps = sorted(sample_positions(), key=lambda p: p.key)
    for a, b in zip(ps, ps[1:]):
        # successor never skips a sampled position
        s = a.successor()
        assert a.key < s.key
        assert not b.key < s.key or b == s or not a.key < b.key


def test_successor_chain():
    assert g2_circle(1).successor() == g2_square(1)
    assert g2_square(1).successor() == g2_circle(0)
    assert g2_square(0).successor() == g1_square(0, 0)
    assert g1_square(0, 3).successor() == g1_square(0, 4)
    assert g1_circle(0).successor() == g1_square(1, 0)


def test_next_circle():
    assert g2_square(1).next_circle() == g2_circle(0)
    assert g2_square(0).next_circle() == g1_circle(0)
    assert g1_square(2, 5).next_circle() == g1_circle(2)
    assert g2_circle(0).next_circle() == g1_circle(0)
    assert g1_circle(1).next_circle() == g1_circle(2)


def test_validation():
    with pytest.raises(ValueError):
        Position("G3", 0, "c")
    with pytest.raises(ValueError):
        Position("G2", -1, "c")
    with pytest.raises(ValueError):
        Position("G2", 0, "s", slot=2)  # only G1 squares carry slots


@pytest.mark.parametrize(
    "args",
    [("G2", 7.0, "c"), ("G2", True, "s"), ("G1", 0, "s", 1.0), ("G1", 0, "s", True), ("G1", "0", "c")],
)
def test_non_int_index_or_slot_rejected(args):
    with pytest.raises(TypeError):
        Position(*args)


def test_a_float_index_cannot_take_over_the_int_position():
    # 7.0 hashes like 7: interned first, it would print as G2[7.0].c
    # in every later element holding g2_circle(7)
    with pytest.raises(TypeError):
        Position("G2", 7.0, "c")
    with pytest.raises(TypeError):
        Position("G1", 1, "s", True)
    assert str(g2_circle(7)) == "G2[7].c" and g2_circle(7).index.__class__ is int
    assert str(g1_square(1, 1)) == "G1[1].s[1]" and g1_square(1, 1).slot.__class__ is int


def test_critical_circle():
    assert CRITICAL_CIRCLE == g2_circle(0)
    assert CRITICAL_CIRCLE.key < g2_square(0).key


def test_positions_are_interned():
    assert Position(G1, 0, "s", 2) is g1_square(0, 2)
    assert Position("G2", 3, "c") is g2_circle(3)
    assert Position(G1, 4, "c", slot=0) is g1_circle(4)
    assert g2_square(1) is not g2_circle(1)
    assert hash(g1_square(5, 1)) == hash(Position(G1, 5, "s", 1))
    assert g1_square(0, 2).key == g1_square(0, 2).sort_key()


def test_embedding_positions_are_the_factory_objects():
    from oagw.elements import LAMBDA, element
    from oagw.embeddings import Embedding, apply, preimage

    a = element(LAMBDA, {g2_circle(1): 1, g2_square(0): 2, g1_square(0, 1): 3, g1_circle(2): 1})
    factories = {
        ("G2", "c"): lambda p: g2_circle(p.index),
        ("G2", "s"): lambda p: g2_square(p.index),
        ("G1", "s"): lambda p: g1_square(p.index, p.slot),
        ("G1", "c"): lambda p: g1_circle(p.index),
    }
    for emb in Embedding:
        image = apply(emb, a)
        for e in (image, preimage(emb, image)):
            for pos, _ in e.entries:
                assert pos is factories[pos.area, pos.shape](pos)


def test_pickle_and_copy_return_the_interned_object():
    for p in sample_positions():
        assert pickle.loads(pickle.dumps(p)) is p
        assert copy.copy(p) is p
        assert copy.deepcopy(p) is p
        assert copy.deepcopy([p, p])[0] is p


def test_positions_are_immutable():
    p = g2_circle(0)
    with pytest.raises(AttributeError):
        p.index = 1  # type: ignore[misc]
    assert p is CRITICAL_CIRCLE


def test_interned_attributes_match_the_fields():
    positions = [
        factory(i, *rest)
        for i in range(4)
        for factory, rest in (
            (g2_circle, ()),
            (g2_square, ()),
            (g1_circle, ()),
            *((g1_square, (slot,)) for slot in range(4)),
        )
    ]
    for p in positions:
        if p.area == "G2":
            text = f"G2[{p.index}].{p.shape}"
        elif p.shape == "s":
            text = f"G1[{p.index}].s[{p.slot}]"
        else:
            text = f"G1[{p.index}].c"
        for q in (p, pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
            assert q.is_square is (q.shape == "s")
            assert q.is_circle is (q.shape == "c")
            assert str(q) == q.text == text
