"""The divisible hull's algebra: union, product and the view from outside
a quantifier."""

import pytest

import oagw.hull as hull
from oagw.hull import MAX_DISJUNCTS, NONE, TOP


def _dnf(*names):
    """One disjunct per name, each the one strict row ``name < 0``."""
    return tuple(((({name: 1}, True),) for name in names))


def _then_fail(*parts):
    """The parts, then a failure if anything reads past them."""
    yield from parts
    pytest.fail("a part past the one that decides was read")


class TestSome:
    def test_top_absorbs_without_reading_the_later_parts(self):
        assert hull.some(_then_fail(_dnf("x"), TOP)) is TOP

    def test_the_union_keeps_every_disjunct_in_order(self):
        assert hull.some([_dnf("x"), NONE, _dnf("y", "z")]) == _dnf("x", "y", "z")
        assert hull.some([NONE, NONE]) == NONE

    def test_past_the_disjunct_cap_it_is_top(self):
        parts = [_dnf(f"x{i}") for i in range(MAX_DISJUNCTS)]
        assert hull.some(parts) == _dnf(*[f"x{i}" for i in range(MAX_DISJUNCTS)])
        assert hull.some(_then_fail(*parts, _dnf("y"))) is TOP


class TestEvery:
    def test_none_absorbs_without_reading_the_later_parts(self):
        assert hull.every(_then_fail(_dnf("x"), NONE)) == NONE

    def test_top_parts_are_skipped(self):
        assert hull.every([TOP, _dnf("x", "y"), TOP]) == _dnf("x", "y")
        assert hull.every([TOP, TOP]) is TOP

    def test_the_product_joins_one_disjunct_of_each_part(self):
        (x,), (y,), (z,) = _dnf("x", "y", "z")
        assert hull.every([_dnf("x", "y"), _dnf("z")]) == ((x, z), (y, z))

    def test_a_part_past_the_disjunct_cap_is_left_out(self):
        wide = _dnf(*[f"x{i}" for i in range(MAX_DISJUNCTS)])
        # 32 * 2 disjuncts would pass the cap, 32 * 1 do not
        assert hull.every([wide, _dnf("y", "z"), _dnf("w")]) == hull.every([wide, _dnf("w")])
        assert len(hull.every([wide, _dnf("w")])) == MAX_DISJUNCTS


class TestExists:
    def test_top_and_none_pass_without_elimination(self, monkeypatch):
        monkeypatch.setattr(hull, "feasible", lambda rows: pytest.fail("feasible was called"))
        assert hull.exists(TOP, "x") is TOP
        assert hull.exists(NONE, "x") == NONE

    def test_refuted_disjuncts_are_dropped(self):
        # x < 0 & 0 < x has no solution, y < 0 has
        refuted = (({"x": 1}, True), ({"x": -1}, True))
        assert hull.exists((refuted, (({"y": 1}, True),)), "x") == _dnf("y")
        assert hull.exists((refuted,), "x") == NONE

    def test_sibling_variables_are_renamed_apart(self):
        # E x. (E z. z < x) & (E z. x < z): the two z are different variables
        below = hull.exists(((({"z": 1, "x": -1}, True),),), "z")
        above = hull.exists(((({"x": 1, "z": -1}, True),),), "z")
        (((low, _),),), (((high, _),),) = below, above
        assert "z" not in low and "z" not in high and low.keys() != high.keys()
        assert low["x"] == -1 and high["x"] == 1
        assert hull.exists(hull.every([below, above]), "x") != NONE
        # with one z, z < x and x < z refute each other
        assert not hull.feasible((({"z": 1, "x": -1}, True), ({"x": 1, "z": -1}, True)))
