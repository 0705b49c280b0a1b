"""The gain rule of tools/ab_pairs.py on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

# loaded by path: tools/ is not a package
_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)

PARENT = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]


def test_quartiles_interpolate_between_sorted_values():
    assert ab_pairs.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == (2.0, 3.0, 4.0)
    assert ab_pairs.quartiles(PARENT) == (102.25, 104.5, 106.75)
    assert ab_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_a_clear_gain_in_either_direction():
    up = ab_pairs.summarize(PARENT, [p + 10 for p in PARENT], "higher")
    assert (up.wins, up.pairs, up.gain) == (10, 10, True)
    assert up.parent == (102.25, 104.5, 106.75) and up.change[1] == 114.5
    down = ab_pairs.summarize(PARENT, [p - 10 for p in PARENT], "lower")
    assert (down.wins, down.gain) == (10, True)
    # the same numbers read the other way are a loss in every pair
    assert ab_pairs.summarize(PARENT, [p + 10 for p in PARENT], "lower").wins == 0


def test_nine_of_ten_wins_are_needed():
    nine = [p + 10 for p in PARENT[:9]] + [PARENT[9] - 1]
    assert ab_pairs.summarize(PARENT, nine, "higher").gain is True
    eight = [p + 10 for p in PARENT[:8]] + [p - 1 for p in PARENT[8:]]
    s = ab_pairs.summarize(PARENT, eight, "higher")
    assert s.wins == 8 and s.gain is False


def test_the_median_gap_must_pass_the_parent_iqr():
    # every pair won, but by 1 against a parent IQR of 4.5
    s = ab_pairs.summarize(PARENT, [p + 1 for p in PARENT], "higher")
    assert s.wins == 10 and s.gain is False
    # a gap of exactly the IQR is not more than it
    s = ab_pairs.summarize(PARENT, [p + 4.5 for p in PARENT], "higher")
    assert s.gain is False


def test_ties_count_for_neither_side():
    s = ab_pairs.summarize(PARENT, list(PARENT), "higher")
    assert s.wins == 0 and s.gain is False


def test_bad_input_is_rejected():
    with pytest.raises(ValueError):
        ab_pairs.summarize(PARENT, PARENT[:9], "higher")
    with pytest.raises(ValueError):
        ab_pairs.summarize([], [], "higher")
    with pytest.raises(ValueError):
        ab_pairs.summarize(PARENT, PARENT, "faster")
