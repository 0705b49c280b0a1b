"""The counting mechanism of tools/opcount.py on tiny functions."""

import dis
import fractions
import gc
import importlib.util
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

# loaded by path: tools/ is not a package
_PATH = Path(__file__).resolve().parent.parent / "tools" / "opcount.py"
_SPEC = importlib.util.spec_from_file_location("opcount", _PATH)
opcount = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(opcount)


def _straight(a, b):
    c = a + b
    return c * 2


def _calls_fractions():
    return Fraction(1, 2) + Fraction(1, 3)


def _twice(fn, *args):
    # Python 3.12 and later count a function's instructions from its
    # second traced call on
    opcount.count_opcodes(fn, *args)
    return opcount.count_opcodes(fn, *args)


def test_a_straight_line_function_counts_each_instruction_once():
    # every instruction but the opening RESUME, which the call event covers
    known = sum(1 for i in dis.get_instructions(_straight) if i.opname != "RESUME")
    result, counts, frames = _twice(_straight, 3, 4)
    assert result == 14
    assert counts == {__file__: known}
    assert frames == {__file__: 1}


def test_a_loop_counts_its_body_once_per_pass():
    def loop(n):
        t = 0
        for i in range(n):
            t += i
        return t

    totals = [_twice(loop, n)[1][__file__] for n in (3, 4, 5, 13)]
    body = totals[1] - totals[0]
    assert body > 0 and totals[2] - totals[1] == body and totals[3] - totals[0] == 10 * body


def test_instructions_are_split_by_the_file_of_their_code():
    result, counts, frames = _twice(_calls_fractions)
    assert result == Fraction(5, 6)
    assert set(counts) == set(frames) == {__file__, fractions.__file__}
    assert counts[__file__] < counts[fractions.__file__]
    assert frames[__file__] == 1 and frames[fractions.__file__] > 2


def test_frames_count_every_call_and_each_resumption():
    def helper(x):
        return x + 1

    def calls(n):
        gen = (helper(i) for i in range(n))  # opened once per item, and once to end
        return sum(gen) + helper(0) + helper(0)

    for n in (0, 3, 7):
        result, counts, frames = _twice(calls, n)
        assert result == n * (n + 1) // 2 + 2
        # calls itself, n + 2 helper calls, n + 1 resumptions of the generator
        assert frames == {__file__: 1 + (n + 2) + (n + 1)}
        assert set(counts) == {__file__}


def test_a_gc_callback_is_not_counted_and_stays_installed():
    seen = []

    def callback(phase, info):
        seen.append(phase)

    def collect():
        gc.collect()
        return 1

    gc.callbacks.append(callback)
    try:
        result, counts, frames = _twice(collect)
        assert gc.callbacks[-1] is callback
    finally:
        gc.callbacks.remove(callback)
    assert result == 1 and seen == []
    assert frames == {__file__: 1}


def test_tracing_stops_when_the_call_raises():
    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        opcount.count_opcodes(boom)
    assert sys.gettrace() is None


def test_labels_name_checkout_files_by_their_path_and_others_by_name(tmp_path):
    label = opcount._label
    assert label(str(tmp_path / "src" / "oagw" / "hahn.py"), tmp_path) == "src/oagw/hahn.py"
    assert label(str(tmp_path / "perfbench" / "workloads.py"), tmp_path) == "perfbench/workloads.py"
    assert label(fractions.__file__, tmp_path) == "fractions.py"
    assert label("<string>", tmp_path) == "<string>"


def test_the_table_shows_both_sides_and_each_change():
    side = {"workload": "series", "seed": 0, "requests": 2, "python": "3.11.7",
            "problems": [], "setup": 10}
    a = dict(side, total=1000, files={"src/oagw/hahn.py": 600, "fractions.py": 396, "x.py": 4},
             frames=90, frame_files={"src/oagw/hahn.py": 40, "fractions.py": 48, "x.py": 2})
    b = dict(side, total=800, files={"src/oagw/hahn.py": 700, "fractions.py": 100},
             frames=50, frame_files={"src/oagw/hahn.py": 40, "fractions.py": 10},
             problems=["k/1: digest 0f, reference 1e"])
    lines = opcount.report([a, b]).splitlines()
    assert lines[0] == "series: seed 0, 2 requests, Python 3.11.7"
    assert lines[1].split() == ["opcodes", "share", "frames"] * 2 + ["delta", "change", "frames", "change"]
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:-2]}
    assert rows["setup"] == ["10", "10", "+0", "+0.0%"]
    assert rows["pass"] == ["1,000", "90", "800", "50", "-200", "-20.0%", "-40", "-44.4%"]
    assert rows["src/oagw/hahn.py"] == [
        "600", "60.0%", "40", "700", "87.5%", "40", "+100", "+16.7%", "+0", "+0.0%"
    ]
    assert rows["fractions.py"] == [
        "396", "39.6%", "48", "100", "12.5%", "10", "-296", "-74.7%", "-38", "-79.2%"
    ]
    # under half a per cent on both sides: summed into the rest, frames too
    assert rows["(other)"] == ["4", "0.4%", "2", "0", "0.0%", "0", "-4", "-100.0%", "-2", "-100.0%"]
    assert lines[-2:] == ["problems: 0, 1", "  k/1: digest 0f, reference 1e"]


def test_entries_count_each_frame_under_its_caller():
    opcount.count_opcodes(_calls_fractions)
    entries = Counter()
    opcount.count_opcodes(_calls_fractions, entries=entries)
    assert entries[__file__, "_calls_fractions", opcount.__file__, "count_opcodes"] == 1
    # Fraction(1, 2) and Fraction(1, 3); the sum's own Fraction has another caller
    assert entries[fractions.__file__, "__new__", __file__, "_calls_fractions"] == 2
    assert sum(n for key, n in entries.items() if key[0] == fractions.__file__) > 2


def test_by_caller_keeps_the_frames_of_one_file(tmp_path):
    hahn = str(tmp_path / "src" / "oagw" / "hahn.py")
    entries = Counter({
        (fractions.__file__, "__new__", hahn, "mul"): 3,
        (fractions.__file__, "__new__", fractions.__file__, "_add"): 2,
        (hahn, "mul", hahn, "square"): 5,
    })
    assert opcount.by_caller(entries, "fractions.py", tmp_path) == {
        "__new__ <- fractions.py:_add": 2,
        "__new__ <- src/oagw/hahn.py:mul": 3,
    }
    assert opcount.by_caller(entries, "src/oagw/hahn.py", tmp_path) == {
        "mul <- src/oagw/hahn.py:square": 5
    }


def test_the_table_lists_callers_most_entered_first():
    side = {"workload": "eval", "seed": 0, "requests": 1, "python": "3.11.7", "problems": [],
            "setup": 1, "total": 10, "files": {"<string>": 10}, "frames": 4,
            "frame_files": {"<string>": 4}, "callers_of": "<string>"}
    a = dict(side, callers={"__init__ <- x.py:f": 1, "__init__ <- x.py:g": 3})
    b = dict(side, callers={"__init__ <- x.py:f": 1})
    lines = opcount.report([a, b]).splitlines()
    at = lines.index("frames of <string> by function <- caller")
    assert [line.split() for line in lines[at + 1 : at + 3]] == [
        ["3", "0", "-3", "-100.0%", "__init__", "<-", "x.py:g"],
        ["1", "1", "+0", "+0.0%", "__init__", "<-", "x.py:f"],
    ]
    assert lines[at + 3] == "problems: 0, 0"


def test_the_table_says_when_the_file_entered_no_frame():
    # a mistyped label, one letter short of src/oagw/elements.py
    side = {"workload": "series", "seed": 0, "requests": 1, "python": "3.11.7", "problems": [],
            "setup": 1, "total": 10, "files": {"src/oagw/elements.py": 10}, "frames": 4,
            "frame_files": {"src/oagw/elements.py": 4}, "callers_of": "src/oagw/element.py",
            "callers": {}}
    for sides in ([side], [side, side]):
        lines = opcount.report(sides).splitlines()
        at = lines.index("frames of src/oagw/element.py by function <- caller")
        assert lines[at + 1 : at + 3] == [
            "(no frame of src/oagw/element.py entered)",
            "problems: " + ", ".join("0" for _ in sides),
        ]
