"""The gain rule and the bound verdict of tools/ab_pairs.py on fixed numbers."""

import importlib.util
import json
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


def test_fewer_than_ten_pairs_claim_no_gain():
    # every pair won by far more than the parent's spread, but too few pairs
    four = ab_pairs.summarize(PARENT[:4], [p + 50 for p in PARENT[:4]], "higher")
    assert (four.wins, four.pairs, four.gain) == (4, 4, False)
    nine = ab_pairs.summarize(PARENT[:9], [p + 50 for p in PARENT[:9]], "higher")
    assert (nine.wins, nine.gain) == (9, False)
    ten = ab_pairs.summarize(PARENT, [p + 50 for p in PARENT], "higher")
    assert (ten.wins, ten.gain) == (10, True)


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


def test_better_needs_every_change_run_past_every_parent_run():
    assert ab_pairs.bound_verdict(PARENT, [p + 10 for p in PARENT], "higher", 0.1) == "better"
    assert ab_pairs.bound_verdict(PARENT, [p - 10 for p in PARENT], "lower", 0.1) == "better"
    # better wins over a parent spread wider than the bound
    assert ab_pairs.bound_verdict(PARENT, [p + 10 for p in PARENT], "higher", 0.01) == "better"
    # one change run below the parent's best is not better, however high the median
    mostly = [p + 10 for p in PARENT[:9]] + [108.0]
    assert ab_pairs.bound_verdict(PARENT, mostly, "higher", 0.1) == "within"


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    # the parent's quartiles 102.25 and 106.75 lie 4.3 % of its median apart
    assert ab_pairs.bound_verdict(PARENT, [p - 20 for p in PARENT], "higher", 0.04) == "unresolved"
    assert ab_pairs.bound_verdict(PARENT, [p - 20 for p in PARENT], "higher", 0.05) == "worse"


def test_worse_is_a_median_past_the_bound_in_the_wrong_direction():
    flat = [100.0] * 5
    assert ab_pairs.bound_verdict(flat, [90.0] * 5, "higher", 0.1) == "within"
    assert ab_pairs.bound_verdict(flat, [89.0] * 5, "higher", 0.1) == "worse"
    assert ab_pairs.bound_verdict(flat, [110.0] * 5, "lower", 0.1) == "within"
    assert ab_pairs.bound_verdict(flat, [111.0] * 5, "lower", 0.1) == "worse"
    # a setup time 20 % slower against a bound of 25 %
    assert ab_pairs.bound_verdict([0.2] * 3, [0.24] * 3, "lower", 0.25) == "within"
    assert ab_pairs.bound_verdict([0.2] * 3, [0.26] * 3, "lower", 0.25) == "worse"
    # no movement at all, ties included, is within
    assert ab_pairs.bound_verdict(flat, flat, "higher", 0.1) == "within"


_REPO = Path(__file__).resolve().parent.parent


def _fake_runs(monkeypatch):
    """run_once replaced: the parent's runs read p50 0.2, the change's 0.15."""
    calls = []

    def fake(checkout, workload, seed, seconds):
        calls.append((checkout.name, seed))
        metrics = json.loads((_REPO / "BENCHMARK.json").read_text())["end_to_end"]
        value = 0.2 if checkout.name == "parent" else 0.15
        return {m["name"]: value for m in metrics}

    monkeypatch.setattr(ab_pairs, "run_once", fake)
    return calls


def test_the_pair_line_shows_the_chosen_metric(monkeypatch, capsys, tmp_path):
    calls = _fake_runs(monkeypatch)
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    (parent / "BENCHMARK.json").write_text((_REPO / "BENCHMARK.json").read_text())
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "eval",
            "--pairs", "2", "--seed", "5"]
    assert ab_pairs.main(argv + ["--metric", "request_p50_ms"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "pair 0 (seed 5): request_p50_ms parent 0.2  change 0.15"
    assert lines[1] == "pair 1 (seed 6): request_p50_ms change 0.15  parent 0.2"
    assert calls == [("parent", 5), ("change", 5), ("change", 6), ("parent", 6)]
    # each metric's row ends in its verdict against its bound
    rows = {line.split()[0]: line for line in lines[4:]}
    assert rows["cases_per_s"].endswith("worse (0.22)")
    assert rows["request_p50_ms"].endswith("better (0.22)")
    # cases_per_s unless a metric is named
    assert ab_pairs.main(argv) == 0
    assert capsys.readouterr().out.startswith("pair 0 (seed 5): cases_per_s parent 0.2")


def test_a_metric_the_benchmark_does_not_list_is_rejected(monkeypatch, capsys):
    calls = _fake_runs(monkeypatch)
    argv = ["--parent", str(_REPO), "--change", str(_REPO), "--workload", "eval"]
    with pytest.raises(SystemExit) as exc:
        ab_pairs.main(argv + ["--metric", "fragments.calls"])
    assert exc.value.code == 2
    assert "--metric must be one of setup_s, cases_per_s" in capsys.readouterr().err
    assert calls == []


def _sides(parent_total, change_total, problems=(0, 0), frames=None):
    """Two sides as ``tools/opcount.py --json`` prints them, files left
    out; a tenth of the opcodes are frames unless ``frames`` says."""
    frames = frames or (parent_total // 10, change_total // 10)
    return [
        {"python": "3.11.7", "workload": "series", "seed": 0, "requests": 2025,
         "problems": ["a problem"] * n, "setup": 1, "total": total, "files": {},
         "frames": f, "frame_files": {}}
        for total, n, f in zip((parent_total, change_total), problems, frames)
    ]


def test_the_opcode_line_shows_both_pass_counts_and_their_change():
    assert ab_pairs.opcode_line(_sides(39_943_525, 37_853_440)) == (
        "pass opcodes    parent 39,943,525  change 37,853,440  -5.2%"
        "  frames parent 3,994,352  change 3,785,344  -5.2%"
        "  (seed 0, Python 3.11.7, problems 0/0)"
    )
    assert ab_pairs.opcode_line(_sides(1000, 1000, (2, 0), frames=(705_614, 560_948))).endswith(
        "parent 1,000  change 1,000  +0.0%  frames parent 705,614  change 560,948  -20.5%"
        "  (seed 0, Python 3.11.7, problems 2/0)"
    )


def test_opcodes_prints_the_counts_under_the_medians(monkeypatch, capsys, tmp_path):
    _fake_runs(monkeypatch)
    asked = []

    def fake_opcount(parent, change, workload):
        asked.append((parent.name, change.name, workload))
        return _sides(200, 150)

    monkeypatch.setattr(ab_pairs, "run_opcount", fake_opcount)
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    (parent / "BENCHMARK.json").write_text((_REPO / "BENCHMARK.json").read_text())
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "series", "--pairs", "2"]
    assert ab_pairs.main(argv) == 0
    assert "opcodes" not in capsys.readouterr().out and asked == []
    assert ab_pairs.main(argv + ["--opcodes"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # once for the whole run, after the last metric's row
    assert asked == [("parent", "change", "series")]
    assert lines[-2].startswith("peak_rss_mb")
    assert lines[-1] == (
        "pass opcodes    parent 200  change 150  -25.0%  frames parent 20  change 15  -25.0%"
        "  (seed 0, Python 3.11.7, problems 0/0)"
    )


def test_the_setup_line_shows_each_sides_quartiles_and_the_median_change():
    parent = [0.160, 0.150, 0.170, 0.165, 0.155]
    change = [0.150, 0.140, 0.160, 0.155, 0.145]
    assert ab_pairs.setup_line(parent, change) == (
        "setup-only s    parent 0.1550/0.1600/0.1650  change 0.1450/0.1500/0.1550"
        "  median -6.2%  (5 processes a side, q1/median/q3)"
    )


def test_setup_alternates_the_sides_and_prints_one_summary(monkeypatch, capsys, tmp_path):
    calls = []

    def fake(checkout, workload, seed):
        calls.append((checkout.name, workload, seed))
        return 0.2 if checkout.name == "parent" else 0.1

    monkeypatch.setattr(ab_pairs, "setup_once", fake)
    # no BENCHMARK.json is read: setup-only runs report no metric
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--workload", "sweep", "--seed", "9", "--setup", "3"]
    assert ab_pairs.main(argv) == 0
    assert [c[0] for c in calls] == ["parent", "change", "change", "parent", "parent", "change"]
    assert {c[1:] for c in calls} == {("sweep", 9)}
    assert capsys.readouterr().out.splitlines() == [
        "sweep: seed 9",
        "setup-only s    parent 0.2000/0.2000/0.2000  change 0.1000/0.1000/0.1000"
        "  median -50.0%  (3 processes a side, q1/median/q3)",
    ]


@pytest.mark.parametrize("extra", [["--setup", "0"], ["--setup", "2", "--opcodes"]])
def test_setup_rejects_no_processes_and_opcodes(monkeypatch, capsys, extra):
    calls = []
    monkeypatch.setattr(ab_pairs, "setup_once", lambda *args: calls.append(args) or 0.1)
    with pytest.raises(SystemExit) as exc:
        ab_pairs.main(["--parent", str(_REPO), "--change", str(_REPO), "--workload", "eval", *extra])
    assert exc.value.code == 2 and calls == []
    assert "--setup" in capsys.readouterr().err


def test_one_setup_process_starts_without_bytecode(monkeypatch, tmp_path):
    cache = tmp_path / "src" / "oagw" / "__pycache__"
    cache.mkdir(parents=True)
    (cache / "elements.cpython-311.pyc").write_bytes(b"")
    seen = []

    def fake_run(cmd, cwd, **kwargs):
        seen.append((cmd[1:], cwd, cache.exists()))
        return ab_pairs.subprocess.CompletedProcess(cmd, len(seen) - 1, "", "boom")

    monkeypatch.setattr(ab_pairs.subprocess, "run", fake_run)
    assert ab_pairs.setup_once(tmp_path, "series", 4) >= 0
    assert seen == [(["perfbench/run.py", "--workload", "series", "--seed", "4", "--setup-only"],
                     tmp_path, False)]
    # a process that fails is an error, not a time
    with pytest.raises(RuntimeError, match="setup-only exit 1"):
        ab_pairs.setup_once(tmp_path, "series", 4)
