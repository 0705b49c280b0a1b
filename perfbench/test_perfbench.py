"""Tests of the benchmark itself: smoke runs, wrapper hygiene and the reference check.

Run from the root of a checkout with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts the checkout's src/ on the path)
import tracing  # noqa: E402
import workloads  # noqa: E402

SMOKE_REQUESTS = 6


def _contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


def _same_objects(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def test_contract_matches_the_metric_tables():
    contract = _contract()
    assert [w["name"] for w in contract["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in contract["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in contract["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_reports_every_metric_with_its_unit(workload, trace):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                  "--trace", str(trace), "--requests", str(SMOKE_REQUESTS))
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = "end_to_end" if trace == 0 else "per_layer"
    want = {m["name"]: m["unit"] for m in _contract()[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    if trace == 0:
        for name in run.DROPPED:
            assert any(line.startswith(f"dropped {name}: ") for line in lines)
    provenance = json.loads(next(x for x in lines if x.startswith("provenance "))[11:])
    assert {"nproc", "python", "cpu", "commit", "seed", "requests_per_pass"} <= set(provenance)


def test_untraced_run_installs_no_wrapper():
    before = tracing.current_attributes()
    runner = run.setup("eval", 1, SMOKE_REQUESTS)
    run.timed_window(runner, 0.0)
    assert _same_objects(tracing.current_attributes(), before)


def test_traced_pass_restores_attributes_and_repeats_its_counts():
    before = tracing.current_attributes()
    counts = []
    for _ in range(2):
        runner = run.setup("eval", 7, 12)
        tracer = tracing.Tracer(7)
        tracer.install()
        try:
            during = tracing.current_attributes()
            run.run_pass(runner, tracer)
        finally:
            tracer.uninstall()
        assert all(during[k] is not before[k] for k in before)
        assert _same_objects(tracing.current_attributes(), before)
        counts.append((dict(tracer.calls), dict(tracer.counts)))
    assert counts[0] == counts[1]
    assert counts[0][0]["formulas.parse_formula"] >= 1


def test_reference_check_fires_on_an_altered_digest(tmp_path):
    committed = workloads.reference_path("series")
    original_bytes = committed.read_bytes()
    requests = workloads.one_pass("series", 2)[:3]
    doc = json.loads(original_bytes)
    altered = requests[0].key
    doc["digests"][altered] = "0" * 16
    copy = tmp_path / "series.json"
    copy.write_text(json.dumps(doc))

    bad = run.run_pass(workloads.Runner(requests, workloads.load_reference(copy)))
    assert bad.failed >= 1 and any(p.startswith(altered) for p in bad.problems)
    good = run.run_pass(workloads.Runner(requests, workloads.load_reference(committed)))
    assert good.failed == 0 and not good.problems
    assert committed.read_bytes() == original_bytes


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _bench("--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
