"""A smoke run of tools/bench.py writes every section of its BENCH file, with units."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {"search", "sweep", "series", "eval"}
LAYERS = {"add", "cmp", "sign", "hash", "scale", "lead_mod", "cong_free_below",
          "fragment_element", "series_mul", "evaluate"}


def test_a_smoke_run_writes_every_key_with_its_unit(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench.py"), "--label", "smoke",
         "--seconds", "0.2", "--repeats", "1", "--requests", "3", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,  # a hung run fails here
    )
    assert proc.returncode == 0, proc.stderr
    bench = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert set(bench) == {"label", "settings", "python", "nproc", "cpu", "commit",
                          "workloads", "opcodes", "criteria", "layers"}
    assert bench["label"] == "smoke"
    assert bench["settings"] == {"seconds": 0.2, "seed": 0, "repeats": 1, "requests": 3,
                                 "opcount_seed": 0}
    assert bench["python"] == sys.version.split()[0] and bench["nproc"] >= 1

    # the end-to-end metrics the benchmark declares, each with its declared unit
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    assert set(bench["workloads"]) == WORKLOADS
    for w, run in bench["workloads"].items():
        assert run["correct"] is True and run["failed"] == 0 and run["attempted"] > 0
        assert run["provenance"]["workload"] == w and run["provenance"]["requests_per_pass"] == 3
        assert {k: m["unit"] for k, m in run["metrics"].items()} == units
        assert all(m["value"] >= 0 for m in run["metrics"].values())

    assert set(bench["opcodes"]) == WORKLOADS
    for w, counts in bench["opcodes"].items():
        assert counts["workload"] == w and counts["seed"] == 0 and counts["requests"] == 3
        assert counts["problems"] == []
        assert counts["total"] == sum(counts["files"].values()) > 0
        assert counts["frames"] == sum(counts["frame_files"].values()) > 0
        assert counts["setup"] > 0

    assert set(bench["criteria"]) == {"criterion_1", "criterion_5"}
    for criterion in bench["criteria"].values():
        assert criterion["unit"] == "ms" and criterion["pass"] is True
        assert 0 < criterion["value"] < criterion["budget_ms"]

    assert set(bench["layers"]) == {"lambda", "gamma"}
    for costs in bench["layers"].values():
        assert set(costs) == LAYERS
        assert all(c["unit"] == "ns" and c["value"] > 0 for c in costs.values())
