"""The oagw benchmark: one closed-loop client, four verification workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload search --seed 1 --seconds 15 --trace 0

One client sends one request at a time and waits for it, as a desk user
running checks does.  With ``--trace 0`` the run measures end to end:
set-up time, verdict rows per second, request latency and peak memory,
with no wrapper installed.  It repeats whole passes over the workload's
requests until ``--seconds`` have passed.  A shared host changes this
process's speed by up to 1.6x for tens of seconds at a time, so every
timing is rescaled to a reference speed measured by a fixed probe run
next to it, and a request's latency is the fastest of its passes; the
unscaled figures are printed on the ``run`` line.

With ``--trace 1`` it runs one untraced pass and then the same requests
again under the layer tracer, and reports per-layer counts and self
times, element micro-costs and the tracing overhead.

Every request's verdict is compared with the digest recorded in
``perfbench/reference/``; a mismatch, a failing case row or a raised
request makes the run report ``"correct": false`` and exit 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it carry provenance and a readable report.  ``--requests N`` limits a
pass to its first N requests, for smoke runs.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

if not (SRC / "oagw" / "__init__.py").is_file():
    sys.exit(f"error: no oagw sources at {SRC}; run from the root of a checkout")
sys.path.insert(0, str(SRC))

import oagw  # noqa: E402

from tracing import Tracer, current_attributes, element_micro_costs  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    EvalRequest,
    Runner,
    load_reference,
    one_pass,
    reference_path,
)

# name -> unit, in the order they are reported
END_TO_END = {
    "setup_s": "s",
    "cases_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_p95_ms": "ms",
    "decided_ratio": "ratio",
    "verified_ratio": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{f"elements.{op}.calls": "count" for op in ("add", "scale", "cmp", "sign", "hash", "new")},
    "elements.self_s": "s",
    **{f"elements.{op}_us": "us" for op in ("add", "scale", "cmp", "sign", "hash", "lead_mod")},
    "positions.new.calls": "count",
    "positions.sort_key.calls": "count",
    "sampling.calls": "count",
    "sampling.self_s": "s",
    "fragments.calls": "count",
    "fragments.yielded": "count",
    "fragments.truncated": "count",
    "fragments.self_s": "s",
    "fragments.yield_us": "us",
    "predicates.cong_free_below.calls": "count",
    "predicates.cong_witness_below.calls": "count",
    "predicates.tail_set.calls": "count",
    "predicates.self_s": "s",
    "embeddings.calls": "count",
    "embeddings.self_s": "s",
    "evaluate.calls": "count",
    "evaluate.candidates": "count",
    "evaluate.unknown_ratio": "ratio",
    "evaluate.self_s": "s",
    "formulas.parse.calls": "count",
    "formulas.self_s": "s",
    "hahn.mul.calls": "count",
    "hahn.add.calls": "count",
    "hahn.inverse.calls": "count",
    "hahn.self_s": "s",
    "ringlang.self_s": "s",
    "suites.rows": "count",
    "suites.self_s": "s",
    "trace.overhead_ratio": "ratio",
}
# Metrics carried under another name, and why.
DROPPED = {
    "failed_ratio": "a gated metric may never be 0, and this one is 0 whenever the "
    "program is right; verified_ratio = 1 - failed_ratio carries it, and the "
    "result's 'failed' field counts the failed rows",
}

SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 120
# About what probe() takes on the 2-core x86 box the benchmark was tuned
# on when the host leaves it at full speed; it only sets the scale.
PROBE_REFERENCE_S = 200e-6


def _integer_loop() -> None:
    s = 0
    for i in range(3000):
        s += i * i % 7


def _object_loop() -> None:
    counts: dict = {}
    total = Fraction(0)
    for i in range(40):
        key = (i % 7, -i, i * 3 % 5)
        counts[key] = counts.get(key, 0) + 1
        total += Fraction(i, 7)
    sorted(counts.items())


def probe() -> float:
    """Seconds the machine takes for two fixed loops (geometric mean), collector off.

    The loops touch nothing the program under test owns, so their time
    changes only with the speed the shared host gives this process.  An
    integer loop alone reacts less to a slow host than the workloads do,
    a loop of small objects alone reacts more; their geometric mean
    tracks all four workloads to within a few percent.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _integer_loop()
        t1 = time.perf_counter()
        _object_loop()
        t2 = time.perf_counter()
    finally:
        if enabled:
            gc.enable()
    return math.sqrt((t1 - t0) * (t2 - t1))


def at_reference_speed(seconds: float, probe_before: float, probe_after: float) -> float:
    """A wall time rescaled to the speed at which the probe takes PROBE_REFERENCE_S."""
    return seconds * PROBE_REFERENCE_S / ((probe_before + probe_after) / 2)


@dataclass
class Tally:
    """Verdict rows and latencies of a sequence of requests."""

    rows: int = 0
    decided: int = 0
    failed: int = 0
    latencies: list = field(default_factory=list)
    scaled: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    def add(self, outcome, latency: float, scaled: float, problem: str) -> None:
        self.rows += outcome.rows
        self.decided += outcome.decided
        self.failed += outcome.failed
        self.latencies.append(latency)
        self.scaled.append(scaled)
        if problem:
            self.problems.append(problem)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


def _call(runner: Runner, req):
    t0 = time.perf_counter()
    try:
        result, error = runner.call(req), None
    except Exception as exc:  # a raised request is a failed row, not a crash
        result, error = None, exc
        traceback.print_exc(file=sys.stderr)
    return result, error, time.perf_counter() - t0


def setup(workload: str, seed: int, limit: int | None) -> Runner:
    """Reference, request list and warm-up: everything before the first timed request."""
    reference = load_reference(reference_path(workload))
    requests = one_pass(workload, seed)[:limit]
    runner = Runner(requests, reference)
    warmed = set()
    for req in requests:
        if req.kind not in warmed:
            warmed.add(req.kind)
            runner.call(req)
    return runner


def measure_setup(workload: str, seed: int, limit: int | None, samples: int) -> list[float]:
    """Wall time of fresh processes that start, set up and exit, at reference speed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    if limit is not None:
        cmd += ["--requests", str(limit)]
    times = []
    for _ in range(samples):
        before = probe()
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
        wall = time.perf_counter() - t0
        times.append(at_reference_speed(wall, before, probe()))
    return times


def run_pass(runner: Runner, tracer: Tracer | None = None) -> Tally:
    """Every request once, in order; under ``tracer`` when one is given."""
    tally = Tally()
    before = probe()
    for i, req in enumerate(runner.requests):
        if tracer is None:
            result, error, latency = _call(runner, req)
        else:
            layer = "request" if isinstance(req, EvalRequest) else "suites"
            with tracer.request(i, layer):
                result, error, latency = _call(runner, req)
        after = probe()
        outcome, problem = runner.check(req, result, error)
        tally.add(outcome, latency, at_reference_speed(latency, before, after), problem)
        before = after
        if tracer is not None and layer == "suites":
            tracer.counts["suites.rows"] += outcome.rows
    return tally


def timed_window(runner: Runner, seconds: float) -> list[Tally]:
    """Whole passes, one after another, until ``seconds`` have passed.

    Ending on a pass boundary keeps the mix of request kinds the same in
    every run, whatever order the seed gives.
    """
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(runner))
    return passes


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and how many values lie above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(setup_times: list[float], passes: list[Tally]) -> tuple[dict, dict]:
    # A request's latency is the fastest of its runs in the window, each
    # rescaled to reference speed by the probes around it: the host changes
    # this process's speed by up to 1.6x for tens of seconds at a time, and
    # neither the rescaling nor the minimum alone removes that.
    best = [min(runs) for runs in zip(*(p.scaled for p in passes))]
    best_raw = [min(runs) for runs in zip(*(p.latencies for p in passes))]
    rows = sum(p.rows for p in passes)
    failed = sum(p.failed for p in passes)
    p95, beyond = percentile(best, 95)
    values = {
        "setup_s": statistics.median(setup_times),
        "cases_per_s": passes[0].rows / sum(best),
        "request_p50_ms": statistics.median(best) * 1e3,
        "request_p95_ms": p95 * 1e3,
        # every pass gives the same verdicts, so the first one is exact
        "decided_ratio": passes[0].decided / passes[0].rows,
        "verified_ratio": (rows - failed) / rows,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "passes": len(passes),
        "requests": len(passes) * len(best),
        "requests_per_pass": len(best),
        "requests_beyond_p95": beyond,
        "rows": rows,
        "pass_busy_s": [p.busy_s for p in passes],
        "unscaled_cases_per_s": passes[0].rows / sum(best_raw),
        "unscaled_p50_ms": statistics.median(best_raw) * 1e3,
        "unscaled_p95_ms": percentile(best_raw, 95)[0] * 1e3,
        "setup_samples_s": setup_times,
    }
    return values, extra


def per_layer(tracer: Tracer, untraced: Tally, traced: Tally, micro: dict) -> dict:
    calls, counts, self_s = tracer.calls, tracer.counts, tracer.self_s
    evaluations = calls["evaluate.evaluate"]
    yielded = counts["fragments.yielded"]
    values = {f"elements.{op}.calls": calls[f"elements.{op}"]
              for op in ("add", "scale", "cmp", "sign", "hash", "new")}
    values["elements.self_s"] = self_s["elements"]
    values.update({f"elements.{op}_us": us for op, us in micro.items()})
    values.update({
        "positions.new.calls": calls["positions.new"],
        "positions.sort_key.calls": calls["positions.sort_key"],
        "sampling.calls": tracer.layer_calls("sampling"),
        "sampling.self_s": self_s["sampling"],
        "fragments.calls": tracer.layer_calls("fragments"),
        "fragments.yielded": yielded,
        "fragments.truncated": counts["fragments.truncated"],
        "fragments.self_s": self_s["fragments"],
        "fragments.yield_us": self_s["fragments"] / yielded * 1e6 if yielded else 0.0,
        "predicates.cong_free_below.calls": calls["predicates.cong_free_below"],
        "predicates.cong_witness_below.calls": calls["predicates.cong_witness_below"],
        "predicates.tail_set.calls": calls["predicates.tail_set"],
        "predicates.self_s": self_s["predicates"],
        "embeddings.calls": tracer.layer_calls("embeddings"),
        "embeddings.self_s": self_s["embeddings"],
        "evaluate.calls": evaluations,
        "evaluate.candidates": counts["evaluate.candidates"],
        "evaluate.unknown_ratio": tracer.unknown / evaluations if evaluations else 0.0,
        "evaluate.self_s": self_s["evaluate"],
        "formulas.parse.calls": calls["formulas.parse_formula"],
        "formulas.self_s": self_s["formulas"],
        "hahn.mul.calls": calls["hahn.mul"],
        "hahn.add.calls": calls["hahn.add"],
        "hahn.inverse.calls": calls["hahn.truncated_inverse"],
        "hahn.self_s": self_s["hahn"],
        "ringlang.self_s": self_s["ringlang"],
        "suites.rows": counts["suites.rows"],
        "suites.self_s": self_s["suites"],
        "trace.overhead_ratio": traced.busy_s / untraced.busy_s,
    })
    return values


# -- provenance ------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "oagw").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def provenance(args, runner: Runner) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "requests_per_pass": len(runner.requests),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "commit": git_commit(),
        "source_sha256": _source_digest(),
    }


# -- report ----------------------------------------------------------------------


def _emit(line: str = "") -> None:
    print(line, flush=True)


def _report_metrics(values: dict, units: dict) -> dict:
    out = {}
    for name, unit in units.items():
        _emit(f"  {name:38s} {values[name]:>16.6f} {unit}")
        out[name] = {"value": values[name], "unit": unit}
    return out


def _report_layers(tracer: Tracer) -> None:
    _emit("aggregated calls by parent layer (calls, inclusive s):")
    for (metric, parent), (n, secs) in sorted(tracer.by_parent.items()):
        _emit(f"  {metric:28s} <- {parent:12s} {n:>10d} {secs:>12.6f}")
    _emit("boundary calls:")
    for metric, n in sorted(tracer.calls.items()):
        _emit(f"  {metric:40s} {n:>10d}")
    _emit("self time by layer (s):")
    for layer, secs in sorted(tracer.self_s.items()):
        _emit(f"  {layer:12s} {secs:>12.6f}")


def _check_untraced_path(before: dict) -> None:
    if current_attributes() != before:
        raise RuntimeError("a layer attribute changed during the untraced run")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--requests", type=int, default=None,
                        help="limit a pass to its first N requests (smoke runs)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.requests is not None and args.requests < 1:
        parser.error("--requests must be at least 1")
    if not Path(oagw.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported oagw from {oagw.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    before = current_attributes()
    runner = setup(args.workload, args.seed, args.requests)
    own_setup_s = time.perf_counter() - _STARTED
    if args.setup_only:
        return 0

    _emit(f"oagw benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    _emit("provenance " + json.dumps(provenance(args, runner), sort_keys=True))

    if args.trace == 0:
        setup_times = measure_setup(args.workload, args.seed, args.requests, SETUP_SAMPLES)
        passes = timed_window(runner, args.seconds)
        _check_untraced_path(before)
        values, extra = end_to_end(setup_times, passes)
        extra["own_setup_s"] = own_setup_s
        _emit("run " + json.dumps(extra, sort_keys=True))
        _emit("end-to-end metrics (tracing off):")
        metrics = _report_metrics(values, END_TO_END)
        for name, why in DROPPED.items():
            _emit(f"dropped {name}: {why}")
        problems = [x for p in passes for x in p.problems]
        attempted, failed = extra["rows"], sum(p.failed for p in passes)
    else:
        untraced = run_pass(runner)
        _check_untraced_path(before)
        tracer = Tracer(args.seed)
        tracer.install()
        try:
            traced = run_pass(runner, tracer)
        finally:
            tracer.uninstall()
        micro, notes = element_micro_costs(tracer.reservoirs)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv"
        tracer.write_spans(spans_path)
        values = per_layer(tracer, untraced, traced, micro)
        _emit(f"run {json.dumps({'spans': len(tracer.spans), 'spans_file': str(spans_path.relative_to(ROOT))})}")
        _report_layers(tracer)
        _emit("per-layer metrics (traced pass; *_us timed with tracing off):")
        metrics = _report_metrics(values, PER_LAYER)
        for note in notes:
            _emit(f"note {note}")
        problems = untraced.problems + traced.problems
        attempted = untraced.rows + traced.rows
        failed = untraced.failed + traced.failed

    for problem in problems[:20]:
        _emit(f"failure {problem}")
    correct = failed == 0 and not problems
    _emit(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
