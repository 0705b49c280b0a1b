"""Alternating pairs of benchmark runs in two checkouts, and the gain rule.

Usage, from anywhere::

    python3 tools/ab_pairs.py --parent PARENT_DIR --change CHANGE_DIR \\
        --workload eval --pairs 10 --seconds 15 --seed 1000 \\
        --metric request_p50_ms [--opcodes]
    python3 tools/ab_pairs.py --parent PARENT_DIR --change CHANGE_DIR \\
        --workload series --setup 30 [--seed 1000]

Pair i runs ``perfbench/run.py --workload W --seed SEED+i --seconds S
--trace 0`` once in each checkout, the parent first in even pairs and
the change first in odd ones, and prints the ``--metric`` of both runs
(``cases_per_s`` unless given), so a claim can be followed pair by
pair.  Each checkout's ``src/oagw/__pycache__``
is removed before every run, since whether up-to-date bytecode is
present moves ``peak_rss_mb`` and ``setup_s`` by several per cent.

For every end-to-end metric named in the parent's ``BENCHMARK.json``
it prints both sides' median and quartiles, the change of the median,
the pairs the change won (ties count for neither side) and whether a
gain may be claimed: there are at least ten pairs, the change wins at
least nine tenths of them, and its median beats the parent's, in the
metric's better direction, by more than the distance between the
parent's quartiles.

It also prints the metric's verdict against its ``bound`` in
``BENCHMARK.json``, a fraction of the parent's median: ``better`` when
every change run beats every parent run; else ``unresolved`` when the
parent's quartiles lie further apart than the bound; else ``worse``
when the change's median is worse than the parent's by more than the
bound; else ``within``.

With ``--opcodes`` it then runs ``tools/opcount.py --json`` once on
both checkouts for the workload and prints, under the medians, the two
pass counts of opcodes and of Python frames entered, and their changes:
exact counts that back a wall-time claim from a single run (see that
script for what they do and do not count).

With ``--setup N`` it runs no pairs of benchmark runs.  It runs instead
``perfbench/run.py --workload W --seed SEED --setup-only`` N times in
each checkout, alternating as the pairs do and with ``__pycache__``
removed before each process, and prints the wall time of those
processes on each side as quartiles and the change of the median.  A
run's ``setup_s`` is the median of only three such processes, so this
is the check that tells a setup change from noise.

Only the standard library is used; the script is not part of the test
suite and changes nothing in either checkout but the bytecode caches.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple


class Summary(NamedTuple):
    """One metric over the pairs: quartiles as (q1, median, q3)."""

    parent: tuple[float, float, float]
    change: tuple[float, float, float]
    wins: int
    pairs: int
    gain: bool


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), interpolated between the sorted values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: list[float], change: list[float], better: str) -> Summary:
    """The gain rule on paired runs: ``parent[i]`` and ``change[i]`` ran
    as pair i; ``better`` is "higher" or "lower"."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs on each side")
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p, c = quartiles(parent), quartiles(change)
    gain = len(parent) >= 10 and 10 * wins >= 9 * len(parent) and sign * (c[1] - p[1]) > p[2] - p[0]
    return Summary(p, c, wins, len(parent), gain)


def bound_verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """``better``, ``unresolved``, ``worse`` or ``within``: the runs of
    each side against the metric's relative ``bound``."""
    sign = 1 if better == "higher" else -1
    if min(sign * c for c in change) > max(sign * p for p in parent):
        return "better"
    q1, median, q3 = quartiles(parent)
    if q3 - q1 > bound * abs(median):
        return "unresolved"
    if sign * (quartiles(change)[1] - median) < -bound * abs(median):
        return "worse"
    return "within"


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """One benchmark run in ``checkout``: its end-to-end metrics by name."""
    shutil.rmtree(checkout / "src" / "oagw" / "__pycache__", ignore_errors=True)
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout}: no output (exit {done.returncode})\n{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{checkout}: seed {seed} reported correct: false")
    return {name: m["value"] for name, m in result["metrics"].items()}


def setup_once(checkout: Path, workload: str, seed: int) -> float:
    """Wall seconds of one ``perfbench/run.py --setup-only`` process in ``checkout``."""
    shutil.rmtree(checkout / "src" / "oagw" / "__pycache__", ignore_errors=True)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if done.returncode:
        raise RuntimeError(f"{checkout}: setup-only exit {done.returncode}\n{done.stderr}")
    return wall


def setup_line(parent: list[float], change: list[float]) -> str:
    """Each side's setup-only wall times as quartiles, and the change of the median."""
    p, c = quartiles(parent), quartiles(change)
    moved = (c[1] / p[1] - 1) * 100 if p[1] else 0.0
    return (f"setup-only s    parent {'/'.join(f'{v:.4f}' for v in p)}"
            f"  change {'/'.join(f'{v:.4f}' for v in c)}  median {moved:+.1f}%"
            f"  ({len(parent)} processes a side, q1/median/q3)")


def run_opcount(parent: Path, change: Path, workload: str) -> list[dict]:
    """``tools/opcount.py --json`` on both checkouts: each side's counts."""
    script = Path(__file__).resolve().with_name("opcount.py")
    cmd = [sys.executable, str(script), str(parent), str(change), "--workload", workload, "--json"]
    done = subprocess.run(cmd, capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"opcount.py: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout)


def opcode_line(sides: list[dict]) -> str:
    """The pass counts, opcodes and frames, of the parent and the change,
    and their changes."""

    def counts(key: str) -> str:
        parent, change = (s[key] for s in sides)
        moved = (change / parent - 1) * 100 if parent else 0.0
        return f"parent {parent:,}  change {change:,}  {moved:+.1f}%"

    problems = [len(s["problems"]) for s in sides]
    return (f"{'pass opcodes':<16}{counts('total')}  frames {counts('frames')}"
            f"  (seed {sides[0]['seed']}, Python {sides[0]['python']}, "
            f"problems {problems[0]}/{problems[1]})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--seed", type=int, default=1000, help="seed of the first pair")
    parser.add_argument(
        "--metric", default="cases_per_s", help="the end-to-end metric each pair's line shows"
    )
    parser.add_argument(
        "--opcodes", action="store_true", help="also print both sides' opcode counts of one pass"
    )
    parser.add_argument(
        "--setup", type=int, metavar="N",
        help="in place of the pairs, time N setup-only processes a side",
    )
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.setup is not None:
        if args.setup < 1:
            parser.error("--setup must be at least 1")
        if args.opcodes:
            parser.error("--setup runs no pass, so it takes no --opcodes")
        times: dict[str, list[float]] = {"parent": [], "change": []}
        for i in range(args.setup):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                checkout = args.parent if side == "parent" else args.change
                times[side].append(setup_once(checkout, args.workload, args.seed))
        print(f"{args.workload}: seed {args.seed}")
        print(setup_line(times["parent"], times["change"]))
        return 0

    with open(args.parent / "BENCHMARK.json") as fh:
        metrics = {m["name"]: (m["better"], m["bound"]) for m in json.load(fh)["end_to_end"]}
    if args.metric not in metrics:
        parser.error(f"--metric must be one of {', '.join(metrics)}, got {args.metric!r}")
    runs: dict[str, list[dict[str, float]]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            runs[side].append(run_once(checkout, args.workload, args.seed + i, args.seconds))
        line = "  ".join(f"{s} {runs[s][-1][args.metric]:.5g}" for s in order)
        print(f"pair {i} (seed {args.seed + i}): {args.metric} {line}", flush=True)

    print(f"\n{args.workload}: {args.pairs} pairs of {args.seconds:g} s")
    print(f"{'metric':<16}{'parent q1/med/q3':>30}{'change q1/med/q3':>30}{'median':>9}"
          f"{'wins':>7}  gain  bound")
    for name, (better, bound) in metrics.items():
        parent, change = [r[name] for r in runs["parent"]], [r[name] for r in runs["change"]]
        s = summarize(parent, change, better)
        moved = (s.change[1] / s.parent[1] - 1) * 100 if s.parent[1] else 0.0
        print(f"{name:<16}{'/'.join(f'{v:.4g}' for v in s.parent):>30}"
              f"{'/'.join(f'{v:.4g}' for v in s.change):>30}{moved:>+8.1f}%"
              f"{s.wins:>4}/{s.pairs:<2}  {'yes' if s.gain else 'no':<4}"
              f"  {bound_verdict(parent, change, better, bound)} ({bound:g})")
    if args.opcodes:
        print(opcode_line(run_opcount(args.parent, args.change, args.workload)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
