"""Alternating pairs of benchmark runs in two checkouts, and the gain rule.

Usage, from anywhere::

    python3 tools/ab_pairs.py --parent PARENT_DIR --change CHANGE_DIR \\
        --workload eval --pairs 10 --seconds 15 --seed 1000

Pair i runs ``perfbench/run.py --workload W --seed SEED+i --seconds S
--trace 0`` once in each checkout, the parent first in even pairs and
the change first in odd ones.  Each checkout's ``src/oagw/__pycache__``
is removed before every run, since whether up-to-date bytecode is
present moves ``peak_rss_mb`` and ``setup_s`` by several per cent.

For every end-to-end metric named in the parent's ``BENCHMARK.json``
it prints both sides' median and quartiles, the change of the median,
the pairs the change won (ties count for neither side) and whether a
gain may be claimed: the change wins at least nine tenths of the pairs,
and its median beats the parent's, in the metric's better direction,
by more than the distance between the parent's quartiles.

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
    gain = 10 * wins >= 9 * len(parent) and sign * (c[1] - p[1]) > p[2] - p[0]
    return Summary(p, c, wins, len(parent), gain)


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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--seed", type=int, default=1000, help="seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with open(args.parent / "BENCHMARK.json") as fh:
        metrics = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    runs: dict[str, list[dict[str, float]]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            runs[side].append(run_once(checkout, args.workload, args.seed + i, args.seconds))
        line = "  ".join(f"{s} {runs[s][-1]['cases_per_s']:.1f}" for s in order)
        print(f"pair {i} (seed {args.seed + i}): cases_per_s {line}", flush=True)

    print(f"\n{args.workload}: {args.pairs} pairs of {args.seconds:g} s")
    print(f"{'metric':<16}{'parent q1/med/q3':>30}{'change q1/med/q3':>30}{'median':>9}"
          f"{'wins':>7}  gain")
    for name, better in metrics.items():
        s = summarize([r[name] for r in runs["parent"]], [r[name] for r in runs["change"]], better)
        moved = (s.change[1] / s.parent[1] - 1) * 100 if s.parent[1] else 0.0
        print(f"{name:<16}{'/'.join(f'{v:.4g}' for v in s.parent):>30}"
              f"{'/'.join(f'{v:.4g}' for v in s.change):>30}{moved:>+8.1f}%"
              f"{s.wins:>4}/{s.pairs:<2}  {'yes' if s.gain else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
