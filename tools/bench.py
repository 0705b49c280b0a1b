"""One command, one BENCH file: the end-to-end, opcode and layer costs of a checkout.

Usage, from anywhere::

    python3 tools/bench.py --label L [--seconds 15] [--seed 0] \\
        [--repeats 7] [--requests N] [--out DIR]

writes ``BENCH_<L>.json`` with sorted keys to DIR (the checkout's root
unless given): the settings, ``python``, ``nproc``, ``cpu``, ``commit``, and

* ``workloads``: per workload, the provenance, correctness and end-to-end
  metrics (each a value with its unit) of ``perfbench/run.py --workload W
  --seed N --seconds S --trace 0``, run in a fresh process;
* ``opcodes``: per workload, the exact setup and pass counts of opcodes
  and frames of one pass at seed 0, by file, from ``tools/opcount.py``;
* ``criteria``: ms of acceptance criteria 1 and 5, the suites of
  ``perfbench/acceptance.py`` run in this process as the layers are timed;
* ``layers``: per construction, ns per call of each layer the north star
  of ROADMAP.md lists, timed with ``timeit`` on fixed seeded inputs in
  maps of at least 20 ms, each rescaled to reference speed by
  ``perfbench/run.py``'s probes, the median of ``--repeats`` rounds.

A run at the defaults takes about two minutes on a 2-core box; one with
``--seconds 0.2 --repeats 1 --requests N`` (passes cut to N requests) is a
smoke run of seconds, not for comparison.  ``perfbench/`` is only read.
"""

from __future__ import annotations

import argparse
import json
import operator
import re
import statistics
import subprocess
import sys
import time
import timeit
from collections import deque
from functools import partial
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tools")]

import acceptance  # noqa: E402
import opcount  # noqa: E402
import run as perfrun  # noqa: E402  (its probe rescales every timing here)
import workloads  # noqa: E402
from oagw.elements import GAMMA, LAMBDA, GroupElement, unit  # noqa: E402
from oagw.evaluate import evaluate  # noqa: E402
from oagw.formulas import parse_formula  # noqa: E402
from oagw.fragments import FragmentConfig, iter_fragment  # noqa: E402
from oagw.positions import g1_square  # noqa: E402
from oagw.predicates import cong_free_below  # noqa: E402
from oagw.sampling import case_rng, random_element, random_series  # noqa: E402
from oagw.suites import run_suite  # noqa: E402

LAYER_SEED = 2600
# inputs per timed map: element operations, series products, fragments, evaluate calls
ELEMENTS, SERIES, FRAGMENTS, EVALUATIONS = 256, 64, 8, 8
TIMED_S = 0.02  # the least wall time of one timed map
# the eval template timed, and its request index on each construction
EVAL_TEMPLATE, EVAL_INDEX = "e-cong", {GAMMA: 0, LAMBDA: 1}


def run_workload(workload: str, seed: int, seconds: float, requests: Optional[int]) -> dict:
    """Provenance, correctness and end-to-end metrics of one fresh benchmark run."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if requests is not None:
        cmd += ["--requests", str(requests)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=seconds + 600)
    lines = done.stdout.splitlines()
    if not lines:
        raise RuntimeError(f"{workload}: exit {done.returncode}, no output\n{done.stderr}")
    result = json.loads(lines[-1])
    provenance = next(json.loads(line.split(" ", 1)[1]) for line in lines
                      if line.startswith("provenance "))
    return {"provenance": provenance, "metrics": result["metrics"],
            **{key: result[key] for key in ("correct", "attempted", "failed")}}


def criteria(repeats: int) -> dict:
    """Time in ms of each acceptance criterion with a time budget, the median of
    ``repeats`` runs, each rescaled by the probes around it as a layer timing is."""
    out = {}
    for name, budget_s, runs in acceptance.CRITERIA:
        times, ok = [], True
        for _ in range(repeats):
            before, t0 = perfrun.probe(), time.perf_counter()
            ok &= all(run_suite(suite, opts).ok for suite, opts in runs)
            wall = time.perf_counter() - t0
            times.append(perfrun.at_reference_speed(wall, before, perfrun.probe()))
        out[f"criterion_{name.split()[0]}"] = {
            "name": name, "value": statistics.median(times) * 1e3, "unit": "ms",
            "budget_ms": budget_s * 1e3, "pass": ok}
    return out


def _timer(fn: Callable, args: tuple, calls: int, copy: Optional[Callable] = None) -> Callable:
    """A timing of mapping fn over the lists ``args`` (``calls`` calls a map) in
    ns per call, rescaled by the probes around it as run.py rescales a request.
    The lists repeat k times, k doubling until a map takes ``TIMED_S``; with
    ``copy``, over fresh copies, for a result an input keeps (its hash)."""
    def timing(k: int) -> float:
        lists = [a * k if copy is None else list(map(copy, a * k)) for a in args]
        return timeit.Timer(lambda: deque(map(fn, *lists), maxlen=0)).timeit(1)

    k = 1
    while timing(k) < TIMED_S:
        k *= 2

    def scaled() -> float:
        before = perfrun.probe()
        wall = timing(k)
        return perfrun.at_reference_speed(wall, before, perfrun.probe()) / (calls * k) * 1e9
    return scaled


def layer_timers(construction) -> dict[str, Callable]:
    """A timer of each north-star layer on ``construction``."""
    rngs = [case_rng(LAYER_SEED, i) for i in range(ELEMENTS)]
    xs = [random_element(rng, construction) for rng in rngs]
    ys = [random_element(rng, construction) for rng in rngs]
    deep = unit(construction, g1_square(9, 0))

    def fragment(a: GroupElement, b: GroupElement) -> int:
        cfg = FragmentConfig(coeff_bound=2, generator_pool=(deep,), size_cap=300)
        return sum(1 for _ in iter_fragment([a, b], cfg, construction))

    pairs = (xs[:FRAGMENTS], ys[:FRAGMENTS])
    elements_yielded = sum(map(fragment, *pairs))
    series = [random_series(rng, construction) for rng in rngs[:2 * SERIES]]
    request = workloads.eval_request(EVAL_TEMPLATE, EVAL_INDEX[construction])
    formula = parse_formula(request.formula, construction)
    runs = ([formula] * EVALUATIONS, [{}] * EVALUATIONS, [request.config()] * EVALUATIONS)
    n = ELEMENTS
    return {
        "add": _timer(operator.add, (xs, ys), n),
        "cmp": _timer(GroupElement.cmp, (xs, ys), n),
        "sign": _timer(GroupElement.sign, (xs,), n),
        "hash": _timer(GroupElement.__hash__, (xs,), n,
                       lambda x: GroupElement(construction, x.entries)),
        "scale": _timer(GroupElement.scale, (xs, [3] * n), n),
        "lead_mod": _timer(GroupElement.lead_mod, (xs, [2] * n), n),
        "cong_free_below": _timer(cong_free_below, ([2] * n, xs, ys), n),
        "fragment_element": _timer(fragment, pairs, elements_yielded),
        "series_mul": _timer(operator.mul, (series[::2], series[1::2]), SERIES),
        "evaluate": _timer(partial(evaluate, construction), runs, EVALUATIONS),
    }


def layer_costs(repeats: int) -> dict:
    """ns per call of each layer on each construction, the median of ``repeats``
    rounds that time every layer once: a slow spell of the host falls on one
    round, and a probe it slowed makes a timing read fast, so not the least."""
    timers = {str(c): layer_timers(c) for c in (LAMBDA, GAMMA)}
    rounds = [{(c, name): timer() for c, layers in timers.items()
               for name, timer in layers.items()} for _ in range(repeats)]
    return {c: {name: {"value": statistics.median(r[c, name] for r in rounds), "unit": "ns"}
                for name in layers} for c, layers in timers.items()}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    parser.add_argument("--seconds", type=float, default=15.0, help="per workload run")
    parser.add_argument("--seed", type=int, default=0, help="the workload runs' seed")
    parser.add_argument("--repeats", type=int, default=7, help="timing rounds of each figure")
    parser.add_argument("--requests", type=int, metavar="N",
                        help="limit every pass to its first N requests (smoke runs)")
    parser.add_argument("--out", type=Path, default=ROOT, help="directory of the file")
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9._-]+", args.label):
        parser.error("--label takes letters, digits, '.', '_' and '-'")
    if args.seconds <= 0 or args.repeats < 1 or (args.requests is not None and args.requests < 1):
        parser.error("--seconds must be positive, --repeats and --requests at least 1")
    names = opcount.WORKLOADS
    bench = {
        "label": args.label,
        "settings": {"seconds": args.seconds, "seed": args.seed, "repeats": args.repeats,
                     "requests": args.requests, "opcount_seed": 0},
        "workloads": {w: run_workload(w, args.seed, args.seconds, args.requests) for w in names},
        "opcodes": {w: opcount.run_child(ROOT, w, 0, requests=args.requests) for w in names},
        "criteria": criteria(args.repeats),
        "layers": layer_costs(args.repeats),
    }
    # the machine and the commit, as the first run's provenance line names them
    provenance = bench["workloads"][names[0]]["provenance"]
    bench.update({key: provenance[key] for key in ("python", "nproc", "cpu", "commit")})
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0 if all(w["correct"] for w in bench["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
