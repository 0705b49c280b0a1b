"""Report-only timing of the two acceptance criteria that carry a time budget.

Usage, from the root of a checkout::

    python3 perfbench/acceptance.py

Runs ``psi-vs-search`` at 2000 samples on both constructions and
``gamma-counterexample`` once, with the options of
``tests/test_acceptance.py``, and prints each wall time beside its test
budget (60 s and 120 s) and the target of half that budget.  Nothing
here is gated: the run takes about two minutes and is not part of the
benchmark's workload runs.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from oagw.elements import GAMMA, LAMBDA  # noqa: E402
from oagw.suites import SuiteOptions, run_suite  # noqa: E402

SEED = 42

# (criterion, budget in seconds, the suite runs it times together)
CRITERIA = (
    (
        "1 psi-vs-search (2000 samples x 2 constructions)",
        60.0,
        [("psi-vs-search", SuiteOptions(c, seed=SEED, samples=2000, coeff_bound=3))
         for c in (LAMBDA, GAMMA)],
    ),
    (
        "5 gamma-counterexample",
        120.0,
        [("gamma-counterexample", SuiteOptions(seed=SEED))],
    ),
)


def main() -> int:
    print(f"{'criterion':50s} {'wall s':>8s} {'budget s':>9s} {'target s':>9s}  verdicts")
    for name, budget, runs in CRITERIA:
        t0 = time.perf_counter()
        ok = all(run_suite(suite, opts).ok for suite, opts in runs)
        wall = time.perf_counter() - t0
        mark = "within target" if wall < budget / 2 else (
            "within budget" if wall < budget else "OVER BUDGET")
        print(f"{name:50s} {wall:8.1f} {budget:9.0f} {budget / 2:9.0f}  "
              f"{'pass' if ok else 'FAIL'}, {mark}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
