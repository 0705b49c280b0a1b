"""Record the verdict reference of every benchmark workload.

Usage, from the root of a checkout::

    python3 perfbench/record_reference.py [--workload NAME ...]

Runs every request of each workload's universe once and writes one
digest per request to ``perfbench/reference/<workload>.json``.  The
committed files were recorded at the commit that introduced the
benchmark; re-record only when a change is meant to alter verdicts, and
say why in the change.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import git_commit
from workloads import WORKLOADS, Runner, reference_path, universe


def record(name: str) -> dict:
    runner = Runner([req for group in universe(name) for req in group], {})
    digests = {req.key: req.outcome(runner.call(req)).digest for req in runner.requests}
    return {"workload": name, "recorded_at": git_commit(), "digests": digests}


def main() -> int:
    parser = argparse.ArgumentParser(description="record the benchmark's verdict reference")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    for name in args.workload or sorted(WORKLOADS):
        doc = record(name)
        path = reference_path(name)
        path.parent.mkdir(exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"{name}: {len(doc['digests'])} requests -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
