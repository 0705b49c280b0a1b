"""Byte-identity of the CLI's JSON across interpreters.

Usage, from anywhere::

    python3 tools/crosspy.py PYTHON [PYTHON ...]

Under each interpreter named, with ``PYTHONPATH=src`` and no install, it
writes the JSON of every ``oagw check`` run, once for each construction
its suite declares, and of every ``oagw demo`` run, at seeds 7 and 42.
It prints each file whose bytes differ from the first interpreter's, or
that only one of the two wrote, and exits 1 on any difference.  The runs
are listed from the suite registry of this checkout's ``src``.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (7, 42)


def runs():
    """(file name, CLI arguments) for every check and demo run."""
    sys.path.insert(0, str(ROOT / "src"))
    from oagw.suites import DEMOS, SUITES

    for seed in SEEDS:
        for name, suite in sorted(SUITES.items()):
            for c in suite.constructions:
                yield f"check-{name}-{c}-{seed}.json", ["check", name, "--construction", str(c), "--seed", str(seed)]
        for name in sorted(DEMOS):
            yield f"demo-{name}-{seed}.json", ["demo", name, "--seed", str(seed)]


def write_all(python, out, todo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for fname, args in todo:
        cmd = [python, "-m", "oagw.cli", *args, "--json", str(out / fname)]
        # 1 is a report with a failing row, still written; 2 is an error
        if subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL).returncode not in (0, 1):
            raise SystemExit(f"{python}: {' '.join(args)} failed")


def differing(first, other):
    """The file names whose bytes differ between two directories, or that
    only one of them holds."""
    names = {p.name for p in first.iterdir()} | {p.name for p in other.iterdir()}
    return sorted(
        n for n in names
        if not ((first / n).is_file() and (other / n).is_file())
        or (first / n).read_bytes() != (other / n).read_bytes()
    )


def main(argv):
    if not argv:
        raise SystemExit(__doc__)
    todo = list(runs())
    with tempfile.TemporaryDirectory() as tmp:
        dirs = [Path(tmp) / str(i) for i in range(len(argv))]
        for python, out in zip(argv, dirs):
            out.mkdir()
            write_all(python, out, todo)
        bad = 0
        for python, out in zip(argv[1:], dirs[1:]):
            diff = differing(dirs[0], out)
            bad += len(diff)
            for name in diff:
                print(f"{python}: {name} differs from {argv[0]}")
        print(f"{len(todo)} files under {len(argv)} interpreters: {bad} differences")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
