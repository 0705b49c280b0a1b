"""Deterministic opcode counts of one benchmark pass, in one or two checkouts.

Usage, from anywhere::

    python3 tools/opcount.py CHECKOUT [OTHER_CHECKOUT] \\
        [--workload series ...] [--seed 0] [--callers FILE] [--json] [--requests N]

For each workload (all four unless ``--workload`` names some) and each
checkout, a fresh interpreter puts the checkout's ``src`` and
``perfbench`` first on ``sys.path``, imports ``perfbench/workloads.py``
and builds the pass of ``--seed`` over the workload's whole universe
and its ``Runner``: that is the *setup* count.  It then calls every
request of the pass once, in order (only the first N with ``--requests
N``, for smoke runs), and counts the bytecode
instructions each call executes under ``sys.settrace`` with
``frame.f_trace_opcodes`` set: that is the *pass* count, split by the
file each instruction belongs to.  Beside it, the pass counts the
Python frames entered per file (a generator's once per resumption):
opcodes understate the cost of a call, its frame set-up and tear-down,
so a saving made by removing calls shows in frames first.  Checking a result against the
workload's reference digests is not counted; a request whose digest
differs, or that raises, is reported as a problem.

The counts are exact and repeat from run to run, so a change of a few
per cent shows in one run, where wall time needs many pairs.  Imports
compile from source, with no bytecode cache read or written, so the
setup count does not depend on what ``__pycache__`` holds; it does
move by about 140 per directory level of the checkout's path, which
``pathlib`` walks, so compare checkouts at the same depth.  Only
Python frames are counted: time spent inside C functions (``math.gcd``,
``sorted``, dict lookups) shows only as the instructions that call
them, so a count and a wall time can move apart.  Counts depend on the
interpreter version, which is printed with them, so compare counts of
one version only.  Each traced call counts every instruction it runs but
the opening ``RESUME``; on Python 3.12 and later a function is
instrumented only during its first traced call, which goes uncounted.

With one checkout, it prints the setup count, the pass total and each
file's count, share of the pass and frames: every ``src/oagw`` module,
then the other files that hold at least 0.5 % of either side's
opcodes, the rest summed as ``(other)``.  With two, it prints both
sides and the change of each line, in opcodes and in frames.  With
``--callers FILE``, a file as the table names it (``<string>``,
``fractions.py``, ``src/oagw/formulas.py``), the pass also counts the
frames of FILE's code per (function, caller), the caller as
``file:function``, and the table lists them under the files, most
entered first, or says that FILE entered no frame.  ``--json``
prints, in place of each table, one JSON line with each side's
counts, so that two runs compare with ``cmp``.
``perfbench/workloads.py`` is read, never edited.  Only the standard
library is used.
"""

from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Optional

WORKLOADS = ("search", "sweep", "series", "eval")
# a file outside src/oagw gets its own line from this share of a pass up
MIN_SHARE = 0.005


def count_opcodes(
    fn: Callable, *args, entries: Optional[Counter] = None
) -> tuple[object, dict[str, int], dict[str, int]]:
    """``fn(*args)``, the instructions it executed and the Python frames
    it entered, each by code file name.

    The caller's own frame is not traced, only the frames ``fn`` opens.
    A generator's frame counts once per resumption, as each one opens
    it again.  With ``entries``, each frame also adds one there under
    (file, function, caller's file, caller's function).
    """
    cells: dict[str, list[int]] = {}
    tracers: dict[str, Callable] = {}
    frames: dict[str, int] = defaultdict(int)

    def local_for(filename: str) -> Callable:
        cell = cells[filename] = [0]

        def local(frame, event, arg):
            if event == "opcode":
                cell[0] += 1
            return local

        return local

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        frames[filename] += 1
        if entries is not None:
            back = frame.f_back.f_code
            entries[filename, frame.f_code.co_name, back.co_filename, back.co_name] += 1
        local = tracers.get(filename)
        if local is None:
            local = tracers[filename] = local_for(filename)
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    # a gc callback (Hypothesis installs one) runs wherever a collection
    # happens to start, so its frames are not fn's: it is off while counting
    callbacks = gc.callbacks[:]
    gc.callbacks.clear()
    sys.settrace(on_call)
    try:
        result = fn(*args)
    finally:
        sys.settrace(None)
        gc.callbacks[:] = callbacks
    return result, {name: cell[0] for name, cell in cells.items()}, dict(frames)


def _label(filename: str, checkout: Path) -> str:
    """``src/oagw/<module>.py`` and ``perfbench/<file>`` as such, any
    other file by its base name."""
    path = Path(filename)
    for top in ("src", "perfbench"):
        if path.is_relative_to(checkout / top):
            return path.relative_to(checkout).as_posix()
    return path.name


def child(checkout: Path, workload: str, seed: int, callers: Optional[str] = None,
          requests: Optional[int] = None) -> dict:
    """The counts of one workload in ``checkout``, in this interpreter,
    with the entries into the code of ``callers`` by caller if given, over
    the first ``requests`` requests of the pass if given."""
    checkout = checkout.resolve()
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    sys.dont_write_bytecode = True

    def set_up():
        import workloads

        reference = workloads.load_reference(workloads.reference_path(workload))
        return workloads.Runner(workloads.one_pass(workload, seed)[:requests], reference)

    with tempfile.TemporaryDirectory() as cache:
        sys.pycache_prefix = cache  # empty: every import compiles from source
        runner, setup, _ = count_opcodes(set_up)
    totals: dict[str, int] = defaultdict(int)
    frame_totals: dict[str, int] = defaultdict(int)
    entries: Optional[Counter] = Counter() if callers else None
    problems = []
    for req in runner.requests:
        try:
            result, counts, frames = count_opcodes(runner.call, req, entries=entries)
            error = None
        except Exception as exc:  # a raised request is a problem, not a crash
            result, counts, frames, error = None, {}, {}, exc
        for filename, n in counts.items():
            totals[_label(filename, checkout)] += n
        for filename, n in frames.items():
            frame_totals[_label(filename, checkout)] += n
        problem = runner.check(req, result, error)[1]
        if problem:
            problems.append(problem)
    out = {
        "python": sys.version.split()[0],
        "workload": workload,
        "seed": seed,
        "requests": len(runner.requests),
        "problems": problems,
        "setup": sum(setup.values()),
        "total": sum(totals.values()),
        "files": dict(sorted(totals.items())),
        "frames": sum(frame_totals.values()),
        "frame_files": dict(sorted(frame_totals.items())),
    }
    if entries is not None:
        out["callers_of"], out["callers"] = callers, by_caller(entries, callers, checkout)
    return out


def by_caller(entries: Counter, file: str, checkout: Path) -> dict[str, int]:
    """The frames that ``count_opcodes`` put in ``entries`` whose code lives
    in ``file``, a label, by "function <- caller_file:caller_function"."""
    out: dict[str, int] = defaultdict(int)
    for (filename, name, back_file, back_name), n in entries.items():
        if _label(filename, checkout) == file:
            out[f"{name} <- {_label(back_file, checkout)}:{back_name}"] += n
    return dict(sorted(out.items()))


def run_child(checkout: Path, workload: str, seed: int, callers: Optional[str] = None,
              requests: Optional[int] = None) -> dict:
    """``child`` in a fresh interpreter, so imports and caches start cold."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", workload, "--seed", str(seed), str(checkout)]
    if callers:
        cmd += ["--callers", callers]
    if requests is not None:
        cmd += ["--requests", str(requests)]
    done = subprocess.run(cmd, capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"{checkout} {workload}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout)


def _lines(sides: list[dict]) -> list[tuple[str, list[int], list[int]]]:
    """(label, opcodes per side, frames per side) for every line of the table."""
    oagw = sorted({f for s in sides for f in s["files"] if f.startswith("src/oagw/")})
    others = sorted(
        {f for s in sides for f, n in s["files"].items()
         if not f.startswith("src/oagw/") and n >= MIN_SHARE * s["total"]},
        key=lambda f: -max(s["files"].get(f, 0) for s in sides),
    )
    shown = set(oagw) | set(others)

    def per_side(key: str, f: str) -> list[int]:
        return [s[key].get(f, 0) for s in sides]

    def rest(key: str) -> list[int]:
        return [sum(n for f, n in s[key].items() if f not in shown) for s in sides]

    return ([(f, per_side("files", f), per_side("frame_files", f)) for f in oagw + others]
            + [("(other)", rest("files"), rest("frame_files"))])


def _delta(a: int, b: int, width: int) -> str:
    """The change from a to b, absolute and in per cent."""
    return f"{b - a:>+{width},}" + (f"{100 * (b - a) / a:>+8.1f}%" if a else f"{'':>9}")


def report(sides: list[dict]) -> str:
    """The table of one workload: opcodes, their share of the pass and
    frames, one column group per side, and both changes with two sides."""
    first = sides[0]
    out = [f"{first['workload']}: seed {first['seed']}, {first['requests']} requests, "
           f"Python {', '.join(dict.fromkeys(s['python'] for s in sides))}"]
    head = f"{'':<28}" + "".join(f"{'opcodes':>13}{'share':>8}{'frames':>11}" for _ in sides)
    if len(sides) == 2:
        head += f"{'delta':>13}{'change':>9}{'frames':>11}{'change':>9}"
    out.append(head)

    def row(label: str, counts: list[int], frames: list[int] | None, totals: list[int] | None) -> str:
        text = f"{label:<28}"
        for i, n in enumerate(counts):
            share = f"{100 * n / totals[i]:.1f}%" if totals and totals[i] else ""
            text += f"{n:>13,}{share:>8}" + (f"{frames[i]:>11,}" if frames else f"{'':>11}")
        if len(counts) == 2:
            text += _delta(*counts, 13) + (_delta(*frames, 11) if frames else "")
        return text

    out.append(row("setup", [s["setup"] for s in sides], None, None))
    totals = [s["total"] for s in sides]
    out.append(row("pass", totals, [s["frames"] for s in sides], None))
    out.extend(row(f"  {label}", counts, frames, totals) for label, counts, frames in _lines(sides))
    if "callers" in first:
        # the counts first: a caller's label is longer than a file's
        out.append(f"frames of {first['callers_of']} by function <- caller")
        keys = {k for s in sides for k in s["callers"]}
        if not keys:
            # a mistyped FILE enters nothing; an empty table would read as zero frames
            out.append(f"(no frame of {first['callers_of']} entered)")
        for key in sorted(keys, key=lambda k: (-max(s["callers"].get(k, 0) for s in sides), k)):
            counts = [s["callers"].get(key, 0) for s in sides]
            text = "".join(f"{n:>13,}" for n in counts)
            out.append(text + (_delta(*counts, 13) if len(counts) == 2 else "") + f"  {key}")
    out.append("problems: " + ", ".join(str(len(s["problems"])) for s in sides))
    out.extend(f"  {problem}" for s in sides for problem in s["problems"][:3])
    return "\n".join(out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", type=Path, nargs="+", metavar="CHECKOUT")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="the pass order's seed")
    parser.add_argument("--callers", metavar="FILE",
                        help="count the frames of FILE's code per (function, caller)")
    parser.add_argument("--json", action="store_true", help="print each side's counts as JSON")
    parser.add_argument("--requests", type=int, metavar="N",
                        help="count only the first N requests of the pass (smoke runs)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if len(args.checkouts) > 2:
        parser.error("give one or two checkouts")
    if args.requests is not None and args.requests < 1:
        parser.error("--requests must be at least 1")
    for checkout in args.checkouts:
        if not (checkout / "perfbench" / "workloads.py").is_file():
            parser.error(f"{checkout} has no perfbench/workloads.py")
    if args.child:
        print(json.dumps(child(args.checkouts[0], args.workload[0], args.seed, args.callers,
                               args.requests)))
        return 0
    for workload in args.workload or WORKLOADS:
        sides = [run_child(c, workload, args.seed, args.callers, args.requests)
                 for c in args.checkouts]
        print(json.dumps(sides) if args.json else report(sides) + "\n", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
