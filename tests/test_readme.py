"""The README's examples and catalog, checked against the program.

Every fenced ``console`` block of ``README.md`` is a session.  Each
``$ oagw ...`` line, with its ``\\`` continuations joined, is a command,
split with ``shlex``; the lines up to the next command are its expected
stdout, closed by ``[exit N]`` when its exit status N is not 0.  Each
command runs in process through ``oagw.cli.main``, in a fresh working
directory, and must print exactly that stdout and exit with that
status.  The one allowance is the wall time that ends a suite's summary
line, which the README writes as ``(… ms)``; no other wall time may
appear in an expected output.

The suite table and the demo list are compared with ``SUITES`` and
``DEMOS``: the names, the constructions (the default one first), the
default sample count ("-" for a fixed scan), the ``--coeff-bound``
default ("-" for none) and each docstring's first line.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from oagw.cli import main
from oagw.suites import DEMOS, SUITES

README = Path(__file__).resolve().parent.parent / "README.md"

_SUMMARY = re.compile(r"^(\S+ \[\w+\] seed=-?\d+: \d+ pass, \d+ fail, \d+ unknown) \(\d+ ms\)$")
_EXIT = re.compile(r"^\[exit (\d+)\]$")
_WALL_TIME = re.compile(r"\d(\.\d+)? ?(ms|s)\b")


def _text() -> str:
    return README.read_text(encoding="utf-8")


def _blocks(text: str, lang: str) -> list[list[str]]:
    """The lines of every fenced block opened by ```lang."""
    blocks, current = [], None
    for line in text.splitlines():
        if current is None:
            if line == "```" + lang:
                current = []
        elif line == "```":
            blocks.append(current)
            current = None
        else:
            current.append(line)
    return blocks


def _examples(text: str) -> list[tuple[str, list[str], list[str], int]]:
    """(command, argv, expected stdout lines, expected status) per command."""
    examples = []
    for block in _blocks(text, "console"):
        i = 0
        while i < len(block):
            line = block[i]
            assert line.startswith("$ oagw "), f"not a command: {line!r}"
            command = line[2:]
            while command.endswith("\\"):
                i += 1
                command = command[:-1] + block[i].strip()
            i += 1
            out = []
            while i < len(block) and not block[i].startswith("$ "):
                out.append(block[i])
                i += 1
            status = 0
            if out and _EXIT.match(out[-1]):
                status = int(_EXIT.match(out.pop()).group(1))
            examples.append((command, shlex.split(command)[1:], out, status))
    return examples


def _run(argv: list[str], capsys) -> tuple[list[str], int]:
    try:
        status = main(argv)
    except SystemExit as exc:  # a usage error
        status = exc.code
    out = capsys.readouterr().out.splitlines()
    return [_SUMMARY.sub(r"\1 (… ms)", line) for line in out], status or 0


def test_every_example_prints_what_the_readme_says(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    wrong = []
    for command, argv, want, status in _examples(_text()):
        got = _run(argv, capsys)
        if got != (want, status):
            wrong.append(f"$ {command}\n  README: {(want, status)}\n  ran:    {got}")
    assert not wrong, "\n".join(wrong)


def test_every_command_line_is_an_example():
    text = _text()
    examples = _examples(text)
    commands = [line for line in text.splitlines() if line.startswith("$ ")]
    assert len(commands) == len(examples)
    # a wall time other than the masked summary suffix would not repeat
    for command, _, want, _ in examples:
        for line in want:
            assert not _WALL_TIME.search(line.replace("(… ms)", "")), (command, line)


def _argvs() -> list[list[str]]:
    return [argv for _, argv, _, _ in _examples(_text())]


_GAMMA_POOLS = ["--pool", "{G2[0].c: 1}", "--pool", "{G2[1].s: 1}", "--pool", "{G1[0].c: 1}"]


@pytest.mark.parametrize(
    "formula",
    ["A x. A y. E z. x + y = 2*z", "A x. A y. A z. (x < y & y < z -> x < z)"],
)
def test_the_gamma_sentences_no_search_can_decide_are_shown(formula):
    argv = ["eval", "--construction", "gamma", "--formula", formula, *_GAMMA_POOLS]
    shown = {tuple(a): (out, status) for _, a, out, status in _examples(_text())}
    assert shown[tuple(argv)] == (["verdict: unknown", "reason: fragment bounds exhausted"], 0)


def test_the_other_required_examples_are_shown():
    argvs = _argvs()
    formulas = [a[a.index("--formula") + 1] for a in argvs if "--formula" in a]
    assert "E x. x + x = {G2[0].c: 1}" in formulas
    assert any(a[:3] == ["eval", "--formula", "desc_lt(2, x, y)"] and "--bind" in a for a in argvs)
    assert any(a[0] == "check" and "--json" in a for a in argvs)
    assert any(a[0] == "demo" for a in argvs)


def _section(text: str, heading: str) -> list[str]:
    lines = text.splitlines()
    start = lines.index(heading) + 1
    end = next((i for i in range(start, len(lines)) if lines[i].startswith("## ")), len(lines))
    return lines[start:end]


def _declared(record) -> tuple[str, str, str, str]:
    return (
        record.body.__doc__.strip().splitlines()[0],
        ", ".join(map(str, record.constructions)),
        "-" if record.samples is None else str(record.samples),
        "-" if record.coeff_bound is None else str(record.coeff_bound),
    )


def test_the_suite_table_matches_the_registry():
    rows = {}
    for line in _section(_text(), "## Suite catalog"):
        if line.startswith("| `"):
            name, checks, constructions, samples, coeff_bound = (
                cell.strip() for cell in line.strip("|").split("|")
            )
            rows[name.strip("`")] = (checks, constructions, samples, coeff_bound)
    assert rows == {name: _declared(record) for name, record in SUITES.items()}


_DEMO = re.compile(r"^\* `([\w-]+)` \(([\w, ]+)\): (.*)$")


def test_the_demo_list_matches_the_registry():
    items = {}
    for line in _section(_text(), "## Demos"):
        m = _DEMO.match(line)
        if m:
            items[m.group(1)] = (m.group(3), m.group(2))
    assert items == {name: _declared(record)[:2] for name, record in DEMOS.items()}
