"""Guard against public helpers that no verdict reaches.

Every undecorated top-level public ``def`` and ``class`` in ``oagw``
must be referenced somewhere in the package outside its own
definition, or by the benchmark in ``perfbench/``.  A helper that only
tests call belongs in the tests.  References are matched by
identifier (a Name, an Attribute or an imported name), so the check
errs on the side of keeping a definition.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "oagw"
PERFBENCH = ROOT / "perfbench"

# name -> why it may stay without a caller
ALLOWED_UNREFERENCED = {
    "parse_term": "entry point of the term grammar, the counterpart of parse_formula",
    "closure_audit": "to be wired into a suite over the ea corpus",
    "classify_prefix": "to be recorded by that same ea-corpus suite",
    "neg_rphi_normalize": "to be checked by an rphi-vs-search suite",
}


def _referenced_names(node: ast.AST) -> set[str]:
    names: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in sub.names)
    return names


def _unreferenced() -> set[str]:
    """Undecorated public top-level definitions that nothing outside them names."""
    tops = [top for p in sorted(PACKAGE.glob("*.py")) for top in ast.parse(p.read_text()).body]
    refs = [_referenced_names(top) for top in tops]
    bench: set[str] = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        bench |= _referenced_names(ast.parse(path.read_text()))
    return {
        node.name
        for i, node in enumerate(tops)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.decorator_list
        and not node.name.startswith("_")
        and node.name not in bench
        and not any(node.name in r for j, r in enumerate(refs) if j != i)
    }


def test_every_public_definition_is_reached():
    stray = sorted(_unreferenced() - ALLOWED_UNREFERENCED.keys())
    assert not stray, f"public definitions only tests can reach: {stray}"


def test_every_allowed_exception_is_still_unreferenced():
    # an exception that gained a caller is no longer an exception
    stale = sorted(ALLOWED_UNREFERENCED.keys() - _unreferenced())
    assert not stale, f"drop these from ALLOWED_UNREFERENCED: {stale}"
