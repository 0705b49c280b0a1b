"""Guard against public helpers and parameters that no verdict reaches.

Every undecorated top-level public ``def`` and ``class`` in ``oagw``
must be referenced somewhere in the package outside its own
definition, or by the benchmark in ``perfbench/``.  A helper that only
tests call belongs in the tests.  References are matched by
identifier (a Name, an Attribute or an imported name), so the check
errs on the side of keeping a definition.

Likewise every defaulted parameter of an undecorated top-level function
must be passed by some call in ``src/`` or ``perfbench/``, by position
or by keyword.  Calls are matched by the called name, and a call with
``*args`` or ``**kwargs`` counts as passing everything, so this check
too errs on the side of keeping a parameter.

The divisible hull stays a leaf: ``hull.py`` imports nothing from the
package but ``formulas``, so a checker built on it never reaches the
fragments or the evaluator.  ``evaluate.py`` binds ``hull`` as a module
and imports none of its names, so the benchmark's tracer, which wraps
every function ``evaluate`` imports by name, keeps hull time inside the
evaluator's own.

The reference models in ``tests/reference.py`` check the fragments, the
congruence closed form and the evaluator, so they import none of
``fragments``, ``predicates``, ``hull`` or ``suites``, and nothing from
``evaluate`` but ``Truth`` and ``Verdict``.
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
    "classify_prefix": "to be recorded per row by the prefix-census suite of ROADMAP item 18",
}


# "function(parameter)" -> why the default may be all that callers use
ALLOWED_UNPASSED = {
    "main(argv)": "the console script calls main() and reads sys.argv; tests pass argv",
    "parse_term(construction)": "the term grammar mirrors parse_formula, whose callers pass it",
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


def _calls_by_name() -> dict[str, list[ast.Call]]:
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    calls: dict[str, list[ast.Call]] = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name:
                    calls.setdefault(name, []).append(node)
    return calls


def _passes(call: ast.Call, index: int | None, name: str) -> bool:
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
        return True
    return (index is not None and len(call.args) > index) or any(k.arg == name for k in call.keywords)


def _unpassed() -> set[str]:
    """Defaulted parameters of top-level functions that no call passes."""
    calls = _calls_by_name()
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.parse(path.read_text()).body:
            if not isinstance(fn, ast.FunctionDef) or fn.decorator_list:
                continue
            a = fn.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            defaulted = [(i, arg.arg) for i, arg in enumerate(positional) if i >= first]
            defaulted += [(None, arg.arg) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            for index, name in defaulted:
                if not any(_passes(c, index, name) for c in calls.get(fn.name, ())):
                    out.add(f"{fn.name}({name})")
    return out


def test_every_defaulted_parameter_is_passed():
    stray = sorted(_unpassed() - ALLOWED_UNPASSED.keys())
    assert not stray, f"defaulted parameters no call passes: {stray}"


def test_every_allowed_unpassed_parameter_is_still_unpassed():
    stale = sorted(ALLOWED_UNPASSED.keys() - _unpassed())
    assert not stale, f"drop these from ALLOWED_UNPASSED: {stale}"


def _package_imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) of every import in ``path`` from the oagw package,
    name "" for a plain ``import``; ``from . import m`` gives ("oagw", "m")."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out += [(a.name, "") for a in node.names if a.name.split(".")[0] == "oagw"]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["oagw" if node.level else "", node.module]))
            if module.split(".")[0] == "oagw":
                out += [(module, a.name) for a in node.names]
    return out


def test_the_hull_imports_only_formulas():
    reached = {
        f"oagw.{name}" if module == "oagw" else module
        for module, name in _package_imports(PACKAGE / "hull.py")
    }
    assert reached <= {"oagw.formulas"}, f"hull.py reaches {sorted(reached)}"


def test_the_reference_models_share_no_search_code():
    # the models check the search layers, so they must not run them
    imports = _package_imports(ROOT / "tests" / "reference.py")
    searching = {"oagw.fragments", "oagw.predicates", "oagw.hull", "oagw.suites"}
    reached = sorted(
        f"{module}.{name}" if name else module
        for module, name in imports
        if module in searching
        or (module == "oagw" and f"oagw.{name}" in searching | {"oagw.evaluate"})
        or (module == "oagw.evaluate" and name not in {"Truth", "Verdict"})
    )
    assert not reached, f"tests/reference.py imports {reached}"


def test_evaluate_binds_the_hull_as_a_module():
    imports = _package_imports(PACKAGE / "evaluate.py")
    assert ("oagw", "hull") in imports
    names = sorted(name for module, name in imports if module == "oagw.hull" and name)
    assert not names, f"evaluate.py imports {names} from the hull by name"
