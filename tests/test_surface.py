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

The reference models in ``tests/reference.py`` check the elements, the
fragments, the congruence closed form and the evaluator, so they import
none of ``fragments``, ``predicates``, ``hull`` or ``suites``, nothing
from ``evaluate`` but ``Truth`` and ``Verdict``, and nothing from
``elements`` but ``GroupElement``, the two constructions and
``LeadDescriptor``.  Run on a small fixed corpus, the search models and
the series model of ``tests/test_hahn.py`` enter no function of
``elements.py`` but the frames of the validating constructor and
``__eq__``: they compute in the element model, not with the arithmetic
they check.
"""

from __future__ import annotations

import ast
from fractions import Fraction
from pathlib import Path

from conftest import element_calls

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
    # the models check the search and element layers, so they must not run them
    imports = _package_imports(ROOT / "tests" / "reference.py")
    searching = {"oagw.fragments", "oagw.predicates", "oagw.hull", "oagw.suites"}
    reached = sorted(
        f"{module}.{name}" if name else module
        for module, name in imports
        if module in searching
        or (module == "oagw" and f"oagw.{name}" in searching | {"oagw.evaluate", "oagw.elements"})
        or (module == "oagw.evaluate" and name not in {"Truth", "Verdict"})
        or (module == "oagw.elements" and name not in {"GroupElement", "GAMMA", "LAMBDA", "LeadDescriptor"})
    )
    assert not reached, f"tests/reference.py imports {reached}"


# the frames of the validating GroupElement(...) constructor
VALIDATING_FRAMES = {
    "__init__", "<genexpr>", "__post_init__", "uses_poly", "_canon_value", "_canon_poly", "_local_prime",
}


def _model_run(construction, elems, formulas):
    """A call of every search and series model on the elements."""
    import reference
    import test_hahn
    from oagw.fragments import FragmentConfig
    from oagw.hahn import QQ, series

    a, b, c = elems
    cfg = FragmentConfig(2, (b, c), 60)
    f = test_hahn.model_terms(series(construction, {a: 1, b: Fraction(-1, 2), a + b: 3}))
    g = test_hahn.model_terms(series(construction, {b: 2, c: 1, -c: 1}))
    return lambda: (
        list(reference.fragment(construction, [a], cfg)),
        [reference.cong_free_below(n, x, y) for n in (2, 3) for x in elems for y in elems],
        [reference.evaluate(construction, h, {"a": a}, cfg) for h in formulas],
        sorted(test_hahn.model_product(QQ, f, g).items(), key=test_hahn._BY_EXPONENT),
        test_hahn.model_sum(QQ, f, test_hahn.model_neg(QQ, g)),
        test_hahn.model_flags(g),
    )


def test_the_reference_models_enter_no_element_method():
    # the models compute in the element model: of elements.py they enter
    # only the validating constructor, and == where a caller compares
    from oagw.elements import GAMMA, LAMBDA, element, unit
    from oagw.formulas import parse_formula
    from oagw.positions import g1_circle, g1_square, g2_circle, g2_square

    texts = (
        "E x. 0 < x & x < a & ~cong(2, x, a) & desc_lt(3, a, x + x)",
        "A x. (0 < x & x < {G2[0].s: 1}) -> ~x = a",
        "E x. E y. x = y + y & {G2[0].c: 1} < x",
    )
    corpus = {
        LAMBDA: [
            element(LAMBDA, {g2_circle(0): Fraction(1, 2), g1_square(0, 0): {0: 1, 1: -2}}),
            unit(LAMBDA, g2_square(1)),
            unit(LAMBDA, g1_square(0, 1), {2: 3}),
        ],
        GAMMA: [
            element(GAMMA, {g2_circle(0): Fraction(1, 3), g2_square(0): Fraction(-5, 2)}),
            unit(GAMMA, g1_circle(0), 2),
            unit(GAMMA, g2_square(1)),
        ],
    }
    entered = set()
    for construction, elems in corpus.items():
        formulas = [parse_formula(text, construction) for text in texts]
        entered.update(element_calls(_model_run(construction, elems, formulas)))
    assert "__init__" in entered
    stray = sorted(entered - VALIDATING_FRAMES - {"__eq__"})
    assert not stray, f"the reference models enter {stray}"


def test_evaluate_binds_the_hull_as_a_module():
    imports = _package_imports(PACKAGE / "evaluate.py")
    assert ("oagw", "hull") in imports
    names = sorted(name for module, name in imports if module == "oagw.hull" and name)
    assert not names, f"evaluate.py imports {names} from the hull by name"
