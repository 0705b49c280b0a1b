import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

import oagw
from conftest import generated_calls, seeded_elements
from oagw.cli import build_parser, main
from oagw.elements import GAMMA, LAMBDA, parse_element, zero
from oagw.suites import (
    DEMOS,
    SUITES,
    CaseRecord,
    SuiteOptions,
    SuiteReport,
    _psi_candidates,
    _psi_fragment,
    run_suite,
)


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suite("no-such-suite", SuiteOptions())


def test_a_row_is_recorded_without_generated_code():
    rep = SuiteReport("s", "lambda", 1)
    a = parse_element("{G2[0].c: 1/2, G1[0].s[0]: 3-c1}", LAMBDA)
    assert generated_calls(lambda: (
        rep.record("unknown", "why", a=a, k=3),
        rep.check(True, "unused", x=None),
        rep.check(False, "bad", y="t", a=a),
    )) == []
    text = "{G2[0].c: 1/2, G1[0].s[0]: 3-1*c1}"
    assert rep.cases == [
        CaseRecord({"a": text, "k": "3"}, "unknown", "why"),
        CaseRecord({"x": "None"}, "pass"),
        CaseRecord({"y": "t", "a": text}, "fail", "bad"),
    ]
    assert json.dumps(rep.to_json_dict()) == json.dumps({
        "suite": "s", "construction": "lambda", "seed": 1,
        "counts": {"pass": 1, "fail": 1, "unknown": 1},
        "cases": [
            {"inputs": {"a": text, "k": "3"}, "verdict": "unknown", "detail": "why"},
            {"inputs": {"x": "None"}, "verdict": "pass", "detail": ""},
            {"inputs": {"y": "t", "a": text}, "verdict": "fail", "detail": "bad"},
        ],
    })


def test_catalog_complete():
    expected = {
        "psi-vs-search",
        "hprime-descriptor",
        "hprime-locality",
        "lambda1-formula",
        "embedding-laws",
        "f1-exists-closure",
        "f1-ea-closure",
        "f2-interval",
        "gamma-counterexample",
        "lambda-repair",
        "hahn-ring",
        "a-membership",
        "translation-soundness",
        "perturbation",
        "truncated-inverse",
    }
    assert set(SUITES) == expected


def test_report_counts_consistent():
    r = run_suite("hahn-ring", SuiteOptions(seed=3, samples=25))
    c = r.counts
    assert c["pass"] + c["fail"] + c["unknown"] == len(r.cases)
    assert r.ok


def test_f2_interval_decides_every_sampled_case():
    # every sampled pair qualifies, so the suite is a plain case loop
    for seed in range(16):
        r = run_suite("f2-interval", SuiteOptions(seed=seed, samples=200))
        assert len(r.cases) == 200 and r.counts["unknown"] == 0


def test_json_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    args = [
        "check",
        "perturbation",
        "--seed",
        "11",
        "--samples",
        "20",
    ]
    assert main(args + ["--json", str(p1)]) == 0
    assert main(args + ["--json", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    payload = json.loads(p1.read_text())
    assert payload["suite"] == "perturbation"
    assert "wall" not in json.dumps(payload).lower()


def test_exit_code_contract(tmp_path):
    assert main(["check", "lambda1-formula", "--samples", "30"]) == 0
    assert main(["demo", "ha-witness"]) == 0


def test_check_prints_each_row_that_does_not_pass(capsys):
    # the 9 Unknown rows of the gamma closure suite at the default seed
    assert main(["check", "f1-exists-closure", "--construction", "gamma"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("f1-exists-closure [gamma] seed=42: 91 pass, 0 fail, 9 unknown")
    assert len(lines) == 10
    for line in lines[1:]:
        assert line.startswith("  [unknown] formula=E x. ")
        assert line.endswith("  full-group witness not found")


def test_eval_command(capsys):
    rc = main(
        [
            "eval",
            "--construction",
            "lambda",
            "--formula",
            "E x. cong(2, x, {G1[0].s[0]: 1})",
            "--pool",
            "{G1[0].s[0]: 1}",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "verdict: true" in out
    assert "witness" in out


def test_eval_false(capsys):
    rc = main(["eval", "--formula", "0 < 0"])
    assert rc == 0
    assert "verdict: false" in capsys.readouterr().out


def test_eval_unknown_with_bounds(capsys):
    rc = main(
        [
            "eval",
            "--formula",
            "E x. x + x = {G1[0].s[0]: 1}",
            "--coeff-bound",
            "1",
            "--size-cap",
            "8",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "verdict: unknown" in out
    assert "fragment bounds exhausted" in out


def test_eval_of_a_sentence_search_cannot_decide_enumerates_nothing(monkeypatch, capsys):
    # at the default --size-cap 600 a search would walk up to 600**3 candidates
    def no_fragment(params, cfg, construction):
        raise AssertionError("a fragment was enumerated")

    monkeypatch.setattr("oagw.evaluate.iter_fragment", no_fragment)
    rc = main(
        [
            "eval",
            "--construction",
            "gamma",
            "--formula",
            "A x. A y. E z. x + y = 2*z",
            "--pool",
            "{G2[0].c: 1}",
            "--pool",
            "{G2[1].s: 1}",
            "--pool",
            "{G1[0].c: 1}",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "verdict: unknown" in out
    assert "reason: fragment bounds exhausted" in out


def test_eval_of_transitivity_enumerates_nothing(monkeypatch, capsys):
    # no counterexample has a solution in the divisible hull, so no search
    # runs, where at --size-cap 600 one would walk up to 600**3 candidates
    calls = []
    monkeypatch.setattr("oagw.evaluate.iter_fragment", lambda *args: calls.append(args) or ())
    formula = "A x. A y. A z. (x < y & y < z -> x < z)"
    pools = ["{G2[0].c: 1}", "{G2[1].s: 1}", "{G1[0].c: 1}"]
    args = ["eval", "--construction", "gamma", "--formula", formula]
    rc = main(args + [a for pool in pools for a in ("--pool", pool)])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[0] == "verdict: unknown"
    assert calls == []


def test_eval_with_binding(capsys):
    rc = main(
        [
            "eval",
            "--formula",
            "0 < x",
            "--bind",
            "x={G1[2].s[0]: 3}",
        ]
    )
    assert rc == 0
    assert "verdict: true" in capsys.readouterr().out


def test_eval_prints_the_bindings_of_sibling_quantifiers(capsys):
    formula = "E x. (E y. y = x + {G2[0].c: 1}) & (E z. z + z = x)"
    rc = main(["eval", "--formula", formula, "--pool", "{G2[0].c: 1}", "--size-cap", "20"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == [
        "verdict: true",
        "witness x = 0",
        "witness y = {G2[0].c: 1}",
        "witness z = 0",
    ]


_UNBOUND = "unbound free variables {}; bind each with --bind VAR=LITERAL"


@pytest.mark.parametrize(
    "args, message",
    [
        (["--formula", "x < y"], _UNBOUND.format("['x', 'y']")),
        (["--formula", "x < y", "--bind", "x={G1[0].s[0]: 1}"], _UNBOUND.format("['y']")),
        (
            ["--formula", "0 < x", "--bind", "x={G1[0].s[0]: 1}", "--bind", "x={G2[0].c: -1}"],
            "variable 'x' is bound more than once",
        ),
        (["--formula", "0 < x", "--bind", "x"], "bad binding 'x', expected VAR=LITERAL"),
        (
            ["--formula", "E x. x + x = {G2[0].c: 1}", "--bind", "w={G2[0].c: 1/2}"],
            "variable 'w' is not free in the formula",
        ),
        (
            ["--formula", "0 < x", "--bind", "x={G2[0].c: 1}", "--bind", "1+={G2[0].c: 1}"],
            "variable '1+' is not free in the formula",
        ),
    ],
    ids=["unbound", "partly-bound", "bound-twice", "malformed", "not-free", "not-a-name"],
)
def test_eval_binding_errors(args, message, capsys):
    # each is a one-line usage error on stderr, never a traceback
    rc = main(["eval", *args])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("value", ["1/0", "0/0"])
@pytest.mark.parametrize(
    "args",
    [
        ["--formula", "x = {G2[0].c: VALUE}", "--bind", "x={G2[0].c: 1}"],
        ["--formula", "x = x", "--bind", "x={G2[0].c: VALUE}"],
        ["--formula", "E x. x = x", "--pool", "{G2[0].c: VALUE}"],
    ],
    ids=["formula", "bind", "pool"],
)
def test_eval_zero_denominator_is_a_usage_error(args, value, capsys):
    rc = main(["eval", *(a.replace("VALUE", value) for a in args)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: at index ")
    assert f"zero denominator in '{value}'" in lines[0]


def test_eval_pool_error_counts_from_the_start_of_the_literal(capsys):
    rc = main(["eval", "--formula", "E x. x = x", "--pool", " {G2[0].c: 1/0}"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == "error: at index 11: zero denominator in '1/0' in ' {G2[0].c: 1/0}'\n"


def test_eval_pool_polynomial_error_points_at_the_bad_term(capsys):
    rc = main(["eval", "--formula", "E x. x = x", "--pool", "{G2[0].s:   1 + x}"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == "error: at index 14: expected polynomial term in '{G2[0].s:   1 + x}'\n"


def _eval_in_a_child_process(*args):
    src = str(Path(oagw.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "oagw.cli", "eval", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_eval_unbound_variable_in_a_child_process():
    proc = _eval_in_a_child_process("--formula", "x < y")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: unbound free variables")


def test_eval_malformed_rphi_in_a_child_process():
    # z2 is a bounded variable of the system, so it cannot sit inside a sum
    proc = _eval_in_a_child_process(
        "--formula",
        "rphi(2; z1 z2 < a; ; z1 ~ z2 + b)",
        "--bind",
        "a={G1[0].s[0]: 2}",
        "--bind",
        "b={G1[0].s[0]: 1}",
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "congruence right side" in lines[0]


def test_gen_corpus(capsys):
    rc = main(["gen", "corpus", "--kind", "exists", "--count", "5", "--seed", "9"])
    out = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert len(out) == 5
    from oagw.formulas import parse_formula

    for line in out:
        parse_formula(line)  # every generated sentence must parse


def test_gen_corpus_ea(capsys):
    rc = main(["gen", "corpus", "--kind", "ea", "--count", "3"])
    out = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    from oagw.formulas import classify_prefix, parse_formula

    for line in out:
        assert classify_prefix(parse_formula(line)).startswith("∃∀")


def test_entry_point_runs():
    # the child imports the same oagw as this test, however pytest found it
    src = str(Path(oagw.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "oagw.cli", "check", "truncated-inverse", "--samples", "10"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "truncated-inverse" in proc.stdout


def test_output_independent_of_the_hash_seed(tmp_path):
    """Verdicts, witnesses and element hashes are the same under any PYTHONHASHSEED."""
    src = str(Path(oagw.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    hash_unit = (
        "from oagw.elements import GAMMA, unit\n"
        "from oagw.positions import g2_square\n"
        "print(hash(unit(GAMMA, g2_square(1))))"
    )
    outputs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed}
        report = tmp_path / f"psi-{seed}.json"
        commands = [
            ["-m", "oagw.cli", "check", "psi-vs-search", "--json", str(report), "--samples", "20"],
            ["-m", "oagw.cli", "eval", "--construction", "gamma",
             "--formula", "E x. E y. x + y = {G2[0].c: 1} & 0 < y & y < x",
             "--pool", "{G2[0].c: 1}", "--pool", "{G1[0].s[0]: 1}", "--size-cap", "40"],
            ["-c", hash_unit],
        ]
        run = []
        for args in commands:
            proc = subprocess.run(
                [sys.executable, *args], capture_output=True, text=True, env=env
            )
            assert proc.returncode == 0, proc.stderr
            run.append(proc.stdout)
        # the check's own stdout carries its wall time, so its JSON is compared
        run[0] = report.read_text()
        outputs.append(run)
    assert "witness y" in outputs[0][1]
    assert outputs[0] == outputs[1]


def test_reports_reproducible_across_runs():
    a = run_suite("hprime-locality", SuiteOptions(seed=5, samples=40))
    b = run_suite("hprime-locality", SuiteOptions(seed=5, samples=40))
    assert a.to_json_dict() == b.to_json_dict()
    c = run_suite("hprime-locality", SuiteOptions(seed=6, samples=40))
    assert a.to_json_dict() != c.to_json_dict()


_USAGE_ERRORS = [
    (["check", "lambda1-formula", "--samples", "0"], "must be at least"),
    (["check", "lambda1-formula", "--samples", "-3"], "must be at least"),
    (["check", "psi-vs-search", "--coeff-bound", "-1"], "must be at least"),
    (["eval", "--formula", "0 < 0", "--size-cap", "0"], "must be at least"),
    (["eval", "--formula", "0 < 0", "--coeff-bound", "-1"], "must be at least"),
    (["gen", "corpus", "--kind", "exists", "--count", "-3"], "must be at least"),
    (["check", "a-membership", "--construction", "gamma", "--samples", "2"],
     "a-membership runs on lambda, not gamma"),
    (["check", "hahn-ring", "--coeff-bound", "9"], "hahn-ring reads no coefficient bound"),
    (["check", "lambda-repair", "--samples", "5"], "lambda-repair runs a fixed scan"),
    (["eval", "--formula", "0 < 0", "--seed", "3"], "unrecognized arguments: --seed 3"),
]


@pytest.mark.parametrize(
    "argv, message", _USAGE_ERRORS, ids=[f"argv{i}" for i in range(len(_USAGE_ERRORS))]
)
def test_out_of_range_counts_rejected(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_a_fixed_scan_suite_takes_samples_only_in_process(capsys):
    # perfbench/workloads.py runs lambda-repair with samples=1; the scan
    # ignores it, and the command line rejects it
    asked = SuiteOptions(LAMBDA, seed=3, samples=1)
    assert SUITES["lambda-repair"].options(asked).samples == 1
    assert (
        run_suite("lambda-repair", asked).to_json_dict()
        == run_suite("lambda-repair", SuiteOptions(LAMBDA, seed=3)).to_json_dict()
    )
    with pytest.raises(SystemExit) as exc:
        main(["check", "lambda-repair", "--samples", "1"])
    assert exc.value.code == 2
    assert "lambda-repair runs a fixed scan and takes no --samples" in capsys.readouterr().err


def test_zero_samples_means_zero_not_the_default():
    assert SUITES["hahn-ring"].options(SuiteOptions(samples=0)).samples == 0
    assert SUITES["hahn-ring"].options(SuiteOptions()).samples == 1000
    assert run_suite("hahn-ring", SuiteOptions(samples=0)).cases == []


@pytest.fixture
def no_case_runs(monkeypatch):
    import oagw.suites

    def case_rng(seed, i):
        raise AssertionError("a case ran")

    monkeypatch.setattr(oagw.suites, "case_rng", case_rng)


@pytest.mark.parametrize("coeff_bound", [-1, 2.0])
@pytest.mark.parametrize("seed", range(6))
def test_bad_coeff_bound_rejected_before_any_case(no_case_runs, seed, coeff_bound):
    opts = SuiteOptions(LAMBDA, seed=seed, samples=1, coeff_bound=coeff_bound)
    with pytest.raises(ValueError, match="coeff_bound"):
        run_suite("psi-vs-search", opts)


@pytest.mark.parametrize("samples", [-1, 1.5, 2.0, "3", True])
def test_bad_sample_count_rejected_before_any_case(no_case_runs, samples):
    with pytest.raises(ValueError, match="samples"):
        run_suite("hahn-ring", SuiteOptions(samples=samples))


def test_zero_coeff_bound_is_honoured(monkeypatch):
    import oagw.suites

    bounds = []
    real = oagw.suites.iter_fragment

    def spy(params, cfg, construction):
        bounds.append(cfg.coeff_bound)
        return real(params, cfg, construction)

    monkeypatch.setattr(oagw.suites, "iter_fragment", spy)
    run_suite("psi-vs-search", SuiteOptions(samples=2, coeff_bound=0))
    assert bounds and set(bounds) == {0}
    bounds.clear()
    run_suite("psi-vs-search", SuiteOptions(samples=2))
    assert bounds and set(bounds) == {3}


def _fragments_per_case(monkeypatch, name, opts):
    """Run a suite; per case, the fragments it enumerated, its psi closed
    forms and whether the psi bound b is positive."""
    import oagw.suites

    cases = []
    real_rng = oagw.suites.case_rng
    real_fragment = oagw.suites.iter_fragment
    real_closed = oagw.suites.cong_free_below

    def case_rng(seed, i):
        cases.append({"fragments": 0, "closed": [], "b_positive": None})
        return real_rng(seed, i)

    def iter_fragment(params, cfg, construction):
        cases[-1]["fragments"] += 1
        return real_fragment(params, cfg, construction)

    def cong_free_below(n, a, b):
        result = real_closed(n, a, b)
        cases[-1]["closed"].append(result)
        cases[-1]["b_positive"] = b.sign() > 0
        return result

    monkeypatch.setattr(oagw.suites, "case_rng", case_rng)
    monkeypatch.setattr(oagw.suites, "iter_fragment", iter_fragment)
    monkeypatch.setattr(oagw.suites, "cong_free_below", cong_free_below)
    assert run_suite(name, opts).ok
    assert len(cases) == opts.samples
    return cases


@pytest.mark.parametrize("construction", [LAMBDA, GAMMA])
def test_hprime_descriptor_enumerates_once_per_case(monkeypatch, construction):
    cases = _fragments_per_case(
        monkeypatch, "hprime-descriptor", SuiteOptions(construction, samples=30)
    )
    assert all(case["fragments"] <= 1 for case in cases)


@pytest.mark.parametrize("construction", [LAMBDA, GAMMA])
def test_psi_vs_search_enumerates_only_for_a_true_closed_form(monkeypatch, construction):
    cases = _fragments_per_case(
        monkeypatch, "psi-vs-search", SuiteOptions(construction, samples=60)
    )
    kinds = set()
    for case in cases:
        assert len(case["closed"]) == 2
        if not any(case["closed"]):
            kinds.add("closed False")
        else:
            kinds.add("search" if case["b_positive"] else "empty interval")
        assert case["fragments"] == (1 if any(case["closed"]) and case["b_positive"] else 0)
    # every kind of case occurs, so the check above has teeth
    assert kinds == {"closed False", "empty interval", "search"}


def _b_of_sign(b, sign):
    """``b`` (nonzero) turned into an element of the given sign."""
    if sign == 0:
        return zero(b.construction)
    return b if b.sign() == sign else -b


@pytest.mark.parametrize("b_sign", [-1, 0, 1])
class TestPsiCandidates:
    """Skipping the scan when b <= 0 loses no candidate and keeps the order."""

    @staticmethod
    def check(construction, a, b):
        opts = SUITES["psi-vs-search"].options(SuiteOptions(construction))
        scan = [y for y in _psi_fragment(opts, a, b) if y.sign() > 0 and y < b]
        if b.sign() <= 0:
            # the interval (0, b) is empty in an ordered group
            assert scan == []
        assert _psi_candidates(opts, a, b) == scan

    @settings(max_examples=100, deadline=None)
    @given(a=seeded_elements(LAMBDA), b=seeded_elements(LAMBDA, allow_zero=False))
    def test_lambda(self, b_sign, a, b):
        self.check(LAMBDA, a, _b_of_sign(b, b_sign))

    @settings(max_examples=100, deadline=None)
    @given(a=seeded_elements(GAMMA), b=seeded_elements(GAMMA, allow_zero=False))
    def test_gamma(self, b_sign, a, b):
        self.check(GAMMA, a, _b_of_sign(b, b_sign))


def test_coeff_bound_zero_accepted_on_the_command_line():
    assert main(["check", "psi-vs-search", "--samples", "2", "--coeff-bound", "0"]) == 0


def _registered():
    return sorted({**SUITES, **DEMOS}.items())


@pytest.mark.parametrize(
    "name, construction",
    [
        (name, c)
        for name, record in _registered()
        for c in record.constructions
    ],
)
def test_every_declared_construction_runs(name, construction):
    report = {**SUITES, **DEMOS}[name](SuiteOptions(construction, seed=1, samples=1))
    assert report.suite == name
    assert report.construction == str(construction)
    assert report.cases


def test_declarations():
    assert SUITES["gamma-counterexample"].constructions == (GAMMA,)
    assert SUITES["psi-vs-search"].constructions == (LAMBDA, GAMMA)
    assert SUITES["psi-vs-search"].coeff_bound == 3
    assert [n for n, r in _registered() if r.coeff_bound is not None] == ["psi-vs-search"]
    assert set(DEMOS) - set(SUITES) == {"ha-witness"}
    assert SUITES["lambda-repair"] is DEMOS["lambda-repair"]


def test_cli_choices_come_from_the_registry():
    parser = build_parser()
    subcommands = next(a for a in parser._actions if a.dest == "command").choices
    suite_arg = next(a for a in subcommands["check"]._actions if a.dest == "suite")
    demo_arg = next(a for a in subcommands["demo"]._actions if a.dest == "name")
    assert suite_arg.choices == sorted(SUITES)
    assert demo_arg.choices == sorted(DEMOS)


def test_construction_defaults_to_the_first_declared():
    assert SUITES["gamma-counterexample"].options(SuiteOptions(seed=3)).construction is GAMMA
    assert SUITES["hahn-ring"].options(SuiteOptions()).construction is LAMBDA
    assert run_suite("a-membership", SuiteOptions(samples=1)).construction == "lambda"
    with pytest.raises(ValueError, match="runs on lambda, not gamma"):
        run_suite("a-membership", SuiteOptions(GAMMA, samples=1))
    with pytest.raises(ValueError, match="runs on gamma, not lambda"):
        run_suite("gamma-counterexample", SuiteOptions(LAMBDA))
    with pytest.raises(ValueError, match="reads no coefficient bound"):
        run_suite("hahn-ring", SuiteOptions(samples=1, coeff_bound=2))
