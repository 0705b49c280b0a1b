"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Each test runs the corresponding suite at its contractual sample count
and prints one PASS/FAIL line; run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

from oagw.elements import GAMMA, LAMBDA
from oagw.suites import SuiteOptions, run_suite

SEED = 42


def _banner(name: str, report_ok: bool, extra: str = "") -> None:
    verdict = "PASS" if report_ok else "FAIL"
    print(f"ACCEPTANCE {name}: {verdict} {extra}".rstrip(), flush=True)


def _failures(report):
    return [c for c in report.cases if c.verdict == "fail"][:3]


def test_criterion_01_psi_vs_search():
    t0 = time.monotonic()
    reports = [
        run_suite(
            "psi-vs-search",
            SuiteOptions(construction=c, seed=SEED, samples=2000, coeff_bound=3),
        )
        for c in (LAMBDA, GAMMA)
    ]
    elapsed = time.monotonic() - t0
    ok = all(r.ok for r in reports) and elapsed < 60.0
    _banner(
        "1 psi-vs-search",
        ok,
        f"(2000 pairs x 2 constructions, n in {{2,3}}, {elapsed:.1f}s)",
    )
    for r in reports:
        assert r.ok, _failures(r)
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds the 60s budget"


def test_criterion_02_hprime_descriptor_and_locality():
    r1 = run_suite("hprime-descriptor", SuiteOptions(seed=SEED, samples=500))
    r2 = run_suite("hprime-locality", SuiteOptions(seed=SEED, samples=500))
    ok = r1.ok and r2.ok
    _banner("2 hprime-descriptor + hprime-locality", ok, "(500 samples each)")
    assert r1.ok, _failures(r1)
    assert r2.ok, _failures(r2)


def test_criterion_03_lambda1_formula():
    r = run_suite("lambda1-formula", SuiteOptions(seed=SEED, samples=1000))
    crafted = [c for c in r.cases if c.inputs.get("crafted")]
    ok = r.ok and len(crafted) >= 50
    _banner("3 lambda1-formula", ok, f"(1000 random + {len(crafted)} crafted)")
    assert len(crafted) >= 50
    assert r.ok, _failures(r)


def test_criterion_04_embedding_laws():
    reports = [
        run_suite(
            "embedding-laws", SuiteOptions(construction=c, seed=SEED, samples=10_000)
        )
        for c in (LAMBDA, GAMMA)
    ]
    ok = all(r.ok for r in reports)
    _banner("4 embedding-laws", ok, "(10^4 checks per map per construction)")
    for r in reports:
        assert r.ok, _failures(r)


def test_criterion_05_gamma_counterexample():
    t0 = time.monotonic()
    r = run_suite("gamma-counterexample", SuiteOptions(seed=SEED))
    elapsed = time.monotonic() - t0
    ok = r.ok and elapsed < 120.0
    _banner("5 gamma-counterexample", ok, f"(image refuted at every bound, {elapsed:.1f}s)")
    assert r.ok, _failures(r)
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds the 120s budget"


def test_criterion_06_lambda_repair():
    r = run_suite("lambda-repair", SuiteOptions(seed=SEED))
    undecided = [c for c in r.cases if c.verdict == "unknown"]
    ok = r.ok and not undecided
    _banner("6 lambda-repair", ok, "(headline assertions decided)")
    assert not undecided
    assert r.ok, _failures(r)


def test_criterion_07_f2_interval():
    r = run_suite("f2-interval", SuiteOptions(seed=SEED, samples=200))
    undecided = [c for c in r.cases if c.verdict == "unknown"]
    ok = r.ok and not undecided and len(r.cases) >= 200
    _banner("7 f2-interval", ok, f"({len(r.cases)} cases)")
    assert len(r.cases) >= 200
    assert not undecided, undecided[:2]
    assert r.ok, _failures(r)


def test_criterion_08_hahn_ring():
    r = run_suite("hahn-ring", SuiteOptions(seed=SEED, samples=1000))
    _banner("8 hahn-ring", r.ok, "(10^3 random triples, exact)")
    assert r.ok, _failures(r)


def test_criterion_09_a_membership():
    r = run_suite("a-membership", SuiteOptions(seed=SEED, samples=1000))
    _banner("9 a-membership", r.ok, "(10^3 pairs, 500 lifts, witness flip)")
    assert r.ok, _failures(r)


def test_criterion_10_translation_soundness():
    r = run_suite("translation-soundness", SuiteOptions(seed=SEED, samples=300))
    _banner("10 translation-soundness", r.ok, "(300 atomic statements)")
    assert r.ok, _failures(r)


def test_criterion_11_perturbation():
    r = run_suite("perturbation", SuiteOptions(seed=SEED, samples=200))
    _banner("11 perturbation", r.ok, "(200 cases, constraint sets up to 3)")
    assert r.ok, _failures(r)


def test_criterion_12_truncated_inverse():
    r = run_suite("truncated-inverse", SuiteOptions(seed=SEED, samples=200))
    _banner("12 truncated-inverse", r.ok, "(200 precision checks)")
    assert r.ok, _failures(r)
