"""Transfer audits between the full groups and embedding images."""

from fractions import Fraction

import pytest

import oagw.suites
from oagw.elements import GAMMA, LAMBDA, ConstructionMismatch, element, unit
from oagw.embeddings import Embedding, in_image
from oagw.evaluate import Truth
from oagw.formulas import parse_formula, print_formula, rename_bound_apart
from oagw.fragments import FragmentConfig
from oagw.positions import CRITICAL_CIRCLE, g1_square, g2_circle, g2_square
from oagw.suites import (
    SuiteOptions,
    SuiteReport,
    _closure_sentence,
    closure_audit,
    gen_corpus,
    run_suite,
)

import reference


def _report(construction=LAMBDA):
    return SuiteReport("closure-audit", str(construction), 0)


def test_empty_corpus():
    report = _report()
    closure_audit(report, Embedding.F1, LAMBDA, [], FragmentConfig())
    assert report.cases == []
    assert report.ok


def test_lambda_existential_corpus_transfers():
    corpus = []
    for i, text in enumerate(gen_corpus("exists", 12, seed=5)):
        corpus.append((parse_formula(text, LAMBDA), {}))
    pool = (
        element(LAMBDA, {g2_square(0): {0: 1}}),
        element(LAMBDA, {g2_square(1): {1: 1}}),
        element(LAMBDA, {g1_square(0, 0): {0: 1}}),
        element(LAMBDA, {g1_square(4, 0): {0: 1}}),
        element(LAMBDA, {g2_circle(1): Fraction(1, 2)}),
    )
    report = _report()
    closure_audit(report, Embedding.F1, LAMBDA, corpus, FragmentConfig(2, pool, 900))
    assert report.counts["fail"] == 0


def test_gamma_window_sentence_flagged():
    # parameters straddle the critical circle; the only witnesses carry it
    c = "{G2[1].s: 1}"
    b = "{G2[0].s: 1}"
    text = (
        f"E x. (0 < x & (desc_lt(2, {c}, x) | desc_lt(3, {c}, x)))"
        f" & (desc_lt(2, x, {b}) | desc_lt(3, x, {b}))"
    )
    f = parse_formula(text, GAMMA)
    pool = (
        unit(GAMMA, g2_circle(0), 1),  # the witness the image cannot reach
        unit(GAMMA, g2_circle(1), 1),
        unit(GAMMA, g1_square(0, 0), 1),
    )
    report = _report(GAMMA)
    closure_audit(report, Embedding.F1, GAMMA, [(f, {})], FragmentConfig(2, pool, 600))
    assert report.counts["fail"] == 1
    assert not report.ok
    assert report.cases[0].detail == "no image witness despite full-group truth"


def test_parameters_must_lie_inside():
    f = parse_formula("E x. x < y", LAMBDA)
    bad = {"y": unit(LAMBDA, g2_circle(0), Fraction(1))}
    with pytest.raises(ValueError):
        closure_audit(_report(), Embedding.F1, LAMBDA, [(f, bad)], FragmentConfig())


def test_a_binding_outside_the_image_raises_before_any_row():
    # the first entry alone would record a pass
    corpus = [
        (parse_formula("E x. x = 0", LAMBDA), {}),
        (parse_formula("E x. x < y", LAMBDA), {"y": unit(LAMBDA, CRITICAL_CIRCLE)}),
    ]
    report = _report()
    with pytest.raises(ValueError, match="parameter 'y' lies outside the image"):
        closure_audit(report, Embedding.F1, LAMBDA, corpus, FragmentConfig(1, (), 10))
    assert report.cases == []


def test_a_pool_generator_outside_the_image_feeds_the_full_run_only(monkeypatch):
    runs = []
    run_program = oagw.suites.run_program

    def recording(program, env, cfg):
        verdict = run_program(program, env, cfg)
        runs.append((cfg, verdict.truth))
        return verdict

    monkeypatch.setattr(oagw.suites, "run_program", recording)
    outside, inside = unit(LAMBDA, CRITICAL_CIRCLE), unit(LAMBDA, g2_square(0))
    f = parse_formula("E x. 0 < x", LAMBDA)
    # alone, the outside generator gives the full run its witness and the
    # image run none
    cfg = FragmentConfig(1, (outside,), 10)
    report = _report()
    closure_audit(report, Embedding.F1, LAMBDA, [(f, {})], cfg)
    assert runs == [(cfg, Truth.TRUE), (FragmentConfig(1, (), 10), Truth.UNKNOWN)]
    assert report.cases[0].detail == "no image witness despite full-group truth"
    # beside an inside one, the image run keeps the bounds and the inside one
    runs.clear()
    cfg = FragmentConfig(1, (outside, inside), 10, 7)
    report = _report()
    closure_audit(report, Embedding.F1, LAMBDA, [(f, {}), (f, {})], cfg)
    image_cfg = FragmentConfig(1, (inside,), 10, 7)
    assert runs == [(cfg, Truth.TRUE), (image_cfg, Truth.TRUE)] * 2
    assert report.counts == {"pass": 2, "fail": 0, "unknown": 0}


def test_a_pool_generator_of_the_other_construction_raises_at_the_full_run():
    # gamma generators lie in the F1 image; the full run's fragment, or a
    # skipped quantifier, rejects them before any row
    cfg = FragmentConfig(1, _image_pool(GAMMA), 10)
    for text in ("E x. x = 0", "E x. 0 < x", "E x. 0 < x & x < 0"):
        report = _report()
        corpus = [(parse_formula(text, LAMBDA), {}), (parse_formula("E x. x = 0", LAMBDA), {})]
        with pytest.raises(ConstructionMismatch):
            closure_audit(report, Embedding.F1, LAMBDA, corpus, cfg)
        assert report.cases == [], text


def test_a_call_whose_full_runs_are_all_unknown_builds_no_image_config(monkeypatch):
    # a config is built by the class call, which runs __post_init__, or
    # narrowed from a built one
    built = []
    post_init, narrowed = FragmentConfig.__post_init__, FragmentConfig._narrowed
    monkeypatch.setattr(
        FragmentConfig, "__post_init__", lambda cfg: built.append(cfg) or post_init(cfg)
    )
    monkeypatch.setattr(
        FragmentConfig, "_narrowed", lambda cfg, pool: built.append(narrowed(cfg, pool)) or built[-1]
    )
    inside = unit(LAMBDA, g2_square(0))
    cfg = FragmentConfig(2, (unit(LAMBDA, CRITICAL_CIRCLE), inside), 50)
    image_cfg = FragmentConfig(2, (inside,), 50)
    undecided = [(parse_formula("E x. 0 < x & x < 0", LAMBDA), {})] * 3
    decided = [(parse_formula("E x. x = 0", LAMBDA), {})] * 2
    report = _report()
    built.clear()
    closure_audit(report, Embedding.F1, LAMBDA, undecided, cfg)
    assert report.counts == {"pass": 0, "fail": 0, "unknown": 3}
    assert built == []
    # True full runs build the image config once for the call
    closure_audit(report, Embedding.F1, LAMBDA, undecided + decided, cfg)
    assert report.counts == {"pass": 2, "fail": 0, "unknown": 6}
    assert built == [image_cfg]


def test_image_witness_outside_the_image_fails():
    # the constant seeds the image search with an element the image omits;
    # in the second, x = 0 lies in the image but the conjunct's y does not
    for text in ("E x. x = {G2[0].c: 1}", "E x. x = 0 & (E y. y = {G2[0].c: 1})"):
        f = parse_formula(text, LAMBDA)
        report = _report()
        closure_audit(report, Embedding.F1, LAMBDA, [(f, {})], FragmentConfig(1, (), 10))
        assert report.counts == {"pass": 0, "fail": 1, "unknown": 0}, text
        assert report.cases[0].detail == "image witness outside the image"


def test_sibling_binding_of_the_same_name_cannot_hide_an_outside_witness():
    # both conjuncts bind y; the one bound outside the image fails the row
    # in either order, and the row prints the formula as given
    inner = ("(E y. y = {G2[0].c: 1})", "(E y. y = 0)")
    for lhs, rhs in (inner, inner[::-1]):
        text = f"E x. {lhs} & {rhs}"
        f = parse_formula(text, LAMBDA)
        report = _report()
        closure_audit(report, Embedding.F1, LAMBDA, [(f, {})], FragmentConfig(1, (), 10))
        assert report.counts == {"pass": 0, "fail": 1, "unknown": 0}, text
        assert report.cases[0].detail == "image witness outside the image"
        assert report.cases[0].inputs["formula"] == print_formula(f)


def test_undecided_full_group_row_is_unknown():
    # no witness exists, so the full-group search ends undecided
    f = parse_formula("E x. 0 < x & x < 0", LAMBDA)
    report = _report()
    closure_audit(report, Embedding.F1, LAMBDA, [(f, {})], FragmentConfig(2, (), 100))
    assert report.counts == {"pass": 0, "fail": 0, "unknown": 1}
    assert report.ok
    assert report.cases[0].detail == "full-group witness not found"


def test_lambda_window_sentence_transfers():
    # in the polynomial squares the same schema keeps image witnesses
    c = "{G2[1].s: 1}"
    b = "{G2[0].s: 1*c2}"
    text = f"E x. (0 < x & desc_lt(2, {c}, x)) & desc_lt(2, x, {b})"
    f = parse_formula(text, LAMBDA)
    pool = (
        unit(LAMBDA, g2_circle(0), Fraction(1)),
        element(LAMBDA, {g2_square(0): {1: 1}}),
        element(LAMBDA, {g1_square(0, 0): {0: 1}}),
    )
    report = _report()
    closure_audit(report, Embedding.F1, LAMBDA, [(f, {})], FragmentConfig(2, pool, 600))
    assert report.counts["fail"] == 0
    assert report.counts["pass"] == 1


# -- one compile per row --------------------------------------------------------


def _audit_by_evaluate(construction, corpus, full_cfg, image_cfg):
    """closure_audit's rows, each from two runs of the reference evaluator."""
    rows = []
    for f, env in corpus:
        apart = rename_bound_apart(f)
        formula = {"formula": print_formula(f)}
        full = reference.evaluate(construction, apart, env, full_cfg)
        if full.truth is not Truth.TRUE:
            rows.append((formula, "unknown", "full-group witness not found"))
            continue
        image = reference.evaluate(construction, apart, env, image_cfg)
        if image.truth is not Truth.TRUE:
            detail = "no image witness despite full-group truth"
        elif not all(in_image(Embedding.F1, w) for w in (image.witness or {}).values()):
            detail = "image witness outside the image"
        else:
            detail = ""
        rows.append((formula, "fail" if detail else "pass", detail))
    return rows


def _rows(report):
    return [(c.inputs, c.verdict, c.detail) for c in report.cases]


def _image_pool(construction):
    return (
        unit(construction, g2_square(0)),
        unit(construction, g1_square(0, 0)),
        unit(construction, g2_circle(1)),
    )


def test_each_row_compiles_its_sentence_once(monkeypatch):
    compiled = []
    compile_formula = oagw.suites.compile_formula

    def counting(*args):
        compiled.append(args)
        return compile_formula(*args)

    monkeypatch.setattr(oagw.suites, "compile_formula", counting)
    corpus = [(parse_formula(text, LAMBDA), {}) for text in gen_corpus("exists", 12, seed=5)]
    corpus.append((parse_formula("E x. 0 < x & x < 0", LAMBDA), {}))  # full run not True
    pool = _image_pool(LAMBDA)
    cfg = FragmentConfig(2, pool + (unit(LAMBDA, CRITICAL_CIRCLE),), 200)
    report = _report()
    closure_audit(report, Embedding.F1, LAMBDA, corpus, cfg)
    assert len(compiled) == len(report.cases) == len(corpus)
    assert report.counts["pass"] > 0 and report.counts["unknown"] > 0


@pytest.mark.parametrize("construction", [LAMBDA, GAMMA])
def test_closure_suite_rows_equal_two_evaluate_calls(construction):
    critical = unit(construction, CRITICAL_CIRCLE)
    for seed in range(16):
        opts = SuiteOptions(construction, seed=seed, samples=5)
        want = []
        for rng in opts.case_rngs():
            f, pool = _closure_sentence(rng, construction)
            full_cfg = FragmentConfig(2, tuple(pool) + (critical,), 400)
            image_cfg = FragmentConfig(2, tuple(pool), 400)
            want += _audit_by_evaluate(construction, [(f, {})], full_cfg, image_cfg)
        assert _rows(run_suite("f1-exists-closure", opts)) == want, seed


@pytest.mark.parametrize("construction", [LAMBDA, GAMMA])
def test_corpus_rows_equal_two_evaluate_calls(construction):
    pool = _image_pool(construction)
    full_cfg = FragmentConfig(2, pool + (unit(construction, CRITICAL_CIRCLE),), 100)
    image_cfg = FragmentConfig(2, pool, 100)
    verdicts = set()
    for seed in range(3):
        texts = gen_corpus("exists", 20, seed, construction)
        corpus = [(parse_formula(text, construction), {}) for text in texts]
        report = SuiteReport("closure-audit", str(construction), seed)
        closure_audit(report, Embedding.F1, construction, corpus, full_cfg)
        want = _audit_by_evaluate(construction, corpus, full_cfg, image_cfg)
        assert _rows(report) == want
        verdicts.update(verdict for _, verdict, _ in want)
    assert "pass" in verdicts
