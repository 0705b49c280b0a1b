"""Transfer audits between the full groups and embedding images."""

from dataclasses import replace
from fractions import Fraction

import pytest

import oagw.suites
from oagw.elements import GAMMA, LAMBDA, ConstructionMismatch, element, unit
from oagw.embeddings import Embedding, in_image
from oagw.evaluate import Truth, evaluate
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


def _audit(construction, corpus, cfg):
    """A fresh report holding one row per corpus entry; the image search
    uses ``cfg`` with only the pool generators that lie in the image."""
    image_pool = tuple(g for g in cfg.generator_pool if in_image(Embedding.F1, g))
    report = SuiteReport("closure-audit", str(construction), 0)
    image_cfg = replace(cfg, generator_pool=image_pool)
    closure_audit(report, Embedding.F1, construction, corpus, cfg, image_cfg)
    return report


def test_empty_corpus():
    report = _audit(LAMBDA, [], FragmentConfig())
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
    report = _audit(LAMBDA, corpus, FragmentConfig(2, pool, 900, 0))
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
    report = _audit(GAMMA, [(f, {})], FragmentConfig(2, pool, 600, 0))
    assert report.counts["fail"] == 1
    assert not report.ok
    assert report.cases[0].detail == "no image witness despite full-group truth"


def test_parameters_must_lie_inside():
    f = parse_formula("E x. x < y", LAMBDA)
    bad = {"y": unit(LAMBDA, g2_circle(0), Fraction(1))}
    with pytest.raises(ValueError):
        _audit(LAMBDA, [(f, bad)], FragmentConfig())


def test_pool_generators_must_lie_inside():
    f = parse_formula("E x. x < 0", LAMBDA)
    cfg = FragmentConfig(1, (unit(LAMBDA, g2_circle(0), Fraction(1)),), 10, 0)
    report = SuiteReport("closure-audit", str(LAMBDA), 0)
    with pytest.raises(ValueError, match="pool generator"):
        closure_audit(report, Embedding.F1, LAMBDA, [(f, {})], cfg, cfg)
    assert report.cases == []


def test_image_witness_outside_the_image_fails():
    # the constant seeds the image search with an element the image omits;
    # in the second, x = 0 lies in the image but the conjunct's y does not
    for text in ("E x. x = {G2[0].c: 1}", "E x. x = 0 & (E y. y = {G2[0].c: 1})"):
        f = parse_formula(text, LAMBDA)
        report = _audit(LAMBDA, [(f, {})], FragmentConfig(1, (), 10, 0))
        assert report.counts == {"pass": 0, "fail": 1, "unknown": 0}, text
        assert report.cases[0].detail == "image witness outside the image"


def test_sibling_binding_of_the_same_name_cannot_hide_an_outside_witness():
    # both conjuncts bind y; the one bound outside the image fails the row
    # in either order, and the row prints the formula as given
    inner = ("(E y. y = {G2[0].c: 1})", "(E y. y = 0)")
    for lhs, rhs in (inner, inner[::-1]):
        text = f"E x. {lhs} & {rhs}"
        f = parse_formula(text, LAMBDA)
        cfg = FragmentConfig(1, (), 10, 0)
        report = SuiteReport("closure-audit", str(LAMBDA), 0)
        closure_audit(report, Embedding.F1, LAMBDA, [(f, {})], cfg, cfg)
        assert report.counts == {"pass": 0, "fail": 1, "unknown": 0}, text
        assert report.cases[0].detail == "image witness outside the image"
        assert report.cases[0].inputs["formula"] == print_formula(f)


def test_undecided_full_group_row_is_unknown():
    # no witness exists, so the full-group search ends undecided
    f = parse_formula("E x. 0 < x & x < 0", LAMBDA)
    report = _audit(LAMBDA, [(f, {})], FragmentConfig(2, (), 100, 0))
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
    report = _audit(LAMBDA, [(f, {})], FragmentConfig(2, pool, 600, 0))
    assert report.counts["fail"] == 0
    assert report.counts["pass"] == 1


# -- one compile per row --------------------------------------------------------


def _audit_by_evaluate(construction, corpus, full_cfg, image_cfg):
    """closure_audit's rows, each from two plain evaluate calls."""
    rows = []
    for f, env in corpus:
        apart = rename_bound_apart(f)
        formula = {"formula": print_formula(f)}
        full = evaluate(construction, apart, env, full_cfg)
        if full.truth is not Truth.TRUE:
            rows.append((formula, "unknown", "full-group witness not found"))
            continue
        image = evaluate(construction, apart, env, image_cfg)
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
    full_cfg = FragmentConfig(2, pool + (unit(LAMBDA, CRITICAL_CIRCLE),), 200)
    report = SuiteReport("closure-audit", str(LAMBDA), 0)
    image_cfg = replace(full_cfg, generator_pool=pool)
    closure_audit(report, Embedding.F1, LAMBDA, corpus, full_cfg, image_cfg)
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
    image_cfg = replace(full_cfg, generator_pool=pool)
    verdicts = set()
    for seed in range(3):
        texts = gen_corpus("exists", 20, seed, construction)
        corpus = [(parse_formula(text, construction), {}) for text in texts]
        report = SuiteReport("closure-audit", str(construction), seed)
        closure_audit(report, Embedding.F1, construction, corpus, full_cfg, image_cfg)
        want = _audit_by_evaluate(construction, corpus, full_cfg, image_cfg)
        assert _rows(report) == want
        verdicts.update(verdict for _, verdict, _ in want)
    assert "pass" in verdicts


def test_an_image_pool_of_the_other_construction_raises_at_the_image_run():
    # gamma generators lie in the image, so only the image run can see them
    full_cfg = FragmentConfig(1, _image_pool(LAMBDA), 10)
    image_cfg = FragmentConfig(1, _image_pool(GAMMA), 10)
    report = SuiteReport("closure-audit", str(LAMBDA), 0)
    # the full run is not True, so the image run never starts
    undecided = parse_formula("E x. 0 < x & x < 0", LAMBDA)
    closure_audit(report, Embedding.F1, LAMBDA, [(undecided, {})], full_cfg, image_cfg)
    assert report.counts == {"pass": 0, "fail": 0, "unknown": 1}
    # a True full run goes on to the image run, whose fragment rejects the pool
    for text in ("E x. x = 0", "E x. 0 < x"):
        corpus = [(parse_formula(text), {})]
        with pytest.raises(ConstructionMismatch):
            closure_audit(report, Embedding.F1, LAMBDA, corpus, full_cfg, image_cfg)
    assert len(report.cases) == 1
