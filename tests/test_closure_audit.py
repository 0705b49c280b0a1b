"""Transfer audits between the full groups and embedding images."""

from dataclasses import replace
from fractions import Fraction

import pytest

from oagw.elements import GAMMA, LAMBDA, element, unit
from oagw.embeddings import Embedding, in_image
from oagw.formulas import parse_formula, print_formula
from oagw.fragments import FragmentConfig
from oagw.positions import g1_square, g2_circle, g2_square
from oagw.suites import SuiteReport, closure_audit, gen_corpus


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
