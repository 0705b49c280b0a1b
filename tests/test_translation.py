import pytest

from oagw.elements import LAMBDA, element
from oagw.hahn import QQ, monomial, one, series
from oagw.positions import g1_square, g2_square
from oagw.ringlang import (
    NonValuationAtom,
    RAnd,
    RExists,
    RingEq,
    RNot,
    SeriesTerm,
    ValRing,
    VLt,
    VNot,
    VSumEq,
    eval_ring,
    eval_valuation,
    svar,
    translate_to_ring,
)
from oagw.sampling import case_rng, random_series

S00 = g1_square(0, 0)


def test_strict_comparison_shape():
    out = translate_to_ring(VLt(svar("x"), svar("y")))
    # v(x) < v(y) is the negation of the division-free membership pattern
    assert isinstance(out, RNot)
    inner = out.body
    assert isinstance(inner, RExists)
    assert isinstance(inner.body, RAnd)
    assert isinstance(inner.body.lhs, ValRing)
    assert isinstance(inner.body.rhs, RingEq)


def test_sum_shape():
    out = translate_to_ring(VSumEq(svar("x"), svar("y"), svar("z")))
    assert isinstance(out, RAnd)
    assert isinstance(out.lhs, RNot) and isinstance(out.rhs, RNot)
    assert isinstance(out.lhs.body, RNot)
    assert isinstance(out.rhs.body, RNot)


def test_reflexive_always_sound():
    for i in range(40):
        rng = case_rng(73, i)
        env = {"x": random_series(rng, LAMBDA, QQ)}
        stmt = VLt(svar("x"), svar("x"))
        assert eval_valuation(stmt, env) is False
        assert eval_ring(translate_to_ring(stmt), env) is False


def test_monomial_cases():
    g = element(LAMBDA, {S00: {0: 1}})
    env = {"x": monomial(g), "y": one(LAMBDA), "z": monomial(g)}
    assert eval_valuation(VLt(svar("y"), svar("x")), env) is True
    assert eval_ring(translate_to_ring(VLt(svar("y"), svar("x"))), env) is True
    stmt = VSumEq(svar("x"), svar("y"), svar("z"))
    assert eval_valuation(stmt, env) is True
    assert eval_ring(translate_to_ring(stmt), env) is True


def test_zero_conventions():
    g = element(LAMBDA, {S00: {0: 1}})
    env = {"x": series(LAMBDA, {}), "y": monomial(g)}
    for stmt in (VLt(svar("x"), svar("y")), VLt(svar("y"), svar("x"))):
        assert eval_valuation(stmt, env) == eval_ring(translate_to_ring(stmt), env)


def test_soundness_random():
    for i in range(250):
        rng = case_rng(79, i)
        env = {
            "x": random_series(rng, LAMBDA, QQ, allow_zero=(rng.random() < 0.2)),
            "y": random_series(rng, LAMBDA, QQ),
            "z": random_series(rng, LAMBDA, QQ),
        }
        if rng.random() < 0.3 and not env["y"].is_zero():
            env["x"] = env["y"] * random_series(rng, LAMBDA, QQ, max_terms=1)
        if rng.random() < 0.3:
            env["z"] = env["x"] * env["y"]
        stmts = [
            VLt(svar("x"), svar("y")),
            VSumEq(svar("x"), svar("y"), svar("z")),
            VNot(VLt(svar("y"), svar("x"))),
        ]
        for stmt in stmts:
            assert eval_valuation(stmt, env) == eval_ring(translate_to_ring(stmt), env)


def test_constants_allowed():
    g = element(LAMBDA, {g2_square(0): {0: 1}})
    stmt = VLt(SeriesTerm((one(LAMBDA),)), SeriesTerm((monomial(g),)))
    assert eval_valuation(stmt, {}) is True
    assert eval_ring(translate_to_ring(stmt), {}) is True


def test_unsupported_quantifier_shape():
    bad = RExists("g", ValRing(svar("g")))
    with pytest.raises(NonValuationAtom):
        eval_ring(bad, {})


def _bound_patterns(f):
    # every E g (ValRing(g) & s = g*t) in a translated formula
    if isinstance(f, RExists):
        yield f
    for child in ("body", "lhs", "rhs"):
        sub = getattr(f, child, None)
        if isinstance(sub, (RNot, RAnd, RExists)):
            yield from _bound_patterns(sub)


def test_fresh_name_avoids_the_pattern_terms():
    stmts = (
        VLt(svar("g"), svar("g1")),
        VSumEq(svar("g"), svar("x"), svar("g1")),
        VSumEq(svar("g2"), svar("g") * svar("g1"), svar("g")),
    )
    for stmt in stmts:
        patterns = list(_bound_patterns(translate_to_ring(stmt)))
        assert patterns
        for p in patterns:
            eq = p.body.rhs
            free = {f for f in eq.lhs.factors + eq.rhs.factors[1:] if isinstance(f, str)}
            assert p.var not in free and eq.rhs.factors[0] == p.var
            assert p.body.lhs.arg.factors == (p.var,)
    for i in range(100):
        rng = case_rng(71, i)
        env = {
            name: random_series(rng, LAMBDA, QQ, allow_zero=(rng.random() < 0.2))
            for name in ("g", "g1", "g2", "x")
        }
        for stmt in stmts:
            assert eval_valuation(stmt, env) == eval_ring(translate_to_ring(stmt), env)
