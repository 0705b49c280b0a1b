import pytest

from oagw.elements import LAMBDA, element
from oagw.formulas import And, Lt, Not, Or, term_var
from oagw.hahn import QQ, monomial, one, series
from oagw.positions import g1_square, g2_square
from oagw.ringlang import (
    NonValuationAtom,
    RExists,
    RingEq,
    SeriesTerm,
    ValRing,
    VLt,
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
    assert isinstance(out, Not)
    inner = out.body
    assert isinstance(inner, RExists)
    assert isinstance(inner.body, And)
    assert isinstance(inner.body.lhs, ValRing)
    assert isinstance(inner.body.rhs, RingEq)


def test_sum_shape():
    out = translate_to_ring(VSumEq(svar("x"), svar("y"), svar("z")))
    assert isinstance(out, And)
    assert isinstance(out.lhs, Not) and isinstance(out.rhs, Not)
    assert isinstance(out.lhs.body, Not)
    assert isinstance(out.rhs.body, Not)


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


def _soundness_envs():
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
        yield env


def test_soundness_random():
    for env in _soundness_envs():
        stmts = [
            VLt(svar("x"), svar("y")),
            VSumEq(svar("x"), svar("y"), svar("z")),
            Not(VLt(svar("y"), svar("x"))),
        ]
        for stmt in stmts:
            assert eval_valuation(stmt, env) == eval_ring(translate_to_ring(stmt), env)


def test_and_or_translate_soundly():
    seen = set()
    for env in _soundness_envs():
        for conn in (And, Or):
            stmt = conn(VLt(svar("x"), svar("y")), VLt(svar("z"), svar("x")))
            out = translate_to_ring(stmt)
            assert type(out) is conn
            want = eval_valuation(stmt, env)
            assert eval_ring(out, env) == want
            seen.add((conn, want))
    assert seen == {(And, True), (And, False), (Or, True), (Or, False)}


def test_val_ring_atom():
    g = element(LAMBDA, {S00: {0: 1}})
    inside = one(LAMBDA) + monomial(g)
    outside = one(LAMBDA) + monomial(-g)
    assert eval_ring(ValRing(svar("x")), {"x": inside}) is True
    assert eval_ring(ValRing(svar("x")), {"x": outside}) is False


def test_ring_equality_atom():
    g = element(LAMBDA, {S00: {0: 1}})
    x = one(LAMBDA) + monomial(g)
    y = one(LAMBDA) - monomial(-g)
    stmt = RingEq(svar("x") * svar("y"), svar("z"))
    assert eval_ring(stmt, {"x": x, "y": y, "z": x * y}) is True
    assert eval_ring(stmt, {"x": x, "y": y, "z": x * y + one(LAMBDA)}) is False


def test_group_atom_under_a_connective_is_rejected():
    env = {"x": one(LAMBDA)}
    group_atom = Lt(term_var("a"), term_var("b"))

    def shapes(false_stmt):
        # a false left side makes Or reach the group atom on its right
        return Not(group_atom), And(group_atom, false_stmt), Or(false_stmt, group_atom)

    reflexive = VLt(svar("x"), svar("x"))
    for stmt in shapes(reflexive):
        with pytest.raises(NonValuationAtom, match="not a valuation statement: Lt"):
            translate_to_ring(stmt)
        with pytest.raises(NonValuationAtom, match="not a valuation statement: Lt"):
            eval_valuation(stmt, env)
    for stmt in shapes(translate_to_ring(reflexive)):
        with pytest.raises(NonValuationAtom, match="not a ring formula: Lt"):
            eval_ring(stmt, env)


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
        if isinstance(sub, (Not, And, RExists)):
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
