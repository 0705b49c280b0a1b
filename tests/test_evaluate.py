"""Three-valued evaluation and the bounded congruence systems."""

import hashlib
import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oagw.evaluate
import oagw.fragments
import oagw.hull

from oagw.elements import (
    GAMMA,
    LAMBDA,
    ConstructionMismatch,
    element,
    parse_element,
    zero,
)
from oagw.evaluate import Truth, evaluate
from oagw.formulas import (
    And,
    Cong,
    DescLt,
    Eq,
    Exists,
    Forall,
    Implies,
    Lt,
    Not,
    Term,
    parse_formula,
    parse_term,
    print_formula,
    term_const,
    term_var,
)
from oagw.fragments import FragmentConfig, iter_fragment
from oagw.positions import g1_square, g2_circle, g2_square
from oagw.sampling import case_rng, random_element, random_nonzero

import reference
from reference import same_verdict

S00 = g1_square(0, 0)
CFG = FragmentConfig(2, (), 300)


def ev(text, env=None, cfg=CFG, construction=LAMBDA):
    return evaluate(construction, parse_formula(text, construction), env or {}, cfg)


class TestAtoms:
    def test_irreflexive(self):
        assert ev("0 < 0").truth is Truth.FALSE

    def test_quantifier_free_always_decided(self):
        for i in range(80):
            rng = case_rng(3, i)
            env = {
                "x": random_element(rng, LAMBDA),
                "y": random_element(rng, LAMBDA),
            }
            v = ev("x < y | cong(2, x, y) | ~(x = y) | desc_lt(3, x, y)", env)
            assert v.truth is not Truth.UNKNOWN

    def test_cong_direction(self):
        env = {"x": element(LAMBDA, {S00: {0: 1}}), "y": element(LAMBDA, {S00: {0: 3}})}
        assert ev("cong(2, x, y)", env).truth is Truth.TRUE
        assert ev("cong(4, x, y)", env).truth is Truth.FALSE

    def test_desc_lt_is_the_gap_predicate(self):
        for i in range(100):
            rng = case_rng(5, i)
            a = random_element(rng, LAMBDA)
            b = random_element(rng, LAMBDA)
            want = reference.cong_free_below(3, a, b)
            got = ev("desc_lt(3, x, y)", {"x": a, "y": b}).truth
            assert got is (Truth.TRUE if want else Truth.FALSE)

    def test_unbound_variable(self):
        with pytest.raises(KeyError):
            ev("x < y", {"x": zero(LAMBDA)})


class TestQuantifiers:
    def test_exists_with_halving_generator(self):
        half = element(LAMBDA, {g2_circle(0): Fraction(1, 2)})
        cfg = FragmentConfig(2, (half,), 100)
        v = ev("E x. x + x = {G2[0].c: 1}", cfg=cfg)
        assert v.truth is Truth.TRUE
        assert v.witness["x"] == half

    def test_exists_never_false(self):
        # halving a square unit is impossible, but search cannot know that
        v = ev("E x. x + x = {G1[0].s[0]: 1}", cfg=FragmentConfig(1, (), 10))
        assert v.truth is Truth.UNKNOWN

    def test_forall_counterexample(self):
        v = ev("A x. 0 < x")
        assert v.truth is Truth.FALSE
        assert "x" in v.witness

    def test_forall_never_true(self):
        v = ev("A x. x = x")
        assert v.truth is Truth.UNKNOWN

    def test_soundness_against_closed_form(self):
        # decided verdicts of the bounded evaluator must match the exact
        # congruence-gap predicate on its defining formula
        for i in range(40):
            rng = case_rng(11, i)
            a = random_element(rng, LAMBDA, 2)
            b = random_element(rng, LAMBDA, 2)
            deep = element(LAMBDA, {g1_square(5, 0): {0: 1}})
            cfg = FragmentConfig(2, (deep,), 250)
            v = evaluate(
                LAMBDA,
                parse_formula("A y. (0 < y & y < b) -> ~cong(2, y, a)"),
                {"a": a, "b": b},
                cfg,
            )
            want = reference.cong_free_below(2, a, b)
            if v.truth is Truth.FALSE:
                assert want is False
            elif v.truth is Truth.TRUE:
                assert want is True

    def test_soundness_against_tail_sets(self):
        # the swept-tail membership of b > 0 below a > 0 is exactly the
        # satisfiability of "some t in (0, a) leaves b congruence-free";
        # decided evaluator verdicts must agree with the cut descriptor
        from oagw.predicates import inner_anchor_below, tail_set
        from oagw.sampling import random_positive

        f = parse_formula("E t. (0 < t & t < a) & desc_lt(2, t, b)")
        for i in range(60):
            rng = case_rng(29, i)
            a = random_positive(rng, LAMBDA)
            b = random_positive(rng, LAMBDA)
            anchor = inner_anchor_below(a)
            pool = (anchor,) if anchor is not None else ()
            v = evaluate(LAMBDA, f, {"a": a, "b": b}, FragmentConfig(2, pool, 120))
            want = reference.in_tail(tail_set(a), b)
            if v.truth is Truth.TRUE:
                assert want is True
            if want is True:
                assert v.truth is Truth.TRUE  # the anchor makes it findable

    def test_not_universal_runs_as_an_existential(self):
        v = ev("~(A x. 0 < 0)")
        assert v.truth is Truth.TRUE
        assert v.witness == {"x": zero(LAMBDA)} and v.reason == ""

    def test_not_existential_runs_as_a_universal(self):
        v = ev("~(E x. x = x)")
        assert v.truth is Truth.FALSE
        assert v.witness == {"x": zero(LAMBDA)} and v.reason == "counterexample"

    def test_part_moves_out_through_a_not_universal(self):
        # E y. E x. (~(0 = 0) & ~(x < y)): ~(0 = 0) moves out of both
        v = ev("E y. ~(A x. (0 = 0 | x < y))")
        assert v.truth is Truth.FALSE and v.witness is None

    def test_binding_of_the_other_construction_is_rejected(self):
        with pytest.raises(ConstructionMismatch):
            ev("x < 0", {"x": element(GAMMA, {g2_circle(0): 1})})

    def test_quantifier_restores_a_shadowed_binding(self):
        a = element(LAMBDA, {S00: {0: 1}})
        cfg = FragmentConfig(1, (a,), 20)
        # the outer x is bound again once the inner search is over
        v = ev("(E x. x = a) & x < a", {"x": -a, "a": a}, cfg=cfg)
        assert v.truth is Truth.TRUE
        v = ev("E x. (E x. a < x) & x = a", {"a": a}, cfg=FragmentConfig(2, (a,), 20))
        assert v.truth is Truth.TRUE
        assert v.witness == {"x": a}

    def test_quantifier_reports_its_own_binding_over_a_shadowed_one(self):
        # the inner x solves the equation; the outer x is the first candidate
        p0, p1, p2 = _pool(POOL_TEXTS[1])
        f = _with_pool(HOISTING_SHAPES[6], POOL_TEXTS[1])
        v = evaluate(LAMBDA, f, {}, FragmentConfig(2, (p0, p1, p2), 12))
        assert v.truth is Truth.TRUE
        assert list(v.witness) == ["x", "y"]
        assert v.witness["x"] == zero(LAMBDA)
        assert p1 + p0 - v.witness["y"] != zero(LAMBDA)

    def test_agreeing_parts_keep_their_bindings(self):
        cfg = FragmentConfig(1, (), 10)
        v = ev("E x. x = 0 & (E y. y = {G2[0].c: 1})", cfg=cfg)
        assert v.truth is Truth.TRUE and v.reason == ""
        assert v.witness == {"x": zero(LAMBDA), "y": element(LAMBDA, {g2_circle(0): 1})}
        # two refuted universals: the disjunction keeps both counterexamples
        v = ev("(A x. x < 0) | (A y. 0 < y)", cfg=cfg)
        assert v.truth is Truth.FALSE and v.reason == "counterexample"
        assert v.witness == {"x": zero(LAMBDA), "y": zero(LAMBDA)}
        # a later binding of a name wins over an earlier one
        v = ev("(E x. x = 0) & (E x. x = {G2[0].c: 1})", cfg=cfg)
        assert v.witness == {"x": element(LAMBDA, {g2_circle(0): 1})}

    def test_pool_memo_lives_for_one_call(self, monkeypatch):
        g = element(LAMBDA, {g2_circle(1): 1})
        cfg = FragmentConfig(2, (g,), 40)
        # a nested search that runs: E y. searches for each x above c
        f = parse_formula("E x. E y. x = y + y & {G2[0].c: 1} < x")
        seen = []

        def recording(params, cfg, construction):
            seen.append(cfg)
            return iter_fragment(params, cfg, construction)

        monkeypatch.setattr(oagw.evaluate, "iter_fragment", recording)
        computed, original = [], oagw.fragments._part

        def computing(memo, gens, vec):
            if vec not in memo and list(gens) == [g]:
                computed.append(vec)
            return original(memo, gens, vec)

        monkeypatch.setattr(oagw.fragments, "_part", computing)
        first = evaluate(LAMBDA, f, {}, cfg)
        # every fragment of the call reads the caller's config itself, which
        # keeps nothing: a second call computes every pool part afresh
        assert len(seen) > 1 and all(c is cfg for c in seen)
        assert vars(cfg) == vars(FragmentConfig(2, (g,), 40))
        once, computed[:] = list(computed), []
        assert evaluate(LAMBDA, f, {}, cfg) == first
        assert computed == once != []


# -- bounded congruence systems ----------------------------------------------
#
# The parser expands rphi(n; bounds; inner; congs) into positive bounds,
# congruent anchors and one ~desc_lt per anchored bounded variable.  The
# reference below decides the same system on values instead, by a
# union-find over its own variables; it takes the system as data.


def rphi_text(system):
    n, bounds, inner, congs = system
    groups = ", ".join(f"{' '.join(group)} < {t}" for group, t in bounds)
    pairs = ", ".join(f"{v} ~ {t}" for v, t in congs)
    return f"rphi({n}; {groups}; {' '.join(inner)}; {pairs})"


def reference_rphi(construction, system, env):
    """Exact satisfiability of the system under env, by union-find on values."""
    n, bounds, inner, congs = system
    limits = []
    for group, t in bounds:
        limit = parse_term(t, construction).evaluate(construction, env)
        limits += [(z, limit) for z in group]
    own = set(inner).union(*(group for group, _ in bounds))
    parent = {v: v for v in own}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    anchor = {v: None for v in own}
    consistency = []  # pairs that must be congruent

    def attach(root, e):
        if anchor[root] is None:
            anchor[root] = e
        elif anchor[root] != e:
            consistency.append((anchor[root], e))

    for v, t in congs:
        if t in own:
            ra, rb = find(v), find(t)
            if ra != rb:
                parent[rb] = ra
                if anchor[rb] is not None:
                    attach(ra, anchor[rb])
                anchor.pop(rb)
        else:
            attach(find(v), parse_term(t, construction).evaluate(construction, env))
    if any(limit.sign() <= 0 for _, limit in limits):
        return False
    if any(not (e2 - e1).is_divisible(n) for e1, e2 in consistency):
        return False
    for z, limit in limits:
        w = anchor[find(z)]
        if w is not None and reference.cong_free_below(n, w, limit):
            return False
    return True


# (modulus, bound groups, inner variables, congruences) over a1, a2, b1, b2
RPHI_SYSTEMS = [
    # a linked pair, an inner variable shared by two bounded ones, and
    # two anchors on one variable
    (2, [(("z1",), "a1"), (("z2",), "a2")], (), [("z1", "b1"), ("z2", "b2"), ("z1", "z2")]),
    (3, [(("z1", "z2"), "a1")], ("u",), [("z1", "u"), ("z2", "u")]),
    (2, [(("z",), "a1")], (), [("z", "b1"), ("z", "b2")]),
    # the systems of the rphi golden sentences
    (2, [(("z",), "a1")], (), [("z", "b1")]),
    (2, [(("z",), "a1")], (), []),
    (3, [(("z1", "z2"), "a1")], ("u",), [("z1", "u"), ("z2", "b1")]),
    (
        2,
        [(("z1",), "a1"), (("z2",), "b1")],
        ("u",),
        [("z1", "u"), ("u", "z2"), ("z2", "a1"), ("z1", "b1")],
    ),
    # two bound groups and a chained merge of two anchored classes
    (
        3,
        [(("z1",), "a1 + b2"), (("z2", "z3"), "a2")],
        ("u", "w"),
        [("z3", "w"), ("w", "b1 - a2"), ("z1", "u"), ("u", "2*b2"), ("u", "z2"), ("z2", "z3")],
    ),
]


class TestRphi:
    def bound_env(self, **kw):
        env = {
            "a1": element(LAMBDA, {S00: {0: 2}}),
            "a2": element(LAMBDA, {g2_square(0): {0: 1}}),
            "b1": element(LAMBDA, {S00: {0: 1}}),
            "b2": element(LAMBDA, {S00: {0: 3}}),
        }
        env.update(kw)
        return env

    def test_linked_pair_consistency(self):
        text = "rphi(2; z1 < a1, z2 < a2; ; z1 ~ b1, z2 ~ b2, z1 ~ z2)"
        env = self.bound_env()
        # b1 = 1 and b2 = 3 agree mod 2; both bounds exceed the residues
        assert ev(text, env).truth is Truth.TRUE
        env2 = self.bound_env(b2=element(LAMBDA, {S00: {0: 2}}))
        assert ev(text, env2).truth is Truth.FALSE  # 1 and 2 disagree mod 2

    def test_bound_violation(self):
        text = "rphi(2; z < a; ; z ~ b)"
        env = {
            "a": element(LAMBDA, {S00: {1: 1}}),  # below every odd residue
            "b": element(LAMBDA, {S00: {0: 1}}),
        }
        assert ev(text, env).truth is Truth.FALSE
        env["a"] = element(LAMBDA, {S00: {0: 2}})
        assert ev(text, env).truth is Truth.TRUE

    def test_nonpositive_bound(self):
        text = "rphi(2; z < a; ; )"
        assert ev(text, {"a": zero(LAMBDA)}).truth is Truth.FALSE
        assert ev(text, {"a": element(LAMBDA, {S00: {0: 1}})}).truth is Truth.TRUE

    def test_inner_variable_linking(self):
        # z1 ~ u and z2 ~ u forces z1 ~ z2 through the free inner variable
        text = "rphi(2; z1 < a1, z2 < a1; u; z1 ~ u, z2 ~ u, z1 ~ b1)"
        assert ev(text, self.bound_env()).truth is Truth.TRUE

    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA])
    def test_expansion_matches_saturation(self, construction):
        for k, system in enumerate(RPHI_SYSTEMS):
            f = parse_formula(rphi_text(system), construction)
            truths = []
            for i in range(120):
                rng = case_rng(3100 + k, i)
                env = {x: random_element(rng, construction, 2) for x in ("a1", "a2", "b1", "b2")}
                want = reference_rphi(construction, system, env)
                v = evaluate(construction, f, env, CFG)
                assert v.truth is (Truth.TRUE if want else Truth.FALSE)
                assert v.witness is None
                truths.append(v.truth)
            assert set(truths) == {Truth.TRUE, Truth.FALSE}, rphi_text(system)


class TestNegRphiNormalize:
    """~rphi is the negation of the expansion, decided without search."""

    def test_three_case_shape(self):
        f = parse_formula("~rphi(2; z1 < a1, z2 < a2; ; z1 ~ b1, z2 ~ b2, z1 ~ z2)")
        env = {
            "a1": element(LAMBDA, {S00: {0: 2}}),
            "a2": element(LAMBDA, {S00: {0: 2}}),
            "b1": element(LAMBDA, {S00: {0: 1}}),
            "b2": element(LAMBDA, {S00: {0: 3}}),
        }
        text = print_formula(f)
        # one congruence between anchors and one avoidance case per variable
        assert text.count("desc_lt(2") == 2
        assert text.count("cong(2") == 1
        assert text.count("0 < a") == 2  # one positivity case per bound
        v = evaluate(LAMBDA, f, env, CFG)
        assert v.truth is Truth.FALSE  # the system is satisfiable here

    def test_degenerate_no_congruences(self):
        f = parse_formula("~rphi(2; z < a; ; )")
        pos = element(LAMBDA, {S00: {0: 1}})
        assert evaluate(LAMBDA, f, {"a": pos}, CFG).truth is Truth.FALSE
        assert evaluate(LAMBDA, f, {"a": -pos}, CFG).truth is Truth.TRUE

    def test_single_bound_equals_gap_predicate(self):
        f = parse_formula("~rphi(2; y < b; ; y ~ a)")
        assert print_formula(f) == "~(0 < b & ~desc_lt(2, a, b))"
        for i in range(80):
            rng = case_rng(19, i)
            env = {
                "a": random_element(rng, LAMBDA, 2),
                "b": random_element(rng, LAMBDA, 2),
            }
            got = evaluate(LAMBDA, f, env, CFG).truth
            want = reference.cong_free_below(2, env["a"], env["b"])
            assert got is (Truth.TRUE if want else Truth.FALSE)

    def test_complements_rphi_everywhere(self):
        for shape_idx, system in enumerate(RPHI_SYSTEMS):
            text = rphi_text(system)
            for i in range(60):
                rng = case_rng(2900 + shape_idx, i)
                env = {
                    name: random_element(rng, LAMBDA, 2)
                    for name in ("a1", "a2", "b1", "b2")
                }
                direct = reference_rphi(LAMBDA, system, env)
                assert ev(text, env).truth is (Truth.TRUE if direct else Truth.FALSE)
                assert ev(f"~{text}", env).truth is (Truth.FALSE if direct else Truth.TRUE)


# -- the compiled evaluator against the reference model --------------------------

# One formula per template of the benchmark's eval workload, keyed by the
# template's name, in the workload's order; P0, P1 and P2 stand for the
# three pool generators.
PREFIX_SHAPES = {
    "e-scaled": "E x. 2*x = 2*P1",
    "a-below": "A x. x < P0 + 2*P2",
    "e-cong": "E x. 0 < x & cong(2, x, P1 + P2)",
    "ee-split": "E x. E y. x + y = P2 + 2*P0 & x < y",
    "aa-noncong": "A x. A y. (x < y -> ~cong(3, x, y))",
    "ea-gap": "E x. A y. (0 < y & y < x -> ~cong(2, y, P0))",
    "ae-desc": "A x. E y. desc_lt(3, x, y)",
    "aa-comm": "A x. A y. x + y = y + x",
    "eee-sum": "E x. E y. E z. x + y + z = P0 + P1 & cong(2, x, y)",
    "aae-closed": "A x. A y. E z. x + y = z",
    "aaa-trans": "A x. A y. A z. (x < y & y < z -> x < z)",
}
POOL_TEXTS = [
    ("{G2[0].c: 1}", "{G2[1].s: 1}", "{G1[0].c: 1}"),
    ("{G2[0].c: 1/5, G1[1].s[0]: 2}", "{G1[0].s[2]: -3}", "{G2[2].c: -2, G2[1].s: 3}"),
]
# Reference cases for terms of several summands whose variables are
# bound at different depths, shadowed or bound by sibling quantifiers.
HOISTING_SHAPES = [
    "A x. A y. E z. x + y = 2*z",
    "E x. E y. E z. x + y = 2*z & y < x",
    "A x. A y. A z. x + y + P0 < 2*z | z < x",
    # 3*x and x - P2 mention only a variable bound two levels out
    "A x. A y. A z. ~(3*x = z + y)",
    "E x. E y. E z. x - P2 < z + y & z < 3*x & 0 < z",
    # constant-only terms next to variables
    "E x. E y. x + y = P0 + 2*P1 & P2 < P2 + P0",
    # the inner x shadows the outer one in every term below it
    "E x. E y. E x. x + y = P1 + P0 & P0 < y",
    "E x. E y. (E x. x + y = P1) & cong(2, x + y, P0)",
    # sibling quantifiers, each binding a variable of its own terms
    "E x. (E y. x + x = y + P0) & (E z. 2*x + z = P1 | z < x + P2)",
    "A x. A y. (A z. x + y < z | z < x - y) & (A w. ~(x + y = w + w))",
]


def _pool(pool_text, construction=LAMBDA):
    return tuple(parse_element(t, construction) for t in pool_text)


def _with_pool(text, pool_text, construction=LAMBDA):
    """The formula of ``text`` with P0, P1 and P2 read as the literals of ``pool_text``."""
    for i, lit in enumerate(pool_text):
        text = text.replace(f"P{i}", lit)
    return parse_formula(text, construction)


def _check_against_reference(construction, f, cfg, env=None):
    env = env or {}
    got = evaluate(construction, f, env, cfg)
    same_verdict(got, reference.evaluate(construction, f, env, cfg))
    return got


def _searched_by_reference(monkeypatch, construction, f, cfg, env=None):
    """The reference verdict, which always searches, and its fragment count."""
    calls, fragment = [], reference.fragment_models

    def counting(*args):
        calls.append(args)
        return fragment(*args)

    with monkeypatch.context() as m:
        m.setattr(reference, "fragment_models", counting)
        return reference.evaluate(construction, f, env or {}, cfg), len(calls)


class TestCompiledMatchesReference:
    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA])
    @pytest.mark.parametrize("size_cap", [6, 13])
    def test_prefix_shapes(self, construction, size_cap):
        truths = set()
        for pool_text in POOL_TEXTS:
            cfg = FragmentConfig(2, _pool(pool_text, construction), size_cap)
            for shape in PREFIX_SHAPES.values():
                f = _with_pool(shape, pool_text, construction)
                truths.add(_check_against_reference(construction, f, cfg).truth)
        assert truths == {Truth.TRUE, Truth.FALSE, Truth.UNKNOWN}

    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA])
    @pytest.mark.parametrize("size_cap", [5, 12])
    def test_hoisting_shapes(self, construction, size_cap):
        truths = set()
        for pool_text in POOL_TEXTS:
            cfg = FragmentConfig(2, _pool(pool_text, construction), size_cap)
            for shape in HOISTING_SHAPES:
                f = _with_pool(shape, pool_text, construction)
                truths.add(_check_against_reference(construction, f, cfg).truth)
        assert truths == {Truth.TRUE, Truth.FALSE, Truth.UNKNOWN}

    @pytest.mark.parametrize("kind", ["exists", "ea"])
    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA])
    def test_closure_corpus(self, kind, construction):
        from oagw.suites import gen_corpus

        pool = _pool(POOL_TEXTS[0], construction)
        for size_cap in (9, 25):
            cfg = FragmentConfig(2, pool, size_cap)
            for text in gen_corpus(kind, 10, 5, construction):
                f = parse_formula(text, construction)
                _check_against_reference(construction, f, cfg)

    def test_free_variables_and_rphi(self):
        env = {
            "a": element(LAMBDA, {S00: {0: 2}}),
            "b": element(LAMBDA, {S00: {0: 1, 1: -1}}),
        }
        cfg = FragmentConfig(2, (element(LAMBDA, {g1_square(3, 0): {0: 1}}),), 30)
        for text in (
            "E y. 0 < y & y < a & ~rphi(2; z < y; ; z ~ b)",
            "A y. (0 < y & y < a) -> ~cong(2, y, b)",
            "E y. ~(y < b | ~desc_lt(2, y, a)) & true",
            "E x. A y. (x = y -> false) | b < x",
            # sibling quantifiers: the second must not see the first's variable
            "E x. (A y. y < x | b < y) | (E z. z = x + b & cong(2, z, a))",
            # a decided side next to an undecided one
            "0 < a & A y. y = y",
            "a < 0 | E y. y + y = b",
            "~(A y. y = y)",
        ):
            _check_against_reference(LAMBDA, parse_formula(text), cfg, env)

    def test_hoisting_with_free_variables(self):
        env = {
            "a": element(LAMBDA, {S00: {0: 2}}),
            "b": element(LAMBDA, {S00: {0: 1, 1: -1}}),
        }
        cfg = FragmentConfig(2, (element(LAMBDA, {g2_circle(0): 1}),), 25)
        for text in (
            "A x. E y. a + x = y + b",
            "E x. A y. 2*a < x + y | b + y = x",
            "A a. E y. a + b = y",
            "E x. (A y. a + x < y) & (E y. x + b = y)",
        ):
            _check_against_reference(LAMBDA, parse_formula(text), cfg, env)

    def test_hand_built_terms_with_a_repeated_variable(self):
        a = element(LAMBDA, {S00: {0: 2}})
        cfg = FragmentConfig(2, (element(LAMBDA, {S00: {0: 1}}),), 25)
        twice_y = Term((("x", 1), ("y", 1), ("y", 1)), None)
        twice_x = Term((("x", 1), ("x", 1), ("y", -1)), a)
        for f in (
            Exists("x", Exists("y", Eq(twice_y, term_var("a")))),
            Exists("x", Exists("y", Eq(twice_x, term_var("y", 3)))),
            Forall("x", Forall("y", Lt(twice_x, twice_y))),
        ):
            _check_against_reference(LAMBDA, f, cfg, {"a": a})

    def test_constant_of_the_other_construction_is_rejected(self):
        other = element(GAMMA, {g2_circle(0): 1})
        cfg = FragmentConfig(1, (element(LAMBDA, {g2_circle(0): 1}),), 10)
        mixed_sum = Eq(Term((("x", 1), ("y", 1)), other), term_var("x"))
        for f in (
            Lt(term_const(other), term_const(other)),
            Exists("x", Eq(term_var("x"), term_const(other))),
            Forall("x", Exists("y", mixed_sum)),
            Forall("x", Exists("y", Cong(2, term_var("y", 2), Term((("x", 1),), other)))),
        ):
            with pytest.raises(ConstructionMismatch):
                evaluate(LAMBDA, f, {}, cfg)

    def test_shared_verdicts_are_not_mutated(self):
        before = evaluate(LAMBDA, parse_formula("0 < 0"), {}, CFG)
        evaluate(LAMBDA, parse_formula("E x. ~(0 < x) & ~(x < 0)"), {}, CFG)
        after = evaluate(LAMBDA, parse_formula("0 < 0"), {}, CFG)
        assert before.truth is after.truth is Truth.FALSE
        assert before.witness is None and after.witness is None


def test_prefix_shapes_follow_the_eval_templates(monkeypatch):
    # loaded by path, so the benchmark's directory stays off sys.path
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("eval_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    assert list(PREFIX_SHAPES) == list(workloads.EVAL_TEMPLATES)


# -- miniscoping --------------------------------------------------------------

VARIABLES = ("x", "y", "z")
ALL_ATOMS = ("<", "=", "cong", "desc_lt", "true")
HULL_ATOMS = ("<", "=")  # the atoms the divisible hull reads


def _formula_text(pick, atoms, consts=()):
    """A closed formula text over x, y and z, with at most three
    quantifiers and four nested connectives or quantifiers.  Its atoms
    are of the kinds in ``atoms``, between sums of bound variables and
    the names in ``consts``.  ``pick`` chooses one item of a sequence."""

    def formula(bound, quantifiers, depth):
        kind = pick(["atom", "~", "&", "|", "->", "Q", "Q", "Q"] if depth else ["atom"])
        if kind == "Q" and quantifiers:
            var = pick(VARIABLES)
            body = formula(bound | {var}, quantifiers - 1, depth - 1)
            return f"({pick('EA')} {var}. {body})"
        if kind == "~":
            return f"~({formula(bound, quantifiers, depth - 1)})"
        if kind in ("&", "|", "->"):
            lhs = formula(bound, quantifiers, depth - 1)
            return f"({lhs}) {kind} ({formula(bound, quantifiers, depth - 1)})"
        names = sorted(bound) + list(consts)

        def term():
            if not names:
                return "0"
            first = pick(["", "", "-", "2*"]) + pick(names)
            sign = pick(["", "", " + ", " - "])
            return first + sign + pick(names) if sign else first

        lhs, op, rhs = term(), pick(atoms), term()
        if op in ("<", "="):
            return f"{lhs} {op} {rhs}"
        return "true" if op == "true" else f"{op}(2, {lhs}, {rhs})"

    return formula(frozenset(), 3, 4)


@st.composite
def _formula_texts(draw, atoms, consts=()):
    return _formula_text(lambda items: draw(st.sampled_from(list(items))), atoms, consts)


@pytest.fixture
def fragment_calls(monkeypatch):
    """The parameters of every fragment the evaluator enumerates."""
    calls = []

    def counting(params, cfg, construction):
        calls.append(tuple(params))
        return iter_fragment(params, cfg, construction)

    monkeypatch.setattr(oagw.evaluate, "iter_fragment", counting)
    return calls


class TestScoping:
    """Quantifier-free parts without the bound variable are decided before the search."""

    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA])
    @pytest.mark.parametrize("pool_text", POOL_TEXTS)
    def test_transitivity_searches_z_once_per_ordered_pair(
        self, construction, pool_text, fragment_calls
    ):
        pool = _pool(pool_text, construction)
        cfg = FragmentConfig(2, pool, 10)
        # P0 > 0 keeps the sentence true; the constant hides the conclusion
        # from the divisible hull, which would refute A y. without it
        p0 = pool[0]
        assert zero(construction) < p0
        text = f"A x. A y. A z. (x < y & y < z -> x < z + {pool_text[0]})"
        f = parse_formula(text, construction)
        assert evaluate(construction, f, {}, cfg).truth is Truth.UNKNOWN
        # x < y is decided once per pair, and only a pair with x < y searches z
        pairs = [
            (x, y, p0)
            for x in reference.fragment(construction, [p0], cfg)
            for y in reference.fragment(construction, [x, p0], cfg)
            if x < y
        ]
        assert len(pairs) > 10
        assert [p for p in fragment_calls if len(p) == 3] == pairs

    def test_decided_disjunct_skips_the_search(self, fragment_calls):
        a = element(LAMBDA, {S00: {0: 1}})
        f = parse_formula("A z. (x < y | z < x)")
        v = evaluate(LAMBDA, f, {"x": -a, "y": a}, CFG)
        assert v.truth is Truth.TRUE and v.witness is None
        assert fragment_calls == []
        v = evaluate(LAMBDA, f, {"x": a, "y": -a}, CFG)
        assert v.truth is Truth.FALSE
        assert len(fragment_calls) == 1

    @pytest.mark.parametrize(
        "text",
        # the hull sees no sign of c inside E y. or A y., so neither is refuted
        ["E x. E y. (0 < c & x < y & y + c < x)", "A x. A y. (c < 0 | x < y | y < x + c | x = y)"],
    )
    def test_a_part_moved_twice_runs_the_inner_quantifier_once(self, text, fragment_calls):
        # the part without x or y moves out of E y., then out of E x.;
        # E y. still runs once per x, as without that part
        c = element(LAMBDA, {g2_circle(0): 1})
        cfg = FragmentConfig(1, (c,), 5)
        v = evaluate(LAMBDA, parse_formula(text), {"c": c}, cfg)
        assert v.truth is Truth.UNKNOWN
        xs = list(reference.fragment(LAMBDA, [c], cfg))
        assert fragment_calls == [(c,)] + [(c, x) for x in xs]
        assert len(fragment_calls) == 4

    def test_newly_decided_sentence(self):
        # b < x is decided for each x before the search over y, which
        # alone can never confirm a universal
        b = element(LAMBDA, {S00: {0: 1, 1: -1}})
        f = parse_formula("E x. A y. (x = y -> false) | b < x")
        cfg = FragmentConfig(2, (element(LAMBDA, {g1_square(3, 0): {0: 1}}),), 30)
        assert evaluate(LAMBDA, f, {"b": b}, cfg).truth is Truth.TRUE
        assert reference.evaluate(LAMBDA, f, {"b": b}, cfg, scoped=False).truth is Truth.UNKNOWN

    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_decides_whatever_the_unscoped_reference_decides(self, construction, data):
        pool_text = data.draw(st.sampled_from(POOL_TEXTS))
        text = data.draw(_formula_texts(ALL_ATOMS, ("P0", "P1", "P2")))
        f = _with_pool(text, pool_text, construction)
        cfg = FragmentConfig(1, _pool(pool_text, construction), 6)
        got = _check_against_reference(construction, f, cfg)
        unscoped = reference.evaluate(construction, f, {}, cfg, scoped=False)
        if unscoped.decided:
            assert got.truth is unscoped.truth, text

    # An existential stops only on True and a universal only on False, so
    # a search whose body can never return that truth could only end
    # Unknown: in aa-comm and aaa-trans it could only where the divisible
    # hull has no solution.
    UNSTOPPABLE = ("aae-closed", "ea-gap", "ae-desc", "aa-comm", "aaa-trans")
    STILL_SEARCHED = (
        # the moved part y = 0 can make the conjunction False
        "A y. E z. (y = 0 & z = y)",
        # x = 0 can make the disjunction True
        "E x. (A y. y < x) | x = 0",
        "A x. false",
        "E x. true",
        # the atom can make the conjunction False
        "A x. (E y. x = y + y) & x < {G2[1].s: 1}",
    )

    def _check_skipped(self, monkeypatch, construction, f, cfg, fragment_calls, env=None):
        got = evaluate(construction, f, env or {}, cfg)
        assert fragment_calls == [], print_formula(f)
        want, searched = _searched_by_reference(monkeypatch, construction, f, cfg, env)
        assert searched > 0
        same_verdict(got, want)
        assert got.truth is Truth.UNKNOWN

    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA])
    @pytest.mark.parametrize("pool_text", POOL_TEXTS)
    def test_a_search_that_cannot_stop_is_skipped(
        self, construction, pool_text, fragment_calls, monkeypatch
    ):
        cfg = FragmentConfig(2, _pool(pool_text, construction), 10)
        for name in self.UNSTOPPABLE:
            f = _with_pool(PREFIX_SHAPES[name], pool_text, construction)
            self._check_skipped(monkeypatch, construction, f, cfg, fragment_calls)

    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA])
    def test_the_ea_corpus_is_skipped(self, construction, fragment_calls, monkeypatch):
        from oagw.suites import gen_corpus

        cfg = FragmentConfig(2, _pool(POOL_TEXTS[0], construction), 10)
        for text in gen_corpus("ea", 20, 42, construction):
            f = parse_formula(text, construction)
            self._check_skipped(monkeypatch, construction, f, cfg, fragment_calls)

    def test_a_disjunct_that_cannot_refute_is_skipped(self, fragment_calls, monkeypatch):
        # E y. can only be True, so the disjunction is never False
        f = parse_formula("A x. (E y. x = y + y) | x < {G2[1].s: 1}")
        cfg = FragmentConfig(2, _pool(POOL_TEXTS[0]), 10)
        self._check_skipped(monkeypatch, LAMBDA, f, cfg, fragment_calls)

    @pytest.mark.parametrize(
        "text", ["E x. E y. (0 < c & x < y & y < x)", "A x. A y. (c < 0 | x < y | y < x | x = y)"]
    )
    def test_a_body_the_hull_refutes_is_skipped(self, text, fragment_calls, monkeypatch):
        # x < y & y < x has no solution, nor has y <= x & x <= y & ~(x = y)
        c = element(LAMBDA, {g2_circle(0): 1})
        cfg = FragmentConfig(1, (c,), 5)
        f = parse_formula(text)
        self._check_skipped(monkeypatch, LAMBDA, f, cfg, fragment_calls, {"c": c})

    @pytest.mark.parametrize("text", STILL_SEARCHED)
    def test_a_search_that_can_stop_still_runs(self, text, fragment_calls, monkeypatch):
        f = parse_formula(text)
        cfg = FragmentConfig(2, _pool(POOL_TEXTS[0]), 10)
        got = evaluate(LAMBDA, f, {}, cfg)
        want, searched = _searched_by_reference(monkeypatch, LAMBDA, f, cfg)
        same_verdict(got, want)
        assert len(fragment_calls) == searched > 0

    def test_a_skipped_search_still_rejects_a_pool_of_the_other_construction(self, fragment_calls):
        cfg = FragmentConfig(1, (element(GAMMA, {g2_circle(0): 1}),), 10)
        with pytest.raises(ConstructionMismatch):
            evaluate(LAMBDA, parse_formula("A x. E y. x = y"), {}, cfg)
        assert fragment_calls == []
        # a sentence without a quantifier never reads the pool
        assert evaluate(LAMBDA, parse_formula("0 < {G2[0].c: 1}"), {}, cfg).truth is Truth.TRUE

    def test_a_skipped_search_builds_no_pool_parts(self, fragment_calls, monkeypatch):
        built, original = [], oagw.fragments._part
        monkeypatch.setattr(
            oagw.fragments, "_part", lambda *a: built.append(a[2]) or original(*a)
        )
        cfg = FragmentConfig(1, (element(LAMBDA, {g2_circle(0): 1}),), 10)
        assert evaluate(LAMBDA, parse_formula("A x. E y. x = y"), {}, cfg).truth is Truth.UNKNOWN
        assert fragment_calls == [] and built == []
        # a search that walks past zero builds them
        evaluate(LAMBDA, parse_formula("E x. 0 < x"), {}, cfg)
        assert built != []


# -- refutation in the divisible hull -----------------------------------------


def _hull_rows(*atoms):
    """The rows of a conjunction of atoms, each ``lhs < rhs``, ``lhs = rhs``
    or, for ``rhs <= lhs``, ``~lhs < rhs``."""
    rows = ()
    for text in atoms:
        neg = text.startswith("~")
        atom = parse_formula(text.lstrip("~"))
        (disjunct,) = oagw.hull.atom(atom, neg, True)
        rows += disjunct
    return rows


def _atom_node(construction, atom, neg=False):
    """The compiled node of one atom, or of its negation if ``neg``."""
    return oagw.evaluate._compile(construction, atom, neg, [None], [])


class TestDivisibleHull:
    """A quantifier whose stopping condition has no solution in the divisible
    hull is skipped, and its verdict stays the search's."""

    @pytest.mark.parametrize(
        "atoms, feasible",
        [
            (("x < y", "y < z", "~x < z"), False),
            (("x < y", "y < z", "x < z"), True),
            # the one strict row must carry through three eliminations
            (("x < y", "~z < y", "~w < z", "~x < w"), False),
            (("~y < x", "~z < y", "~w < z", "~x < w"), True),
            # y cancels between the first two, and x <= 0 meets 0 < x
            (("2*x < y", "y < 3*x", "~0 < x"), False),
            (("2*x < y", "y < x"), True),
            # 3x < 2y and y < x need the multipliers 1 and 2
            (("3*x < 2*y", "y < x", "~x < 0"), False),
            (("x = y", "x < y"), False),
            (("x = y", "~x < y"), True),
            (("x < x",), False),
            (("~x < x",), True),
            ((), True),
        ],
    )
    def test_fourier_motzkin(self, atoms, feasible):
        assert oagw.hull.feasible(_hull_rows(*atoms)) is feasible

    def test_a_false_equation_is_two_disjuncts(self):
        hull = oagw.hull
        dnf = hull.atom(parse_formula("x = y"), False, False)
        assert dnf == ((({"x": 1, "y": -1}, True),), (({"x": -1, "y": 1}, True),))
        # ~(x = y) returning True is the same condition
        assert hull.atom(parse_formula("x = y"), True, True) == dnf
        assert [hull.feasible(d + _hull_rows("x = y")) for d in dnf] == [False, False]

    def test_an_atom_with_a_constant_gives_no_rows(self):
        for text in ("x < y + {G2[0].c: 1}", "cong(2, x, y)", "desc_lt(2, x, y)"):
            for neg in (False, True):
                node = _atom_node(LAMBDA, parse_formula(text), neg)
                assert node.hull(True) == node.hull(False) == oagw.hull.TOP, text

    def test_a_system_past_the_row_cap_is_feasible(self):
        # infeasible, but the rows z_i <= 0 take it past the cap
        cap = oagw.hull.MAX_ROWS
        rows = _hull_rows("x < y", "y < x")
        assert oagw.hull.feasible(rows) is False
        padding = tuple(({f"z{i}": 1}, False) for i in range(cap - 1))
        assert oagw.hull.feasible(rows + padding) is True

    def test_past_the_disjunct_cap_the_search_runs(self, fragment_calls):
        cap = oagw.hull.MAX_DISJUNCTS
        for n, searched in ((cap, False), (cap + 1, True)):
            fragment_calls.clear()
            f = parse_formula("E x. " + " | ".join(["x < x"] * n))
            assert evaluate(LAMBDA, f, {}, CFG).truth is Truth.UNKNOWN
            assert bool(fragment_calls) is searched

    @pytest.mark.parametrize(
        "text",
        [
            # the two z are different variables, and so are the two x
            "E x. (E z. z < x) & (E z. x < z)",
            "E z. E x. x < z & (E z. z < x)",
        ],
    )
    def test_a_quantifier_renames_its_variable_apart(self, text):
        cfg = FragmentConfig(2, _pool(POOL_TEXTS[0]), 10)
        got = _check_against_reference(LAMBDA, parse_formula(text), cfg)
        assert got.decided

    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA])
    @settings(max_examples=150, deadline=None)
    @given(text=_formula_texts(HULL_ATOMS), pool_text=st.sampled_from(POOL_TEXTS))
    def test_verdicts_match_the_reference(self, construction, text, pool_text):
        cfg = FragmentConfig(1, _pool(pool_text, construction), 6)
        _check_against_reference(construction, parse_formula(text, construction), cfg)

    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA])
    def test_the_hull_skips_searches_of_a_fixed_corpus(
        self, construction, fragment_calls, monkeypatch
    ):
        cfg = FragmentConfig(1, _pool(POOL_TEXTS[0], construction), 6)
        # draws in which the hull skips some search the reference runs, and all of them
        some = every = 0
        for i in range(60):
            f = parse_formula(_formula_text(case_rng(28, i).choice, HULL_ATOMS), construction)
            fragment_calls.clear()
            got = evaluate(construction, f, {}, cfg)
            want, searched = _searched_by_reference(monkeypatch, construction, f, cfg)
            same_verdict(got, want)
            assert len(fragment_calls) <= searched
            some += len(fragment_calls) < searched
            every += not fragment_calls and searched > 0
        assert some >= 3 and every >= 1


# -- compile once, run per config ------------------------------------------------


class TestCompileOnce:
    """A compiled program runs under any config, as evaluate would."""

    def test_errors_keep_their_order_and_messages(self):
        other = element(GAMMA, {g2_circle(0): 1})
        # x bound, z unbound, and a constant of the other construction
        f = And(Lt(term_var("x"), term_var("z")), Exists("y", Lt(term_var("y"), term_const(other))))
        with pytest.raises(ConstructionMismatch, match=r"^binding 'x' is not a lambda element$"):
            evaluate(LAMBDA, f, {"x": other}, CFG)
        with pytest.raises(ConstructionMismatch, match=r"^cannot mix lambda and gamma elements$"):
            evaluate(LAMBDA, f, {"x": zero(LAMBDA)}, CFG)
        with pytest.raises(KeyError, match=r"unbound variables: \['z'\]"):
            evaluate(LAMBDA, parse_formula("x < z & E y. y < x"), {"x": zero(LAMBDA)}, CFG)
        # compiled, the constant raises at compile time and the rest at the run
        with pytest.raises(ConstructionMismatch, match=r"^cannot mix lambda and gamma elements$"):
            oagw.evaluate.compile_formula(LAMBDA, f)
        program = oagw.evaluate.compile_formula(LAMBDA, parse_formula("x < z & E y. y < x"))
        with pytest.raises(ConstructionMismatch, match=r"^binding 'x' is not a lambda element$"):
            oagw.evaluate.run_program(program, {"x": other}, CFG)
        with pytest.raises(KeyError, match=r"unbound variables: \['z'\]"):
            oagw.evaluate.run_program(program, {"x": zero(LAMBDA)}, CFG)

    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA])
    def test_one_program_under_several_configs(self, construction):
        pools = [tuple(parse_element(t, construction) for t in texts) for texts in POOL_TEXTS]
        cfgs = [FragmentConfig(2, pool, cap) for pool in pools for cap in (6, 13)]
        for shape in list(PREFIX_SHAPES.values()) + HOISTING_SHAPES:
            f = _with_pool(shape, POOL_TEXTS[0], construction)
            program = oagw.evaluate.compile_formula(construction, f)
            # twice over, so no run leaves state behind for the next one
            for cfg in cfgs + cfgs:
                got = oagw.evaluate.run_program(program, {}, cfg)
                same_verdict(got, evaluate(construction, f, {}, cfg))


class TestLazyBuild:
    """Only a quantifier that searches builds the closures of its body."""

    @pytest.fixture
    def atom_builds(self, monkeypatch):
        count = [0]
        original = oagw.evaluate._compile_atom

        def counting(*args):
            count[0] += 1
            return original(*args)

        monkeypatch.setattr(oagw.evaluate, "_compile_atom", counting)
        return count

    @pytest.mark.parametrize(
        "text",
        ["A x. A y. A z. (x < y & y < z -> x < z)", "A x. E y. desc_lt(2, x, y)"],
    )
    def test_a_skipped_quantifier_builds_no_atom(self, atom_builds, text):
        # the parent built 3 and 1 atom closures for these, which never ran
        for construction in (LAMBDA, GAMMA):
            oagw.evaluate.compile_formula(construction, parse_formula(text, construction))
        assert atom_builds[0] == 0

    def test_a_searching_quantifier_builds_each_atom_once(self, atom_builds):
        f = parse_formula("E x. E y. x + y = {G2[0].c: 1} & x < y")
        program = oagw.evaluate.compile_formula(LAMBDA, f)
        assert atom_builds[0] == 2
        oagw.evaluate.run_program(program, {}, CFG)
        assert atom_builds[0] == 2

    def test_a_hull_under_a_skipped_quantifier_is_never_worked_out(self, monkeypatch):
        systems = []
        original = oagw.hull.feasible
        monkeypatch.setattr(
            oagw.hull, "feasible", lambda rows: systems.append(rows) or original(rows)
        )
        # the inner quantifiers have rows, but the outer ones never search
        for text in [
            "E x. A y. (0 < y & y < x -> ~cong(2, y, {G2[0].c: 1}))",
            "A x. A y. E z. x + y = z",
        ]:
            oagw.evaluate.compile_formula(LAMBDA, parse_formula(text))
        assert systems == []
        # a hull that decides whether the outermost quantifier searches is
        oagw.evaluate.compile_formula(LAMBDA, parse_formula(PREFIX_SHAPES["aaa-trans"]))
        assert systems != []

    def test_a_foreign_constant_under_a_skipped_quantifier_still_raises(self):
        other = Term((("y", 1),), element(GAMMA, {g2_circle(0): 1}))
        f = Forall("x", Exists("y", DescLt(2, term_var("x"), other)))
        with pytest.raises(ConstructionMismatch, match=r"^cannot mix lambda and gamma elements$"):
            oagw.evaluate.compile_formula(LAMBDA, f)


# -- desc_lt with a fixed s in the divisible hull --------------------------------


def _fixed_s(rng, construction, n, kind):
    """An s of the given kind: 0, divisible by n, or not divisible by n."""
    if kind == "zero":
        return zero(construction)
    if kind == "divisible":
        return random_nonzero(rng, construction, 2).scale(n)
    while True:
        s = random_element(rng, construction, 2)
        if s.lead_mod(n) is not None:
            return s


@st.composite
def _desc_lt_sentences(draw):
    """A draw of a sentence ``Q x. guard op [~]desc_lt(n, s, t)``, maybe
    under ``Q y.``, as a function of the construction."""
    seed = draw(st.integers(0, 10**6))
    n = draw(st.sampled_from([2, 3]))
    s_kind = draw(st.sampled_from(["zero", "divisible", "indivisible"]))
    neg = draw(st.booleans())
    t_kind = draw(st.sampled_from(["x", "2*x", "-x", "x - y", "x + c"]))
    guard = draw(st.sampled_from(["", "0 < x", "x < 0"]))
    inner, outer = draw(st.sampled_from("EA")), draw(st.sampled_from("EA"))

    def build(construction):
        rng = case_rng(seed, 0)
        s = _fixed_s(rng, construction, n, s_kind)
        t = {
            "x": term_var("x"),
            "2*x": term_var("x", 2),
            "-x": term_var("x", -1),
            "x - y": Term((("x", 1), ("y", -1)), None),
            "x + c": Term((("x", 1),), random_nonzero(rng, construction, 2)),
        }[t_kind]
        body = DescLt(n, term_const(s), t)
        if neg:
            body = Not(body)
        if guard:
            g = Lt(Term(), term_var("x")) if guard == "0 < x" else Lt(term_var("x"), Term())
            body = And(g, body) if inner == "E" else Implies(g, body)
        f = (Exists if inner == "E" else Forall)("x", body)
        if t_kind == "x - y":
            f = (Exists if outer == "E" else Forall)("y", f)
        return f

    return build


class TestFixedDescLt:
    """desc_lt(n, s, t) with s divisible by n is t <= 0, and the hull reads it so."""

    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA])
    @settings(max_examples=150, deadline=None)
    @given(build=_desc_lt_sentences(), pool_text=st.sampled_from(POOL_TEXTS))
    def test_verdicts_match_the_reference(self, construction, build, pool_text):
        cfg = FragmentConfig(1, _pool(pool_text, construction), 8)
        _check_against_reference(construction, build(construction), cfg)

    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA])
    def test_rows_only_for_a_divisible_s_and_a_constant_free_t(self, construction):
        rng = case_rng(29, 0)
        c = random_nonzero(rng, construction, 2)
        for n in (2, 3):
            for kind in ("zero", "divisible", "indivisible"):
                s = term_const(_fixed_s(rng, construction, n, kind))
                for t in (term_var("x"), Term((("x", 1),), c)):
                    for neg in (False, True):
                        node = _atom_node(construction, DescLt(n, s, t), neg)
                        if kind == "indivisible" or t.const is not None:
                            assert node.hull(True) == node.hull(False) == oagw.hull.TOP
                            continue
                        # the atom is x <= 0 and its negation 0 < x
                        holds = ({"x": 1}, False) if not neg else ({"x": -1}, True)
                        fails = ({"x": -1}, True) if not neg else ({"x": 1}, False)
                        assert node.hull(True) == ((holds,),)
                        assert node.hull(False) == ((fails,),)

    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA])
    def test_a_refuted_case_enumerates_no_fragment(self, construction, fragment_calls, monkeypatch):
        cfg = FragmentConfig(2, _pool(POOL_TEXTS[0], construction), 10)
        c = term_const(random_nonzero(case_rng(30, 0), construction, 2).scale(3))
        x = term_var("x")
        positive = Lt(Term(), x)
        for f in (
            Exists("x", And(positive, DescLt(3, c, x))),
            Forall("x", Implies(positive, Not(DescLt(3, c, x)))),
            # s = 0 is divisible by every n
            Exists("x", And(DescLt(2, Term(), term_var("x", 2)), positive)),
        ):
            fragment_calls.clear()
            got = evaluate(construction, f, {}, cfg)
            assert fragment_calls == [], print_formula(f)
            want, searched = _searched_by_reference(monkeypatch, construction, f, cfg)
            assert searched > 0
            same_verdict(got, want)
            assert got.truth is Truth.UNKNOWN and got.reason == "fragment bounds exhausted"
        # with s not divisible, or t carrying a constant, the search runs
        s = term_const(_fixed_s(case_rng(30, 1), construction, 3, "indivisible"))
        shifted = Term((("x", 1),), random_nonzero(case_rng(30, 2), construction, 2))
        for f in (
            Exists("x", And(positive, DescLt(3, s, x))),
            Exists("x", And(positive, DescLt(3, c, shifted))),
        ):
            fragment_calls.clear()
            _check_against_reference(construction, f, cfg)
            assert fragment_calls, print_formula(f)

    def test_the_gamma_closure_suite_searches_nine_fewer_fragments(self, fragment_calls):
        from oagw.suites import SuiteOptions, run_suite

        report = run_suite("f1-exists-closure", SuiteOptions(GAMMA, seed=42))
        # 191 before: the 9 Unknown rows, E x. 0 < x & desc_lt(n, c, x)
        # with c divisible by n, no longer search
        assert len(fragment_calls) == 182
        assert report.counts == {"pass": 91, "fail": 0, "unknown": 9}
        payload = json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        assert digest == "2fc8a964262672b9ff5fafc316f35f247cd9215fd4a126cebd32d961518212c9"


# -- the hull is asked only where some atom gives rows ---------------------------


def _rowless_formulas(construction):
    """Closure sentences of shapes 0 and 1 and four eval templates: no
    atom of theirs gives rows."""
    from oagw.suites import _closure_sentence

    out = []
    # shape 0 is E x. k*x = a, shape 1 E x. (lo < x & x < hi) & cong(n, x, r)
    shapes = {0: 0, 1: 0}
    for i in range(40):
        f, _ = _closure_sentence(case_rng(31, i), construction)
        shape = 0 if isinstance(f.body, Eq) else 1 if isinstance(f.body.lhs, And) else 2
        if shape in shapes and shapes[shape] < 3:
            shapes[shape] += 1
            out.append(f)
    assert shapes == {0: 3, 1: 3}
    for name in ("e-scaled", "a-below", "eee-sum", "ae-desc"):
        out.append(_with_pool(PREFIX_SHAPES[name], POOL_TEXTS[1], construction))
    return out


class TestRowFlag:
    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA])
    def test_a_body_without_rows_is_never_hulled(self, construction, monkeypatch, fragment_calls):
        cfg = FragmentConfig(2, _pool(POOL_TEXTS[1], construction), 10)
        feasible, original = [], oagw.hull.feasible
        monkeypatch.setattr(oagw.hull, "feasible", lambda rows: feasible.append(rows) or original(rows))
        skipped = 0
        for f in _rowless_formulas(construction):
            feasible.clear(), fragment_calls.clear()
            got = evaluate(construction, f, {}, cfg)
            assert feasible == [], print_formula(f)
            want, searched = _searched_by_reference(monkeypatch, construction, f, cfg)
            same_verdict(got, want)
            # a search runs as the reference's, or not at all
            assert len(fragment_calls) in (0, searched), print_formula(f)
            skipped += not fragment_calls
        assert skipped > 0
