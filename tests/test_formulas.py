import re

import pytest

from oagw.elements import ConstructionMismatch, GAMMA, LAMBDA, ParseError, element, zero
from oagw.formulas import (
    And,
    Cong,
    DescLt,
    Exists,
    Forall,
    Implies,
    Lt,
    Not,
    Term,
    classify_prefix,
    free_vars,
    parse_formula,
    parse_term,
    print_formula,
    rename_bound_apart,
)
from oagw.positions import g1_square

S00 = g1_square(0, 0)


class TestParse:
    def test_quantified_implication(self):
        f = parse_formula("E x. A y. (0 < y & y < x) -> ~cong(2, y, {G2[0].c: 1})")
        assert isinstance(f, Exists)
        assert isinstance(f.body, Forall)
        body = f.body.body
        assert isinstance(body, Implies)
        assert isinstance(body.lhs, And)
        assert isinstance(body.rhs, Not)

    def test_round_trip_cases(self):
        cases = [
            "E x. A y. (0 < y & y < x) -> ~cong(2, y, {G2[0].c: 1})",
            "x < y | y = z & ~(x = z)",
            "cong(3, 2*x - y, {G1[0].s[0]: 1+2*c1})",
            "desc_lt(2, x, y)",
            "A t. t < x -> (E u. u + u = t)",
            "rphi(2; z1 < a1, z2 < a2; ; z1 ~ b1, z2 ~ b2, z1 ~ z2)",
            "rphi(3; z1 z2 < a; u1 u2; z1 ~ u1, z2 ~ u2)",
            "true & ~false",
        ]
        for text in cases:
            f = parse_formula(text)
            assert parse_formula(print_formula(f)) == f, text

    def test_modulus_validation(self):
        with pytest.raises(ParseError):
            parse_formula("cong(1, x, y)")
        with pytest.raises(ParseError):
            parse_formula("rphi(1; z < a; ; )")

    @pytest.mark.parametrize("atom", [Cong, DescLt])
    @pytest.mark.parametrize("modulus", [2.0, "2", None, 1, 0, -3])
    def test_constructors_reject_a_bad_modulus(self, atom, modulus):
        # a float modulus would print as cong(2.0, ...), which the parser
        # rejects, and fail only later inside lead_mod
        with pytest.raises(ValueError, match="modulus must be an integer >= 2"):
            atom(modulus, Term((("x", 1),)), Term((("y", 1),)))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("rphi(2; z1 z2 < a; ; z1 ~ z2 + b)", "congruence right side b + z2"),
            ("rphi(2; z < a; u; z ~ 2*u)", "congruence right side 2*u"),
            ("rphi(2; z1 < a, z2 < a + z1; ; )", "bound a + z1"),
            ("rphi(2; z < u; u; z ~ u)", "bound u"),
            ("rphi(2; < a; ; )", "at least one bounded variable per group"),
            ("rphi(2; z < a; ; b ~ z)", "congruence left side 'b'"),
        ],
        ids=["sum-right", "scaled-right", "bounded-bound", "inner-bound", "empty-group", "free-left"],
    )
    def test_malformed_rphi(self, text, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_formula(text)

    def test_rphi_expansion(self):
        # z1, u, z2 and z3 end in one class anchored at c and d, which
        # must agree; each bounded variable avoids no residue below its bound
        f = parse_formula("rphi(3; z1 z2 < a, z3 < b; u; z1 ~ u, u ~ c, z2 ~ d, z3 ~ z2, z1 ~ z3)")
        assert print_formula(f) == (
            "0 < a & 0 < b & cong(3, c, d) & ~desc_lt(3, c, a) & ~desc_lt(3, c, b)"
        )
        assert print_formula(parse_formula("rphi(2; z < a; u; u ~ b)")) == "0 < a"

    def test_rphi_expansion_emits_each_conjunct_once(self):
        # d reaches the class of c twice, through z1 ~ d and through the
        # merge with z2; z1 and z2 avoid the residue of c below one bound
        f = parse_formula("rphi(2; z1 z2 < a; ; z1 ~ c, z1 ~ d, z2 ~ d, z1 ~ z2)")
        assert print_formula(f) == "0 < a & cong(2, c, d) & ~desc_lt(2, c, a)"
        # a repeated bound keeps its first place
        f = parse_formula("rphi(2; z1 < a, z2 < b, z3 < a; ; z1 ~ c, z2 ~ c, z3 ~ z1)")
        assert print_formula(f) == (
            "0 < a & 0 < b & ~desc_lt(2, c, a) & ~desc_lt(2, c, b)"
        )

    def test_unexpected_token_position(self):
        with pytest.raises(ParseError) as err:
            parse_formula("x <")
        assert "index" in str(err.value)

    @pytest.mark.parametrize("text, at", [("x < $y", 4), ("  x <\t @", 7), ("#", 0)])
    def test_unexpected_character_position(self, text, at):
        with pytest.raises(ParseError, match="unexpected character") as err:
            parse_formula(text)
        assert err.value.at == at

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_formula("x < y y")

    def test_term_syntax(self):
        t = parse_term("3*x - y + {G1[0].s[0]: 2}")
        assert t.coeffs == (("x", 3), ("y", -1))
        assert t.const == element(LAMBDA, {S00: {0: 2}})
        assert parse_term("x - x").coeffs == ()
        assert parse_term("0").const is None

    def test_gamma_literals(self):
        f = parse_formula("x < {G2[0].c: 1/3}", GAMMA)
        assert isinstance(f, Lt)

    def test_keyword_not_variable(self):
        with pytest.raises(ParseError):
            parse_formula("E cong. cong < cong")


class TestTerms:
    def test_evaluate_collects(self):
        t = parse_term("2*x + x - y")
        env = {
            "x": element(LAMBDA, {S00: {0: 1}}),
            "y": element(LAMBDA, {S00: {1: 4}}),
        }
        assert t.evaluate(LAMBDA, env) == element(LAMBDA, {S00: {0: 3, 1: -4}})

    def test_unbound(self):
        with pytest.raises(KeyError):
            parse_term("x").evaluate(LAMBDA, {})

    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA])
    def test_empty_term_is_zero(self, construction):
        assert Term().evaluate(construction, {}) is zero(construction)
        assert parse_term("0", construction).evaluate(construction, {}) is zero(construction)

    def test_constant_only_term(self):
        c = element(LAMBDA, {S00: {0: 2, 1: -1}})
        assert Term((), c).evaluate(LAMBDA, {"x": c}) is c
        assert parse_term("{G1[0].s[0]: 2-c1}").evaluate(LAMBDA, {}) == c

    def test_single_variable_term_returns_the_binding(self):
        a = element(LAMBDA, {S00: {1: 4}})
        assert parse_term("x").evaluate(LAMBDA, {"x": a}) is a
        assert parse_term("-x").evaluate(LAMBDA, {"x": a}) == -a

    def test_foreign_element_rejected(self):
        gamma_one = element(GAMMA, {S00: 1})
        for text in ("x", "2*x", "x + y", "x + {G1[0].s[0]: 1}"):
            with pytest.raises(ConstructionMismatch):
                parse_term(text).evaluate(LAMBDA, {"x": gamma_one, "y": gamma_one})
        with pytest.raises(ConstructionMismatch):
            Term((), gamma_one).evaluate(LAMBDA, {})
        lam_one = element(LAMBDA, {S00: {0: 1}})
        with pytest.raises(ConstructionMismatch):
            parse_term("x + y").evaluate(LAMBDA, {"x": lam_one, "y": gamma_one})

    def test_free_vars(self):
        f = parse_formula("E x. x < y & cong(2, z, x)")
        assert free_vars(f) == {"y", "z"}

    def test_rphi_free_vars(self):
        f = parse_formula("rphi(2; z < a; u; z ~ b, z ~ u)")
        assert free_vars(f) == {"a", "b"}


class TestRenameBoundApart:
    @pytest.mark.parametrize(
        "text", ["0 < x", "E x. A y. x < y + z", "E x. (E y. 0 < y) & (E z. z < x)"]
    )
    def test_returns_the_formula_itself_when_names_are_apart(self, text):
        f = parse_formula(text)
        assert rename_bound_apart(f) is f

    @pytest.mark.parametrize(
        "text, renamed",
        [
            # siblings of one name
            (
                "E x. (E y. y = x) & (E y. y < x)",
                "E x_0. (E y_0. y_0 = x_0) & (E y_1. y_1 < x_0)",
            ),
            # an inner binding shadowing an outer one of the same name
            ("E x. 0 < x & (A x. x < 0)", "E x_0. 0 < x_0 & (A x_1. x_1 < 0)"),
            # a bound name that is also free elsewhere; x_0 is taken
            ("x < 0 & (E x. x + x_0 = 0)", "x < 0 & (E x_1. x_0 + x_1 = 0)"),
        ],
    )
    def test_renames_every_bound_variable_to_a_fresh_name(self, text, renamed):
        f = rename_bound_apart(parse_formula(text))
        assert print_formula(f) == renamed
        assert free_vars(f) == free_vars(parse_formula(text))

    def test_keeps_moduli_and_constants(self):
        f = parse_formula(
            "E y. (E y. cong(3, 2*y, {G2[0].c: 1})) & desc_lt(2, y, y + {G2[0].c: 1})"
        )
        assert print_formula(rename_bound_apart(f)) == (
            "E y_0. (E y_1. cong(3, 2*y_1, {G2[0].c: 1})) & desc_lt(2, y_0, y_0 + {G2[0].c: 1})"
        )


class TestClassify:
    def test_eae(self):
        assert classify_prefix(parse_formula("E x. A y. E z. x < y & y < z")) == "∃∀∃"

    def test_quantifier_free(self):
        assert classify_prefix(parse_formula("x < y & cong(2, x, y)")) == ""

    def test_negation_flips(self):
        assert classify_prefix(parse_formula("~(E x. x < y)")) == "∀"

    def test_merging_minimizes(self):
        # both conjuncts existential: one block, not two
        f = parse_formula("(E x. x < a) & (E y. y < b)")
        assert classify_prefix(f) == "∃"

    def test_implication_flips_left(self):
        f = parse_formula("(E x. x < a) -> (E y. y < b)")
        assert classify_prefix(f) == "∀∃"

    def test_collapse_adjacent(self):
        f = parse_formula("E x. E y. A z. x + y < z")
        assert classify_prefix(f) == "∃∀"
