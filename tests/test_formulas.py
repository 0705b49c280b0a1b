import copy
import pickle
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from oagw.elements import (
    ConstructionMismatch,
    GAMMA,
    LAMBDA,
    ParseError,
    element,
    parse_element,
    zero,
)
from oagw.formulas import (
    And,
    BoolC,
    Cong,
    DescLt,
    Eq,
    Exists,
    Forall,
    Implies,
    Lt,
    Not,
    Or,
    Term,
    classify_prefix,
    free_vars,
    parse_formula,
    parse_term,
    print_formula,
    rename_bound_apart,
)
from oagw.evaluate import Truth, Verdict, compile_formula
from oagw.positions import g1_square
from oagw.ringlang import RExists, RingEq, ValRing, VLt, VSumEq, svar, translate_to_ring
from oagw.sampling import random_nonzero
from oagw.suites import _closure_sentence, gen_corpus

from conftest import fraction_calls, generated_calls
from test_evaluate import POOL_TEXTS, PREFIX_SHAPES

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
            # a name may start with _, and a digit outside ASCII reads as an integer
            "E _x. _x < 0",
            "x < \u0663*y",
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


def _parse_error(parse, text):
    with pytest.raises(ParseError) as err:
        parse(text)
    return err.value


_FORMULA_ERRORS = [
    # unexpected end of input
    ("", 0, "unexpected end of input"),
    ("E", 1, "unexpected end of input"),
    ("E x.", 4, "unexpected end of input"),
    ("x", 1, "unexpected end of input"),
    ("x < y & ", 8, "unexpected end of input"),
    ("(x < y", 6, "unexpected end of input"),
    ("cong(2, x", 9, "unexpected end of input"),
    ("x < y +", 7, "unexpected end of input"),
    ("x < 2", 5, "unexpected end of input"),
    ("x < 2*", 6, "unexpected end of input"),
    ("rphi(2; z < a; ; z ~ b", 22, "unexpected end of input"),
    # expected X, found Y
    ("cong(2; x, y)", 6, "expected ',', found ';'"),
    ("desc_lt(2.5, x, y)", 9, "expected ',', found '.'"),
    ("E x y", 4, "expected '.', found 'y'"),
    ("x < 2 y", 6, "expected '*', found 'y'"),
    ("rphi < y", 5, "expected '(', found '<'"),
    ("rphi(2; z < a, ; ; )", 15, "expected '<', found ';'"),
    ("rphi(2; z < a; ; z b)", 19, "expected '~', found 'b'"),
    # expected an integer
    ("cong(x, y, z)", 5, "expected an integer"),
    ("rphi(x; z < a; ; )", 5, "expected an integer"),
    # expected a variable after quantifier
    ("E 1. x < y", 2, "expected a variable after quantifier"),
    ("E cong. cong < cong", 2, "expected a variable after quantifier"),
    ("A (. x < y", 2, "expected a variable after quantifier"),
    # a keyword used as a variable
    ("x < E", 4, "keyword 'E' used as a variable"),
    ("x + cong < y", 4, "keyword 'cong' used as a variable"),
    ("x < true", 4, "keyword 'true' used as a variable"),
    # expected '<' or '='
    ("x , y", 2, "expected '<' or '=', found ','"),
    ("x y", 2, "expected '<' or '=', found 'y'"),
    ("0 2", 2, "expected '<' or '=', found '2'"),
    ("x -> y - z", 2, "expected '<' or '=', found '->'"),
    # expected a term
    ("x <", 3, "expected a term"),
    ("x < )", 4, "expected a term, found ')'"),
    ("rphi(2; z < a; ; z ~ )", 21, "expected a term, found ')'"),
    # trailing input
    ("x < y y", 6, "trailing input 'y'"),
    ("(x < y))", 7, "trailing input ')'"),
    ("x = y true", 6, "trailing input 'true'"),
    # unexpected character
    ("x < $y", 4, "unexpected character"),
    ("#", 0, "unexpected character"),
    ("{", 0, "unexpected character"),
    ("x < {G2[0].c: 1", 4, "unexpected character"),
    ("x < {G2[0].c: 1} }", 17, "unexpected character"),
    # a bad modulus, at the closing parenthesis
    ("cong(1, x, y)", 12, "modulus must be an integer >= 2, got 1"),
    ("desc_lt(0, x, y)", 15, "modulus must be an integer >= 2, got 0"),
    # the rphi rejections, at the closing parenthesis
    ("rphi(1; z < a; ; )", 17, "modulus must be >= 2, got 1"),
    ("rphi(2; < a; ; )", 15, "rphi needs at least one bounded variable per group"),
    ("rphi(2; z < a; ; 1 ~ z)", 17, "expected a variable on the left of ~"),
    (
        "rphi(2; z < a; ; b ~ z)",
        22,
        "congruence left side 'b' is not a bound or inner variable",
    ),
    ("rphi(2; z < u; u; z ~ u)", 23, "bound u uses a bound or inner variable"),
    (
        "rphi(2; z < a; u; z ~ 2*u)",
        25,
        "congruence right side 2*u uses a bound or inner variable inside a term",
    ),
]
_TERM_ERRORS = [
    ("", 0, "expected a term"),
    ("x +", 3, "unexpected end of input"),
    ("x y", 2, "trailing input 'y'"),
]
_LITERAL_ERRORS = [
    ("E x. x = {G2[0].c: 1/0}", 19, "zero denominator in '1/0'"),
    ("E x. x = {G9: 1}", 10, "bad position 'G9'"),
    ("E x. x = {G2[0].s: 1/2}", 19, "G2[0].s takes integer polynomials"),
]


class TestParseErrors:
    """Every ParseError of the formula parser, by its exact offset and message."""

    @pytest.mark.parametrize("text, at, message", _FORMULA_ERRORS)
    def test_formula_error(self, text, at, message):
        err = _parse_error(parse_formula, text)
        assert err.at == at
        assert str(err) == f"at index {at}: {message} in {text!r}"

    @pytest.mark.parametrize("text, at, message", _TERM_ERRORS)
    def test_term_error(self, text, at, message):
        err = _parse_error(parse_term, text)
        assert err.at == at
        assert str(err) == f"at index {at}: {message} in {text!r}"

    @pytest.mark.parametrize(
        "text, at, message",
        # ids from the text alone, so a changed offset renames no test
        [pytest.param(*case, id=case[0]) for case in _LITERAL_ERRORS],
    )
    def test_a_bad_literal_reports_its_offset_in_the_formula(self, text, at, message):
        err = _parse_error(parse_formula, text)
        assert err.at == at
        assert str(err) == f"at index {at}: {message} in {text!r}"

    def test_a_bad_literal_in_a_term_reports_its_offset_in_the_term(self):
        err = _parse_error(parse_term, "x + {G9: 1}")
        assert str(err) == "at index 5: bad position 'G9' in 'x + {G9: 1}'"

    def test_parse_element_keeps_offsets_within_the_literal(self):
        text = "{G2[0].c: 1/0}"
        err = _parse_error(lambda t: parse_element(t, LAMBDA), text)
        assert str(err) == f"at index 10: zero denominator in '1/0' in {text!r}"


_NAMES = ("x", "y", "z", "u1", "v_2")


def _terms(construction):
    """Canonical terms: sorted nonzero coefficients, some negative, and
    maybe a nonzero constant, whose values over lambda include
    polynomials at the squares and rationals at the circles."""
    coeffs = st.dictionaries(st.sampled_from(_NAMES), st.integers(-3, 3).filter(bool), max_size=3)
    const = st.none() | st.integers(0, 2**32).map(
        lambda seed: random_nonzero(random.Random(seed), construction, 3)
    )
    return st.builds(lambda c, k: Term(tuple(sorted(c.items())), k), coeffs, const)


def _formulas(construction):
    t = _terms(construction)
    n = st.integers(2, 5)
    leaves = st.one_of(
        st.builds(Lt, t, t),
        st.builds(Eq, t, t),
        st.builds(Cong, n, t, t),
        st.builds(DescLt, n, t, t),
        st.builds(BoolC, st.booleans()),
    )
    var = st.sampled_from(_NAMES)

    def extend(kids):
        return st.one_of(
            st.builds(Not, kids),
            st.builds(And, kids, kids),
            st.builds(Or, kids, kids),
            st.builds(Implies, kids, kids),
            st.builds(Exists, var, kids),
            st.builds(Forall, var, kids),
        )

    return st.recursive(leaves, extend, max_leaves=8)


_FORMULAS = {construction: _formulas(construction) for construction in (LAMBDA, GAMMA)}


class TestRoundTrip:
    """A printed formula parses back to itself."""

    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_printed_formulas_parse_back(self, construction, data):
        f = data.draw(_FORMULAS[construction])
        assert parse_formula(print_formula(f), construction) == f

    @pytest.mark.parametrize("construction", [LAMBDA, GAMMA])
    @pytest.mark.parametrize("kind", ["exists", "ea"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_corpus_formulas_parse_back(self, construction, kind, seed):
        for text in gen_corpus(kind, 50, seed, construction):
            f = parse_formula(text, construction)
            assert parse_formula(print_formula(f), construction) == f, text


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


# -- nodes ---------------------------------------------------------------------

_S, _T = Term((("x", 1),)), Term((("y", 2),), element(LAMBDA, {S00: {0: 1}}))
_NODES = [
    _S,
    Lt(_S, _T),
    Eq(_S, _T),
    Cong(2, _S, _T),
    DescLt(3, _S, _T),
    BoolC(True),
    Not(Lt(_S, _T)),
    And(Lt(_S, _T), BoolC(False)),
    Or(Lt(_S, _T), BoolC(False)),
    Implies(Lt(_S, _T), BoolC(False)),
    Exists("x", Eq(_S, _T)),
    Forall("x", Eq(_S, _T)),
    Verdict(Truth.UNKNOWN, None, "fragment bounds exhausted"),
    svar("x"),
    VLt(svar("x"), svar("y")),
    VSumEq(svar("x"), svar("y"), svar("z")),
    RingEq(svar("x"), svar("y")),
    ValRing(svar("x")),
    RExists("g", ValRing(svar("g"))),
]


class TestNodes:
    @pytest.mark.parametrize("node", _NODES, ids=lambda n: type(n).__name__)
    def test_setting_an_attribute_raises(self, node):
        with pytest.raises(AttributeError):
            setattr(node, node._fields[0], None)
        with pytest.raises(AttributeError):
            node.other = None

    @pytest.mark.parametrize("node", _NODES, ids=lambda n: type(n).__name__)
    def test_pickle_and_copies_give_back_an_equal_node(self, node):
        for back in (pickle.loads(pickle.dumps(node)), copy.copy(node), copy.deepcopy(node)):
            assert back == node and type(back) is type(node)

    @pytest.mark.parametrize("node", _NODES, ids=lambda n: type(n).__name__)
    def test_repr_names_the_class_and_its_fields(self, node):
        fields = ", ".join(f"{n}={getattr(node, n)!r}" for n in node._fields)
        assert repr(node) == f"{type(node).__name__}({fields})"

    @pytest.mark.parametrize(
        "a, b", [(Lt(_S, _T), Eq(_S, _T)), (Cong(2, _S, _T), DescLt(2, _S, _T)),
                 (And(BoolC(True), BoolC(True)), Or(BoolC(True), BoolC(True)))],
        ids=["lt-eq", "cong-desc_lt", "and-or"],
    )
    def test_classes_with_equal_fields_differ(self, a, b):
        assert not a == b and a != b
        assert len({a, b}) == 2

    def test_equal_nodes_hash_equal(self):
        text = "E x. A y. (0 < y & y < x) -> ~cong(2, y, {G2[0].c: 1/3})"
        a, b = parse_formula(text), parse_formula(text)
        assert a == b and hash(a) == hash(b) and a is not b
        assert hash(Term((("x", 1),), None)) == hash(_S)

    def test_defaults_fill_the_last_fields(self):
        assert Term() == Term((), None)
        assert Verdict(Truth.TRUE) == Verdict(Truth.TRUE, None, "")
        with pytest.raises(TypeError):
            Lt(_S)

    def test_an_rphi_keeps_a_cong_and_a_desc_lt_of_the_same_terms(self):
        f = parse_formula("rphi(2; z < a; ; z ~ c, z ~ a)")
        assert print_formula(f) == "0 < a & cong(2, c, a) & ~desc_lt(2, c, a)"


# -- the front end enters no generated code and no fractions.py ----------------

_POOL = POOL_TEXTS[1]  # holds the fraction 1/5


def _template_formulas(construction):
    texts = [re.sub(r"P(\d)", lambda m: _POOL[int(m.group(1))], text)
             for text in PREFIX_SHAPES.values()]
    # a fraction in a literal, a bound name used twice, a desc_lt whose
    # constant side reads as 0 < y once compiled
    extra = ["x < {G2[0].c: -3/5}", "A y. E x. y + x = 0 & ~(E x. x = y)", "A y. desc_lt(3, 0, y)"]
    return texts + extra


def _entered(fn):
    return generated_calls(fn) + fraction_calls(fn)


@pytest.mark.parametrize("construction", [LAMBDA, GAMMA])
class TestFrontEndCost:
    def test_parse_formula(self, construction):
        texts = _template_formulas(construction)
        assert _entered(lambda: [parse_formula(t, construction) for t in texts]) == []

    def test_compile_formula(self, construction):
        fs = [parse_formula(t, construction) for t in _template_formulas(construction)]
        assert _entered(lambda: [compile_formula(construction, f) for f in fs]) == []

    def test_print_formula(self, construction):
        fs = [parse_formula(t, construction) for t in _template_formulas(construction)]
        assert _entered(lambda: [print_formula(f) for f in fs]) == []

    def test_rename_bound_apart(self, construction):
        fs = [parse_formula(t, construction) for t in _template_formulas(construction)]
        renamed = []
        assert _entered(lambda: renamed.extend(rename_bound_apart(f) for f in fs)) == []
        assert [g is f for f, g in zip(fs, renamed)].count(False) == 1

    def test_closure_sentences(self, construction):
        rngs = [random.Random(seed) for seed in range(12)]
        out = []
        assert _entered(lambda: out.extend(_closure_sentence(r, construction) for r in rngs)) == []
        assert {type(f.body) for f, _ in out} == {Eq, And}



def test_translate_to_ring_enters_no_generated_code():
    x, y, z = svar("x"), svar("y"), svar("z")
    stmts = [VLt(x, y * z), VSumEq(x, y, z), Not(VLt(x, y)), And(VLt(x, y), VLt(y, z))]
    assert _entered(lambda: [translate_to_ring(s) for s in stmts]) == []
