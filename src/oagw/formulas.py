"""Formula language over the group constructions.

Terms are integer combinations of variables plus an optional element
constant.  Atoms compare terms (``<``, ``=``), assert congruence
modulo n (``cong``), or assert the congruence-avoidance comparison
(``desc_lt``).  Formulas are built with ``~ & | ->`` and the
quantifiers ``E v.`` / ``A v.``.  A bounded congruence system
``rphi(...)`` is shorthand: the parser expands it into ``<``, ``cong``
and ``desc_lt``.

Concrete syntax examples::

    E x. A y. (0 < y & y < x) -> ~cong(2, y, {G2[0].c: 1})
    rphi(2; z1 < a1, z2 < a2; ; z1 ~ b1, z2 ~ b2, z1 ~ z2)
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from typing import Mapping, Optional, Union

from .elements import (
    Construction,
    GroupElement,
    LAMBDA,
    ParseError,
    format_element,
    parse_element,
    zero,
)

# -- terms -----------------------------------------------------------------


@dataclass(frozen=True)
class Term:
    """Collected form: one integer coefficient per variable, plus a constant."""

    coeffs: tuple[tuple[str, int], ...] = ()
    const: Optional[GroupElement] = None

    def free_vars(self) -> frozenset[str]:
        return frozenset(v for v, _ in self.coeffs)

    def evaluate(self, construction: Construction, env: Mapping[str, GroupElement]) -> GroupElement:
        # addition checks that every summand shares the construction of
        # the starting zero, and a zero summand returns the other itself
        acc = zero(construction)
        for v, k in self.coeffs:
            if v not in env:
                raise KeyError(f"unbound variable {v!r}")
            acc = acc + (env[v] if k == 1 else env[v].scale(k))
        if self.const is not None:
            acc = acc + self.const
        return acc

    def is_single_var(self) -> Optional[str]:
        if self.const is None and len(self.coeffs) == 1 and self.coeffs[0][1] == 1:
            return self.coeffs[0][0]
        return None

    def __str__(self) -> str:
        parts: list[str] = []
        for v, k in self.coeffs:
            mag = v if abs(k) == 1 else f"{abs(k)}*{v}"
            if not parts:
                parts.append(mag if k > 0 else f"-{mag}")
            else:
                parts.append(f"+ {mag}" if k > 0 else f"- {mag}")
        if self.const is not None:
            lit = format_element(self.const)
            parts.append(lit if not parts else f"+ {lit}")
        return " ".join(parts) if parts else "0"


def term_var(name: str, coeff: int = 1) -> Term:
    return Term(((name, coeff),), None)


def term_const(value: GroupElement) -> Term:
    return Term((), value if not value.is_zero() else None)


def _term_make(coeffs: Mapping[str, int], const: Optional[GroupElement]) -> Term:
    items = tuple(sorted((v, k) for v, k in coeffs.items() if k))
    if const is not None and const.is_zero():
        const = None
    return Term(items, const)


# -- atoms -----------------------------------------------------------------


@dataclass(frozen=True)
class Lt:
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Eq:
    lhs: Term
    rhs: Term


def _check_modulus(atom: "Cong | DescLt") -> None:
    if not isinstance(atom.modulus, int) or atom.modulus < 2:
        raise ValueError(f"modulus must be an integer >= 2, got {atom.modulus!r}")


@dataclass(frozen=True)
class Cong:
    modulus: int
    lhs: Term
    rhs: Term

    __post_init__ = _check_modulus


@dataclass(frozen=True)
class DescLt:
    """Congruence-avoidance comparison: no y with 0 < y < rhs has y = lhs mod n.

    Decided exactly from n-lead descriptors; this is the atomic shape
    the bounded-congruence normal form is written in.
    """

    modulus: int
    lhs: Term
    rhs: Term

    __post_init__ = _check_modulus


Atom = Union[Lt, Eq, Cong, DescLt]
# The atom classes, for isinstance: a check against the Union runs
# typing's __instancecheck__ in Python.
ATOMS = (Lt, Eq, Cong, DescLt)

# -- formulas --------------------------------------------------------------


@dataclass(frozen=True)
class BoolC:
    value: bool


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class Or:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class Implies:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"


Formula = Union[Atom, BoolC, Not, And, Or, Implies, Exists, Forall]
_LEAVES = (*ATOMS, BoolC)


def free_vars(f: Formula) -> frozenset[str]:
    if isinstance(f, ATOMS):
        return f.lhs.free_vars() | f.rhs.free_vars()
    if isinstance(f, BoolC):
        return frozenset()
    if isinstance(f, Not):
        return free_vars(f.body)
    if isinstance(f, (And, Or, Implies)):
        return free_vars(f.lhs) | free_vars(f.rhs)
    if isinstance(f, (Exists, Forall)):
        return free_vars(f.body) - {f.var}
    raise TypeError(f"not a formula: {f!r}")


def _bound_names(f: Formula) -> list[str]:
    """The variable of every quantifier in ``f``, repeats kept."""
    if isinstance(f, _LEAVES):
        return []
    if isinstance(f, Not):
        return _bound_names(f.body)
    if isinstance(f, (And, Or, Implies)):
        return _bound_names(f.lhs) + _bound_names(f.rhs)
    if isinstance(f, (Exists, Forall)):
        return [f.var] + _bound_names(f.body)
    raise TypeError(f"not a formula: {f!r}")


def rename_bound_apart(f: Formula) -> Formula:
    """``f`` with every quantifier binding a name of its own.

    Returns ``f`` itself when every bound name is distinct and none is
    also free.  Otherwise every bound variable is renamed to a fresh
    name, one used nowhere else in ``f``, so that no two bindings, and
    no binding and a free variable, share a name.
    """
    bound = _bound_names(f)
    free = free_vars(f)
    if len(set(bound)) == len(bound) and free.isdisjoint(bound):
        return f
    used = set(bound) | free

    def fresh(var: str) -> str:
        i = 0
        while f"{var}_{i}" in used:
            i += 1
        used.add(f"{var}_{i}")
        return f"{var}_{i}"

    def term(t: Term, names: Mapping[str, str]) -> Term:
        return _term_make({names.get(v, v): k for v, k in t.coeffs}, t.const)

    def walk(g: Formula, names: Mapping[str, str]) -> Formula:
        if isinstance(g, (Lt, Eq)):
            return type(g)(term(g.lhs, names), term(g.rhs, names))
        if isinstance(g, (Cong, DescLt)):
            return type(g)(g.modulus, term(g.lhs, names), term(g.rhs, names))
        if isinstance(g, BoolC):
            return g
        if isinstance(g, Not):
            return Not(walk(g.body, names))
        if isinstance(g, (And, Or, Implies)):
            return type(g)(walk(g.lhs, names), walk(g.rhs, names))
        new = fresh(g.var)
        return type(g)(new, walk(g.body, {**names, g.var: new}))

    return walk(f, {})


# -- printing --------------------------------------------------------------

_PREC = {"->": 1, "|": 2, "&": 3, "~": 4}


def print_formula(f: Formula) -> str:
    return _pf(f, 0)


def _pf(f: Formula, ctx: int) -> str:
    if isinstance(f, Lt):
        return f"{f.lhs} < {f.rhs}"
    if isinstance(f, Eq):
        return f"{f.lhs} = {f.rhs}"
    if isinstance(f, Cong):
        return f"cong({f.modulus}, {f.lhs}, {f.rhs})"
    if isinstance(f, DescLt):
        return f"desc_lt({f.modulus}, {f.lhs}, {f.rhs})"
    if isinstance(f, BoolC):
        return "true" if f.value else "false"
    if isinstance(f, (Exists, Forall)):
        q = "E" if isinstance(f, Exists) else "A"
        body = f"{q} {f.var}. {_pf(f.body, 0)}"
        return f"({body})" if ctx > 0 else body
    if isinstance(f, Not):
        return f"~{_pf(f.body, _PREC['~'])}"
    if isinstance(f, And):
        s = f"{_pf(f.lhs, _PREC['&'])} & {_pf(f.rhs, _PREC['&'] + 1)}"
        return f"({s})" if ctx > _PREC["&"] else s
    if isinstance(f, Or):
        s = f"{_pf(f.lhs, _PREC['|'])} | {_pf(f.rhs, _PREC['|'] + 1)}"
        return f"({s})" if ctx > _PREC["|"] else s
    if isinstance(f, Implies):
        s = f"{_pf(f.lhs, _PREC['->'] + 1)} -> {_pf(f.rhs, _PREC['->'])}"
        return f"({s})" if ctx > _PREC["->"] else s
    raise TypeError(f"not a formula: {f!r}")


# -- parsing ---------------------------------------------------------------

# one named group per token kind: a match's lastgroup is its kind; a
# character that starts no token starts ``bad``, which runs to the end
_TOKEN_RE = re.compile(
    r"(?P<literal>\{[^{}]*\})|(?P<arrow>->)|(?P<int>\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<punct>[().,;<=~&|*+-])|(?P<bad>\S.*)",
    re.DOTALL,
)

_KEYWORDS = {"E", "A", "cong", "desc_lt", "rphi", "true", "false"}

# A token is a tuple (kind, text, at).  The list ends in a token of kind
# _END, text "" and offset len(text), so the parser reads the token at
# its index without a bounds check, and no other token's text is "".
_Tok = tuple[str, str, int]
_END = "end"


def _tokenize(text: str) -> list[_Tok]:
    toks = [(m.lastgroup, m.group(), m.start()) for m in _TOKEN_RE.finditer(text)]
    if toks and toks[-1][0] == "bad":
        raise ParseError(text, toks[-1][2], "unexpected character")
    toks.append((_END, "", len(text)))
    return toks


class _Parser:
    def __init__(self, text: str, construction: Construction) -> None:
        self.text = text
        self.construction = construction
        self.toks = _tokenize(text)
        self.i = 0  # the index of the next token

    def error(self, tok: _Tok, message: str) -> ParseError:
        """``message`` at ``tok``, or "unexpected end of input" at the end."""
        if tok[0] == _END:
            message = "unexpected end of input"
        return ParseError(self.text, tok[2], message)

    def expect(self, text: str) -> _Tok:
        tok = self.toks[self.i]
        if tok[1] != text:
            raise self.error(tok, f"expected {text!r}, found {tok[1]!r}")
        self.i += 1
        return tok

    def finish(self) -> None:
        kind, text, at = self.toks[self.i]
        if kind != _END:
            raise ParseError(self.text, at, f"trailing input {text!r}")

    # formula := disjunction [-> formula]; a quantifier is a primary whose
    # body is a formula, so it reaches as far right as it can
    def formula(self) -> Formula:
        lhs = self.disjunction()
        if self.toks[self.i][1] == "->":
            self.i += 1
            return Implies(lhs, self.formula())
        return lhs

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.toks[self.i][1] == "|":
            self.i += 1
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.primary()
        while self.toks[self.i][1] == "&":
            self.i += 1
            f = And(f, self.primary())
        return f

    def primary(self) -> Formula:
        """A negation, a formula in parentheses, a quantifier or an atom."""
        tok = self.toks[self.i]
        head = tok[1]
        if head == "~":
            self.i += 1
            return Not(self.primary())
        if head == "(":
            self.i += 1
            f = self.formula()
            self.expect(")")
            return f
        if head == "E" or head == "A":
            var = self.toks[self.i + 1]
            if var[0] != "name" or var[1] in _KEYWORDS:
                raise self.error(var, "expected a variable after quantifier")
            self.i += 2
            self.expect(".")
            body = self.formula()
            return Exists(var[1], body) if head == "E" else Forall(var[1], body)
        if head == "true" or head == "false":
            self.i += 1
            return BoolC(head == "true")
        if head == "cong" or head == "desc_lt":
            return self.cong_like(head)
        if head == "rphi":
            return self.rphi()
        if tok[0] == _END:
            raise self.error(tok, "")
        return self.comparison()

    def cong_like(self, head: str) -> Atom:
        self.i += 1
        self.expect("(")
        n = self.integer()
        self.expect(",")
        lhs = self.term()
        self.expect(",")
        rhs = self.term()
        end = self.expect(")")
        try:
            return Cong(n, lhs, rhs) if head == "cong" else DescLt(n, lhs, rhs)
        except ValueError as exc:
            raise ParseError(self.text, end[2], str(exc)) from None

    def names(self) -> list[str]:
        """The names up to the next token that is not one."""
        toks, start = self.toks, self.i
        while toks[self.i][0] == "name":
            self.i += 1
        return [tok[1] for tok in toks[start : self.i]]

    def rphi(self) -> Formula:
        """``rphi(n; bounds; inner; congs)`` as the formula it abbreviates.

        The system E own vars (0 < z < bound & congruences mod n) holds
        exactly when every bound is positive, the anchors (right sides
        that are not own variables) of each class of the union-find
        over the congruences agree mod n, and each anchored bounded
        variable has its anchor's residue somewhere below its bound.
        """
        self.i += 1
        self.expect("(")
        n = self.integer()
        self.expect(";")
        bounds: list[tuple[list[str], Term]] = []
        while True:
            group = self.names()
            self.expect("<")
            bounds.append((group, self.term()))
            if self.toks[self.i][1] != ",":
                break
            self.i += 1
        self.expect(";")
        inner = self.names()
        self.expect(";")
        congs: list[tuple[str, Term]] = []
        if self.toks[self.i][1] != ")":
            while True:
                v = self.toks[self.i]
                if v[0] != "name":
                    raise self.error(v, "expected a variable on the left of ~")
                self.i += 1
                self.expect("~")
                congs.append((v[1], self.term()))
                if self.toks[self.i][1] != ",":
                    break
                self.i += 1
        end = self.expect(")")

        def reject(message: str) -> ParseError:
            return ParseError(self.text, end[2], message)

        if n < 2:
            raise reject(f"modulus must be >= 2, got {n}")
        if any(not group for group, _ in bounds):
            raise reject("rphi needs at least one bounded variable per group")
        own = set(inner).union(*(group for group, _ in bounds))
        for v, _ in congs:
            if v not in own:
                raise reject(f"congruence left side {v!r} is not a bound or inner variable")
        for _, t in bounds:
            if t.free_vars() & own:
                raise reject(f"bound {t} uses a bound or inner variable")

        parent = {v: v for v in own}

        def find(v: str) -> str:
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        parts: list[Formula] = [Lt(Term(), t) for _, t in bounds]
        anchor: dict[str, Term] = {}

        def attach(root: str, t: Term) -> None:
            if root not in anchor:
                anchor[root] = t
            elif anchor[root] != t:
                parts.append(Cong(n, anchor[root], t))

        for v, t in congs:
            other = t.is_single_var()
            if other in own:
                ra, rb = find(v), find(other)
                if ra != rb:
                    parent[rb] = ra
                    if rb in anchor:
                        attach(ra, anchor.pop(rb))
            elif t.free_vars() & own:
                raise reject(
                    f"congruence right side {t} uses a bound or inner variable inside a term"
                )
            else:
                attach(find(v), t)
        for group, t in bounds:
            for z in group:
                w = anchor.get(find(z))
                if w is not None:
                    parts.append(Not(DescLt(n, w, t)))
        # each conjunct once, in the order it first appears
        return reduce(And, dict.fromkeys(parts))

    def comparison(self) -> Atom:
        lhs = self.term()
        op = self.toks[self.i]
        self.i += 1
        if op[1] == "<":
            return Lt(lhs, self.term())
        if op[1] == "=":
            return Eq(lhs, self.term())
        raise self.error(op, f"expected '<' or '=', found {op[1]!r}")

    def integer(self) -> int:
        tok = self.toks[self.i]
        if tok[0] != "int":
            raise self.error(tok, "expected an integer")
        self.i += 1
        return int(tok[1])

    def term(self) -> Term:
        """Summands, each but the first after its sign: [int *] var,
        [int *] literal, or 0."""
        toks = self.toks
        i = self.i
        if toks[i][0] == _END:
            raise ParseError(self.text, toks[i][2], "expected a term")
        coeffs: dict[str, int] = {}
        const: Optional[GroupElement] = None
        first = True
        while True:
            kind, word, at = toks[i]
            if word == "+" or word == "-":
                k = 1 if word == "+" else -1
                i += 1
                kind, word, at = toks[i]
            elif first:
                k = 1
            else:
                break
            first = False
            if kind == "int":
                if word == "0" and toks[i + 1][1] != "*":
                    i += 1
                    continue  # a summand 0 adds nothing
                star = toks[i + 1]
                if star[1] != "*":
                    raise self.error(star, f"expected '*', found {star[1]!r}")
                k *= int(word)
                i += 2
                kind, word, at = toks[i]
            if kind == "name":
                if word in _KEYWORDS:
                    raise ParseError(self.text, at, f"keyword {word!r} used as a variable")
                coeffs[word] = coeffs.get(word, 0) + k
            elif kind == "literal":
                lit = self.literal(word, at).scale(k)
                const = lit if const is None else const + lit
            else:
                raise self.error(toks[i], f"expected a term, found {word!r}")
            i += 1
        self.i = i
        return _term_make(coeffs, const)

    def literal(self, word: str, at: int) -> GroupElement:
        """The element a literal at ``at`` writes; its errors give
        offsets in the whole text."""
        try:
            return parse_element(word, self.construction)
        except ParseError as exc:
            raise ParseError(self.text, at + exc.at, exc.message) from None


def parse_formula(text: str, construction: Construction = LAMBDA) -> Formula:
    p = _Parser(text, construction)
    f = p.formula()
    p.finish()
    return f


def parse_term(text: str, construction: Construction = LAMBDA) -> Term:
    p = _Parser(text, construction)
    t = p.term()
    p.finish()
    return t


# -- prefix classification --------------------------------------------------


def _flip(prefix: str) -> str:
    return prefix.translate(str.maketrans("EA", "AE"))


def _compress(prefix: str) -> str:
    out = []
    for ch in prefix:
        if not out or out[-1] != ch:
            out.append(ch)
    return "".join(out)


_MAX_VARIANTS = 64


def _prefixes(f: Formula) -> set[str]:
    if isinstance(f, _LEAVES):
        return {""}
    if isinstance(f, Not):
        return {_flip(s) for s in _prefixes(f.body)}
    if isinstance(f, Implies):
        left = {_flip(s) for s in _prefixes(f.lhs)}
        return _merge(left, _prefixes(f.rhs))
    if isinstance(f, (And, Or)):
        return _merge(_prefixes(f.lhs), _prefixes(f.rhs))
    if isinstance(f, Exists):
        return {_compress("E" + s) for s in _prefixes(f.body)}
    if isinstance(f, Forall):
        return {_compress("A" + s) for s in _prefixes(f.body)}
    raise TypeError(f"not a formula: {f!r}")


def _merge(left: set[str], right: set[str]) -> set[str]:
    out: set[str] = set()
    for a in left:
        for b in right:
            out.add(_compress(a + b))
            out.add(_compress(b + a))
            if len(out) >= _MAX_VARIANTS:
                return out
    return out


def classify_prefix(f: Formula) -> str:
    """Minimal quantifier prefix over the bounded set of prenex orders.

    Returned with the usual symbols, e.g. ``∃∀∃``; the empty string
    marks a quantifier-free formula.
    """
    candidates = _prefixes(f)
    best = min(candidates, key=lambda s: (len(s), s))
    return best.replace("E", "∃").replace("A", "∀")
