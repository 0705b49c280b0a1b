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

# one named group per token kind: a match's lastgroup is its kind
_TOKEN_RE = re.compile(
    r"(?P<literal>\{[^{}]*\})|(?P<arrow>->)|(?P<int>\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<punct>[().,;<=~&|*+-])"
)

_KEYWORDS = {"E", "A", "cong", "desc_lt", "rphi", "true", "false"}


class _Tok:
    __slots__ = ("kind", "text", "at")

    def __init__(self, kind: str, text: str, at: int) -> None:
        self.kind = kind
        self.text = text
        self.at = at


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    i = 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError(text, i, "unexpected character")
        toks.append(_Tok(m.lastgroup, m.group(), i))
        i = m.end()
    return toks


class _Parser:
    def __init__(self, text: str, construction: Construction) -> None:
        self.text = text
        self.construction = construction
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self) -> Optional[_Tok]:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> _Tok:
        t = self.peek()
        if t is None:
            raise ParseError(self.text, len(self.text), "unexpected end of input")
        self.pos += 1
        return t

    def expect(self, text: str) -> _Tok:
        t = self.next()
        if t.text != text:
            raise ParseError(self.text, t.at, f"expected {text!r}, found {t.text!r}")
        return t

    def at_text(self, text: str) -> bool:
        t = self.peek()
        return t is not None and t.text == text

    # formula := disjunction [-> formula]; a quantifier is a primary whose
    # body is a formula, so it reaches as far right as it can
    def formula(self) -> Formula:
        lhs = self.disjunction()
        if self.at_text("->"):
            self.next()
            return Implies(lhs, self.formula())
        return lhs

    def quantified(self) -> Formula:
        q = self.next()
        var = self.next()
        if var.kind != "name" or var.text in _KEYWORDS:
            raise ParseError(self.text, var.at, "expected a variable after quantifier")
        self.expect(".")
        body = self.formula()
        return Exists(var.text, body) if q.text == "E" else Forall(var.text, body)

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.at_text("|"):
            self.next()
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.negation()
        while self.at_text("&"):
            self.next()
            f = And(f, self.negation())
        return f

    def negation(self) -> Formula:
        if self.at_text("~"):
            self.next()
            return Not(self.negation())
        return self.primary()

    def primary(self) -> Formula:
        t = self.peek()
        if t is None:
            raise ParseError(self.text, len(self.text), "unexpected end of input")
        if t.text == "(":
            self.next()
            f = self.formula()
            self.expect(")")
            return f
        if t.text in ("E", "A"):
            return self.quantified()
        if t.text == "true":
            self.next()
            return BoolC(True)
        if t.text == "false":
            self.next()
            return BoolC(False)
        if t.text in ("cong", "desc_lt"):
            return self.cong_like(t.text)
        if t.text == "rphi":
            return self.rphi()
        return self.comparison()

    def cong_like(self, head: str) -> Atom:
        self.next()
        self.expect("(")
        n = self.integer()
        self.expect(",")
        lhs = self.term()
        self.expect(",")
        rhs = self.term()
        self.expect(")")
        try:
            return Cong(n, lhs, rhs) if head == "cong" else DescLt(n, lhs, rhs)
        except ValueError as exc:
            raise ParseError(self.text, self.toks[self.pos - 1].at, str(exc)) from None

    def rphi(self) -> Formula:
        """``rphi(n; bounds; inner; congs)`` as the formula it abbreviates.

        The system E own vars (0 < z < bound & congruences mod n) holds
        exactly when every bound is positive, the anchors (right sides
        that are not own variables) of each class of the union-find
        over the congruences agree mod n, and each anchored bounded
        variable has its anchor's residue somewhere below its bound.
        """
        self.next()
        self.expect("(")
        n = self.integer()
        self.expect(";")
        bounds: list[tuple[list[str], Term]] = []
        while True:
            group: list[str] = []
            while self.peek() is not None and self.peek().kind == "name":  # type: ignore[union-attr]
                group.append(self.next().text)
            self.expect("<")
            bounds.append((group, self.term()))
            if self.at_text(","):
                self.next()
                continue
            break
        self.expect(";")
        inner: list[str] = []
        while self.peek() is not None and self.peek().kind == "name":  # type: ignore[union-attr]
            inner.append(self.next().text)
        self.expect(";")
        congs: list[tuple[str, Term]] = []
        if not self.at_text(")"):
            while True:
                v = self.next()
                if v.kind != "name":
                    raise ParseError(self.text, v.at, "expected a variable on the left of ~")
                self.expect("~")
                congs.append((v.text, self.term()))
                if self.at_text(","):
                    self.next()
                    continue
                break
        end = self.expect(")")

        def reject(message: str) -> ParseError:
            return ParseError(self.text, end.at, message)

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
        op = self.next()
        if op.text == "<":
            return Lt(lhs, self.term())
        if op.text == "=":
            return Eq(lhs, self.term())
        raise ParseError(self.text, op.at, f"expected '<' or '=', found {op.text!r}")

    def integer(self) -> int:
        t = self.next()
        if t.kind != "int":
            raise ParseError(self.text, t.at, "expected an integer")
        return int(t.text)

    def term(self) -> Term:
        coeffs: dict[str, int] = {}
        const: Optional[GroupElement] = None
        first = True
        while True:
            t = self.peek()
            if t is None:
                if first:
                    raise ParseError(self.text, len(self.text), "expected a term")
                break
            sign = 1
            if t.text in ("+", "-"):
                sign = -1 if t.text == "-" else 1
                self.next()
            elif not first:
                break
            mult, name, lit = self.term_part()
            k = sign * mult
            if name is not None:
                coeffs[name] = coeffs.get(name, 0) + k
            else:
                assert lit is not None
                const = lit.scale(k) if const is None else const + lit.scale(k)
            first = False
        return _term_make(coeffs, const)

    def term_part(self) -> tuple[int, Optional[str], Optional[GroupElement]]:
        """One summand sans sign: [int *] var | [int *] literal | 0."""
        t = self.next()
        mult = 1
        if t.kind == "int":
            if t.text == "0" and not self.at_text("*"):
                return 1, None, zero(self.construction)
            mult = int(t.text)
            self.expect("*")
            t = self.next()
        if t.kind == "name":
            if t.text in _KEYWORDS:
                raise ParseError(self.text, t.at, f"keyword {t.text!r} used as a variable")
            return mult, t.text, None
        if t.kind == "literal":
            return mult, None, parse_element(t.text, self.construction)
        raise ParseError(self.text, t.at, f"expected a term, found {t.text!r}")


def parse_formula(text: str, construction: Construction = LAMBDA) -> Formula:
    p = _Parser(text, construction)
    f = p.formula()
    rest = p.peek()
    if rest is not None:
        raise ParseError(text, rest.at, f"trailing input {rest.text!r}")
    return f


def parse_term(text: str, construction: Construction = LAMBDA) -> Term:
    p = _Parser(text, construction)
    t = p.term()
    rest = p.peek()
    if rest is not None:
        raise ParseError(text, rest.at, f"trailing input {rest.text!r}")
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
