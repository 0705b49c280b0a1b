"""Formula language over the group constructions.

Terms are integer combinations of variables plus an optional element
constant.  Atoms compare terms (``<``, ``=``), assert congruence
modulo n (``cong``), or assert the congruence-avoidance comparison
(``desc_lt``).  Formulas are built with ``~ & | ->`` and the
quantifiers ``E v.`` / ``A v.``.  A bounded congruence system
``rphi(...)`` is shorthand: the parser expands it into ``<``, ``cong``
and ``desc_lt``.  Nodes are immutable tuples compared by class and fields.

Concrete syntax examples::

    E x. A y. (0 < y & y < x) -> ~cong(2, y, {G2[0].c: 1})
    rphi(2; z1 < a1, z2 < a2; ; z1 ~ b1, z2 ~ b2, z1 ~ z2)
"""

from __future__ import annotations

import re
import string
from collections import _tuplegetter  # type: ignore[attr-defined]
from functools import reduce
from operator import itemgetter
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


class Frozen(tuple):
    """An immutable value: the tuple of its class's name and its fields.

    The name makes ``==``, ``!=`` and ``hash``, which tuples run in C,
    tell classes apart.  A subclass names its fields in its class
    statement, ``class Lt(Frozen, fields="lhs rhs")``, with ``defaults``
    for the last ones, and declares ``__slots__ = ()``; a field reads
    through the C descriptor of a named tuple's field.  Hot paths build
    one with ``tuple.__new__(Lt, ("Lt", lhs, rhs))``: the value the class
    call returns, without the Python frame of ``__new__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: tuple = ()

    def __init_subclass__(cls, fields: str = "", defaults: tuple = ()) -> None:
        cls._fields, cls._defaults = tuple(fields.split()), defaults
        for i, name in enumerate(cls._fields, 1):
            setattr(cls, name, _tuplegetter(i, f"field {name}"))

    def __new__(cls, *args):
        missing = len(cls._fields) - len(args)
        if missing:
            if not 0 < missing <= len(cls._defaults):
                raise TypeError(f"{cls.__name__} takes {len(cls._fields)} fields, got {len(args)}")
            args += cls._defaults[-missing:]
        return tuple.__new__(cls, (cls.__name__, *args))

    def __reduce__(self) -> tuple:
        return self.__class__, self[1:]

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self[1:]))
        return f"{self.__class__.__name__}({fields})"


# -- terms -----------------------------------------------------------------


class Term(Frozen, fields="coeffs const", defaults=((), None)):
    """Collected form: one integer coefficient per variable, plus a constant."""

    __slots__ = ()

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
    return tuple.__new__(Term, ("Term", ((name, coeff),), None))


def term_const(value: GroupElement) -> Term:
    return tuple.__new__(Term, ("Term", (), value if value.entries else None))


def _term_make(coeffs: Mapping[str, int], const: Optional[GroupElement]) -> Term:
    items = tuple(sorted(filter(itemgetter(1), coeffs.items())))
    if const is not None and not const.entries:
        const = None
    return tuple.__new__(Term, ("Term", items, const))


# -- atoms -----------------------------------------------------------------


class Lt(Frozen, fields="lhs rhs"):
    __slots__ = ()


class Eq(Frozen, fields="lhs rhs"):
    __slots__ = ()


def _new_modular(cls: type, modulus: int, lhs: Term, rhs: Term) -> "Cong | DescLt":
    if not isinstance(modulus, int) or modulus < 2:
        raise ValueError(f"modulus must be an integer >= 2, got {modulus!r}")
    return tuple.__new__(cls, (cls.__name__, modulus, lhs, rhs))


class Cong(Frozen, fields="modulus lhs rhs"):
    __slots__ = ()
    __new__ = _new_modular


class DescLt(Frozen, fields="modulus lhs rhs"):
    """Congruence-avoidance comparison: no y with 0 < y < rhs has y = lhs mod n.

    Decided exactly from n-lead descriptors; this is the atomic shape
    the bounded-congruence normal form is written in.
    """

    __slots__ = ()
    __new__ = _new_modular


Atom = Union[Lt, Eq, Cong, DescLt]
# The atom classes, for isinstance: a check against the Union runs
# typing's __instancecheck__ in Python.
ATOMS = (Lt, Eq, Cong, DescLt)

# -- formulas --------------------------------------------------------------


class BoolC(Frozen, fields="value"):
    __slots__ = ()


class Not(Frozen, fields="body"):
    __slots__ = ()


class And(Frozen, fields="lhs rhs"):
    __slots__ = ()


class Or(Frozen, fields="lhs rhs"):
    __slots__ = ()


class Implies(Frozen, fields="lhs rhs"):
    __slots__ = ()


class Exists(Frozen, fields="var body"):
    __slots__ = ()


class Forall(Frozen, fields="var body"):
    __slots__ = ()


Formula = Union[Atom, BoolC, Not, And, Or, Implies, Exists, Forall]
_LEAVES = (*ATOMS, BoolC)


def free_vars(f: Formula) -> frozenset[str]:
    return _scan(f, [])


def _scan(f: Formula, bound: list[str]) -> frozenset[str]:
    """The free variables of ``f``; appends the variable of every
    quantifier in ``f`` to ``bound``, repeats kept."""
    if isinstance(f, ATOMS):
        return f.lhs.free_vars() | f.rhs.free_vars()
    if isinstance(f, BoolC):
        return frozenset()
    if isinstance(f, Not):
        return _scan(f.body, bound)
    if isinstance(f, (And, Or, Implies)):
        return _scan(f.lhs, bound) | _scan(f.rhs, bound)
    if isinstance(f, (Exists, Forall)):
        bound.append(f.var)
        return _scan(f.body, bound) - {f.var}
    raise TypeError(f"not a formula: {f!r}")


def rename_bound_apart(f: Formula) -> Formula:
    """``f`` with every quantifier binding a name of its own.

    Returns ``f`` itself when every bound name is distinct and none is
    also free, which one walk finds.  Otherwise every bound variable is
    renamed to a fresh name, one used nowhere else in ``f``, so that no
    two bindings, and no binding and a free variable, share a name.
    """
    bound: list[str] = []
    free = _scan(f, bound)
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

# One alternative per token kind.  A character that starts no token
# matches empty: the only empty match, since every other alternative
# takes at least one character.
_TOKEN_RE = re.compile(
    r"\{[^{}]*\}|->|\d+|[A-Za-z_][A-Za-z0-9_]*|[().,;<=~&|*+-]|(?=\S)"
)

_KEYWORDS = {"E", "A", "cong", "desc_lt", "rphi", "true", "false"}

# A token is its text.  The list ends in the token "" of kind _END, so
# the parser reads the token at its index without a bounds check, and
# no other token is "".  Offsets are worked out only for an error.
_END = "end"
_KIND = {
    "": _END,
    "{": "literal",
    **dict.fromkeys("().,;<=~&|*+-", "punct"),
    **dict.fromkeys(string.digits, "int"),
    **dict.fromkeys(string.ascii_letters + "_", "name"),
}


def _kind(tok: str) -> str:
    """The kind of a token, from its first character: a digit that
    ``\\d`` matches outside ASCII is the only one ``_KIND`` lacks."""
    return "arrow" if tok == "->" else _KIND.get(tok[:1], "int")


def _token_start(text: str, i: int) -> int:
    """The offset of token i of ``text``, or ``len(text)`` for the end token."""
    starts = [m.start() for m in _TOKEN_RE.finditer(text)]
    return starts[i] if i < len(starts) else len(text)


def _tokenize(text: str) -> list[str]:
    toks = _TOKEN_RE.findall(text)
    if "" in toks:
        raise ParseError(text, _token_start(text, toks.index("")), "unexpected character")
    toks.append("")
    return toks


class _Parser:
    def __init__(self, text: str, construction: Construction) -> None:
        self.text = text
        self.construction = construction
        self.toks = _tokenize(text)
        self.i = 0  # the index of the next token

    def fail(self, i: int, message: str) -> ParseError:
        """``message`` at token i."""
        return ParseError(self.text, _token_start(self.text, i), message)

    def error(self, i: int, message: str) -> ParseError:
        """``message`` at token i, or "unexpected end of input" at the end."""
        return self.fail(i, message if self.toks[i] else "unexpected end of input")

    def expect(self, text: str) -> int:
        """The index of the next token, which must be ``text``."""
        i = self.i
        if self.toks[i] != text:
            raise self.error(i, f"expected {text!r}, found {self.toks[i]!r}")
        self.i = i + 1
        return i

    def finish(self) -> None:
        tok = self.toks[self.i]
        if tok:
            raise self.fail(self.i, f"trailing input {tok!r}")

    # formula := disjunction [-> formula]; a quantifier is a primary whose
    # body is a formula, so it reaches as far right as it can
    def formula(self) -> Formula:
        lhs = self.disjunction()
        if self.toks[self.i] == "->":
            self.i += 1
            return tuple.__new__(Implies, ("Implies", lhs, self.formula()))
        return lhs

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.toks[self.i] == "|":
            self.i += 1
            f = tuple.__new__(Or, ("Or", f, self.conjunction()))
        return f

    def conjunction(self) -> Formula:
        f = self.primary()
        while self.toks[self.i] == "&":
            self.i += 1
            f = tuple.__new__(And, ("And", f, self.primary()))
        return f

    def primary(self) -> Formula:
        """A negation, a formula in parentheses, a quantifier or an atom."""
        head = self.toks[self.i]
        if head == "~":
            self.i += 1
            return tuple.__new__(Not, ("Not", self.primary()))
        if head == "(":
            self.i += 1
            f = self.formula()
            self.expect(")")
            return f
        if head == "E" or head == "A":
            var = self.toks[self.i + 1]
            if _kind(var) != "name" or var in _KEYWORDS:
                raise self.error(self.i + 1, "expected a variable after quantifier")
            self.i += 2
            self.expect(".")
            body = self.formula()
            if head == "E":
                return tuple.__new__(Exists, ("Exists", var, body))
            return tuple.__new__(Forall, ("Forall", var, body))
        if head == "true" or head == "false":
            self.i += 1
            return tuple.__new__(BoolC, ("BoolC", head == "true"))
        if head == "cong" or head == "desc_lt":
            return self.cong_like(head)
        if head == "rphi":
            return self.rphi()
        if not head:
            raise self.error(self.i, "")
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
            raise self.fail(end, str(exc)) from None

    def names(self) -> list[str]:
        """The names up to the next token that is not one."""
        toks, start = self.toks, self.i
        while _kind(toks[self.i]) == "name":
            self.i += 1
        return toks[start : self.i]

    def rphi(self) -> Formula:
        """``rphi(n; bounds; inner; congs)`` as the formula it abbreviates.

        The system E own vars (0 < z < bound & congruences mod n) holds
        exactly when every bound is positive, the anchors (right sides
        that are not own variables) of each class of the union-find
        over the congruences agree mod n, and each anchored bounded
        variable has its anchor's residue somewhere below its bound: the
        conjunction of ``0 < t`` for each bound t, ``cong(n, w, u)`` for
        each further anchor u of a class whose first anchor is w, and
        ``~desc_lt(n, w, t)`` for each bounded variable under t whose
        class has the first anchor w, each conjunct once, where it
        first appears.  Its negation is ``~`` of that conjunction.
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
            if self.toks[self.i] != ",":
                break
            self.i += 1
        self.expect(";")
        inner = self.names()
        self.expect(";")
        congs: list[tuple[str, Term]] = []
        if self.toks[self.i] != ")":
            while True:
                v = self.toks[self.i]
                if _kind(v) != "name":
                    raise self.error(self.i, "expected a variable on the left of ~")
                self.i += 1
                self.expect("~")
                congs.append((v, self.term()))
                if self.toks[self.i] != ",":
                    break
                self.i += 1
        end = self.expect(")")

        def reject(message: str) -> ParseError:
            return self.fail(end, message)

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
        if op == "<":
            return tuple.__new__(Lt, ("Lt", lhs, self.term()))
        if op == "=":
            return tuple.__new__(Eq, ("Eq", lhs, self.term()))
        raise self.error(self.i - 1, f"expected '<' or '=', found {op!r}")

    def integer(self) -> int:
        tok = self.toks[self.i]
        if _kind(tok) != "int":
            raise self.error(self.i, "expected an integer")
        self.i += 1
        return int(tok)

    def term(self) -> Term:
        """Summands, each but the first after its sign: [int *] var,
        [int *] literal, or 0."""
        toks = self.toks
        i = self.i
        if not toks[i]:
            raise self.fail(i, "expected a term")
        coeffs: dict[str, int] = {}
        const: Optional[GroupElement] = None
        first = True
        while True:
            tok = toks[i]
            if tok == "+" or tok == "-":
                k = 1 if tok == "+" else -1
                i += 1
                tok = toks[i]
            elif first:
                k = 1
            else:
                break
            first = False
            kind = _kind(tok)
            if kind == "int":
                if tok == "0" and toks[i + 1] != "*":
                    i += 1
                    continue  # a summand 0 adds nothing
                if toks[i + 1] != "*":
                    raise self.error(i + 1, f"expected '*', found {toks[i + 1]!r}")
                k *= int(tok)
                i += 2
                tok = toks[i]
                kind = _kind(tok)
            if kind == "name":
                if tok in _KEYWORDS:
                    raise self.fail(i, f"keyword {tok!r} used as a variable")
                coeffs[tok] = coeffs.get(tok, 0) + k
            elif kind == "literal":
                lit = self.literal(i).scale(k)
                const = lit if const is None else const + lit
            else:
                raise self.error(i, f"expected a term, found {tok!r}")
            i += 1
        self.i = i
        return _term_make(coeffs, const)

    def literal(self, i: int) -> GroupElement:
        """The element the literal at token i writes; its errors give
        offsets in the whole text."""
        try:
            return parse_element(self.toks[i], self.construction)
        except ParseError as exc:
            start = _token_start(self.text, i)
            raise ParseError(self.text, start + exc.at, exc.message) from None


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
