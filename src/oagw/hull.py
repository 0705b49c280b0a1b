"""The divisible hull: where a formula can return a truth, as linear rows.

A row ``(k, strict)`` says that sum_v k[v]*v is < 0 if strict, else
<= 0.  A disjunct is a tuple of rows that hold together, and a ``Dnf``
is a tuple of disjuncts one of which holds.  A variable is a free name,
a name bound further in, or the fresh token of a quantifier it left.
``TOP``, one disjunct without rows, says that nothing is known;
``NONE``, no disjunct, that the condition never holds.

A condition is built from its parts.  ``atom`` writes the rows of a
``<`` or ``=`` between terms without element constants, a false ``=``
as two disjuncts (``s < t`` or ``t < s``), and ``TOP`` for any other
atom.  ``some`` is the union of its parts' disjuncts, the condition
that some part holds, and ``every`` their product, the condition that
every part holds.  ``exists`` is the condition seen from outside a
quantifier: it drops the disjuncts that ``feasible`` refutes by
Fourier-Motzkin elimination (Fourier 1827; Motzkin 1936), and renames
the quantified variable to a fresh token, so that it meets no other
binding of the same name.  ``some`` and ``every`` read their parts in
order and stop at the first that decides them, ``TOP`` for a union and
``NONE`` for a product, so the later parts are never worked out.

This is sound.  Each construction G lies in its divisible hull D, an
ordered Q-vector space, so a condition that holds somewhere in G holds
somewhere in D.  Elimination only adds rows with positive integer
multipliers, so a system from which it derives ``0 < 0`` has no
solution in D, hence none in G.  A part left out only weakens a
condition, and so do the caps: a union past ``MAX_DISJUNCTS``
disjuncts is ``TOP``, a product leaves out a part that would take it
past that cap, and a system of more than ``MAX_ROWS`` rows is
feasible.  So a disjunct is refuted only where G has no solution.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from .formulas import Atom, Eq, Lt

Row = tuple[dict[Hashable, int], bool]
Dnf = tuple[tuple[Row, ...], ...]
TOP: Dnf = ((),)
NONE: Dnf = ()
# Past these sizes a condition is left weaker, and its search runs.
MAX_DISJUNCTS = 32
MAX_ROWS = 32


def atom(a: Atom, neg: bool, truth: bool) -> Dnf:
    """Where ``a``, or ``~a`` if ``neg``, returns ``truth``: rows for a
    ``<`` or ``=`` between terms without constants, else ``TOP``."""
    kind = a.__class__
    if (kind is not Lt and kind is not Eq) or a.lhs.const is not None or a.rhs.const is not None:
        return TOP
    d: dict[Hashable, int] = {}  # lhs - rhs
    for v, k in a.lhs.coeffs:
        d[v] = d.get(v, 0) + k
    for v, k in a.rhs.coeffs:
        d[v] = d.get(v, 0) - k
    d = {v: k for v, k in d.items() if k}
    minus_d = {v: -k for v, k in d.items()}
    holds = truth != neg
    if kind is Lt:
        # lhs < rhs, or else rhs <= lhs
        return (((d, True),),) if holds else (((minus_d, False),),)
    # lhs = rhs, or else lhs < rhs or rhs < lhs
    return (((d, False), (minus_d, False)),) if holds else (((d, True),), ((minus_d, True),))


def some(parts: Iterable[Dnf]) -> Dnf:
    """The union of ``parts``: ``TOP`` at the first ``TOP`` part, or
    once past ``MAX_DISJUNCTS``, without reading the later parts."""
    out: list[tuple[Row, ...]] = []
    for dnf in parts:
        if dnf is TOP:
            return TOP
        out += dnf
        if len(out) > MAX_DISJUNCTS:
            return TOP
    return tuple(out)


def every(parts: Iterable[Dnf]) -> Dnf:
    """The product of ``parts``: ``NONE`` at the first ``NONE`` part,
    without reading the later parts.  A ``TOP`` part is skipped, and a
    part that would take the product past ``MAX_DISJUNCTS`` is left out."""
    out = TOP
    for dnf in parts:
        if not dnf:
            return NONE
        if dnf is not TOP and len(out) * len(dnf) <= MAX_DISJUNCTS:
            out = tuple([a + b for a in out for b in dnf])
    return out


def exists(dnf: Dnf, var: str) -> Dnf:
    """``dnf`` seen from outside a quantifier of ``var``: its disjuncts
    that ``feasible`` keeps, ``var`` renamed to a fresh token."""
    if dnf is TOP:
        return TOP
    fresh = object()  # a name that no other binding shares

    def row(c: dict[Hashable, int], strict: bool) -> Row:
        return ({fresh if v == var else v: k for v, k in c.items()} if var in c else c), strict

    return tuple([tuple([row(*r) for r in d]) for d in dnf if feasible(d)])


def feasible(rows: tuple[Row, ...]) -> bool:
    """Whether the rows may hold together in an ordered Q-vector space.

    False only when Fourier-Motzkin elimination, which adds rows with
    positive integer multipliers, derives 0 < 0; True also once there
    are more than ``MAX_ROWS`` rows.
    """
    while len(rows) <= MAX_ROWS:
        if not any(strict for _, strict in rows):
            return True  # every variable 0 solves rows that are not strict
        # eliminate the variable that makes the fewest new rows
        signs: dict[Hashable, list[int]] = {}
        for c, _ in rows:
            for v, k in c.items():
                signs.setdefault(v, [0, 0])[k < 0] += 1
        if not signs:
            return False  # a strict row reads 0 < 0
        var = min(signs, key=lambda v: signs[v][0] * signs[v][1])
        out: list[Row] = []
        pos: list[Row] = []
        neg: list[Row] = []
        for row in rows:
            k = row[0].get(var, 0)
            (pos if k > 0 else neg if k < 0 else out).append(row)
        for p, p_strict in pos:
            for n, n_strict in neg:
                a, b = -n[var], p[var]
                c = {v: a * k for v, k in p.items()}
                for v, k in n.items():
                    c[v] = c.get(v, 0) + b * k
                c = {v: k for v, k in c.items() if k}
                if c:
                    out.append((c, p_strict or n_strict))
                elif p_strict or n_strict:
                    return False  # 0 < 0
        rows = tuple(out)
    return True
