"""Deterministic random generators for suite and test inputs.

Every suite derives one ``random.Random`` per case from (seed, case
index), so reports are reproducible and parallelism-safe.

Every draw returns the item ``rng.choice(table)`` would, from the same
bits.  In CPython ``choice(seq)`` is ``seq[_randbelow(len(seq))]``,
``randrange(n)`` is ``_randbelow(n)`` and ``randrange(a, b)`` is ``a +
_randbelow(b - a)``, so a choice from a table of n items uses up the
stream exactly as a ``randrange`` of n values does, and the values
drawn, in the order drawn, fix every case.  Two rules keep that order:
an outer draw picks the row before the inner one picks the item, and a
polynomial term draws its coefficient before its slot, because the
assignment ``coeffs[slot] = coeff`` that the tables replace evaluates
its right-hand side first.

``_randbelow(n)`` is ``_randbelow_with_getrandbits``: it draws ``k =
n.bit_length()`` bits, and draws again while the result is ``>= n``.
So each table is kept once as ``(k, padded)``, where ``padded`` is the
table followed by ``None`` up to ``2**k`` slots, and a draw is
``padded[g(k)]`` with ``g = rng.getrandbits``, drawn again while it is
``None``.  The ``None`` slots are exactly the results ``>= n`` that
``_randbelow`` rejects, so the stream is read bit for bit as ``choice``
reads it, with the loop written inline instead of in two Python frames.
``g`` is the generator's own ``getrandbits``, so a subclass that
overrides it (Hypothesis's ``st.randoms()``, say) still controls every
draw.  The term-count tables of each bound and the coefficient table of
each field are built on first use, and an empty sequence raises
``IndexError`` as ``choice`` does when its table is built: its padded
form ``(None,)`` with ``k = 0`` would be drawn again forever.  The hot
samplers write the loop inline; the cold ones call ``_draw``, the same
loop as a function.

The tables hold the interned positions as ``(rank, position)`` entries,
``[kind][index]`` (the G1 squares one row deeper, ``[block][slot]``),
the canonical rationals as ``[numerator][denominator]`` per denominator
set, and the polynomial slots and coefficients.  A rank is the
position's place in the position order, so sampled entries sort by an
int, and table values are canonical, so the entries skip ``element()``'s
validation and go to ``_from_canonical``.  A series takes its
coefficients already passed through ``PrimeField.coerce``, and inserts
each of its at most ``max_terms`` exponents into a short ascending list
by ``cmp``, neither hashed nor sorted; a repeated exponent takes the
later coefficient, as a dict assignment would.  Its nonzero terms are
canonical as they stand, so it too skips the validating constructor and
goes to ``hahn._series``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from operator import attrgetter

from .elements import (
    Construction,
    ConstructionMismatch,
    GAMMA,
    GroupElement,
    LAMBDA,
    _from_canonical,
    zero,
)
from .hahn import HahnSeries, PrimeField, QQ, _series
from .positions import G2, Position, g1_circle, g1_square, g2_circle, g2_square


def case_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}:{index}")


def _table(seq) -> tuple[int, tuple]:
    """``seq`` as ``(k, padded)``; see the module docstring."""
    n = len(seq)
    if not n:
        raise IndexError("cannot choose from an empty sequence")
    k = n.bit_length()
    return k, (*seq, *(None,) * ((1 << k) - n))


def _draw(g, table: tuple[int, tuple]):
    """The item of ``table``, a ``(k, padded)`` pair, that ``choice`` would
    draw through ``g``; see the module docstring."""
    k, t = table
    item = t[g(k)]
    while item is None:
        item = t[g(k)]
    return item


@cache
def _counts(lo: int, hi: int) -> tuple[int, tuple]:
    """The table of ``range(lo, hi + 1)``, built on first use."""
    return _table(range(lo, hi + 1))


_NUMERATORS = tuple(k for k in range(-12, 13) if k)
_POLY_COEFFS = _table((-6, -4, -3, -2, -1, 1, 2, 3, 4, 6))  # LAMBDA square coefficients
_POLY_SLOTS = _table(range(6))
_POLY_TERMS = _counts(1, 3)
_SERIES_COEFFS = (-3, -2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-5, 3))

# the first 3 G2 pairs or G1 blocks; the G1 squares one row per block,
# indexed by slot
_G2_CIRCLES = tuple(g2_circle(m) for m in range(3))
_G2_SQUARES = tuple(g2_square(m) for m in range(3))
_G1_SQUARES = tuple(tuple(g1_square(b, p) for p in range(5)) for b in range(3))
_G1_CIRCLES = tuple(g1_circle(b) for b in range(3))
# a position's rank is its place in the order of the sampled positions
_RANKS = {pos: rank for rank, pos in enumerate(sorted(
    (*_G2_CIRCLES, *_G2_SQUARES, *sum(_G1_SQUARES, ()), *_G1_CIRCLES), key=attrgetter("key")
))}


def _entries(positions) -> tuple[int, tuple]:
    return _table([(_RANKS[pos], pos) for pos in positions])


# index -> (rank, position); the G1 squares a table per block
_G2_CIRCLE_ENTRIES = _entries(_G2_CIRCLES)
_G2_SQUARE_ENTRIES = _entries(_G2_SQUARES)
_G1_SQUARE_ENTRIES = _table([_entries(row) for row in _G1_SQUARES])
_G1_CIRCLE_ENTRIES = _entries(_G1_CIRCLES)
# kind -> index -> (rank, position)
_KINDS = _table((_G2_CIRCLE_ENTRIES, _G2_SQUARE_ENTRIES, _G1_SQUARE_ENTRIES, _G1_CIRCLE_ENTRIES))


def _rationals(dens: tuple[int, ...]) -> tuple[int, tuple]:
    return _table([_table([Fraction(num, den) for den in dens]) for num in _NUMERATORS])


# (circle table, square table) of each construction, indexed by
# ``pos.is_square``; None where squares hold polynomials.  GAMMA circles
# take odd denominators, GAMMA squares those prime to 3.
_GAMMA_RATIONALS = (_rationals((1, 3, 5, 7, 9)), _rationals((1, 2, 4, 5, 7, 8)))
_LAMBDA_RATIONALS = (_rationals((1, 2, 3, 4, 5)), None)


@cache
def _coefficients(p: int) -> tuple[int, tuple]:
    """The series coefficients coerced into GF(p), or Q for p = 0."""
    coerce = PrimeField(p).coerce
    return _table([coerce(c) for c in _SERIES_COEFFS])


def _position(g) -> tuple[int, Position]:
    """The ``(rank, position)`` entry of one position drawn through ``g``."""
    k, t = _KINDS
    row = t[g(k)]
    while row is None:
        row = t[g(k)]
    k, t = row
    e = t[g(k)]
    while e is None:
        e = t[g(k)]
    if e[1].__class__ is tuple:  # a G1 block's table: draw the slot
        k, t = e
        e = t[g(k)]
        while e is None:
            e = t[g(k)]
    return e


def _value(g, rats, pos: Position):
    """A nonzero canonical value that ``pos`` can hold, drawn through ``g``
    from the construction's ``(circle, square)`` rational tables ``rats``."""
    table = rats[pos.is_square]
    if table is not None:
        k, t = table
        row = t[g(k)]
        while row is None:
            row = t[g(k)]
        k, t = row
        v = t[g(k)]
        while v is None:
            v = t[g(k)]
        return v
    k, t = _POLY_TERMS
    n = t[g(k)]
    while n is None:
        n = t[g(k)]
    ck, ct = _POLY_COEFFS
    sk, st = _POLY_SLOTS
    coeffs = {}
    for _ in range(n):
        c = ct[g(ck)]  # before the slot; see the module docstring
        while c is None:
            c = ct[g(ck)]
        slot = st[g(sk)]
        while slot is None:
            slot = st[g(sk)]
        coeffs[slot] = c
    return tuple(sorted(coeffs.items()))


def _sampled(construction: Construction, comps: dict) -> GroupElement:
    """The element of ``comps``: rank -> (position, nonzero canonical value)."""
    # listed before the tuple is made: tuple() of an iterator of unknown
    # length allocates room for 10 items and shrinks, and that raised the
    # series workload's peak RSS by about 0.5 MB
    return _from_canonical(construction, tuple([*map(comps.__getitem__, sorted(comps))]))


def random_position(rng: random.Random) -> Position:
    """One of the first 3 G2 pairs or G1 blocks; a G1 square in slot 0..4."""
    return _position(rng.getrandbits)[1]


def random_value(rng: random.Random, construction: Construction, pos: Position):
    """A nonzero canonical value that ``pos`` can hold."""
    # an Enum hashes in Python, so the construction is not a dict key here
    rats = _GAMMA_RATIONALS if construction is GAMMA else _LAMBDA_RATIONALS
    return _value(rng.getrandbits, rats, pos)


def random_element(
    rng: random.Random,
    construction: Construction,
    max_support: int = 4,
    allow_zero: bool = True,
) -> GroupElement:
    if allow_zero and rng.random() < 0.05:
        return zero(construction)
    g = rng.getrandbits
    k, t = _counts(1, max_support)
    n = t[g(k)]
    while n is None:
        n = t[g(k)]
    rats = _GAMMA_RATIONALS if construction is GAMMA else _LAMBDA_RATIONALS
    comps = {}
    for _ in range(n):
        rank, pos = _position(g)
        comps[rank] = (pos, _value(g, rats, pos))
    # at least one component, each of a nonzero value: never zero
    return _sampled(construction, comps)


def random_nonzero(rng: random.Random, construction: Construction, max_support: int = 4) -> GroupElement:
    return random_element(rng, construction, max_support, allow_zero=False)


def random_positive(rng: random.Random, construction: Construction) -> GroupElement:
    e = random_nonzero(rng, construction)
    return e if e.sign() > 0 else -e


def random_g1_element(rng: random.Random, construction: Construction, max_support: int = 3) -> GroupElement:
    """Support confined to the right block."""
    g = rng.getrandbits
    comps = {}
    for _ in range(_draw(g, _counts(1, max_support))):
        if rng.random() < 0.7:
            rank, pos = _draw(g, _draw(g, _G1_SQUARE_ENTRIES))
        else:
            rank, pos = _draw(g, _G1_CIRCLE_ENTRIES)
        comps[rank] = (pos, random_value(rng, construction, pos))
    return _sampled(construction, comps)


def random_a_cone_exponent(rng: random.Random) -> GroupElement:
    """LAMBDA exponent with zero or positive G2 part."""
    if rng.random() < 0.5:
        return random_g1_element(rng, LAMBDA)
    g = rng.getrandbits
    _, g2pos = _draw(g, _G2_SQUARE_ENTRIES if rng.random() < 0.5 else _G2_CIRCLE_ENTRIES)
    e = _from_canonical(LAMBDA, ((g2pos, random_value(rng, LAMBDA, g2pos)),))
    if rng.random() < 0.7:
        e = e + random_g1_element(rng, LAMBDA, 2)
    if e.is_zero():
        return e
    if e.entries[0][0].area == G2 and e.sign() < 0:
        return -e
    return e


def random_valring_exponent(rng: random.Random) -> GroupElement:
    if rng.random() < 0.1:
        return zero(LAMBDA)
    return random_nonzero(rng, LAMBDA).abs()


def random_series(
    rng: random.Random,
    construction: Construction = LAMBDA,
    coeff_field: PrimeField = QQ,
    max_terms: int = 3,
    allow_zero: bool = False,
    exponents=None,
) -> HahnSeries:
    g = rng.getrandbits
    k, t = _counts(0 if allow_zero else 1, max_terms)
    n = t[g(k)]
    while n is None:
        n = t[g(k)]
    ck, ct = _coefficients(coeff_field.p)
    terms: list = []  # (exponent, coefficient), the exponents ascending
    for _ in range(n):
        e = exponents(rng) if exponents is not None else random_element(rng, construction, 3)
        c = ct[g(ck)]
        while c is None:
            c = ct[g(ck)]
        if e.construction is not construction:
            raise ConstructionMismatch("exponent from the wrong construction")
        for i, (f, _) in enumerate(terms):
            s = 0 if f is e else e.cmp(f)
            if s < 0:
                terms.insert(i, (e, c))
                break
            if not s:
                terms[i] = (f, c)  # a repeat: the later coefficient wins
                break
        else:
            terms.append((e, c))
    numerator = coeff_field.numerator  # a zero shows without Fraction.__bool__
    kept = tuple([t for t in terms if numerator(t[1])])
    if not kept and not allow_zero:
        kept = ((zero(construction), coeff_field.coerce(1)),)
    return _series(construction, coeff_field, kept)
