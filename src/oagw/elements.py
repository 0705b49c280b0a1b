"""Finitely supported elements of the two group constructions.

A ``GroupElement`` maps positions to component values and is ordered
lexicographically: the leftmost (most significant) position where two
elements differ decides the comparison.

Component values depend on the construction:

* ``GAMMA`` squares hold rationals whose denominator is coprime to 3,
  circles hold rationals with odd denominator.
* ``LAMBDA`` squares hold integer polynomials ``a0 + a1*c1 + a2*c2 + ...``
  over generators ``c1 > c2 > ...`` that are infinitesimal relative to 1
  and to each other; the polynomial order is lexicographic by slot with
  slot 0 most significant.  Circles hold arbitrary rationals.

All values are immutable and canonical: no zero components are stored,
rationals are kept in lowest terms, polynomials are slot-sorted tuples
of ``(slot, coeff)`` pairs with no zero coefficient.

One function, ``_canon_value``, states which values a position may
hold: it maps a raw component to its canonical value or raises
``ComponentError``.  ``element()`` and ``parse_element()`` pass each raw
component through it once and hand the result to the unchecked
``_from_canonical``, which also builds the results that are canonical
by construction (sums, multiples, zeros, embedding images).  The public
``GroupElement(construction, entries)`` accepts a stored value exactly
when its class fits the position, it is nonzero and it canonicalizes
to itself.  A sum of two elements whose supports do not overlap, every
position of one before every position of the other, joins their entry
tuples; any other sum merges them, and positions are interned, so the
merge tests ``pa is pb`` first.

The hash is additive: ``hash(e)`` is the sum over components of the
position's ``weight`` times the value read modulo ``HASH_MODULUS`` (a
rational ``num/den`` as ``num * den**-1``, a polynomial evaluated at the
fixed point ``_HASH_POINT``), reduced modulo ``HASH_MODULUS``.  So
``hash(a + b) == (hash(a) + hash(b)) % HASH_MODULUS`` and ``hash(k * a)
== k * hash(a) % HASH_MODULUS``: a sum or multiple of elements that
already know their hash gets its own from them, without reading its
entries.  Nothing is hashed eagerly; an unknown hash is ``None``.  A
rational whose denominator the prime modulus divides has no value
modulo it (every circle and every ``GAMMA`` square can hold one); an
element holding one gets a fallback hash that is recomputed on every
call and never carried.  A sum of elements without such a value has
none, because the modulus is prime.
"""

from __future__ import annotations

import enum
import math
import re
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Any, NamedTuple, Optional, Union

from .positions import CIRCLE, G1, G2, HASH_MODULUS, SQUARE, Position


class Construction(enum.Enum):
    GAMMA = "gamma"
    LAMBDA = "lambda"

    def __str__(self) -> str:
        return self.value


GAMMA = Construction.GAMMA
LAMBDA = Construction.LAMBDA

# Canonical component values: Fraction for circles and GAMMA squares,
# sorted tuple of (slot, coeff) pairs for LAMBDA squares.
Poly = tuple[tuple[int, int], ...]
Value = Union[Fraction, Poly]


class ConstructionMismatch(ValueError):
    pass


class ComponentError(ValueError):
    pass


def _p_val(num: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    return v


def uses_poly(construction: Construction, pos: Position) -> bool:
    return construction is LAMBDA and pos.is_square


def _local_prime(pos: Position) -> int:
    # GAMMA components live in a localization of the integers:
    # squares away from 3, circles away from 2.
    return 3 if pos.is_square else 2


def _canon_value(construction: Construction, pos: Position, raw: Any) -> Value:
    """The canonical value of one raw component at ``pos``, zero included.

    A ``LAMBDA`` square takes an int or a Mapping slot -> int; every other
    position takes an int or a Fraction, and a ``GAMMA`` position only a
    denominator its local prime does not divide.  Raises ``ComponentError``
    when the position cannot hold the value.
    """
    if uses_poly(construction, pos):
        if raw.__class__ is dict or isinstance(raw, Mapping):
            return _canon_poly(raw)
        if raw.__class__ is int:
            return _canon_poly({0: raw})
        raise ComponentError(f"{pos}: square components take integer polynomials")
    if raw.__class__ is int:
        return Fraction(raw)
    if raw.__class__ is not Fraction:
        # a float or a str would convert, and a bool is an int
        raise ComponentError(f"{pos}: expected a rational value")
    if construction is GAMMA:
        p = _local_prime(pos)
        if raw.denominator % p == 0:
            raise ComponentError(
                f"{pos}: denominator {raw.denominator} not invertible here (prime {p})"
            )
    return raw


def _canon_poly(coeffs: Mapping[int, int]) -> Poly:
    items = []
    for slot, c in coeffs.items():
        # a bool is an int, but True would print as a coefficient or slot
        if slot.__class__ is not int or slot < 0:
            raise ComponentError("polynomial slots must be non-negative integers")
        if c.__class__ is not int:
            raise ComponentError("polynomial coefficients must be integers")
        if c:
            items.append((slot, c))
    return tuple(sorted(items))


def _poly_add(x: Poly, y: Poly) -> Poly:
    # linear merge of the two slot-sorted tuples, zero sums dropped
    out = []
    i = j = 0
    nx, ny = len(x), len(y)
    while i < nx and j < ny:
        sx, cx = x[i]
        sy, cy = y[j]
        if sx < sy:
            out.append(x[i])
            i += 1
        elif sy < sx:
            out.append(y[j])
            j += 1
        else:
            c = cx + cy
            if c:
                out.append((sx, c))
            i += 1
            j += 1
    return (*out, *x[i:], *y[j:])


# Rational arithmetic on the hot paths, each in one Python frame.  Fraction's
# operators cost a dispatch frame, the operation itself, four property
# reads and ``Fraction.__new__``; these read the ``_numerator`` and
# ``_denominator`` slots, reduce with at most two ``math.gcd`` calls and
# write the slots of a new Fraction, so each result is exactly the one
# the operator returns: lowest terms over a positive denominator, and
# 0/1 for zero.  ``Fraction._from_coprime_ints`` writes the slots the
# same way on Python 3.12.


def _fraction_add(a: Fraction, b: Fraction) -> Fraction:
    """``a + b``, reduced as ``Fraction._add`` reduces it."""
    na, da = a._numerator, a._denominator
    nb, db = b._numerator, b._denominator
    out = object.__new__(Fraction)
    g = math.gcd(da, db)
    if g == 1:
        # a prime of da divides da * nb but neither na nor db, so not the
        # sum; a prime of db likewise
        out._numerator = na * db + da * nb
        out._denominator = da * db
        return out
    s = da // g
    t = na * (db // g) + nb * s
    # a common factor of t and da * db / g divides g
    g = math.gcd(t, g)
    out._numerator = t // g
    out._denominator = s * (db // g)
    return out


def _fraction_mul(a: Fraction, b: Fraction) -> Fraction:
    """``a * b``: each numerator is coprime to its own denominator, so
    cancelling it against the other one leaves lowest terms."""
    na, da = a._numerator, a._denominator
    nb, db = b._numerator, b._denominator
    g1 = math.gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = math.gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    out = object.__new__(Fraction)
    out._numerator = na * nb
    out._denominator = da * db
    return out


def _fraction_neg(a: Fraction) -> Fraction:
    """``-a``."""
    out = object.__new__(Fraction)
    out._numerator = -a._numerator
    out._denominator = a._denominator
    return out


def _fraction_times(v: Fraction, k: int) -> Fraction:
    """``v * k`` for a nonzero int k.

    The numerator of v is coprime to its denominator d, so with
    g = gcd(k, d) the product numerator * (k/g) over d/g is already in
    lowest terms.
    """
    den = v._denominator
    g = math.gcd(k, den)
    out = object.__new__(Fraction)
    out._numerator = v._numerator * (k // g)
    out._denominator = den // g
    return out


def _value_sign(v: Value) -> int:
    """Sign of a stored, hence nonzero, value: its least slot or numerator."""
    lead = v[0][1] if v.__class__ is tuple else v._numerator  # type: ignore[union-attr]
    return 1 if lead > 0 else -1


def _value_sub_sign(a: Value, b: Value) -> int:
    """Sign of a - b for two values stored at the same position."""
    if a.__class__ is tuple:
        # the first slot where the coefficients differ decides; of two
        # different slots the smaller is absent, i.e. 0, on the other side
        for (sa, ca), (sb, cb) in zip_longest(a, b, fillvalue=(math.inf, 0)):  # type: ignore[misc]
            if sa < sb:
                cb = 0
            elif sb < sa:
                ca = 0
            if ca != cb:
                return 1 if ca > cb else -1
        return 0
    x = a._numerator * b._denominator  # type: ignore[union-attr]
    y = b._numerator * a._denominator  # type: ignore[union-attr]
    return (x > y) - (x < y)


class LeadDescriptor(NamedTuple):
    """A support address: position plus inner polynomial slot.

    Ordered lexicographically, as a tuple: positions compare by their
    sort key.  The inner slot is 0 at circles and at GAMMA squares,
    which have no inner structure.  Hot paths build one with
    ``tuple.__new__(LeadDescriptor, (position, slot))``: the value the
    class call returns, without the Python frame of its generated
    ``__new__``.
    """

    position: Position
    inner_slot: int = 0

    def __str__(self) -> str:
        return f"({self.position}, {self.inner_slot})"


class GroupElement:
    """Immutable; the constructor validates, ``_from_canonical`` does not."""

    __slots__ = ("construction", "entries", "_hash")

    construction: Construction
    entries: tuple[tuple[Position, Value], ...]

    def __init__(self, construction: Construction, entries: tuple) -> None:
        _set_construction(self, construction)
        _set_entries(self, tuple((pos, value) for pos, value in entries))
        _set_hash(self, None)
        self.__post_init__()

    def __post_init__(self) -> None:
        if not isinstance(self.construction, Construction):
            raise ComponentError(f"unknown construction {self.construction!r}")
        prev = None
        for pos, value in self.entries:
            if not isinstance(pos, Position):
                raise ComponentError(f"expected a position, got {pos!r}")
            if prev is not None and not prev.key < pos.key:
                raise ComponentError("entries must be sorted by position and unique")
            poly = uses_poly(self.construction, pos)
            # Fraction(1) == 1, so without the class check a stored int passes
            if value.__class__ is not (tuple if poly else Fraction) or not value:
                raise ComponentError(f"{pos}: {value!r} is not a nonzero stored value")
            try:
                raw = dict(value) if poly else value
            except (TypeError, ValueError) as exc:
                raise ComponentError(f"{pos}: bad polynomial {value!r}: {exc}") from None
            if _canon_value(self.construction, pos, raw) != value:
                raise ComponentError(f"{pos}: non-canonical value {value!r}")
            prev = pos

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"GroupElement is immutable: cannot set {name!r}")

    def __reduce__(self) -> tuple:
        return (GroupElement, (self.construction, self.entries))

    def __repr__(self) -> str:
        return f"GroupElement(construction={self.construction!r}, entries={self.entries!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not GroupElement:
            return NotImplemented
        # a kept hash is the hash of the entries, so two that differ decide
        ha, hb = self._hash, other._hash
        if ha is not None and hb is not None and ha != hb:
            return False
        return self is other or (
            self.construction is other.construction and self.entries == other.entries
        )

    def __hash__(self) -> int:
        # Elements are immutable, so the hash is computed on first use
        # and kept; sums and multiples mostly carry it in already.
        h = self._hash
        if h is not None:
            return h
        h = 0
        keep = True
        for pos, v in self.entries:
            if v.__class__ is tuple:
                r = 0
                for slot, c in v:  # type: ignore[union-attr]
                    r += c * (_POINT_POWERS[slot] if slot < len(_POINT_POWERS)
                              else pow(_HASH_POINT, slot, HASH_MODULUS))
            else:
                num, den = v._numerator, v._denominator  # type: ignore[union-attr]
                if den == 1:
                    r = num
                elif den % HASH_MODULUS:
                    r = num * pow(den, -1, HASH_MODULUS)
                else:
                    r = hash((num, den))
                    keep = False
            h += pos.weight * r
        h %= HASH_MODULUS
        if keep:
            _set_hash(self, h)
        return h

    def is_zero(self) -> bool:
        return not self.entries

    def value_at(self, pos: Position) -> Optional[Value]:
        for p, v in self.entries:
            if p is pos:
                return v
        return None

    def coeff_at(self, desc: LeadDescriptor) -> int:
        """Integer coefficient at a LAMBDA square slot (0 when absent)."""
        v = self.value_at(desc.position)
        if not isinstance(v, tuple):
            raise ComponentError(f"{desc.position} holds no polynomial")
        for slot, c in v:
            if slot == desc.inner_slot:
                return c
        return 0

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "GroupElement") -> "GroupElement":
        if other.construction is not self.construction:
            _same(self, other)
        ea, eb = self.entries, other.entries
        if not eb:
            return self
        if not ea:
            return other
        ha, hb = self._hash, other._hash
        h = None if ha is None or hb is None else (ha + hb) % HASH_MODULUS
        # supports that do not overlap: the sum's entries are both tuples joined
        if ea[-1][0].key < eb[0][0].key:
            return _from_canonical(self.construction, ea + eb, h)
        if eb[-1][0].key < ea[0][0].key:
            return _from_canonical(self.construction, eb + ea, h)
        # otherwise a linear merge of the two position-sorted entry tuples
        out = []
        i = j = 0
        na, nb = len(ea), len(eb)
        while i < na and j < nb:
            pa, va = ea[i]
            pb, vb = eb[j]
            if pa is pb:
                # a zero sum is dropped; a rational one shows it in its numerator
                if vb.__class__ is tuple:
                    s = _poly_add(va, vb)  # type: ignore[arg-type]
                    if s:
                        out.append((pa, s))
                else:
                    s = _fraction_add(va, vb)  # type: ignore[arg-type]
                    if s._numerator:
                        out.append((pa, s))
                i += 1
                j += 1
            elif pa.key < pb.key:
                out.append(ea[i])
                i += 1
            else:
                out.append(eb[j])
                j += 1
        return _from_canonical(self.construction, (*out, *ea[i:], *eb[j:]), h)

    def __neg__(self) -> "GroupElement":
        # scale(-1) without the generic multiply: each value negated as is
        h = self._hash
        return _from_canonical(self.construction, tuple([
            (pos, tuple([(s, -c) for s, c in v]) if v.__class__ is tuple else _fraction_neg(v))
            for pos, v in self.entries
        ]), None if h is None else -h % HASH_MODULUS)

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def scale(self, k: int) -> "GroupElement":
        if not isinstance(k, int):
            raise TypeError("only integer scaling is defined")
        if k == 1:
            return self
        if k == 0:
            return zero(self.construction)
        h = self._hash
        return _from_canonical(self.construction, tuple([
            (pos, tuple([(s, c * k) for s, c in v]) if v.__class__ is tuple else _fraction_times(v, k))
            for pos, v in self.entries
        ]), None if h is None else h * k % HASH_MODULUS)

    def __mul__(self, k: int) -> "GroupElement":
        return self.scale(k)

    __rmul__ = __mul__

    # -- order ----------------------------------------------------------

    def cmp(self, other: "GroupElement") -> int:
        if other.construction is not self.construction:
            _same(self, other)
        # stored values are nonzero: the first position held by one side
        # only decides by its sign, a shared position by the difference
        for (pa, va), (pb, vb) in zip(self.entries, other.entries):
            if pa is pb:
                if va is not vb:
                    s = _value_sub_sign(va, vb)
                    if s:
                        return s
            elif pa.key < pb.key:
                return _value_sign(va)
            else:
                return -_value_sign(vb)
        ea, eb = self.entries, other.entries
        if len(ea) > len(eb):
            return _value_sign(ea[len(eb)][1])
        if len(eb) > len(ea):
            return -_value_sign(eb[len(ea)][1])
        return 0

    def sign(self) -> int:
        if not self.entries:
            return 0
        return _value_sign(self.entries[0][1])

    def __lt__(self, other: "GroupElement") -> bool:
        return self.cmp(other) < 0

    def __le__(self, other: "GroupElement") -> bool:
        return self.cmp(other) <= 0

    def __gt__(self, other: "GroupElement") -> bool:
        return self.cmp(other) > 0

    def __ge__(self, other: "GroupElement") -> bool:
        return self.cmp(other) >= 0

    def abs(self) -> "GroupElement":
        return self if self.sign() >= 0 else -self

    # -- leads and divisibility ------------------------------------------

    def lead_descriptor(self) -> Optional[LeadDescriptor]:
        """Address of the first nonzero component slot."""
        if not self.entries:
            return None
        pos, v = self.entries[0]
        return tuple.__new__(LeadDescriptor, (pos, v[0][0] if v.__class__ is tuple else 0))

    def lead_value(self) -> Union[int, Fraction]:
        """Leading slot value: integer coefficient or rational."""
        if not self.entries:
            raise ValueError("zero element has no lead")
        v = self.entries[0][1]
        if isinstance(v, tuple):
            return v[0][1]
        return v

    def is_divisible(self, n: int) -> bool:
        return self.lead_mod(n) is None

    def lead_mod(self, n: int) -> Optional[LeadDescriptor]:
        """First slot whose component value is not divisible by n.

        Circles of the LAMBDA construction are rational, hence always
        divisible and never host the result; absent when the whole
        element is divisible (in particular for zero).
        """
        if not isinstance(n, int) or n < 2:
            raise ValueError(f"modulus must be an integer >= 2, got {n!r}")
        # LAMBDA circles are rational, hence n-divisible: need stays None
        need = _gamma_need(n) if self.construction is GAMMA else None
        for pos, v in self.entries:
            if v.__class__ is tuple:
                for slot, c in v:
                    if c % n:
                        return tuple.__new__(LeadDescriptor, (pos, slot))
            elif need is not None and not _gamma_divisible_by(pos, v, need):
                return tuple.__new__(LeadDescriptor, (pos, 0))
        return None

    def __str__(self) -> str:
        return format_element(self)


def _same(a: GroupElement, b: GroupElement) -> None:
    if a.construction is not b.construction:
        raise ConstructionMismatch(
            f"cannot mix {a.construction} and {b.construction} elements"
        )


def fresh_g1_block(*elems: GroupElement) -> int:
    """Smallest G1 block index beyond every support position given."""
    block = 0
    for e in elems:
        for pos, _ in e.entries:
            if pos.area == G1:
                block = max(block, pos.index + 1)
    return block


def _gamma_need(n: int) -> dict[int, int]:
    """Local prime -> its exponent in n: what a GAMMA component must carry."""
    return {2: _p_val(n, 2), 3: _p_val(n, 3)}


def _gamma_divisible_by(pos: Position, value: Fraction, need: Mapping[int, int]) -> bool:
    """Whether a GAMMA component is n-divisible, given ``_gamma_need(n)``."""
    p = _local_prime(pos)
    return need[p] == 0 or _p_val(value._numerator, p) >= need[p]


# the slot setters write past the immutable __setattr__ without a Python call
_set_construction = GroupElement.construction.__set__  # type: ignore[attr-defined]
_set_entries = GroupElement.entries.__set__  # type: ignore[attr-defined]
_set_hash = GroupElement._hash.__set__  # type: ignore[attr-defined]
_new_element = object.__new__


def _from_canonical(
    construction: Construction, entries: tuple, h: Optional[int] = None
) -> GroupElement:
    """Unchecked constructor for entries that are canonical by construction.

    ``h`` is the hash of the entries when the caller knows it, else None.
    """
    e = _new_element(GroupElement)
    _set_construction(e, construction)
    _set_entries(e, entries)
    _set_hash(e, h)
    return e


# The point at which polynomial components are evaluated for the hash,
# and its first powers: the hash weight of polynomial slot s is the
# position's weight times _HASH_POINT**s.
_HASH_POINT = 0x9E3779B97F4A7C15 % HASH_MODULUS
_POINT_POWERS = tuple(pow(_HASH_POINT, s, HASH_MODULUS) for s in range(64))

# one immutable zero per construction, shared by every caller; it rides
# on the member, because an Enum key hashes in Python
GAMMA._zero = _from_canonical(GAMMA, (), 0)
LAMBDA._zero = _from_canonical(LAMBDA, (), 0)


def zero(construction: Construction) -> GroupElement:
    return construction._zero


def _entry_key(entry: tuple[Position, Value]) -> tuple:
    return entry[0].key


def element(
    construction: Construction,
    components: Mapping[Position, Union[int, Fraction, Mapping[int, int]]],
) -> GroupElement:
    """Build an element from position -> raw value, canonicalizing.

    Each raw component goes through ``_canon_value`` once, which raises
    ``ComponentError`` when its position cannot hold it; zero components
    are dropped.
    """
    entries = []
    for pos, raw in components.items():
        v = _canon_value(construction, pos, raw)
        if v:
            entries.append((pos, v))
    entries.sort(key=_entry_key)
    return _from_canonical(construction, tuple(entries))


def unit(
    construction: Construction,
    pos: Position,
    value: Union[int, Fraction, Mapping[int, int]] = 1,
) -> GroupElement:
    return element(construction, {pos: value})


# -- text form ------------------------------------------------------------

class ParseError(ValueError):
    def __init__(self, text: str, at: int, message: str) -> None:
        super().__init__(f"at index {at}: {message} in {text!r}")
        self.at = at
        self.message = message


_POS_RE = re.compile(
    r"\s*(?:G2\[(?P<pair>\d+)\]\.(?P<shape>[cs])|G1\[(?P<block>\d+)\]\.(?:s\[(?P<square>\d+)\]|c))"
)
_RAT_RE = re.compile(r"\s*(-?\d+)(?:\s*/\s*(\d+))?\s*")
_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?:(?P<coeff>\d+)\s*\*?\s*)?(?:c(?P<slot>\d+))?\s*"
)


def _parse_poly(text: str, base: int, body: str) -> dict[int, int]:
    if not body:
        raise ParseError(text, base, "expected polynomial term")
    coeffs: dict[int, int] = {}
    i = 0
    first = True
    while i < len(body):
        m = _TERM_RE.match(body, i)
        sign, coeff, slot = m.groups()
        if m.end() == i or (coeff is None and slot is None):
            raise ParseError(text, base + i, "expected polynomial term")
        if sign is None and not first:
            raise ParseError(text, base + i, "missing sign between terms")
        k = int(coeff) if coeff is not None else 1
        slot = int(slot) if slot is not None else 0
        coeffs[slot] = coeffs.get(slot, 0) + (-k if sign == "-" else k)
        i = m.end()
        first = False
    return coeffs


def parse_element(text: str, construction: Construction) -> GroupElement:
    """The element ``text`` writes; a fault ``_canon_value`` finds, or a zero
    denominator, raises ``ParseError`` at its value's offset in ``text``."""
    s = text.strip()
    if s == "0":
        return zero(construction)
    # offsets count from the start of text, ahead of s by its leading blanks
    lead = len(text) - len(text.lstrip())
    if not s.startswith("{") or not s.endswith("}"):
        raise ParseError(text, lead, "expected '{...}' or '0'")
    components: dict[Position, Value] = {}
    offset = lead + 1
    for chunk in s[1:-1].split(","):
        pos_text, colon, val_text = chunk.partition(":")
        if not colon:
            raise ParseError(text, offset, "expected 'position: value'")
        m = _POS_RE.fullmatch(pos_text.rstrip())
        if m is None:
            raise ParseError(text, offset, f"bad position {pos_text.strip()!r}")
        pair, shape, block, square = m.groups()
        if pair is not None:
            pos = Position(G2, int(pair), shape)
        elif square is not None:
            pos = Position(G1, int(block), SQUARE, int(square))
        else:
            pos = Position(G1, int(block), CIRCLE)
        if pos in components:
            raise ParseError(text, offset, f"duplicate position {pos}")
        # value errors point at the value's first non-blank
        val_base = offset + len(pos_text) + 1 + len(val_text) - len(val_text.lstrip())
        raw: Union[int, Fraction, dict[int, int]]
        if uses_poly(construction, pos):
            vt = val_text.strip()
            if "/" in vt:
                raise ParseError(text, val_base, f"{pos} takes integer polynomials")
            raw = _parse_poly(text, val_base, vt)
        else:
            m = _RAT_RE.fullmatch(val_text)
            if m is None:
                raise ParseError(text, val_base, f"bad rational {val_text.strip()!r}")
            num, den = m.groups()
            if den is None:
                raw = int(num)
            elif int(den):
                raw = Fraction(int(num), int(den))
            else:
                raise ParseError(text, val_base, f"zero denominator in {val_text.strip()!r}")
        try:
            components[pos] = _canon_value(construction, pos, raw)
        except ComponentError as exc:
            raise ParseError(text, val_base, str(exc)) from None
        offset += len(chunk) + 1
    entries = [e for e in components.items() if e[1]]
    entries.sort(key=_entry_key)
    return _from_canonical(construction, tuple(entries))


def _format_poly(v: Poly) -> str:
    parts = []
    for slot, c in v:
        if slot == 0:
            parts.append(str(c))
        else:
            term = f"{abs(c)}*c{slot}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+{term}" if c > 0 else f"-{term}")
    return "".join(parts)


def format_element(a: GroupElement) -> str:
    if a.is_zero():
        return "0"
    items = []
    for pos, v in a.entries:
        # a rational is written from Fraction's slots, as str() writes it
        if v.__class__ is tuple:
            body = _format_poly(v)
        elif v._denominator == 1:
            body = str(v._numerator)
        else:
            body = f"{v._numerator}/{v._denominator}"
        items.append(f"{pos.text}: {body}")
    return "{" + ", ".join(items) + "}"
