"""Congruence-avoidance predicates and their closed forms.

The central predicate ``cong_free_below(n, a, b)`` decides whether no
``y`` with ``0 < y < b`` is congruent to ``a`` modulo ``n``.  Over the
block constructions, membership only depends on where the first
``n``-indivisible slot of ``a`` sits relative to the leading slot of
``b``; the exact rule, including the boundary where both addresses
coincide, is implemented here and cross-checked against witness search
by the test suites.  The rule is decided in one frame on raw lead
addresses: a ``LeadDescriptor`` against the first entry of ``b``,
positions by identity and then by ``Position.key``, then slots, and a
tie's residue read from ``a``'s polynomial at that slot.

``tail_set`` computes the cut, a ``LeadDescriptor`` or ``None`` for the
empty set, of the union of congruence-free tails swept out below an
element; ``in_tail`` decides membership in the set a cut describes, and
drives the formula-based decision of the right-block subgroup
(``g1_part_by_formula``).

On gamma, ``window_positions`` refutes ``index_window`` in the F1 image
for every coefficient bound, by the positions its witnesses need.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

from .elements import (
    GAMMA,
    LAMBDA,
    ComponentError,
    ConstructionMismatch,
    GroupElement,
    LeadDescriptor,
    _gamma_divisible_by,
    _gamma_need,
    _local_prime,
    _same,
    element,
    fresh_g1_block,
    unit,
)
from .positions import G1, G2, Position, g1_square


def cong_free_below(n: int, a: GroupElement, b: GroupElement) -> bool:
    """True when no y with 0 < y < b satisfies y = a modulo n.

    Closed form: vacuously true for b <= 0.  For b > 0 every candidate
    y must carry the residue of ``a`` at the first n-indivisible slot
    ``d`` of ``a``, so existence of a witness is settled by comparing
    ``d`` with the leading slot of ``b``; when they coincide the least
    positive residue of the coefficient decides.
    """
    _same(a, b)
    return b.sign() <= 0 or _free_below_positive(n, a, a.lead_mod(n), b)


def cong_free_below_given(
    n: int, a: GroupElement, d: Optional[LeadDescriptor], b: GroupElement
) -> bool:
    """``cong_free_below(n, a, b)`` given ``d = a.lead_mod(n)``, for one
    ``a`` compared with many ``b``."""
    _same(a, b)
    return b.sign() <= 0 or _free_below_positive(n, a, d, b)


def _free_below_positive(
    n: int, a: GroupElement, d: Optional[LeadDescriptor], b: GroupElement
) -> bool:
    """``cong_free_below(n, a, b)`` for ``b > 0``, given ``d = a.lead_mod(n)``.

    Decided in this one frame on raw lead addresses: ``d`` against b's
    lead entry, positions by identity and then by ``key``, then slots.
    """
    if d is None:
        # a is divisible: n * (deep tiny element) lands in (0, b)
        return False
    pos, v = b.entries[0]
    at, slot = d
    if at is not pos:
        return at.key < pos.key
    if v.__class__ is not tuple:
        # same rational component (slot 0 on both sides): it is dense, so
        # a witness always fits below b's lead
        return False
    lead_slot, lead = v[0]
    if slot != lead_slot:
        return slot < lead_slot
    # same slot: b's lead coefficient against a's least positive residue
    # there, read from a's polynomial at d (an absent slot holds 0)
    for p, w in a.entries:
        if p is at:
            for s, k in w:
                if s == slot:
                    return lead < k % n
            return lead < 0
    raise ComponentError(f"{at} holds no polynomial")


def index_window(c: GroupElement, b: GroupElement) -> Callable[[GroupElement], bool]:
    """The two-sided index comparison of x with c and b, as a predicate on x.

    ``index_window(c, b)(x)`` holds when ``x > 0``, some n in (2, 3) has
    ``cong_free_below(n, c, x)`` and some n in (2, 3) has
    ``cong_free_below(n, x, b)``.  The lead slots ``c.lead_mod(n)`` and
    the sign of b, which makes the second half vacuously true when b <=
    0, are computed once, when the predicate is built.
    """
    _same(c, b)
    construction = c.construction
    c2, c3 = c.lead_mod(2), c.lead_mod(3)
    b_positive = b.sign() > 0

    def holds(x: GroupElement) -> bool:
        if x.construction is not construction:
            _same(c, x)
        if not x.entries:
            return False
        # x > 0: the sign of its stored, hence nonzero, lead value
        v = x.entries[0][1]
        return (
            (v[0][1] if v.__class__ is tuple else v._numerator) > 0
            and (_free_below_positive(2, c, c2, x) or _free_below_positive(3, c, c3, x))
            and (
                not b_positive
                or _free_below_positive(2, x, x.lead_mod(2), b)
                or _free_below_positive(3, x, x.lead_mod(3), b)
            )
        )

    return holds


def window_positions(c: GroupElement, b: GroupElement) -> Optional[tuple[Position, ...]]:
    """On gamma, the positions strictly between L and U, in order.

    L is the least of ``c.lead_mod(2)`` and ``c.lead_mod(3)`` that exists
    and U is b's lead.  ``()`` when c has neither lead; None when b <= 0
    or U lies in G1, where the set need not be finite.  Exact both ways:

    * sound: let x satisfy ``index_window(c, b)``.  On gamma a tie at a
      lead slot compares a Fraction, so it is False, and the window needs
      L < lead(x) and, for some n, ``x.lead_mod(n)`` < U.  As lead(x) <=
      ``x.lead_mod(n)``, x is nonzero strictly between L and U;
    * tight: ``unit(GAMMA, p)`` satisfies the window for every listed p:
      a square is 3-indivisible and a circle 2-indivisible at value 1.

    So the F1 image, which omits only ``CRITICAL_CIRCLE``, has a witness
    exactly when some listed position is not the critical circle.
    """
    _same(c, b)
    if c.construction is not GAMMA:
        raise ConstructionMismatch(f"expected a {GAMMA} element")
    low = min((d for d in (c.lead_mod(2), c.lead_mod(3)) if d is not None), default=None)
    if low is None:
        return ()
    upper = b.entries[0][0] if b.sign() > 0 else None
    if upper is None or upper.area != G2:
        return None
    out = []
    pos = low.position.successor()
    while pos < upper:
        out.append(pos)
        pos = pos.successor()
    return tuple(out)


def _tiny_gamma_representative(value: Fraction, p: int, s: int, below: Fraction) -> Fraction:
    """Element of value + p^s * Z_(p) inside (0, below)."""
    q = 3 if p == 2 else 2
    step = Fraction(p**s)
    while step >= below / 2:
        step /= q
    k = (value - below / 2) / step
    shift = k.numerator // k.denominator  # floor
    return value - step * shift


def cong_witness_below(n: int, a: GroupElement, b: GroupElement) -> Optional[GroupElement]:
    """Explicit y with 0 < y < b and y = a mod n, or None when none exists.

    The returned element certifies ``cong_free_below(n, a, b) == False``
    and is checkable with exact arithmetic alone.
    """
    _same(a, b)
    if b.sign() <= 0:
        return None
    d = a.lead_mod(n)
    if _free_below_positive(n, a, d, b):
        return None
    construction = a.construction
    if d is None:
        far = g1_square(fresh_g1_block(a, b), 0)
        return unit(construction, far).scale(n)

    need = _gamma_need(n)
    # componentwise residue of a from slot d onward, zero before
    comps: dict[Position, object] = {}
    for pos, v in a.entries:
        if pos.key < d.position.key:
            continue
        if isinstance(v, tuple):
            if pos == d.position:
                kept = {slot: c % n for slot, c in v if slot >= d.inner_slot and c % n}
            else:
                kept = {slot: c % n for slot, c in v if c % n}
            if kept:
                comps[pos] = kept
        else:
            if construction is LAMBDA:
                continue  # rational components reduce to zero
            if not _gamma_divisible_by(pos, v, need):
                comps[pos] = v

    beta = b.lead_descriptor()
    assert beta is not None
    # a is not free below b, so d does not precede b's lead: it follows
    # it or equals it, which the tuples tell without ordering positions
    if beta != d:
        # y leads strictly after b's lead, hence y < b automatically;
        # only the sign of the leading component matters
        if construction is GAMMA:
            val = comps[d.position]
            assert isinstance(val, Fraction)
            if val < 0:
                p = _local_prime(d.position)
                step = Fraction(p ** need[p])
                lift = (-val) / step
                comps[d.position] = val + step * (lift.numerator // lift.denominator + 1)
        return element(construction, comps)  # leads at d with positive value

    # shared slot: match b's lead and cut below it
    assert beta == d
    if construction is GAMMA:
        v_lead = b.lead_value()
        assert isinstance(v_lead, Fraction)
        p = _local_prime(d.position)
        cur = comps[d.position]
        assert isinstance(cur, Fraction)
        comps[d.position] = _tiny_gamma_representative(cur, p, need[p], v_lead)
        return element(construction, comps)
    v_lead = b.lead_value()
    assert isinstance(v_lead, int)
    k0 = a.coeff_at(d) % n
    y = element(construction, comps)
    if k0 == v_lead:
        # tie at the lead slot: push the next slot below b's
        next_slot = LeadDescriptor(d.position, d.inner_slot + 1)
        r1 = y.coeff_at(next_slot)
        v1 = b.coeff_at(next_slot)
        m = max(1, (r1 - v1) // n + 1)  # smallest m with r1 - n*m < v1
        y = y + element(construction, {d.position: {next_slot.inner_slot: -n * m}})
    return y


# -- tail sets -------------------------------------------------------------


def in_tail(cut: Optional[LeadDescriptor], b: GroupElement) -> bool:
    """Membership of ``b`` in the tail set whose cut is ``cut``.

    ``None`` is the empty set; any other cut is the set of zero and
    every nonzero element whose lead address lies strictly after the
    cut, compared as ``_free_below_positive`` compares it.
    """
    if cut is None:
        return False
    if not b.entries:
        return True
    pos, v = b.entries[0]
    at = cut[0]
    if at is not pos:
        return at.key < pos.key
    return cut[1] < (v[0][0] if v.__class__ is tuple else 0)


def tail_set(a: GroupElement) -> Optional[LeadDescriptor]:
    """Cut of the union of congruence-free tails below ``a`` (see ``in_tail``).

    Depends only on the component at the leading position and is blind
    to the overall sign; zero yields the empty set, ``None``.  At a
    polynomial square the cut is the leading slot itself; at a circle
    the sweep reaches into the next square (LAMBDA) or stops at the
    circle (GAMMA, where squares cannot carry a modulus-2 obstruction);
    a GAMMA square defers to the next circle to its right.
    """
    if a.is_zero():
        return None
    pos, v = a.entries[0]
    if a.construction is LAMBDA:
        if pos.is_square:
            assert isinstance(v, tuple)
            return tuple.__new__(LeadDescriptor, (pos, v[0][0]))
        return tuple.__new__(LeadDescriptor, (pos.successor(), 0))
    # GAMMA: modulus-2 obstructions only live at circles
    if pos.is_circle:
        return tuple.__new__(LeadDescriptor, (pos, 0))
    return tuple.__new__(LeadDescriptor, (pos.next_circle(), 0))


def inner_anchor_below(a: GroupElement) -> Optional[GroupElement]:
    """A t with 0 < t < |a| whose modulus-2 lead realizes tail_set(a).

    The swept tail below ``a`` is the union over such t of the sets
    they leave congruence-free; this canonical t witnesses that the
    union reaches the cut exactly.  None for zero.
    """
    if a.is_zero():
        return None
    m = a.abs()
    pos, v = m.entries[0]
    construction = m.construction
    if construction is LAMBDA:
        if pos.is_square:
            assert isinstance(v, tuple)
            slot, coeff = v[0]
            if coeff >= 2:
                return element(LAMBDA, {pos: {slot: 1}})
            far = g1_square(fresh_g1_block(m), 0)
            return m - unit(LAMBDA, far, {0: 1})
        return unit(LAMBDA, pos.successor(), {0: 1})
    assert isinstance(v, Fraction)
    if pos.is_circle:
        num, den = v.numerator, v.denominator
        odd = num
        while odd % 2 == 0:
            odd //= 2
        return element(GAMMA, {pos: Fraction(odd, 3 * den)})
    return element(GAMMA, {pos: v / 2, pos.next_circle(): Fraction(1)})


# -- the right-block subgroup ----------------------------------------------


def in_g1_part(a: GroupElement) -> bool:
    """Ground truth: support confined to G1 positions."""
    return all(pos.area == G1 for pos, _ in a.entries)


#: Cut pinned by the maximal admissible pair in the defining formula:
#: the distinguished square slot at the head of the right block.
_G1_HEAD = LeadDescriptor(g1_square(0, 0), 0)


def g1_part_by_formula(a: GroupElement) -> bool:
    """Decide membership in the right block through tail-set descriptors.

    The defining conditions pin a pair of reference elements whose
    swept tails are maximal; the decided set is the corresponding tail
    together with everything sharing its cut.  Must agree with
    :func:`in_g1_part` on every input.
    """
    if a.construction is not LAMBDA:
        raise ConstructionMismatch(f"expected a {LAMBDA} element")
    return in_tail(_G1_HEAD, a) or tail_set(a) == _G1_HEAD
