"""Order- and addition-preserving self-embeddings of the constructions.

Two injective maps are provided, given by position relabelling with
component values carried unchanged:

* ``F1`` shifts the left part one pair further left and pulls the head
  square of the right part into the freed rightmost square; the freed
  rightmost circle (the *critical circle*) is exactly what its image
  omits.
* ``F2`` shifts the left part one pair to the right, displacing the
  rightmost pair into the right part; the squares of block 0 are
  exactly what its image omits.

Also here: the image-preserving perturbation used to break finitely
many congruences at once.
"""

from __future__ import annotations

import enum
import functools
from typing import Optional, Sequence

from .elements import (
    LAMBDA,
    ConstructionMismatch,
    GroupElement,
    _from_canonical,
    fresh_g1_block,
    unit,
)
from .positions import (
    CRITICAL_CIRCLE,
    G1,
    G2,
    Position,
    g1_circle,
    g1_square,
    g2_circle,
    g2_square,
)


class Embedding(enum.Enum):
    F1 = "f1"
    F2 = "f2"

    def __str__(self) -> str:
        # the member's own slot, without the frame of enum's ``value`` property
        return self._value_


# The four position maps are strictly increasing on ``pos.key`` (that is
# what makes F1 and F2 order embeddings) and memoised on the interned
# position.


@functools.cache
def _f1_pos(pos: Position) -> Position:
    if pos.area == G2:
        return Position(G2, pos.index + 1, pos.shape)
    if pos.is_square and pos.index == 0:
        if pos.slot == 0:
            return g2_square(0)
        return g1_square(0, pos.slot - 1)
    return pos


@functools.cache
def _f1_pos_inv(pos: Position) -> Optional[Position]:
    if pos.area == G2:
        if pos.index >= 1:
            return Position(G2, pos.index - 1, pos.shape)
        if pos.is_square:
            return g1_square(0, 0)
        return None  # the critical circle is outside the image
    if pos.is_square and pos.index == 0:
        return g1_square(0, pos.slot + 1)
    return pos


@functools.cache
def _f2_pos(pos: Position) -> Position:
    if pos.area == G2:
        if pos.index >= 1:
            return Position(G2, pos.index - 1, pos.shape)
        if pos.is_circle:
            return g1_circle(0)
        return g1_square(1, 0)
    if pos.index == 0:
        if pos.is_square:
            return g1_square(1, pos.slot + 1)
        return g1_circle(1)
    return Position(G1, pos.index + 1, pos.shape, pos.slot)


@functools.cache
def _f2_pos_inv(pos: Position) -> Optional[Position]:
    if pos.area == G2:
        return Position(G2, pos.index + 1, pos.shape)
    if pos.index == 0:
        if pos.is_circle:
            return g2_circle(0)
        return None  # block-0 squares are outside the image
    if pos.index == 1:
        if pos.is_circle:
            return g1_circle(0)
        if pos.slot == 0:
            return g2_square(0)
        return g1_square(0, pos.slot - 1)
    return Position(G1, pos.index - 1, pos.shape, pos.slot)


# each member carries its position maps, because an Enum key hashes in
# Python and ``apply`` runs once per exponent of every lifted series
Embedding.F1._forward, Embedding.F1._inverse = _f1_pos, _f1_pos_inv
Embedding.F2._forward, Embedding.F2._inverse = _f2_pos, _f2_pos_inv


def apply(e: Embedding, a: GroupElement) -> GroupElement:
    """Image of ``a``; injective, additive, and order preserving.

    The position map is strictly increasing, so the images of the sorted
    entries are sorted as they come.
    """
    fwd = e._forward
    return _from_canonical(a.construction, tuple([(fwd(pos), v) for pos, v in a.entries]))


def preimage(e: Embedding, a: GroupElement) -> Optional[GroupElement]:
    """The unique b with apply(e, b) == a, or None outside the image.

    The inverse position map is strictly increasing where defined, so
    the preimages of the sorted entries are sorted as they come.
    """
    inv = e._inverse
    out = []
    for pos, v in a.entries:
        q = inv(pos)
        if q is None:
            return None
        out.append((q, v))
    return _from_canonical(a.construction, tuple(out))


def in_image(e: Embedding, a: GroupElement) -> bool:
    if e is Embedding.F1:
        return a.value_at(CRITICAL_CIRCLE) is None
    return not any(
        pos.area == G1 and pos.index == 0 and pos.is_square for pos, _ in a.entries
    )


def perturb_into_image(
    t: GroupElement,
    eps: GroupElement,
    constraints: Sequence[tuple[int, GroupElement]] = (),
) -> GroupElement:
    """An F1-image element within eps of ``t`` breaking every congruence given.

    Adds a coefficient-1 unit at the first square of a fresh block
    beyond every support involved: the fresh slot keeps the distance
    below ``eps`` and makes ``t' - r`` indivisible by every requested
    modulus at once.  Requires ``t`` in the F1 image and ``eps > 0``.
    """
    if t.construction is not LAMBDA:
        raise ConstructionMismatch("image perturbation is defined on the lambda construction")
    if eps.sign() <= 0:
        raise ValueError("eps must be strictly positive")
    for n, _ in constraints:
        if n < 2:
            raise ValueError("constraint moduli must be >= 2")
    if not in_image(Embedding.F1, t):
        raise ValueError("t must lie in the F1 image")
    fresh = g1_square(fresh_g1_block(t, eps, *(r for _, r in constraints)), 0)
    return t + unit(LAMBDA, fresh, {0: 1})

