"""Positions of the two block constructions.

Both groups are finitely supported direct sums indexed by a linearly
ordered set of positions.  The left part (``G2``) is a reverse-omega
chain of (circle, square) pairs; pair ``m`` sits further left for larger
``m`` and the pair at ``m = 0`` is the rightmost one.  The right part
(``G1``) is an omega chain of blocks; block ``b`` consists of squares
``s[0], s[1], ...`` followed by a single terminal circle.

Positions further left are more significant for the lexicographic
order.  ``sort_key`` realises the total order: every G2 position
precedes every G1 position, G2 pairs descend with ``m``, and inside a
G1 block every square precedes the block circle.

Positions are interned: each ``(area, index, shape, slot)`` has exactly
one ``Position`` object, created and validated on first use, so
equality and hashing are by identity.  What hot code reads is derived
once, at interning, into plain attributes: the sort key ``key``
(``sort_key()`` returns it), the flags ``is_square`` and ``is_circle``,
the text form ``text`` (``str()`` returns it), and the hash weight
``weight`` that element hashes give a component here.  The weight is a
digest of the key modulo ``HASH_MODULUS``, so it is the same in every
process, whatever ``PYTHONHASHSEED`` is.  Pickle, ``copy`` and
``deepcopy`` return the interned object.  ``<`` compares sort keys, so
tuples that start with a position sort in address order.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass

G2 = "G2"
G1 = "G1"
CIRCLE = "c"
SQUARE = "s"

#: The prime 2**61 - 1 that Python reduces numeric hashes by; element
#: hashes are sums of position weights times component values modulo it.
HASH_MODULUS = sys.hash_info.modulus

# (area, index, shape, slot) -> the one Position with those fields
_INTERNED: dict[tuple, "Position"] = {}


@dataclass(frozen=True, eq=False, init=False)
class Position:
    area: str  # G2 | G1
    index: int  # pair m for G2, block b for G1
    shape: str  # CIRCLE | SQUARE
    slot: int = 0  # square number inside a G1 block; 0 elsewhere

    def __new__(cls, area: str, index: int, shape: str, slot: int = 0) -> "Position":
        # before the lookup: 7.0 and True hash like 7 and 1 and would
        # find, or intern, the position of that int
        if index.__class__ is not int or slot.__class__ is not int:
            raise TypeError(f"index and slot must be int, got {index!r} and {slot!r}")
        fields = (area, index, shape, slot)
        try:
            return _INTERNED[fields]
        except KeyError:
            pass
        self = object.__new__(cls)
        for name, value in zip(("area", "index", "shape", "slot"), fields):
            object.__setattr__(self, name, value)
        self.__post_init__()
        return _INTERNED.setdefault(fields, self)

    def __post_init__(self) -> None:
        if self.area not in (G2, G1):
            raise ValueError(f"bad area {self.area!r}")
        if self.shape not in (CIRCLE, SQUARE):
            raise ValueError(f"bad shape {self.shape!r}")
        if self.index < 0:
            raise ValueError("negative block index")
        if self.slot < 0:
            raise ValueError("negative square slot")
        if self.slot and not (self.area == G1 and self.shape == SQUARE):
            raise ValueError("only G1 squares carry a slot")
        if self.area == G2:
            key = (0, -self.index, 0 if self.shape == CIRCLE else 1, 0)
            text = f"G2[{self.index}].{self.shape}"
        elif self.shape == SQUARE:
            key = (1, self.index, 0, self.slot)
            text = f"G1[{self.index}].s[{self.slot}]"
        else:
            key = (1, self.index, 1, 0)
            text = f"G1[{self.index}].c"
        # derived once here and read directly by hot code
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "is_square", self.shape == SQUARE)
        object.__setattr__(self, "is_circle", self.shape == CIRCLE)
        object.__setattr__(self, "text", text)
        digest = hashlib.blake2b(repr(key).encode(), digest_size=8).digest()
        object.__setattr__(self, "weight", int.from_bytes(digest, "big") % (HASH_MODULUS - 1) + 1)

    def __reduce__(self) -> tuple:
        # pickle, copy and deepcopy go back through the intern table
        return (Position, (self.area, self.index, self.shape, self.slot))

    def sort_key(self) -> tuple:
        return self.key

    def __lt__(self, other: "Position") -> bool:
        return self.key < other.key

    def successor(self) -> "Position":
        """The position immediately to the right."""
        if self.area == G2:
            if self.shape == CIRCLE:
                return g2_square(self.index)
            if self.index == 0:
                return g1_square(0, 0)
            return g2_circle(self.index - 1)
        if self.shape == SQUARE:
            return g1_square(self.index, self.slot + 1)
        return g1_square(self.index + 1, 0)

    def next_circle(self) -> "Position":
        """The first circle position strictly to the right."""
        if self.area == G2:
            # from either member of pair m: pair m-1's circle, or G1 block 0's
            return g2_circle(self.index - 1) if self.index else g1_circle(0)
        if self.shape == SQUARE:
            return g1_circle(self.index)
        return g1_circle(self.index + 1)

    def __str__(self) -> str:
        return self.text


def g2_circle(m: int) -> Position:
    return Position(G2, m, CIRCLE)


def g2_square(m: int) -> Position:
    return Position(G2, m, SQUARE)


def g1_square(b: int, p: int) -> Position:
    return Position(G1, b, SQUARE, p)


def g1_circle(b: int) -> Position:
    return Position(G1, b, CIRCLE)


#: The one circle position that the left-shift embedding forces to zero.
CRITICAL_CIRCLE = g2_circle(0)
