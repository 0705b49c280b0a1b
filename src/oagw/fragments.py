"""Deterministic finite search fragments.

Quantifier evaluation over the infinite groups searches a reproducible
finite fragment: all integer combinations of the supplied parameters
and generator pool with coefficients bounded by ``coeff_bound``,
enumerated smallest-coefficients-first and truncated at ``size_cap``.

A fragment element is a parameter part plus a pool part.  What does
not depend on the parameters is done once per ``FragmentConfig`` and
shared by every fragment enumerated through it: per construction, the
pool checked and with zeros and repeats dropped; and, for each pool
that survives in a fragment, the pool parts layer by layer: for layer
m, the part of every vector with all |k| <= m (the layer's box) and
the sub-list of those with some |k| = m (its rim), both in product
order.  These lists grow on demand, so a fragment that stops early
leaves the rest uncomputed, and a fragment walks what earlier ones
filled.  A fragment generates its own parameter vectors, layer by
layer, and walks each of them once.  ``evaluate`` enumerates a
fragment per outer binding through a clone of the caller's config with
fresh memos, so they live for one call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from .elements import Construction, ConstructionMismatch, GroupElement, zero


@dataclass(frozen=True)
class FragmentConfig:
    coeff_bound: int = 3
    generator_pool: tuple[GroupElement, ...] = ()
    size_cap: int = 2000
    seed: int = 0
    # construction -> (the pool without zeros and repeats as a set, its
    # _PoolParts); a pool of another construction raises and is never
    # stored
    _pools: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # (construction, surviving pool) -> its _PoolParts, shared by every
    # fragment enumerated through this config
    _pool_parts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.size_cap.__class__ is not int or self.coeff_bound.__class__ is not int:
            raise TypeError(
                f"size_cap and coeff_bound must be int, got {self.size_cap!r} and {self.coeff_bound!r}"
            )
        if self.size_cap < 1:
            raise ValueError(f"size_cap must be at least 1, got {self.size_cap}")
        if self.coeff_bound < 0:
            raise ValueError(f"coeff_bound must be at least 0, got {self.coeff_bound}")
        if not isinstance(self.generator_pool, tuple) or not all(
            isinstance(g, GroupElement) for g in self.generator_pool
        ):
            raise TypeError(
                f"generator_pool must be a tuple of GroupElement, got {self.generator_pool!r}"
            )

    def _with_fresh_memo(self) -> "FragmentConfig":
        """This config with empty memos of its own.

        The fields were validated when this config was built, so unlike
        ``dataclasses.replace`` the clone does not rerun ``__post_init__``.
        """
        clone = object.__new__(FragmentConfig)
        clone.__dict__.update(self.__dict__)
        clone.__dict__["_pools"] = {}
        clone.__dict__["_pool_parts"] = {}
        return clone

    def _pool(self, construction: Construction) -> tuple[frozenset, "_PoolParts"]:
        """The pool's nonzero generators as a set, and their parts, which
        list them without repeats."""
        entry = self._pools.get(construction)
        if entry is None:
            self._check_pool(construction)
            pool = tuple(dict.fromkeys([g for g in self.generator_pool if not g.is_zero()]))
            parts = self._parts(construction, pool)
            entry = self._pools[construction] = (frozenset(pool), parts)
        return entry

    def _check_pool(self, construction: Construction) -> None:
        """Raise ``ConstructionMismatch`` for a pool generator of another
        construction."""
        for g in self.generator_pool:
            if g.construction is not construction:
                raise ConstructionMismatch("fragment parameters mix constructions")

    def _parts(self, construction: Construction, pool: tuple[GroupElement, ...]) -> "_PoolParts":
        parts = self._pool_parts.get((construction, pool))
        if parts is None:
            parts = _PoolParts(pool, zero(construction))
            self._pool_parts[construction, pool] = parts
        return parts


def _box(m: int, n: int) -> Iterator[tuple[int, ...]]:
    """The vectors of layer m's box over n axes, every |k| <= m, in
    product order with each axis running 0, 1, -1, ..., m, -m."""
    return itertools.product([0] + [s * k for k in range(1, m + 1) for s in (1, -1)], repeat=n)


def _part(memo: dict, gens: Sequence[GroupElement], vec: tuple[int, ...]) -> GroupElement:
    """The sum of k * g over vec and gens, read from memo or filled into it.

    The sum of a vector is the sum without its last nonzero term, plus
    that term; a vector with one nonzero term is a multiple, scaled once.
    memo starts with the zero vector.
    """
    acc = memo.get(vec)
    if acc is None:
        j = len(vec) - 1
        while not vec[j]:
            j -= 1
        head = vec[:j] + (0,) * (len(vec) - j)
        if any(head):
            acc = _part(memo, gens, head) + _part(memo, gens, (0,) * j + vec[j:])
        else:
            acc = gens[j].scale(vec[j])
        memo[vec] = acc
    return acc


class _PoolParts:
    """The parts of one surviving pool: sums by vector, lists by layer."""

    __slots__ = ("gens", "sums", "layers")

    def __init__(self, gens: tuple[GroupElement, ...], z: GroupElement) -> None:
        self.gens = gens
        self.sums = {(0,) * len(gens): z}
        self.layers: dict[int, _Layer] = {}

    def layer(self, m: int) -> "_Layer":
        layer = self.layers.get(m)
        if layer is None:
            layer = self.layers[m] = _Layer(self, m)
        return layer


class _Layer:
    """Layer m of a pool: the parts of its box and of its rim, as far as
    a fragment has walked them.

    ``vecs`` runs over the box's vectors and is None once both lists are
    complete.
    """

    __slots__ = ("pool", "m", "vecs", "box", "rim")

    def __init__(self, pool: _PoolParts, m: int) -> None:
        self.pool, self.m = pool, m
        self.vecs: Optional[Iterator] = _box(m, len(pool.gens))
        self.box: list[GroupElement] = []
        self.rim: list[GroupElement] = []

    def grow(self) -> bool:
        """Append the next vector's part; False once the layer is complete."""
        if self.vecs is None:
            return False
        vec = next(self.vecs, None)
        if vec is None:
            self.vecs = None
            return False
        part = _part(self.pool.sums, self.pool.gens, vec)
        self.box.append(part)
        if self.m in vec or -self.m in vec:
            self.rim.append(part)
        return True


def iter_fragment(
    params: Sequence[GroupElement],
    cfg: FragmentConfig,
    construction: Construction,
) -> Iterator[GroupElement]:
    """Lazily enumerate the fragment spanned by params and the pool.

    Yields zero first, then every parameter, then the sums of the
    coefficient vectors layer by layer: layer m holds the vectors whose
    largest |coefficient| is m, in product order with each axis running
    0, 1, -1, ..., m, -m.  Stops at ``size_cap``, and after zero when no
    generator is nonzero; rejects params and pool generators of another
    construction.  Walks, and grows on demand, the config's per-layer
    lists of pool parts.
    """
    pool_set, parts = cfg._pool(construction)
    z = zero(construction)
    # the distinct nonzero params are both the ones yielded and the
    # parameter axes
    seen: set = {z}
    param_gens: list[GroupElement] = []
    for p in params:
        if p.construction is not construction:
            raise ConstructionMismatch("fragment parameters mix constructions")
        n = len(seen)
        seen.add(p)
        if len(seen) > n:
            param_gens.append(p)
    size_cap = cfg.size_cap
    yield z
    yield from param_gens[: size_cap - 1]
    if len(seen) >= size_cap:
        return
    if not seen.isdisjoint(pool_set):
        # a param that is a pool generator takes that generator's axis
        parts = cfg._parts(construction, tuple([g for g in parts.gens if g not in seen]))
    if not param_gens and not parts.gens:
        return
    # A vector's sum is its parameter part plus its pool part.  The
    # parameter part is read from a memo keyed by its coefficient vector;
    # the pool parts of a layer are walked as a list, the whole box when
    # the parameter vector is in the layer and the rim otherwise.  Layer
    # 0 is skipped: its one vector sums to zero.
    param_parts = {(0,) * len(param_gens): z}
    for m in range(1, cfg.coeff_bound + 1):
        layer = parts.layer(m)
        box, rim = layer.box, layer.rim
        for pvec in _box(m, len(param_gens)):
            row = box if m in pvec or -m in pvec else rim
            ppart = _part(param_parts, param_gens, pvec)
            # a zero parameter part leaves the pool part as the candidate
            for acc in map(ppart.__add__, row) if ppart.entries else row:
                n = len(seen)
                seen.add(acc)
                if len(seen) > n:
                    yield acc
                    if len(seen) >= size_cap:
                        return
            if layer.vecs is None:
                continue
            # past the parts computed so far, grow the layer one vector at
            # a time; another fragment may grow it while this one waits
            j = len(row)
            while j < len(row) or layer.grow():
                if j == len(row):
                    continue
                acc = ppart + row[j] if ppart.entries else row[j]
                j += 1
                n = len(seen)
                seen.add(acc)
                if len(seen) > n:
                    yield acc
                    if len(seen) >= size_cap:
                        return
