"""Deterministic finite search fragments.

Quantifier evaluation over the infinite groups searches a reproducible
finite fragment: all integer combinations of the supplied parameters
and generator pool with coefficients bounded by ``coeff_bound``,
enumerated smallest-coefficients-first and truncated at ``size_cap``.

A fragment element is a parameter part plus a pool part.  For each
pool that survives in a fragment, each ``FragmentConfig`` keeps the
pool parts layer by layer: for layer m, the part of every coefficient
vector with all |k| <= m (the layer's box) and the sub-list of those
with some |k| = m (its rim), both in product order.  The lists grow on
demand, so a fragment that stops early leaves the rest uncomputed, and
every fragment enumerated through the config walks what earlier ones
filled.  ``evaluate`` enumerates a fragment per outer binding through a
clone of the caller's config with a fresh memo, so its lists live for
one call.
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
        """This config with an empty pool-part memo of its own.

        The fields were validated when this config was built, so unlike
        ``dataclasses.replace`` the clone does not rerun ``__post_init__``.
        """
        clone = object.__new__(FragmentConfig)
        clone.__dict__.update(self.__dict__)
        clone.__dict__["_pool_parts"] = {}
        return clone


def _axis(m: int) -> list[int]:
    """The coefficients of layer m, in enumeration order: 0, 1, -1, ..., m, -m."""
    return [0] + [s * k for k in range(1, m + 1) for s in (1, -1)]


def _part(memo: dict, gens: tuple[GroupElement, ...], vec: tuple[int, ...]) -> GroupElement:
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
        self.layers: list[_Layer] = []

    def layer(self, m: int) -> "_Layer":
        while len(self.layers) <= m:
            self.layers.append(_Layer(self, len(self.layers)))
        return self.layers[m]


class _Layer:
    """Layer m of a pool: its box and rim lists, grown from one iterator.

    ``vecs`` runs over the layer's vectors in product order and is None
    once both lists are complete.
    """

    __slots__ = ("pool", "m", "box", "rim", "vecs")

    def __init__(self, pool: _PoolParts, m: int) -> None:
        self.pool, self.m = pool, m
        self.box: list[GroupElement] = []
        self.rim: list[GroupElement] = []
        self.vecs: Optional[Iterator] = itertools.product(_axis(m), repeat=len(pool.gens))

    def grow(self) -> bool:
        """Append the next vector's part; False once the layer is complete."""
        vec = next(self.vecs, None)  # type: ignore[arg-type]
        if vec is None:
            self.vecs = None
            return False
        part = _part(self.pool.sums, self.pool.gens, vec)
        self.box.append(part)
        if self.m in vec or -self.m in vec:
            self.rim.append(part)
        return True

    def walk(self, parts: list[GroupElement]) -> Iterator[GroupElement]:
        """Every item of ``parts``, the box or the rim, growing it on demand."""
        i = 0
        while True:
            if i < len(parts):
                yield parts[i]
                i += 1
            elif self.vecs is None or not self.grow():
                return


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
    params = tuple(params)
    gens: list[GroupElement] = []
    seen_gen: set = set()
    for group in (params, cfg.generator_pool):
        n_params = len(gens)  # once the loop is over: the parameter axes
        for g in group:
            if g.construction is not construction:
                raise ConstructionMismatch("fragment parameters mix constructions")
            if not g.is_zero() and g not in seen_gen:
                seen_gen.add(g)
                gens.append(g)

    size_cap = cfg.size_cap
    z = zero(construction)
    seen: set = {z}
    yield z
    for p in params:
        if p not in seen and len(seen) < size_cap:
            seen.add(p)
            yield p
    if not gens or len(seen) >= size_cap:
        return
    # A vector's sum is its parameter part plus its pool part.  The
    # parameter part is read from a memo keyed by its coefficient vector;
    # the pool parts of a layer are walked as a list, the whole box when
    # the parameter vector is in the layer and the rim otherwise.  They
    # depend only on which pool generators survive, so they are shared
    # through the config.
    param_gens, pool = tuple(gens[:n_params]), tuple(gens[n_params:])
    param_parts = {(0,) * n_params: z}
    parts = cfg._pool_parts.get((construction, pool))
    if parts is None:
        parts = cfg._pool_parts[construction, pool] = _PoolParts(pool, z)
    for m in range(cfg.coeff_bound + 1):
        layer = parts.layer(m)
        for pvec in itertools.product(_axis(m), repeat=n_params):
            # every entry has |k| <= m, so the layer test is membership
            in_layer = m == 0 or m in pvec or -m in pvec
            row = layer.box if in_layer else layer.rim
            if layer.vecs is not None:
                row = layer.walk(row)
            ppart = _part(param_parts, param_gens, pvec)
            # a zero parameter part leaves the pool part as the candidate
            for acc in map(ppart.__add__, row) if ppart.entries else row:
                n = len(seen)
                seen.add(acc)
                if len(seen) > n:
                    yield acc
                    if len(seen) >= size_cap:
                        return
