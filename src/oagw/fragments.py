"""Deterministic finite search fragments.

Quantifier evaluation over the infinite groups searches a reproducible
finite fragment: all integer combinations of the supplied parameters
and generator pool with coefficients bounded by ``coeff_bound``,
enumerated smallest-coefficients-first and truncated at ``size_cap``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .elements import Construction, ConstructionMismatch, GroupElement, zero


@dataclass(frozen=True)
class FragmentConfig:
    coeff_bound: int = 3
    generator_pool: tuple[GroupElement, ...] = ()
    size_cap: int = 2000
    seed: int = 0


def _coeff_vectors(n: int, bound: int) -> Iterator[tuple[int, ...]]:
    # Layered by max |coefficient| so small combinations come first;
    # inside a layer the order is the deterministic product order with
    # each axis running 0, 1, -1, 2, -2, ...
    if n == 0:
        return
    axis: list[list[int]] = []
    for m in range(bound + 1):
        order = [0]
        for k in range(1, m + 1):
            order.extend((k, -k))
        axis.append(order)
    for m in range(bound + 1):
        for vec in itertools.product(axis[m], repeat=n):
            # every entry has |k| <= m, so the layer test is membership
            if m == 0 or m in vec or -m in vec:
                yield vec


def iter_fragment(
    params: Sequence[GroupElement],
    cfg: FragmentConfig,
    construction: Construction | None = None,
) -> Iterator[GroupElement]:
    """Lazily enumerate the fragment spanned by params and the pool.

    Yields zero first, then every parameter, then combinations in a
    deterministic order; stops at ``size_cap``; rejects mixed
    constructions.
    """
    gens: list[GroupElement] = []
    seen_gen: set = set()
    for g in tuple(params) + cfg.generator_pool:
        if construction is None:
            construction = g.construction
        elif g.construction is not construction:
            raise ConstructionMismatch("fragment parameters mix constructions")
        if not g.is_zero() and g not in seen_gen:
            seen_gen.add(g)
            gens.append(g)
    if construction is None:
        raise ValueError("cannot infer construction for an empty fragment")

    emitted = 0
    z = zero(construction)
    seen: set = {z}
    yield z
    emitted += 1
    for p in params:
        if p not in seen and emitted < cfg.size_cap:
            seen.add(p)
            emitted += 1
            yield p
    # k * g is scaled once, on first use, and shared by every later vector;
    # sums[i] is the sum of the first i terms of the previous vector, so a
    # vector that shares a prefix with it adds only the terms after it
    multiples: list[dict[int, GroupElement]] = [{} for _ in gens]
    sums = [z] * (len(gens) + 1)
    prev: tuple = (None,) * len(gens)
    for vec in _coeff_vectors(len(gens), cfg.coeff_bound):
        if emitted >= cfg.size_cap:
            return
        i = 0
        while vec[i] == prev[i]:  # consecutive vectors differ somewhere
            i += 1
        acc = sums[i]
        for j in range(i, len(gens)):
            k = vec[j]
            if k:
                kg = multiples[j].get(k)
                if kg is None:
                    kg = multiples[j][k] = gens[j].scale(k)
                acc = acc + kg
            sums[j + 1] = acc
        prev = vec
        if acc not in seen:
            seen.add(acc)
            emitted += 1
            yield acc

