"""Deterministic finite search fragments.

Quantifier evaluation over the infinite groups searches a reproducible
finite fragment: all integer combinations of the supplied parameters
and generator pool with coefficients bounded by ``coeff_bound``,
enumerated smallest-coefficients-first and truncated at ``size_cap``.
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
    # pool parts shared by every fragment enumerated through this config;
    # only the copies made by with_shared_pool() carry a table
    _pool_parts: Optional[dict] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
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

    def with_shared_pool(self) -> "FragmentConfig":
        """A copy whose fragments share their pool-only part.

        Fragments enumerated through the copy keep, per surviving pool
        tuple, the multiples of the pool generators and the sum of every
        coefficient vector whose parameter coefficients are all zero, and
        reuse them on the next call.  Nested quantifiers enumerate a
        fragment per outer binding, so one evaluation makes one copy and
        drops it.
        """
        # a field-for-field copy of a validated config, without revalidating
        out = object.__new__(FragmentConfig)
        out.__dict__.update(vars(self), _pool_parts={})
        return out


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
    constructions.  Through a config from ``with_shared_pool`` it
    yields the same elements, reusing the pool part of earlier calls.
    """
    params = tuple(params)
    gens: list[GroupElement] = []
    seen_gen: set = set()
    for group in (params, cfg.generator_pool):
        n_params = len(gens)  # once the loop is over: the parameter axes
        for g in group:
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
    # The pool part depends only on which pool generators survive: their
    # multiples, and the sums of the vectors with zero parameter part, are
    # shared through the config.  Those vectors come in the same order
    # whatever the parameters (parameter axes vary slowest and start at 0),
    # so pool_sums[t] is the sum of the t-th of them.
    parts = cfg._pool_parts if cfg._pool_parts is not None else {}
    pool = tuple(gens[n_params:])
    part = parts.get(pool)
    if part is None:
        part = parts[pool] = ([{} for _ in pool], [])
    pool_multiples, pool_sums = part
    # k * g is scaled once, on first use, and shared by every later vector;
    # sums[i] is the sum of the first i terms of the previous vector, so a
    # vector that shares a prefix with it adds only the terms after it.
    # A vector whose sum is shared skips the loop and leaves only
    # sums[:valid + 1] matching the previous vector.
    multiples = [{} for _ in range(n_params)] + pool_multiples
    n = len(gens)
    sums = [z] * (n + 1)
    valid = n
    prev: tuple = (None,) * n
    pool_only = True  # the first vector is all zeros
    t = 0
    for vec in _coeff_vectors(n, cfg.coeff_bound):
        if emitted >= cfg.size_cap:
            return
        i = 0
        while vec[i] == prev[i]:  # consecutive vectors differ somewhere
            i += 1
        if i < n_params:
            pool_only = not any(vec[:n_params])
        prev = vec
        if pool_only and t < len(pool_sums):
            acc = pool_sums[t]
            t += 1
            if valid > i:
                valid = i
        else:
            if i > valid:
                i = valid
            acc = sums[i]
            for j in range(i, n):
                k = vec[j]
                if k:
                    kg = multiples[j].get(k)
                    if kg is None:
                        kg = multiples[j][k] = gens[j].scale(k)
                    acc = acc + kg
                sums[j + 1] = acc
            valid = n
            if pool_only:
                pool_sums.append(acc)
                t += 1
        if acc not in seen:
            seen.add(acc)
            emitted += 1
            yield acc
