"""Deterministic finite search fragments.

Quantifier evaluation over the infinite groups searches a reproducible
finite fragment: all integer combinations of the supplied parameters
and generator pool with coefficients bounded by ``coeff_bound``,
enumerated smallest-coefficients-first and truncated at ``size_cap``.

Each ``FragmentConfig`` keeps a memo of pool-part sums, shared by every
fragment enumerated through it: the sum of each coefficient vector over
the pool generators that survive in a fragment is computed once per
config.  ``evaluate`` enumerates a fragment per outer binding through a
copy of the caller's config, so its memo lives for one call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .elements import Construction, ConstructionMismatch, GroupElement, zero


@dataclass(frozen=True)
class FragmentConfig:
    coeff_bound: int = 3
    generator_pool: tuple[GroupElement, ...] = ()
    size_cap: int = 2000
    seed: int = 0
    # (construction, surviving pool) -> memo of pool-part sums, shared by
    # every fragment enumerated through this config
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


def iter_fragment(
    params: Sequence[GroupElement],
    cfg: FragmentConfig,
    construction: Construction,
) -> Iterator[GroupElement]:
    """Lazily enumerate the fragment spanned by params and the pool.

    Yields zero first, then every parameter, then the sums of the
    coefficient vectors layer by layer: layer m holds the vectors whose
    largest |coefficient| is m, in product order with each axis running
    0, 1, -1, ..., m, -m.  Stops at ``size_cap``; rejects params and
    pool generators of another construction.  Reads and fills the
    config's memo of pool-part sums.
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

    z = zero(construction)
    seen: set = {z}
    yield z
    for p in params:
        if p not in seen and len(seen) < cfg.size_cap:
            seen.add(p)
            yield p
    # A vector's sum is its parameter part plus its pool part, each read
    # from a memo keyed by its coefficient sub-vector.  The pool memo
    # depends only on which pool generators survive, so it is shared
    # through the config.
    param_gens, pool = tuple(gens[:n_params]), tuple(gens[n_params:])
    param_parts = {(0,) * n_params: z}
    pool_parts = cfg._pool_parts.get((construction, pool))
    if pool_parts is None:
        pool_parts = cfg._pool_parts[construction, pool] = {(0,) * len(pool): z}
    for m in range(cfg.coeff_bound + 1):
        axis = [0] + [s * k for k in range(1, m + 1) for s in (1, -1)]
        for pvec in itertools.product(axis, repeat=n_params):
            # every entry has |k| <= m, so the layer test is membership
            in_layer = m == 0 or m in pvec or -m in pvec
            ppart = _part(param_parts, param_gens, pvec)
            for qvec in itertools.product(axis, repeat=len(pool)):
                if not (in_layer or m in qvec or -m in qvec):
                    continue
                if len(seen) >= cfg.size_cap:
                    return
                # most pool parts are memo hits, so a hit skips the call
                acc = ppart + (pool_parts.get(qvec) or _part(pool_parts, pool, qvec))
                if acc not in seen:
                    seen.add(acc)
                    yield acc
