"""Deterministic finite search fragments.

Quantifier evaluation over the infinite groups searches a reproducible
finite fragment: all integer combinations of the supplied parameters
and generator pool with coefficients bounded by ``coeff_bound``,
enumerated smallest-coefficients-first and truncated at ``size_cap``.

A fragment element is a parameter part plus a pool part.  Each
``iter_fragment`` call keeps its own memos: it drops zero, repeated and
parameter generators from the pool, sums parameter and pool parts into
two memos keyed by coefficient vector, and, for each layer m, lists the
pool parts of every vector with all |k| <= m (the layer's box) and the
sub-list of those with some |k| = m (its rim), both in product order.
The lists grow only as far as the walk reaches, so a fragment that
stops early leaves the rest uncomputed.  ``FragmentConfig`` is a plain
frozen value that serves any number of fragments in any interleaving.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .elements import Construction, ConstructionMismatch, GroupElement, zero


@dataclass(frozen=True)
class FragmentConfig:
    """The bounds of a fragment: ``coeff_bound`` on every coefficient,
    the ``generator_pool`` spanned beside the parameters, and
    ``size_cap`` on the elements yielded.  ``seed`` is carried for the
    callers that record it; nothing in this package reads it."""

    coeff_bound: int = 3
    generator_pool: tuple[GroupElement, ...] = ()
    size_cap: int = 2000
    seed: int = 0

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

    def _narrowed(self, pool: tuple[GroupElement, ...]) -> "FragmentConfig":
        """This config with ``pool``, drawn from its own generator pool, in
        that pool's place: the value the class call returns, without the
        frames of the generated ``__init__`` and of the checks this config
        has passed already."""
        out = object.__new__(FragmentConfig)
        out.__dict__.update(self.__dict__, generator_pool=pool)
        return out

    def _check_pool(self, construction: Construction) -> None:
        """Raise ``ConstructionMismatch`` for a pool generator of another
        construction."""
        for g in self.generator_pool:
            if g.construction is not construction:
                raise ConstructionMismatch("fragment parameters mix constructions")


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
    construction.
    """
    cfg._check_pool(construction)
    z = zero(construction)
    # the distinct nonzero params are yielded and are the parameter axes;
    # count is len(seen), kept beside it, so one len() per candidate tells
    # whether the add was new
    seen: set = {z}
    count = 1
    param_gens: list[GroupElement] = []
    for p in params:
        if p.construction is not construction:
            raise ConstructionMismatch("fragment parameters mix constructions")
        seen.add(p)
        if len(seen) > count:
            count += 1
            param_gens.append(p)
    size_cap = cfg.size_cap
    yield z
    yield from param_gens[: size_cap - 1]
    if count >= size_cap:
        return
    # a param that is a pool generator takes that generator's axis
    pool_gens = tuple(dict.fromkeys([g for g in cfg.generator_pool if g not in seen]))
    if not param_gens and not pool_gens:
        return
    # A vector's sum is its parameter part plus its pool part, each read
    # from a memo keyed by its coefficient vector.  A layer's pool parts
    # are listed too, and the whole box is walked when the parameter
    # vector is in the layer, the rim otherwise.  Layer 0 sums to zero.
    param_parts = {(0,) * len(param_gens): z}
    pool_parts = {(0,) * len(pool_gens): z}
    for m in range(1, cfg.coeff_bound + 1):
        vecs = _box(m, len(pool_gens))  # the pool vectors not yet listed
        box, rim = [], []
        for pvec in _box(m, len(param_gens)):
            row = box if m in pvec or -m in pvec else rim
            ppart = _part(param_parts, param_gens, pvec)
            # a zero parameter part leaves the pool part as the candidate
            for acc in map(ppart.__add__, row) if ppart.entries else row:
                seen.add(acc)
                if len(seen) > count:
                    count += 1
                    yield acc
                    if count >= size_cap:
                        return
            # past the listed parts, list the layer one vector at a time
            for vec in vecs:
                part = _part(pool_parts, pool_gens, vec)
                box.append(part)
                if m in vec or -m in vec:
                    rim.append(part)
                elif row is rim:
                    continue
                acc = ppart + part if ppart.entries else part
                seen.add(acc)
                if len(seen) > count:
                    count += 1
                    yield acc
                    if count >= size_cap:
                        return
