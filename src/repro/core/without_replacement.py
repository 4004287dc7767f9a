"""Sampling *without replacement* on top of the IRS structures.

The paper's primary queries sample with replacement; the without-replacement
variant asks for a uniformly random ``t``-subset of ``P ∩ q``.  It is
answered exactly on any *rank-addressable* structure: Robert Floyd's
algorithm draws a uniform ``t``-subset of the rank interval with exactly
``t`` primitive draws and ``O(t)`` expected set operations, then a
Fisher–Yates pass randomizes the order.  Duplicated values are handled
correctly because ranks, not values, are deduplicated.  Dispatch is by
capability, not by type: a structure exposing ``rank_range`` +
``value_at_rank`` (:class:`~repro.core.static_irs.StaticIRS`) resolves
global ranks directly, and one exposing ``count`` + ``select_in_range``
(:class:`~repro.core.dynamic_irs.DynamicIRS`, whose array directory is
rank-addressable, and :class:`~repro.shard.ShardedIRS`, which routes
in-range ranks across its shards) resolves in-range ranks.  Every other
structure (the weighted planes, whose "without replacement" has no single
canonical law, and the external-memory and baseline samplers) raises
:class:`~repro.errors.InvalidQueryError`.
"""

from __future__ import annotations

import numpy as _np

from ..errors import EmptyRangeError, InvalidQueryError
from ..rng import RandomSource, generator
from .base import RangeSampler, validate_query

__all__ = [
    "sample_ranks_without_replacement",
    "sample_ranks_without_replacement_bulk",
    "sample_without_replacement",
    "sample_without_replacement_bulk",
]


def sample_ranks_without_replacement(
    rng: RandomSource, lo_rank: int, hi_rank: int, t: int
) -> list[int]:
    """Return ``t`` distinct uniform ranks from ``[lo_rank, hi_rank)``.

    Floyd's algorithm: iterate ``j`` over the last ``t`` positions of the
    interval; draw ``r`` uniform in ``[lo_rank, j]``; insert ``r`` unless
    already chosen, in which case insert ``j``.  Every ``t``-subset comes out
    with equal probability.  The result order is randomized before returning
    so positional statistics are exchangeable.
    """
    population = hi_rank - lo_rank
    if t > population:
        raise InvalidQueryError(
            f"cannot draw {t} distinct samples from {population} points"
        )
    chosen: set[int] = set()
    out: list[int] = []
    for j in range(hi_rank - t, hi_rank):
        r = rng.randint(lo_rank, j)
        pick = r if r not in chosen else j
        chosen.add(pick)
        out.append(pick)
    rng.shuffle(out)
    return out


def sample_ranks_without_replacement_bulk(
    gen, lo_rank: int, hi_rank: int, t: int
) -> list[int]:
    """Vectorized Floyd: ``t`` distinct uniform ranks from ``[lo_rank, hi_rank)``.

    Same algorithm and same subset law as
    :func:`sample_ranks_without_replacement`, restructured for bulk ``t``:
    all ``t`` primitive draws come from *one* ``Generator.integers`` call
    with a vector of inclusive upper bounds (NumPy broadcasts the bound
    array, Lemire-exact per element), the collision-resolution set pass is
    the only per-element Python left, and the final order randomization is
    one ``Generator.permutation``.  ``gen`` is a NumPy ``Generator`` — pass
    :func:`repro.rng.generator` of a seed for a draw that is a pure
    function of the seed.
    """
    population = hi_rank - lo_rank
    if t > population:
        raise InvalidQueryError(
            f"cannot draw {t} distinct samples from {population} points"
        )
    if t == 0:
        return []
    js = _np.arange(hi_rank - t, hi_rank, dtype=_np.int64)
    draws = gen.integers(lo_rank, js + 1)  # inclusive bound j, exact per element
    chosen: set[int] = set()
    out: list[int] = []
    for j, r in zip(js.tolist(), draws.tolist()):
        pick = r if r not in chosen else j
        chosen.add(pick)
        out.append(pick)
    order = gen.permutation(t)
    return [out[i] for i in order.tolist()]


def sample_without_replacement_bulk(
    sampler, lo: float, hi: float, t: int, *, seed=None
):
    """Vectorized exact without-replacement bulk draw (NumPy array result).

    The bulk twin of :func:`sample_without_replacement` for the
    *rank-addressable* structures: ranks come from the vectorized Floyd
    pass (:func:`sample_ranks_without_replacement_bulk`) and resolve
    through ``rank_range`` + ``value_at_rank``
    (:class:`~repro.core.static_irs.StaticIRS`) or ``count`` +
    ``select_in_range`` (:class:`~repro.core.dynamic_irs.DynamicIRS`,
    :class:`~repro.shard.ShardedIRS`, uniform
    :class:`~repro.scenarios.WindowedIRS`).  Exact for multisets — ranks,
    not values, are deduplicated.  An explicit ``seed`` makes the subset
    and its order a pure function of the seed and the structure contents.

    Structures without rank addressing (the weighted planes, whose
    "without replacement" has no single canonical law) raise a typed
    :class:`~repro.errors.InvalidQueryError`.
    """
    validate_query(lo, hi, t)
    gen = generator(seed) if seed is not None else _np.random.default_rng()
    if hasattr(sampler, "rank_range") and hasattr(sampler, "value_at_rank"):
        a, b = sampler.rank_range(lo, hi)
        if b - a == 0 and t > 0:
            raise EmptyRangeError("no points inside the query range")
        ranks = sample_ranks_without_replacement_bulk(gen, a, b, t)
        return _np.asarray(
            [sampler.value_at_rank(r) for r in ranks], dtype=float
        )
    if hasattr(sampler, "select_in_range"):
        total = sampler.count(lo, hi)
        if total == 0 and t > 0:
            # Resolving no ranks lets a facade that is not rank-addressable
            # (weighted shards) refuse first, as its flat kinds do.
            sampler.select_in_range(lo, hi, [])
            raise EmptyRangeError("no points inside the query range")
        ranks = sample_ranks_without_replacement_bulk(gen, 0, total, t)
        return _np.asarray(sampler.select_in_range(lo, hi, ranks), dtype=float)
    raise InvalidQueryError(
        f"{type(sampler).__name__} is not rank-addressable; bulk "
        "without-replacement needs rank_range+value_at_rank or select_in_range"
    )


def sample_without_replacement(
    sampler: RangeSampler,
    lo: float,
    hi: float,
    t: int,
    rng: RandomSource | None = None,
) -> list[float]:
    """Return a uniform ``t``-subset of ``P ∩ [lo, hi]`` (random order).

    Floyd's algorithm over the structure's ranks (see the module
    docstring); a structure that is not rank-addressable raises
    :class:`~repro.errors.InvalidQueryError`, as
    :func:`sample_without_replacement_bulk` does.  ``rng`` defaults to a
    fresh seeded source; pass the structure's own source for
    reproducibility.
    """
    if rng is None:
        rng = RandomSource()
    if hasattr(sampler, "rank_range") and hasattr(sampler, "value_at_rank"):
        a, b = sampler.rank_range(lo, hi)
        ranks = sample_ranks_without_replacement(rng, a, b, t)
        return [sampler.value_at_rank(r) for r in ranks]
    if hasattr(sampler, "select_in_range"):
        ranks = sample_ranks_without_replacement(rng, 0, sampler.count(lo, hi), t)
        return sampler.select_in_range(lo, hi, ranks)
    raise InvalidQueryError(
        f"{type(sampler).__name__} is not rank-addressable; "
        "without-replacement needs rank_range+value_at_rank or select_in_range"
    )
