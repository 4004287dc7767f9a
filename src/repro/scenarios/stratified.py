"""Stratified bulk sampling: split ``t`` across caller-given strata exactly.

One proportional multinomial draw allocates the budget (the same
scatter math :class:`repro.shard.ShardedIRS` uses to split a query across
shards — allocating by in-range count, or by in-range mass on weighted
structures, makes the pooled draw distribution-identical to one flat
``sample_bulk`` over the union of disjoint strata), then each stratum is
answered through the structure's seed-addressable bulk path.  Exactness is
by construction: a multinomial's counts always sum to ``t``, so stratum
``j`` returns exactly ``t_j`` samples with ``sum(t_j) == t`` — no rounding
residue to distribute, no stratum over- or under-served.

A seeded call derives one 63-bit entropy word from ``generator(seed)``
(after the multinomial draw) and gives stratum ``j`` the task seed
``derive_seed(entropy, j)``: the per-stratum draws are pure functions of
the caller's seed and the structure contents, independent of how many
strata share the call — mirroring the shard scatter exactly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as _np

from ..core.base import validate_count
from ..errors import EmptyRangeError, InvalidQueryError
from ..rng import derive_seed, generator

__all__ = ["sample_stratified"]


def _stratum_shares(sampler, strata: list[tuple[float, float]]):
    """In-range share of each stratum: mass on weighted samplers, else count."""
    peek_weights = getattr(sampler, "peek_weights", None)
    if peek_weights is not None:
        try:
            return [float(m) for m in peek_weights(strata)]
        except InvalidQueryError:
            pass  # a facade over unweighted shards: counts are the shares
    else:
        range_weight = getattr(sampler, "range_weight", None)
        if range_weight is not None:
            return [float(range_weight(lo, hi)) for lo, hi in strata]
    peek_counts = getattr(sampler, "peek_counts", None)
    if peek_counts is not None:
        return [float(k) for k in peek_counts(strata)]
    return [float(sampler.count(lo, hi)) for lo, hi in strata]


def sample_stratified(sampler, strata: Sequence, t: int, *, seed=None) -> list:
    """Draw ``t`` samples split *exactly* across the given strata.

    Parameters
    ----------
    sampler:
        Any structure with ``sample_bulk(lo, hi, t, *, seed=)``; strata are
        answered through ``sample_bulk_many`` in one call when available.
    strata:
        ``(lo, hi)`` bounds, closed intervals.  The caller owns the
        partition — overlapping strata are legal (an item then counts
        toward every stratum containing it).
    t:
        Total sample budget (a Python or NumPy integer ``>= 0``; a bool or
        a float raises), allocated proportionally to each stratum's
        in-range count (weighted structures: in-range mass) by one
        multinomial draw, so the per-stratum counts sum to ``t`` exactly.
    seed:
        Optional integer making the allocation and every stratum's draws a
        pure function of the seed and the structure contents.

    Returns
    -------
    list
        Per-stratum sample blocks aligned with ``strata``; block ``j`` has
        exactly the allocated ``t_j`` samples, all inside ``strata[j]``.
    """
    bounds: list[tuple[float, float]] = []
    for stratum in strata:
        try:
            lo, hi = stratum
            lo, hi = float(lo), float(hi)
        except (TypeError, ValueError):
            raise InvalidQueryError(
                f"stratum bounds must be (lo, hi) pairs, got {stratum!r}"
            ) from None
        if lo > hi:
            raise InvalidQueryError(f"invalid stratum: {lo!r} > {hi!r}")
        bounds.append((lo, hi))
    validate_count(t)
    if not bounds:
        if t > 0:
            raise InvalidQueryError("cannot allocate samples across zero strata")
        return []
    gen = generator(seed) if seed is not None else _np.random.default_rng()
    shares = _np.asarray(_stratum_shares(sampler, bounds), dtype=float)
    total_share = float(shares.sum())
    if t == 0:
        split = [0] * len(bounds)
    elif total_share <= 0.0:
        raise EmptyRangeError("no points inside any stratum")
    else:
        split = gen.multinomial(t, shares / total_share).tolist()
    entropy = int(gen.integers(1 << 63))
    task_seeds = [derive_seed(entropy, j) for j in range(len(bounds))]
    queries = [(lo, hi, int(tj)) for (lo, hi), tj in zip(bounds, split)]
    many = getattr(sampler, "sample_bulk_many", None)
    if many is not None:
        if seed is not None:
            return many(queries, seeds=task_seeds)
        return many(queries)
    blocks = []
    for (lo, hi, tj), task_seed in zip(queries, task_seeds):
        if seed is not None:
            blocks.append(sampler.sample_bulk(lo, hi, tj, seed=task_seed))
        else:
            blocks.append(sampler.sample_bulk(lo, hi, tj))
    return blocks
