"""Sampling *without replacement* on top of the IRS structures.

The paper's primary queries sample with replacement; the without-replacement
variant asks for a uniformly random ``t``-subset of ``P ∩ q``.  Two exact
strategies are provided:

* **rank-based (Floyd)** — for any *rank-addressable* structure: Robert
  Floyd's algorithm draws a uniform ``t``-subset of the rank interval with
  exactly ``t`` primitive draws and ``O(t)`` expected set operations, then a
  Fisher–Yates pass randomizes the order.  Duplicated values are handled
  correctly because ranks, not values, are deduplicated.  Dispatch is by
  capability, not by type: a structure exposing ``rank_range`` +
  ``value_at_rank`` (:class:`~repro.core.static_irs.StaticIRS`) resolves
  global ranks directly, and one exposing ``count`` + ``select_in_range``
  (:class:`~repro.core.dynamic_irs.DynamicIRS`, whose array directory is
  rank-addressable, and :class:`~repro.shard.ShardedIRS`, which routes
  in-range ranks across its shards) resolves in-range ranks — so the
  generic path's no-duplicates restriction does not apply to any of them.

* **generic** — for any other :class:`~repro.core.base.RangeSampler`:
  if ``t`` exceeds half the population, report the range and take a partial
  Fisher–Yates prefix (``O(K)``, but then ``K < 2t``); otherwise draw with
  replacement and reject repeats, which needs ``O(t)`` expected draws.  The
  rejection path distinguishes points *by value*, so it requires the range to
  contain no duplicate values and raises otherwise.
"""

from __future__ import annotations

from ..errors import InvalidQueryError
from ..rng import RandomSource, generator
from .base import RangeSampler, validate_query

try:  # pragma: no cover - numpy is installed in CI
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

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
    if _np is None:  # pragma: no cover - numpy is installed in CI
        raise InvalidQueryError("bulk without-replacement sampling requires numpy")
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
    if _np is None:  # pragma: no cover - numpy is installed in CI
        raise InvalidQueryError("bulk without-replacement sampling requires numpy")
    gen = generator(seed) if seed is not None else _np.random.default_rng()
    if hasattr(sampler, "rank_range") and hasattr(sampler, "value_at_rank"):
        a, b = sampler.rank_range(lo, hi)
        if b - a == 0 and t > 0:
            from ..errors import EmptyRangeError

            raise EmptyRangeError("no points inside the query range")
        ranks = sample_ranks_without_replacement_bulk(gen, a, b, t)
        return _np.asarray(
            [sampler.value_at_rank(r) for r in ranks], dtype=float
        )
    if hasattr(sampler, "select_in_range"):
        total = sampler.count(lo, hi)
        if total == 0 and t > 0:
            from ..errors import EmptyRangeError

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
    assume_distinct: bool = False,
) -> list[float]:
    """Return a uniform ``t``-subset of ``P ∩ [lo, hi]`` (random order).

    See the module docstring for strategy selection.  ``rng`` defaults to a
    fresh seeded source; pass the structure's own source for reproducibility.
    """
    if rng is None:
        rng = RandomSource()
    if hasattr(sampler, "rank_range") and hasattr(sampler, "value_at_rank"):
        a, b = sampler.rank_range(lo, hi)
        ranks = sample_ranks_without_replacement(rng, a, b, t)
        return [sampler.value_at_rank(r) for r in ranks]
    if hasattr(sampler, "select_in_range"):
        total = sampler.count(lo, hi)
        if t > total:
            raise InvalidQueryError(
                f"cannot draw {t} distinct samples from {total} points"
            )
        ranks = sample_ranks_without_replacement(rng, 0, total, t)
        return sampler.select_in_range(lo, hi, ranks)
    population = sampler.count(lo, hi)
    if t > population:
        raise InvalidQueryError(
            f"cannot draw {t} distinct samples from {population} points"
        )
    if t == 0:
        return []
    if 2 * t >= population or not assume_distinct:
        # Partial Fisher–Yates over the reported range: exact for multisets.
        pool = sampler.report(lo, hi)
        for i in range(t):
            j = rng.randint(i, len(pool) - 1)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:t]
    # Rejection path: expected < 2 draws per kept sample while t <= K/2.
    seen: set[float] = set()
    out: list[float] = []
    while len(out) < t:
        for value in sampler.sample(lo, hi, t - len(out)):
            if value not in seen:
                seen.add(value)
                out.append(value)
    return out
