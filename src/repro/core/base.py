"""Abstract interfaces shared by every range sampler in the library.

A *range sampler* stores a one-dimensional point set and answers
``(interval, t)`` queries with ``t`` independent samples from the points
inside the interval.  Baselines implement the same interface so the
benchmark harness and the statistical test-bench can drive any structure
interchangeably.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable

import numpy as _np

from ..errors import EmptyRangeError, InvalidQueryError

__all__ = [
    "RangeSampler",
    "DynamicRangeSampler",
    "validate_query",
    "validate_ranks",
    "validate_point",
    "round_to_plane",
    "coerce_query_bounds",
    "sample_bulk_many_by_rank",
]

_INF = float("inf")
#: The largest finite float32, and the smallest float64 magnitude that
#: rounds past it to infinity (half an ulp above; the tie rounds to even,
#: which is infinity).
_F32_MAX = float(_np.finfo(_np.float32).max)
_F32_OVERFLOW = _F32_MAX + 2.0**103


def coerce_query_bounds(queries):
    """Return validated ``(los, his)`` arrays for a multi-range probe.

    Shared prelude of every ``peek_counts`` implementation: ``queries`` is
    a sequence of ``(lo, hi)`` pairs, coerced to two float arrays with the
    same NaN / ``lo <= hi`` rules as :func:`validate_query`.
    """
    bounds = _np.asarray(queries, dtype=float).reshape(-1, 2)
    los, his = bounds[:, 0], bounds[:, 1]
    if _np.isnan(los).any() or _np.isnan(his).any() or (los > his).any():
        raise InvalidQueryError("peek_counts requires lo <= hi, non-NaN")
    return los, his


def sample_bulk_many_by_rank(
    queries, seeds, sample_bulk, rank_bounds, take_ranks
) -> list:
    """Shared body of the rank-addressed ``sample_bulk_many`` methods.

    For samplers whose seeded draw is "``t`` uniform ranks from
    :func:`repro.rng.seeded_ranks` over the query's rank interval, mapped
    to values": :class:`~repro.core.static_irs.StaticIRS` and
    :class:`~repro.core.dynamic_irs.DynamicIRS`.  The sampler supplies
    three callables:

    * ``sample_bulk(lo, hi, t, seed=)`` — its bulk path, seeded or not;
    * ``rank_bounds(los, his)`` — ``(starts, ends, frame)``: the rank
      intervals of all ranges at once (float64 bound arrays in) and the
      rank frame they are counted in (``None`` for a flat array, whose
      ranks are global; a chunk directory's
      :meth:`~repro.core.directory.ChunkDirectory.frame` otherwise);
    * ``take_ranks(ranks, counts, frame)`` — the float64 values at the
      concatenated frame ranks of the seeded queries (their sample
      counts alongside).

    :func:`~repro.rng.seeded_ranks` adds a query's start only after
    reducing its draws modulo the width, so ranks drawn in any frame name
    the same points as global ranks would.

    This function owns everything else: validation, seed alignment,
    ``t = 0``, the empty-range check (before any draw, so a failing call
    consumes no randomness), delegating unseeded queries to
    ``sample_bulk`` in input order (the side stream advances exactly as
    per-query calls would), one ``seeded_ranks`` call for all seeded
    queries, and slicing the values back into per-query results.  A
    one-query call is the sampler's own ``sample_bulk(lo, hi, t,
    seed=)``, which returns the same bytes and raises the same errors
    without the batch prelude.
    """
    from ..rng import seeded_ranks

    queries = [(float(lo), float(hi), t) for lo, hi, t in queries]
    if seeds is None:
        seeds = [None] * len(queries)
    elif len(seeds) != len(queries):
        raise InvalidQueryError("seeds must align with queries")
    for lo, hi, t in queries:
        validate_query(lo, hi, t)
    queries = [(lo, hi, int(t)) for lo, hi, t in queries]
    if not queries:
        return []
    if len(queries) == 1:
        lo, hi, t = queries[0]
        return [sample_bulk(lo, hi, t, seed=seeds[0])]
    starts, ends, frame = rank_bounds(
        _np.asarray([q[0] for q in queries], dtype=float),
        _np.asarray([q[1] for q in queries], dtype=float),
    )
    ts = _np.asarray([q[2] for q in queries], dtype=_np.int64)
    if ((ts > 0) & (ends <= starts)).any():
        raise EmptyRangeError("no points inside the query range")
    results: list = [None] * len(queries)
    seeded: list[int] = []
    for i, (lo, hi, t) in enumerate(queries):
        if t == 0:
            results[i] = _np.empty(0, dtype=float)
        elif seeds[i] is None:
            results[i] = sample_bulk(lo, hi, t)
        else:
            seeded.append(i)
    if seeded:
        starts, ends, counts = starts[seeded], ends[seeded], ts[seeded]
        ranks = seeded_ranks([seeds[i] for i in seeded], starts, ends - starts, counts)
        values = take_ranks(ranks, counts, frame)
        at = 0
        for i, t in zip(seeded, counts.tolist()):
            results[i] = values[at : at + t]
            at += t
    return results


def validate_query(lo: float, hi: float, t: int) -> None:
    """Raise :class:`InvalidQueryError` for a malformed ``([lo, hi], t)``.

    ``lo <= hi`` and ``t >= 0`` are required.  ``t == 0`` is legal and must
    return an empty list even on an empty range, mirroring the convention of
    the paper ("extract t samples", with t a nonnegative integer).  ``t``
    follows the rule :func:`validate_ranks` applies to ranks: a Python or
    NumPy integer passes, a bool or a float (integral or not) does not, so
    a count is never truncated.
    """
    if lo != lo or hi != hi:  # NaN check without importing math
        raise InvalidQueryError("interval endpoints must not be NaN")
    if lo > hi:
        raise InvalidQueryError(f"invalid interval: {lo!r} > {hi!r}")
    if isinstance(t, bool) or not isinstance(t, (int, _np.integer)):
        raise InvalidQueryError(f"sample count must be an int, got {t!r}")
    if t < 0:
        raise InvalidQueryError(f"sample count must be >= 0, got {t}")


def validate_ranks(ranks, total: int) -> None:
    """Raise :class:`InvalidQueryError` unless every rank is an int in ``[0, total)``.

    Python and NumPy integers pass; a bool, a float (integral or not, NaN
    included) does not, so a rank is never truncated or wrapped into a
    different point.
    """
    for rank in ranks:
        if isinstance(rank, bool) or not isinstance(rank, (int, _np.integer)):
            raise InvalidQueryError(f"rank must be an int, got {rank!r}")
        if not 0 <= rank < total:
            raise InvalidQueryError(f"rank {rank} outside [0, {total}) for this range")


def validate_point(value: float) -> None:
    """Raise :class:`InvalidQueryError` if a point about to be stored is NaN.

    NaN compares false against everything, so a stored NaN could never be
    counted, sampled by range or deleted again.  NaN sorts last, so for a
    sorted batch checking its last element is enough.
    """
    if value != value:
        raise InvalidQueryError("points must not be NaN")


def round_to_plane(values, dtype, bound: str | None = None):
    """Round points or query bounds through a value-plane dtype.

    Every value entering a structure goes through here before routing or
    comparison, so searches run against exactly the stored bits.  A
    scalar comes back as a Python float (float32 widens exactly); a list,
    tuple or array comes back as an array of the plane dtype.  A float64
    plane is a plain conversion.

    On a float32 plane a finite value beyond its range would round to
    ``±inf``, which is a legal point of its own:

    * a point (``bound=None``) raises :class:`InvalidQueryError`, before
      the caller mutates anything;
    * an upper bound (``bound="hi"``) above the range becomes the largest
      finite float32 and a lower bound (``"lo"``) below it the smallest,
      so a finite bound never selects an infinite point.  A lower bound
      above the range rounds to ``+inf`` and an upper bound below it to
      ``-inf``, which select exactly the infinite points a float64 plane
      would.

    NaN and ``±inf`` pass through unchanged.
    """
    if isinstance(values, (_np.ndarray, list, tuple)):
        if dtype.itemsize == 8:
            return _np.asarray(values, dtype=_np.float64)
        src = _np.asarray(values)
        if src.dtype == _np.float32:
            return src
        src = src.astype(_np.float64, copy=False)
        over = ~(_np.abs(src) < _F32_OVERFLOW) & _np.isfinite(src)
        if over.any():
            if bound is None:
                _overflowed(float(src[over][0]), None)
            up = src > 0
            fix = _np.where(up, _F32_MAX, -_INF) if bound == "hi" else _np.where(
                up, _INF, -_F32_MAX
            )
            src = _np.where(over, fix, src)
        return src.astype(_np.float32)
    value = float(values)
    if dtype.itemsize == 8:
        return value
    if -_F32_OVERFLOW < value < _F32_OVERFLOW:
        return float(_np.float32(value))
    if value != value or value in (_INF, -_INF):
        return value
    return _overflowed(value, bound)


def _overflowed(value: float, bound: str | None) -> float:
    """The float32 stand-in for a finite ``value`` beyond its range."""
    if bound is None:
        raise InvalidQueryError(f"point {value!r} overflows the float32 plane")
    if bound == "hi":
        return _F32_MAX if value > 0 else -_INF
    return _INF if value > 0 else -_F32_MAX


class RangeSampler(ABC):
    """Interface for static independent range sampling structures.

    The four abstract methods below are the required protocol.  The
    engines above this layer additionally duck-type three *optional*
    capabilities, all with library-wide meaning:

    * ``sample_bulk(lo, hi, t, *, seed=None)`` — vectorized ``sample``
      returning a NumPy array; an explicit ``seed`` must make the draws
      a pure function of the seed and the stored points (see
      :func:`repro.rng.generator`).
    * ``sample_bulk_many(queries, *, seeds=None)`` — answer many
      ``(lo, hi, t)`` queries in one call (one scatter round / one
      vectorized pass), results aligned with the input.
    * ``peek_counts(queries)`` — vectorized multi-range count probe.

    :class:`~repro.batch.BatchQueryRunner` and the serving layer use
    whichever of these a structure exposes and fall back to the scalar
    protocol otherwise.
    """

    @abstractmethod
    def __len__(self) -> int:
        """Return the number of stored points."""

    @abstractmethod
    def count(self, lo: float, hi: float) -> int:
        """Return ``|P ∩ [lo, hi]|``."""

    @abstractmethod
    def report(self, lo: float, hi: float) -> list[float]:
        """Return every point in ``[lo, hi]`` in sorted order."""

    @abstractmethod
    def sample(self, lo: float, hi: float, t: int) -> list[float]:
        """Return ``t`` independent uniform samples from ``P ∩ [lo, hi]``.

        Raises :class:`EmptyRangeError` when the range is empty and
        ``t > 0``; returns ``[]`` when ``t == 0``.
        """

    # -- shared conveniences -------------------------------------------------

    def sample_one(self, lo: float, hi: float) -> float:
        """Return a single independent uniform sample from the range."""
        return self.sample(lo, hi, 1)[0]

    def _require_nonempty(self, population: int, t: int) -> bool:
        """Common guard: return True if sampling should short-circuit to []."""
        if t == 0:
            return True
        if population == 0:
            raise EmptyRangeError("no points inside the query range")
        return False


class DynamicRangeSampler(RangeSampler):
    """Interface for samplers that also support insertions and deletions."""

    @abstractmethod
    def insert(self, value: float) -> None:
        """Insert one point (duplicates allowed; multiset semantics)."""

    @abstractmethod
    def delete(self, value: float) -> None:
        """Delete one occurrence of ``value``.

        Raises :class:`~repro.errors.KeyNotFoundError` if absent.
        """

    def insert_many(self, values: Iterable[float]) -> None:
        """Insert every value from an iterable.

        Delegates to the structure's vectorized ``insert_bulk`` when one is
        available (one sort + one deferred directory repair for the whole
        batch); the per-element loop remains only as the fallback for
        structures without a bulk path.
        """
        bulk = getattr(self, "insert_bulk", None)
        if bulk is not None:
            bulk(values)
            return
        for value in values:
            self.insert(value)

    def delete_many(self, values: Iterable[float]) -> None:
        """Delete one occurrence per value from an iterable.

        Delegates to ``delete_bulk`` when available — note the bulk path is
        atomic (a missing value raises *before* any mutation), whereas the
        fallback loop mutates up to the failing element.
        """
        bulk = getattr(self, "delete_bulk", None)
        if bulk is not None:
            bulk(values)
            return
        for value in values:
            self.delete(value)
