"""Static internal-memory IRS — result R1 of the paper.

A sorted array plus two binary searches turns a range-sampling query into
uniform integer generation over a rank interval:

* space ``O(n)``;
* query ``O(log n + t)`` **worst case** — `O(log n)` for the two rank
  searches, then exactly one uniform integer per sample;
* exact uniformity and full independence (every draw is fresh randomness).

The paper treats this as the warm-up solution; here it doubles as the
ground-truth yardstick that every other structure is tested against.

Storage is a single NumPy plane (PR 10): ``dtype=float32`` at
construction halves resident bytes, and ``from_sorted(..., copy=False)``
adopts a caller array zero-copy under the strict contract of
:mod:`repro.core.planes`.  Sampling surfaces return float64 regardless of
the plane dtype (float32 values widen exactly).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as _np

from ..rng import RandomSource, seeded_ranks
from .base import (
    RangeSampler,
    coerce_query_bounds,
    round_to_plane,
    sample_bulk_many_by_rank,
    validate_point,
    validate_query,
    validate_ranks,
)
from .planes import as_plane, resolve_dtype

__all__ = ["StaticIRS"]


class StaticIRS(RangeSampler):
    """Static uniform independent range sampling over a fixed point set.

    Parameters
    ----------
    values:
        The point set (any iterable of floats; duplicates allowed).
    seed:
        Seed for the sampler's private random stream.
    dtype:
        Storage-plane dtype (``float32`` or ``float64``); ``None`` keeps a
        float32/float64 ndarray input's dtype and defaults everything else
        to float64.
    """

    def __init__(
        self, values: Iterable[float], seed: int | None = None, *, dtype=None
    ) -> None:
        resolved = resolve_dtype(values, dtype)
        if not isinstance(values, _np.ndarray):
            values = list(values)
        data = _np.sort(round_to_plane(values, resolved))
        if data.size:
            validate_point(data[-1])
        self._init_from_sorted(data, seed)

    @classmethod
    def from_sorted(
        cls,
        values: Iterable[float],
        seed: int | None = None,
        *,
        dtype=None,
        copy: bool = True,
    ) -> "StaticIRS":
        """O(n) fast constructor over already-sorted input (skips the sort).

        The input is verified nondecreasing in ``O(n)`` (one vectorized
        pass); :class:`ValueError` is raised otherwise.  ``copy=False``
        adopts a caller ndarray zero-copy under the strict contract of
        :func:`repro.core.planes.as_plane` (the structure never mutates
        it; mutating it afterwards is undefined behavior).
        """
        self = cls.__new__(cls)
        self._init_from_sorted(as_plane(values, dtype=dtype, copy=copy), seed)
        return self

    def _init_from_sorted(self, data, seed: int | None) -> None:
        self._data = data
        self._dtype = data.dtype
        self._rng = RandomSource(seed)
        # NumPy side stream for the bulk path, spawned lazily on the first
        # sample_bulk call so scalar-only users never pay for it.
        self._bulk_gen = None

    # -- bookkeeping -----------------------------------------------------------

    def __len__(self) -> int:
        return int(self._data.size)

    @property
    def dtype(self):
        """The storage-plane dtype (``float32`` or ``float64``)."""
        return self._dtype

    @property
    def plane_nbytes(self) -> int:
        """Resident bytes of the storage plane."""
        return int(self._data.nbytes)

    @property
    def values(self) -> Sequence[float]:
        """The stored points in sorted order (read-only view by convention)."""
        return self._data

    def rank_range(self, lo: float, hi: float) -> tuple[int, int]:
        """Return the half-open rank interval ``[a, b)`` of points in range."""
        validate_query(lo, hi, 0)
        lo = round_to_plane(lo, self._dtype, "lo")
        hi = round_to_plane(hi, self._dtype, "hi")
        return (
            int(_np.searchsorted(self._data, lo, side="left")),
            int(_np.searchsorted(self._data, hi, side="right")),
        )

    def count(self, lo: float, hi: float) -> int:
        a, b = self.rank_range(lo, hi)
        return b - a

    def peek_counts(self, queries):
        """Vectorized multi-range count: one ``searchsorted`` per bound set.

        ``queries`` is a sequence of ``(lo, hi)`` pairs; the result is a
        NumPy ``int64`` array of ``|P ∩ [lo, hi]|`` aligned with the input.
        This is the count-probe primitive the shard planner batches across
        shards, and what :meth:`repro.batch.BatchQueryRunner.run_counts`
        uses for count-only workloads — ``O(q log n)`` total with the two
        binary-search passes done in C.
        """
        starts, ends, _frame = self._rank_bounds(*coerce_query_bounds(queries))
        return ends - starts

    def _rank_bounds(self, los, his):
        """Global rank intervals ``[start, end)`` of many ranges: two ``searchsorted``.

        The frame is ``None``: ranks into the flat plane are global.
        """
        # Round the bounds through the plane dtype and keep them there:
        # float32 needles against the float32 plane avoid the O(n)
        # promotion copy a float64 needle array would force.
        los = round_to_plane(los, self._dtype, "lo")
        his = round_to_plane(his, self._dtype, "hi")
        arr = self._data
        return (
            _np.searchsorted(arr, los, side="left"),
            _np.searchsorted(arr, his, side="right"),
            None,
        )

    def _take_ranks(self, ranks, counts, frame):
        """Values at global ranks (the seeded batch path's gather)."""
        return self._data[ranks].astype(_np.float64, copy=False)

    def _export_array(self):
        """Return the storage plane itself (read-only by convention)."""
        return self._data

    def export_sorted(self):
        """Return the sorted points as a NumPy array (shard-engine hook).

        The returned array is the structure's own storage plane — callers
        must treat it as read-only.
        """
        return self._data

    def report(self, lo: float, hi: float) -> list[float]:
        a, b = self.rank_range(lo, hi)
        return self._data[a:b].tolist()

    # -- sampling ---------------------------------------------------------------

    def sample(self, lo: float, hi: float, t: int) -> list[float]:
        validate_query(lo, hi, t)
        a, b = self.rank_range(lo, hi)
        if self._require_nonempty(b - a, t):
            return []
        data = self._data
        width = b - a
        randbelow = self._rng.randbelow_fn(t)
        return [float(data[a + randbelow(width)]) for _ in range(t)]

    def sample_ranks(self, lo: float, hi: float, t: int) -> list[int]:
        """Like :meth:`sample` but return global ranks instead of values.

        Ranks identify points uniquely even under duplicate values, which the
        without-replacement wrapper relies on.
        """
        validate_query(lo, hi, t)
        a, b = self.rank_range(lo, hi)
        if self._require_nonempty(b - a, t):
            return []
        width = b - a
        randrange = self._rng.randrange
        return [a + randrange(width) for _ in range(t)]

    def sample_bulk(self, lo: float, hi: float, t: int, *, seed=None):
        """Vectorized :meth:`sample` returning a float64 NumPy array.

        This is the path heavy-traffic consumers (online aggregation, the
        batch engine) use; semantics are identical to :meth:`sample` but
        the randomness comes from a NumPy side stream spawned once via
        :meth:`RandomSource.spawn_numpy`, so draw accounting differs from
        the scalar path: bulk draws are not counted per element.  An
        explicit ``seed`` makes the call *seed-addressable* instead: the
        draws are a pure function of the seed and the stored points
        (counter-based, see :func:`repro.rng.seeded_ranks`), identical no
        matter what ran before — the serving layer's reproducibility
        contract.

        Cost is ``O(log n + t)`` per call — two bisects plus one vectorized
        gather against the storage plane.
        """
        validate_query(lo, hi, t)
        a, b = self.rank_range(lo, hi)
        if self._require_nonempty(b - a, t):
            return _np.empty(0, dtype=float)
        if seed is not None:
            ranks = seeded_ranks([seed], [a], [b - a], [t])
        else:
            if self._bulk_gen is None:
                self._bulk_gen = self._rng.spawn_numpy()
            ranks = self._bulk_gen.integers(a, b, size=t)
        return self._data[ranks].astype(_np.float64, copy=False)

    def sample_bulk_many(self, queries, *, seeds=None) -> list:
        """Answer many ``(lo, hi, t)`` queries in one vectorized pass.

        The whole batch resolves with two ``searchsorted`` calls over all
        bounds; seeded queries (``seeds[i] is not None``) then draw *all*
        their ranks together through the counter-based
        :func:`repro.rng.seeded_ranks` — per-query cost is a few array
        slots, not a generator and a call.  This is what lets the serving
        layer amortize a coalesced batch of small sample requests into
        near-flat bulk work.  Unseeded queries delegate to
        :meth:`sample_bulk` one by one, preserving the side stream's
        draw-for-draw behavior.

        Results align with the input order; per-query distribution — and,
        for seeded queries, the exact draws — are identical to calling
        :meth:`sample_bulk` per query.
        """
        return sample_bulk_many_by_rank(
            queries, seeds, self.sample_bulk, self._rank_bounds, self._take_ranks
        )

    def value_at_rank(self, rank: int) -> float:
        """Return the point with the given global rank (0-based).

        Raises :class:`~repro.errors.InvalidQueryError` unless ``rank`` is
        an int in ``[0, n)``.
        """
        validate_ranks((rank,), self._data.size)
        return float(self._data[rank])
