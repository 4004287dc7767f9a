"""Dynamic internal-memory IRS — result R2 of the paper (reconstruction).

Guarantees (matching the published bounds of Hu–Qiao–Tao, PODS 2014):

* space ``O(n)``;
* query ``O(log n + t)`` — ``O(log n)`` setup, then ``O(1)`` *expected*
  per sample (exact uniformity, rejection-based);
* update ``O(log n)`` amortized.

Design (see DESIGN.md §2.2 for the full analysis).  Points live in sorted
*chunks* of size ``s .. 2s`` with ``s = Θ(log n)``.  The chunk directory is
the shared **slab-backed engine** of :mod:`repro.core.directory`
(DESIGN.md §8): every chunk is one row of a 2-D slab, and parallel arrays
(``row_of``, ``maxes``, ``mins``, ``counts``) describe the chunks in key
order —

* boundary chunks of a query are found with one C-level ``searchsorted``
  per endpoint (the ``maxes`` array is nondecreasing, so "first chunk whose
  max ≥ lo" is a binary search — duplicates across chunks are harmless);
* the number of points in a run of whole chunks is one C-level sum over
  its ``counts``, so counting and the unseeded plan never read a prefix
  and a write leaves them nothing to rebuild;
* the middle run of a query occupies a *contiguous index window* of the
  chunk list, so "uniform (chunk, slot) pair, accept slot < |chunk|"
  samples an in-range point exactly uniformly with acceptance ≥ 1/2 —
  the density-bounded window the paper gets from a packed-memory array
  is the slab itself, and an accepted pair is one gather out of it;
* seeded sampling (``sample_bulk(seed=)`` and ``sample_bulk_many``)
  draws ranks instead — the law of ``StaticIRS``, so a seeded reply
  never depends on the chunk layout (DESIGN.md §5) — and resolves them
  in a *rank frame*: an int64 ``cumsum`` over the counts of just the
  chunks the read's ranges span, or the whole-directory prefix when it
  is cached.  The prefix is a plain cache that every count change
  empties; the rank readers (these, ``peek_counts``, ``report`` and
  ``select_in_range``) frame their own chunks while it is cold and buy
  it once the chunks they framed since the last count change add up to
  the directory's size, so a read right after a write pays for its
  range and a structure that is only read keeps one warm prefix.

No read or update path loops over chunks in Python: a scalar update
shifts one row in place, a bulk update is one pass over the touched rows,
and every multi-chunk read is one gather or one ``k × cap`` compare over
the slab, with the hot loops in :mod:`repro.core.kernels` (DESIGN.md
§13).  All randomness (the bulk side stream, the seeded counter-based
ranks, the scalar stream's draw order) and all accounting stay in this
driver; the kernels are pure array functions.

Storage is dtype-generic: ``dtype=float32`` at construction halves
resident bytes, with every value coerced through the plane dtype on the
way in (:func:`~repro.core.base.round_to_plane`) so routing, equality,
and sortedness are computed on exactly the stored representation.
Sampling and export surfaces return float64 (float32 values widen
exactly).  ``from_sorted`` validates its input and copies it once,
straight into the slab.

Global rebuilds keep ``s`` in step with ``log n``: the structure is rebuilt
whenever ``n`` drifts outside ``[n0/2, 2·n0]``, which is amortized ``O(1)``
per update.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as _np

from ..errors import InvalidQueryError, KeyNotFoundError
from ..rng import RandomSource, seeded_ranks
from ..types import QueryStats
from .base import (
    DynamicRangeSampler,
    coerce_query_bounds,
    round_to_plane,
    sample_bulk_many_by_rank,
    validate_point,
    validate_query,
    validate_ranks,
)
from .directory import ChunkDirectory
from . import kernels
from .planes import as_plane, resolve_dtype

__all__ = ["DynamicIRS"]

_MIN_CHUNK = 8
#: Middle runs at most this many chunks wide are resolved through a
#: prefix-sum table instead of sampled by rejection (see ``_narrow``).
_NARROW = 24
#: Batches at or below this size take the scalar update loop — the
#: vectorized prelude's fixed cost only amortizes above it.
_BULK_CUTOFF = 16


def _narrow(width: int, t: int) -> bool:
    """Whether a middle run of ``width`` chunks is resolved by rank.

    A prefix-sum table over the run costs ``O(width)`` once and makes
    every middle sample one C-level bisect, so it is used whenever the
    run fits the query's ``O(log n + t)`` budget — the run is narrow or
    ``width <= 2t`` (the table is amortized by the samples themselves).
    Wider middles are sampled by ``O(1)``-expected rejection over the
    ``(chunk, slot)`` grid of the index window.  The rule decides how many
    draws the scalar and bulk streams consume, so it depends only on the
    structure and ``t``.
    """
    return width <= max(_NARROW, 2 * t)


class DynamicIRS(DynamicRangeSampler):
    """Dynamic uniform independent range sampling (multiset of floats).

    Parameters
    ----------
    values:
        Initial point set.
    seed:
        Seed of the private random stream.
    chunk_scale:
        Multiplier on the ``Θ(log n)`` chunk size — exposed for the ablation
        experiment F10; leave at 1.0 for normal use.
    dtype:
        Value-plane dtype (``float32`` or ``float64``).  ``None`` keeps a
        float32/float64 ndarray input's dtype and defaults everything else
        to float64.
    """

    def __init__(
        self,
        values: Iterable[float] = (),
        seed: int | None = None,
        chunk_scale: float = 1.0,
        *,
        dtype=None,
    ) -> None:
        self._init_common(seed, chunk_scale, resolve_dtype(values, dtype))
        if not isinstance(values, _np.ndarray):
            values = list(values)
        data = _np.sort(round_to_plane(values, self._dtype))
        if data.size:
            validate_point(data[-1])
        self._build(data)

    @classmethod
    def from_sorted(
        cls,
        values: Iterable[float],
        seed: int | None = None,
        chunk_scale: float = 1.0,
        *,
        dtype=None,
    ) -> "DynamicIRS":
        """O(n) fast constructor over already-sorted input.

        Skips the ``O(n log n)`` sort of ``__init__``; the input is verified
        nondecreasing in ``O(n)`` (one vectorized pass) and a
        :class:`ValueError` is raised otherwise.  The points are copied
        once, straight into the slab, so the structure never aliases the
        caller's array.
        """
        self = cls.__new__(cls)
        arr = as_plane(values, dtype=dtype, copy=None)
        self._init_common(seed, chunk_scale, arr.dtype)
        self._build(arr)
        return self

    def _init_common(self, seed: int | None, chunk_scale: float, dtype) -> None:
        self._rng = RandomSource(seed)
        self._chunk_scale = chunk_scale
        self.stats = QueryStats()
        self._bulk_gen = None  # lazily-spawned NumPy side stream (sample_bulk)
        self._dtype = _np.dtype(dtype)
        self._dir = ChunkDirectory(self._dtype)

    # -- construction / rebuild ------------------------------------------------

    def _build(self, data) -> None:
        """(Re)build the slab and directory from sorted points."""
        self._n = int(data.size)
        self._n0 = max(self._n, 1)
        raw = self._chunk_scale * max(1.0, math.log2(self._n0 + 2))
        self._s = max(_MIN_CHUNK, int(raw))
        self._cap = 2 * self._s
        self._dir.load(data, None, self._s, self._cap)

    def _maybe_rebuild(self) -> None:
        if self._n > 2 * self._n0 or (self._n0 > _MIN_CHUNK and 2 * self._n < self._n0):
            self._build(self.export_sorted())

    # -- basic accessors ----------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def dtype(self):
        """The value-plane dtype (``float32`` or ``float64``)."""
        return self._dtype

    @property
    def plane_nbytes(self) -> int:
        """Logical bytes of the stored values (``n × itemsize``)."""
        return self._n * self._dtype.itemsize

    @property
    def chunk_size_bounds(self) -> tuple[int, int]:
        """Current ``(s, 2s)`` chunk-size window (changes on rebuilds)."""
        return self._s, self._cap

    def values(self) -> list[float]:
        """Return every stored point in sorted order (``O(n)``)."""
        return self.export_sorted().tolist()

    def __contains__(self, value: float) -> bool:
        try:
            self._dir.locate(round_to_plane(value, self._dtype))
        except (InvalidQueryError, KeyNotFoundError):  # beyond the plane, or absent
            return False
        return True

    # -- scalar updates --------------------------------------------------------------

    def insert(self, value: float) -> None:
        """Insert one point in ``O(log n)`` amortized time.

        The route (one binary search over ``maxes``) and the in-row
        position search are two kernel calls; the row's tail then shifts
        one cell in place (:meth:`ChunkDirectory.insert
        <repro.core.directory.ChunkDirectory.insert>`).
        """
        value = round_to_plane(value, self._dtype)
        validate_point(value)
        if not self._n:
            self._build(_np.asarray([value], dtype=self._dtype))
            return
        self._dir.insert(value)
        self._n += 1
        self._maybe_rebuild()

    def delete(self, value: float) -> None:
        """Delete one occurrence of ``value`` in ``O(log n)`` amortized time."""
        self._dir.delete(round_to_plane(value, self._dtype), self._s)
        self._n -= 1
        self._maybe_rebuild()

    # -- bulk updates -----------------------------------------------------------------

    def insert_bulk(self, values: Iterable[float]) -> None:
        """Insert a whole batch with one deferred directory repair.

        The batch is sorted once, routed to its target chunks with a
        single vectorized ``searchsorted``, and merged into all touched
        rows in one pass (stable, stored elements first on ties); the rows
        are written back and over-full ones re-split in one assembly pass
        (:meth:`ChunkDirectory.merge
        <repro.core.directory.ChunkDirectory.merge>`) —
        ``O(b log b + touched·s)`` for a batch of ``b`` instead of ``b``
        separate ``O(log n)`` update paths.  The global-rebuild check is
        hoisted: a batch that would push ``n`` past ``2·n0`` rebuilds
        wholesale *before* routing (the only way an insert batch can trip
        it), so no trailing ``_maybe_rebuild`` is needed.
        """
        if not isinstance(values, _np.ndarray):
            values = list(values)
        batch = round_to_plane(values, self._dtype)
        if batch.size <= _BULK_CUTOFF:
            # Below the cutoff the vectorized prelude (searchsorted, row
            # gather, write-back) costs more than the scalar loop.
            for value in batch.tolist():
                validate_point(value)
            for value in batch.tolist():
                self.insert(value)
            return
        # Stable sorts: equal values keep their input order, and stored
        # points stay before new ones (``-0.0 == 0.0`` differ in bytes).
        batch = _np.sort(batch, kind="stable")
        validate_point(batch[-1])
        if self._n == 0:
            self._build(batch)
            return
        if self._n + batch.size > 2 * self._n0:
            # The batch alone crosses the global-rebuild threshold: merge
            # into one sorted array and rebuild wholesale — amortized O(1)
            # per element, and it picks the right chunk size for the new n
            # immediately.
            merged = _np.concatenate((self.export_sorted(), batch))
            self._build(_np.sort(merged, kind="stable"))
            return
        self._dir.merge(batch)
        self._n += int(batch.size)

    def delete_bulk(self, values: Iterable[float]) -> None:
        """Delete one occurrence per batch value with one deferred repair.

        Atomic: if any value is absent the structure is left untouched and
        :class:`~repro.errors.KeyNotFoundError` is raised.  The batch is
        sorted once, routed with one vectorized ``searchsorted`` and found
        in the touched rows — all before anything changes
        (:meth:`ChunkDirectory.remove
        <repro.core.directory.ChunkDirectory.remove>`); the hits then leave
        the rows in one pass, under-full chunks are repaired in one
        normalization pass, and one ``_maybe_rebuild`` check follows.
        """
        if not isinstance(values, _np.ndarray):
            values = list(values)
        batch = _np.sort(round_to_plane(values, self._dtype))
        if not batch.size:
            return
        self._dir.remove(batch, self._s)
        self._n -= int(batch.size)
        self._maybe_rebuild()

    # -- queries ------------------------------------------------------------------------

    def count(self, lo: float, hi: float) -> int:
        """Return ``|P ∩ [lo, hi]|``.

        Two boundary chunks and their in-row offsets, plus one C-level sum
        over the counts of the whole chunks between them
        (:meth:`ChunkDirectory.points_in
        <repro.core.directory.ChunkDirectory.points_in>`): ``O(log n)``
        searches and a sum over the ``k ≤ n/s`` chunks the range spans.
        It reads no prefix, so a count right after an update rebuilds
        nothing.
        """
        validate_query(lo, hi, 0)
        return self._dir.points_in(
            round_to_plane(lo, self._dtype, "lo"), round_to_plane(hi, self._dtype, "hi")
        )

    def peek_counts(self, queries):
        """Vectorized multi-range count over the chunk directory.

        ``queries`` is a sequence of ``(lo, hi)`` pairs; the result is a
        NumPy ``int64`` array of in-range counts aligned with the input:
        the widths of the ranges' global rank intervals
        (:meth:`ChunkDirectory.rank_bounds
        <repro.core.directory.ChunkDirectory.rank_bounds>` — one
        ``searchsorted`` over ``maxes`` and one over ``mins`` for *all*
        bounds, one ``k × cap`` compare for every in-chunk offset, and the
        rank frame for each boundary chunk's first rank), ``O(q log n)``
        in total once the whole prefix is cached, and otherwise one
        ``cumsum`` over the chunks the ranges span.
        """
        starts, ends, _frame = self._rank_bounds(*coerce_query_bounds(queries))
        return ends - starts

    def _rank_bounds(self, los, his):
        """Rank intervals and frame of many ranges (bounds rounded to the plane)."""
        return self._dir.rank_bounds(
            round_to_plane(los, self._dtype, "lo"),
            round_to_plane(his, self._dtype, "hi"),
        )

    def _take_ranks(self, ranks, counts, frame):
        """Values at the seeded queries' frame ranks (see :meth:`sample_bulk`).

        Each rank resolves to its ``(chunk, offset)`` with one
        ``searchsorted`` over the frame, and all values come out of the
        slab in one gather.
        """
        self.stats.queries += int(counts.size)
        self.stats.samples_returned += int(ranks.size)
        return self._values_at(ranks, frame)

    def export_sorted(self):
        """Return every stored point as a sorted NumPy array (shard hook).

        ``O(n)`` — one gather of the slab's live cells in the structure's
        dtype; the result is freshly assembled, so callers own it.
        """
        return self._dir.gather()[0]

    def report(self, lo: float, hi: float) -> list[float]:
        validate_query(lo, hi, 0)
        starts, ends, frame = self._rank_bounds(_np.asarray([lo]), _np.asarray([hi]))
        return self._values_at(_np.arange(starts[0], ends[0]), frame).tolist()

    def _values_at(self, ranks, frame):
        """float64 values at ``frame``'s ``ranks``: one locate, one slab gather."""
        rows, off = self._dir.cells(ranks, frame)
        return self._dir.slab[rows, off].astype(float)

    def _plan(self, lo: float, hi: float):
        """Resolve a range into ``(K, a, la, k_left, k_mid, b, k_right)``.

        Returns ``None`` for an empty range.  ``a``/``b`` are the boundary
        chunk indices; the middle run is the index window ``[a+1, b-1]``.
        The single-chunk case is encoded entirely in the "left" fields with
        ``a == b``.

        Bounds are coerced through the plane dtype first (identity for
        float64): every in-chunk comparison then runs against values that
        are exactly representable in the plane, so routing over the
        float64 directory arrays and the searches inside a float32 plane
        agree on which points are in range.
        """
        directory = self._dir
        edges = directory.edges(
            round_to_plane(lo, self._dtype, "lo"), round_to_plane(hi, self._dtype, "hi")
        )
        if edges is None:
            return None
        a, la, b, k_right = edges
        if a == b:
            if k_right <= la:
                return None
            return k_right - la, a, la, k_right - la, 0, b, 0
        k_left = int(directory.counts[a]) - la
        k_mid = directory.points_between(a, b)
        total = k_left + k_mid + k_right
        if total == 0:
            return None
        return total, a, la, k_left, k_mid, b, k_right

    def sample(self, lo: float, hi: float, t: int) -> list[float]:
        """Return ``t`` independent uniform samples from ``P ∩ [lo, hi]``."""
        validate_query(lo, hi, t)
        plan = self._plan(lo, hi)
        if self._require_nonempty(0 if plan is None else plan[0], t):
            return []
        total, a, la, k_left, k_mid, b, k_right = plan
        directory = self._dir
        stats = self.stats
        stats.queries += 1
        stats.samples_returned += t
        randbelow = self._rng.randbelow_fn(t)
        out: list[float] = []
        append = out.append
        narrow = None  # the middle's mode, decided on its first draw
        left = directory.row(a)
        right = directory.row(b) if b != a else None
        k_lm = k_left + k_mid
        for _ in range(t):
            r = randbelow(total)
            if r < k_left:
                append(float(left[la + r]))
            elif r < k_lm:
                if narrow is None:
                    narrow = _narrow(b - a - 1, t)
                    if narrow:
                        cum = _np.cumsum(directory.counts[a + 1 : b])
                if narrow:
                    rank = r - k_left
                    i = kernels.search_right_scalar(cum, rank)
                    prev = int(cum[i - 1]) if i else 0
                    append(float(directory.row(a + 1 + i)[rank - prev]))
                else:
                    append(self._reject_draw(a + 1, b - 1, randbelow))
            else:
                append(float(right[r - k_lm]))
        return out

    def _reject_draw(self, mid_lo: int, mid_hi: int, randbelow) -> float:
        """Draw one uniform point of the middle run by rejection.

        One draw per probe: a uniform integer over ``window × cap`` encodes
        the chunk (quotient) and the slot (remainder) at once — per-point
        probability is ``1/(window·cap)``, exactly uniform conditional on
        acceptance, which is at least 1/2.
        """
        cap = self._cap
        span = (mid_hi - mid_lo + 1) * cap
        directory = self._dir
        counts = directory.counts
        while True:
            draw = randbelow(span)
            c = mid_lo + draw // cap
            slot = draw % cap
            if slot < counts[c]:
                return float(directory.slab[directory.row_of[c], slot])
            self.stats.rejections += 1

    def sample_bulk(self, lo: float, hi: float, t: int, *, seed=None):
        """Vectorized :meth:`sample` returning a float64 NumPy array.

        Semantics match :meth:`sample` (``t`` independent uniform samples),
        but the randomness comes from a NumPy side stream spawned once via
        :meth:`RandomSource.spawn_numpy`, so draw accounting differs from
        the scalar path (bulk draws are not counted per element).

        The query plan's three-way split is resolved vectorized: one batch
        of uniform ranks in ``[0, K)``, boolean masks for the left/middle/
        right parts, and gathers out of the slab.  Wide middles fall back
        to the same index-window rejection scheme as the scalar path, with
        the accept/reject scan run as one kernel call per draw batch — all
        draws are generated *here*, in draw order, so the stream position
        after the call is the scalar loop's.

        An explicit ``seed`` makes the call *seed-addressable* instead:
        ``t`` uniform ranks from :func:`repro.rng.seeded_ranks` over the
        range's rank interval, mapped to values through the rank frame of
        the chunks it spans — the law of :meth:`StaticIRS.sample_bulk
        <repro.core.static_irs.StaticIRS.sample_bulk>`, so the reply is a
        pure function of the seed and the stored multiset, whatever the
        chunk layout (:meth:`sample_bulk_many` answers the same draw for
        many queries at once).
        """
        validate_query(lo, hi, t)
        plan = self._plan(lo, hi)
        if self._require_nonempty(0 if plan is None else plan[0], t):
            return _np.empty(0, dtype=float)
        total, a, la, k_left, k_mid, b, k_right = plan
        directory = self._dir
        if seed is not None:
            frame = directory.frame(a, b)
            start = int(directory.starts_at(a, frame)) + la
            ranks = seeded_ranks([seed], [start], [total], [t])
            return self._take_ranks(ranks, _np.asarray([t]), frame)
        stats = self.stats
        stats.queries += 1
        stats.samples_returned += t
        if self._bulk_gen is None:
            self._bulk_gen = self._rng.spawn_numpy()
        gen = self._bulk_gen
        ranks = gen.integers(0, total, size=t)
        out = _np.empty(t, dtype=float)
        k_lm = k_left + k_mid
        left_mask = ranks < k_left
        right_mask = ranks >= k_lm
        if left_mask.any():
            out[left_mask] = directory.row(a)[la + ranks[left_mask]]
        if right_mask.any():
            out[right_mask] = directory.row(b)[ranks[right_mask] - k_lm]
        mid_mask = ~(left_mask | right_mask)
        n_mid = int(mid_mask.sum())
        if n_mid:
            out[mid_mask] = self._middle_bulk(
                a + 1, b - 1, ranks[mid_mask] - k_left, n_mid, gen, stats
            )
        return out

    def sample_bulk_many(self, queries, *, seeds=None) -> list:
        """Answer many ``(lo, hi, t)`` queries in one vectorized pass.

        The seeded queries (``seeds[i] is not None``) of the whole batch
        resolve together: one ``searchsorted`` over ``maxes`` and one over
        ``mins`` for all bounds, one :func:`repro.rng.seeded_ranks` call,
        one rank-resolution pass over the batch's rank frame
        (:meth:`ChunkDirectory.frame
        <repro.core.directory.ChunkDirectory.frame>`), then one slab
        gather.  Unseeded queries delegate to :meth:`sample_bulk` one by
        one, in input order, preserving the side stream's draw-for-draw
        behavior, and a one-query call is :meth:`sample_bulk` itself.

        Results align with the input order and equal per-query
        :meth:`sample_bulk` calls exactly — seeded replies are also
        byte-equal to :class:`~repro.core.static_irs.StaticIRS` over the
        same multiset.
        """
        return sample_bulk_many_by_rank(
            queries, seeds, self.sample_bulk, self._rank_bounds, self._take_ranks
        )

    def _middle_bulk(
        self,
        mid_lo: int,
        mid_hi: int,
        mid_ranks,
        count: int,
        gen,
        stats: QueryStats,
    ):
        """Resolve middle-run ranks (narrow runs) or draw fresh middle
        points by rejection (wide runs) for :meth:`sample_bulk`."""
        directory = self._dir
        slab, row_of, counts = directory.slab, directory.row_of, directory.counts
        if _narrow(mid_hi - mid_lo + 1, count):
            cum = _np.cumsum(counts[mid_lo : mid_hi + 1])
            idx = kernels.search_right(cum, mid_ranks)
            offsets = mid_ranks - (cum[idx] - counts[mid_lo + idx])
            return slab[row_of[mid_lo + idx], offsets]
        # Rejection: the in-range rank of a middle sample is irrelevant
        # (each middle hit just needs a fresh uniform middle point), so
        # draw batches of chunk/slot codes and keep the accepted ones.  The
        # accept/reject scan is one kernel call per batch with the exact
        # sequential consumed/rejected accounting of the scalar loop, and
        # the accepted pairs come out of the slab in one gather.
        cap = self._cap
        span = (mid_hi - mid_lo + 1) * cap
        out = _np.empty(count, dtype=float)
        filled = 0
        while filled < count:
            codes = gen.integers(0, span, size=2 * (count - filled) + 8)
            cells, slots, consumed = kernels.rejection_split(
                codes, counts, mid_lo, cap, count - filled
            )
            got = int(cells.size)
            stats.rejections += consumed - got
            out[filled : filled + got] = slab[row_of[mid_lo + cells], slots]
            filled += got
        return out

    def select_in_range(self, lo: float, hi: float, ranks: list[int]) -> list[float]:
        """Return the values at the given in-range ranks (0 = smallest).

        ``ranks`` need not be sorted or distinct; each must be an int in
        ``[0, count)`` (:func:`~repro.core.base.validate_ranks`), or
        :class:`~repro.errors.InvalidQueryError` is raised.  Cost is
        ``O(log n + t log(n/s))`` once the count prefix is cached, plus
        one ``cumsum`` over the range's chunks while it is not: the
        range's first rank comes from the plan and its rank frame, and
        all requested ranks resolve through the frame and come out of the
        slab in one gather.  This is the primitive behind exact
        without-replacement sampling on the dynamic structure: ranks
        identify points uniquely even when values repeat.
        """
        validate_query(lo, hi, 0)
        plan = self._plan(lo, hi)
        validate_ranks(ranks, plan[0] if plan is not None else 0)
        if not len(ranks):
            return []
        _total, a, la, _k_left, _k_mid, b, _k_right = plan
        frame = self._dir.frame(a, b)
        start = int(self._dir.starts_at(a, frame)) + la
        wanted = start + _np.asarray(ranks, dtype=_np.int64)
        return self._values_at(wanted, frame).tolist()

    def kth_in_range(self, lo: float, hi: float, k: int) -> float:
        """Return the ``k``-th smallest point of ``P ∩ [lo, hi]`` (0-based)."""
        return self.select_in_range(lo, hi, [k])[0]

    def sample_without_replacement(self, lo: float, hi: float, t: int) -> list[float]:
        """Return a uniform ``t``-subset of ``P ∩ [lo, hi]`` (random order).

        Exact for multisets: Floyd's algorithm draws distinct in-range
        *ranks*, which :meth:`select_in_range` resolves in one gather.
        """
        from .without_replacement import sample_ranks_without_replacement

        validate_query(lo, hi, t)
        total = self.count(lo, hi)
        if self._require_nonempty(total, t):
            return []
        ranks = sample_ranks_without_replacement(self._rng, 0, total, t)
        return self.select_in_range(lo, hi, ranks)

    # -- validation (used by tests) -----------------------------------------------------

    def check_invariants(self) -> None:
        """Assert every structural invariant; ``O(n)``, tests only."""
        self._dir.check(self._s, self._n)
        assert self._dir.slab.dtype == self._dtype, "plane dtype drift"
        assert self._dir.cap == self._cap, "slab rows not cap wide"
