"""Weighted *dynamic* IRS — extension X2 (beyond the paper).

The PODS'14 paper leaves the dynamic weighted problem open; the follow-up
line of work (Afshani–Wei and later) treats it as the natural next step.
This structure fills that slot with the best bound simple machinery gives:

* space ``O(n)``;
* update ``O(log n)`` amortized search work plus the same amortized
  ``O(n/log² n)`` array-move term as
  :class:`~repro.core.dynamic_irs.DynamicIRS` (the two share one chunk
  directory engine — DESIGN.md §8);
* query ``O(log n)`` setup plus ``O(log n)`` **worst case** per sample —
  each draw is two cumulative-weight binary searches (chunk, then
  in-chunk).  Exact proportional probabilities and full independence.

Why not ``O(log n + t)``?  With arbitrary real weights the rejection trick
that powers the unweighted structure loses its constant acceptance bound (a
chunk's weight can exceed its neighbors' by any factor), and alias tables
cannot be maintained under updates without the Hagerup–Mehlhorn–Munro
machinery per canonical range.  ``O(log n)`` per sample matches what the
2014-era state of the art achieved dynamically and is the honest comparison
point; experiment T2's dynamic column tracks it.

Design (DESIGN.md §8).  Points live in sorted chunks of ``Θ(log n)``
values with an aligned *weight plane*: each
:class:`~repro.core.directory.WeightedChunk` keeps a NumPy value plane
(float32 or float64, chosen at construction — weights are always
float64), an aligned weight plane, and a lazy in-chunk cumulative weight
table; the shared :class:`~repro.core.directory.ChunkDirectory` adds a
per-chunk total-mass array (``wtotals``) with a lazily cached
cumulative-weight prefix (pending per-chunk deltas, exactly like the
count prefix).  A query:

1. resolves boundary runs and their masses from the chunks' cumulative
   tables and the whole-chunk middle mass from the weight prefix;
2. draws ``u`` uniform in ``[0, w(range))``;
3. routes ``u`` to the left run, the middle, or the right run; a middle
   draw is **two** cumulative binary searches — chunk by cumulative mass
   (one ``searchsorted`` over the weight prefix), then point by the
   chunk's own weight table.

Hot loops are calls into :mod:`repro.core.kernels` (DESIGN.md §13):
scalar splices, the two-plane bulk merge, bulk take-out, cumulative
tables and every cumulative-search draw are single kernel calls.  All
randomness and all float *accounting* (``fsum`` run masses, the
sequential removed-mass sums) stay in this driver.  Query bounds and
stored values are coerced through the value-plane dtype on entry, so
every comparison runs against exactly the stored representation.

``sample_bulk`` vectorizes both passes, and for heavy batches flattens the
per-chunk tables into one *global* cumulative-weight array (cached across
queries, invalidated by the directory's mutation stamp) so every middle
draw is one fused cumulative-search kernel call — no per-sample descent
of any kind.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

import numpy as _np

from ..errors import EmptyRangeError, InvalidWeightError, KeyNotFoundError
from ..rng import RandomSource
from ..rng import generator as _generator
from ..types import QueryStats
from .base import coerce_query_bounds, validate_point, validate_query
from .directory import ChunkDirectory
from .directory import WeightedChunk as _WChunk
from . import kernels
from .planes import as_plane, resolve_dtype

__all__ = ["WeightedDynamicIRS"]

_MIN_CHUNK = 8
#: Batches at or below this size take the scalar update loop.
_BULK_CUTOFF = 16
#: Middle-draw batches at least this large amortize (re)building the
#: flattened global cumulative-weight array when it is stale.
_FLAT_MIN = 2048


class WeightedDynamicIRS:
    """Dynamic weighted independent range sampling (multiset of floats).

    Points are inserted with positive finite weights; ``sample`` draws each
    result with probability exactly proportional to weight within the query
    range, independently of everything drawn before.  ``dtype`` selects the
    value-plane precision (``float32`` or ``float64``); the weight plane is
    always float64.
    """

    def __init__(
        self,
        values: Iterable[float] = (),
        weights: Iterable[float] | None = None,
        seed: int | None = None,
        *,
        dtype=None,
    ) -> None:
        self._init_common(seed, resolve_dtype(values, dtype))
        if not isinstance(values, _np.ndarray):
            values = _np.asarray(list(values), dtype=self._dtype)
        vals = values.astype(self._dtype, copy=False)
        if vals.ndim != 1:
            raise ValueError(f"values must be 1-D, got shape {vals.shape}")
        warr = self._coerced_weights(int(vals.size), weights)
        # Stable sort keeps weight alignment deterministic among duplicate
        # values (including values made equal by float32 rounding).
        order = _np.argsort(vals, kind="stable")
        vals = vals[order]
        if vals.size:
            validate_point(vals[-1])
        self._build(vals, warr[order])

    @classmethod
    def from_sorted(
        cls,
        values: Iterable[float],
        weights: Iterable[float] | None = None,
        seed: int | None = None,
        *,
        dtype=None,
        copy: bool = True,
    ) -> "WeightedDynamicIRS":
        """O(n) fast constructor over value-sorted input (skips the sort).

        ``values`` must be nondecreasing (verified in ``O(n)``, raising
        :class:`ValueError` otherwise); ``weights`` aligns with it.
        ``copy=False`` adopts a caller value array zero-copy under the
        strict contract of :func:`repro.core.planes.as_plane`; the weight
        plane is always copied (it is float64 working storage).
        """
        self = cls.__new__(cls)
        arr = as_plane(values, dtype=dtype, copy=copy)
        self._init_common(seed, arr.dtype)
        warr = self._coerced_weights(int(arr.size), weights)
        self._build(arr, warr)
        return self

    def _init_common(self, seed: int | None, dtype=None) -> None:
        self._rng = RandomSource(seed)
        self.stats = QueryStats()
        self._bulk_gen = None  # lazily-spawned NumPy side stream (sample_bulk)
        self._dtype = _np.dtype(dtype) if dtype is not None else _np.dtype(_np.float64)
        self._dir = ChunkDirectory(weighted=True)
        self._flat = None  # (values, global cum, offsets, chunk bases)
        self._flat_stamp = -1

    def _coerce(self, value) -> float:
        """Round ``value`` through the value-plane dtype (see DynamicIRS)."""
        if self._dtype.itemsize == 8:
            return float(value)
        return float(self._dtype.type(value))

    def _coerced_weights(self, n: int, weights):
        """Materialize and validate a float64 weight plane of length ``n``."""
        if weights is None:
            return _np.ones(n, dtype=_np.float64)
        if not isinstance(weights, _np.ndarray):
            weights = list(weights)
        warr = _np.array(weights, dtype=_np.float64, copy=True)
        if warr.ndim != 1 or int(warr.size) != n:
            raise ValueError(
                f"values and weights differ in length: {n} != {warr.size}"
            )
        self._check_weights_array(warr)
        return warr

    def _check_weights_array(self, warr) -> None:
        """Vectorized weight validation with the scalar check as fallback."""
        if warr.size and not (
            bool(_np.isfinite(warr).all()) and bool((warr > 0.0).all())
        ):
            for w in warr.tolist():
                self._check_weight(w)

    @staticmethod
    def _check_weight(weight: float) -> None:
        if not math.isfinite(weight) or weight <= 0.0:
            raise InvalidWeightError(f"weight must be positive finite: {weight!r}")

    # -- construction / rebuild ----------------------------------------------

    def _build(self, vals, warr) -> None:
        if not isinstance(vals, _np.ndarray) or vals.dtype != self._dtype:
            vals = _np.asarray(vals, dtype=self._dtype)
        if not isinstance(warr, _np.ndarray) or warr.dtype != _np.float64:
            warr = _np.asarray(warr, dtype=_np.float64)
        self._n = int(vals.size)
        self._n0 = max(self._n, 1)
        self._s = max(_MIN_CHUNK, int(math.log2(self._n0 + 2)))
        self._cap = 2 * self._s
        # Build at the midpoint of the [s, 2s] window so fresh chunks have
        # slack on both sides (same policy as the unweighted structure).
        # Pieces are views of the two planes — no per-chunk copies.
        step = (3 * self._s) // 2
        pieces = [
            (vals[i : i + step], warr[i : i + step]) for i in range(0, self._n, step)
        ]
        if len(pieces) > 1 and pieces[-1][0].size < self._s:
            tv, tw = pieces.pop()
            pv, pw = pieces.pop()
            mv = _np.concatenate((pv, tv))
            mw = _np.concatenate((pw, tw))
            if mv.size > self._cap:
                half = mv.size // 2
                pieces.append((mv[:half], mw[:half]))
                pieces.append((mv[half:], mw[half:]))
            else:
                pieces.append((mv, mw))
        self._dir.load([_WChunk(v, w) for v, w in pieces])

    def _maybe_rebuild(self) -> None:
        if self._n > 2 * self._n0 or (self._n0 > _MIN_CHUNK and 2 * self._n < self._n0):
            vals, warr = self.export_sorted_pairs()
            self._build(vals, warr)

    # -- accessors --------------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def dtype(self):
        """The value-plane dtype (``float32`` or ``float64``)."""
        return self._dtype

    @property
    def plane_nbytes(self) -> int:
        """Logical bytes of the value and weight planes combined."""
        return self._n * (self._dtype.itemsize + 8)

    @property
    def _chunks(self) -> list[_WChunk]:
        """The directory's ordered chunk list (tests and debugging)."""
        return self._dir.chunks

    def _iter_chunks(self) -> Iterator[_WChunk]:
        return iter(self._dir.chunks)

    def _iter_pairs(self) -> Iterator[tuple[float, float]]:
        for chunk in self._dir.chunks:
            yield from zip(chunk.data.tolist(), chunk.weights.tolist())

    def items(self) -> list[tuple[float, float]]:
        """Return all ``(value, weight)`` pairs in sorted value order."""
        return list(self._iter_pairs())

    def export_sorted_pairs(self):
        """Return ``(values, weights)`` sorted by value (shard-engine hook).

        ``O(n)`` — one concatenation per plane into two fresh NumPy arrays
        (values in the structure's dtype, weights float64), which the
        caller owns.
        """
        chunks = self._dir.chunks
        if not chunks:
            return (
                _np.empty(0, dtype=self._dtype),
                _np.empty(0, dtype=_np.float64),
            )
        return (
            _np.concatenate([chunk.data for chunk in chunks]),
            _np.concatenate([chunk.weights for chunk in chunks]),
        )

    def export_sorted(self):
        """Return the sorted points as a NumPy array (values plane only).

        The uniform snapshot surface: every sampler kind answers
        ``export_sorted``; weighted kinds additionally answer
        :meth:`export_sorted_pairs`, which is what the snapshot store
        actually persists for them.
        """
        if not self._dir.chunks:
            return _np.empty(0, dtype=self._dtype)
        return _np.concatenate([chunk.data for chunk in self._dir.chunks])

    @property
    def total_weight(self) -> float:
        """Sum of all stored weights."""
        return self._dir.total_weight

    # -- updates -----------------------------------------------------------------

    def insert(self, value: float, weight: float = 1.0) -> None:
        """Insert one weighted point in ``O(log n)`` amortized time."""
        self._check_weight(weight)
        value = self._coerce(value)
        validate_point(value)
        weight = float(weight)
        directory = self._dir
        chunks = directory.chunks
        if not chunks:
            self._build(
                _np.asarray([value], dtype=self._dtype),
                _np.asarray([weight], dtype=_np.float64),
            )
            return
        i = min(directory.first_max_ge(value), len(chunks) - 1)
        chunk = chunks[i]
        j = kernels.search_left_scalar(chunk.data, value)
        chunk.data = kernels.splice_insert(chunk.data, j, value)
        chunk.weights = kernels.splice_insert(chunk.weights, j, weight)
        chunk.touch()
        directory.refresh_entry(i)
        self._n += 1
        directory.note_delta(i, 1, weight)
        if chunk.data.size > self._cap:
            directory.split_chunk(i, self._cap)
        self._maybe_rebuild()

    def delete(self, value: float) -> float:
        """Delete one occurrence of ``value``; returns its weight."""
        value = self._coerce(value)
        directory = self._dir
        chunks = directory.chunks
        i = directory.first_max_ge(value)
        j = -1
        if i < len(chunks):
            data = chunks[i].data
            j = int(kernels.search_left_scalar(data, value))
            if j >= data.size or data[j] != value:
                j = -1
        if j < 0:
            raise KeyNotFoundError(f"value not present: {value!r}")
        chunk = chunks[i]
        weight = float(chunk.weights[j])
        chunk.data = kernels.splice_delete(chunk.data, j)
        chunk.weights = kernels.splice_delete(chunk.weights, j)
        chunk.touch()
        self._n -= 1
        directory.note_delta(i, -1, -weight)
        if chunk.data.size == 0:
            directory.remove_chunk(i)
            return weight
        directory.refresh_entry(i)
        if chunk.data.size < self._s and len(chunks) > 1:
            directory.repair_underfull(i, self._s)
        self._maybe_rebuild()
        return weight

    def update_weight(self, value: float, weight: float) -> float:
        """Re-weight one occurrence of ``value``; returns the old weight.

        ``O(log n)`` — one directory search, one in-chunk bisect, one
        copy-on-write weight-plane swap and one pending weight delta; the
        chunk list's shape is untouched, so no structural repair can
        trigger.  Raises :class:`~repro.errors.KeyNotFoundError` if absent.
        """
        self._check_weight(weight)
        value = self._coerce(value)
        directory = self._dir
        chunks = directory.chunks
        i = directory.first_max_ge(value)
        if i >= len(chunks):
            raise KeyNotFoundError(f"value not present: {value!r}")
        chunk = chunks[i]
        j = int(kernels.search_left_scalar(chunk.data, value))
        if j >= chunk.data.size or chunk.data[j] != value:
            raise KeyNotFoundError(f"value not present: {value!r}")
        old = float(chunk.weights[j])
        # Copy-on-write: the plane may be a view shared with an adopted
        # caller array's lineage — never write through it.
        weights = chunk.weights.copy()
        weights[j] = float(weight)
        chunk.weights = weights
        chunk.touch()
        directory.refresh_entry(i)
        directory.note_delta(i, 0, float(weight) - old)
        return old

    # -- bulk updates -------------------------------------------------------------

    def insert_bulk(
        self, values: Iterable[float], weights: Iterable[float] | None = None
    ) -> None:
        """Insert a weighted batch with one deferred directory repair.

        The batch is sorted once and routed to its target chunks with a
        single vectorized ``searchsorted`` over the directory ``maxes``;
        each touched chunk absorbs its whole segment with one two-plane
        kernel merge (stable, chunk elements first on value ties), and
        over-full chunks are re-split with the shared multi-index
        directory assembly — the exact machinery of
        :meth:`~repro.core.dynamic_irs.DynamicIRS.insert_bulk`, plus the
        aligned weight plane.
        """
        if not isinstance(values, _np.ndarray):
            values = list(values)
        m = len(values)
        if weights is not None:
            if not isinstance(weights, _np.ndarray):
                weights = list(weights)
            if len(weights) != m:
                raise ValueError(
                    f"values and weights differ in length: {m} != {len(weights)}"
                )
        if m == 0:
            return
        if m <= _BULK_CUTOFF:  # scalar loop below the cutoff
            if weights is None:
                weights = [1.0] * m
            for w in weights:
                self._check_weight(float(w))
            for value in values:
                validate_point(value)
            for value, weight in zip(values, weights):
                self.insert(float(value), float(weight))
            return
        batch = _np.asarray(values, dtype=self._dtype)
        warr = self._coerced_weights(m, weights)
        order = _np.argsort(batch, kind="stable")
        batch = batch[order]
        validate_point(batch[-1])
        warr = warr[order]
        directory = self._dir
        if not directory.chunks:
            self._build(batch, warr)
            return
        if self._n + m > 2 * self._n0:
            vals, ws = self.export_sorted_pairs()
            allv = _np.concatenate((vals, batch.astype(self._dtype, copy=False)))
            allw = _np.concatenate((ws, warr))
            merged = _np.argsort(allv, kind="stable")
            self._build(allv[merged], allw[merged])
            return
        chunks = directory.chunks
        last = len(chunks) - 1
        pos = _np.searchsorted(directory.maxes, batch, side="left")
        if int(pos[-1]) > last:  # values beyond the global max join the tail
            pos = _np.minimum(pos, last)
        uniq, starts = _np.unique(pos, return_index=True)
        ends = _np.append(starts[1:], m)
        # Directory repair for counts, key extents and the weight plane is
        # fully vectorized (one segment-sum per touched chunk's new mass).
        directory.counts[uniq] += ends - starts
        directory.maxes[uniq] = _np.maximum(directory.maxes[uniq], batch[ends - 1])
        directory.mins[uniq] = _np.minimum(directory.mins[uniq], batch[starts])
        directory.wtotals[uniq] += _np.add.reduceat(warr, starts)
        cap = self._cap
        oversized: list[int] = []
        for p, g0, g1 in zip(uniq.tolist(), starts.tolist(), ends.tolist()):
            chunk = chunks[p]
            chunk.data, chunk.weights = kernels.merge_pair_runs(
                chunk.data, chunk.weights, batch[g0:g1], warr[g0:g1]
            )
            chunk.touch()
            if chunk.data.size > cap:
                oversized.append(p)
        self._n += m
        directory.invalidate_prefix()
        if oversized:
            directory.bulk_split(oversized, cap)

    def delete_bulk(self, values: Iterable[float]) -> list[float]:
        """Delete one occurrence per batch value; returns their weights.

        The returned list aligns with the input order (for equal values with
        distinct weights the pairing between requested duplicates and
        removed occurrences is arbitrary, as with a scalar delete loop).
        Atomic: if any value is absent the structure is left untouched and
        :class:`~repro.errors.KeyNotFoundError` is raised.  Identical
        machinery to :meth:`~repro.core.dynamic_irs.DynamicIRS.delete_bulk`
        — one sort, one vectorized routing pass, a verify-then-apply plan —
        plus the aligned weight plane: hits record their weights for the
        return value and the directory's mass column is repaired with one
        vectorized subtraction.
        """
        values = [self._coerce(v) for v in values]
        m = len(values)
        if m == 0:
            return []
        directory = self._dir
        chunks = directory.chunks
        n_chunks = len(chunks)
        order = sorted(range(m), key=values.__getitem__)
        bulk_list = [values[k] for k in order]
        if n_chunks == 0:
            raise KeyNotFoundError(f"value not present: {bulk_list[-1]!r}")
        if m <= _BULK_CUTOFF:
            # Small batch: skip the vectorized prelude but keep the shared
            # verify/apply path (and with it the atomicity guarantee).
            groups: list[tuple[int, int, int]] = []
            for g, value in enumerate(bulk_list):
                p = directory.first_max_ge(value)
                if p >= n_chunks:
                    raise KeyNotFoundError(f"value not present: {value!r}")
                if groups and groups[-1][0] == p:
                    groups[-1] = (p, groups[-1][1], g + 1)
                else:
                    groups.append((p, g, g + 1))
        else:
            batch = _np.asarray(bulk_list, dtype=self._dtype)
            pos = _np.searchsorted(directory.maxes, batch, side="left")
            if int(pos[-1]) >= n_chunks:
                missing = float(batch[pos >= n_chunks][0])
                raise KeyNotFoundError(f"value not present: {missing!r}")
            uniq, starts = _np.unique(pos, return_index=True)
            ends = _np.append(starts[1:], m)
            groups = list(zip(uniq.tolist(), starts.tolist(), ends.tolist()))
        # Verify phase: resolve every target to its (chunk, offset) without
        # mutating anything, so a missing value aborts atomically.  ``out``
        # is filled as hits resolve (sorted position ``g`` maps back to the
        # caller's order through ``order[g]``).
        out: list[float] = [0.0] * m
        plan: dict[int, list[int]] = {}
        mins = directory.mins
        for p, g0, g1 in groups:
            j = p
            chunk = chunks[p]
            data = chunk.data
            weights = chunk.weights
            size = data.size
            hits = plan.get(p)
            if hits is None:
                hits = plan[p] = []
                at = 0  # search floor inside chunk j
            else:
                at = hits[-1] + 1
            for g in range(g0, g1):
                value = bulk_list[g]
                while True:
                    i = int(kernels.search_left_scalar(data, value))
                    if i < at:
                        i = at
                    if i < size and data[i] == value:
                        hits.append(i)
                        out[order[g]] = float(weights[i])
                        at = i + 1
                        break
                    # Spill into the next chunk: possible only when the
                    # value ties this chunk's max and duplicates continue.
                    j += 1
                    if j >= n_chunks or mins[j] > value:
                        raise KeyNotFoundError(f"value not present: {value!r}")
                    chunk = chunks[j]
                    data = chunk.data
                    weights = chunk.weights
                    size = data.size
                    hits = plan.get(j)
                    if hits is None:
                        hits = plan[j] = []
                        at = 0
                    else:
                        at = hits[-1] + 1
        # Apply phase: splice out the recorded offsets from both planes
        # with one kernel take-out per plane.  The removed mass per chunk
        # is summed *sequentially* (accounting stays in the driver).
        violation = False
        s = self._s
        removed_mass: list[float] = []
        for p, hits in plan.items():
            chunk = chunks[p]
            weights = chunk.weights
            removed = 0.0
            for i in hits:
                removed += float(weights[i])
            hidx = _np.asarray(hits, dtype=_np.int64)
            chunk.data = kernels.take_out(chunk.data, hidx)
            chunk.weights = kernels.take_out(weights, hidx)
            chunk.touch()
            removed_mass.append(removed)
            if chunk.data.size < s:
                violation = True
        self._n -= m
        directory.invalidate_prefix()
        if violation:
            directory.normalize(s, self._cap)
        else:
            # All touched chunks stayed within bounds: repair their
            # directory rows with four vectorized assignments.
            changed = list(plan)
            idx = _np.asarray(changed, dtype=_np.int64)
            directory.counts[idx] = [chunks[p].data.size for p in changed]
            directory.maxes[idx] = [chunks[p].data[-1] for p in changed]
            directory.mins[idx] = [chunks[p].data[0] for p in changed]
            directory.wtotals[idx] -= _np.asarray(removed_mass, dtype=float)
        self._maybe_rebuild()
        return out

    # -- queries ---------------------------------------------------------------------

    def _plan(self, lo: float, hi: float):
        """Resolve a range into ``(count, weight, parts)``.

        ``parts`` is ``(a, la, ra, w_left, w_mid, b, rb, w_right)``: the
        boundary chunk indices with their in-chunk run bounds (the left
        run is ``[la, ra)`` of chunk ``a`` — ``ra = len`` in the
        multi-chunk case — and the right run ``[0, rb)`` of chunk ``b``).
        Boundary-run masses are *direct* ``math.fsum`` sums over the run's
        weights, not prefix differences: a prefix diff can round to exactly
        0.0 for a positive-weight run when a huge weight absorbs tiny ones,
        and "weight == 0" is a semantic decision (``EmptyRangeError``), not
        a tolerance — the same guard :class:`WeightedStaticIRS` documents.
        (The whole-chunk middle mass still comes from the directory's
        cumulative prefix; mass preceding the *window* can shave ulps off
        it, which biases nothing structurally — draws are clamped into
        their runs — but is the float-cancellation caveat recorded in
        DESIGN.md §8.)
        """
        lo = self._coerce(lo)
        hi = self._coerce(hi)
        directory = self._dir
        chunks = directory.chunks
        a = directory.first_max_ge(lo)
        if a >= len(chunks):
            return None
        b = directory.last_min_le(hi)
        if b < a:
            return None
        ca = chunks[a]
        if a == b:
            la = int(kernels.search_left_scalar(ca.data, lo))
            ra = int(kernels.search_right_scalar(ca.data, hi))
            if ra <= la:
                return None
            w = math.fsum(ca.weights[la:ra])
            return ra - la, w, (a, la, ra, w, 0.0, b, ra, 0.0)
        cb = chunks[b]
        la = int(kernels.search_left_scalar(ca.data, lo))
        rb = int(kernels.search_right_scalar(cb.data, hi))
        w_left = math.fsum(ca.weights[la:])
        w_right = math.fsum(cb.weights[:rb])
        k_left = ca.data.size - la
        k_mid = directory.points_between(a, b)
        w_mid = directory.weight_between(a, b) if k_mid else 0.0
        count = k_left + k_mid + rb
        weight = w_left + w_mid + w_right
        return count, weight, (a, la, ca.data.size, w_left, w_mid, b, rb, w_right)

    def count(self, lo: float, hi: float) -> int:
        """Return ``|P ∩ [lo, hi]|``."""
        validate_query(lo, hi, 0)
        plan = self._plan(lo, hi)
        return plan[0] if plan is not None else 0

    def range_weight(self, lo: float, hi: float) -> float:
        """Return ``w(P ∩ [lo, hi])``."""
        validate_query(lo, hi, 0)
        plan = self._plan(lo, hi)
        return plan[1] if plan is not None else 0.0

    def _coerce_bounds_arrays(self, los, his):
        """Round query-bound arrays through the value-plane dtype."""
        if self._dtype.itemsize == 4:
            los = los.astype(_np.float32).astype(_np.float64)
            his = his.astype(_np.float32).astype(_np.float64)
        return los, his

    def peek_counts(self, queries):
        """Vectorized multi-range count over the chunk directory.

        Same machinery as :meth:`DynamicIRS.peek_counts
        <repro.core.dynamic_irs.DynamicIRS.peek_counts>`: the widths of
        the ranges' global rank intervals from
        :meth:`ChunkDirectory.rank_bounds
        <repro.core.directory.ChunkDirectory.rank_bounds>` — one
        ``searchsorted`` over ``maxes`` and one over ``mins`` for *all*
        queries, two in-chunk bisects per query, ``O(q log n)`` total.
        """
        los, his = coerce_query_bounds(queries)
        starts, ends = self._dir.rank_bounds(*self._coerce_bounds_arrays(los, his))
        return ends - starts

    def peek_weights(self, queries):
        """Vectorized multi-range mass probe (``w(P ∩ [lo, hi])`` each).

        The weight-plane twin of :meth:`peek_counts`: boundary chunks for
        all queries from two directory ``searchsorted`` calls, whole-chunk
        middle mass from the cumulative weight prefix, boundary masses
        from the chunks' own tables.  Returns a float array aligned with
        the input.
        """
        los, his = coerce_query_bounds(queries)
        los, his = self._coerce_bounds_arrays(los, his)
        q = len(los)
        out = _np.zeros(q, dtype=float)
        directory = self._dir
        chunks = directory.chunks
        if not chunks:
            return out
        a_idx = _np.searchsorted(directory.maxes, los, side="left")
        b_idx = _np.searchsorted(directory.mins, his, side="right") - 1
        wprefix = directory.folded_wprefix()
        for i in range(q):
            a, b = int(a_idx[i]), int(b_idx[i])
            if a >= len(chunks) or b < a:
                continue
            ca = chunks[a]
            la = int(kernels.search_left_scalar(ca.data, los[i]))
            # Boundary-run masses are direct fsum sums, mirroring _plan
            # (a prefix diff can round a positive run's mass to 0.0).
            if a == b:
                ra = int(kernels.search_right_scalar(ca.data, his[i]))
                out[i] = math.fsum(ca.weights[la:ra])
                continue
            cb = chunks[b]
            w = math.fsum(ca.weights[la:])
            rb = int(kernels.search_right_scalar(cb.data, his[i]))
            w += math.fsum(cb.weights[:rb])
            if b - a > 1:
                w += float(wprefix[b - 1] - wprefix[a])
            out[i] = w
        return out

    def report(self, lo: float, hi: float) -> list[tuple[float, float]]:
        """Return the in-range ``(value, weight)`` pairs in sorted order."""
        validate_query(lo, hi, 0)
        lo = self._coerce(lo)
        hi = self._coerce(hi)
        out: list[tuple[float, float]] = []
        chunks = self._dir.chunks
        i = self._dir.first_max_ge(lo)
        while i < len(chunks) and chunks[i].data[0] <= hi:
            chunk = chunks[i]
            a = int(kernels.search_left_scalar(chunk.data, lo))
            b = int(kernels.search_right_scalar(chunk.data, hi))
            out.extend(
                zip(chunk.data[a:b].tolist(), chunk.weights[a:b].tolist())
            )
            i += 1
        return out

    def sample(self, lo: float, hi: float, t: int) -> list[float]:
        """Return ``t`` independent weight-proportional samples."""
        validate_query(lo, hi, t)
        if t == 0:
            return []
        plan = self._plan(lo, hi)
        if plan is None or plan[1] <= 0.0:
            raise EmptyRangeError("query range is empty or has zero weight")
        _count, weight, (a, la, ra, w_left, w_mid, b, rb, w_right) = plan
        chunks = self._dir.chunks
        ca = chunks[a]
        cb = chunks[b]
        self.stats.queries += 1
        self.stats.samples_returned += t
        rng = self._rng
        out: list[float] = []
        base_left = ca.prefix(la)
        w_lm = w_left + w_mid
        wprefix = None
        for _ in range(t):
            u = rng.random() * weight
            if u < w_left:
                # Clamp into the run [la, ra): round-off between the fsum
                # mass and the cumulative table must not leave the range.
                out.append(
                    float(ca.data[min(max(ca.locate(base_left + u), la), ra - 1)])
                )
            elif u < w_lm:
                # Two cumulative binary searches: chunk by the directory's
                # weight prefix, then point by the chunk's own table.  The
                # chunk index is clamped into the middle window, so float
                # round-off at a boundary (probability ~ulp) stays exact
                # to the same fidelity as the boundary draws themselves.
                if wprefix is None:
                    wprefix = self._dir.folded_wprefix()
                    base_mid = float(wprefix[a])
                target = base_mid + (u - w_left)
                ci = int(_np.searchsorted(wprefix, target, side="right"))
                ci = min(max(ci, a + 1), b - 1)
                chunk = chunks[ci]
                out.append(
                    float(chunk.data[chunk.locate(target - float(wprefix[ci - 1]))])
                )
            else:
                out.append(float(cb.data[min(cb.locate(u - w_lm), rb - 1)]))
        return out

    def sample_bulk(self, lo: float, hi: float, t: int, *, seed=None):
        """Vectorized :meth:`sample` returning a float64 NumPy array.

        Semantics match :meth:`sample` (``t`` independent weight-
        proportional samples), with randomness from a NumPy side stream
        spawned once via :meth:`RandomSource.spawn_numpy` (draw accounting
        differs from the scalar path by design); an explicit ``seed``
        overrides the side stream (seed-addressable draws).  The three-way
        mass split is resolved vectorized: one batch of uniform mass
        positions, boundary parts gathered against the chunks' cumulative
        tables, and middle draws resolved by the two-pass cumulative-
        ``searchsorted`` scheme of :meth:`_middle_bulk` — zero per-sample
        descents of any kind.
        """
        validate_query(lo, hi, t)
        if t == 0:
            return _np.empty(0, dtype=float)
        plan = self._plan(lo, hi)
        if plan is None or plan[1] <= 0.0:
            raise EmptyRangeError("query range is empty or has zero weight")
        _count, weight, (a, la, ra, w_left, w_mid, b, rb, w_right) = plan
        chunks = self._dir.chunks
        stats = self.stats
        stats.queries += 1
        stats.samples_returned += t
        if seed is not None:
            gen = _generator(seed)
        else:
            if self._bulk_gen is None:
                self._bulk_gen = self._rng.spawn_numpy()
            gen = self._bulk_gen
        u = gen.random(t) * weight
        out = _np.empty(t, dtype=float)
        left_mask = u < w_left
        mid_mask = (~left_mask) & (u < w_left + w_mid)
        right_mask = ~(left_mask | mid_mask)
        # Boundary gathers are clamped into their runs ([la, ra) of chunk
        # a, [0, rb) of chunk b): round-off between the fsum run masses
        # and the cumulative tables must never surface an out-of-range
        # point.
        if left_mask.any():
            vals, cum = chunks[a].np_arrays()
            base_left = chunks[a].prefix(la)
            out[left_mask] = kernels.flat_pick(
                vals, cum, base_left + u[left_mask], la, ra - 1
            )
        if right_mask.any():
            vals, cum = chunks[b].np_arrays()
            residual = u[right_mask] - (w_left + w_mid)
            out[right_mask] = kernels.flat_pick(vals, cum, residual, 0, rb - 1)
        n_mid = int(mid_mask.sum())
        if n_mid:
            out[mid_mask] = self._middle_bulk(a, b, u[mid_mask] - w_left, n_mid)
        return out

    def _middle_bulk(self, a: int, b: int, residuals, count: int):
        """Resolve middle-mass positions with two vectorized passes.

        With the flattened global cumulative-weight array warm (or a batch
        large enough to amortize rebuilding it), every draw is **one**
        fused cumulative-search kernel call against the global table,
        clamped into the middle window.  Otherwise: pass 1 routes all
        draws to chunks with one ``searchsorted`` over the directory
        weight prefix; pass 2 groups the draws per distinct chunk (one
        stable argsort) and bisects each chunk's own cumulative table —
        ``O(t log n)`` total with both passes in C, never a per-sample
        descent.
        """
        directory = self._dir
        if self._flat_stamp == directory.mutations or count >= _FLAT_MIN:
            vals, gcum, offsets, base = self._ensure_flat()
            o1 = int(offsets[a + 1])
            o2 = int(offsets[b])
            return kernels.flat_pick(vals, gcum, base[a + 1] + residuals, o1, o2 - 1)
        chunks = directory.chunks
        wprefix = directory.folded_wprefix()
        targets = float(wprefix[a]) + residuals
        ci = kernels.search_right(wprefix, targets)
        ci = _np.clip(ci, a + 1, b - 1)
        inner = targets - wprefix[ci - 1]
        out = _np.empty(count, dtype=float)
        order = _np.argsort(ci, kind="stable")
        grouped_ci = ci[order]
        grouped_inner = inner[order]
        uniq, group_starts = _np.unique(grouped_ci, return_index=True)
        group_ends = _np.append(group_starts[1:], count)
        for chunk_i, g0, g1 in zip(uniq, group_starts, group_ends):
            chunk = chunks[chunk_i]
            vals, cum = chunk.np_arrays()
            out[order[g0:g1]] = kernels.flat_pick(
                vals, cum, grouped_inner[g0:g1], 0, vals.size - 1
            )
        return out

    def _ensure_flat(self):
        """Return the flattened ``(values, global cum, offsets, bases)``.

        One array per plane over *all* points, rebuilt only when the
        directory's mutation stamp moved: ``values`` is the full sorted
        point array (structure dtype), ``global cum`` the strictly
        increasing global cumulative weight (per-chunk tables shifted by
        the chunk's cumulative base mass), ``offsets[i]`` the flat
        position of chunk ``i``'s first point, and ``bases[i]`` the total
        mass before chunk ``i``.  ``O(n)`` to build, cached across
        queries.
        """
        directory = self._dir
        if self._flat is not None and self._flat_stamp == directory.mutations:
            return self._flat
        chunks = directory.chunks
        pairs = [c.np_arrays() for c in chunks]
        vals = _np.concatenate([p[0] for p in pairs])
        cums = _np.concatenate([p[1] for p in pairs])
        counts = directory.counts
        offsets = _np.concatenate(([0], _np.cumsum(counts)))
        base = _np.concatenate(([0.0], _np.cumsum(directory.wtotals)))
        gcum = cums + _np.repeat(base[:-1], counts)
        self._flat = (vals, gcum, offsets, base)
        self._flat_stamp = directory.mutations
        return self._flat

    def sample_bulk_many(self, queries, *, seeds=None) -> list:
        """Answer many ``(lo, hi, t)`` queries in one batched pass.

        Results align with the input order; per-query distribution — and,
        for seeded queries (``seeds[i] is not None``), the exact draws —
        are identical to calling :meth:`sample_bulk` per query.  The
        batch's heavy middle draws all share one flattened global
        cumulative-weight array (built at most once per call), which is
        what lets the batch engine and the serving layer coalesce weighted
        read runs without falling back to scalar loops.
        """
        from ..errors import InvalidQueryError

        queries = [(float(lo), float(hi), int(t)) for lo, hi, t in queries]
        if seeds is None:
            seeds = [None] * len(queries)
        elif len(seeds) != len(queries):
            raise InvalidQueryError("seeds must align with queries")
        for lo, hi, t in queries:
            validate_query(lo, hi, t)
        if sum(t for _lo, _hi, t in queries) >= _FLAT_MIN and self._dir.chunks:
            self._ensure_flat()  # one shared build for the whole batch
        return [
            self.sample_bulk(lo, hi, t, seed=seed)
            for (lo, hi, t), seed in zip(queries, seeds)
        ]

    # -- validation (tests) ----------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert chunk and directory invariants (``O(n)``, tests only)."""
        self._dir.check(self._s, self._cap, self._n)
        total = 0.0
        for chunk in self._dir.chunks:
            assert chunk.data.size == chunk.weights.size
            assert chunk.data.dtype == self._dtype, "value plane dtype drift"
            assert chunk.weights.dtype == _np.float64, "weight plane not float64"
            assert bool((chunk.weights > 0.0).all())
            if chunk.cum is not None:
                assert chunk.cum.size == chunk.weights.size
                expect = _np.cumsum(chunk.weights)
                assert bool((_np.abs(expect - chunk.cum) < 1e-9).all())
            total += chunk.mass
        assert abs(total - self.total_weight) <= 1e-6 * max(1.0, total)
