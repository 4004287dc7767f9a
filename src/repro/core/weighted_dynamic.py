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
values stored as rows of the shared slab of
:class:`~repro.core.directory.ChunkDirectory`: a value slab (float32 or
float64, chosen at construction) and an aligned float64 weight slab, one
row per chunk.  The directory adds a per-chunk total-mass array
(``wtotals``) with a lazily cached cumulative-weight prefix, which a
re-cut or a bulk pass empties and a scalar write marks stale from its
chunk on, for the next read to re-fold.  ``count`` reads count
geometry only, never a weight, and ``peek_counts`` and ``report``
resolve ranks in the directory's rank frames.  A sampling query:

1. resolves boundary runs and their masses from the boundary rows and
   the whole-chunk middle mass from the weight prefix;
2. draws ``u`` uniform in ``[0, w(range))``;
3. routes ``u`` to the left run, the middle, or the right run; a middle
   draw is **two** cumulative binary searches — chunk by cumulative mass
   (one ``searchsorted`` over the weight prefix), then point by the
   row's own cumulative weight table, a sequential sum taken when it is
   needed.

Hot loops are calls into :mod:`repro.core.kernels` (DESIGN.md §13): the
bulk merge and take-out passes over the touched rows, cumulative tables
and every cumulative-search draw.  All randomness and all float
*accounting* (``fsum`` run masses, the sequential row sums) stay in the
drivers.  Query bounds and stored values are coerced through the
value-plane dtype on entry, so every comparison runs against exactly the
stored representation.

``sample_bulk`` runs both searches once for a whole batch.  A middle
window of at most two cells per middle draw is one shifted cumulative
table, and one guided search places the draws in it, ``O(1)`` expected
each; over a wider window one ``searchsorted`` routes the sorted middle
draws to chunks, and one more places them in the cumulative tables of
only the chunks they land in — no per-sample descent, and no table over
all ``n`` points.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as _np

from ..errors import EmptyRangeError, InvalidWeightError
from ..rng import RandomSource
from ..rng import generator as _generator
from ..types import QueryStats
from .base import coerce_query_bounds, round_to_plane, validate_point, validate_query
from .directory import ChunkDirectory
from . import kernels
from .planes import as_plane, resolve_dtype

__all__ = ["WeightedDynamicIRS"]

_MIN_CHUNK = 8
#: Batches at or below this size take the scalar update loop.
_BULK_CUTOFF = 16


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
            values = list(values)
        vals = round_to_plane(values, self._dtype)
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
    ) -> "WeightedDynamicIRS":
        """O(n) fast constructor over value-sorted input (skips the sort).

        ``values`` must be nondecreasing (verified in ``O(n)``, raising
        :class:`ValueError` otherwise); ``weights`` aligns with it.  Both
        planes are copied once, straight into the slabs.
        """
        self = cls.__new__(cls)
        arr = as_plane(values, dtype=dtype, copy=None)
        self._init_common(seed, arr.dtype)
        warr = self._coerced_weights(int(arr.size), weights)
        self._build(arr, warr)
        return self

    def _init_common(self, seed: int | None, dtype) -> None:
        self._rng = RandomSource(seed)
        self.stats = QueryStats()
        self._bulk_gen = None  # lazily-spawned NumPy side stream (sample_bulk)
        self._dtype = _np.dtype(dtype)
        self._dir = ChunkDirectory(self._dtype, weighted=True)

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
        """(Re)build the slabs and directory from value-sorted pairs."""
        self._n = int(vals.size)
        self._n0 = max(self._n, 1)
        self._s = max(_MIN_CHUNK, int(math.log2(self._n0 + 2)))
        self._cap = 2 * self._s
        self._dir.load(vals, warr, self._s, self._cap)

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

    def items(self) -> list[tuple[float, float]]:
        """Return all ``(value, weight)`` pairs in sorted value order."""
        vals, weights = self.export_sorted_pairs()
        return list(zip(vals.tolist(), weights.tolist()))

    def export_sorted_pairs(self):
        """Return ``(values, weights)`` sorted by value (shard-engine hook).

        ``O(n)`` — one gather of the live cells per slab into two fresh
        NumPy arrays (values in the structure's dtype, weights float64),
        which the caller owns.
        """
        return self._dir.gather()

    def export_sorted(self):
        """Return the sorted points as a NumPy array (values plane only).

        The uniform snapshot surface: every sampler kind answers
        ``export_sorted``; weighted kinds additionally answer
        :meth:`export_sorted_pairs`, which is what the snapshot store
        actually persists for them.
        """
        return self._dir.gather()[0]

    @property
    def total_weight(self) -> float:
        """Sum of all stored weights."""
        return self._dir.total_weight

    # -- updates -----------------------------------------------------------------

    def insert(self, value: float, weight: float = 1.0) -> None:
        """Insert one weighted point in ``O(log n)`` amortized time."""
        self._check_weight(weight)
        value = round_to_plane(value, self._dtype)
        validate_point(value)
        weight = float(weight)
        if not self._n:
            self._build(
                _np.asarray([value], dtype=self._dtype),
                _np.asarray([weight], dtype=_np.float64),
            )
            return
        # A new point goes before its equals (a later delete takes it first).
        self._dir.insert(value, weight, before_equal=True)
        self._n += 1
        self._maybe_rebuild()

    def delete(self, value: float) -> float:
        """Delete one occurrence of ``value``; returns its weight."""
        weight = self._dir.delete(round_to_plane(value, self._dtype), self._s)
        self._n -= 1
        self._maybe_rebuild()
        return weight

    def update_weight(self, value: float, weight: float) -> float:
        """Re-weight one occurrence of ``value``; returns the old weight.

        ``O(log n)`` — one directory search, one in-row bisect and one
        weight written in place (the weight prefix goes stale from its
        chunk on); the chunk list's shape is untouched, so no structural
        repair can trigger.
        Raises :class:`~repro.errors.KeyNotFoundError` if absent.
        """
        self._check_weight(weight)
        i, j = self._dir.locate(round_to_plane(value, self._dtype))
        return self._dir.set_weight(i, j, float(weight))

    # -- bulk updates -------------------------------------------------------------

    def insert_bulk(
        self, values: Iterable[float], weights: Iterable[float] | None = None
    ) -> None:
        """Insert a weighted batch with one deferred directory repair.

        The batch is sorted once (stably, so equal values keep their
        weights' input order) and merged into all touched rows in one
        pass, the weights riding along (stable, stored elements first on
        value ties); over-full chunks are re-split with the shared
        assembly — the exact machinery of
        :meth:`~repro.core.dynamic_irs.DynamicIRS.insert_bulk`, plus the
        aligned weight slab.
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
        batch = round_to_plane(values, self._dtype)
        if m <= _BULK_CUTOFF:  # scalar loop below the cutoff
            if weights is None:
                weights = [1.0] * m
            for w in weights:
                self._check_weight(float(w))
            for value in batch.tolist():
                validate_point(value)
            for value, weight in zip(batch.tolist(), weights):
                self.insert(value, float(weight))
            return
        warr = self._coerced_weights(m, weights)
        order = _np.argsort(batch, kind="stable")
        batch = batch[order]
        validate_point(batch[-1])
        warr = warr[order]
        if not len(self._dir):
            self._build(batch, warr)
            return
        if self._n + m > 2 * self._n0:
            vals, ws = self.export_sorted_pairs()
            allv = _np.concatenate((vals, batch))
            allw = _np.concatenate((ws, warr))
            merged = _np.argsort(allv, kind="stable")
            self._build(allv[merged], allw[merged])
            return
        self._dir.merge(batch, warr)
        self._n += m

    def delete_bulk(self, values: Iterable[float]) -> list[float]:
        """Delete one occurrence per batch value; returns their weights.

        The returned list aligns with the input order (for equal values with
        distinct weights the pairing between requested duplicates and
        removed occurrences is arbitrary, as with a scalar delete loop).
        Atomic: if any value is absent the structure is left untouched and
        :class:`~repro.errors.KeyNotFoundError` is raised.  Identical
        machinery to :meth:`~repro.core.dynamic_irs.DynamicIRS.delete_bulk`
        — one stable sort, one vectorized verify pass, one take-out pass
        over the touched rows — plus the aligned weight slab, whose
        removed cells become the return value.
        """
        if not isinstance(values, _np.ndarray):
            values = list(values)
        arr = round_to_plane(values, self._dtype)
        m = int(arr.size)
        if m == 0:
            return []
        order = arr.argsort(kind="stable")
        out = _np.empty(m)
        out[order] = self._dir.remove(arr[order], self._s)
        self._n -= m
        self._maybe_rebuild()
        return out.tolist()

    # -- queries ---------------------------------------------------------------------

    def _plan(self, lo: float, hi: float):
        """Resolve a range into ``(weight, parts)``.

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
        directory = self._dir
        edges = directory.edges(
            round_to_plane(lo, self._dtype, "lo"), round_to_plane(hi, self._dtype, "hi")
        )
        if edges is None:
            return None
        a, la, b, rb = edges
        wleft = directory.wrow(a)
        if a == b:
            if rb <= la:
                return None
            w = math.fsum(wleft[la:rb])
            return w, (a, la, rb, w, 0.0, b, rb, 0.0)
        w_left = math.fsum(wleft[la:])
        w_right = math.fsum(directory.wrow(b)[:rb])
        w_mid = directory.weight_between(a, b)
        weight = w_left + w_mid + w_right
        return weight, (a, la, wleft.size, w_left, w_mid, b, rb, w_right)

    def count(self, lo: float, hi: float) -> int:
        """Return ``|P ∩ [lo, hi]|`` from count geometry alone.

        The same directory routine as :meth:`DynamicIRS.count
        <repro.core.dynamic_irs.DynamicIRS.count>`
        (:meth:`ChunkDirectory.points_in
        <repro.core.directory.ChunkDirectory.points_in>`): no boundary
        ``fsum`` and no weight prefix, so a count after an update never
        rebuilds the weight prefix.
        """
        validate_query(lo, hi, 0)
        return self._dir.points_in(
            round_to_plane(lo, self._dtype, "lo"), round_to_plane(hi, self._dtype, "hi")
        )

    def range_weight(self, lo: float, hi: float) -> float:
        """Return ``w(P ∩ [lo, hi])``."""
        validate_query(lo, hi, 0)
        plan = self._plan(lo, hi)
        return plan[0] if plan is not None else 0.0

    def _round_bounds(self, los, his):
        """Round query-bound arrays through the value-plane dtype."""
        return round_to_plane(los, self._dtype, "lo"), round_to_plane(
            his, self._dtype, "hi"
        )

    def peek_counts(self, queries):
        """Vectorized multi-range count over the chunk directory.

        Same machinery as :meth:`DynamicIRS.peek_counts
        <repro.core.dynamic_irs.DynamicIRS.peek_counts>`: the widths of
        the ranges' rank intervals from
        :meth:`ChunkDirectory.rank_bounds
        <repro.core.directory.ChunkDirectory.rank_bounds>` — one
        ``searchsorted`` over ``maxes`` and one over ``mins`` for *all*
        queries, one ``k × cap`` compare for every in-chunk offset,
        ``O(q log n)`` total.
        """
        los, his = coerce_query_bounds(queries)
        starts, ends, _frame = self._dir.rank_bounds(*self._round_bounds(los, his))
        return ends - starts

    def peek_weights(self, queries):
        """Vectorized multi-range mass probe (``w(P ∩ [lo, hi])`` each).

        The weight-plane twin of :meth:`peek_counts`: boundary chunks for
        all queries from two directory ``searchsorted`` calls, whole-chunk
        middle mass from the cumulative weight prefix, boundary masses
        from the boundary rows.  Returns a float array aligned with the
        input.
        """
        los, his = self._round_bounds(*coerce_query_bounds(queries))
        q = len(los)
        out = _np.zeros(q, dtype=float)
        directory = self._dir
        k = len(directory)
        if not k:
            return out
        a_idx = _np.searchsorted(directory.maxes, los, side="left")
        b_idx = _np.searchsorted(directory.mins, his, side="right") - 1
        wprefix = directory.ensure_wprefix()
        for i in range(q):
            a, b = int(a_idx[i]), int(b_idx[i])
            if a >= k or b < a:
                continue
            left, wleft = directory.row(a), directory.wrow(a)
            la = kernels.search_left_scalar(left, los[i])
            # Boundary-run masses are direct fsum sums, mirroring _plan
            # (a prefix diff can round a positive run's mass to 0.0).
            if a == b:
                ra = kernels.search_right_scalar(left, his[i])
                out[i] = math.fsum(wleft[la:ra])
                continue
            w = math.fsum(wleft[la:])
            rb = kernels.search_right_scalar(directory.row(b), his[i])
            w += math.fsum(directory.wrow(b)[:rb])
            if b - a > 1:
                w += float(wprefix[b - 1] - wprefix[a])
            out[i] = w
        return out

    def report(self, lo: float, hi: float) -> list[tuple[float, float]]:
        """Return the in-range ``(value, weight)`` pairs in sorted order."""
        validate_query(lo, hi, 0)
        directory = self._dir
        starts, ends, frame = directory.rank_bounds(
            *self._round_bounds(_np.asarray([lo]), _np.asarray([hi]))
        )
        rows, off = directory.cells(_np.arange(starts[0], ends[0]), frame)
        return list(
            zip(directory.slab[rows, off].tolist(), directory.wslab[rows, off].tolist())
        )

    def sample(self, lo: float, hi: float, t: int) -> list[float]:
        """Return ``t`` independent weight-proportional samples."""
        validate_query(lo, hi, t)
        if t == 0:
            return []
        plan = self._plan(lo, hi)
        if plan is None or plan[0] <= 0.0:
            raise EmptyRangeError("query range is empty or has zero weight")
        weight, (a, la, ra, w_left, w_mid, b, rb, w_right) = plan
        directory = self._dir
        self.stats.queries += 1
        self.stats.samples_returned += t
        rng = self._rng
        out: list[float] = []
        search = kernels.search_right_scalar
        left, right = directory.row(a), directory.row(b)
        left_cum = kernels.cum_table(directory.wrow(a))
        right_cum = kernels.cum_table(directory.wrow(b))
        base_left = float(left_cum[la - 1]) if la else 0.0
        w_lm = w_left + w_mid
        wprefix = None
        for _ in range(t):
            u = rng.random() * weight
            if u < w_left:
                # Clamp into the run [la, ra): round-off between the fsum
                # mass and the cumulative table must not leave the range.
                i = min(search(left_cum, base_left + u), left.size - 1)
                out.append(float(left[min(max(i, la), ra - 1)]))
            elif u < w_lm:
                # Two cumulative binary searches: chunk by the directory's
                # weight prefix, then point by the row's own table.  The
                # chunk index is clamped into the middle window, so float
                # round-off at a boundary (probability ~ulp) stays exact
                # to the same fidelity as the boundary draws themselves.
                if wprefix is None:
                    wprefix = directory.ensure_wprefix()
                    base_mid = float(wprefix[a])
                target = base_mid + (u - w_left)
                ci = int(_np.searchsorted(wprefix, target, side="right"))
                ci = min(max(ci, a + 1), b - 1)
                row = directory.row(ci)
                cum = kernels.cum_table(directory.wrow(ci))
                i = search(cum, target - float(wprefix[ci - 1]))
                out.append(float(row[min(i, row.size - 1)]))
            else:
                i = min(search(right_cum, u - w_lm), right.size - 1)
                out.append(float(right[min(i, rb - 1)]))
        return out

    def sample_bulk(self, lo: float, hi: float, t: int, *, seed=None):
        """Vectorized :meth:`sample` returning a float64 NumPy array.

        Semantics match :meth:`sample` (``t`` independent weight-
        proportional samples), with randomness from a NumPy side stream
        spawned once via :meth:`RandomSource.spawn_numpy` (draw accounting
        differs from the scalar path by design); an explicit ``seed``
        overrides the side stream (seed-addressable draws).  The three-way
        mass split is resolved vectorized: one batch of uniform mass
        positions, boundary parts gathered against the boundary rows'
        cumulative tables, and middle draws resolved by :meth:`_middle_bulk`
        (one guided search over a narrow window's table; over a wide one,
        chunk, then point in the tables of only the chunks drawn) — zero
        per-sample descents of any kind.
        """
        validate_query(lo, hi, t)
        if t == 0:
            return _np.empty(0, dtype=float)
        plan = self._plan(lo, hi)
        if plan is None or plan[0] <= 0.0:
            raise EmptyRangeError("query range is empty or has zero weight")
        weight, (a, la, ra, w_left, w_mid, b, rb, w_right) = plan
        directory = self._dir
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
            cum = kernels.cum_table(directory.wrow(a))
            base_left = float(cum[la - 1]) if la else 0.0
            out[left_mask] = kernels.flat_pick(
                directory.row(a), cum, base_left + u[left_mask], la, ra - 1
            )
        if right_mask.any():
            cum = kernels.cum_table(directory.wrow(b))
            residual = u[right_mask] - (w_left + w_mid)
            out[right_mask] = kernels.flat_pick(
                directory.row(b), cum, residual, 0, rb - 1
            )
        if mid_mask.any():
            out[mid_mask] = self._middle_bulk(a, b, u[mid_mask] - w_left)
        return out

    def _middle_bulk(self, a: int, b: int, residuals):
        """Resolve middle-mass positions for a whole batch.

        Each target ``wprefix[a] + residuals`` is placed in the shifted
        cumulative table of the middle window ``[a + 1, b - 1]``: each
        chunk's sequential row table plus its base mass ``wprefix[c - 1]``.
        The rows are sorted end to end: a row's last live cell
        ``fl(cum_last + base)`` — which its zero-weight padding repeats —
        is bit for bit the next chunk's base ``fl(base + wtotals[c])``.
        So the first cell above a target is the one a search over the
        whole directory's shifted table would give, clamped into the
        window: a target below or above it takes the window's first or
        last point.

        A window of at most ``2m`` cells for ``m`` targets is one table
        over its live cells, searched in draw order by
        :func:`~repro.core.kernels.search_guided`: ``O(m)`` expected from
        ``_GUIDED_MIN`` targets on, with no sort and no scatter.  A
        wider one sorts the targets once and routes them to chunks with
        one ``searchsorted`` over the weight prefix; only the distinct
        chunks they land in get tables, and one more ``searchsorted``
        over those rows, flattened in chunk order, places every target:
        ``O(m log m)`` plus the touched rows.  Never ``O(n)``.
        """
        directory = self._dir
        wprefix = directory.ensure_wprefix()
        cap = directory.cap
        if (b - a - 1) * cap <= 2 * residuals.size:
            rows = directory.row_of[a + 1 : b]
            live = _np.arange(cap) < directory.counts[a + 1 : b, None]
            cum = kernels.cum_table(directory.wslab[rows])
            cum += wprefix[a : b - 1, None]
            table = cum[live]
            idx = kernels.search_guided(table, wprefix[a] + residuals, wprefix[a])
            _np.minimum(idx, table.size - 1, out=idx)
            return directory.slab[rows][live].take(idx).astype(float, copy=False)
        order = residuals.argsort()
        targets = wprefix[a] + residuals[order]
        ci = kernels.search_right(wprefix, targets)
        _np.clip(ci, a + 1, b - 1, out=ci)
        chunks = ci[_np.flatnonzero(_np.diff(ci, prepend=-1))]
        rows = directory.row_of[chunks]
        cum = kernels.cum_table(directory.wslab[rows])
        cum += wprefix[chunks - 1, None]
        idx = kernels.search_right(cum.ravel(), targets)
        touched, off = _np.divmod(_np.minimum(idx, cum.size - 1), cap)
        _np.minimum(off, directory.counts[chunks[touched]] - 1, out=off)
        out = _np.empty(residuals.size)
        out[order] = directory.slab[rows[touched], off]
        return out

    def sample_bulk_many(self, queries, *, seeds=None) -> list:
        """Answer many ``(lo, hi, t)`` queries in one batched pass.

        Results align with the input order; per-query distribution — and,
        for seeded queries (``seeds[i] is not None``), the exact draws —
        are identical to calling :meth:`sample_bulk` per query, which is
        what lets the batch engine and the serving layer coalesce weighted
        read runs without falling back to scalar loops.
        """
        from ..errors import InvalidQueryError

        queries = [(float(lo), float(hi), t) for lo, hi, t in queries]
        if seeds is None:
            seeds = [None] * len(queries)
        elif len(seeds) != len(queries):
            raise InvalidQueryError("seeds must align with queries")
        for lo, hi, t in queries:
            validate_query(lo, hi, t)
        queries = [(lo, hi, int(t)) for lo, hi, t in queries]
        return [
            self.sample_bulk(lo, hi, t, seed=seed)
            for (lo, hi, t), seed in zip(queries, seeds)
        ]

    # -- validation (tests) ----------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert slab and directory invariants (``O(n)``, tests only)."""
        directory = self._dir
        directory.check(self._s, self._n)
        assert directory.slab.dtype == self._dtype, "value plane dtype drift"
        assert directory.wslab.dtype == _np.float64, "weight plane not float64"
        assert directory.cap == self._cap, "slab rows not cap wide"
