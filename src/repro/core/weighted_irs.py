"""Weighted static IRS — extension X1 (canonical decomposition + alias).

Points carry nonnegative weights; a query returns samples where point ``p`` is
drawn with probability ``w(p) / w(P ∩ q)`` — exactly, with no rejection, so
the query bound is **worst case**:

* space ``O(n log n)`` — a segment tree over the sorted order where every
  canonical node stores a Walker alias table over the weights it covers;
* query ``O(log n + t)`` — decompose ``[x, y]`` into ``O(log n)`` canonical
  nodes plus two boundary runs, build a query-local alias table over their
  total weights, then two ``O(1)`` alias draws per sample.

To keep the constant on space low, the tree's leaves cover *blocks* of
``_BLOCK`` consecutive points rather than single points; the up-to-two
boundary runs that are not block-aligned (at most ``2·_BLOCK`` points) get a
query-local alias table, which costs ``O(1)`` amortized against the
``O(log n)`` setup.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import Iterable

import numpy as _np

from ..alias.walker import AliasTable
from ..errors import EmptyRangeError, InvalidWeightError
from ..rng import RandomSource
from ..rng import generator as _generator
from .base import RangeSampler, coerce_query_bounds, validate_point, validate_query

__all__ = ["WeightedStaticIRS"]

_BLOCK = 8


def _checked_planes(values, weights) -> tuple[list[float], list[float]]:
    """Materialize and validate aligned value/weight planes.

    Weights are validated *before* any sorting/zipping downstream: a NaN
    weight would otherwise poison sort-key comparisons and the prefix
    sums before ever being reported.  A NaN point is refused too
    (:func:`~repro.core.base.validate_point`).
    """
    values = [float(v) for v in values]
    weights = [float(w) for w in weights]
    if len(values) != len(weights):
        raise ValueError(
            f"values and weights differ in length: {len(values)} != {len(weights)}"
        )
    for w in weights:
        if not math.isfinite(w) or w < 0.0:
            raise InvalidWeightError(f"invalid weight: {w!r}")
    for value in values:
        validate_point(value)
    return values, weights


class WeightedStaticIRS(RangeSampler):
    """Static weighted independent range sampling.

    Parameters
    ----------
    values:
        Point coordinates (duplicates allowed).
    weights:
        Matching nonnegative finite weights.  A plane whose weights are all
        zero is legal (a weighted :class:`~repro.shard.ShardedIRS` builds
        such shards); sampling a range whose total weight is zero — any
        range of such a plane — raises :class:`~repro.errors.EmptyRangeError`.
    seed:
        Seed of the private random stream.
    """

    def __init__(
        self,
        values: Iterable[float],
        weights: Iterable[float],
        seed: int | None = None,
    ) -> None:
        values, weights = _checked_planes(values, weights)
        pairs = sorted(zip(values, weights), key=lambda p: p[0])
        self._build(pairs, seed)

    @classmethod
    def from_sorted(
        cls,
        values: Iterable[float],
        weights: Iterable[float],
        seed: int | None = None,
    ) -> "WeightedStaticIRS":
        """O(n) fast constructor over value-sorted input (skips the sort).

        ``values`` must be nondecreasing (verified in ``O(n)``, raising
        :class:`ValueError` otherwise); ``weights`` aligns with it.  The
        canonical-tree build still dominates the constructor, but the
        snapshot-recovery path uses this for uniformity with the other
        sampler kinds — and to skip re-sorting already-sorted planes.
        """
        values, weights = _checked_planes(values, weights)
        if any(a > b for a, b in zip(values, values[1:])):
            raise ValueError("from_sorted requires nondecreasing values")
        self = cls.__new__(cls)
        self._build(list(zip(values, weights)), seed)
        return self

    def _build(self, pairs: list[tuple[float, float]], seed: int | None) -> None:
        """Construct the canonical tree over value-sorted (value, weight)s."""
        self._values = [p[0] for p in pairs]
        self._weights = [p[1] for p in pairs]
        self._rng = RandomSource(seed)
        # Bulk-path state (see sample_bulk): the NumPy view of the sorted
        # values and the vectorized side stream, both built lazily on the
        # first bulk call so scalar-only users skip the O(n) copy.
        self._np_values = None
        self._np_prefix = None
        self._bulk_gen = None
        self._prefix = [0.0, *accumulate(self._weights)]
        n = len(self._values)
        # Number of leaf blocks, padded to a power of two for heap indexing.
        blocks = max(1, -(-n // _BLOCK))
        size = 1
        while size < blocks:
            size *= 2
        self._tree_size = size
        self._node_alias: list[AliasTable | None] = [None] * (2 * size)
        self._node_total = [0.0] * (2 * size)
        self._node_start = [0] * (2 * size)
        self._node_end = [0] * (2 * size)
        for node in range(2 * size - 1, 0, -1):
            if node >= size:
                start = (node - size) * _BLOCK
                end = min(start + _BLOCK, n)
            else:
                start = self._node_start[2 * node]
                end = self._node_end[2 * node + 1]
            start = min(start, n)
            end = max(start, min(end, n))
            self._node_start[node] = start
            self._node_end[node] = end
            if start < end:
                # Direct summation, not prefix differences: a prefix diff can
                # round to exactly 0.0 for a positive-weight range when a
                # huge weight absorbs a tiny one, and "total == 0" is a
                # semantic decision (EmptyRangeError), not a tolerance.
                total = math.fsum(self._weights[start:end])
                self._node_total[node] = total
                if total > 0.0:
                    self._node_alias[node] = AliasTable(self._weights[start:end])

    # -- bookkeeping -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._values)

    def rank_range(self, lo: float, hi: float) -> tuple[int, int]:
        """Return the half-open rank interval of points in ``[lo, hi]``."""
        validate_query(lo, hi, 0)
        return bisect_left(self._values, lo), bisect_right(self._values, hi)

    def count(self, lo: float, hi: float) -> int:
        a, b = self.rank_range(lo, hi)
        return b - a

    def report(self, lo: float, hi: float) -> list[float]:
        a, b = self.rank_range(lo, hi)
        return self._values[a:b]

    def total_weight(self, lo: float, hi: float) -> float:
        """Return ``w(P ∩ [lo, hi])`` (prefix-sum difference)."""
        a, b = self.rank_range(lo, hi)
        return self._prefix[b] - self._prefix[a]

    def peek_counts(self, queries):
        """Vectorized multi-range count: one ``searchsorted`` per bound set.

        ``queries`` is a sequence of ``(lo, hi)`` pairs; the result is a
        NumPy ``int64`` array of ``|P ∩ [lo, hi]|`` aligned with the input
        — the same count-probe primitive the other sampler kinds expose,
        so :meth:`repro.batch.BatchQueryRunner.run_counts` and the shard
        planner never fall back to scalar loops on weighted structures.
        """
        los, his = coerce_query_bounds(queries)
        arr = self.export_sorted()
        return _np.searchsorted(arr, his, side="right") - _np.searchsorted(
            arr, los, side="left"
        )

    def peek_weights(self, queries):
        """Vectorized multi-range mass probe (``w(P ∩ [lo, hi])`` each).

        Two ``searchsorted`` passes resolve every query's rank interval,
        then the masses are prefix-sum differences — ``O(q log n)`` total,
        results bit-identical to per-query :meth:`total_weight` (the NumPy
        prefix is converted from, not recomputed beside, the scalar one).
        """
        los, his = coerce_query_bounds(queries)
        arr = self.export_sorted()
        if self._np_prefix is None:
            self._np_prefix = _np.asarray(self._prefix, dtype=float)
        a = _np.searchsorted(arr, los, side="left")
        b = _np.searchsorted(arr, his, side="right")
        return self._np_prefix[b] - self._np_prefix[a]

    def range_weight(self, lo: float, hi: float) -> float:
        """Alias of :meth:`total_weight` under the dynamic sampler's name.

        The shard planner probes in-range weight mass through one method
        name regardless of whether a shard is static or dynamic.
        """
        return self.total_weight(lo, hi)

    def export_sorted(self):
        """Return the sorted points as a NumPy array (shard-engine hook)."""
        if self._np_values is None:
            self._np_values = _np.asarray(self._values, dtype=float)
        return self._np_values

    def export_sorted_pairs(self):
        """Return ``(values, weights)`` sorted by value (shard-engine hook)."""
        return self.export_sorted(), _np.asarray(self._weights, dtype=float)

    def weight_at_rank(self, rank: int) -> float:
        """Return the weight of the point with the given global rank."""
        return self._weights[rank]

    # -- sampling ------------------------------------------------------------------

    def _decompose(self, a: int, b: int):
        """Split rank range ``[a, b)`` into parts.

        Each part is ``(total_weight, alias_table, global_offset)``; parts
        with zero weight are dropped.  At most two parts are query-local
        boundary runs of fewer than ``2·_BLOCK`` points; the rest are
        precomputed canonical nodes.
        """
        parts: list[tuple[float, AliasTable, int]] = []

        def add_run(p: int, q: int) -> None:
            if p >= q:
                return
            total = math.fsum(self._weights[p:q])  # see build note on fsum
            if total > 0.0:
                parts.append((total, AliasTable(self._weights[p:q]), p))

        bl = -(-a // _BLOCK)  # first fully covered block
        br = b // _BLOCK  # one past the last fully covered block
        if bl >= br:
            add_run(a, b)
            return parts
        add_run(a, bl * _BLOCK)
        add_run(br * _BLOCK, b)
        lt = bl + self._tree_size
        rt = br + self._tree_size
        while lt < rt:
            if lt & 1:
                if self._node_total[lt] > 0.0:
                    parts.append(
                        (self._node_total[lt], self._node_alias[lt], self._node_start[lt])
                    )
                lt += 1
            if rt & 1:
                rt -= 1
                if self._node_total[rt] > 0.0:
                    parts.append(
                        (self._node_total[rt], self._node_alias[rt], self._node_start[rt])
                    )
            lt >>= 1
            rt >>= 1
        return parts

    def sample_ranks(self, lo: float, hi: float, t: int) -> list[int]:
        """Return ``t`` independent weighted samples as global ranks."""
        validate_query(lo, hi, t)
        if t == 0:
            return []
        a, b = self.rank_range(lo, hi)
        if b <= a:
            raise EmptyRangeError("no points inside the query range")
        parts = self._decompose(a, b)
        if not parts:
            raise EmptyRangeError("query range has zero total weight")
        top = AliasTable([p[0] for p in parts])
        rng = self._rng
        out = []
        for _ in range(t):
            _total, alias, offset = parts[top.sample(rng)]
            out.append(offset + alias.sample(rng))
        return out

    def sample(self, lo: float, hi: float, t: int) -> list[float]:
        values = self._values
        return [values[r] for r in self.sample_ranks(lo, hi, t)]

    def sample_ranks_bulk(self, lo: float, hi: float, t: int, *, seed=None):
        """Vectorized :meth:`sample_ranks` returning a NumPy int array.

        The two-level alias scheme vectorizes cleanly: one bulk draw over
        the query-local top table assigns every sample to a canonical part,
        then one bulk draw per *distinct* part (``O(log n)`` of them) picks
        the in-part indices.  Randomness comes from a NumPy side stream
        spawned once via :meth:`RandomSource.spawn_numpy`, so draw
        accounting differs from the scalar path; an explicit ``seed``
        overrides the side stream (seed-addressable draws).
        """
        validate_query(lo, hi, t)
        if t == 0:
            return _np.empty(0, dtype=_np.int64)
        a, b = self.rank_range(lo, hi)
        if b <= a:
            raise EmptyRangeError("no points inside the query range")
        parts = self._decompose(a, b)
        if not parts:
            raise EmptyRangeError("query range has zero total weight")
        if self._bulk_gen is None:
            self._bulk_gen = self._rng.spawn_numpy()
            self._np_values = _np.asarray(self._values, dtype=float)
        gen = self._bulk_gen if seed is None else _generator(seed)
        top = AliasTable([p[0] for p in parts])
        part_of = top.sample_bulk(gen, t)
        ranks = _np.empty(t, dtype=_np.int64)
        for i, (_total, alias, offset) in enumerate(parts):
            sel = part_of == i
            k = int(sel.sum())
            if k:
                ranks[sel] = alias.sample_bulk(gen, k) + offset
        return ranks

    def sample_bulk(self, lo: float, hi: float, t: int, *, seed=None):
        """Vectorized :meth:`sample` returning a NumPy float array."""
        ranks = self.sample_ranks_bulk(lo, hi, t, seed=seed)
        if self._np_values is None:  # t == 0 short-circuits the lazy build
            self._np_values = _np.asarray(self._values, dtype=float)
        return self._np_values[ranks]
