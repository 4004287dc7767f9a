"""Shared slab-backed chunk directory engine (DESIGN.md §8, §13).

Both dynamic samplers — :class:`~repro.core.dynamic_irs.DynamicIRS`
(uniform) and :class:`~repro.core.weighted_dynamic.WeightedDynamicIRS`
(weight-proportional) — store their points in sorted *chunks* of
``Θ(log n)`` values.  This module owns the chunks' storage and geometry;
the samplers own the sampling policy.

Storage is one **slab**: a 2-D array of shape ``(rows, cap)`` in the
structure's value dtype (float32 or float64), plus an aligned float64
weight slab for weighted directories.  Every chunk is one row: its
``counts[i]`` live values fill the row's first cells in sorted order and
the cells after them are padding.  This is the paper's density-bounded
packed array (R2) with one block of cells per chunk.  In chunk order the
directory keeps

* ``row_of`` — each chunk's slab row.  A split or merge shifts it with
  the other columns; a freed row goes on a free list and is handed out
  again before the slab grows;
* ``maxes`` / ``mins`` (float64) and ``counts`` (int64), plus ``wtotals``
  (float64) for weighted directories.  They are dtype-invariant — float32
  values widen exactly — so routing is the same under either plane dtype.

Two rules keep the padding harmless:

* ``±inf`` are legal points, so padding is never read as data: every
  search or compare over a row is clamped to the row's live count;
* weight padding holds ``0.0``, so a cumulative sum over a whole row is
  exact on its live prefix.

The engine provides:

* boundary routing — "first chunk whose max ≥ x" / "last chunk whose
  min ≤ y" — as one C-level ``searchsorted`` per endpoint;
* counting from count geometry: the whole chunks between a range's
  boundary chunks are one C-level sum over their counts, so a count
  reads no prefix;
* rank addressing through explicit **rank frames**.  A frame is the
  union of the chunk runs a read's ranges span with an int64 ``cumsum``
  over just their counts (:meth:`ChunkDirectory.frame`); a frame rank
  differs from the global rank by a constant inside each run, so the
  rank interval of a key range and the chunk/offset of a rank drawn in
  it are the same points whatever the frame — the layout-independent
  coordinates the seeded samplers draw in.  The whole-directory prefix
  is a plain cache that every count change empties; a read uses it when
  it is warm, and while it is cold frames only its own runs, until the
  chunks framed since the last count change add up to the directory's
  size — then it builds the whole prefix once and keeps it (ski rental,
  with the directory's own size as the price of buying).  The weight
  prefix of a weighted directory is a memo over ``wtotals`` that a
  re-cut or a bulk pass empties and a scalar write marks stale from its
  chunk on; the weighted draws read its float bits, so a read re-folds
  the stale suffix from the entry before it, which gives the bits of a
  fresh ``cumsum``;
* every update, none of them a Python loop over chunks: a scalar insert
  or delete shifts one row in place; a bulk insert merges the sorted
  batch into all touched rows in one pass; a bulk delete finds every
  value in the touched rows (a run of copies that crosses a chunk, by
  rank) and takes the hits out of them in one pass; and one re-cut
  primitive (:meth:`ChunkDirectory.recut`) replaces chunk runs by
  balanced pieces — the scalar split, the merge of an under-full chunk,
  the bulk split, the removal of an emptied chunk and the normalization
  after a bulk delete.
"""

from __future__ import annotations

import numpy as _np  # a hard dependency of the package (pyproject.toml)

from ..errors import KeyNotFoundError
from . import kernels

__all__ = ["ChunkDirectory", "build_sizes"]


def build_sizes(n: int, s: int, cap: int):
    """Chunk sizes of a fresh build over ``n`` points (an int64 array).

    Runs of ``3s/2`` points, the midpoint of the ``[s, 2s]`` window, so
    fresh chunks have slack on both sides: deletes can borrow instead of
    merging and inserts absorb ``s/2`` points before the first split.  A
    tail shorter than ``s`` joins the run before it, halved again if that
    overflows ``cap``.
    """
    step = (3 * s) // 2
    whole, tail = divmod(n, step)
    sizes = _np.full(whole + (tail > 0), step, dtype=_np.int64)
    if tail:
        sizes[-1] = tail
    if sizes.size > 1 and tail and tail < s:
        merged = step + tail
        sizes = sizes[:-1]
        if merged > cap:
            sizes[-1] = merged // 2
            sizes = _np.append(sizes, merged - merged // 2)
        else:
            sizes[-1] = merged
    return sizes


def _spans(first, last):
    """Chunk indices of the runs ``first[g] .. last[g]``, concatenated."""
    runs = last - first + 1
    return (first - (runs.cumsum() - runs)).repeat(runs) + _np.arange(runs.sum())


def _union(first, last):
    """Ascending indices of the chunks in the runs ``first[g] .. last[g]``.

    ``first`` and ``last`` are int64 arrays, or two ints for one run; runs
    may overlap and come in any order.
    """
    if _np.ndim(first) == 0:
        return _np.arange(first, last + 1)
    if first.size == 1:
        return _np.arange(first[0], last[0] + 1)
    order = first.argsort()
    first, reach = first[order], _np.maximum.accumulate(last[order])
    opens = _np.ones(first.size, dtype=bool)
    _np.greater(first[1:], reach[:-1], out=opens[1:])
    heads = _np.flatnonzero(opens)
    return _spans(first[heads], reach[_np.append(heads[1:], first.size) - 1])


def _runs(keys):
    """Start index and length of each run of equal entries of sorted ``keys``."""
    m = keys.size
    edges = _np.empty(m + 1, dtype=bool)
    edges[0] = edges[m] = True
    _np.not_equal(keys[1:], keys[:-1], out=edges[1:m])
    edges = edges.nonzero()[0]
    return edges[:-1], edges[1:] - edges[:-1]


def _copy_rank(keys):
    """Each entry's rank among the equal entries before it in sorted ``keys``."""
    heads, sizes = _runs(keys)
    if heads.size == keys.size:
        return 0
    return _np.arange(keys.size) - heads.repeat(sizes)


class ChunkDirectory:
    """Slab-backed directory over an ordered chunk sequence.

    The owning sampler holds the chunk *policy* (how to draw from a plan);
    the directory holds the chunk *storage and geometry*: the slab rows,
    their key extents, counts (and masses), and every repair pass that
    keeps the ``[s, 2s]`` size invariant.
    """

    __slots__ = (
        "weighted",
        "cap",
        "slab",
        "wslab",
        "_prefixes",
        "row_of",
        "free",
        "top",
        "maxes",
        "mins",
        "counts",
        "wtotals",
        "_prefix",
        "_framed",
        "_wprefix",
        "_wstale",
    )

    def __init__(self, dtype, weighted: bool = False) -> None:
        self.weighted = weighted
        self.load(_np.empty(0, dtype=dtype), _np.empty(0), 1, 2)

    # -- (re)construction --------------------------------------------------

    def load(self, values, weights, s: int, cap: int) -> None:
        """Install sorted ``values`` (and aligned ``weights``) as fresh chunks.

        One row per piece of :func:`build_sizes`, in chunk order, in a slab
        sized to fit exactly (it grows on demand).  The values are copied
        once, straight into the slab.
        """
        sizes = build_sizes(int(values.size), s, cap)
        k = int(sizes.size)
        self.cap = cap
        #: ``_prefixes[c]`` masks the first ``c`` cells of a row.
        self._prefixes = _np.tri(cap + 1, cap, -1, dtype=bool)
        live = self._live(sizes)
        self.slab = _np.zeros((k, cap), dtype=values.dtype)
        self.slab[live] = values
        self.row_of = _np.arange(k, dtype=_np.int64)
        self.free: list[int] = []
        self.top = k
        self.counts = sizes
        ends = _np.cumsum(sizes)
        self.mins = values[ends - sizes].astype(float)
        self.maxes = values[ends - 1].astype(float)
        self.wslab = self.wtotals = None
        if self.weighted:
            self.wslab = _np.zeros((k, cap))
            self.wslab[live] = weights
            self.wtotals = kernels.cum_table(self.wslab)[:, -1]
        self.invalidate_prefix()

    def __len__(self) -> int:
        return int(self.counts.size)

    # -- rows --------------------------------------------------------------

    def _live(self, counts):
        """Mask of the live cells of rows holding ``counts`` points each."""
        return self._prefixes.take(counts, axis=0)

    def row(self, i: int):
        """Chunk ``i``'s live values: a view of its slab row."""
        return self.slab[self.row_of[i], : self.counts[i]]

    def wrow(self, i: int):
        """Chunk ``i``'s live weights: a view of its weight-slab row."""
        return self.wslab[self.row_of[i], : self.counts[i]]

    def gather(self, idx=slice(None)):
        """Live cells of the chunks ``idx`` (ascending), in chunk order.

        Returns fresh ``(values, weights)`` arrays — ``weights`` is ``None``
        for an unweighted directory.  With the default ``idx`` this is the
        whole sorted multiset.
        """
        rows = self.row_of[idx]
        live = self._live(self.counts[idx])
        weights = self.wslab[rows][live] if self.weighted else None
        return self.slab[rows][live], weights

    def cells(self, ranks, frame):
        """Slab coordinates ``(rows, offsets)`` of ``frame``'s ``ranks``."""
        ci, off = self._chunks_at(ranks, frame)
        return self.row_of[ci], off

    def _alloc(self, k: int):
        """Hand out ``k`` rows: freed rows first, then fresh ones."""
        free = self.free
        reuse = min(k, len(free))
        rows = free[len(free) - reuse :]
        del free[len(free) - reuse :]
        fresh = k - reuse
        if fresh:
            top = self.top
            if top + fresh > self.slab.shape[0]:
                self._grow(top + fresh)
            rows += range(top, top + fresh)
            self.top = top + fresh
        return _np.asarray(rows, dtype=_np.int64)

    def _grow(self, need: int) -> None:
        """Reallocate the slabs with room for at least ``need`` rows."""
        size = max(need, self.slab.shape[0] * 5 // 4 + 8)
        slab = _np.zeros((size, self.cap), dtype=self.slab.dtype)
        slab[: self.top] = self.slab[: self.top]
        self.slab = slab
        if self.weighted:
            wslab = _np.zeros((size, self.cap))
            wslab[: self.top] = self.wslab[: self.top]
            self.wslab = wslab

    def _release(self, rows) -> None:
        """Put rows on the free list (weight rows zeroed first)."""
        if self.weighted:
            self.wslab[rows] = 0.0
        self.free += rows.tolist()

    # -- boundary routing --------------------------------------------------

    def edges(self, lo: float, hi: float):
        """Boundary chunks of ``[lo, hi]`` and the in-row offsets of its ends.

        Returns ``(a, la, b, rb)`` — the range starts at offset ``la`` of
        chunk ``a`` (the first chunk whose max ≥ ``lo``) and ends before
        offset ``rb`` of chunk ``b`` (the last chunk whose min ≤ ``hi``) —
        or ``None`` when ``b < a``.  Bounds must already be rounded
        through the value-plane dtype.
        """
        a = kernels.search_left_scalar(self.maxes, lo)
        b = kernels.search_right_scalar(self.mins, hi) - 1
        if b < a or a == self.maxes.size:
            return None
        slab, row_of, counts = self.slab, self.row_of, self.counts
        la = kernels.search_left_scalar(slab[row_of[a], : counts[a]], lo)
        rb = kernels.search_right_scalar(slab[row_of[b], : counts[b]], hi)
        return a, la, b, rb

    # -- rank frames -------------------------------------------------------

    def ensure_prefix(self):
        """Return the inclusive prefix sum over all chunk counts (cached).

        A plain memo: one ``cumsum`` when the cache is empty, and every
        count change empties it (:meth:`note_delta`,
        :meth:`invalidate_prefix`).  Only :meth:`frame` calls it, and only
        once the reads since the last count change have framed as many
        chunks as the directory holds; a count
        (:meth:`points_between`) never does.
        """
        if self._prefix is None:
            self._prefix = _np.cumsum(self.counts)
        return self._prefix

    def frame(self, first, last):
        """The rank frame of a read over the chunk runs ``first[g] .. last[g]``.

        A frame is ``(chunks, ends)``: the ascending union of the runs'
        chunk indices and the inclusive ``cumsum`` of their counts.  A
        frame rank counts the framed points before a point, so inside one
        run it is the global rank less the points of the unframed chunks
        before the run, and a rank interval drawn in a run names the same
        points in any frame that holds the run.  When the whole-directory
        prefix is cached the frame is the whole directory: ``chunks`` is
        ``None`` and ``ends`` the prefix.  While it is cold a read frames
        only its own runs, until the chunks framed since the last count
        change reach ``len(self)``; that read builds the whole prefix
        (:meth:`ensure_prefix`), which serves every read until the next
        count change.  ``first``/``last`` are int64 arrays, or two ints
        for one run.
        """
        if self._prefix is None:
            chunks = _union(first, last)
            self._framed += chunks.size
            if self._framed < len(self):
                return chunks, self.counts[chunks].cumsum()
        return None, self.ensure_prefix()

    def starts_at(self, idx, frame):
        """Frame rank of the first point of each chunk in ``idx`` (all framed)."""
        chunks, ends = frame
        pos = idx if chunks is None else chunks.searchsorted(idx)
        return ends[pos] - self.counts[idx]

    def _chunks_at(self, ranks, frame):
        """Chunk index and in-chunk offset of each of ``frame``'s ``ranks``."""
        chunks, ends = frame
        pos = kernels.search_right(ends, ranks)
        ci = pos if chunks is None else chunks[pos]
        return ci, ranks - (ends[pos] - self.counts[ci])

    def rank_bounds(self, los, his):
        """Rank intervals ``[start, end)`` of ranges ``[lo, hi]``, and their frame.

        Returns ``(starts, ends, frame)``: the :meth:`frame` over every
        range's boundary chunks and the chunks between them, and each
        range's interval in that frame's ranks.  ``start`` counts the
        framed points below ``lo`` and ``end`` those at or below ``hi``,
        so ``end - start`` is the in-range count and the ranks in between
        name the in-range points in order, whatever the chunk layout; in
        the whole-directory frame they are the numbers two
        ``searchsorted`` calls over the flat sorted multiset give.
        Boundary chunks of all ranges come from one ``searchsorted`` over
        ``maxes`` and one over ``mins``, and every in-chunk offset from
        one ``k × cap`` compare over the boundary rows.  Bounds must
        already be rounded through the value-plane dtype.
        """
        k = len(self)
        if not k:
            zeros = _np.zeros(len(los), dtype=_np.int64)
            return zeros, zeros, (None, zeros[:0])
        # A bound past either end still lands on its edge chunk, where the
        # in-chunk search then counts all of it or none of it.
        a_idx = _np.searchsorted(self.maxes, los, side="left")
        b_idx = _np.searchsorted(self.mins, his, side="right") - 1
        _np.minimum(a_idx, k - 1, out=a_idx)
        _np.maximum(b_idx, 0, out=b_idx)
        # An empty range can end one chunk before it starts (b = a - 1).
        frame = self.frame(_np.minimum(a_idx, b_idx), _np.maximum(a_idx, b_idx))
        q = len(los)
        idx = _np.concatenate((a_idx, b_idx))
        block = self.slab[self.row_of[idx]]
        counts = self.counts[idx]
        offsets = _np.concatenate((
            kernels.search_rows(block[:q], counts[:q], los, False),
            kernels.search_rows(block[q:], counts[q:], his, True),
        ))
        bounds = self.starts_at(idx, frame) + offsets
        return bounds[:q], bounds[q:], frame

    def invalidate_prefix(self) -> None:
        """Drop both prefix caches (chunk indices or many rows changed)."""
        self._prefix = self._wprefix = None
        self._framed = self._wstale = 0

    def note_delta(self, i: int, dcount: int, dweight: float = 0.0) -> None:
        """Record a scalar count/weight change of chunk ``i``.

        A count change empties the count prefix and restarts the count of
        framed chunks (:meth:`frame`); a weight change marks the weight
        prefix stale from chunk ``i`` on (:meth:`ensure_wprefix`).
        """
        if dcount:
            self._prefix = None
            self._framed = 0
        if dweight:
            self._wstale = min(self._wstale, i)

    def points_between(self, a: int, b: int) -> int:
        """Points in chunks strictly between indices ``a`` and ``b``.

        One C-level sum over their counts; no prefix is read or built.
        """
        if b - a <= 1:
            return 0
        return int(self.counts[a + 1 : b].sum())

    def points_in(self, lo: float, hi: float) -> int:
        """Points in ``[lo, hi]``, from count geometry alone.

        The boundary chunks and in-row offsets of :meth:`edges`, plus the
        whole chunks between them as one sum over their counts
        (:meth:`points_between`): ``O(log n)`` searches and one C-level
        sum over the ``k ≤ n/s`` chunks the range spans, with no prefix
        and no weight read.  Bounds must already be rounded through the
        value-plane dtype.
        """
        edges = self.edges(lo, hi)
        if edges is None:
            return 0
        a, la, b, rb = edges
        if a == b:
            return max(rb - la, 0)
        return int(self.counts[a]) - la + self.points_between(a, b) + rb

    # -- lazy weight prefix (weighted directories only) --------------------

    def ensure_wprefix(self):
        """Return the inclusive prefix sum over chunk masses (cached).

        One ``cumsum(wtotals)`` when the cache is empty; a re-cut or a bulk
        pass empties it.  A scalar write only marks it stale from the
        lowest chunk whose mass changed (:meth:`note_delta`), and the next
        call re-folds that suffix in place from the entry before it.
        ``cumsum`` is a left fold, so the bits are those of a fresh
        ``cumsum``, and a read after a write pays for the chunks after
        the write, not for all of them.  Callers must not mutate the array,
        nor keep it across a write (the re-fold rewrites it in place).
        """
        wprefix = self._wprefix
        if wprefix is None:
            wprefix = self._wprefix = _np.cumsum(self.wtotals)
        elif self._wstale < wprefix.size:
            i = self._wstale
            tail = self.wtotals[i:].copy()
            if i:
                tail[0] += wprefix[i - 1]
            _np.cumsum(tail, out=wprefix[i:])
        self._wstale = wprefix.size
        return wprefix

    def weight_between(self, a: int, b: int) -> float:
        """Mass of chunks strictly between indices ``a`` and ``b``."""
        if b - a <= 1:
            return 0.0
        wprefix = self.ensure_wprefix()
        return float(wprefix[b - 1] - wprefix[a])

    @property
    def total_weight(self) -> float:
        """Sum of all chunk masses (0.0 for an empty directory)."""
        if not len(self):
            return 0.0
        return float(self.ensure_wprefix()[-1])

    # -- scalar updates ------------------------------------------------------

    def _refresh(self, i: int, row, c: int) -> None:
        """Repair chunk ``i``'s key extents (and mass) from its ``c``-cell row."""
        self.maxes[i] = row[c - 1]
        self.mins[i] = row[0]
        if self.weighted:
            self.wtotals[i] = kernels.cum_table(self.wslab[self.row_of[i]])[-1]

    def locate(self, value: float) -> tuple[int, int]:
        """Chunk and offset of the first stored occurrence of ``value``.

        Raises :class:`~repro.errors.KeyNotFoundError` if it is absent.
        """
        i = kernels.search_left_scalar(self.maxes, value)
        if i < self.counts.size:
            row = self.row(i)
            j = kernels.search_left_scalar(row, value)
            if j < row.size and row[j] == value:
                return i, j
        raise KeyNotFoundError(f"value not present: {value!r}")

    def insert(
        self, value: float, weight: float = 0.0, before_equal: bool = False
    ) -> None:
        """Insert one point into a nonempty directory.

        One search over ``maxes`` routes it (past the global max: the last
        chunk), one search places it in its row — after equal points, or
        before them with ``before_equal`` — and the row's tail shifts one
        cell right in place.  A full row instead re-cuts into two balanced
        chunks.
        """
        i = min(kernels.search_left_scalar(self.maxes, value), self.counts.size - 1)
        r = int(self.row_of[i])
        c = int(self.counts[i])
        row = self.slab[r]
        if before_equal:
            pos = kernels.search_left_scalar(row[:c], value)
        else:
            pos = kernels.search_right_scalar(row[:c], value)
        if c == self.cap:
            weights = _np.insert(self.wslab[r], pos, weight) if self.weighted else None
            self.recut([i], [i], _np.insert(row, pos, value), weights, [c + 1])
            return
        row[pos + 1 : c + 1] = row[pos:c]
        row[pos] = value
        if self.weighted:
            wrow = self.wslab[r]
            wrow[pos + 1 : c + 1] = wrow[pos:c]
            wrow[pos] = weight
        self.counts[i] = c + 1
        self._refresh(i, row, c + 1)
        self.note_delta(i, 1, weight)

    def delete(self, value: float, s: int) -> float:
        """Delete the first stored occurrence of ``value``; return its weight.

        The row's tail shifts one cell left in place; an emptied chunk is
        dropped and an under-full one repaired.  Raises
        :class:`~repro.errors.KeyNotFoundError` if ``value`` is absent.
        """
        i, j = self.locate(value)
        r = int(self.row_of[i])
        c = int(self.counts[i]) - 1
        row = self.slab[r]
        row[j:c] = row[j + 1 : c + 1]
        weight = 0.0
        if self.weighted:
            wrow = self.wslab[r]
            weight = float(wrow[j])
            wrow[j:c] = wrow[j + 1 : c + 1]
            wrow[c] = 0.0
        self.counts[i] = c
        self.note_delta(i, -1, -weight)
        if c == 0:
            self.recut([i], [i], row[:0], _np.empty(0), [0])
            return weight
        self._refresh(i, row, c)
        if c < s and self.counts.size > 1:
            self._repair_underfull(i, s)
        return weight

    def set_weight(self, i: int, j: int, weight: float) -> float:
        """Re-weight the point at offset ``j`` of chunk ``i`` in place.

        Returns the old weight; the chunk's mass is recomputed and the
        weight prefix goes stale from chunk ``i`` on.
        """
        r = self.row_of[i]
        old = float(self.wslab[r, j])
        self.wslab[r, j] = weight
        self._refresh(i, self.slab[r], int(self.counts[i]))
        self.note_delta(i, 0, weight - old)
        return old

    def _repair_underfull(self, i: int, s: int) -> None:
        """Restore the size invariant of an under-full chunk.

        Borrowing one boundary element from a neighbor with slack is two
        row shifts and leaves the directory's shape untouched; only when
        both neighbors sit at exactly ``s`` does the chunk merge with one
        — the result is ``2s - 1 ≤ cap``, so a merge can never cascade
        into a split.
        """
        counts = self.counts
        k = counts.size
        if i + 1 < k and counts[i + 1] > s:
            self._borrow(i, i + 1)
        elif i > 0 and counts[i - 1] > s:
            self._borrow(i, i - 1)
        else:
            lo = i if i + 1 < k else i - 1
            values, weights = self.gather(slice(lo, lo + 2))
            self.recut([lo], [lo + 1], values, weights, [values.size])

    def _borrow(self, i: int, j: int) -> None:
        """Move neighbor ``j``'s element next to chunk ``i`` into ``i``."""
        ri, rj = int(self.row_of[i]), int(self.row_of[j])
        ci, cj = int(self.counts[i]), int(self.counts[j])
        at = 0 if j > i else cj - 1  # the neighbor's cell that moves
        moved = float(self.wslab[rj, at]) if self.weighted else 0.0
        for plane in (self.slab, self.wslab) if self.weighted else (self.slab,):
            mine, theirs = plane[ri], plane[rj]
            if j > i:
                mine[ci] = theirs[0]
                theirs[: cj - 1] = theirs[1:cj]
            else:
                mine[1 : ci + 1] = mine[:ci]
                mine[0] = theirs[at]
        if self.weighted:
            self.wslab[rj, cj - 1] = 0.0
        self.counts[i] = ci + 1
        self.counts[j] = cj - 1
        self._refresh(i, self.slab[ri], ci + 1)
        self._refresh(j, self.slab[rj], cj - 1)
        self.note_delta(min(i, j), 1, moved)

    # -- bulk updates --------------------------------------------------------

    def _rows(self, touched):
        """Gather the rows of chunks ``touched`` (ascending) for a bulk pass.

        Returns ``(rows, counts, block, wblock, live)``: the slab rows, the
        live counts, fresh copies of the value (and weight) rows and the
        mask of their live cells.
        """
        rows = self.row_of[touched]
        counts = self.counts[touched]
        wblock = self.wslab.take(rows, axis=0) if self.weighted else None
        return rows, counts, self.slab.take(rows, axis=0), wblock, self._live(counts)

    def _write(self, touched, rows, block, wblock, counts, values, weights) -> None:
        """Write new contents into the rows of chunks ``touched``.

        ``block`` (and ``wblock``) are the rows' cells, gathered or fresh;
        the new contents fill their first ``counts`` cells and the weight
        padding is zeroed before the rows go back into the slab.
        """
        live = self._live(counts)
        block[live] = values
        self.slab[rows] = block
        ends = counts.cumsum()
        self.counts[touched] = counts
        self.mins[touched] = values[ends - counts]
        self.maxes[touched] = values[ends - 1]
        if self.weighted:
            wblock[live] = weights
            wblock[~live] = 0.0
            self.wslab[rows] = wblock
            self.wtotals[touched] = kernels.cum_table(wblock)[:, -1]

    def merge(self, batch, weights=None) -> None:
        """Merge a sorted batch into the chunks: one pass over the touched rows.

        One ``searchsorted`` over ``maxes`` routes every value (values past
        the global max join the last chunk).  The touched rows' live cells
        are gathered, the batch is merged into them — stored elements
        first on ties, the weights riding along — and the rows are written
        back; if one overflows its row, :meth:`recut` splits it instead.
        """
        pos = self.maxes.searchsorted(batch)
        _np.minimum(pos, len(self) - 1, out=pos)
        touched, added = _runs(pos)
        touched = pos[touched]
        rows, counts, block, wblock, live = self._rows(touched)
        flat = block[live]
        slots = kernels.merge_slots(flat, batch, counts.cumsum().repeat(added))
        merged = kernels.interleave(flat, batch, slots)
        wmerged = None
        if self.weighted:
            wmerged = kernels.interleave(wblock[live], weights, slots)
        counts += added
        if (counts > self.cap).any():
            self.recut(touched, touched, merged, wmerged, counts)
        else:
            self._write(touched, rows, block, wblock, counts, merged, wmerged)
            self.invalidate_prefix()

    def remove(self, batch, s: int):
        """Remove one stored occurrence per value of a sorted batch, atomically.

        Equal batch values take consecutive occurrences, starting with the
        first in key order — the ones a loop of scalar deletes would take.
        Each value is routed like an insert and found in the concatenated
        live cells of the touched rows; the whole batch is verified before
        anything changes, and a value with too few stored copies raises
        :class:`~repro.errors.KeyNotFoundError` (the smallest such value is
        named).  The hits then leave the rows in one pass.  A chunk that
        empties or falls under ``s`` is dropped or folded by
        :meth:`normalize`.  Returns the removed weights in batch order
        (``None`` when unweighted).
        """
        if not len(self):
            raise KeyNotFoundError(f"value not present: {float(batch[0])!r}")
        pos = self.maxes.searchsorted(batch)
        _np.minimum(pos, len(self) - 1, out=pos)
        touched, hits = _runs(pos)
        touched = pos[touched]
        rows, counts, block, wblock, live = self._rows(touched)
        flat = block[live]
        at = flat.searchsorted(batch) + _copy_rank(batch)
        if (at >= counts.cumsum().repeat(hits)).any():
            # A run of copies continues past its chunk (or a value lies
            # past the global max): resolve by rank instead.
            ci, off = self._find(batch)
            touched, hits = _runs(ci)
            touched = ci[touched]
            rows, counts, block, wblock, live = self._rows(touched)
            flat = block[live]
            at = (counts.cumsum() - counts).repeat(hits) + off
        else:
            missing = flat[at] != batch
            if missing.any():
                raise KeyNotFoundError(
                    f"value not present: {float(batch[missing][0])!r}"
                )
        kept = kernels.take_out(flat, at)
        removed = wkept = None
        if self.weighted:
            wflat = wblock[live]
            removed = wflat[at]
            wkept = kernels.take_out(wflat, at)
        counts -= hits
        if (counts < s).any():
            self.recut(touched, touched, kept, wkept, counts)
            self.normalize(s)
        else:
            self._write(touched, rows, block, wblock, counts, kept, wkept)
            self.invalidate_prefix()
        return removed

    def _find(self, batch):
        """Rank twin of :meth:`remove`'s search, for runs of copies that
        cross a chunk boundary: ascending ``(chunk, offset)`` arrays."""
        heads, sizes = _runs(batch)
        starts, ends, frame = self.rank_bounds(batch[heads], batch[heads])
        run = _np.arange(heads.size).repeat(sizes)
        ranks = starts[run] + _copy_rank(batch)
        short = ranks >= ends[run]
        if short.any():
            raise KeyNotFoundError(f"value not present: {float(batch[short][0])!r}")
        return self._chunks_at(ranks, frame)

    def normalize(self, s: int) -> None:
        """Fold every chunk under ``s`` into a neighbor, in one pass.

        Each maximal run of under-full chunks joins the chunk after it —
        at the end of the list, the chunk before it — and :meth:`recut`
        re-cuts each such group into balanced pieces.  A lone under-full
        chunk that is the whole structure stays as it is.
        """
        under = self.counts < s
        if not under.any():
            return
        k = len(self)
        opens = _np.ones(k, dtype=bool)
        opens[1:] = ~under[:-1]
        heads = _np.flatnonzero(opens)
        if under[-1] and heads.size > 1:
            heads = heads[:-1]  # the trailing run has no chunk after it
        tails = _np.append(heads[1:], k) - 1
        grouped = tails > heads
        first, last = heads[grouped], tails[grouped]
        members = _spans(first, last)
        values, weights = self.gather(members)
        runs = last - first + 1
        totals = _np.add.reduceat(self.counts[members], _np.cumsum(runs) - runs)
        self.recut(first, last, values, weights, totals)

    def recut(self, first, last, values, weights, totals) -> None:
        """Replace chunk runs by balanced pieces of their new contents.

        Run ``g`` is chunks ``first[g] .. last[g]`` (runs ascending and
        disjoint); its new sorted contents are the next ``totals[g]``
        entries of ``values`` (and ``weights``).  Each run becomes
        ``ceil(totals[g] / cap)`` pieces whose sizes differ by at most one
        — none for an empty run — so every piece lands within ``[s, 2s]``
        whenever the run holds more than ``cap = 2s`` points.  A run's
        rows are reused for its pieces in order; extra pieces take rows
        from the free list and unused rows go back to it.  Whole rows are
        written, padding included.  When every run keeps its chunk count
        the directory columns are patched in place; otherwise they are
        reassembled once, ``O(n/s)``, before the pieces are written.
        """
        cap = self.cap
        first = _np.asarray(first, dtype=_np.int64)
        last = _np.asarray(last, dtype=_np.int64)
        totals = _np.asarray(totals, dtype=_np.int64)
        runs = last - first + 1
        pieces = -(-totals // cap)
        base, extra = _np.divmod(totals, _np.maximum(pieces, 1))
        grp = _np.repeat(_np.arange(pieces.size), pieces)
        nth = _np.arange(grp.size) - _np.repeat(_np.cumsum(pieces) - pieces, pieces)
        sizes = base[grp] + (nth < extra[grp])
        # Rows: each run's own rows in order, then fresh ones.
        members = _spans(first, last)
        own = self.row_of[members]
        run_at = _np.cumsum(runs) - runs
        spare = members - _np.repeat(first, runs) >= _np.repeat(pieces, runs)
        self._release(own[spare])
        reused = nth < runs[grp]
        rows = _np.empty(grp.size, dtype=_np.int64)
        rows[reused] = own[(run_at[grp] + nth)[reused]]
        rows[~reused] = self._alloc(grp.size - int(reused.sum()))
        if (pieces == runs).all():
            at = members
        else:
            slots = _np.ones(len(self), dtype=_np.int64)  # new chunks per old one
            slots[members] = 0
            slots[first] = pieces
            starts = _np.cumsum(slots) - slots
            outside = slots.astype(bool)
            outside[first] = False
            at = starts[first][grp] + nth
            names = ("row_of", "counts", "mins", "maxes")
            for name in names + (("wtotals",) if self.weighted else ()):
                old = getattr(self, name)
                col = _np.empty(int(slots.sum()), dtype=old.dtype)
                col[starts[outside]] = old[outside]
                setattr(self, name, col)
        self.row_of[at] = rows
        shape = (rows.size, cap)
        wblock = _np.zeros(shape) if self.weighted else None
        block = _np.zeros(shape, dtype=self.slab.dtype)
        self._write(at, rows, block, wblock, sizes, values, weights)
        self.invalidate_prefix()

    # -- validation (used by the samplers' check_invariants) ---------------

    def check(self, s: int, n: int) -> None:
        """Assert every directory invariant; ``O(n)``, tests only."""
        k = len(self)
        cap = self.cap
        counts = self.counts
        assert (k == 0) == (n == 0)
        columns = [self.row_of, self.mins, self.maxes] + (
            [self.wtotals] if self.weighted else []
        )
        assert all(col.size == k for col in columns), "directory columns misaligned"
        held = set(self.row_of.tolist())
        assert len(held) == k and not held & set(self.free), "a row is shared"
        assert len(held) + len(self.free) == self.top <= self.slab.shape[0], (
            "a row leaked"
        )
        assert bool((counts >= 1).all()), "empty chunk"
        assert bool((counts <= cap).all()), "chunk over its row"
        if n > cap:
            assert bool((counts >= s).all()), f"chunk size outside [{s}, {cap}]"
        values, weights = self.gather()
        assert values.size == n, f"size mismatch: {values.size} != {n}"
        assert not bool((values[1:] < values[:-1]).any()), "chunks not sorted"
        ends = _np.cumsum(counts)
        assert bool((self.mins == values[ends - counts]).all()), "mins stale"
        assert bool((self.maxes == values[ends - 1]).all()), "maxes stale"
        if self.weighted:
            assert bool((weights > 0.0).all()), "weight not positive"
            rows = self.wslab[self.row_of]
            padding = _np.arange(cap) >= counts[:, None]
            assert not rows[padding].any(), "weight padding not zero"
            assert not self.wslab[self.free].any(), "free weight row not zero"
            masses = kernels.cum_table(rows)[:, -1] if k else _np.empty(0)
            assert bool(
                (_np.abs(self.wtotals - masses) <= 1e-9 * _np.maximum(1.0, masses)).all()
            ), "wtotals stale"
        if self._prefix is not None:
            assert self._prefix.tolist() == ends.tolist(), "count prefix cache stale"
        # The weight cache is read only when it is already there: installing
        # or re-folding it here (``total_weight`` would) would hide a reader
        # that skipped ``ensure_wprefix``.  The weighted draws read its bits,
        # so its head before the stale mark must be exactly the sequential
        # sum.
        if self.weighted and self._wprefix is not None:
            assert self._wprefix.size == k, "weight prefix cache misaligned"
            head = min(self._wstale, k)
            assert (
                self._wprefix[:head].tolist() == _np.cumsum(self.wtotals)[:head].tolist()
            ), "weight prefix cache stale"
