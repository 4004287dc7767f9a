"""Shared array-backed chunk directory engine (DESIGN.md §8, §13).

Both dynamic samplers — :class:`~repro.core.dynamic_irs.DynamicIRS`
(uniform) and :class:`~repro.core.weighted_dynamic.WeightedDynamicIRS`
(weight-proportional) — store their points in sorted *chunks* of
``Θ(log n)`` values and describe the chunk sequence with the parallel
arrays in this module.  The engine owns everything that is about the
*directory* and nothing that is about the *sampling policy*:

* parallel ``maxes`` / ``mins`` / ``counts`` arrays (plus a ``wtotals``
  weight plane for weighted chunk kinds), repaired with vectorized array
  ops so bulk updates touch the directory once per batch, not once per
  element;
* boundary routing — "first chunk whose max ≥ x" / "last chunk whose
  min ≤ y" — as one C-level ``searchsorted`` per endpoint;
* lazily cached prefix sums over counts (and over weights) with bounded
  *pending per-chunk deltas*, so an update→query alternation costs
  ``O(|pending|)`` instead of an ``O(n/s)`` cumsum rebuild per transition
  (count readers fold the deltas into just the entries they read);
* global rank addressing — the rank interval of a key range and the
  chunk/offset of a global rank — the layout-independent coordinates the
  seeded samplers draw in;
* the structural repair pass: scalar split, borrow-or-merge for
  under-full chunks, the multi-index split assembly behind bulk inserts,
  and the full normalization sweep behind bulk deletes.

Chunk payloads are **NumPy array planes** (PR 10): ``data`` is a 1-D
array in the structure's value dtype (float32 or float64), and a
:class:`WeightedChunk` adds an aligned float64 ``weights`` plane with a
lazy cumulative table.  Two rules make this safe and fast:

* **copy-on-write** — no chunk op ever mutates a plane in place; splices
  and merges go through the kernels (:mod:`repro.core.kernels`) and
  return fresh arrays.  Structural cuts produce *views*, so a structure
  built over an adopted caller array (``from_sorted(..., copy=False)``)
  stays zero-copy until an update actually touches a chunk;
* the directory's own arrays (``maxes``/``mins`` float64, ``counts``
  int64, ``wtotals`` float64) are dtype-invariant — float32 values
  widen exactly, so routing is identical under either plane dtype.

The directory never looks inside a payload except through the chunk
protocol — which is exactly what lets one engine serve both samplers.
``mutations`` is a monotone version stamp bumped by every mutating call;
samplers key their own derived caches (e.g. the weighted sampler's
flattened global cumulative-weight array) off it.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as _np  # a hard dependency of the package (pyproject.toml)

from . import kernels

__all__ = ["Chunk", "WeightedChunk", "ChunkDirectory", "FoldedCounts", "split_sizes"]

#: Scalar count/weight changes ride on the cached prefixes as per-chunk
#: deltas up to this many entries; beyond it the cache is dropped and the
#: next reader re-runs the cumsum.
_PENDING_CAP = 64


def split_sizes(n: int, cap: int) -> list[int]:
    """Balanced piece sizes cutting a run of ``n`` into pieces ≤ ``cap``.

    Used by every split path (scalar, bulk, normalize): the run is cut
    into ``ceil(n / cap)`` pieces whose sizes differ by at most one, so
    every piece lands within ``[s, 2s]`` whenever ``n > cap = 2s``.
    """
    k = -(-n // cap)
    base, extra = divmod(n, k)
    return [base + 1 if i < extra else base for i in range(k)]


class Chunk:
    """A sorted run of points stored as one NumPy array plane.

    Directory information (key extent, size, position) lives in the owning
    :class:`ChunkDirectory`'s parallel arrays, not on the chunk, so bulk
    repairs can touch it with vectorized array ops.  ``data`` may be a
    view into a larger plane (the build path slices one array; adopted
    caller arrays stay zero-copy) — every mutation replaces it with a
    fresh array, never writes through it.
    """

    __slots__ = ("data",)

    #: Class-level flag: the directory maintains a weight plane iff True.
    weighted = False

    def __init__(self, data) -> None:
        self.data = data

    def array(self):
        """Return the chunk's value plane (the bulk-sampling gather view)."""
        return self.data

    def touch(self) -> None:
        """Invalidate derived per-chunk caches after a ``data`` swap."""

    @property
    def mass(self) -> float:
        """The chunk's directory weight (its size, for uniform sampling)."""
        return float(self.data.size)

    # -- structural protocol (used by the directory's repair passes) -------

    def cut(self, sizes: list[int]) -> list["Chunk"]:
        """Keep the first ``sizes[0]`` points; return the rest as new chunks.

        The pieces are views — cutting never copies the plane.
        """
        data = self.data
        out: list[Chunk] = []
        at = sizes[0]
        for size in sizes[1:]:
            out.append(Chunk(data[at : at + size]))
            at += size
        self.data = data[: sizes[0]]
        return out

    def absorb(self, other: "Chunk") -> None:
        """Append ``other``'s run (adjacent in key order) onto this one."""
        self.data = _np.concatenate((self.data, other.data))

    def borrow_from_next(self, right: "Chunk") -> float:
        """Move the right neighbor's first point here; return moved mass."""
        self.data = _np.concatenate((self.data, right.data[:1]))
        right.data = right.data[1:]
        return 1.0

    def borrow_from_prev(self, left: "Chunk") -> float:
        """Move the left neighbor's last point here; return moved mass."""
        self.data = _np.concatenate((left.data[-1:], self.data))
        left.data = left.data[:-1]
        return 1.0


class WeightedChunk(Chunk):
    """A sorted run of points with an aligned float64 weight plane.

    ``data`` holds the values, ``weights`` aligns with it, and
    :meth:`cum_table` is the in-chunk inclusive cumulative weight table —
    the second pass of the weighted two-pass draw bisects it.  The table
    is *lazy*: any mutation just drops it via :meth:`touch` (``O(1)``),
    and the first read that needs it rebuilds it with one kernel call
    (a strictly sequential sum) — so bulk updates never
    pay table work for chunks nobody queries.
    """

    __slots__ = ("weights", "cum")

    weighted = True

    def __init__(self, data, weights) -> None:
        self.data = data
        self.weights = weights
        self.cum = None

    def touch(self) -> None:
        """Drop the cumulative table (rebuilt lazily on next read)."""
        self.cum = None

    def cum_table(self):
        """Return (building if stale) the inclusive cumulative weight table."""
        if self.cum is None:
            self.cum = kernels.cum_table(self.weights)
        return self.cum

    def np_arrays(self):
        """Return the ``(values, cum)`` planes for the bulk sampling path."""
        return self.data, self.cum_table()

    @property
    def mass(self) -> float:
        """Total weight stored in this chunk."""
        cum = self.cum_table()
        return float(cum[-1]) if cum.size else 0.0

    def prefix(self, count: int) -> float:
        """Weight of the first ``count`` points."""
        return float(self.cum_table()[count - 1]) if count > 0 else 0.0

    def locate(self, target: float) -> int:
        """Index of the point owning cumulative mass position ``target``."""
        i = kernels.search_right_scalar(self.cum_table(), target)
        return min(int(i), self.data.size - 1)

    # -- structural protocol -----------------------------------------------

    def cut(self, sizes: list[int]) -> list["WeightedChunk"]:
        """Keep the first piece; return the rest as new weighted chunks."""
        data, weights = self.data, self.weights
        out: list[WeightedChunk] = []
        at = sizes[0]
        for size in sizes[1:]:
            out.append(WeightedChunk(data[at : at + size], weights[at : at + size]))
            at += size
        self.data = data[: sizes[0]]
        self.weights = weights[: sizes[0]]
        self.touch()
        return out

    def absorb(self, other: "WeightedChunk") -> None:
        """Append ``other``'s run (adjacent in key order) onto this one."""
        self.data = _np.concatenate((self.data, other.data))
        self.weights = _np.concatenate((self.weights, other.weights))
        self.touch()

    def borrow_from_next(self, right: "WeightedChunk") -> float:
        """Move the right neighbor's first point here; return moved mass."""
        moved = float(right.weights[0])
        self.data = _np.concatenate((self.data, right.data[:1]))
        self.weights = _np.concatenate((self.weights, right.weights[:1]))
        right.data = right.data[1:]
        right.weights = right.weights[1:]
        self.touch()
        right.touch()
        return moved

    def borrow_from_prev(self, left: "WeightedChunk") -> float:
        """Move the left neighbor's last point here; return moved mass."""
        moved = float(left.weights[-1])
        self.data = _np.concatenate((left.data[-1:], self.data))
        self.weights = _np.concatenate((left.weights[-1:], self.weights))
        left.data = left.data[:-1]
        left.weights = left.weights[:-1]
        self.touch()
        left.touch()
        return moved


class FoldedCounts:
    """The count prefix with its pending deltas folded in, for one reader.

    The directory keeps scalar count changes as pending per-chunk deltas
    on its cached prefix (see :meth:`ChunkDirectory.note_delta`), so the
    true prefix is the cached one plus a step function.  Folding sorts the
    pending chunk indices and takes a running sum of their deltas once —
    ``O(|pending| log |pending|)`` — after which every entry a reader
    needs costs one ``searchsorted`` over at most ``_PENDING_CAP`` keys,
    never a pass over the whole prefix.  Valid until the directory next
    changes.
    """

    __slots__ = ("prefix", "counts", "keys", "sums")

    def __init__(self, prefix, counts, pending: dict) -> None:
        self.prefix = prefix
        self.counts = counts
        keys = sorted(pending)
        self.keys = _np.asarray(keys, dtype=_np.int64)
        #: ``sums[j]``: total delta of the first ``j`` pending chunks.
        self.sums = _np.asarray(
            list(accumulate((pending[k] for k in keys), initial=0)), dtype=_np.int64
        )

    def starts_at(self, idx):
        """Points stored before each chunk in the int array ``idx``."""
        out = self.prefix[idx] - self.counts[idx]
        if self.keys.size:
            out += self.sums[self.keys.searchsorted(idx, side="right")]
        return out

    def locate(self, ranks):
        """Chunk index and in-chunk offset of each global rank in ``ranks``.

        One ``search_right`` over the cached prefix resolves every rank.
        With pending deltas each rank first finds its step (the last
        pending chunk starting at or before it), searches the cached
        prefix for the rank minus that step's shift, and is clamped up to
        the step's first chunk — exact, since the cached prefix is
        nondecreasing.
        """
        search_right = kernels.search_right
        if not self.keys.size:
            ci = search_right(self.prefix, ranks)
        else:
            keys, sums = self.keys, self.sums
            key_starts = self.prefix[keys] - self.counts[keys] + sums[1:]
            step = key_starts.searchsorted(ranks, side="right")
            ci = _np.maximum(
                search_right(self.prefix, ranks - sums[step]),
                _np.concatenate(([0], keys))[step],
            )
        return ci, ranks - self.starts_at(ci)


class ChunkDirectory:
    """Array-backed directory over an ordered chunk list.

    The owning sampler holds the chunk *policy* (how to draw from a plan);
    the directory holds the chunk *geometry*: which chunks exist, their key
    extents, their counts (and masses), and every repair pass that keeps
    the ``[s, 2s]`` size invariant.  All mutating entry points bump
    :attr:`mutations` so samplers can invalidate derived caches.
    """

    __slots__ = (
        "chunks",
        "weighted",
        "maxes",
        "mins",
        "counts",
        "wtotals",
        "mutations",
        "_prefix",
        "_pending",
        "_wprefix",
        "_wpending",
    )

    def __init__(self, weighted: bool = False) -> None:
        self.weighted = weighted
        self.mutations = 0
        self.load([])

    # -- (re)construction --------------------------------------------------

    def load(self, chunks: list) -> None:
        """Install ``chunks`` as the directory's ordered sequence."""
        self.chunks = chunks
        self.rebuild()

    def rebuild(self) -> None:
        """Recompute every parallel array from the chunk list."""
        maxes: list[float] = []
        mins: list[float] = []
        counts: list[int] = []
        wtotals: list[float] = []
        for chunk in self.chunks:
            data = chunk.data
            maxes.append(data[-1])
            mins.append(data[0])
            counts.append(data.size)
            if self.weighted:
                wtotals.append(chunk.mass)
        self.maxes = _np.asarray(maxes, dtype=float)
        self.mins = _np.asarray(mins, dtype=float)
        self.counts = _np.asarray(counts, dtype=_np.int64)
        self.wtotals = _np.asarray(wtotals, dtype=float) if self.weighted else None
        self._prefix = None
        self._pending = {}
        self._wprefix = None
        self._wpending = {}
        self.mutations += 1

    def __len__(self) -> int:
        return len(self.chunks)

    # -- boundary routing --------------------------------------------------

    def first_max_ge(self, x: float) -> int:
        """Index of the first chunk whose max ≥ ``x`` (``len`` if none)."""
        return int(_np.searchsorted(self.maxes, x, side="left"))

    def last_min_le(self, y: float) -> int:
        """Index of the last chunk whose min ≤ ``y`` (``-1`` if none)."""
        return int(_np.searchsorted(self.mins, y, side="right")) - 1

    # -- lazy count prefix -------------------------------------------------

    def ensure_prefix(self):
        """Return the inclusive prefix-sum over chunk counts (cached)."""
        if self._prefix is None:
            self._prefix = _np.cumsum(self.counts)
            self._pending.clear()
        return self._prefix

    def folded_counts(self) -> "FoldedCounts":
        """Fold the pending count deltas once, for a reader of many entries."""
        return FoldedCounts(self.ensure_prefix(), self.counts, self._pending)

    def rank_bounds(self, los, his, folded: "FoldedCounts | None" = None):
        """Global rank interval ``[start, end)`` of each range ``[lo, hi]``.

        ``start`` counts the stored points below ``lo`` and ``end`` those
        at or below ``hi`` — the numbers two ``searchsorted`` calls over
        the flat sorted multiset give, whatever the chunk layout — so
        ``end - start`` is the in-range count and the ranks in between
        name the in-range points in order.  Boundary chunks of all ranges
        come from one ``searchsorted`` over ``maxes`` and one over
        ``mins``; only the two in-chunk searches run per range.  Bounds
        must already be rounded through the value-plane dtype.  A caller
        that reads more of the prefix in the same call passes its
        ``folded`` counts; otherwise they are folded here.
        """
        chunks = self.chunks
        if not chunks:
            zeros = _np.zeros(len(los), dtype=_np.int64)
            return zeros, zeros
        # A bound past either end still lands on its edge chunk, where the
        # in-chunk search then counts all of it or none of it.
        a_idx = _np.searchsorted(self.maxes, los, side="left")
        b_idx = _np.searchsorted(self.mins, his, side="right") - 1
        _np.minimum(a_idx, len(chunks) - 1, out=a_idx)
        _np.maximum(b_idx, 0, out=b_idx)
        left = kernels.search_left_scalar
        right = kernels.search_right_scalar
        offsets = [
            left(chunks[a].data, lo) for a, lo in zip(a_idx.tolist(), los.tolist())
        ]
        offsets += [
            right(chunks[b].data, hi) for b, hi in zip(b_idx.tolist(), his.tolist())
        ]
        if folded is None:
            folded = self.folded_counts()
        bounds = folded.starts_at(_np.concatenate((a_idx, b_idx))) + offsets
        return bounds[: len(los)], bounds[len(los) :]

    def invalidate_prefix(self) -> None:
        """Drop both prefix caches (chunk indices or many rows changed)."""
        self._prefix = None
        self._pending.clear()
        self._wprefix = None
        self._wpending.clear()
        self.mutations += 1

    def note_delta(self, i: int, dcount: int, dweight: float = 0.0) -> None:
        """Record a scalar count/weight change against the cached prefixes.

        While the chunk list's *shape* is unchanged, a count (or weight)
        change only shifts the prefix entries from ``i`` on — recorded as a
        pending per-chunk delta folded in by readers, so an update→query
        alternation costs ``O(|pending|)`` instead of an ``O(n/s)`` cumsum
        rebuild per transition.  Past ``_PENDING_CAP`` entries a cache is
        dropped (update-heavy phases then do no prefix work at all).
        """
        self.mutations += 1
        if dcount and self._prefix is not None:
            pending = self._pending
            pending[i] = pending.get(i, 0) + dcount
            if len(pending) > _PENDING_CAP:
                self._prefix = None
                pending.clear()
        if dweight and self._wprefix is not None:
            wpending = self._wpending
            wpending[i] = wpending.get(i, 0.0) + dweight
            if len(wpending) > _PENDING_CAP:
                self._wprefix = None
                wpending.clear()

    def points_between(self, a: int, b: int) -> int:
        """Points in chunks strictly between indices ``a`` and ``b``."""
        if b - a <= 1:
            return 0
        prefix = self.ensure_prefix()
        total = int(prefix[b - 1] - prefix[a])
        if self._pending:
            # P(b-1) - P(a) covers chunks a+1 .. b-1.
            for j, delta in self._pending.items():
                if a < j < b:
                    total += delta
        return total

    # -- lazy weight prefix (weighted directories only) --------------------

    def ensure_wprefix(self):
        """Return the inclusive prefix-sum over chunk masses (cached)."""
        if self._wprefix is None:
            self._wprefix = _np.cumsum(self.wtotals)
            self._wpending.clear()
        return self._wprefix

    def folded_wprefix(self):
        """Return the weight prefix with pending deltas folded in.

        When no deltas are pending this is the cached array itself
        (callers must not mutate it); otherwise a query-local copy.
        """
        wprefix = self.ensure_wprefix()
        if self._wpending:
            wprefix = wprefix.copy()
            for j, delta in self._wpending.items():
                wprefix[j:] += delta
        return wprefix

    def weight_between(self, a: int, b: int) -> float:
        """Mass of chunks strictly between indices ``a`` and ``b``."""
        if b - a <= 1:
            return 0.0
        wprefix = self.ensure_wprefix()
        total = float(wprefix[b - 1] - wprefix[a])
        if self._wpending:
            for j, delta in self._wpending.items():
                if a < j < b:
                    total += delta
        return total

    @property
    def total_weight(self) -> float:
        """Sum of all chunk masses (0.0 for an empty directory)."""
        if not self.chunks:
            return 0.0
        wprefix = self.ensure_wprefix()
        total = float(wprefix[-1])
        for delta in self._wpending.values():
            total += delta
        return total

    # -- single-row repairs ------------------------------------------------

    def refresh_entry(self, i: int) -> None:
        """Repair one chunk's directory row after a data mutation."""
        chunk = self.chunks[i]
        data = chunk.data
        self.maxes[i] = data[-1]
        self.mins[i] = data[0]
        self.counts[i] = data.size
        if self.weighted:
            self.wtotals[i] = chunk.mass
        self.mutations += 1

    def insert_entry(self, i: int, chunk) -> None:
        """Insert one chunk's directory row at index ``i``."""
        data = chunk.data
        self.maxes = _np.insert(self.maxes, i, data[-1])
        self.mins = _np.insert(self.mins, i, data[0])
        self.counts = _np.insert(self.counts, i, data.size)
        if self.weighted:
            self.wtotals = _np.insert(self.wtotals, i, chunk.mass)
        self.mutations += 1

    def delete_entry(self, i: int) -> None:
        """Remove one chunk's directory row."""
        self.maxes = _np.delete(self.maxes, i)
        self.mins = _np.delete(self.mins, i)
        self.counts = _np.delete(self.counts, i)
        if self.weighted:
            self.wtotals = _np.delete(self.wtotals, i)
        self.mutations += 1

    # -- structural repairs ------------------------------------------------

    def split_chunk(self, i: int, cap: int) -> None:
        """Split an over-full chunk into balanced pieces in place."""
        chunk = self.chunks[i]
        pieces = chunk.cut(split_sizes(chunk.data.size, cap))
        self.refresh_entry(i)
        for j, piece in enumerate(pieces, start=i + 1):
            self.chunks.insert(j, piece)
            self.insert_entry(j, piece)
        self.invalidate_prefix()

    def remove_chunk(self, i: int) -> None:
        """Drop an emptied chunk and its directory row."""
        self.chunks.pop(i)
        self.delete_entry(i)
        self.invalidate_prefix()

    def repair_underfull(self, i: int, s: int) -> None:
        """Restore the size invariant of an under-full chunk.

        Borrowing one boundary element from a neighbor with slack is
        ``O(s)`` and leaves the directory structure untouched (two row
        refreshes, no array insert/delete); only when both neighbors sit
        at exactly ``s`` does the chunk concatenate with one — the result
        is ``2s - 1 ≤ cap``, so a merge can never cascade into a split.
        """
        chunks = self.chunks
        chunk = chunks[i]
        right = chunks[i + 1] if i + 1 < len(chunks) else None
        if right is not None and right.data.size > s:
            moved = chunk.borrow_from_next(right)
            self.refresh_entry(i)
            self.refresh_entry(i + 1)
            self.note_delta(i, 1, moved)
            self.note_delta(i + 1, -1, -moved)
            return
        left = chunks[i - 1] if i > 0 else None
        if left is not None and left.data.size > s:
            moved = chunk.borrow_from_prev(left)
            self.refresh_entry(i)
            self.refresh_entry(i - 1)
            self.note_delta(i, 1, moved)
            self.note_delta(i - 1, -1, -moved)
            return
        j = i + 1 if right is not None else i - 1
        lo, hi = (i, j) if j > i else (j, i)
        # Adjacent chunks are consecutive in sorted order, so concatenation
        # preserves sortedness — no merge pass needed.
        chunks[lo].absorb(chunks[hi])
        chunks.pop(hi)
        self.delete_entry(hi)
        self.refresh_entry(lo)
        self.invalidate_prefix()

    def bulk_split(self, positions: list[int], cap: int) -> None:
        """Re-split every over-full chunk with one directory assembly.

        ``positions`` must be ascending.  Each over-full chunk keeps its
        first piece in place; the remaining pieces become new chunks
        spliced into the list with slice concatenation and into the
        directory with one multi-index array insert per column —
        ``O(n/s + new)`` C-level work total, independent of how many
        chunks split.
        """
        chunks = self.chunks
        inserts: list[tuple[int, object]] = []
        for p in positions:
            chunk = chunks[p]
            pieces = chunk.cut(split_sizes(chunk.data.size, cap))
            self.refresh_entry(p)
            for piece in pieces:
                inserts.append((p + 1, piece))
        out: list = []
        at = 0
        for idx, chunk in inserts:
            out.extend(chunks[at:idx])
            out.append(chunk)
            at = idx
        out.extend(chunks[at:])
        self.chunks = out
        idxs = [idx for idx, _ in inserts]
        self.maxes = _np.insert(self.maxes, idxs, [c.data[-1] for _, c in inserts])
        self.mins = _np.insert(self.mins, idxs, [c.data[0] for _, c in inserts])
        self.counts = _np.insert(self.counts, idxs, [c.data.size for _, c in inserts])
        if self.weighted:
            self.wtotals = _np.insert(self.wtotals, idxs, [c.mass for _, c in inserts])
        self.invalidate_prefix()

    def normalize(self, s: int, cap: int) -> None:
        """Restore chunk-size invariants with one sweep over the list.

        Empty chunks are dropped; an under-full chunk is folded into its
        successor (concatenation preserves sortedness); over-full results
        are re-split.  Rebuilds the directory arrays once at the end.
        """
        out: list = []
        pending = None
        for chunk in self.chunks:
            if chunk.data.size == 0:
                continue
            if pending is not None:
                pending.absorb(chunk)
                chunk = pending
                pending = None
            if chunk.data.size < s:
                pending = chunk
                continue
            out.append(chunk)
            if chunk.data.size > cap:
                out.extend(chunk.cut(split_sizes(chunk.data.size, cap)))
        if pending is not None:
            if out:
                tail = out.pop()
                tail.absorb(pending)
                out.append(tail)
                if tail.data.size > cap:
                    out.extend(tail.cut(split_sizes(tail.data.size, cap)))
            else:
                out.append(pending)
        self.load(out)

    # -- validation (used by the samplers' check_invariants) ---------------

    def check(self, s: int, cap: int, n: int) -> None:
        """Assert every directory invariant; ``O(n)``, tests only."""
        chunks = self.chunks
        assert (len(chunks) == 0) == (n == 0)
        assert len(self.maxes) == len(self.mins) == len(self.counts) == len(chunks)
        if self.weighted:
            assert len(self.wtotals) == len(chunks)
        seen = 0
        prev_value = float("-inf")
        for i, chunk in enumerate(chunks):
            data = chunk.data
            assert data.size, "empty chunk"
            assert data.ndim == 1, "plane not 1-D"
            assert not bool((data[1:] < data[:-1]).any()), "chunk not sorted"
            assert data[0] >= prev_value, "chunks out of order"
            if n > cap:
                assert s <= data.size <= cap, (
                    f"chunk size {data.size} outside [{s}, {cap}]"
                )
            assert self.maxes[i] == data[-1], "maxes stale"
            assert self.mins[i] == data[0], "mins stale"
            assert self.counts[i] == data.size, "counts stale"
            if self.weighted:
                assert abs(self.wtotals[i] - chunk.mass) <= 1e-9 * max(
                    1.0, abs(chunk.mass)
                ), "wtotals stale"
            prev_value = data[-1]
            seen += data.size
        assert seen == n, f"size mismatch: {seen} != {n}"
        if self._prefix is not None:
            expect = list(accumulate(c.data.size for c in chunks))
            folded = list(self._prefix)
            for j, delta in self._pending.items():
                for k in range(j, len(folded)):
                    folded[k] += delta
            assert folded == expect, "prefix cache (with pending deltas) stale"
        else:
            assert not self._pending, "pending deltas without a prefix cache"
        if self.weighted and self._wprefix is not None:
            expect_w = list(accumulate(c.mass for c in chunks))
            folded_w = list(self._wprefix)
            for j, delta in self._wpending.items():
                for k in range(j, len(folded_w)):
                    folded_w[k] += delta
            assert all(
                abs(x - y) <= 1e-6 * max(1.0, abs(y))
                for x, y in zip(folded_w, expect_w)
            ), "weight prefix cache (with pending deltas) stale"
        elif self.weighted:
            assert not self._wpending, "pending weight deltas without a cache"
