"""Kernels: the chunk directory's hot loops as pure NumPy array functions.

Searches over sorted planes and over slab rows, the guided search that
places a large batch of draws in a cumulative table, the bulk merge and
take-out passes over the touched rows of a batch, the middle-rejection
and rank-resolution sampling passes, and the weighted cumulative draw
(DESIGN.md §13).  Every op is a deterministic pure function of its array
arguments — no RNG, no float reductions beyond the sequential cumulative
sum — and returns fresh arrays; writing results back into the slab is
the directory's job.  **All randomness and all float reductions stay in
the samplers**: Philox streams are generated there and *consumed* here,
and boundary-run masses stay ``math.fsum`` in the drivers.

The structures call every kernel through this module
(``kernels.merge_slots(...)``), never through a name bound at import
time, so wrapping a module attribute reaches every call site.

Conventions:

* value planes are sorted; weight/cumulative planes are float64;
* a slab row is sorted on its first ``count`` cells and padding after
  them, and ``±inf`` are legal points, so every row search is clamped to
  the row's live count rather than trusting the padding;
* merges are *stable with live elements first* on value ties, matching
  the historical Timsort-merge semantics of the list-based engine;
* all searches are ``searchsorted`` semantics (``left``/``right``).
"""

from __future__ import annotations

import numpy as _np

__all__ = [
    "search_left_scalar",
    "search_right_scalar",
    "search_right",
    "search_guided",
    "search_rows",
    "merge_slots",
    "interleave",
    "take_out",
    "cum_table",
    "rejection_split",
    "flat_pick",
]


# -- searches ----------------------------------------------------------------


def search_left_scalar(arr, value) -> int:
    """``bisect_left`` over a sorted plane (an ndarray).

    The array method, not the ``np.searchsorted`` wrapper: same semantics
    (the wrapper dispatches to it) at a fraction of the call overhead,
    which matters on the per-update and per-query scalar paths.
    """
    return int(arr.searchsorted(value, side="left"))


def search_right_scalar(arr, value) -> int:
    """``bisect_right`` over a sorted plane (an ndarray)."""
    return int(arr.searchsorted(value, side="right"))


def search_right(arr, targets):
    """Vectorized ``bisect_right``: one int64 index per target."""
    return _np.searchsorted(arr, targets, side="right").astype(_np.int64, copy=False)


#: Below this many targets :func:`search_guided` is one plain search: the
#: guide's fixed build cost only pays for itself above it.
_GUIDED_MIN = 1024


def search_guided(table, targets, base):
    """:func:`search_right` for a large batch, in ``O(1)`` expected per target.

    Indexed search (Chen and Asau 1974; Devroye 1986, §III.2.4): equal-
    width buckets over ``[base, table[-1]]``, one per cell, and each
    bucket's first cell.  The bucket map ``int((v - base) * scale)`` is
    monotone, so a cell in an earlier bucket than a target is at or below
    it and a cell in a later bucket is above it: a target's index is its
    bucket's first cell plus the cells of that bucket at or below it,
    which two forward steps find (three copies of the last cell after the
    table keep a scan inside the array).  A target with more than two
    cells of its bucket at or below it, or at or past the last cell, gets
    one plain search, and so does every target when the table's span is
    degenerate or there are fewer than ``_GUIDED_MIN``.
    ``table`` is nondecreasing with every cell ``>= base``; the result is
    ``searchsorted(table, targets, side="right")`` exactly, for any
    non-NaN targets.
    """
    n = table.size
    span = float(table[-1]) - float(base) if n else 0.0
    scale = n / span if span > 0.0 else 0.0
    if targets.size < _GUIDED_MIN or not 0.0 < scale < _np.inf:
        return _np.searchsorted(table, targets, side="right").astype(
            _np.int64, copy=False
        )
    counts = _np.bincount(_buckets(table, base, scale, n), minlength=n + 1)
    first = counts.cumsum() - counts
    ext = _np.concatenate((table, _np.full(3, table[-1])))
    pos = first.take(_buckets(targets, base, scale, n))
    pos += ext.take(pos) <= targets
    pos += ext.take(pos) <= targets
    left = _np.flatnonzero(ext.take(pos) <= targets)
    if left.size:
        pos[left] = _np.searchsorted(table, targets[left], side="right")
    return pos.astype(_np.int64, copy=False)


def _buckets(values, base, scale, n):
    """Bucket of each value: ``(v - base) * scale`` truncated into ``[0, n]``."""
    x = _np.subtract(values, base, dtype=_np.float64)
    x *= scale
    _np.minimum(x, n, out=x)
    _np.maximum(x, 0.0, out=x)
    return x.astype(_np.intp)


def search_rows(block, counts, targets, right: bool):
    """Search each row of ``block`` for its own target: one ``k × cap`` compare.

    Row ``i`` is sorted on its first ``counts[i]`` cells; the result is
    ``bisect_left`` (or ``bisect_right`` with ``right``) of ``targets[i]``
    over exactly those cells.  The padding after them is never counted.
    """
    column = targets[:, None]
    hit = block <= column if right else block < column
    hit &= _np.arange(block.shape[1]) < counts[:, None]
    return _np.count_nonzero(hit, axis=1)


# -- bulk merge and take-out ---------------------------------------------------


def merge_slots(live, batch, ends):
    """Slots of a sorted batch in its merge with the concatenated live runs.

    ``live`` concatenates the live cells of the touched rows in chunk
    order, so it is sorted; ``batch`` is sorted and ``ends[j]`` is the end
    in ``live`` of the run batch value ``j`` goes into.  Each value lands
    after every live element of its run that it does not precede — live
    elements first on ties — and after every earlier batch value.
    """
    idx = _np.minimum(_np.searchsorted(live, batch, side="right"), ends)
    return idx + _np.arange(batch.size)


def interleave(live, batch, slots):
    """Place ``batch`` at ``slots`` and ``live``, in order, everywhere else."""
    out = _np.empty(live.size + batch.size, dtype=live.dtype)
    keep = _np.ones(out.size, dtype=bool)
    keep[slots] = False
    out[slots] = batch
    out[keep] = live
    return out


def take_out(arr, hits):
    """Return ``arr`` without the (ascending) ``hits`` indices (fresh)."""
    keep = _np.ones(arr.size, dtype=bool)
    keep[hits] = False
    return arr[keep]


# -- weight tables -----------------------------------------------------------


def cum_table(weights):
    """Inclusive cumulative sum along the last axis (sequential, float64).

    On a block of weight rows each row gets its own table; the zero
    padding after a row's live cells leaves its live prefix exact.
    """
    return _np.cumsum(weights, axis=-1)


# -- sampling kernels --------------------------------------------------------


def rejection_split(codes, counts, window_lo, cap, needed):
    """Run the middle-rejection accept/reject pass over a draw batch.

    ``codes`` are uniform integers over ``window × cap``; a code is
    accepted iff its slot index falls inside its chunk's live length
    (``counts[window_lo + cell]``).  Returns ``(cells, slots, consumed)``:
    the first ``min(needed, accepted)`` accepted pairs in draw order and
    the number of codes consumed to produce them — the exact sequential
    semantics of the scalar loop, so rejection accounting and stream
    position match it exactly.
    """
    cells = codes // cap
    slots = codes - cells * cap
    ok = slots < counts[window_lo + cells]
    acc = _np.nonzero(ok)[0]
    if acc.size >= needed:
        consumed = int(acc[needed - 1]) + 1
        acc = acc[:needed]
    else:
        consumed = int(codes.size)
    return cells[acc].astype(_np.int64, copy=False), slots[acc].astype(
        _np.int64, copy=False
    ), consumed


def flat_pick(vals, gcum, targets, lo, hi):
    """Fused weighted draw against one cumulative table.

    For each mass position in ``targets``: ``bisect_right`` into ``gcum``,
    clamp into ``[lo, hi]`` (the index window of the query's run), gather
    the value.  The weighted samplers draw a boundary row's run with it.
    Returns float64 regardless of the value plane's dtype.
    """
    idx = _np.searchsorted(gcum, targets, side="right")
    return vals[_np.clip(idx, lo, hi)].astype(_np.float64, copy=False)
