"""Kernels: the chunk directory's hot loops as pure NumPy array functions.

Searches over sorted planes and over slab rows, the bulk merge and
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
