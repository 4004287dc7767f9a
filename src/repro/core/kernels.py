"""Kernels: the chunk directory's hot loops as pure NumPy array functions.

Scalar splice-and-repair, bulk merge/take-out splices, the
middle-rejection and rank-resolution sampling passes, and the weighted
two-level cumulative draw (DESIGN.md §13).  Every op is a deterministic
pure function of its array arguments — no RNG, no float reductions beyond
the sequential cumulative sum.  **All randomness and all float reductions
stay in the samplers**: Philox streams are generated there and *consumed*
here, and boundary-run masses stay ``math.fsum`` in the drivers.

The structures call every kernel through this module
(``kernels.splice_insert(...)``), never through a name bound at import
time, so wrapping a module attribute reaches every call site.

Conventions:

* value planes are 1-D and sorted; weight/cumulative planes are float64;
* splice and merge ops are **copy-on-write**: they return fresh arrays
  and never mutate an input (chunk payloads may be views into an adopted
  caller array — see :mod:`repro.core.planes`);
* merges are *stable with chunk elements first* on value ties, matching
  the historical Timsort-merge semantics of the list-based engine;
* all searches are ``searchsorted`` semantics (``left``/``right``).
"""

from __future__ import annotations

import numpy as _np

__all__ = [
    "splice_insert",
    "splice_delete",
    "search_left_scalar",
    "search_right_scalar",
    "search_right",
    "merge_runs",
    "merge_pair_runs",
    "take_out",
    "cum_table",
    "rejection_split",
    "flat_pick",
]


# -- scalar splice ops -------------------------------------------------------


def splice_insert(arr, pos, value):
    """Return ``arr`` with ``value`` spliced in at ``pos`` (fresh array)."""
    out = _np.empty(arr.size + 1, dtype=arr.dtype)
    out[:pos] = arr[:pos]
    out[pos] = value
    out[pos + 1 :] = arr[pos:]
    return out


def splice_delete(arr, pos):
    """Return ``arr`` without the element at ``pos`` (fresh array)."""
    out = _np.empty(arr.size - 1, dtype=arr.dtype)
    out[:pos] = arr[:pos]
    out[pos:] = arr[pos + 1 :]
    return out


# -- scalar searches ---------------------------------------------------------


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


# -- bulk splice ops ---------------------------------------------------------


def merge_runs(chunk, batch):
    """Merge two sorted runs, chunk elements first on ties (fresh array)."""
    idx = _np.searchsorted(chunk, batch, side="right")
    out = _np.empty(chunk.size + batch.size, dtype=chunk.dtype)
    slots = idx + _np.arange(batch.size)
    keep = _np.ones(out.size, dtype=bool)
    keep[slots] = False
    out[slots] = batch
    out[keep] = chunk
    return out


def merge_pair_runs(cdata, cweights, bdata, bweights):
    """Two-plane :func:`merge_runs`: merge by value, weights riding along."""
    idx = _np.searchsorted(cdata, bdata, side="right")
    slots = idx + _np.arange(bdata.size)
    keep = _np.ones(cdata.size + bdata.size, dtype=bool)
    keep[slots] = False
    data = _np.empty(keep.size, dtype=cdata.dtype)
    data[slots] = bdata
    data[keep] = cdata
    weights = _np.empty(keep.size, dtype=cweights.dtype)
    weights[slots] = bweights
    weights[keep] = cweights
    return data, weights


def take_out(arr, hits):
    """Return ``arr`` without the (ascending) ``hits`` indices (fresh)."""
    keep = _np.ones(arr.size, dtype=bool)
    keep[hits] = False
    return arr[keep]


# -- weight tables -----------------------------------------------------------


def cum_table(weights):
    """Inclusive cumulative sum of a weight plane (sequential, float64)."""
    return _np.cumsum(weights)


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
    """Fused weighted draw against the flattened global cumulative table.

    For each mass position in ``targets``: ``bisect_right`` into ``gcum``,
    clamp into ``[lo, hi]`` (the flat index window of the query's middle
    chunks), gather the value.  Returns float64 regardless of the value
    plane's dtype.
    """
    idx = _np.searchsorted(gcum, targets, side="right")
    return vals[_np.clip(idx, lo, hi)].astype(_np.float64, copy=False)
