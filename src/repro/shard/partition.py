"""Range-partitioning helpers for the sharded engine.

The key-space partition is described entirely by a sorted list of *cut
values* ``bounds`` (one fewer than the shard count): value ``v`` belongs to
shard ``searchsorted(bounds, v, side="right")``, i.e. shard ``i`` owns the
half-open key interval ``[bounds[i-1], bounds[i])``.  Two properties make
the routing rule authoritative:

* **run alignment** — cuts never land inside a run of equal values, so a
  shard's max is *strictly* below the next cut and routing a value always
  finds every copy of it in one shard (deletes need this);
* **build/route agreement** — the initial slices, and every rebalance's
  re-cut, are produced by the same rule that later routes updates, so the
  partition invariant holds from construction onward.
"""

from __future__ import annotations

from typing import Sequence

import numpy as _np

__all__ = ["run_aligned_cuts", "route_values", "cut_bounds"]


def run_aligned_cuts(values, pieces: int) -> list[int]:
    """Return interior cut indices splitting sorted ``values`` evenly.

    The returned indices are strictly increasing positions in ``(0, n)``;
    slice ``i`` is ``values[cuts[i-1]:cuts[i]]``.  Each tentative
    equal-count cut is pushed to the end of the run of equal values it
    lands in, so no run is ever split across slices; heavy duplication can
    therefore yield fewer than ``pieces`` slices (never more).
    """
    n = len(values)
    if pieces <= 1 or n == 0:
        return []
    cuts: list[int] = []
    for i in range(1, pieces):
        cut = (i * n) // pieces
        if cut <= (cuts[-1] if cuts else 0):
            continue
        # A cut landing inside a run of equal values is pushed past the
        # run's end so the run stays whole in the left slice.
        if values[cut] == values[cut - 1]:
            cut = int(_np.searchsorted(values, values[cut], side="right"))
        if cut >= n or (cuts and cut <= cuts[-1]):
            continue
        cuts.append(cut)
    return cuts


def cut_bounds(values, cuts: Sequence[int]) -> list[float]:
    """Return the cut *values* for :func:`run_aligned_cuts` indices.

    ``bounds[i]`` is the first value of slice ``i + 1``; run alignment
    guarantees it is strictly above the last value of slice ``i``.
    """
    return [float(values[cut]) for cut in cuts]


def route_values(bounds, values):
    """Vectorized routing: shard index for every value in ``values``.

    ``bounds`` must be the sorted cut values of the current partition
    (NumPy array); equal-to-bound values route to the right shard, the
    same convention the build cuts follow.
    """
    return _np.searchsorted(bounds, values, side="right")
