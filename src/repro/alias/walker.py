"""Walker's alias method (with Vose's stable construction).

Given ``m`` nonnegative weights, the alias table is built in ``O(m)`` time
and draws an index ``i`` with probability ``w_i / sum(w)`` in worst-case
``O(1)`` time (one uniform integer + one uniform float per draw).

This is reference [16] of the follow-up literature (A. J. Walker, 1974) and
the workhorse primitive of every weighted structure in this library.
"""

from __future__ import annotations

import math
from array import array
from typing import Sequence

import numpy as _np

from ..errors import InvalidWeightError
from ..rng import RandomSource

__all__ = ["AliasTable"]


class AliasTable:
    """An immutable ``O(1)``-per-draw discrete distribution over ``m`` items.

    Parameters
    ----------
    weights:
        Nonnegative, finite weights; at least one must be positive.  Items
        with zero weight are never returned.

    Notes
    -----
    Construction follows Vose's two-worklist formulation, which is numerically
    stable: every probability column is filled with its own weight plus at
    most one *alias* item, and the accept threshold is stored pre-scaled so a
    draw needs no division.
    """

    __slots__ = ("_prob", "_alias", "total", "_m", "_np_prob", "_np_alias")

    def __init__(self, weights: Sequence[float]) -> None:
        m = len(weights)
        if m == 0:
            raise InvalidWeightError("alias table needs at least one weight")
        total = 0.0
        for w in weights:
            if not math.isfinite(w) or w < 0.0:
                raise InvalidWeightError(f"invalid weight: {w!r}")
            total += w
        if total <= 0.0:
            raise InvalidWeightError("all weights are zero")

        self._m = m
        self.total = total

        # Scale weights so the average column height is exactly 1.
        scaled = [w * m / total for w in weights]
        prob = [0.0] * m
        alias = [0] * m
        small: list[int] = []
        large: list[int] = []
        for i, p in enumerate(scaled):
            (small if p < 1.0 else large).append(i)

        while small and large:
            s = small.pop()
            g = large.pop()
            prob[s] = scaled[s]
            alias[s] = g
            scaled[g] -= 1.0 - scaled[s]
            (small if scaled[g] < 1.0 else large).append(g)

        # Leftovers are full columns (up to floating-point slack).
        for i in large:
            prob[i] = 1.0
            alias[i] = i
        for i in small:
            prob[i] = 1.0
            alias[i] = i

        # Compact storage: thousands of these tables coexist inside the
        # weighted IRS segment tree, so unboxed arrays matter.
        self._prob = array("d", prob)
        self._alias = array("q", alias)
        # Zero-copy NumPy views over the arrays, built on first bulk draw;
        # the table is immutable so they never go stale.
        self._np_prob = None
        self._np_alias = None

    def __len__(self) -> int:
        return self._m

    def sample(self, rng: RandomSource) -> int:
        """Draw one index proportionally to the construction weights."""
        col = rng.randrange(self._m)
        if rng.random() < self._prob[col]:
            return col
        return self._alias[col]

    def sample_many(self, rng: RandomSource, count: int) -> list[int]:
        """Draw ``count`` iid indices (convenience bulk form)."""
        prob = self._prob
        alias = self._alias
        m = self._m
        randrange = rng.randrange
        random = rng.random
        out = []
        for _ in range(count):
            col = randrange(m)
            out.append(col if random() < prob[col] else alias[col])
        return out

    def sample_bulk(self, gen, count: int):
        """Draw ``count`` iid indices vectorized, as a NumPy int array.

        ``gen`` is a NumPy ``Generator`` (see
        :meth:`repro.rng.RandomSource.spawn_numpy`); one ``integers`` batch
        plus one ``random`` batch replaces ``count`` scalar draws, keeping
        the ``O(1)``-per-draw bound with a vectorized constant.
        """
        if self._np_prob is None:
            self._np_prob = _np.frombuffer(self._prob, dtype=_np.float64)
            self._np_alias = _np.frombuffer(self._alias, dtype=_np.int64)
        cols = gen.integers(0, self._m, size=count)
        accept = gen.random(count) < self._np_prob[cols]
        return _np.where(accept, cols, self._np_alias[cols])

    def probability(self, index: int) -> float:
        """Return the exact probability mass assigned to ``index``.

        Reconstructed from the table columns, so tests can verify that the
        built table matches the requested weights bit-for-bit in aggregate.
        """
        mass = self._prob[index]
        for col, a in enumerate(self._alias):
            if a == index and col != index:
                mass += 1.0 - self._prob[col]
        return mass / self._m
