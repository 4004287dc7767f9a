"""Sliding-window IRS: sample over the last ``W`` inserts, not all history.

:class:`WindowedIRS` is a *policy*, not a new data structure: it keeps the
live window in an arrival-order deque and delegates storage and sampling to
:class:`~repro.core.dynamic_irs.DynamicIRS` (uniform mode) or
:class:`~repro.core.weighted_dynamic.WeightedDynamicIRS` (exponential-decay
mode).  Arrivals land through the inner structure's ``insert_bulk``;
expired items leave through batched ``delete_bulk`` calls — expiry is
deferred up to ``expiry_batch`` items so a steady stream pays one bulk
delete per batch instead of one scalar delete per arrival.  Every read
flushes pending expiry first, so reads always observe *exactly* the last
``min(W, arrivals)`` items: an expired key can never surface in a sample,
count, or report, no matter how inserts and reads interleave.

Decay mode gives the item that arrived ``a`` steps before the newest one
weight ``decay**a`` (newest weight 1).  Stored weights are kept
proportional, not normalized: arrival ``i`` stores ``decay**(base - i)``
for a fixed exponent anchor ``base``, so existing weights never need
touching as new items arrive.  When the running exponent would overflow a
float (or when an expiring value still has a live duplicate, whose stored
weight could then be mis-attributed by a by-value delete), the window is
rebuilt from the deque via ``from_sorted`` — an ``O(W)`` re-anchor whose
cost amortizes over the ``expiry_batch`` arrivals between flushes.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Iterable, Sequence

from ..core.dynamic_irs import DynamicIRS
from ..core.weighted_dynamic import WeightedDynamicIRS
from ..errors import InvalidQueryError
from ..rng import derive_seed

__all__ = ["WindowedIRS"]

#: Rebuild the decayed plane before any stored weight exceeds this.
_MAX_WEIGHT = 1e100


class WindowedIRS:
    """Uniform or exponentially-decayed IRS over the last ``W`` inserts.

    Parameters
    ----------
    values:
        Initial arrivals, oldest first; only the last ``window`` are kept.
    window:
        Window size ``W`` (>= 1): how many of the most recent arrivals are
        sampleable.
    seed:
        Root seed for the inner structure (and for deterministic rebuild
        re-seeding in decay mode).
    decay:
        ``None`` for uniform sampling over the window; otherwise a factor
        in ``(0, 1]`` giving the item ``a`` arrivals before the newest
        weight ``decay**a``.  ``decay**(window-1)`` must stay a positive
        float (no underflow) — validated at construction.
    expiry_batch:
        How many expired items may accumulate before a flush; defaults to
        ``max(1, window // 8)``.  Reads always flush first, so batching is
        invisible to query results.
    """

    def __init__(
        self,
        values: Iterable[float] = (),
        *,
        window: int,
        seed: int | None = None,
        decay: float | None = None,
        expiry_batch: int | None = None,
    ) -> None:
        if not isinstance(window, int) or isinstance(window, bool) or window < 1:
            raise InvalidQueryError(f"window must be a positive int: {window!r}")
        if decay is not None:
            decay = float(decay)
            if not 0.0 < decay <= 1.0:
                raise InvalidQueryError(f"decay must be in (0, 1]: {decay!r}")
            if decay ** (window - 1) <= 0.0:
                raise InvalidQueryError(
                    f"decay={decay} underflows across a window of {window}; "
                    "shrink the window or raise the decay factor"
                )
        if expiry_batch is None:
            expiry_batch = max(1, window // 8)
        if not isinstance(expiry_batch, int) or expiry_batch < 1:
            raise InvalidQueryError(
                f"expiry_batch must be a positive int: {expiry_batch!r}"
            )
        self._window = window
        self._decay = decay
        self._expiry_batch = expiry_batch
        self._seed = seed
        self._rebuilds = 0
        tail = deque(values)
        while len(tail) > window:
            tail.popleft()
        self._live: deque[float] = deque(float(v) for v in tail)
        self._counts = Counter(self._live)
        self._arrivals = len(self._live)  # total arrivals ever seen
        self._expired: list[float] = []
        self._needs_rebuild = False
        # Decay bookkeeping: arrival i stores decay**(_base - i); _base is
        # re-anchored to the newest arrival on every rebuild.
        self._base = self._arrivals - 1
        self._build_inner()

    # -- construction --------------------------------------------------------

    @classmethod
    def from_stream(
        cls,
        stream: Iterable[float],
        *,
        window: int,
        seed: int | None = None,
        decay: float | None = None,
        expiry_batch: int | None = None,
    ) -> "WindowedIRS":
        """Build from an arrival stream, keeping only the last ``window``.

        Equivalent to constructing empty and calling :meth:`advance` with
        the whole stream, but skips building structure state for items
        that are already expired on arrival.
        """
        tail: deque[float] = deque(maxlen=window)
        total = 0
        for value in stream:
            tail.append(float(value))
            total += 1
        built = cls(
            tail, window=window, seed=seed, decay=decay, expiry_batch=expiry_batch
        )
        built._arrivals = total
        built._base = total - 1
        return built

    def _inner_seed(self) -> int | None:
        if self._seed is None:
            return None
        return derive_seed(self._seed, self._rebuilds)

    def _decay_weights(self) -> list[float]:
        """Proportional weights for the live deque, oldest first."""
        w = len(self._live)
        decay = self._decay
        return [decay ** (w - 1 - k) for k in range(w)]

    def _build_inner(self) -> None:
        """(Re)build the inner structure from the live deque."""
        seed = self._inner_seed()
        self._rebuilds += 1
        if self._decay is None:
            self._inner = DynamicIRS(self._live, seed=seed)
        else:
            pairs = sorted(zip(self._live, self._decay_weights()))
            self._inner = WeightedDynamicIRS.from_sorted(
                [v for v, _ in pairs], [w for _, w in pairs], seed=seed
            )
            self._base = self._arrivals - 1
        self._needs_rebuild = False

    # -- the windowing policy --------------------------------------------------

    @property
    def window(self) -> int:
        """The window size ``W``."""
        return self._window

    @property
    def decay(self) -> float | None:
        """The decay factor (``None`` in uniform mode)."""
        return self._decay

    @property
    def arrivals(self) -> int:
        """Total arrivals ever observed (expired ones included)."""
        return self._arrivals

    def __len__(self) -> int:
        """Number of live (sampleable) items: ``min(W, arrivals)``."""
        return len(self._live)

    def live(self) -> list[float]:
        """The live window in arrival order, oldest first."""
        return list(self._live)

    def advance(self, values: Iterable[float]) -> None:
        """Append arrivals (in order) and expire items beyond the window."""
        batch = [float(v) for v in values]
        if not batch:
            return
        if self._decay is None:
            self._inner.insert_bulk(batch)
        else:
            start = self._arrivals
            inv = 1.0 / self._decay
            weights = [inv ** (start + j - self._base) for j in range(len(batch))]
            self._inner.insert_bulk(batch, weights)
            if weights[-1] > _MAX_WEIGHT:
                self._needs_rebuild = True
        self._arrivals += len(batch)
        self._live.extend(batch)
        self._counts.update(batch)
        while len(self._live) > self._window:
            expired = self._live.popleft()
            self._expired.append(expired)
            self._counts[expired] -= 1
            if self._counts[expired] > 0 and self._decay is not None:
                # A by-value delete could remove the *newer* duplicate's
                # weight; a rebuild re-derives every weight from arrival
                # order instead.
                self._needs_rebuild = True
            elif self._counts[expired] <= 0:
                del self._counts[expired]
        if len(self._expired) >= self._expiry_batch:
            self._flush()

    def insert(self, value: float) -> None:
        """Scalar arrival (policy alias for ``advance([value])``)."""
        self.advance([value])

    def insert_bulk(self, values: Iterable[float]) -> None:
        """Bulk arrival (alias for :meth:`advance`; batch/serve entry point)."""
        self.advance(values)

    def _flush(self) -> None:
        """Apply pending expiry so the inner structure holds exactly the window."""
        if self._needs_rebuild:
            self._expired.clear()
            self._build_inner()
            return
        if self._expired:
            self._inner.delete_bulk(self._expired)
            self._expired.clear()

    # -- reads (flush-first: expired keys can never surface) --------------------

    def count(self, lo: float, hi: float) -> int:
        """Number of live window items in ``[lo, hi]``."""
        self._flush()
        return self._inner.count(lo, hi)

    def peek_counts(self, queries):
        """Vectorized multi-range count probe over the live window."""
        self._flush()
        return self._inner.peek_counts(queries)

    def report(self, lo: float, hi: float) -> list[float]:
        """Every live window item in ``[lo, hi]``, sorted (values only)."""
        self._flush()
        if self._decay is None:
            return self._inner.report(lo, hi)
        return [v for v, _w in self._inner.report(lo, hi)]

    def sample(self, lo: float, hi: float, t: int) -> list[float]:
        """``t`` independent draws from the live window (decayed if set)."""
        self._flush()
        return self._inner.sample(lo, hi, t)

    def sample_bulk(self, lo: float, hi: float, t: int, *, seed=None):
        """Vectorized :meth:`sample`; an explicit ``seed`` pins the draws."""
        self._flush()
        return self._inner.sample_bulk(lo, hi, t, seed=seed)

    def sample_bulk_many(self, queries, *, seeds=None) -> list:
        """Answer many ``(lo, hi, t)`` queries against the live window.

        Delegates to the inner structure's amortized many-path, so the
        result obeys the library invariant that ``sample_bulk_many(queries,
        seeds=)`` equals per-query ``sample_bulk(seed=)`` calls.
        """
        self._flush()
        return self._inner.sample_bulk_many(queries, seeds=seeds)

    def select_in_range(self, lo: float, hi: float, ranks: Sequence[int]):
        """Resolve in-range ranks against the live window (uniform mode).

        Exposes the inner directory's rank addressing so the bulk Floyd
        without-replacement path runs over windows too.  Decay mode has no
        uniform rank space and raises ``InvalidQueryError``.
        """
        self._flush()
        resolver = getattr(self._inner, "select_in_range", None)
        if resolver is None:
            raise InvalidQueryError(
                "decayed windows are not rank-addressable; "
                "without-replacement needs uniform mode"
            )
        return resolver(lo, hi, ranks)

    def export_sorted(self):
        """The live window's values, sorted (snapshot surface)."""
        self._flush()
        return self._inner.export_sorted()

    def check_invariants(self) -> None:
        """Validate policy and inner-structure invariants (tests)."""
        self._flush()
        self._inner.check_invariants()
        assert len(self._live) <= self._window
        assert len(self._live) == len(self._inner)
        assert sorted(self._live) == [float(v) for v in self._inner.export_sorted()]
