"""``ShardedIRS`` — scatter-gather independent range sampling over shards.

The facade range-partitions the key space across ``P`` shards (each shard
one structure kind of :data:`~repro.core.kinds.KINDS`) and implements
the full sampler API, so it drops into :class:`~repro.batch.
BatchQueryRunner`, the CLI and the benchmarks unchanged.  The design
splits each operation into a cheap *plan* on the facade and independent
per-shard work:

**Reads.**  ``sample_bulk`` first probes every shard's in-range count (or
in-range weight mass) against per-shard *snapshots* — sorted NumPy arrays
refreshed lazily after updates — with one vectorized ``searchsorted`` per
shard.  ``t`` is then split across shards with a single multinomial draw
(probabilities ``k_i / K``), the per-shard draws run as scatter tasks,
and the gathered block is permuted once.  This is *exactly* the
distribution of ``t`` i.i.d. uniform (resp. weight-proportional) draws
from ``P ∩ [lo, hi]``: conditioning i.i.d. category counts on the shards
gives precisely a multinomial split, uniformity within a shard is the
shard kernel's contract, and the final permutation restores positional
exchangeability.  ``count``/``report`` delegate to the shards and
concatenate (shards are disjoint and key-ordered).

**Writes.**  Updates route by the partition bounds — one vectorized
``searchsorted`` for a bulk batch — and land on the shard structures'
own (bulk) update paths.  A rebalancer splits oversized shards and merges
small neighbors whenever the largest shard exceeds ``rebalance_factor ×``
the mean, so skewed insert streams cannot concentrate the working set.

**Execution** runs the planned shard tasks inline, one after another.
Every task seeds its own generator from :func:`repro.rng.derive_seed`
and writes a disjoint slice of the output, so a fixed seed reproduces
results exactly.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from typing import Iterable, Sequence

from ..core.base import (
    DynamicRangeSampler,
    round_to_plane,
    validate_point,
    validate_query,
    validate_ranks,
)
from ..core.kinds import KINDS, sort_planes
from ..core.planes import resolve_dtype
from ..errors import EmptyRangeError, InvalidQueryError, KeyNotFoundError
from ..obs import trace as _trace
from ..obs.metrics import Histogram as _Histogram
from ..rng import RandomSource, derive_seed
from ..rng import generator as rng_generator
from ..types import QueryStats
from .partition import cut_bounds, route_values, run_aligned_cuts

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is installed in CI
    _np = None

__all__ = ["ShardedIRS", "SHARD_KINDS"]

SHARD_KINDS = tuple(KINDS)


def _resolve_shard_dtype(values, dtype, shard_kind):
    """Resolve the facade's value-plane dtype for a shard kind.

    An unknown kind raises :class:`ValueError`.  The plane kinds follow
    the core resolution rule; the float64-only kinds reject an explicit
    narrower ``dtype`` rather than silently widen it.
    """
    if shard_kind not in KINDS:
        raise ValueError(
            f"unknown shard_kind {shard_kind!r}; expected one of {SHARD_KINDS}"
        )
    if KINDS[shard_kind].f64_only:
        if dtype is not None and _np.dtype(dtype) != _np.float64:
            raise ValueError(
                f"shard_kind {shard_kind!r} stores float64 planes only"
            )
        return _np.dtype(_np.float64)
    return resolve_dtype(values, dtype)


def _draw_from_snapshot(values, cumw, lo: float, hi: float, t: int, seed: int):
    """Draw ``t`` samples from one shard snapshot — the scatter task kernel.

    ``values`` is the shard's sorted point array; ``cumw`` is either
    ``None`` (uniform shard: one rank draw per sample) or the length
    ``n + 1`` inclusive weight prefix with ``cumw[0] == 0`` (weighted
    shard: one inverse-CDF bisect per sample, exact proportional to the
    masses the prefix represents).  The generator is rebuilt from the
    task's explicit seed, so the draw depends on nothing else.
    """
    rng = _np.random.default_rng(seed)
    a = int(_np.searchsorted(values, lo, side="left"))
    b = int(_np.searchsorted(values, hi, side="right"))
    if cumw is None:
        ranks = rng.integers(a, b, size=t)
    else:
        base = cumw[a]
        mass = cumw[b] - base
        u = rng.random(t) * mass + base
        # side="right" maps u in [cumw[i], cumw[i+1]) to rank i; the clip
        # guards the one-ulp case where u rounds up to exactly cumw[b].
        ranks = _np.clip(_np.searchsorted(cumw, u, side="right") - 1, a, b - 1)
    return values[ranks]


#: Scalar updates between rebalance-skew checks (bulk ops always check).
_REBALANCE_EVERY = 256


class _Snapshot:
    """One shard's read-side view: sorted values (+ weight prefix).

    ``values`` is the shard's sorted point array; ``cumw`` is ``None`` for
    uniform shards or the inclusive weight prefix of length ``n + 1`` with
    ``cumw[0] == 0``.
    """

    __slots__ = ("values", "cumw")

    def __init__(self, values, cumw=None) -> None:
        self.values = values
        self.cumw = cumw


class ShardedIRS(DynamicRangeSampler):
    """Range-partitioned scatter-gather IRS over ``P`` shards.

    Parameters
    ----------
    values:
        Initial point set (any iterable of floats; duplicates allowed).
    num_shards:
        Target shard count ``P``.  Heavy duplication can force fewer
        shards (cuts never split a run of equal values); rebalancing may
        temporarily run more.
    weights:
        Optional per-point weights; requires a weighted ``shard_kind``.
    seed:
        Root seed.  Everything — shard-internal streams, the multinomial
        splits, every per-task generator — derives from it, so a fixed
        seed reproduces results exactly.
    shard_kind:
        One of :data:`SHARD_KINDS` (the :data:`~repro.core.kinds.KINDS`
        names).
    rebalance_factor:
        Skew bound: a shard larger than ``factor ×`` the mean size
        triggers a rebalance (split + merge pass).  Must be > 1.
    block_size:
        Block size forwarded to ``external`` shards.
    dtype:
        Value-plane dtype (``float32`` or ``float64``) forwarded to the
        array-plane shard kinds; ``None`` keeps a float32/float64 ndarray
        input's dtype and defaults everything else to float64.  The
        ``weighted`` and ``external`` kinds store float64 only.  Routing
        bounds, snapshots and sample outputs stay float64 (float32 values
        widen exactly); update and query bounds are rounded through the
        plane dtype before routing so the facade and its shards always
        agree on range membership.
    """

    def __init__(
        self,
        values: Iterable[float] = (),
        num_shards: int = 4,
        *,
        weights: Iterable[float] | None = None,
        seed: int | None = None,
        shard_kind="dynamic",
        rebalance_factor: float = 2.0,
        block_size: int = 1024,
        dtype=None,
    ) -> None:
        if _np is None:  # pragma: no cover - numpy is installed in CI
            raise RuntimeError("ShardedIRS requires NumPy")
        resolved = _resolve_shard_dtype(values, dtype, shard_kind)
        if not isinstance(values, _np.ndarray):
            values = list(values)
        values, weights = sort_planes(round_to_plane(values, resolved), weights)
        self._init_common(
            num_shards, seed, shard_kind, rebalance_factor, block_size
        )
        self._dtype = resolved
        self._build_partitions(values, weights)

    @classmethod
    def from_sorted(
        cls,
        values,
        num_shards: int = 4,
        *,
        weights=None,
        seed: int | None = None,
        shard_kind="dynamic",
        rebalance_factor: float = 2.0,
        block_size: int = 1024,
        dtype=None,
    ) -> "ShardedIRS":
        """O(n) constructor over already-sorted input (skips the sort)."""
        resolved = _resolve_shard_dtype(values, dtype, shard_kind)
        values = round_to_plane(
            values if isinstance(values, _np.ndarray) else list(values), resolved
        )
        if values.size > 1 and bool((values[1:] < values[:-1]).any()):
            raise ValueError("from_sorted requires nondecreasing input")
        if weights is not None:
            weights = _np.asarray(list(weights), dtype=float)
            if len(weights) != len(values):
                raise ValueError(
                    f"values and weights differ in length: "
                    f"{len(values)} != {len(weights)}"
                )
        self = cls.__new__(cls)
        self._init_common(
            num_shards, seed, shard_kind, rebalance_factor, block_size
        )
        self._dtype = resolved
        self._build_partitions(values, weights)
        return self

    def _init_common(
        self, num_shards, seed, shard_kind, rebalance_factor, block_size
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if not rebalance_factor > 1.0:
            raise ValueError("rebalance_factor must be > 1")
        self._target_shards = num_shards
        self._shard_kind = shard_kind
        self._kind = KINDS[shard_kind]
        self._block_size = block_size
        self._weighted = self._kind.weighted
        self._rebalance_factor = float(rebalance_factor)
        self._rng = RandomSource(seed)
        self._entropy = self._rng._rng.getrandbits(64)
        self._stuck_largest: int | None = None  # rebalance damping marker
        self._gen = None  # lazily-spawned NumPy side stream (split + permute)
        self._ticket = 0  # per-query counter: the seed path of scatter tasks
        self._shard_ticket = 0  # per-shard-build counter (fresh shard seeds)
        self._update_clock = 0
        self.stats = QueryStats()
        # Per-task scatter latency (seconds), observed as each task
        # finishes; adoptable into a metrics registry under a
        # ``structure=`` label (see repro.serve.observe).
        self.task_latency = _Histogram()

    # -- construction ------------------------------------------------------------

    def _next_shard_seed(self) -> int:
        self._shard_ticket += 1
        return derive_seed(self._entropy, -1, self._shard_ticket)

    def _make_shard(self, values, weights):
        """Build one shard over a sorted slice.

        The shard copies its planes (``adopt=False``): ``values`` may be
        a slice of the caller's array under :meth:`from_sorted`.
        """
        return self._kind.build(
            values, weights, seed=self._next_shard_seed(), dtype=self._dtype,
            block_size=self._block_size, adopt=False,
        )

    def _build_partitions(self, values, weights) -> None:
        """Cut sorted input into run-aligned slices and build the shards."""
        if not self._weighted and weights is not None:
            raise InvalidQueryError(
                f"shard_kind {self._shard_kind!r} does not accept weights"
            )
        if self._weighted and weights is None:
            # Weighted kinds without explicit weights default to unit mass,
            # matching the flat constructors' CLI convention.
            weights = _np.ones(len(values), dtype=float)
        cuts = run_aligned_cuts(values, self._target_shards)
        self._bounds: list[float] = cut_bounds(values, cuts)
        edges = [0, *cuts, len(values)]
        self._shards = []
        self._snaps: list[_Snapshot] = []
        for lo_edge, hi_edge in zip(edges, edges[1:]):
            piece = values[lo_edge:hi_edge]
            wpiece = weights[lo_edge:hi_edge] if weights is not None else None
            self._shards.append(self._make_shard(piece, wpiece))
            self._snaps.append(self._snapshot_from_arrays(piece, wpiece))
        self._dirty = [False] * len(self._shards)
        self._bounds_arr = _np.asarray(self._bounds, dtype=float)
        self._n = int(len(values))
        # The weighted facade varies its update signature with the shard
        # kind so BatchQueryRunner's upfront weighted-insert check sees the
        # truth through ``inspect.signature``.
        if self._weighted:
            self.insert = self._insert_weighted
            self.insert_bulk = self._insert_bulk_weighted
        else:
            self.insert = self._insert_plain
            self.insert_bulk = self._insert_bulk_plain

    def _snapshot_from_arrays(self, values, weights) -> _Snapshot:
        cumw = None
        if self._weighted and len(values):
            cumw = _np.concatenate(
                ([0.0], _np.cumsum(_np.asarray(weights, dtype=float)))
            )
        # Snapshots stay float64 regardless of the shard dtype: the
        # gathered sample block is float64, and float32 values widen
        # exactly.
        return _Snapshot(_np.asarray(values, dtype=float), cumw)

    # -- bookkeeping -------------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def dtype(self):
        """The shard value-plane dtype (``float32`` or ``float64``)."""
        return self._dtype

    def _round_range(self, lo, hi) -> tuple[float, float]:
        """Round a query range through the plane dtype before routing.

        Routing must see exactly the values the shards compare: a query
        bound compared raw against float64 snapshots would disagree with
        the shards' own dtype-coerced range membership
        (:func:`~repro.core.base.round_to_plane`).
        """
        return (
            round_to_plane(lo, self._dtype, "lo"),
            round_to_plane(hi, self._dtype, "hi"),
        )

    @property
    def num_shards(self) -> int:
        """Current shard count (rebalancing may move it around the target)."""
        return len(self._shards)

    @property
    def shards(self) -> Sequence:
        """The shard structures, in key order (read-only by convention)."""
        return tuple(self._shards)

    @property
    def bounds(self) -> tuple[float, ...]:
        """The partition cut values (read-only)."""
        return tuple(self._bounds)

    def values(self) -> list[float]:
        """Return every stored point in sorted order (``O(n)``)."""
        out: list[float] = []
        for i in range(len(self._shards)):
            out.extend(self._shard_values(i).tolist())
        return out

    def export_sorted(self):
        """Return every stored point as one sorted NumPy array.

        Per-shard delegation: each shard exports its own sorted plane
        (through the snapshot cache, so clean shards cost nothing) and
        the key-ordered disjoint pieces concatenate into the global
        sorted order.  This is the uniform snapshot surface the
        durability tier (:mod:`repro.store.snapshot`) persists.
        """
        if not self._shards:
            return _np.empty(0, dtype=self._dtype)
        return _np.concatenate(
            [self._shard_values(i) for i in range(len(self._shards))]
        ).astype(self._dtype, copy=False)

    def export_sorted_pairs(self):
        """Return ``(values, weights)`` planes in sorted value order.

        Weighted shard kinds only (:class:`~repro.errors.InvalidQueryError`
        otherwise); the per-shard pairs concatenate exactly like
        :meth:`export_sorted`.
        """
        if not self._weighted:
            raise InvalidQueryError("export_sorted_pairs requires weighted shards")
        values: list = []
        weights: list = []
        for i in range(len(self._shards)):
            v, w = self._export_shard(i)
            values.append(v)
            weights.append(w)
        if not values:
            return _np.empty(0, dtype=self._dtype), _np.empty(0, dtype=float)
        return (
            _np.concatenate(values).astype(self._dtype, copy=False),
            _np.concatenate(weights),
        )

    # -- snapshots ---------------------------------------------------------------

    def _shard_values(self, i: int):
        """The shard's sorted value array, via a fresh-enough snapshot."""
        return self._refresh(i).values

    def _export_shard(self, i: int) -> tuple:
        shard = self._shards[i]
        if self._weighted:
            values, weights = shard.export_sorted_pairs()
            return _np.asarray(values), _np.asarray(weights, dtype=float)
        exported = shard.export_sorted()
        return _np.asarray(exported), None

    def _refresh(self, i: int) -> _Snapshot:
        """Re-export a stale snapshot."""
        if self._dirty[i]:
            values, weights = self._export_shard(i)
            self._snaps[i] = self._snapshot_from_arrays(values, weights)
            self._dirty[i] = False
        return self._snaps[i]

    def _mark_dirty(self, i: int) -> None:
        self._dirty[i] = True

    # -- routing -----------------------------------------------------------------

    def _route_one(self, value: float) -> int:
        return int(_np.searchsorted(self._bounds_arr, value, side="right"))

    def _window(self, lo: float, hi: float) -> range:
        """Indices of the shards whose key interval intersects ``[lo, hi]``."""
        return range(self._route_one(lo), self._route_one(hi) + 1)

    # -- counting / reporting ----------------------------------------------------

    def count(self, lo: float, hi: float) -> int:
        """Return ``|P ∩ [lo, hi]|``, summed over the overlapping shards."""
        validate_query(lo, hi, 0)
        # Coerce the bounds through the plane dtype before windowing so
        # the shard window agrees with the shards' own coerced membership.
        lo, hi = self._round_range(lo, hi)
        return sum(self._shards[i].count(lo, hi) for i in self._window(lo, hi))

    def peek_counts(self, queries):
        """Vectorized multi-range count, summed across shards.

        Delegates to each shard's own :meth:`peek_counts` when available
        (out-of-range shards contribute zeros, so no window filtering is
        needed); shards without the probe fall back to per-query counts.
        """
        queries = list(queries)
        total = _np.zeros(len(queries), dtype=_np.int64)
        for shard in self._shards:
            peek = getattr(shard, "peek_counts", None)
            if peek is not None:
                total += _np.asarray(peek(queries), dtype=_np.int64)
            else:
                for j, (lo, hi) in enumerate(queries):
                    total[j] += shard.count(lo, hi)
        return total

    def report(self, lo: float, hi: float) -> list:
        """Return every in-range point in sorted order (shards are ordered)."""
        validate_query(lo, hi, 0)
        lo, hi = self._round_range(lo, hi)
        out: list = []
        for i in self._window(lo, hi):
            out.extend(self._shards[i].report(lo, hi))
        return out

    def range_weight(self, lo: float, hi: float) -> float:
        """Return ``w(P ∩ [lo, hi])`` (weighted shard kinds only)."""
        if not self._weighted:
            raise InvalidQueryError("range_weight requires weighted shards")
        validate_query(lo, hi, 0)
        lo, hi = self._round_range(lo, hi)
        return sum(
            self._shards[i].range_weight(lo, hi) for i in self._window(lo, hi)
        )

    def peek_weights(self, queries):
        """Vectorized multi-range mass probe, summed across shards.

        The weight-plane twin of :meth:`peek_counts` (weighted shard kinds
        only): shards exposing their own ``peek_weights`` answer the whole
        query set with one vectorized probe each (out-of-range shards
        contribute zeros); shards without it fall back to per-query
        ``range_weight``.
        """
        if not self._weighted:
            raise InvalidQueryError("peek_weights requires weighted shards")
        queries = list(queries)
        total = _np.zeros(len(queries), dtype=float)
        for shard in self._shards:
            total += _np.asarray(shard.peek_weights(queries), dtype=float)
        return total

    # -- sampling ----------------------------------------------------------------

    def sample(self, lo: float, hi: float, t: int) -> list[float]:
        """Return ``t`` independent samples (scalar path, shard delegation).

        Each sample picks a shard with probability proportional to its
        in-range count (weighted kinds: in-range mass) from the facade's
        scalar stream; the picks are then grouped so each shard answers
        its whole quota with one scalar ``sample`` call (one query plan
        per shard instead of one per draw).  Placing shard ``s``'s ``j``-th
        draw at the position of the ``j``-th pick of ``s`` reproduces the
        i.i.d. law exactly — conditional on the picks, the draws are
        independent and each has its shard's conditional distribution.
        """
        validate_query(lo, hi, t)
        lo, hi = self._round_range(lo, hi)
        window = list(self._window(lo, hi))
        counts = [self._shards[i].count(lo, hi) for i in window]
        if self._require_nonempty(sum(counts), t):
            return []
        if self._weighted:
            masses = [self._shards[i].range_weight(lo, hi) for i in window]
            if sum(masses) <= 0.0:
                raise EmptyRangeError("query range has zero total weight")
            cum_src = masses
        else:
            cum_src = counts
        cum: list[float] = []
        acc = 0.0
        for value in cum_src:
            acc += value
            cum.append(acc)
        rng = self._rng
        picks = [rng.choice_index(cum) for _ in range(t)]
        quota: dict[int, int] = {}
        for pick in picks:
            quota[pick] = quota.get(pick, 0) + 1
        drawn = {
            pick: iter(self._shards[window[pick]].sample(lo, hi, k))
            for pick, k in quota.items()
        }
        out = [next(drawn[pick]) for pick in picks]
        self.stats.queries += 1
        self.stats.samples_returned += t
        return out

    def sample_bulk(self, lo: float, hi: float, t: int, *, seed=None):
        """Vectorized scatter-gather :meth:`sample` (NumPy array result).

        An explicit ``seed`` makes the query's randomness (split, task
        seeds, permutation) a pure function of it — see
        :meth:`sample_bulk_many`.
        """
        return self.sample_bulk_many([(lo, hi, t)], seeds=[seed])[0]

    def sample_bulk_many(self, queries: Sequence[tuple], *, seeds=None) -> list:
        """Execute many ``(lo, hi, t)`` queries in one scatter round.

        The shard snapshots are probed once for every query together, and
        all per-shard tasks from all queries run in one scatter.  Results
        align with the input order; the per-query sample distribution is
        identical to calling :meth:`sample_bulk` per query.

        ``seeds`` (optional) aligns an integer seed — or ``None`` — with
        each query.  A seeded query draws its multinomial split and gather
        permutation from :func:`repro.rng.generator` of its seed and
        derives its per-shard task seeds from one 63-bit draw of that
        stream, so its samples depend only on the seed and the shard
        contents — not on the facade's query ticket or on which other
        queries share the scatter round.  The serving layer uses this for
        per-request reproducibility.
        """
        # Bounds are rounded through the plane dtype up front: the planner
        # probes float64 snapshots, and the coerced bounds make those
        # probes agree exactly with the shards' own range membership.
        queries = [(*self._round_range(lo, hi), ti) for lo, hi, ti in queries]
        for lo, hi, ti in queries:
            validate_query(lo, hi, ti)
        queries = [(lo, hi, int(ti)) for lo, hi, ti in queries]
        if seeds is None:
            seeds = [None] * len(queries)
        elif len(seeds) != len(queries):
            raise InvalidQueryError("seeds must align with queries")
        if self._gen is None:
            self._gen = self._rng.spawn_numpy()
        gen = self._gen
        snaps = [self._refresh(i) for i in range(len(self._shards))]
        n_shards = len(snaps)
        n_queries = len(queries)
        if n_queries == 0:
            return []
        los = _np.asarray([q[0] for q in queries])
        his = _np.asarray([q[1] for q in queries])
        counts = _np.zeros((n_shards, n_queries), dtype=_np.int64)
        masses = _np.zeros((n_shards, n_queries), dtype=float) if self._weighted else None
        for s, snap in enumerate(snaps):
            v = snap.values
            if not len(v):
                continue
            a = _np.searchsorted(v, los, side="left")
            b = _np.searchsorted(v, his, side="right")
            counts[s] = b - a
            if masses is not None:
                masses[s] = snap.cumw[b] - snap.cumw[a]
        totals = counts.sum(axis=0)
        shares = masses if masses is not None else counts
        # Plan phase: one multinomial split per query, drawn in query order
        # from the facade's side stream.
        out_offsets: list[int] = []
        qgens: list = [None] * n_queries  # per-query seeded generators
        tasks_per_query = [0] * n_queries
        tasks_meta: list[tuple[int, int, int, int, int]] = []  # (s, q, t, seed, off)
        at = 0
        for q, (lo, hi, ti) in enumerate(queries):
            out_offsets.append(at)
            if ti == 0:
                continue
            if totals[q] == 0:
                raise EmptyRangeError("no points inside the query range")
            share = shares[:, q]
            total_share = share.sum()
            if total_share <= 0.0:
                raise EmptyRangeError("query range has zero total weight")
            if seeds[q] is None:
                qgens[q] = None
                # Facade stream: task seeds come from the entropy + a
                # monotone per-query ticket.
                self._ticket += 1
                entropy, ticket = self._entropy, self._ticket
                split = gen.multinomial(ti, share / total_share)
            else:
                # Per-query seed: one 63-bit draw of the seed's stream
                # replaces the (entropy, ticket) pair, so the query's task
                # seeds — and with them its samples — depend only on the
                # seed and the shard contents.
                qgen = qgens[q] = rng_generator(seeds[q])
                entropy = int(qgen.integers(1 << 63))
                ticket = 0
                split = qgen.multinomial(ti, share / total_share)
            off = at
            for s in range(n_shards):
                ts = int(split[s])
                if ts:
                    seed = derive_seed(entropy, ticket, s)
                    tasks_meta.append((s, q, ts, seed, off))
                    tasks_per_query[q] += 1
                    off += ts
            at += ti
        total_samples = at
        out = self._scatter(snaps, queries, tasks_meta, total_samples, seeds)
        results: list = []
        for q, (_lo, _hi, ti) in enumerate(queries):
            block = out[out_offsets[q] : out_offsets[q] + ti]
            if tasks_per_query[q] > 1:
                # One permutation restores positional i.i.d.-ness over the
                # shard-ordered gather; drawn from the facade stream (or
                # the query's own generator).  A single-shard query is
                # already i.i.d. and skips it (the skip depends only on
                # the split).
                pgen = qgens[q] if qgens[q] is not None else gen
                block = block[pgen.permutation(ti)]
            results.append(block)
        self.stats.queries += n_queries
        self.stats.samples_returned += total_samples
        self.stats.extra["scatter_tasks"] = (
            self.stats.extra.get("scatter_tasks", 0) + len(tasks_meta)
        )
        return results

    def _scatter(self, snaps, queries, tasks_meta, total_samples, query_seeds):
        """Run the planned tasks inline; return the gathered block.

        ``query_seeds`` aligns each query's *request* seed (or ``None``)
        with ``queries`` — the key the serving layer publishes trace ids
        under (:func:`repro.obs.trace.set_active`), which is how a shard
        task's latency span lands on the request that caused it.
        """
        out = _np.empty(total_samples, dtype=float)
        for s, q, ts, seed, off in tasks_meta:
            snap = snaps[s]
            lo, hi, _ = queries[q]
            t0 = time.perf_counter()
            out[off : off + ts] = _draw_from_snapshot(
                snap.values, snap.cumw, lo, hi, ts, seed
            )
            dt = time.perf_counter() - t0
            self.task_latency.observe(dt)
            rseed = query_seeds[q]
            trace_id = None if rseed is None else _trace.active_trace_id(rseed)
            _trace.record_task_span(trace_id, s, t0, dt, ts)
        return out

    # -- rank addressing (without-replacement support) ---------------------------

    def select_in_range(self, lo: float, hi: float, ranks: list[int]) -> list[float]:
        """Return the values at the given in-range ranks (0 = smallest).

        The facade's in-range rank space is the concatenation of the
        shards' in-range rank spaces in key order; each shard resolves its
        ranks with its own rank machinery in one call.
        """
        validate_query(lo, hi, 0)
        lo, hi = self._round_range(lo, hi)
        window = list(self._window(lo, hi))
        counts = [self._shards[i].count(lo, hi) for i in window]
        total = sum(counts)
        validate_ranks(ranks, total)
        starts: list[int] = []
        acc = 0
        for k in counts:
            starts.append(acc)
            acc += k
        grouped: dict[int, list[int]] = {}
        positions: dict[int, list[int]] = {}
        for pos, rank in enumerate(ranks):
            w = bisect_right(starts, rank) - 1
            grouped.setdefault(w, []).append(rank - starts[w])
            positions.setdefault(w, []).append(pos)
        out: list[float | None] = [None] * len(ranks)
        for w, local_ranks in grouped.items():
            shard = self._shards[window[w]]
            resolver = getattr(shard, "select_in_range", None)
            if resolver is not None:
                resolved = resolver(lo, hi, local_ranks)
            elif hasattr(shard, "rank_range") and hasattr(shard, "value_at_rank"):
                a, _b = shard.rank_range(lo, hi)
                resolved = [shard.value_at_rank(a + r) for r in local_ranks]
            else:
                pool = shard.report(lo, hi)
                resolved = [pool[r] for r in local_ranks]
            for pos, value in zip(positions[w], resolved):
                out[pos] = value
        return out  # type: ignore[return-value]

    def sample_without_replacement(self, lo: float, hi: float, t: int) -> list[float]:
        """Return a uniform ``t``-subset of ``P ∩ [lo, hi]`` (random order).

        Floyd's algorithm over the facade's in-range rank space; exact for
        multisets because ranks, not values, are deduplicated.
        """
        from ..core.without_replacement import sample_ranks_without_replacement

        validate_query(lo, hi, t)
        total = self.count(lo, hi)
        if self._require_nonempty(total, t):
            return []
        if t > total:
            raise InvalidQueryError(
                f"cannot draw {t} distinct samples from {total} points"
            )
        ranks = sample_ranks_without_replacement(self._rng, 0, total, t)
        return self.select_in_range(lo, hi, ranks)

    def sample_without_replacement_bulk(self, lo: float, hi: float, t: int, *, seed=None):
        """Vectorized Floyd over the facade's rank space (NumPy result).

        Delegates to :func:`repro.core.sample_without_replacement_bulk`,
        which routes the chosen in-range ranks through
        :meth:`select_in_range` — one broadcast draw replaces the scalar
        Floyd loop of :meth:`sample_without_replacement`, and an explicit
        ``seed`` makes the subset a pure function of the seed and contents.
        """
        from ..core.without_replacement import sample_without_replacement_bulk

        return sample_without_replacement_bulk(self, lo, hi, t, seed=seed)

    def sample_stratified(self, strata, t: int, *, seed=None) -> list:
        """Split ``t`` exactly across ``strata``; one scatter round answers all.

        Delegates to :func:`repro.scenarios.sample_stratified`, whose
        multinomial allocation composes with this facade's own per-shard
        scatter: the strata go down as one :meth:`sample_bulk_many` call.
        """
        from ..scenarios.stratified import sample_stratified

        return sample_stratified(self, strata, t, seed=seed)

    # -- updates -----------------------------------------------------------------

    def _require_updatable(self) -> None:
        if not self._kind.updatable:
            raise TypeError(
                f"shard kind {self._shard_kind!r} is static and does not "
                "support updates"
            )

    def insert(self, value: float) -> None:  # pragma: no cover - rebound
        """Insert one point (bound per instance in ``_build_partitions``)."""
        raise NotImplementedError

    def insert_bulk(self, values) -> None:  # pragma: no cover - rebound
        """Bulk insert (bound per instance in ``_build_partitions``)."""
        raise NotImplementedError

    def _insert_plain(self, value: float) -> None:
        self._require_updatable()
        value = round_to_plane(value, self._dtype)
        i = self._route_one(value)
        self._shards[i].insert(value)
        self._after_update(i, 1)

    def _insert_weighted(self, value: float, weight: float = 1.0) -> None:
        self._require_updatable()
        value = round_to_plane(value, self._dtype)
        i = self._route_one(value)
        self._shards[i].insert(value, weight)
        self._after_update(i, 1)

    def _insert_bulk_plain(self, values) -> None:
        self._require_updatable()
        batch = _np.sort(round_to_plane(list(values), self._dtype))
        if not batch.size:
            return
        validate_point(batch[-1])  # before any shard takes its group
        for i, g0, g1 in self._route_groups(batch):
            self._shards[i].insert_bulk(batch[g0:g1])
            self._mark_dirty(i)
        self._n += int(batch.size)
        self._maybe_rebalance()

    def _insert_bulk_weighted(self, values, weights=None) -> None:
        self._require_updatable()
        batch = round_to_plane(list(values), self._dtype)
        if weights is None:
            wbatch = _np.ones(batch.size, dtype=float)
        else:
            wbatch = _np.asarray(list(weights), dtype=float)
            if wbatch.size != batch.size:
                raise ValueError(
                    f"values and weights differ in length: "
                    f"{batch.size} != {wbatch.size}"
                )
        if not batch.size:
            return
        order = _np.argsort(batch, kind="stable")
        batch, wbatch = batch[order], wbatch[order]
        validate_point(batch[-1])
        for i, g0, g1 in self._route_groups(batch):
            self._shards[i].insert_bulk(batch[g0:g1], wbatch[g0:g1])
            self._mark_dirty(i)
        self._n += int(batch.size)
        self._maybe_rebalance()

    def delete(self, value: float):
        """Delete one occurrence of ``value`` (routed by the partition)."""
        self._require_updatable()
        value = round_to_plane(value, self._dtype)
        i = self._route_one(value)
        result = self._shards[i].delete(value)
        self._after_update(i, -1)
        return result

    def delete_bulk(self, values) -> None:
        """Delete one occurrence per value, atomically across shards.

        Routing groups the sorted batch per shard; each shard's own
        ``delete_bulk`` is atomic, and a failure on a later shard rolls
        back the groups already applied (re-inserting with their original
        weights on weighted shards), so the facade keeps the all-or-
        nothing contract of the single-structure bulk path.
        """
        self._require_updatable()
        batch = _np.sort(round_to_plane(list(values), self._dtype))
        if not batch.size:
            return
        applied: list[tuple[int, object, object]] = []
        try:
            for i, g0, g1 in self._route_groups(batch):
                shard = self._shards[i]
                segment = batch[g0:g1]
                removed_weights = shard.delete_bulk(segment)
                applied.append((i, segment, removed_weights))
        except KeyNotFoundError:
            for i, segment, removed_weights in applied:
                if self._weighted:
                    self._shards[i].insert_bulk(segment, removed_weights)
                else:
                    self._shards[i].insert_bulk(segment)
                self._mark_dirty(i)
            raise
        for i, _segment, _w in applied:
            self._mark_dirty(i)
        self._n -= int(batch.size)
        self._maybe_rebalance()

    def _route_groups(self, sorted_batch):
        """Yield ``(shard, start, end)`` segments of a sorted batch."""
        pos = route_values(self._bounds_arr, sorted_batch)
        uniq, starts = _np.unique(pos, return_index=True)
        ends = _np.append(starts[1:], sorted_batch.size)
        for i, g0, g1 in zip(uniq.tolist(), starts.tolist(), ends.tolist()):
            yield i, g0, g1

    def _after_update(self, i: int, delta: int) -> None:
        self._mark_dirty(i)
        self._n += delta
        self._update_clock += 1
        if self._update_clock >= _REBALANCE_EVERY:
            self._update_clock = 0
            self._maybe_rebalance()

    # -- rebalancing -------------------------------------------------------------

    def _maybe_rebalance(self) -> None:
        target = max(1, self._target_shards)
        if self._n < 16 * target:
            return
        # The trigger uses the same target mean as the split threshold in
        # _rebalance, so the two cannot permanently disagree.
        mean = self._n / target
        largest = max(len(s) for s in self._shards)
        if largest <= self._rebalance_factor * mean:
            self._stuck_largest = None
            return
        if self._stuck_largest is not None and largest <= 1.25 * self._stuck_largest:
            # The last rebalance could not reduce this skew (an oversized
            # shard that is one giant run cannot be split); retrying on
            # every update would make each batch O(n).  Retry only after
            # the offender grows another 25%.
            return
        self._rebalance()
        largest = max((len(s) for s in self._shards), default=0)
        mean = self._n / target
        self._stuck_largest = (
            largest if largest > self._rebalance_factor * mean else None
        )

    def _rebalance(self) -> None:
        """Split oversized shards, then fold small neighbors back to ``P``.

        Cost is ``O(touched shards)``: only shards that are split, merged
        away, or emptied are exported and rebuilt — untouched shards keep
        their structure and their snapshot.  An oversized shard is cut
        into mean-sized run-aligned pieces rebuilt via the shard factory;
        afterwards the smallest adjacent pairs are merged while that keeps
        them under the skew bound and the shard count is above target.
        Bounds are re-derived from the first element of each shard, which
        run alignment keeps strictly above its left neighbor's maximum.
        """
        mean = max(1, self._n // max(1, self._target_shards))
        # A piece is ``[size, original_index | None, values, weights]``;
        # kept shards stay unmaterialized (values is None) unless a merge
        # actually needs their arrays.
        pieces: list[list] = []

        def materialize(piece: list) -> list:
            if piece[2] is None:
                # Export from the shard itself (not the snapshot's cumsum):
                # a weight rebuilt as a prefix difference carries ulp drift.
                piece[2], piece[3] = self._export_shard(piece[1])
                piece[1] = None
            return piece

        for i in range(len(self._shards)):
            size = len(self._shards[i])
            if size == 0:
                # Shards emptied by deletes vanish here (their key interval
                # folds into a neighbor's).
                continue
            if size > self._rebalance_factor * mean:
                values, weights = self._export_shard(i)
                cuts = run_aligned_cuts(values, -(-size // mean))
                edges = [0, *cuts, size]
                for lo_edge, hi_edge in zip(edges, edges[1:]):
                    pieces.append(
                        [
                            hi_edge - lo_edge,
                            None,
                            values[lo_edge:hi_edge],
                            weights[lo_edge:hi_edge] if weights is not None else None,
                        ]
                    )
            else:
                pieces.append([size, i, None, None])
        if not pieces:  # everything deleted: keep one empty shard
            pieces = [
                [
                    0,
                    None,
                    _np.empty(0, dtype=float),
                    _np.empty(0, dtype=float) if self._weighted else None,
                ]
            ]
        # Merge pass: fold the smallest adjacent pair while above target
        # and the merged shard stays within the skew bound.
        while len(pieces) > self._target_shards:
            best, best_size = -1, None
            for j in range(len(pieces) - 1):
                size = pieces[j][0] + pieces[j + 1][0]
                if best_size is None or size < best_size:
                    best, best_size = j, size
            if best_size > self._rebalance_factor * mean:
                # Merging the cheapest pair would itself violate the skew
                # bound: accept running above the target count instead.
                break
            left = materialize(pieces[best])
            right = materialize(pieces[best + 1])
            merged = [
                best_size,
                None,
                _np.concatenate([left[2], right[2]]),
                _np.concatenate([left[3], right[3]])
                if left[3] is not None
                else None,
            ]
            pieces[best : best + 2] = [merged]
        shards = []
        snaps: list[_Snapshot] = []
        dirty: list[bool] = []
        bounds: list[float] = []
        for j, (_size, original, values, weights) in enumerate(pieces):
            if original is not None:
                shards.append(self._shards[original])
                # Refreshing (only if stale) keeps a clean snapshot and
                # yields the shard's min for the bound.
                snap = self._refresh(original)
                snaps.append(snap)
                dirty.append(False)
                if j > 0:
                    bounds.append(float(snap.values[0]))
            else:
                shards.append(self._make_shard(values, weights))
                snaps.append(self._snapshot_from_arrays(values, weights))
                dirty.append(False)
                if j > 0:
                    bounds.append(float(values[0]))
        self._shards = shards
        self._snaps = snaps
        self._dirty = dirty
        self._bounds = bounds
        self._bounds_arr = _np.asarray(bounds, dtype=float)
        self.stats.extra["rebalances"] = self.stats.extra.get("rebalances", 0) + 1

    # -- validation (used by tests) ----------------------------------------------

    def check_invariants(self) -> None:
        """Assert the partition/routing/snapshot invariants; tests only."""
        assert len(self._shards) == len(self._snaps) == len(self._dirty)
        assert list(self._bounds) == sorted(self._bounds)
        assert len(self._bounds) == len(self._shards) - 1 or not self._shards
        total = 0
        prev_max = None  # the last point of the previous nonempty shard
        for i in range(len(self._shards)):
            values = self._export_shard(i)[0]
            total += len(values)
            if len(values):
                assert list(values) == sorted(values), "shard not sorted"
                assert prev_max is None or values[0] > prev_max, "shards overlap"
                routed = route_values(self._bounds_arr, values)
                assert routed.min() == routed.max() == i, "routing invariant broken"
                prev_max = values[-1]
            if not self._dirty[i]:
                assert _np.array_equal(self._snaps[i].values, values), (
                    "clean snapshot is stale"
                )
        assert total == self._n, f"size mismatch: {total} != {self._n}"
