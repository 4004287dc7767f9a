"""The batch engine: group, vectorize and account for many queries at once.

Design notes
------------
* A :class:`BatchQuery` names its target structure by key so one runner can
  front a fleet of samplers (e.g. one per shard or per tenant); the common
  single-structure case uses the implicit ``"default"`` key.
* Queries are grouped per structure before execution so each structure's
  bulk path runs back-to-back (warm caches, one side-stream generator), but
  results always come back aligned with the input order.
* Structures without a ``sample_bulk`` method degrade gracefully to their
  scalar ``sample`` loop — every :class:`~repro.core.base.RangeSampler` is
  batchable, just not always vectorized.
* Queries and ops may carry a per-query ``seed``: the runner then routes
  them through the samplers' seed-addressable paths
  (``sample_bulk(seed=...)`` / ``sample_bulk_many(seeds=...)``), making
  each result a pure function of its seed and the structure contents —
  independent of batch composition.  This is what the serving layer's
  reproducibility guarantee stands on.
* :meth:`BatchQueryRunner.run_mixed` executes ordered read/write streams;
  its ``coalesce_reads`` and ``capture_errors`` options (both default
  off, preserving historical semantics exactly) are documented on the
  method and in DESIGN.md §3/§7.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..core.base import RangeSampler
from ..errors import InvalidQueryError, KeyNotFoundError, ReproError
from ..types import QueryStats

try:  # NumPy is optional at runtime; scalar fallbacks return lists.
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is installed in CI
    _np = None

__all__ = [
    "BatchQuery",
    "BatchOp",
    "BatchResult",
    "MixedResult",
    "BatchQueryRunner",
    "DEFAULT_STRUCTURE",
]

DEFAULT_STRUCTURE = "default"


@dataclass(frozen=True, slots=True)
class BatchQuery:
    """One range-sampling request inside a batch.

    ``seed`` (optional) pins the query's randomness: the runner then draws
    through a fresh generator from :func:`repro.rng.generator`, so the
    query's samples depend only on the seed and the structure contents —
    not on how the batch was composed.  Unseeded queries draw from the
    structure's own bulk side stream as before.
    """

    lo: float
    hi: float
    t: int
    structure: str = DEFAULT_STRUCTURE
    seed: int | None = None


@dataclass(frozen=True, slots=True)
class BatchOp:
    """One operation inside a mixed read/write stream.

    ``kind`` is ``"insert"``, ``"delete"``, ``"sample"``, ``"count"``, or
    one of the scenario reads — ``"stratified"`` (exact multinomial split
    of ``t`` across :attr:`strata`), ``"sample_wr"`` (bulk Floyd
    without-replacement) and ``"estimate"`` (adaptive online aggregation
    to a target CI half-width).  Use the constructors below rather than
    filling fields positionally.
    """

    kind: str
    value: float = 0.0
    weight: float | None = None
    lo: float = 0.0
    hi: float = 0.0
    t: int = 0
    structure: str = DEFAULT_STRUCTURE
    seed: int | None = None
    strata: tuple = ()
    target: float = 0.0
    confidence: float = 0.95
    batch_draws: int = 256
    max_draws: int = 65536

    @classmethod
    def insert(
        cls, value: float, weight: float | None = None, structure: str = DEFAULT_STRUCTURE
    ) -> "BatchOp":
        """Return an insertion op (``weight`` only on weighted samplers)."""
        return cls("insert", value=float(value), weight=weight, structure=structure)

    @classmethod
    def delete(cls, value: float, structure: str = DEFAULT_STRUCTURE) -> "BatchOp":
        """Return an op deleting one occurrence of ``value``."""
        return cls("delete", value=float(value), structure=structure)

    @classmethod
    def sample(
        cls,
        lo: float,
        hi: float,
        t: int,
        structure: str = DEFAULT_STRUCTURE,
        seed: int | None = None,
    ) -> "BatchOp":
        """Return a range-sampling op (``seed`` pins its randomness)."""
        return cls(
            "sample", lo=float(lo), hi=float(hi), t=int(t), structure=structure,
            seed=seed,
        )

    @classmethod
    def count(
        cls, lo: float, hi: float, structure: str = DEFAULT_STRUCTURE
    ) -> "BatchOp":
        """Return a range-count op (result is ``|P ∩ [lo, hi]|``)."""
        return cls("count", lo=float(lo), hi=float(hi), structure=structure)

    @classmethod
    def stratified(
        cls,
        strata,
        t: int,
        structure: str = DEFAULT_STRUCTURE,
        seed: int | None = None,
    ) -> "BatchOp":
        """Return a stratified-sampling op: ``t`` split exactly across strata."""
        bounds = tuple((float(lo), float(hi)) for lo, hi in strata)
        return cls(
            "stratified", t=int(t), structure=structure, seed=seed, strata=bounds
        )

    @classmethod
    def sample_wr(
        cls,
        lo: float,
        hi: float,
        t: int,
        structure: str = DEFAULT_STRUCTURE,
        seed: int | None = None,
    ) -> "BatchOp":
        """Return a without-replacement bulk op (vectorized Floyd)."""
        return cls(
            "sample_wr", lo=float(lo), hi=float(hi), t=int(t),
            structure=structure, seed=seed,
        )

    @classmethod
    def estimate(
        cls,
        lo: float,
        hi: float,
        *,
        target: float,
        confidence: float = 0.95,
        batch: int = 256,
        max_draws: int = 65536,
        structure: str = DEFAULT_STRUCTURE,
        seed: int | None = None,
    ) -> "BatchOp":
        """Return an adaptive-estimate op (draw until CI width <= target)."""
        return cls(
            "estimate", lo=float(lo), hi=float(hi), structure=structure,
            seed=seed, target=float(target), confidence=float(confidence),
            batch_draws=int(batch), max_draws=int(max_draws),
        )


@dataclass(slots=True)
class MixedResult:
    """Outcome of one :meth:`BatchQueryRunner.run_mixed` call.

    ``samples[i]`` aligns with the ``i``-th input op: the samples of a
    ``sample`` op, the integer result of a ``count`` op, ``None`` for
    updates.  ``stats.extra`` records ``"updates"`` (total update ops),
    ``"bulk_update_calls"`` (how many coalesced bulk calls served them)
    and, with read coalescing on, ``"read_bulk_calls"`` — alongside the
    per-structure ``"queries:<name>"`` counters.

    ``errors`` is ``None`` unless the stream ran with
    ``capture_errors=True``; it then aligns with the ops — ``None`` for an
    op that succeeded, the raised :class:`~repro.errors.ReproError` for
    one that failed.
    """

    samples: list = field(default_factory=list)
    stats: QueryStats = field(default_factory=QueryStats)
    elapsed_seconds: float = 0.0
    errors: list | None = None

    @property
    def operations(self) -> int:
        """Total operations executed (updates + queries)."""
        return self.stats.queries + self.stats.extra.get("updates", 0)

    @property
    def ops_per_second(self) -> float:
        """Stream throughput (0.0 when the stream was empty or instant)."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.operations / self.elapsed_seconds


@dataclass(slots=True)
class BatchResult:
    """Outcome of one :meth:`BatchQueryRunner.run` call.

    ``samples[i]`` holds the samples of the ``i``-th input query (a NumPy
    array on the vectorized paths, a list on scalar fallbacks).  ``stats``
    aggregates across the whole batch; ``stats.extra`` records the number
    of queries routed to each structure under ``"queries:<name>"`` keys.
    """

    samples: list = field(default_factory=list)
    stats: QueryStats = field(default_factory=QueryStats)
    elapsed_seconds: float = 0.0

    @property
    def total_samples(self) -> int:
        """Total samples returned across the batch."""
        return self.stats.samples_returned

    @property
    def queries_per_second(self) -> float:
        """Batch throughput (0.0 when the batch was empty or instant)."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.stats.queries / self.elapsed_seconds


def _normalize(query) -> BatchQuery:
    if isinstance(query, BatchQuery):
        return query
    try:
        if len(query) == 3:
            lo, hi, t = query
            return BatchQuery(float(lo), float(hi), int(t))
        if len(query) == 4:
            lo, hi, t, structure = query
            return BatchQuery(float(lo), float(hi), int(t), str(structure))
    except (TypeError, ValueError):
        pass
    raise InvalidQueryError(
        f"expected BatchQuery or (lo, hi, t[, structure]) tuple, got {query!r}"
    )


def _accepts_weights(sampler) -> bool:
    """True if the sampler's insert path takes a weight argument.

    Checked upfront by :meth:`BatchQueryRunner.run_mixed` so a weighted
    insert op against an unweighted structure fails as a typed error
    before any op executes, instead of a mid-stream ``TypeError``.
    """
    import inspect

    bulk = getattr(sampler, "insert_bulk", None)
    if bulk is not None:  # flush prefers the bulk path, so its signature rules
        method, param = bulk, "weights"
    else:
        method, param = getattr(sampler, "insert", None), "weight"
    if method is None:
        return False
    try:
        return param in inspect.signature(method).parameters
    except (TypeError, ValueError):  # pragma: no cover - builtin callables
        return False


_SCENARIO_KINDS = ("stratified", "sample_wr", "estimate")


def _normalize_op(op) -> BatchOp:
    """Coerce a :class:`BatchOp` or shorthand tuple to a validated op."""
    if isinstance(op, BatchOp):
        if op.kind not in ("insert", "delete", "sample", "count") + _SCENARIO_KINDS:
            raise InvalidQueryError(f"unknown op kind: {op.kind!r}")
        return op
    try:
        kind = op[0]
        if kind == "insert" and len(op) in (2, 3):
            structure = op[2] if len(op) == 3 else DEFAULT_STRUCTURE
            return BatchOp.insert(float(op[1]), structure=str(structure))
        if kind == "delete" and len(op) in (2, 3):
            structure = op[2] if len(op) == 3 else DEFAULT_STRUCTURE
            return BatchOp.delete(float(op[1]), structure=str(structure))
        if kind == "sample" and len(op) in (4, 5):
            structure = op[4] if len(op) == 5 else DEFAULT_STRUCTURE
            return BatchOp.sample(
                float(op[1]), float(op[2]), int(op[3]), structure=str(structure)
            )
        if kind == "count" and len(op) in (3, 4):
            structure = op[3] if len(op) == 4 else DEFAULT_STRUCTURE
            return BatchOp.count(float(op[1]), float(op[2]), structure=str(structure))
    except (TypeError, ValueError, IndexError):
        pass
    raise InvalidQueryError(
        "expected BatchOp, ('insert'|'delete', value[, structure]), "
        "('sample', lo, hi, t[, structure]) or ('count', lo, hi[, structure]), "
        f"got {op!r}"
    )


def _exec_sample(sampler, bulk, lo: float, hi: float, t: int, seed: int | None):
    """Run one sampling query, honoring an optional per-query seed.

    Seeded queries require a ``sample_bulk`` that accepts ``seed`` (every
    sampler in this library does); a structure without one fails as a
    typed :class:`~repro.errors.InvalidQueryError`.
    """
    if seed is None:
        if bulk is not None:
            return bulk(lo, hi, t)
        return sampler.sample(lo, hi, t)
    if bulk is None:
        raise InvalidQueryError(
            f"{type(sampler).__name__} has no sample_bulk; seeded queries "
            "need one"
        )
    try:
        return bulk(lo, hi, t, seed=seed)
    except TypeError as exc:
        if "seed" not in str(exc):
            raise
        raise InvalidQueryError(
            f"{type(sampler).__name__}.sample_bulk does not accept a "
            "per-query seed; seeded queries need seed= support"
        ) from exc


def _call_many(sampler, many, group: list, seeds: list):
    """Call ``sample_bulk_many`` with per-query seeds, typed on failure."""
    try:
        return many(group, seeds=seeds)
    except TypeError as exc:
        if "seeds" not in str(exc):
            raise
        raise InvalidQueryError(
            f"{type(sampler).__name__}.sample_bulk_many does not accept "
            "per-query seeds; seeded queries need seeds= support"
        ) from exc


class BatchQueryRunner:
    """Execute many ``(lo, hi, t)`` queries through the vectorized paths.

    Parameters
    ----------
    structures:
        Either a single sampler (registered under ``"default"``) or a
        mapping ``name -> sampler``.  Any object satisfying the
        :class:`~repro.core.base.RangeSampler` protocol works; structures
        exposing ``sample_bulk`` get the vectorized treatment.
    """

    def __init__(
        self, structures: RangeSampler | Mapping[str, RangeSampler]
    ) -> None:
        if isinstance(structures, Mapping):
            self._structures = dict(structures)
        else:
            self._structures = {DEFAULT_STRUCTURE: structures}
        if not self._structures:
            raise ValueError("BatchQueryRunner needs at least one structure")

    @property
    def structures(self) -> Mapping[str, RangeSampler]:
        """The registered structures (read-only view by convention)."""
        return self._structures

    def _group(self, batch: Sequence[BatchQuery]) -> dict[str, list[int]]:
        """Group query indices per structure, preserving submission order.

        Every structure name is resolved before anything executes so an
        unknown name fails atomically — no group runs (mutating sampler
        RNG state and stats) only for the batch to abort midway.
        """
        groups: dict[str, list[int]] = {}
        for i, q in enumerate(batch):
            groups.setdefault(q.structure, []).append(i)
        for name in groups:
            if name not in self._structures:
                raise KeyNotFoundError(f"unknown structure: {name!r}")
        return groups

    def run(self, queries: Sequence[BatchQuery | tuple]) -> BatchResult:
        """Execute the batch and return order-aligned samples plus stats."""
        batch = [_normalize(q) for q in queries]
        result = BatchResult(samples=[None] * len(batch))
        stats = result.stats
        groups = self._group(batch)
        clock = time.perf_counter
        start = clock()
        for name, indices in groups.items():
            sampler = self._structures[name]
            many = getattr(sampler, "sample_bulk_many", None)
            if many is not None:
                # Scatter-gather structures take the whole group in one
                # call, so worker dispatch is amortized across the batch.
                group = [(batch[i].lo, batch[i].hi, batch[i].t) for i in indices]
                if any(batch[i].seed is not None for i in indices):
                    seeds = [batch[i].seed for i in indices]
                    group_results = _call_many(sampler, many, group, seeds)
                else:
                    group_results = many(group)
                for i, samples in zip(indices, group_results):
                    result.samples[i] = samples
                    stats.samples_returned += len(samples)
            else:
                bulk = getattr(sampler, "sample_bulk", None)
                for i in indices:
                    q = batch[i]
                    samples = _exec_sample(sampler, bulk, q.lo, q.hi, q.t, q.seed)
                    result.samples[i] = samples
                    stats.samples_returned += len(samples)
            stats.queries += len(indices)
            key = f"queries:{name}"
            stats.extra[key] = stats.extra.get(key, 0) + len(indices)
        result.elapsed_seconds = clock() - start
        return result

    def run_counts(self, queries: Sequence) -> list[int]:
        """Resolve many count-only queries through the vectorized probes.

        ``queries`` are ``(lo, hi[, structure])`` tuples (or
        :class:`BatchQuery` instances whose ``t`` is ignored).  Structures
        exposing ``peek_counts`` answer their whole group with one
        vectorized multi-range probe; the rest fall back to per-query
        ``count``.  Results align with the input order.
        """
        batch: list[BatchQuery] = []
        for query in queries:
            if isinstance(query, BatchQuery):
                batch.append(query)
            else:
                try:
                    if len(query) == 2:
                        lo, hi = query
                        batch.append(BatchQuery(float(lo), float(hi), 0))
                        continue
                    if len(query) == 3 and isinstance(query[2], str):
                        lo, hi, structure = query
                        batch.append(BatchQuery(float(lo), float(hi), 0, structure))
                        continue
                    batch.append(_normalize(query))
                    continue
                except (TypeError, ValueError, InvalidQueryError):
                    pass
                raise InvalidQueryError(
                    f"expected (lo, hi[, structure]) or BatchQuery, got {query!r}"
                )
        groups = self._group(batch)
        out: list[int] = [0] * len(batch)
        for name, indices in groups.items():
            sampler = self._structures[name]
            peek = getattr(sampler, "peek_counts", None)
            if peek is not None:
                counts = peek([(batch[i].lo, batch[i].hi) for i in indices])
                for i, k in zip(indices, counts):
                    out[i] = int(k)
            else:
                for i in indices:
                    out[i] = sampler.count(batch[i].lo, batch[i].hi)
        return out

    def run_mixed(
        self,
        ops: Sequence[BatchOp | tuple],
        *,
        capture_errors: bool = False,
        coalesce_reads: bool = False,
    ) -> MixedResult:
        """Execute a mixed insert/delete/sample/count stream in order.

        Runs of consecutive same-kind updates to the same structure are
        coalesced into one ``insert_bulk``/``delete_bulk`` call (falling
        back to the scalar loop on structures without a bulk path), flushed
        whenever the run breaks — a different op kind against that
        structure, or the end of the stream.  Coalescing preserves the
        stream's semantics exactly: no update is reordered across an update
        of the other kind or across a query that could observe it.

        With ``coalesce_reads=True``, all ``sample`` and ``count`` ops
        against a structure between two writes to it form one read run,
        flushed as one ``sample_bulk_many`` scatter round plus one
        ``peek_counts`` probe on structures that expose them (reads do not
        change what other reads observe, and the samples keep their order,
        so this is exactly what executing them one by one returns).  Reads
        never cross a write to their structure in either direction, so
        every query observes exactly the updates that preceded it.  Seeded
        sample ops (:attr:`BatchOp.seed`) stay reproducible no matter how
        the runs form; with the default ``coalesce_reads=False``, reads
        execute immediately, exactly as earlier releases did.

        Scenario reads (``stratified``, ``sample_wr``, ``estimate``) never
        coalesce: each flushes its structure's pending run, then executes
        immediately, so it observes exactly the updates that preceded it.

        With ``capture_errors=True``, a failing op no longer aborts the
        stream: its :class:`~repro.errors.ReproError` lands in
        :attr:`MixedResult.errors` at the op's index (the bulk update paths
        validate before mutating, so a failed run is replayed scalar-wise
        to attribute the failure to the exact ops that caused it).  With
        the default ``False``, a failed bulk delete (absent value) raises
        after the updates that preceded its run were applied; the failing
        bulk call itself is atomic on structures with a bulk path.
        """
        stream = [_normalize_op(op) for op in ops]
        result = MixedResult(samples=[None] * len(stream))
        if capture_errors:
            result.errors = [None] * len(stream)
        stats = result.stats
        weight_ok: dict[str, bool] = {}  # signature inspection, once per structure
        for i, op in enumerate(stream):
            try:
                if op.structure not in self._structures:
                    raise KeyNotFoundError(f"unknown structure: {op.structure!r}")
                if op.kind in ("insert", "delete"):
                    sampler = self._structures[op.structure]
                    if (
                        getattr(sampler, op.kind, None) is None
                        and getattr(sampler, op.kind + "_bulk", None) is None
                    ):
                        raise InvalidQueryError(
                            f"structure {op.structure!r} does not support {op.kind}"
                        )
                    if op.kind == "insert" and op.weight is not None:
                        ok = weight_ok.get(op.structure)
                        if ok is None:
                            ok = weight_ok[op.structure] = _accepts_weights(sampler)
                        if not ok:
                            raise InvalidQueryError(
                                f"structure {op.structure!r} does not accept "
                                "weighted inserts"
                            )
            except ReproError as exc:
                # Upfront violations fail the whole stream atomically —
                # except in capture mode, where they become this op's typed
                # error and the op is skipped (its batch-mates still run).
                if not capture_errors:
                    raise
                result.errors[i] = exc
        # Per-structure pending run.  Updates: (kind, values, weights | None,
        # indices); coalesced reads: ("read", sample indices, count indices).
        pending: dict[str, tuple] = {}
        bulk_calls = 0
        read_bulk_calls = 0
        updates = 0
        count_ops = 0

        def record_samples(name: str, i: int, samples) -> None:
            result.samples[i] = samples
            stats.queries += 1
            stats.samples_returned += len(samples)
            key = f"queries:{name}"
            stats.extra[key] = stats.extra.get(key, 0) + 1

        def scalar_updates(sampler, kind, values, weights, indices) -> None:
            for j, value in enumerate(values):
                try:
                    if kind == "delete":
                        sampler.delete(value)
                    elif weights is not None:
                        sampler.insert(value, weights[j])
                    else:
                        sampler.insert(value)
                except ReproError as exc:
                    if not capture_errors:
                        raise
                    result.errors[indices[j]] = exc

        def flush_update(name, sampler, kind, values, weights, indices) -> None:
            nonlocal bulk_calls
            bulk = getattr(sampler, kind + "_bulk", None)
            if bulk is not None:
                bulk_calls += 1
                args = (values,) if weights is None else (values, weights)
                if not capture_errors:
                    bulk(*args)
                    return
                try:
                    bulk(*args)
                    return
                except ReproError:
                    # The bulk paths validate before mutating, so nothing
                    # was applied; replay scalar-wise to attribute the
                    # failure to the exact offending ops.
                    pass
            scalar_updates(sampler, kind, values, weights, indices)

        def flush_samples(name, sampler, indices) -> None:
            nonlocal read_bulk_calls
            many = getattr(sampler, "sample_bulk_many", None)
            if many is not None:
                group = [(stream[i].lo, stream[i].hi, stream[i].t) for i in indices]
                seeds = [stream[i].seed for i in indices]
                try:
                    if any(s is not None for s in seeds):
                        group_results = _call_many(sampler, many, group, seeds)
                    else:
                        group_results = many(group)
                except ReproError:
                    if not capture_errors:
                        raise
                else:
                    read_bulk_calls += 1
                    for i, samples in zip(indices, group_results):
                        record_samples(name, i, samples)
                    return
                # Fall through: replay per op so errors attach per request.
                # Seeded ops re-derive their generators from their seeds, so
                # the replay returns exactly what a lone call would have.
            bulk = getattr(sampler, "sample_bulk", None)
            for i in indices:
                op = stream[i]
                try:
                    samples = _exec_sample(sampler, bulk, op.lo, op.hi, op.t, op.seed)
                except ReproError as exc:
                    if not capture_errors:
                        raise
                    result.errors[i] = exc
                else:
                    record_samples(name, i, samples)

        def flush_counts(name, sampler, indices) -> None:
            nonlocal read_bulk_calls
            peek = getattr(sampler, "peek_counts", None)
            if peek is not None:
                try:
                    counts = peek([(stream[i].lo, stream[i].hi) for i in indices])
                except ReproError:
                    if not capture_errors:
                        raise
                else:
                    read_bulk_calls += 1
                    for i, k in zip(indices, counts):
                        result.samples[i] = int(k)
                    return
            for i in indices:
                op = stream[i]
                try:
                    result.samples[i] = sampler.count(op.lo, op.hi)
                except ReproError as exc:
                    if not capture_errors:
                        raise
                    result.errors[i] = exc

        def flush(name: str) -> None:
            run = pending.pop(name, None)
            if run is None:
                return
            sampler = self._structures[name]
            kind = run[0]
            if kind in ("insert", "delete"):
                flush_update(name, sampler, kind, run[1], run[2], run[3])
                return
            # A read run: no read changes what another read observes, so
            # the samples go first, then the counts.
            if run[1]:
                flush_samples(name, sampler, run[1])
            if run[2]:
                flush_counts(name, sampler, run[2])

        def exec_scenario(name: str, i: int, op: BatchOp) -> None:
            """Run one scenario read (stratified / sample_wr / estimate)."""
            sampler = self._structures[name]
            try:
                if op.kind == "stratified":
                    from ..scenarios.stratified import sample_stratified

                    blocks = sample_stratified(
                        sampler, op.strata, op.t, seed=op.seed
                    )
                    result.samples[i] = blocks
                    stats.samples_returned += sum(len(b) for b in blocks)
                elif op.kind == "sample_wr":
                    from ..core.without_replacement import (
                        sample_without_replacement_bulk,
                    )

                    block = sample_without_replacement_bulk(
                        sampler, op.lo, op.hi, op.t, seed=op.seed
                    )
                    result.samples[i] = block
                    stats.samples_returned += len(block)
                else:  # estimate
                    from ..scenarios.estimate import adaptive_estimate

                    outcome = adaptive_estimate(
                        sampler, op.lo, op.hi,
                        target_half_width=op.target, confidence=op.confidence,
                        batch=op.batch_draws, max_draws=op.max_draws,
                        seed=op.seed,
                    )
                    result.samples[i] = outcome
                    stats.samples_returned += outcome.draws
            except ReproError as exc:
                if not capture_errors:
                    raise
                result.errors[i] = exc
                return
            stats.queries += 1
            key = f"queries:{name}"
            stats.extra[key] = stats.extra.get(key, 0) + 1

        clock = time.perf_counter
        start = clock()
        for i, op in enumerate(stream):
            if capture_errors and result.errors[i] is not None:
                continue  # refused upfront; its batch-mates still run
            name = op.structure
            run = pending.get(name)
            if op.kind in _SCENARIO_KINDS:
                # Scenario reads execute immediately (never coalesced) but
                # still order against pending writes to their structure.
                flush(name)
                exec_scenario(name, i, op)
                continue
            if op.kind in ("sample", "count"):
                if op.kind == "count":
                    count_ops += 1
                if coalesce_reads:
                    if run is not None and run[0] != "read":
                        flush(name)
                        run = None
                    if run is None:
                        pending[name] = run = ("read", [], [])
                    run[1 if op.kind == "sample" else 2].append(i)
                    continue
                flush(name)
                sampler = self._structures[name]
                if op.kind == "count":
                    try:
                        result.samples[i] = sampler.count(op.lo, op.hi)
                    except ReproError as exc:
                        if not capture_errors:
                            raise
                        result.errors[i] = exc
                    continue
                bulk = getattr(sampler, "sample_bulk", None)
                try:
                    samples = _exec_sample(sampler, bulk, op.lo, op.hi, op.t, op.seed)
                except ReproError as exc:
                    if not capture_errors:
                        raise
                    result.errors[i] = exc
                else:
                    record_samples(name, i, samples)
                continue
            updates += 1
            if run is not None and run[0] != op.kind:
                flush(name)
                run = None
            if run is None:
                needs_weights = op.kind == "insert" and op.weight is not None
                run = (op.kind, [], [] if needs_weights else None, [])
                pending[name] = run
            run[1].append(op.value)
            run[3].append(i)
            if run[2] is not None:
                run[2].append(1.0 if op.weight is None else op.weight)
            elif op.kind == "insert" and op.weight is not None:
                # A weighted insert joined an unweighted run: backfill.
                pending[name] = (
                    run[0], run[1], [1.0] * (len(run[1]) - 1) + [op.weight], run[3]
                )
        for name in list(pending):
            flush(name)
        result.elapsed_seconds = clock() - start
        stats.extra["updates"] = updates
        stats.extra["bulk_update_calls"] = bulk_calls
        if count_ops:
            stats.extra["counts"] = count_ops
        if coalesce_reads:
            stats.extra["read_bulk_calls"] = read_bulk_calls
        return result

    def run_means(self, queries: Sequence[BatchQuery | tuple]) -> list[float]:
        """Convenience for online aggregation: per-query sample means.

        Empty results (``t == 0``) yield ``nan`` rather than raising.
        """
        result = self.run(queries)
        means: list[float] = []
        for samples in result.samples:
            if len(samples) == 0:
                means.append(float("nan"))
            elif _np is not None:
                means.append(float(_np.mean(samples)))
            else:  # pragma: no cover - numpy is installed in CI
                means.append(sum(samples) / len(samples))
        return means
