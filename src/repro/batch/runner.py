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
* Every ``sample`` and ``count`` read, in ``run``, ``run_counts`` and both
  ``run_mixed`` modes, goes through ``_sample_run`` / ``_count_run``;
  their ``coalesce`` argument picks one ``sample_bulk_many`` /
  ``peek_counts`` call per run or the per-query calls.  Scenario reads
  run one at a time through the ``_EXECUTORS`` table.
"""

from __future__ import annotations

import time
from dataclasses import FrozenInstanceError, dataclass, field, fields
from operator import attrgetter
from typing import Mapping, Sequence

import numpy as _np

from ..core.base import RangeSampler
from ..core.without_replacement import sample_without_replacement_bulk
from ..errors import InvalidQueryError, KeyNotFoundError, ReproError
from ..scenarios.estimate import adaptive_estimate
from ..scenarios.stratified import sample_stratified
from ..types import QueryStats

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


@dataclass(slots=True, eq=False)
class _OpFields:
    """The fields of a :class:`BatchOp`, with dataclasses' unguarded ``__init__``.

    A frozen dataclass fills each field through ``object.__setattr__``,
    which costs about four times a plain slot store; :class:`BatchOp`
    builds one of these and then seals it (:func:`_sealed`).
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
    values: object = None  # a bulk update's read-only float64 array
    weights: object = None  # and its aligned weights, when given


#: The fields equality and hashing compare directly (arrays aside).
_SCALAR_FIELDS = attrgetter(
    *(f.name for f in fields(_OpFields) if f.name not in ("values", "weights"))
)


def _sealed(op: _OpFields) -> "BatchOp":
    # Same slot layout, so the instance changes class in place.
    op.__class__ = BatchOp
    return op


def _frozen_floats(values) -> "_np.ndarray":
    """Return a private read-only 1-D float64 copy of ``values``."""
    array = _np.array(values, dtype=_np.float64)
    if array.ndim != 1:
        raise ValueError(f"bulk values must be one-dimensional, got shape {array.shape}")
    array.flags.writeable = False
    return array


def _same_array(a, b) -> bool:
    return a is b or (a is not None and b is not None and _np.array_equal(a, b))


class BatchOp(_OpFields):
    """One operation inside a mixed read/write stream.

    ``kind`` is ``"insert"``, ``"delete"``, ``"sample"``, ``"count"``, or
    one of the scenario reads — ``"stratified"`` (exact multinomial split
    of ``t`` across :attr:`strata`), ``"sample_wr"`` (bulk Floyd
    without-replacement) and ``"estimate"`` (adaptive online aggregation
    to a target CI half-width).  A bulk update (:meth:`insert_bulk`,
    :meth:`delete_bulk`) is one ``insert``/``delete`` op whose
    :attr:`values` holds a read-only float64 array (and :attr:`weights`
    its weights, when given) in place of ``value``/``weight``.  Use the
    constructors below rather than filling fields positionally.

    Ops are immutable: assigning or deleting a field raises
    :class:`dataclasses.FrozenInstanceError`, as it would on a frozen
    dataclass, and the arrays are not writeable.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "BatchOp":
        """Build the fields unguarded, freeze any arrays, then seal them."""
        op = _OpFields(*args, **kwargs)
        if op.values is not None:
            op.values = _frozen_floats(op.values)
        if op.weights is not None:
            op.weights = _frozen_floats(op.weights)
        return _sealed(op)

    def __init__(self, *args, **kwargs) -> None:
        """Do nothing: ``__new__`` filled the fields."""

    def __setattr__(self, name, value) -> None:
        """Refuse: ops are immutable."""
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name) -> None:
        """Refuse: ops are immutable."""
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        """Field-wise equality, the arrays compared by value."""
        if other.__class__ is not BatchOp:
            return NotImplemented
        return (
            _SCALAR_FIELDS(self) == _SCALAR_FIELDS(other)
            and _same_array(self.values, other.values)
            and _same_array(self.weights, other.weights)
        )

    def __hash__(self) -> int:
        """Hash of the non-array fields (equal ops hash equal)."""
        return hash(_SCALAR_FIELDS(self))

    def __reduce__(self):
        """Pickle and copy through the constructor."""
        return BatchOp, tuple(getattr(self, f.name) for f in fields(_OpFields))

    @property
    def size(self) -> int:
        """The updates the op stands for: ``len(values)`` if bulk, else 1."""
        return 1 if self.values is None else len(self.values)

    @classmethod
    def insert(
        cls, value: float, weight: float | None = None, structure: str = DEFAULT_STRUCTURE
    ) -> "BatchOp":
        """Return an insertion op (``weight`` only on weighted samplers)."""
        return _sealed(_OpFields("insert", float(value), weight, structure=structure))

    @classmethod
    def delete(cls, value: float, structure: str = DEFAULT_STRUCTURE) -> "BatchOp":
        """Return an op deleting one occurrence of ``value``."""
        return _sealed(_OpFields("delete", float(value), structure=structure))

    @classmethod
    def insert_bulk(
        cls, values, weights=None, structure: str = DEFAULT_STRUCTURE
    ) -> "BatchOp":
        """Return one op inserting every value (``weights`` aligned, optional)."""
        values = _frozen_floats(values)
        if weights is not None:
            weights = _frozen_floats(weights)
            if len(weights) != len(values):
                raise ValueError(
                    f"values and weights differ in length: {len(values)} != "
                    f"{len(weights)}"
                )
        return _sealed(
            _OpFields("insert", values=values, weights=weights, structure=structure)
        )

    @classmethod
    def delete_bulk(cls, values, structure: str = DEFAULT_STRUCTURE) -> "BatchOp":
        """Return one op deleting one occurrence of every value."""
        return _sealed(
            _OpFields("delete", values=_frozen_floats(values), structure=structure)
        )

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
        return _sealed(_OpFields(
            "sample", lo=float(lo), hi=float(hi), t=int(t), structure=structure,
            seed=seed,
        ))

    @classmethod
    def count(
        cls, lo: float, hi: float, structure: str = DEFAULT_STRUCTURE
    ) -> "BatchOp":
        """Return a range-count op (result is ``|P ∩ [lo, hi]|``)."""
        return _sealed(
            _OpFields("count", lo=float(lo), hi=float(hi), structure=structure)
        )

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
        return _sealed(_OpFields(
            "stratified", t=int(t), structure=structure, seed=seed, strata=bounds
        ))

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
        return _sealed(_OpFields(
            "sample_wr", lo=float(lo), hi=float(hi), t=int(t),
            structure=structure, seed=seed,
        ))

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
        return _sealed(_OpFields(
            "estimate", lo=float(lo), hi=float(hi), structure=structure,
            seed=seed, target=float(target), confidence=float(confidence),
            batch_draws=int(batch), max_draws=int(max_draws),
        ))


@dataclass(slots=True)
class MixedResult:
    """Outcome of one :meth:`BatchQueryRunner.run_mixed` call.

    ``samples[i]`` aligns with the ``i``-th input op: the samples of a
    ``sample`` op, the integer result of a ``count`` op, ``None`` for
    updates.  ``stats.extra`` records ``"updates"`` (total updates, a bulk
    op counting one per value), ``"bulk_update_calls"`` (how many
    coalesced bulk calls served them),
    ``"counts"`` (count ops, when there are any) and, with read
    coalescing on, ``"read_bulk_calls"`` — alongside the per-structure
    ``"queries:<name>"`` counters.

    ``errors`` is ``None`` unless the stream ran with
    ``capture_errors=True``; it then aligns with the ops — ``None`` for an
    op that succeeded, the raised :class:`~repro.errors.ReproError` for
    one that failed.  A bulk op with a failed value gets a list aligned
    with its values instead: ``None`` for each value that applied, the
    error for each that did not.
    """

    samples: list = field(default_factory=list)
    stats: QueryStats = field(default_factory=QueryStats)
    elapsed_seconds: float = 0.0
    errors: list | None = None

    @property
    def operations(self) -> int:
        """Total operations executed (updates + counts + other queries)."""
        extra = self.stats.extra
        return self.stats.queries + extra.get("updates", 0) + extra.get("counts", 0)

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


def _stratified(sampler, op: BatchOp):
    blocks = sample_stratified(sampler, op.strata, op.t, seed=op.seed)
    return blocks, sum(len(b) for b in blocks)


def _sample_wr(sampler, op: BatchOp):
    block = sample_without_replacement_bulk(sampler, op.lo, op.hi, op.t, seed=op.seed)
    return block, len(block)


def _estimate(sampler, op: BatchOp):
    outcome = adaptive_estimate(
        sampler, op.lo, op.hi, target_half_width=op.target,
        confidence=op.confidence, batch=op.batch_draws, max_draws=op.max_draws,
        seed=op.seed,
    )
    return outcome, outcome.draws


#: Scenario read kind -> ``executor(sampler, op) -> (result, samples drawn)``.
_EXECUTORS = {"stratified": _stratified, "sample_wr": _sample_wr, "estimate": _estimate}

_KINDS = ("insert", "delete", "sample", "count", *_EXECUTORS)


def _normalize_op(op) -> BatchOp:
    """Coerce a :class:`BatchOp` or shorthand tuple to a validated op."""
    if isinstance(op, BatchOp):
        if op.kind not in _KINDS:
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


def _update_values(op: BatchOp) -> tuple[list, list | None]:
    """Return an update op's values and, for a weighted insert, its weights."""
    if op.values is None:
        values, weights = [op.value], None if op.weight is None else [op.weight]
    else:
        values = op.values.tolist()
        weights = None if op.weights is None else op.weights.tolist()
    return values, weights if op.kind == "insert" else None


def _attribute(failed: dict, stream: list, indices: list, errors: list) -> None:
    """Scatter a replayed update run's failures onto the ops of the run.

    ``failed`` maps a value's position in the run to its error.  A scalar
    op gets its error; a bulk op with a failed value gets a list aligned
    with its values, ``None`` for each value that applied.
    """
    start = 0
    for i in indices:
        op = stream[i]
        if op.values is None:
            errors[i] = failed.get(start)
            start += 1
            continue
        span = [failed.get(j) for j in range(start, start + len(op.values))]
        if any(exc is not None for exc in span):
            errors[i] = span
        start += len(span)


def _exec_sample(sampler, bulk, query):
    """Run one sampling query, honoring an optional per-query seed.

    Seeded queries require a ``sample_bulk`` that accepts ``seed`` (every
    sampler in this library does); a structure without one fails as a
    typed :class:`~repro.errors.InvalidQueryError`.
    """
    lo, hi, t, seed = query.lo, query.hi, query.t, query.seed
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


def _tally(stats: QueryStats, name: str, queries: int, samples: int) -> None:
    """Account ``queries`` answered by structure ``name`` on ``stats``."""
    stats.queries += queries
    stats.samples_returned += samples
    key = f"queries:{name}"
    stats.extra[key] = stats.extra.get(key, 0) + queries


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
        groups = self._group(batch)
        clock = time.perf_counter
        start = clock()
        for name, indices in groups.items():
            # Scatter-gather structures take the whole group in one call,
            # so worker dispatch is amortized across the batch.
            self._sample_run(
                name, batch, indices, result.samples, result.stats, None, True
            )
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
            try:
                if not isinstance(query, BatchQuery) and (
                    len(query) == 2 or (len(query) == 3 and isinstance(query[2], str))
                ):
                    batch.append(_normalize((query[0], query[1], 0, *query[2:])))
                else:
                    batch.append(_normalize(query))
            except (TypeError, InvalidQueryError):
                raise InvalidQueryError(
                    f"expected (lo, hi[, structure]) or BatchQuery, got {query!r}"
                ) from None
        groups = self._group(batch)
        out: list[int] = [0] * len(batch)
        for name, indices in groups.items():
            self._count_run(name, batch, indices, out, None, True)
        return out

    def _sample_run(self, name, queries, indices, out, stats, errors, coalesce) -> int:
        """Draw ``queries[i]``'s samples into ``out[i]`` for ``i`` in ``indices``.

        With ``coalesce``, one ``sample_bulk_many`` call answers the run
        where the structure has it; otherwise, or when that call fails in
        capture mode (``errors`` given), each query runs alone through
        ``sample_bulk``/``sample``.  Returns the bulk calls made (0 or 1).
        """
        sampler = self._structures[name]
        many = getattr(sampler, "sample_bulk_many", None) if coalesce else None
        drawn = None
        if many is not None:
            group = [(queries[i].lo, queries[i].hi, queries[i].t) for i in indices]
            seeds = [queries[i].seed for i in indices]
            try:
                if any(s is not None for s in seeds):
                    drawn = zip(indices, _call_many(sampler, many, group, seeds))
                else:
                    drawn = zip(indices, many(group))
            except ReproError:
                if errors is None:
                    raise
                # Replay per op below so errors attach per query.  Seeded
                # ops re-derive their generators from their seeds, so the
                # replay returns exactly what a lone call would have.
        calls = int(drawn is not None)
        if drawn is None:
            bulk = getattr(sampler, "sample_bulk", None)
            drawn = []
            for i in indices:
                try:
                    drawn.append((i, _exec_sample(sampler, bulk, queries[i])))
                except ReproError as exc:
                    if errors is None:
                        raise
                    errors[i] = exc
        answered = samples = 0
        for i, block in drawn:
            out[i] = block
            answered += 1
            samples += len(block)
        if answered:
            _tally(stats, name, answered, samples)
        return calls

    def _count_run(self, name, queries, indices, out, errors, coalesce) -> int:
        """Count ``queries[i]``'s range into ``out[i]`` for ``i`` in ``indices``.

        Like :meth:`_sample_run`, with one ``peek_counts`` probe as the
        coalesced call and ``count`` per query otherwise.
        """
        sampler = self._structures[name]
        peek = getattr(sampler, "peek_counts", None) if coalesce else None
        if peek is not None:
            try:
                counts = peek([(queries[i].lo, queries[i].hi) for i in indices])
            except ReproError:
                if errors is None:
                    raise
            else:
                for i, k in zip(indices, counts):
                    out[i] = int(k)
                return 1
        for i in indices:
            try:
                out[i] = sampler.count(queries[i].lo, queries[i].hi)
            except ReproError as exc:
                if errors is None:
                    raise
                errors[i] = exc
        return 0

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
        structure, or the end of the stream.  A bulk op
        (:meth:`BatchOp.insert_bulk`/:meth:`BatchOp.delete_bulk`) joins its
        run as its values, so it and its scalar neighbours make one call.
        Coalescing preserves the
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
        validate before mutating, so a failed run is replayed value by
        value to attribute the failure to the exact values that caused
        it; a bulk op's entry is then a per-value list).  With
        the default ``False``, a failed bulk delete (absent value) raises
        after the updates that preceded its run were applied; the failing
        bulk call itself is atomic on structures with a bulk path.
        """
        stream = [_normalize_op(op) for op in ops]
        result = MixedResult(samples=[None] * len(stream))
        if capture_errors:
            result.errors = [None] * len(stream)
        out, stats, errors = result.samples, result.stats, result.errors
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
                    if op.kind == "insert" and (
                        op.weight is not None or op.weights is not None
                    ):
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
                errors[i] = exc if op.values is None else [exc] * len(op.values)
        # Per-structure pending run.  Updates: (kind, values, weights | None,
        # op indices); coalesced reads: ("read", sample indices, count indices).
        pending: dict[str, tuple] = {}
        bulk_calls = 0
        read_bulk_calls = 0
        updates = 0
        count_ops = 0

        def flush_update(sampler, kind, values, weights, indices) -> None:
            nonlocal bulk_calls
            bulk = getattr(sampler, kind + "_bulk", None)
            if bulk is not None:
                bulk_calls += 1
                args = (values,) if weights is None else (values, weights)
                try:
                    bulk(*args)
                    return
                except ReproError:
                    if not capture_errors:
                        raise
                    # The bulk paths validate before mutating, so nothing
                    # was applied; replay value by value to attribute the
                    # failure to the exact offending values.
            scalar = getattr(sampler, kind)
            failed: dict[int, ReproError] = {}
            for j, value in enumerate(values):
                try:
                    if weights is None:
                        scalar(value)
                    else:
                        scalar(value, weights[j])
                except ReproError as exc:
                    if not capture_errors:
                        raise
                    failed[j] = exc
            if failed:
                _attribute(failed, stream, indices, errors)

        def flush(name: str) -> None:
            nonlocal read_bulk_calls
            run = pending.pop(name, None)
            if run is None:
                return
            if run[0] != "read":  # (kind, values, weights, indices)
                flush_update(self._structures[name], *run)
                return
            # A read run: no read changes what another read observes, so
            # the samples go first, then the counts.
            if run[1]:
                read_bulk_calls += self._sample_run(
                    name, stream, run[1], out, stats, errors, True
                )
            if run[2]:
                read_bulk_calls += self._count_run(
                    name, stream, run[2], out, errors, True
                )

        clock = time.perf_counter
        start = clock()
        for i, op in enumerate(stream):
            if capture_errors and errors[i] is not None:
                continue  # refused upfront; its batch-mates still run
            name = op.structure
            run = pending.get(name)
            execute = _EXECUTORS.get(op.kind)
            if execute is not None:
                # Scenario reads execute immediately (never coalesced) but
                # still order against pending writes to their structure.
                flush(name)
                try:
                    out[i], samples = execute(self._structures[name], op)
                except ReproError as exc:
                    if not capture_errors:
                        raise
                    errors[i] = exc
                else:
                    _tally(stats, name, 1, samples)
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
                if op.kind == "sample":
                    self._sample_run(name, stream, (i,), out, stats, errors, False)
                else:
                    self._count_run(name, stream, (i,), out, errors, False)
                continue
            # A bulk op joins the run as its values, one update each.
            values, weights = _update_values(op)
            updates += len(values)
            if run is not None and run[0] != op.kind:
                flush(name)
                run = None
            if run is None:
                run = pending[name] = (op.kind, [], None, [])
            if weights is not None and run[2] is None:
                # A weighted insert joined an unweighted run: backfill.
                run = pending[name] = (run[0], run[1], [1.0] * len(run[1]), run[3])
            if run[2] is not None:
                run[2].extend([1.0] * len(values) if weights is None else weights)
            run[1].extend(values)
            run[3].append(i)
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
            else:
                means.append(float(_np.mean(samples)))
        return means
