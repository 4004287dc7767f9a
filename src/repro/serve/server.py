"""The asyncio serving front end: admission, coalescing, ordered execution.

:class:`ReproServer` turns many small concurrent requests into the few
large calls the batch engine is fast at.  The pipeline has three stages,
all on one event loop:

1. **Admission** (:meth:`ReproServer.submit`): the request is validated
   and typed *before* it can occupy queue space — malformed payloads,
   unknown ops/structures and oversized requests are answered immediately
   with typed errors, and a full admission queue answers ``overloaded``
   (backpressure) instead of buffering without bound.  Every per-op
   decision, here and in the stages below, reads the op's row in
   :data:`~repro.serve.ops.OPS`.  Each admitted sampling request gets a
   seed — client-provided, or derived as ``derive_seed(root_entropy,
   serial)`` — so its reply depends only on the seed and the data, never
   on how requests happen to share batches.
2. **Coalescing** (the batcher task): admitted requests are grouped into
   a batch until the *window* elapses, the batch holds ``max_batch``
   requests, or the sample budget is spent.  ``max_batch=1`` degenerates
   to naive one-request-per-call serving (the benchmark baseline).  The
   default ``window=0`` skips only the deliberate gather sleep — queued
   backlog still drains into batches (exhaustive service), so a
   saturated zero-window server self-batches instead of going serial,
   and no sleep delays a lone request.
3. **Execution** (the executor task): batches run strictly in admission
   order through :meth:`repro.batch.BatchQueryRunner.run_mixed` with
   ``coalesce_reads=True`` (read runs become single scatter/probe calls,
   update runs become single bulk calls) and ``capture_errors=True``
   (one bad request cannot fail its batch-mates).  Reads therefore
   observe exactly the writes admitted before them — a per-structure
   FIFO consistency model — and responses scatter back to each request's
   future as the batch completes.

With ``data_dir=`` the server is **durable**: on construction it
recovers state from the directory's newest snapshot plus the write-ahead
log (:class:`~repro.store.DurableStore`), every batch's update ops are
logged *before* the batch executes (write-ahead), snapshots checkpoint
on a size trigger (``snapshot_ops``), an optional wall-clock interval
(``snapshot_interval``) and on graceful shutdown, and the covered WAL
prefix is truncated after each checkpoint.  A ``kill -9`` mid-stream
therefore loses no acknowledged update under ``fsync="always"`` (and no
OS-flushed one under the other policies) — restart recovery rebuilds a
byte-identical structure state, and client-seeded sample requests return
byte-identical replies against it.

The server also carries the resilience contract a retrying client
(:class:`~repro.serve.ResilientClient`) stands on:

* **Exactly-once updates.**  An update request may carry a client
  idempotency key (``rid``).  The server keeps a bounded dedup window of
  recent rids: a duplicate (the retry of a reply that got lost on the
  wire) is answered with the recorded outcome instead of re-applied, and
  a duplicate arriving while the original is still in flight waits on it.
  Rids are journaled through the WAL with their batches, so recovery
  rebuilds the window and dedup survives a crash-restart.
* **Degradation over failure.**  A WAL append failure refuses that
  batch's updates with a retryable ``unavailable`` error (the
  write-ahead contract: never execute an unlogged update) while reads in
  the batch still execute; ``overloaded`` refusals carry a
  ``retry_after`` hint computed from the measured arrival and drain
  rates; a failed checkpoint is recorded and retried later instead of
  killing the executor.

The server is single-loop and not thread-safe by design: samplers are
plain mutable Python objects, and one ordered executor is what makes the
write order well-defined.
"""

from __future__ import annotations

import asyncio
import math
import time
from collections import OrderedDict
from contextlib import suppress
from dataclasses import dataclass

from ..batch import BatchOp, BatchQueryRunner
from ..errors import StorageError
from ..obs import AdmissionGate, MetricsHTTP, TraceRecord, TraceRing
from ..obs import trace as obs_trace
from ..rng import RandomSource, derive_seed
from . import protocol
from .observe import ServerObservability
from .ops import OpSpec, spec_for
from .protocol import RequestError
from .stats import ServerStats

__all__ = ["ReproServer"]

# Shared reply-span details: allocated once, never mutated (hot path).
_REPLY_OK = {"ok": True}
_REPLY_ERR = {"ok": False}


@dataclass(slots=True, eq=False)  # compared by identity (traced.remove)
class _Pending:
    """One admitted request (its :data:`~repro.serve.ops.OPS` row) awaiting its batch."""

    request_id: object
    spec: OpSpec
    op: BatchOp
    cost: int
    future: asyncio.Future
    admitted_at: float
    rid: object = None
    trace: TraceRecord | None = None  # set when tracing is on


class ReproServer:
    """Async IRS server with request coalescing over a set of structures.

    Parameters
    ----------
    structures:
        A single sampler or a mapping ``name -> sampler`` — anything
        :class:`~repro.batch.BatchQueryRunner` accepts, including
        :class:`~repro.shard.ShardedIRS`.
    seed:
        Root seed.  Per-request sample seeds derive from it, so a fixed
        seed and a fixed request sequence reproduce every reply
        byte-identically — independent of the coalescing configuration.
    window:
        Coalescing window in seconds: how long a forming batch waits for
        company after its first request arrives; a finite number >= 0.
        The default ``0.0`` skips the wait, but requests already queued
        still drain into the batch; only ``max_batch=1`` executes every
        request alone.
    max_batch:
        Maximum requests per batch.
    max_batch_samples:
        Sample budget per batch; a batch stops growing once the summed
        ``t`` (or bulk-update size) of its requests reaches this.  A
        single oversized request still executes — alone.
    max_t:
        Admission cap on one request's ``t`` / bulk size; larger requests
        are refused with a ``too_large`` typed error.
    max_pending:
        Admission queue bound; submissions beyond it are refused with an
        ``overloaded`` typed error (backpressure, never unbounded memory).
    max_inflight:
        How many formed batches may await execution (pipeline depth).
    max_line:
        TCP line-length limit in bytes (newline-delimited JSON frames).
    data_dir:
        Durability directory (``None`` keeps the server purely
        in-memory).  When set, state is recovered from it on
        construction and every mutating batch is write-ahead logged.
    fsync:
        WAL fsync policy (``always``/``batch``/``off``); only meaningful
        with ``data_dir``.
    snapshot_ops:
        Checkpoint after this many logged update ops.
    snapshot_interval:
        Optional wall-clock checkpoint interval in seconds (checked as
        batches execute; an idle server does not wake up to snapshot).
    dedup_window:
        How many recent update request-ids (``rid``) the exactly-once
        dedup map remembers.  A retry arriving after its rid was evicted
        re-executes — size the window to cover the client's retry
        horizon (attempts x max backoff x peak update rate).
    observe:
        Wire the observability control plane (Prometheus families for
        every layer, per-request tracing, health derivation).  ``False``
        keeps only the plain counters — the metrics-off baseline of the
        overhead benchmark.
    trace_capacity:
        Size of the bounded ring of finished per-request traces.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan` threaded into the WAL
        as a :class:`~repro.faults.FaultyFile` wrapper (sites
        ``wal.torn`` / ``wal.corrupt`` / ``wal.fsync``) and exposed as
        the ``repro_faults_fired_total`` family.
    memory_budget / rate_capacity / overcommit:
        Measured-capacity admission (see
        :class:`~repro.obs.AdmissionGate`): logical resident-byte budget
        across hosted structures, provisioned arrival ceiling in
        requests/s, and the over-commit multiplier applied to both.
        Unset budgets never gate.
    """

    def __init__(
        self,
        structures,
        *,
        seed: int | None = None,
        window: float = 0.0,
        max_batch: int = 256,
        max_batch_samples: int = 1 << 20,
        max_t: int = 1 << 20,
        max_pending: int = 4096,
        max_inflight: int = 8,
        max_line: int = 1 << 20,
        data_dir: str | None = None,
        fsync: str = "batch",
        snapshot_ops: int = 50_000,
        snapshot_interval: float | None = None,
        dedup_window: int = 4096,
        observe: bool = True,
        trace_capacity: int = 512,
        fault_plan=None,
        memory_budget: int | None = None,
        rate_capacity: float | None = None,
        overcommit: float = 1.0,
    ) -> None:
        if not (math.isfinite(window) and window >= 0.0):
            raise ValueError(f"window must be a finite number >= 0, got {window!r}")
        if max_batch < 1 or max_pending < 1 or max_inflight < 1:
            raise ValueError("max_batch, max_pending and max_inflight must be >= 1")
        self._runner = BatchQueryRunner(structures)
        self.store = None
        self.recovery = None
        self.fault_plan = fault_plan
        self._snapshot_interval = snapshot_interval
        self._last_snapshot_at = None  # loop time of the last checkpoint
        if data_dir is not None:
            # Imported here, not at module level: repro.store.wal reuses
            # this package's wire protocol, so a top-level import would be
            # circular.
            from ..store.durable import DurableStore

            wrapper = None
            if fault_plan is not None:
                from ..faults import FaultyFile

                def wrapper(fh, _plan=fault_plan):
                    return FaultyFile(fh, _plan, site="wal")

            self.store = DurableStore(
                data_dir,
                fsync=fsync,
                snapshot_ops=snapshot_ops,
                file_wrapper=wrapper,
            )
            self.recovery = self.store.recover(self._runner.structures, seed=seed)
            self._runner = BatchQueryRunner(self.recovery.structures)
        self._store_closed = False
        self._entropy = RandomSource(seed)._rng.getrandbits(64)
        self._serial = 0
        self._window = float(window)
        self._max_batch = int(max_batch)
        self._max_batch_samples = int(max_batch_samples)
        self._max_t = int(max_t)
        self._max_pending = int(max_pending)
        self._max_inflight = int(max_inflight)
        self._max_line = int(max_line)
        self.stats = ServerStats()
        self.gate = AdmissionGate(
            max_pending,
            memory_budget=memory_budget,
            rate_capacity=rate_capacity,
            overcommit=overcommit,
        )
        self.gate.watch(self._runner.structures)
        self.traces = TraceRing(trace_capacity) if observe else None
        self.obs = ServerObservability(self) if observe else None
        if not observe:
            self.stats.observe_latency = False
        self._metrics_http: MetricsHTTP | None = None
        self._admit_q: asyncio.Queue | None = None
        self._exec_q: asyncio.Queue | None = None
        self._forming: list = []  # the batcher's in-progress batch
        self._tasks: list[asyncio.Task] = []
        self._tcp: asyncio.base_events.Server | None = None
        self._connections: set = set()
        self._closing = False
        self.last_snapshot_error: Exception | None = None
        # rid -> ("done", ok, payload) | ("pending", [(request_id, future)]).
        # Insertion-ordered so eviction drops the oldest outcomes first.
        self._dedup: OrderedDict = OrderedDict()
        self._dedup_window = int(dedup_window)
        if self.recovery is not None:
            # Crash recovery rebuilt the outcomes of every rid journaled in
            # the replayed WAL suffix; seed the window so a client retrying
            # across the restart hits dedup instead of re-applying.
            for rid, (ok, payload) in self.recovery.dedup.items():
                self._dedup[rid] = ("done", ok, payload)
            self._trim_dedup()

    # -- lifecycle ---------------------------------------------------------

    @property
    def structures(self):
        """The served structures (name -> sampler mapping)."""
        return self._runner.structures

    async def start(self) -> "ReproServer":
        """Start the batcher/executor pipeline (idempotent)."""
        if self._admit_q is None:
            self._admit_q = asyncio.Queue(self._max_pending)
            self._exec_q = asyncio.Queue(self._max_inflight)
            self._tasks = [
                asyncio.create_task(self._batch_loop(), name="repro-serve-batcher"),
                asyncio.create_task(self._exec_loop(), name="repro-serve-executor"),
            ]
        return self

    async def start_tcp(self, host: str = "127.0.0.1", port: int = 0) -> "ReproServer":
        """Start the pipeline and listen for TCP clients on ``host:port``.

        ``port=0`` binds an ephemeral port; read it back from
        :attr:`port` (handy for tests and benchmarks).
        """
        await self.start()
        self._tcp = await asyncio.start_server(
            self._handle_connection, host, port, limit=self._max_line
        )
        return self

    @property
    def port(self) -> int | None:
        """The bound TCP port (``None`` before :meth:`start_tcp`)."""
        if self._tcp is None or not self._tcp.sockets:
            return None
        return self._tcp.sockets[0].getsockname()[1]

    async def start_metrics(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> "ReproServer":
        """Serve ``GET /metrics`` and ``GET /healthz`` on ``host:port``.

        Requires ``observe=True`` (the default).  ``port=0`` binds an
        ephemeral port; read it back from :attr:`metrics_port`.
        """
        if self.obs is None:
            raise RuntimeError("metrics exposition requires observe=True")
        if self._metrics_http is None:
            self._metrics_http = MetricsHTTP(
                self.stats.registry.render, self.obs.health
            )
            await self._metrics_http.start(host, port)
        return self

    @property
    def metrics_port(self) -> int | None:
        """The metrics listener's port (``None`` before :meth:`start_metrics`)."""
        return self._metrics_http.port if self._metrics_http is not None else None

    async def aclose(self) -> None:
        """Stop accepting, cancel the pipeline, fail leftover requests.

        Requests still queued when the server closes are answered with a
        typed ``shutting_down`` error rather than left hanging.
        """
        self._closing = True
        if self._metrics_http is not None:
            await self._metrics_http.aclose()
            self._metrics_http = None
        if self._tcp is not None:
            self._tcp.close()
            await self._tcp.wait_closed()
            # The listener's protocol factory is a bound method of this
            # server: dropping the closed listener breaks that cycle.
            self._tcp = None
        for writer in list(self._connections):
            writer.close()
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            with suppress(asyncio.CancelledError):
                await task
        shutdown = RequestError("shutting_down", "server is shutting down")
        leftovers: list = list(self._forming)
        self._forming = []
        for queue in (self._admit_q, self._exec_q):
            while queue is not None and not queue.empty():
                item = queue.get_nowait()
                leftovers.extend(item if isinstance(item, list) else [item])
        for pending in leftovers:
            if pending.rid is not None:
                # Never executed: release the rid (and answer duplicates
                # queued behind it) so a retry against a restarted server
                # re-enters cleanly.
                self._dedup_abort(pending.rid, shutdown)
            if not pending.future.done():
                pending.future.set_result(
                    protocol.error_response(pending.request_id, shutdown)
                )
        if self.store is not None and not self._store_closed:
            self._store_closed = True
            # Graceful shutdown checkpoints whatever the WAL holds beyond
            # the last snapshot, so a clean restart replays nothing.  A
            # storage fault here is recorded, not raised — the WAL still
            # holds everything the snapshot would have covered, and a
            # failing disk must not turn shutdown into a crash.
            try:
                if self.store.ops_since_snapshot > 0:
                    self.store.snapshot(self._runner.structures)
                self.store.close()
            except (StorageError, OSError) as exc:
                self.last_snapshot_error = exc
                with suppress(Exception):
                    self.store.close()

    async def __aenter__(self) -> "ReproServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.aclose()

    # -- admission ---------------------------------------------------------

    def submit(self, request) -> "asyncio.Future[dict]":
        """Admit one request (dict or wire line); resolve to its response.

        Never raises for a bad request — every failure mode becomes a
        typed error *response* on the returned future, which is what a
        network client would see.  Must be called on the server's loop.
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        request_id = request.get("id") if isinstance(request, dict) else None
        t0 = time.perf_counter() if self.traces is not None else 0.0
        try:
            if self._admit_q is None or self._closing:
                raise RequestError("shutting_down", "server is not accepting requests")
            message = request if isinstance(request, dict) else protocol.decode(request)
            request_id = message.get("id")
            if isinstance(request_id, float) and not math.isfinite(request_id):
                # No reply echoing a NaN or Infinity id could be encoded.
                request_id = None
                raise RequestError("bad_request", "field 'id' must be finite")
            pending = self._admit(message, future, loop)
        except RequestError as exc:
            self.stats.observe_rejected()
            future.set_result(protocol.error_response(request_id, exc))
            return future
        if pending is None:  # immediate op (ping/stats/dedup hit/empty bulk)
            return future
        admitted, component = self.gate.admit(
            self._admit_q.qsize() + len(self._forming), self.stats.arrival_rate()
        )
        if not admitted:
            return self._overloaded(
                pending, f"capacity exhausted ({component} pressure >= 1.0)"
            )
        if self.traces is not None:
            record = TraceRecord(
                self.traces.next_id(), pending.request_id, pending.spec.trace_kind, t0
            )
            record.add("admission", t0, time.perf_counter() - t0)
            pending.trace = record
        try:
            self._admit_q.put_nowait(pending)
        except asyncio.QueueFull:
            return self._overloaded(
                pending, f"admission queue full ({self._max_pending} pending)"
            )
        self.stats.observe_admitted(pending.spec.bucket)
        return future

    def _overloaded(self, pending: _Pending, reason: str) -> asyncio.Future:
        """Refuse a validated request with a retryable ``overloaded`` error."""
        if pending.rid is not None:
            # The rid was provisionally registered; a refused request must
            # not leave an in-flight entry behind or its retry would wait
            # forever.
            self._dedup.pop(pending.rid, None)
        self.stats.observe_rejected()
        error = RequestError("overloaded", reason, retry_after=self.retry_after_hint())
        pending.future.set_result(protocol.error_response(pending.request_id, error))
        return pending.future

    def retry_after_hint(self) -> float:
        """Estimate seconds until refused work should retry (overload hint).

        Queue depth over the measured drain rate — "how long until the
        backlog ahead of you clears" — clamped to ``[0.005, 5.0]``.  With
        no drain measurement yet (a cold or wedged server) the floor
        applies: an optimistic quick retry that backoff will stretch if
        the condition persists.
        """
        drain = self.stats.drain_rate()
        depth = (self._admit_q.qsize() if self._admit_q is not None else 0) + len(
            self._forming
        )
        if drain <= 0.0:
            return 0.005
        return min(5.0, max(0.005, depth / drain))

    def trace_snapshot(self, limit=None) -> dict:
        """Return recent finished traces (the ``trace`` op's reply body)."""
        if self.traces is None:
            return {"enabled": False, "total": 0, "records": []}
        if limit is not None and (
            isinstance(limit, bool) or not isinstance(limit, int) or limit < 0
        ):
            raise RequestError(
                "bad_request", "field 'limit' must be a non-negative integer"
            )
        return {
            "enabled": True,
            "total": self.traces.total,
            "records": [r.to_dict() for r in self.traces.recent(limit)],
        }

    def _resolve_seed(self, message: dict) -> int:
        """Resolve a request's sampling seed (shared by every seeded op).

        A client seed is folded into the 64-bit domain up front so an
        exotic value can never blow up mid-batch; an absent seed derives a
        fresh one from the server's entropy and a monotone serial, so every
        reply stays reproducible from the trace.
        """
        seed = message.get("seed")
        if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
            raise RequestError("bad_request", "field 'seed' must be an integer")
        if seed is None:
            self._serial += 1
            return derive_seed(self._entropy, self._serial)
        return seed & ((1 << 64) - 1)

    def _admit(self, message: dict, future, loop) -> _Pending | None:
        """Validate one request; return its pending record or resolve now.

        Checks run op, structure, ``rid`` (and the dedup window), then the
        fields the op's :data:`~repro.serve.ops.OPS` row parses.
        """
        op = message.get("op")
        spec = spec_for(op)
        if spec is None:
            raise RequestError("unknown_op", f"unknown op: {op!r}")
        request_id = message.get("id")
        if spec.immediate is not None:
            future.set_result(
                protocol.ok_response(request_id, spec.immediate(self, message))
            )
            return None
        structure = message.get("structure", "default")
        if not isinstance(structure, str) or structure not in self._runner.structures:
            raise RequestError("unknown_structure", f"unknown structure: {structure!r}")
        rid = message.get("rid") if spec.writes else None
        if rid is not None:
            if isinstance(rid, bool) or not isinstance(rid, (str, int)):
                raise RequestError("bad_request", "field 'rid' must be a string or int")
            if isinstance(rid, str) and len(rid) > 200:
                raise RequestError("bad_request", "field 'rid' exceeds 200 characters")
            entry = self._dedup.get(rid)
            if entry is not None:
                # The retry of an update we already know about: answer with
                # the recorded outcome, or wait for the in-flight original.
                self.stats.observe_dedup_hit()
                if entry[0] == "done":
                    future.set_result(self._dedup_envelope(request_id, entry))
                else:
                    entry[1].append((request_id, future))
                return None
        op, cost = spec.parse(message, structure, self._max_t, self._resolve_seed)
        if op is None:  # a bulk update of no values
            future.set_result(protocol.ok_response(request_id, 0))
            return None
        if rid is not None:
            # Provisionally in flight; duplicates arriving from here on
            # queue behind this future instead of re-executing.
            self._dedup[rid] = ("pending", [])
        return _Pending(request_id, spec, op, cost, future, loop.time(), rid)

    # -- the coalescing pipeline -------------------------------------------

    async def _batch_loop(self) -> None:
        """Group admitted requests into batches under window/size budgets.

        The loop blocks only when idle: one ``get`` for the batch's first
        request, one ``sleep(window)`` to let company arrive, then a
        non-blocking drain up to the budgets.  Whatever the drain leaves
        behind seeds the next batch immediately, so a saturated server
        forms back-to-back batches and the window only ever delays the
        *first* request of an idle period.  Per-request batcher cost is a
        ``get_nowait`` — there is no timer or task per request.
        """
        queue = self._admit_q
        while True:
            batch = self._forming = [await queue.get()]
            budget = batch[0].cost
            if (
                self._window > 0.0
                and budget < self._max_batch_samples
                # A full batch already waiting makes the window pointless —
                # sleeping would only add latency under saturation.
                and queue.qsize() + 1 < self._max_batch
            ):
                await asyncio.sleep(self._window)
            while len(batch) < self._max_batch and budget < self._max_batch_samples:
                try:
                    nxt = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                batch.append(nxt)
                budget += nxt.cost
            await self._exec_q.put(batch)
            self._forming = []

    async def _exec_loop(self) -> None:
        """Execute batches strictly in formation (= admission) order."""
        loop = asyncio.get_running_loop()
        while True:
            batch = await self._exec_q.get()
            self._execute(batch, loop)
            # One cooperative yield per batch keeps the loop responsive to
            # readers/writers even under a steady stream of full batches.
            await asyncio.sleep(0)

    def _execute(self, batch: list, loop) -> None:
        """Write-ahead log one batch, then run it and scatter the replies.

        A failed WAL append degrades instead of crashing: the batch's
        update requests are refused with a retryable ``unavailable``
        error (an unlogged update must never execute — that is the
        write-ahead contract), their rids are released so honest retries
        re-enter cleanly, and the batch's reads still run.  The append
        itself is atomic (:meth:`~repro.store.wal.WriteAheadLog.append`
        rolls back partial frames), so "refused" reliably means "not in
        the log".
        """
        self.stats.observe_batch(len(batch))
        traced = (
            [p for p in batch if p.trace is not None]
            if self.traces is not None
            else []
        )
        if traced:
            t_exec = time.perf_counter()
            for pending in traced:
                # The admission span tuple, read in place (hot path).
                _, s0, d0, _ = pending.trace._spans[0]
                start = s0 + d0
                pending.trace.add("coalesce_wait", start, t_exec - start)
        writers = (
            [p for p in batch if p.spec.writes] if self.store is not None else ()
        )
        if writers:
            update_ops = [pending.op for pending in writers]
            rid_spans: list[tuple] = []
            logged = 0  # rid spans count the record's update values
            for pending in writers:
                if pending.rid is not None:
                    rid_spans.append((pending.rid, logged, pending.op.size))
                logged += pending.op.size
            # Write-ahead: the batch's update ops are durable (to the
            # policy's standard) before any of them mutates a structure.
            # Ops that will fail in execution are logged too — replay runs
            # the same capture-errors path, so they fail identically there.
            # Rid spans ride in the record so recovery can rebuild the
            # dedup window.
            t_wal = time.perf_counter()
            try:
                self.store.log_batch(update_ops, rids=rid_spans or None)
            except (StorageError, OSError) as exc:
                self.stats.observe_wal_failure()
                refusal = RequestError(
                    "unavailable", f"write-ahead log append failed: {exc}"
                )
                for pending in writers:
                    response = protocol.error_response(pending.request_id, refusal)
                    if pending.rid is not None:
                        self._dedup_abort(pending.rid, refusal)
                    self._reply(pending, response, ok=False, loop=loop)
                    if pending.trace is not None:
                        # Refused before execution: the trace is done.
                        traced.remove(pending)
                        self.traces.push(pending.trace)
                batch = [p for p in batch if not p.spec.writes]
                if not batch:
                    if self.obs is not None:
                        self.obs.publish()
                    return
            else:
                if traced:
                    wal_dur = time.perf_counter() - t_wal
                    for pending in writers:
                        if pending.trace is not None:
                            pending.trace.add("wal_append", t_wal, wal_dur)
        if traced:
            # Publish the seed -> trace-id table so the shard scatter path
            # can attribute its task spans to requests (single-loop: one
            # batch executes at a time, so the module global is race-free).
            seed_map = {
                p.op.seed: p.trace.trace_id
                for p in batch
                if p.trace is not None and p.spec.scatter_seed
            }
            obs_trace.set_active(seed_map)
            t_run = time.perf_counter()
            try:
                self._run_batch(batch, loop)
            finally:
                run_dur = time.perf_counter() - t_run
                task_spans = obs_trace.clear_active()
            by_trace: dict[int, list] = {}
            batch_spans: list = []
            for trace_id, shard, start, dur, n in task_spans:
                if trace_id is None:
                    batch_spans.append((shard, start, dur, n))
                else:
                    by_trace.setdefault(trace_id, []).append((shard, start, dur, n))
            for pending in traced:
                record = pending.trace
                record.add("execute", t_run, run_dur)
                for shard, start, dur, n in by_trace.get(record.trace_id, ()):
                    record.add("shard_task", start, dur, {"shard": shard, "n": n})
                for shard, start, dur, n in batch_spans:
                    # Task spans no traced request's seed claims
                    # (untraced members, ops that derive their scatter
                    # seeds): batch-level context on every traced member.
                    record.add(
                        "shard_task", start, dur,
                        {"shard": shard, "n": n, "aggregate": True},
                    )
                self.traces.push(record)
        else:
            self._run_batch(batch, loop)
        self._maybe_checkpoint(loop)
        if self.obs is not None:
            self.obs.publish()

    def _run_batch(self, batch: list, loop) -> None:
        """Run one (already-logged) batch and scatter replies to futures."""
        try:
            mixed = self._runner.run_mixed(
                [pending.op for pending in batch],
                capture_errors=True,
                coalesce_reads=True,
            )
        except Exception as exc:  # defensive: keep the server alive
            failure = RequestError("internal", f"batch execution failed: {exc}")
            for pending in batch:
                response = protocol.error_response(pending.request_id, failure)
                if pending.rid is not None:
                    self._dedup_resolve(pending.rid, response)
                self._reply(pending, response, ok=False, loop=loop)
            return
        for pending, error, value in zip(batch, mixed.errors, mixed.samples):
            if error is not None:
                # Bulk requests are not atomic across their values (the
                # runner applies what it can and lists failures per value)
                # — the error body says what committed (``applied``/
                # ``op_index``), or a client would retry values that
                # already applied.
                body = protocol.span_error_body(
                    error if isinstance(error, list) else (error,)
                )
                response = {"id": pending.request_id, "ok": False, "error": body}
                if pending.rid is not None:
                    self._dedup_resolve(pending.rid, response)
                self._reply(pending, response, ok=False, loop=loop)
                continue
            result, samples = pending.spec.reply(value, pending.op.size)
            response = protocol.ok_response(pending.request_id, result)
            if pending.rid is not None:
                self._dedup_resolve(pending.rid, response)
            self._reply(pending, response, ok=True, loop=loop, samples=samples)

    # -- the exactly-once dedup window -------------------------------------

    def _dedup_envelope(self, request_id, entry) -> dict:
        """Build a reply from a recorded outcome, under the retry's own id."""
        _state, ok, payload = entry
        if ok:
            return protocol.ok_response(request_id, payload)
        return {"id": request_id, "ok": False, "error": dict(payload)}

    def _dedup_resolve(self, rid, response: dict) -> None:
        """Record an executed update's outcome; answer queued duplicates."""
        previous = self._dedup.get(rid)
        ok = bool(response.get("ok"))
        payload = response["result"] if ok else dict(response["error"])
        entry = ("done", ok, payload)
        self._dedup[rid] = entry
        self._dedup.move_to_end(rid)
        if previous is not None and previous[0] == "pending":
            for dup_id, future in previous[1]:
                if not future.done():
                    future.set_result(self._dedup_envelope(dup_id, entry))
        self._trim_dedup()

    def _dedup_abort(self, rid, refusal: RequestError) -> None:
        """Drop an in-flight rid (refused batch): retries re-enter cleanly."""
        previous = self._dedup.pop(rid, None)
        if previous is not None and previous[0] == "pending":
            for dup_id, future in previous[1]:
                if not future.done():
                    future.set_result(protocol.error_response(dup_id, refusal))

    def _trim_dedup(self) -> None:
        """Evict oldest recorded outcomes past the window (keep in-flight)."""
        while len(self._dedup) > self._dedup_window:
            rid, entry = next(iter(self._dedup.items()))
            if entry[0] == "pending":
                break
            del self._dedup[rid]

    def _maybe_checkpoint(self, loop) -> None:
        """Snapshot when the size or wall-clock trigger fires.

        A failing checkpoint (the snapshot directory's disk misbehaving,
        or a structure snapshots refuse) is recorded on
        :attr:`last_snapshot_error` and retried on a later trigger —
        another ``snapshot_ops`` logged ops or the next interval — instead
        of killing the executor or retrying every batch; the WAL still
        holds everything the snapshot would have covered.
        """
        if self.store is None:
            return
        now = loop.time()
        if self._last_snapshot_at is None:
            self._last_snapshot_at = now
        due = self.store.should_snapshot() or (
            self._snapshot_interval is not None
            and now - self._last_snapshot_at >= self._snapshot_interval
            and self.store.ops_since_snapshot > 0
        )
        if due:
            try:
                self.store.snapshot(self._runner.structures)
                self.last_snapshot_error = None
            except (StorageError, OSError) as exc:
                self.last_snapshot_error = exc
            self._last_snapshot_at = loop.time()

    def _reply(self, pending: _Pending, response, *, ok, loop, samples=0) -> None:
        if pending.future.done():  # pragma: no cover - cancellation race
            # A dropped reply drained a slot but was never delivered: it
            # counts toward the drain rate, not toward ok/error replies.
            self.stats.observe_dropped()
            return
        self.stats.observe_reply(ok, loop.time() - pending.admitted_at, samples)
        if pending.trace is not None:
            pending.trace.add(
                "reply", time.perf_counter(), 0.0, _REPLY_OK if ok else _REPLY_ERR
            )
        pending.future.set_result(response)

    # -- TCP transport -----------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        """Serve one TCP client: read frames, submit, stream replies back.

        Replies are relayed through a per-connection queue and written in
        opportunistic groups (one syscall for however many replies are
        ready), which is where serving-side coalescing pays on the wire.
        A client that disconnects mid-batch only loses its own replies —
        they are counted as dropped and the server keeps going.
        """
        out_q: asyncio.Queue = asyncio.Queue()
        writer_task = asyncio.create_task(self._write_loop(writer, out_q))
        self._connections.add(writer)

        def relay(done: asyncio.Future) -> None:
            if writer_task.done():
                self.stats.observe_dropped()
                return
            response = done.result()
            try:
                frame = protocol.encode(response)
            except (TypeError, ValueError) as exc:
                # A reply that cannot be serialized (e.g. a non-finite
                # float that slipped past admission) must still answer —
                # an unresolvable request id is a hung client.
                frame = protocol.encode(
                    protocol.error_response(
                        response.get("id"),
                        RequestError("internal", f"unencodable reply: {exc}"),
                    )
                )
            out_q.put_nowait(frame)

        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionResetError, ValueError):
                    # ValueError: frame longer than max_line.  There is no
                    # way to resync a newline-delimited stream after an
                    # overlong frame, so the connection ends.
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                self.submit(line).add_done_callback(relay)
        except asyncio.CancelledError:
            pass  # shutdown: fall through to the cleanup below
        finally:
            self._connections.discard(writer)
            out_q.put_nowait(None)  # drain, then stop the writer
            with suppress(Exception, asyncio.CancelledError):
                await writer_task
            writer.close()
            with suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()

    async def _write_loop(self, writer, out_q: asyncio.Queue) -> None:
        """Drain the reply queue, grouping ready replies into one write."""
        while True:
            chunk = await out_q.get()
            if chunk is None:
                return
            parts = [chunk]
            stop = False
            while True:
                try:
                    nxt = out_q.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if nxt is None:
                    stop = True
                    break
                parts.append(nxt)
            writer.write(b"".join(parts))
            await writer.drain()
            if stop:
                return
