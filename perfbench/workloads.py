"""The four workloads: two served over TCP, two as direct library calls.

Every workload follows one shape (:func:`run`): untimed input generation
from the seed, at least ``SETUP_REPS`` timed set-ups between two
calibration bursts (the median, at reference speed, is ``setup_s``),
then one measured phase and the output checks.  With tracing on, a second
phase runs on freshly set-up state with the layer wrappers of
:mod:`layers` installed; comparing the two phases gives the tracing
overhead.

A phase is measured in segments of about ``SEGMENT_S`` seconds.  Between
segments, and around the phase, the load pauses for a burst of fixed
calibration work (:func:`calibration_rep`); its median duration gives
the host's speed during the phase.  The machine is shared, and its speed
drifts by tens of percent within minutes, so timings are reported at the
reference speed: time metrics are multiplied by the speed factor and
rates divided by it.  The raw values are kept in the detail record.

Load is closed-loop from this one process: the served workloads run the
server in the same event loop as the load generator, which keeps
``CONNECTIONS`` TCP connections with ``DEPTH`` pipelined requests in
flight each; the library workloads call the structures back to back.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import resource
import shutil
import statistics
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns

import numpy as np

from repro import DynamicIRS, WeightedDynamicIRS
from repro.batch import BatchOp
from repro.core import kernels
from repro.errors import ReproError
from repro.serve import ReproServer, protocol
from repro.store import DurableStore

from layers import LayerTracer, structure_busy_ns, structure_metrics

N = 1_000_000
SETUP_REPS = 5
SETUP_MIN_S = 1.0  # cheap set-ups repeat until they add up to this
CONNECTIONS = 2
DEPTH = 32  # pipelined requests in flight per connection (64 in total)
TRACE_CAPACITY = 1 << 17  # traced phases keep every request's spans
SERVED_T = 16
CHECK_EVERY = 4  # every 4th served sample reply is checked
WAL_FSYNC = "batch"
WAL_SUFFIX_RECORDS = 375  # pre-written WAL records of BULK inserts, replayed at recovery
BULK = 64  # values per served or library bulk update
SNAPSHOT_TRIGGER_OPS = 50_000  # the server default, stated in the output
CALIBRATION_BURST_S = 0.25
#: Median time of one :func:`calibration_rep` at the reference host speed.
CALIBRATION_REFERENCE_S = 0.010


def calibration_rep() -> int:
    """Fixed work that does not use the program: an interpreter loop with
    dict stores, then NumPy sorts and copies, the two kinds of work the
    program's costs are made of."""
    total = 0
    table: dict[int, int] = {}
    for i in range(60_000):
        total += i * i % 7
        table[i & 1023] = total
    values = np.random.default_rng(0).random(50_000)
    for _ in range(6):
        values.sort()
        values = values[::-1].copy()
    return total


def host_calibration(seconds: float) -> list[float]:
    """Durations of back-to-back calibration reps over ``seconds``."""
    reps: list[float] = []
    end = perf_counter() + seconds
    while perf_counter() < end or len(reps) < 3:
        start = perf_counter()
        calibration_rep()
        reps.append(perf_counter() - start)
    return reps


def _kernel_module():
    """The module whose kernel functions the structures call on each operation."""
    return kernels.get() if hasattr(kernels, "get") else kernels


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _windows(rng, points, lo_width, hi_width, size):
    """Query windows whose ends are data points, width log-uniform in points."""
    widths = np.exp(rng.uniform(np.log(lo_width), np.log(hi_width), size)).astype(np.int64)
    widths = np.clip(widths, 1, len(points))
    starts = rng.integers(0, len(points) - widths + 1)
    return points[starts], points[starts + widths - 1]


def _multiset_adjust(base, add, remove):
    """``base`` plus the values in ``add`` minus those in ``remove`` (sorted)."""
    if add:
        base = np.sort(np.concatenate((base, np.asarray(add, dtype=base.dtype))))
    if not remove:
        return base
    values, counts = np.unique(base, return_counts=True)
    gone, gone_counts = np.unique(np.asarray(remove, dtype=base.dtype), return_counts=True)
    at = np.minimum(np.searchsorted(values, gone), len(values) - 1)
    present = values[at] == gone
    counts[at[present]] -= np.minimum(counts[at[present]], gone_counts[present])
    return np.repeat(values, counts)


@dataclass
class Phase:
    """One measured phase, accumulated over its segments."""

    latencies_ns: list = field(default_factory=list)
    failed: int = 0
    mismatches: int = 0
    elapsed_ns: int = 0
    #: ``(first op, end op, elapsed ns)`` of every segment.
    segments: list = field(default_factory=list)
    speed: float = 1.0  # host speed over the whole phase
    segment_speeds: list = field(default_factory=list)
    #: Latencies at reference host speed, each segment scaled by the
    #: calibration bursts on either side of it.
    reference_latencies_ns: np.ndarray | None = None
    #: Median over segments of each segment's ops per second at reference
    #: host speed; a median, because a speed change inside one segment
    #: mis-scales that segment alone.
    reference_throughput: float = 0.0
    sums: Counter = field(default_factory=Counter)  # per-layer raw sums
    layers: dict = field(default_factory=dict)

    @property
    def ops(self) -> int:
        return len(self.latencies_ns)

    @property
    def throughput(self) -> float:
        """Ops per second at the host's measured speed (raw)."""
        return self.ops / (self.elapsed_ns / 1e9) if self.elapsed_ns else 0.0


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    end_to_end: dict
    per_layer: dict
    detail: dict


# -- the served workloads ------------------------------------------------------


class LoadGen:
    """Closed-loop pipelined load over ``CONNECTIONS`` TCP connections.

    ``make_unit(conn, unit)`` returns a list of ``(body, meta)`` requests;
    ``body`` is a request frame without its leading ``{"id":N,``.  A
    connection stops at the first unit boundary after the deadline, so a
    unit of paired inserts and deletes always completes.  ``on_reply`` sees
    every reply line with its request's ``meta``.  Unit and id counters
    carry over from one :meth:`run` to the next, so every request of a
    phase is distinct.
    """

    def __init__(self, make_unit, on_reply) -> None:
        self.make_unit = make_unit
        self.on_reply = on_reply
        self.conns: list = []
        self.units = [0] * CONNECTIONS
        self.sent = [0] * CONNECTIONS

    async def open(self, port: int) -> None:
        for _ in range(CONNECTIONS):
            self.conns.append(await asyncio.open_connection("127.0.0.1", port))

    async def close(self) -> None:
        for _reader, writer in self.conns:
            writer.close()
            await writer.wait_closed()
        self.conns = []

    async def run(self, seconds: float, phase: Phase | None) -> tuple[int, int]:
        """Drive load for ``seconds``; record into ``phase`` (``None``: warm-up).

        Returns the run's ``(start, end)`` in ``perf_counter_ns`` time.
        """
        start = perf_counter_ns()
        deadline = start + int(seconds * 1e9)
        scratch = Phase()
        ends = await asyncio.gather(
            *(self._drive(c, reader, writer, deadline, scratch)
              for c, (reader, writer) in enumerate(self.conns))
        )
        end = max(ends)
        if phase is not None:
            phase.latencies_ns += scratch.latencies_ns
            phase.failed += scratch.failed
            phase.elapsed_ns += end - start
        return start, end

    async def _drive(self, c, reader, writer, deadline, phase) -> int:
        inflight: dict[int, tuple] = {}
        queued: list = []
        on_reply = self.on_reply
        latencies = phase.latencies_ns
        now = perf_counter_ns()

        def send() -> None:
            nonlocal queued
            if not queued:
                queued = self.make_unit(c, self.units[c])[::-1]
                self.units[c] += 1
            body, meta = queued.pop()
            rid = self.sent[c] * CONNECTIONS + c
            self.sent[c] += 1
            inflight[rid] = (perf_counter_ns(), meta)
            writer.write(b'{"id":%d,%s' % (rid, body))

        for _ in range(DEPTH):
            send()
        while inflight:
            line = await reader.readline()
            now = perf_counter_ns()
            if not line:
                raise RuntimeError("server closed a load connection")
            cut = line.index(b",", 6)
            sent_at, meta = inflight.pop(int(line[6:cut]))
            latencies.append(now - sent_at)
            ok = line.startswith(b'"ok":true', cut + 1)
            if not ok:
                phase.failed += 1
            on_reply(ok, line, meta)
            if now < deadline or queued:
                send()
        return now


def _trace_config(traced: bool) -> dict:
    """Server arguments: the defaults, plus a trace ring that holds a whole traced phase."""
    return {"trace_capacity": TRACE_CAPACITY} if traced else {}


def _result_bytes(line: bytes) -> bytes:
    return line[line.index(b'"result":') + 9 : -2]


def _server_counters(server) -> Counter:
    counters = Counter(
        admitted=server.stats.admitted,
        rejected=server.stats.rejected,
        batches=server.stats.batches,
        batched=server.stats.batched_requests,
    )
    if server.store is not None:
        wal = server.store.wal
        counters.update(
            snapshots=server.store.snapshots_taken,
            wal_appends=wal.appends,
            wal_fsyncs=wal.fsyncs,
            wal_bytes=wal.bytes_written,
        )
    return counters


def _span_sums(server, admitted: int, start_ns: int, end_ns: int) -> Counter:
    """Sum the server's admission, coalescing-wait and execute spans in a window."""
    t0, t1 = start_ns / 1e9, end_ns / 1e9
    sums: Counter = Counter()
    executes = set()
    for record in server.trace_snapshot(limit=admitted)["records"]:
        if not t0 <= record["started"] <= t1:
            continue
        for span in record["spans"]:
            name = span["name"]
            if name == "execute":
                if span["start"] in executes:  # one span per batch, on every member
                    continue
                executes.add(span["start"])
            if name in ("admission", "coalesce_wait", "execute"):
                sums[name + "_s"] += span["duration"]
                sums[name + "_n"] += 1
    return sums


class _Served:
    """Shared lifecycle of the two served workloads."""

    kind = "serve"
    FRESH_PER_SEGMENT = False
    SEGMENT_S = 1.0
    WARMUP_S = 0.5  # untimed load on a fresh server before its segment

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.checked = 0

    async def discard(self, server) -> None:
        await server.aclose()

    def begin(self) -> None:
        self.gen = LoadGen(self.make_unit, self.on_reply)
        self.reset_checks()

    async def segment(self, server, seconds, tracer, fresh, phase: Phase) -> None:
        gen = self.gen
        await gen.open(server.port)
        try:
            if fresh:
                await gen.run(self.WARMUP_S, None)
            if tracer is None:
                await gen.run(seconds, phase)
            else:
                tracer.wrap_structure(server.structures["default"], "dynamic")
                tracer.wrap_kernels(_kernel_module())
                tracer.wrap_functions(protocol, ("decode", "encode"), "protocol")
                if server.store is not None:
                    tracer.wrap_store(server.store)
                before = _server_counters(server)
                try:
                    start, end = await gen.run(seconds, phase)
                finally:
                    tracer.restore()
                delta = _server_counters(server)
                delta.subtract(before)
                phase.sums.update(delta)
                phase.sums.update(_span_sums(server, delta["admitted"], start, end))
        finally:
            await gen.close()
        phase.mismatches += self.check(server)

    def finish(self, state, phase: Phase, tracer) -> None:
        if tracer is not None:
            phase.layers = _served_layers(tracer, phase)


def _served_layers(tracer, phase: Phase) -> dict:
    """Per-layer metrics of a traced served phase.

    Admission, coalescing-wait and execute spans come from the server's own
    trace ring; codec, WAL and checkpoint times from the wrappers.  The
    unattributed share is what the named layers leave of the phase's wall
    time: event loop, sockets and the load generator itself.
    """
    sums = phase.sums
    t = tracer.tallies
    zero = [0, 0, 0]
    wal = t.get("store.log_batch", zero)
    snap = t.get("store.snapshot", zero)
    encode = t.get("protocol.encode", zero)
    decode = t.get("protocol.decode", zero)

    def mean(name: str) -> float:
        return sums[name + "_s"] / sums[name + "_n"] if sums[name + "_n"] else 0.0

    execute_ns = sums["execute_s"] * 1e9
    busy_ns = sums["admission_s"] * 1e9 + execute_ns + wal[1] + snap[1] + encode[1]
    exact = tracer.freeze()
    exact["ops"] = phase.ops
    out = structure_metrics(tracer, exact)
    out.update({
        "protocol.decode_us": decode[1] / decode[0] / 1e3 if decode[0] else 0.0,
        "protocol.encode_us": encode[1] / encode[0] / 1e3 if encode[0] else 0.0,
        "server.admission_us": mean("admission") * 1e6,
        "server.coalesce_wait_ms": mean("coalesce_wait") * 1e3,
        "server.batch_size": sums["batched"] / sums["batches"] if sums["batches"] else 0.0,
        "server.execute_ms": mean("execute") * 1e3,
        "server.refused": sums["rejected"],
        "server.unattributed_share": 1.0 - busy_ns / max(1, phase.elapsed_ns),
        "runner.plan_us": (
            (execute_ns - structure_busy_ns(tracer)) / sums["batched"] / 1e3
            if sums["batched"] else 0.0
        ),
        "wal.append_us": wal[1] / wal[0] / 1e3 if wal[0] else 0.0,
        "wal.bytes_per_op": sums["wal_bytes"] / wal[2] if wal[2] else 0.0,
        "wal.fsyncs": sums["wal_fsyncs"],
        "snapshot.count": snap[0],
        "snapshot.ms": snap[1] / snap[0] / 1e6 if snap[0] else 0.0,
    })
    return out


class ServeRead(_Served):
    """``serve-read``: 80% client-seeded ``sample`` (t=16), 20% ``count``."""

    POOL = 4096

    def prepare(self) -> None:
        self.points = np.sort(_rng(self.seed, 0).random(N))
        rng = _rng(self.seed, 1)
        los, his = _windows(rng, self.points, 10, 1e5, self.POOL)
        is_sample = np.arange(self.POOL) % 5 != 0
        rng.shuffle(is_sample)
        self.los, self.his = los.tolist(), his.tolist()
        self.expected_counts = (
            np.searchsorted(self.points, his, side="right")
            - np.searchsorted(self.points, los, side="left")
        ).tolist()
        self.prefixes = []
        for lo, hi, sample in zip(self.los, self.his, is_sample.tolist()):
            bounds = (repr(lo).encode(), repr(hi).encode())
            if sample:
                self.prefixes.append(
                    b'"op":"sample","lo":%s,"hi":%s,"t":%d,"seed":' % (*bounds, SERVED_T)
                )
            else:
                self.prefixes.append(b'"op":"count","lo":%s,"hi":%s}\n' % bounds)
        self.seed_base = (self.seed * 1_000_003) << 20
        # Built before any timing, so every segment runs with the same heap.
        self.reference = DynamicIRS.from_sorted(self.points, seed=self.seed)

    async def build(self, traced: bool):
        structure = DynamicIRS.from_sorted(self.points, seed=self.seed)
        server = ReproServer(structure, seed=self.seed, **_trace_config(traced))
        return await server.start_tcp()

    def make_unit(self, c, unit):
        i = unit * CONNECTIONS + c
        q = i % self.POOL
        prefix = self.prefixes[q]
        if prefix.startswith(b'"op":"count"'):
            return [(prefix, (q, None))]
        seed = self.seed_base + i
        return [(prefix + b"%d}\n" % seed, (q, seed))]

    def reset_checks(self) -> None:
        self.kept = []
        self.count_mismatches = 0
        self.samples_seen = 0

    def on_reply(self, ok, line, meta):
        if not ok:
            return
        q, seed = meta
        if seed is None:
            self.checked += 1
            if int(_result_bytes(line)) != self.expected_counts[q]:
                self.count_mismatches += 1
            return
        self.samples_seen += 1
        if self.samples_seen % CHECK_EVERY == 0:
            self.kept.append((q, seed, _result_bytes(line)))

    def check(self, server) -> int:
        """Byte-compare kept sample replies with a separately built structure."""
        mismatches = self.count_mismatches
        for q, seed, got in self.kept:
            want = self.reference.sample_bulk(self.los[q], self.his[q], SERVED_T, seed=seed)
            if json.dumps(want.tolist(), separators=(",", ":")).encode() != got:
                mismatches += 1
        self.checked += len(self.kept)
        self.kept, self.count_mismatches = [], 0
        return mismatches


class ServeWrite(_Served):
    """``serve-write``: durable serving of paired updates, bulk updates, samples.

    Each unit of ten requests on one connection is ``insert a, insert b,
    sample, insert_bulk B, insert c, delete a, delete b, sample,
    delete_bulk B, delete c``: six scalar updates, two bulk updates of
    ``BULK`` values and two seeded samples (20%), leaving the multiset as
    it found it.

    Every segment runs on a server freshly recovered from the same data
    directory, and each holds exactly one checkpoint: recovery replays a
    WAL suffix of ``WAL_SUFFIX_RECORDS * BULK`` (24 000) ops, so the
    50 000-op trigger fires about 26 000 ops after recovery, inside the
    segment at this host's rates, and the segment ends well before the
    next one.  Later checkpoints of one server stall longer and longer
    (each re-reads the whole active WAL segment), so a run that kept one
    server would measure how far into that growth it got.
    """

    FRESH_PER_SEGMENT = True
    SEGMENT_S = 1.5
    WARMUP_S = 0.2
    SLOTS = 8192
    POOL = 4096

    def prepare(self) -> None:
        rng = _rng(self.seed, 0)
        base = np.sort(rng.random(N - WAL_SUFFIX_RECORDS * BULK))
        suffix = rng.random((WAL_SUFFIX_RECORDS, BULK))
        self.initial = np.sort(np.concatenate((base, suffix.ravel())))
        self.pristine = os.path.join(self.workdir, "pristine")
        store = DurableStore(self.pristine, fsync=WAL_FSYNC)
        store.snapshot({"default": DynamicIRS.from_sorted(base, seed=self.seed)})
        for values in suffix.tolist():
            store.log_batch([BatchOp.insert(v) for v in values])
        store.close()
        rng = _rng(self.seed, 1)
        self.scalars = rng.random((self.SLOTS, 3)).tolist()
        self.bulks = rng.random((self.SLOTS, BULK))
        los, his = _windows(rng, base, 10, 1e5, self.POOL)
        self.los, self.his = los.tolist(), his.tolist()
        self.seed_base = (self.seed * 1_000_003) << 20
        self.copies = 0
        self.dirs: dict[int, str] = {}

    def stage(self) -> None:
        self.copies += 1
        self.data_dir = os.path.join(self.workdir, f"data{self.copies}")
        shutil.copytree(self.pristine, self.data_dir)
        # Write the copy back now, so its write-back does not overlap the
        # fsyncs of the checkpoint being measured.
        for directory, _dirs, files in os.walk(self.data_dir):
            for path in [directory] + [os.path.join(directory, f) for f in files]:
                fd = os.open(path, os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)

    async def build(self, traced: bool):
        server = ReproServer(
            DynamicIRS(),
            seed=self.seed,
            data_dir=self.data_dir,
            fsync=WAL_FSYNC,
            snapshot_ops=SNAPSHOT_TRIGGER_OPS,
            **_trace_config(traced),
        )
        self.dirs[id(server)] = self.data_dir
        return await server.start_tcp()

    async def discard(self, server) -> None:
        await server.aclose()
        shutil.rmtree(self.dirs.pop(id(server)))

    def make_unit(self, c, unit):
        slot = (unit * CONNECTIONS + c) % self.SLOTS
        a, b, c3 = self.scalars[slot]
        values = json.dumps(self.bulks[slot].tolist()).encode()

        def scalar(op, value):
            return b'"op":"%s","value":%s}\n' % (op, repr(value).encode()), (op, value)

        def bulk(op):
            return b'"op":"%s","values":%s}\n' % (op, values), (op, slot)

        def sample(j):
            q = (2 * slot + j) % self.POOL
            seed = self.seed_base + 2 * slot + j
            body = b'"op":"sample","lo":%s,"hi":%s,"t":%d,"seed":%d}\n' % (
                repr(self.los[q]).encode(), repr(self.his[q]).encode(), SERVED_T, seed,
            )
            return body, (b"sample", q)

        return [
            scalar(b"insert", a),
            scalar(b"insert", b),
            sample(0),
            bulk(b"insert_bulk"),
            scalar(b"insert", c3),
            scalar(b"delete", a),
            scalar(b"delete", b),
            sample(1),
            bulk(b"delete_bulk"),
            scalar(b"delete", c3),
        ]

    def reset_checks(self) -> None:
        self.failed_inserts: list = []
        self.failed_deletes: list = []
        self.failed_bulk = 0
        self.kept = []
        self.samples_seen = 0

    def on_reply(self, ok, line, meta):
        op, arg = meta
        if op == b"sample":
            if ok:
                self.samples_seen += 1
                if self.samples_seen % CHECK_EVERY == 0:
                    self.kept.append((arg, _result_bytes(line)))
        elif not ok:
            if op == b"insert":
                self.failed_inserts.append(arg)
            elif op == b"delete":
                self.failed_deletes.append(arg)
            else:
                self.failed_bulk += 1

    def check(self, server) -> int:
        """Range-check kept samples; compare the segment's final multiset with the model."""
        mismatches = self.failed_bulk
        for q, got in self.kept:
            values = json.loads(got)
            lo, hi = self.los[q], self.his[q]
            if len(values) != SERVED_T or not all(lo <= v <= hi for v in values):
                mismatches += 1
        want = _multiset_adjust(self.initial, self.failed_deletes, self.failed_inserts)
        if not np.array_equal(server.structures["default"].export_sorted(), want):
            mismatches += 1
        self.checked += len(self.kept) + 1
        self.reset_checks()
        return mismatches

    def time_recovery(self) -> float:
        """Milliseconds of one direct snapshot-plus-WAL recovery."""
        data_dir = os.path.join(self.workdir, "recover")
        shutil.copytree(self.pristine, data_dir)
        store = DurableStore(data_dir, fsync=WAL_FSYNC)
        try:
            start = perf_counter()
            store.recover({"default": DynamicIRS()}, seed=self.seed)
            elapsed = perf_counter() - start
        finally:
            store.close()
            shutil.rmtree(data_dir)
        return elapsed * 1e3


# -- the library workloads -------------------------------------------------------


class _Library:
    """Decks of direct library calls, cycled until the deadline.

    A deck is a seeded, balanced list of ``(structure, method, args,
    check)`` calls: every value it inserts it also deletes, so the
    multiset is back to its initial state after each whole deck and a
    segment always ends on a deck boundary.  ``WARMUP_DECKS`` decks run
    first, untimed; in a traced phase the counts are frozen after
    ``EXACT_DECKS`` measured decks from freshly built structures, so they
    repeat exactly for a given seed.
    """

    kind = "library"
    FRESH_PER_SEGMENT = False
    SEGMENT_S = 1.0
    DECKS = 16
    WARMUP_DECKS = 1
    EXACT_DECKS = 4

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.checked = 0

    def prepare(self) -> None:
        rng = _rng(self.seed, 0)
        self.points = np.sort(rng.random(N))
        self.weights = rng.uniform(0.5, 2.0, N)
        rng = _rng(self.seed, 1)
        self.deck_specs = [self.make_deck(rng) for _ in range(self.DECKS)]

    async def build(self, traced: bool):
        return (
            DynamicIRS.from_sorted(self.points, seed=self.seed),
            WeightedDynamicIRS.from_sorted(self.points, self.weights, seed=self.seed),
        )

    async def discard(self, state) -> None:
        pass

    def begin(self) -> None:
        self.decks_done = 0
        self.failures: list = []
        self.exact = None

    async def segment(self, state, seconds, tracer, fresh, phase: Phase) -> None:
        dyn, wtd = state
        decks = [
            [(dyn if which == "d" else wtd, method, args, check)
             for which, method, args, check in spec]
            for spec in self.deck_specs
        ]
        if fresh:
            for i in range(self.WARMUP_DECKS):
                self._run_deck(decks[i % self.DECKS], i, [], [])
        if tracer is not None:
            tracer.wrap_structure(dyn, "dynamic")
            tracer.wrap_structure(wtd, "weighted")
            tracer.wrap_kernels(_kernel_module())
        latencies = phase.latencies_ns
        try:
            start = perf_counter_ns()
            deadline = start + int(seconds * 1e9)
            while True:
                deck_id = (self.WARMUP_DECKS + self.decks_done) % self.DECKS
                self._run_deck(decks[deck_id], deck_id, latencies, self.failures)
                self.decks_done += 1
                if tracer is not None and self.decks_done == self.EXACT_DECKS:
                    self.exact = tracer.freeze()
                    self.exact["ops"] = len(latencies)
                if perf_counter_ns() >= deadline:
                    break
            phase.elapsed_ns += perf_counter_ns() - start
        finally:
            if tracer is not None:
                tracer.restore()

    @staticmethod
    def _run_deck(deck, deck_id, latencies, failures) -> None:
        clock = perf_counter_ns
        for pos, (structure, method, args, check) in enumerate(deck):
            call = getattr(structure, method)
            start = clock()
            try:
                out = call(*args)
            except ReproError:
                latencies.append(clock() - start)
                failures.append(("error", deck_id, pos))
                continue
            latencies.append(clock() - start)
            if check is not None:
                lo, hi, t = check
                if out.size != t or out.min() < lo or out.max() > hi:
                    failures.append(("check", deck_id, pos))

    def finish(self, state, phase: Phase, tracer) -> None:
        phase.failed = sum(1 for f in self.failures if f[0] == "error")
        phase.mismatches = sum(1 for f in self.failures if f[0] == "check")
        phase.mismatches += self.check_state(*state)
        phase.sums["decks"] = self.decks_done
        if tracer is not None:
            exact = self.exact
            if exact is None:  # fewer decks than the exact-count prefix
                exact = tracer.freeze()
                exact["ops"] = phase.ops
            phase.layers = structure_metrics(tracer, exact)
            phase.layers["server.unattributed_share"] = (
                1.0 - structure_busy_ns(tracer) / max(1, phase.elapsed_ns)
            )

    def check_state(self, dyn, wtd) -> int:
        """Compare both final multisets with the initial one, adjusted for failed calls."""
        adjust = {"d": ([], []), "w": ([], [])}
        for kind, deck_id, pos in self.failures:
            if kind != "error":
                continue
            which, method, args, _check = self.deck_specs[deck_id][pos]
            values = args[0] if method.endswith("_bulk") else [args[0]]
            if method.startswith("insert"):
                adjust[which][1].extend(values)
            elif method.startswith("delete"):
                adjust[which][0].extend(values)
        mismatches = 0
        for which, structure in (("d", dyn), ("w", wtd)):
            want = _multiset_adjust(self.points, *adjust[which])
            if not np.array_equal(structure.export_sorted(), want):
                mismatches += 1
        self.checked += 2
        return mismatches


def _pairs_in_order(rng, tokens):
    """Shuffle ``tokens``; ``(kind, pair, 0)`` always lands before ``(kind, pair, 1)``."""
    order = [tokens[i] for i in rng.permutation(len(tokens))]
    seen: dict = {}
    for pos, token in enumerate(order):
        key = token[:2]
        if key in seen:
            first = seen[key]
            if order[first][2] == 1:
                order[first], order[pos] = order[pos], order[first]
        else:
            seen[key] = pos
    return order


class LibSample(_Library):
    """``lib-sample``: ``sample_bulk`` with t in 256..65536, wide and narrow windows.

    A deck holds every (structure, t, window) combination with a scalar
    update after every fourth call.  Only window positions and updated
    values come from the seed.  The widths (half of n, and 5 000 points)
    and the order of the calls are fixed, because which call is the first
    to pay for the caches an update invalidated sets much of its cost.
    Every t but the largest comes twice, so the costliest deck position
    is about 2% of the calls and the 99th percentile lands inside it; a
    deck has an odd number of calls, so the median lands inside one
    position's calls rather than on the edge between two.
    """

    T_VALUES = (256, 1024, 4096, 16384) * 2 + (65536,)
    WIDTHS = (N // 2, 5_000)
    ORDER_SEED = 0  # the call order is the same for every seed

    def make_deck(self, rng):
        calls = []
        for which in ("d", "w"):
            for t in self.T_VALUES:
                for width in self.WIDTHS:
                    lo, hi = _windows(rng, self.points, width, width, 1)
                    lo, hi = float(lo[0]), float(hi[0])
                    calls.append((which, "sample_bulk", (lo, hi, t), (lo, hi, t)))
        order = np.random.default_rng(self.ORDER_SEED).permutation(len(calls))
        x, y, z, v = rng.random(4).tolist()
        w1, w2, w3 = rng.uniform(0.5, 2.0, 3).tolist()
        target = float(self.points[rng.integers(0, N)])
        updates = [
            ("d", "insert", (x,), None),
            ("w", "insert", (y, w1), None),
            ("d", "delete", (x,), None),
            ("w", "delete", (y,), None),
            ("w", "update_weight", (target, w2), None),
            ("d", "insert", (z,), None),
            ("w", "insert", (v, w3), None),
            ("d", "delete", (z,), None),
            ("w", "delete", (v,), None),
        ]
        deck = []
        for i, j in enumerate(order):
            deck.append(calls[j])
            if i % 4 == 3:
                deck.append(updates[i // 4])
        return deck


class LibUpdate(_Library):
    """``lib-update``: scalar and small bulk updates, each followed by a ``count``.

    A deck holds 50 updates: 12 insert/delete pairs on the ``DynamicIRS``,
    6 pairs and 10 ``update_weight`` calls on the ``WeightedDynamicIRS``,
    and one ``insert_bulk``/``delete_bulk`` pair of ``BULK`` values on
    each.  Bulk calls are 4% of the ops, so p99 falls among them and p50
    among the scalar calls and counts.
    """

    DECKS = 64
    WARMUP_DECKS = 64
    EXACT_DECKS = 64

    def make_deck(self, rng):
        tokens = []
        for which, pairs in (("d", 12), ("w", 6)):
            for p in range(pairs):
                tokens += [(which, p, 0), (which, p, 1)]
        for which in ("D", "W"):
            tokens += [(which, 0, 0), (which, 0, 1)]
        tokens += [("u", k, 0) for k in range(10)]
        order = _pairs_in_order(rng, tokens)
        scalars = dict(zip([t[:2] for t in tokens], rng.random(len(tokens)).tolist()))
        bulk_values = {w: rng.random(BULK).tolist() for w in ("D", "W")}
        bulk_weights = rng.uniform(0.5, 2.0, BULK).tolist()
        targets = self.points[rng.integers(0, N, 10)].tolist()
        new_weights = rng.uniform(0.5, 2.0, 10).tolist()
        los, his = _windows(rng, self.points, 10, 1e5, 50)
        deck = []
        for i, (which, p, half) in enumerate(order):
            if which == "u":
                deck.append(("w", "update_weight", (targets[p], new_weights[p]), None))
                target = "w"
            elif which in ("D", "W"):
                target = which.lower()
                values = bulk_values[which]
                if half == 0:
                    args = (values, bulk_weights) if target == "w" else (values,)
                    deck.append((target, "insert_bulk", args, None))
                else:
                    deck.append((target, "delete_bulk", (values,), None))
            else:
                target = which
                value = scalars[(which, p)]
                if half == 1:
                    deck.append((target, "delete", (value,), None))
                elif target == "w":
                    deck.append((target, "insert", (value, 1.0 + value), None))
                else:
                    deck.append((target, "insert", (value,), None))
            deck.append((target, "count", (float(los[i]), float(his[i])), None))
        return deck


WORKLOADS = {
    "serve-read": ServeRead,
    "serve-write": ServeWrite,
    "lib-sample": LibSample,
    "lib-update": LibUpdate,
}


async def _fresh(workload, traced: bool):
    if hasattr(workload, "stage"):
        workload.stage()
    return await workload.build(traced)


async def measure(workload, state, seconds: float, tracer: LayerTracer | None) -> Phase:
    """Measure one phase in segments with calibration bursts around them.

    Consumes ``state``: it is discarded when the phase ends.
    """
    segments = max(1, round(seconds / workload.SEGMENT_S))
    phase = Phase()
    workload.begin()
    gc.collect()
    bursts = [host_calibration(CALIBRATION_BURST_S)]
    for i in range(segments):
        if i and workload.FRESH_PER_SEGMENT:
            await workload.discard(state)
            state = await _fresh(workload, tracer is not None)
        first, elapsed = phase.ops, phase.elapsed_ns
        await workload.segment(
            state, seconds / segments, tracer, i == 0 or workload.FRESH_PER_SEGMENT, phase
        )
        phase.segments.append((first, phase.ops, phase.elapsed_ns - elapsed))
        bursts.append(host_calibration(CALIBRATION_BURST_S))
    workload.finish(state, phase, tracer)
    await workload.discard(state)
    reference = CALIBRATION_REFERENCE_S
    phase.speed = reference / statistics.median([r for burst in bursts for r in burst])
    latencies = np.asarray(phase.latencies_ns, dtype=np.float64)
    for i, (first, end, elapsed) in enumerate(phase.segments):
        speed = reference / statistics.median(bursts[i] + bursts[i + 1])
        latencies[first:end] *= speed
        phase.segment_speeds.append(speed)
    phase.reference_latencies_ns = latencies
    phase.reference_throughput = statistics.median(
        (end - first) / (elapsed * speed / 1e9)
        for (first, end, elapsed), speed in zip(phase.segments, phase.segment_speeds)
    )
    phase.sums["calibration_reps"] = sum(len(burst) for burst in bursts)
    return phase


def _latency_ms(latencies_ns, q: float) -> float:
    return float(np.percentile(np.asarray(latencies_ns, dtype=np.float64), q)) / 1e6


async def run(name: str, seed: int, seconds: float, trace: bool, workdir: str) -> Outcome:
    """Set up, measure and check one workload; trace a second phase if asked."""
    workload = WORKLOADS[name](seed, workdir)
    workload.prepare()
    setups = []
    setup_bursts = [host_calibration(CALIBRATION_BURST_S)]
    state = None
    while len(setups) < SETUP_REPS or sum(setups) < SETUP_MIN_S:
        if state is not None:
            await workload.discard(state)
        if hasattr(workload, "stage"):
            workload.stage()
        start = perf_counter()
        state = await workload.build(traced=False)
        setups.append(perf_counter() - start)
    setup_bursts.append(host_calibration(CALIBRATION_BURST_S))
    setup_speed = CALIBRATION_REFERENCE_S / statistics.median(setup_bursts[0] + setup_bursts[1])
    untraced = await measure(workload, state, seconds, None)
    phases = [untraced]
    per_layer: dict = {}
    if trace:
        traced = await measure(workload, await _fresh(workload, True), seconds, LayerTracer())
        phases.append(traced)
        per_layer = traced.layers
        per_layer["recover.ms"] = workload.time_recovery() if name == "serve-write" else 0.0
        # Both throughputs at reference host speed, so drift between the
        # phases does not read as tracing overhead.
        untraced_rate = untraced.reference_throughput
        traced_rate = traced.reference_throughput
        per_layer["trace.untraced_throughput_ops_s"] = untraced_rate
        per_layer["trace.traced_throughput_ops_s"] = traced_rate
        per_layer["trace.overhead_share"] = 1.0 - traced_rate / untraced_rate

    attempted = sum(p.ops for p in phases)
    failed = sum(p.failed + p.mismatches for p in phases)
    correct = sum(p.mismatches for p in phases) == 0
    # The paper's bound: every chunk holds s..2s points in 2s slots, so
    # middle-window rejection accepts at least half of its draws.
    acceptance = per_layer.get("kernels.rejection_acceptance", 0.0)
    if acceptance and acceptance < 0.5:
        correct = False

    speed = untraced.speed
    raw = {
        "throughput_ops_s": untraced.throughput,
        "latency_p50_ms": _latency_ms(untraced.latencies_ns, 50),
        "latency_p99_ms": _latency_ms(untraced.latencies_ns, 99),
        "setup_s": statistics.median(setups),
    }
    end_to_end = {
        "throughput_ops_s": untraced.reference_throughput,
        "latency_p50_ms": _latency_ms(untraced.reference_latencies_ns, 50),
        "latency_p99_ms": _latency_ms(untraced.reference_latencies_ns, 99),
        "success_rate": 1.0 - (untraced.failed + untraced.mismatches) / max(1, untraced.ops),
        "setup_s": raw["setup_s"] * setup_speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {
        "n": N,
        "host_speed": speed,
        "setup_host_speed": setup_speed,
        "raw_end_to_end": raw,
        "setup_s_reps": setups,
        "phases": [
            {
                "traced": i == 1,
                "ops": p.ops,
                "failed": p.failed,
                "check_mismatches": p.mismatches,
                "elapsed_s": p.elapsed_ns / 1e9,
                "raw_throughput_ops_s": p.throughput,
                "host_speed": p.speed,
                "segments": [
                    {
                        "ops": end - first,
                        "elapsed_s": elapsed / 1e9,
                        "host_speed": speed,
                        "raw_p50_ms": _latency_ms(p.latencies_ns[first:end], 50),
                        "raw_p99_ms": _latency_ms(p.latencies_ns[first:end], 99),
                    }
                    for (first, end, elapsed), speed in zip(p.segments, p.segment_speeds)
                ],
                **p.sums,
            }
            for i, p in enumerate(phases)
        ],
        "outputs_checked": workload.checked,
    }
    if workload.kind == "serve":
        detail["load"] = {
            "connections": CONNECTIONS,
            "depth_per_connection": DEPTH,
            "served_t": SERVED_T,
            "warmup_s": workload.WARMUP_S,
            "snapshot_trigger_ops": SNAPSHOT_TRIGGER_OPS,
        }
    return Outcome(
        correct=correct,
        attempted=attempted,
        failed=failed,
        end_to_end=end_to_end,
        per_layer=per_layer,
        detail=detail,
    )
