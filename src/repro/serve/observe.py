"""Wiring the observability control plane into a running server.

:class:`ServerObservability` owns everything about a
:class:`~repro.serve.ReproServer` that is *derived* rather than
recorded: it registers the store/em/shard/faults metric families on the
server's registry (pull-valued — the instrumented layers keep plain
integer attributes — except the recovery counts, fixed at construction),
derives the health status, and publishes the
handful of push gauges (queue depth, admission pressure, health)
*change-only* from the server's existing drain loop — no timer per
metric, no publication when nothing moved.  A scrape also refreshes
them via a registry collector, so ``GET /metrics`` is exact even on an
idle server.  The coalescing-window gauge is fixed at construction.

Health is three-valued and ordered::

    overloaded  >  degraded  >  ok

``overloaded`` means admission pressure reached 1.0 on some configured
component (the gate's memory/rate ratios, or the queue itself);
``degraded`` means the server still answers but something it relies on
has failed — a broken or failing WAL, or a checkpoint error; ``ok`` is
everything else.
"""

from __future__ import annotations

import weakref

HEALTH_CODES = {"ok": 0, "degraded": 1, "overloaded": 2}

__all__ = ["ServerObservability", "HEALTH_CODES"]


class ServerObservability:
    """Registry wiring, health derivation, change-only publication."""

    def __init__(self, server) -> None:
        # Weak: the server owns this object, and a strong back-reference
        # would form a cycle that keeps a discarded server, and every
        # structure it served, alive until the next full collection.
        self.server = weakref.proxy(server)
        self.registry = server.stats.registry
        self._published: dict[str, object] = {}
        self._wire_serve()
        self._wire_store()
        self._wire_structures()
        self._wire_faults()
        # Weak for the same reason: a bound method on the registry we hold
        # would form a cycle, keeping us and the registry — with the pull
        # functions over the store and its WAL — until a full collection.
        self.registry.register_collector(weakref.WeakMethod(self.publish))

    # -- family wiring -----------------------------------------------------

    def _wire_serve(self) -> None:
        reg = self.registry
        self._depth = reg.gauge(
            "repro_serve_queue_depth", "Requests waiting for execution."
        )
        reg.gauge(
            "repro_serve_coalesce_window_seconds", "Coalescing window."
        ).set(self.server._window)
        self._pressure = reg.gauge(
            "repro_serve_pressure",
            "Admission pressure (max configured component; >= 1 refuses).",
        )
        self._health = reg.gauge(
            "repro_serve_health", "Health status (0 ok, 1 degraded, 2 overloaded)."
        )

    def _wire_store(self) -> None:
        store = self.server.store
        if store is None:
            return
        reg, wal = self.registry, store.wal
        reg.counter(
            "repro_store_wal_appends_total", "WAL records appended."
        ).set_function(lambda: wal.appends)
        reg.counter(
            "repro_store_wal_fsyncs_total", "WAL fsyncs performed."
        ).set_function(lambda: wal.fsyncs)
        reg.counter(
            "repro_store_wal_rotations_total", "WAL segment rotations."
        ).set_function(lambda: wal.rotations)
        reg.counter(
            "repro_store_wal_bytes_total", "Bytes appended to the WAL."
        ).set_function(lambda: wal.bytes_written)
        reg.counter(
            "repro_store_wal_values_total",
            "Update values logged to the WAL (a bulk op counts its values).",
        ).set_function(lambda: store.values_logged)
        reg.counter(
            "repro_store_snapshots_total", "Checkpoints taken."
        ).set_function(lambda: store.snapshots_taken)
        reg.gauge(
            "repro_store_snapshot_seconds", "Duration of the last checkpoint."
        ).set_function(lambda: store.last_snapshot_seconds)
        recovery = self.server.recovery
        if recovery is not None:
            # Fixed at recovery, so set once rather than pulled: a pull
            # function would hold the report, and with it every recovered
            # structure, for as long as the registry lives.
            reg.counter(
                "repro_store_recovery_replayed_records_total",
                "WAL records replayed at the last recovery.",
            ).inc(recovery.replayed_records)
            reg.counter(
                "repro_store_recovery_replayed_ops_total",
                "Ops replayed at the last recovery.",
            ).inc(recovery.replayed_ops)

    def _wire_structures(self) -> None:
        """Per-structure shard and external-memory families."""
        reg = self.registry
        shard_hist = None
        shard_counters = {}
        shard_sizes = shard_count = None
        pool_counters = {}
        io_counters = {}
        for name, structure in self.server.structures.items():
            extra = getattr(getattr(structure, "stats", None), "extra", None)
            if extra is not None and hasattr(structure, "num_shards"):
                if shard_hist is None:
                    shard_hist = reg.histogram(
                        "repro_shard_task_latency_seconds",
                        "Per-task scatter latency by structure.",
                        ("structure",),
                    )
                    for key, help_ in (
                        ("rebalances", "Shard rebalance passes."),
                        ("scatter_tasks", "Shard tasks dispatched."),
                    ):
                        shard_counters[key] = reg.counter(
                            f"repro_shard_{key}_total", help_, ("structure",)
                        )
                    shard_sizes = reg.gauge(
                        "repro_shard_size", "Resident points per shard.",
                        ("structure", "shard"),
                    )
                    shard_count = reg.gauge(
                        "repro_shard_count", "Shards per structure.", ("structure",)
                    )
                shard_hist.adopt(structure.task_latency, structure=name)
                for key, family in shard_counters.items():
                    family.labels(structure=name).set_function(
                        lambda e=extra, k=key: e.get(k, 0)
                    )
                self._shard_sizes = shard_sizes
                self._shard_count = shard_count
            pool = getattr(structure, "pool", None)
            if pool is not None:
                if not pool_counters:
                    for key, help_ in (
                        ("hits", "Buffer-pool hits."),
                        ("misses", "Buffer-pool misses."),
                        ("evictions", "Buffer-pool frame evictions."),
                    ):
                        pool_counters[key] = reg.counter(
                            f"repro_em_pool_{key}_total", help_, ("structure",)
                        )
                for key, family in pool_counters.items():
                    family.labels(structure=name).set_function(
                        lambda p=pool, k=key: getattr(p, k)
                    )
                io = getattr(getattr(structure, "device", None), "stats", None)
                if io is not None:
                    if not io_counters:
                        for key, help_ in (
                            ("reads", "Logical block reads."),
                            ("writes", "Logical block writes."),
                        ):
                            io_counters[key] = reg.counter(
                                f"repro_em_device_{key}_total", help_, ("structure",)
                            )
                    for key, family in io_counters.items():
                        family.labels(structure=name).set_function(
                            lambda i=io, k=key: getattr(i, k)
                        )

    def _wire_faults(self) -> None:
        plan = self.server.fault_plan
        if plan is None:
            return
        family = self.registry.counter(
            "repro_faults_fired_total", "Injected faults fired by site.", ("site",)
        )

        def collect() -> None:
            sites = (
                set(plan.rates) | set(plan.at) | set(plan.limits) | set(plan.fired)
            )
            for site in sorted(sites):
                family.labels(site=site).set_function(
                    lambda s=site: plan.fired.get(s, 0)
                )

        self.registry.register_collector(collect)

    # -- derived state -----------------------------------------------------

    def _sharded(self):
        for name, structure in self.server.structures.items():
            if hasattr(structure, "num_shards"):
                yield name, structure

    def pressure(self) -> float:
        """Current admission pressure (max configured component)."""
        server = self.server
        depth = (
            server._admit_q.qsize() if server._admit_q is not None else 0
        ) + len(server._forming)
        return server.gate.pressure(depth, server.stats.arrival_rate())

    def health(self) -> dict:
        """Derive the health document served at ``/healthz``."""
        server = self.server
        checks: dict[str, object] = {}
        status = "ok"
        pressure = self.pressure()
        checks["pressure"] = round(pressure, 4)
        wal_ok = True
        if server.store is not None:
            wal = server.store.wal
            wal_ok = not wal.broken and server.stats.wal_failures == 0
            checks["wal"] = (
                "ok"
                if wal_ok
                else ("broken" if wal.broken else "append_failures")
            )
        if server.last_snapshot_error is not None:
            checks["snapshot"] = f"error: {server.last_snapshot_error}"
        if not wal_ok or server.last_snapshot_error is not None:
            status = "degraded"
        if pressure >= 1.0:
            status = "overloaded"
        return {"status": status, "checks": checks}

    def structure_stats(self) -> dict:
        """Shard stats per sharded structure (the ``stats`` op extra)."""
        out = {}
        for name, s in self._sharded():
            extra = s.stats.extra
            out[name] = {
                "kind": type(s).__name__,
                "num_shards": s.num_shards,
                "rebalances": extra.get("rebalances", 0),
                "scatter_tasks": extra.get("scatter_tasks", 0),
                "shard_sizes": [len(shard) for shard in s.shards],
            }
        return out

    # -- change-only publication -------------------------------------------

    def publish(self) -> None:
        """Publish derived gauges, writing only the ones that changed.

        Called from the server's executor loop after each batch (the
        single-loop, change-only publication pattern) and as a registry
        collector before each scrape.
        """
        server = self.server
        depth = (
            server._admit_q.qsize() if server._admit_q is not None else 0
        ) + len(server._forming)
        pressure = round(self.pressure(), 4)
        health = HEALTH_CODES[self.health()["status"]]
        updates = {
            "depth": (self._depth, depth),
            "pressure": (self._pressure, pressure),
            "health": (self._health, health),
        }
        for key, (gauge, value) in updates.items():
            if self._published.get(key) != value:
                self._published[key] = value
                gauge.set(value)
        # Per-shard size children track splits/merges/rebalances lazily:
        # refresh only when the shard count or a size moved.
        sizes_family = getattr(self, "_shard_sizes", None)
        if sizes_family is not None:
            for name, s in self._sharded():
                sizes = [len(shard) for shard in s.shards]
                key = f"sizes:{name}"
                if self._published.get(key) != sizes:
                    prev = self._published.get(key) or []
                    for i in range(len(sizes), len(prev)):
                        sizes_family.remove(structure=name, shard=str(i))
                    self._published[key] = sizes
                    for i, size in enumerate(sizes):
                        sizes_family.labels(structure=name, shard=str(i)).set(size)
                    self._shard_count.labels(structure=name).set(len(sizes))
