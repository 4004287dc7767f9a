"""Server-side metrics: throughput, latency percentiles, coalesce factor.

Rebuilt on :mod:`repro.obs.metrics`: every counter the server records is
also a family in a :class:`~repro.obs.metrics.MetricsRegistry`, so one
recording site feeds both the legacy ``stats`` op snapshot (wire shape
preserved) and the Prometheus exposition.  The registry families are
*pull-valued* — they read the plain integer attributes at render time —
so the hot path still pays integer adds only; the single push
instrument is the request-latency histogram (bucketing needs the
observation).
"""

from __future__ import annotations

import time
import weakref
from collections import deque

from ..obs.metrics import MetricsRegistry

__all__ = ["ServerStats"]


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of a pre-sorted non-empty list."""
    rank = max(0, min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1))))
    return sorted_values[rank]


class ServerStats:
    """Counters and latency reservoir for one :class:`~repro.serve.ReproServer`.

    The coalescing story of the server is visible here: ``batches`` counts
    executed coalesced batches, ``batched_requests`` the requests they
    carried, and their ratio — the *coalesce factor* — says how many
    requests each execution round amortized.  Latencies are admission-to-
    reply wall times of the most recent ``window`` replies (a bounded
    reservoir, so a long-running server reports recent behavior, not its
    whole life).

    Each instance owns the metrics registry its serve-layer families
    live on (:attr:`registry`).
    """

    def __init__(self, window: int = 4096, rate_window: int = 256) -> None:
        self.started = time.perf_counter()
        self.admitted = 0
        self.rejected = 0
        self.replies_ok = 0
        self.replies_error = 0
        self.dropped_replies = 0
        self.batches = 0
        self.batched_requests = 0
        #: Admitted requests per ``OpSpec.bucket`` (the metric's ``kind`` label).
        self.requests = {"sample": 0, "count": 0, "update": 0}
        self.samples_returned = 0
        self.dedup_hits = 0
        self.wal_failures = 0
        self.latencies: deque[float] = deque(maxlen=window)
        # Timestamps of recent admissions / replies: the measured arrival
        # and drain rates behind the `retry_after` overload hint.
        self.arrivals: deque[float] = deque(maxlen=rate_window)
        self.drains: deque[float] = deque(maxlen=rate_window)
        self.registry = MetricsRegistry()
        self._register()
        #: Set ``False`` to skip the histogram observe (the metrics-off
        #: baseline of the overhead benchmark); counters always record.
        self.observe_latency = True

    def _register(self) -> None:
        """Wire the serve-layer families (pull-valued except the histogram).

        The pull functions read these stats through a weak proxy: the
        registry is ours, and closures over ``self`` on it would form a
        cycle that keeps both — and whatever else is wired on the registry,
        such as a durable server's store and WAL — alive until a full
        collection.
        """
        reg = self.registry
        me = weakref.proxy(self)
        requests = reg.counter(
            "repro_serve_requests_total", "Admitted requests by op kind.", ("kind",)
        )
        for bucket in self.requests:
            requests.labels(kind=bucket).set_function(
                lambda bucket=bucket: me.requests[bucket]
            )
        reg.counter(
            "repro_serve_rejected_total", "Requests refused at admission."
        ).set_function(lambda: me.rejected)
        replies = reg.counter(
            "repro_serve_replies_total", "Replies by outcome.", ("outcome",)
        )
        replies.labels(outcome="ok").set_function(lambda: me.replies_ok)
        replies.labels(outcome="error").set_function(lambda: me.replies_error)
        replies.labels(outcome="dropped").set_function(lambda: me.dropped_replies)
        reg.counter(
            "repro_serve_batches_total", "Executed coalesced batches."
        ).set_function(lambda: me.batches)
        reg.counter(
            "repro_serve_batched_requests_total",
            "Requests carried by executed batches.",
        ).set_function(lambda: me.batched_requests)
        reg.counter(
            "repro_serve_samples_returned_total", "Sample values returned."
        ).set_function(lambda: me.samples_returned)
        reg.counter(
            "repro_serve_dedup_hits_total",
            "Duplicate updates absorbed by the idempotency window.",
        ).set_function(lambda: me.dedup_hits)
        reg.counter(
            "repro_serve_wal_failures_total",
            "Batches whose write-ahead append failed.",
        ).set_function(lambda: me.wal_failures)
        reg.gauge(
            "repro_serve_arrival_rate", "Measured admissions per second."
        ).set_function(lambda: me.arrival_rate())
        reg.gauge(
            "repro_serve_drain_rate", "Measured replies per second."
        ).set_function(lambda: me.drain_rate())
        reg.gauge(
            "repro_serve_coalesce_factor", "Mean requests per executed batch."
        ).set_function(lambda: me.coalesce_factor)
        self.latency_hist = reg.histogram(
            "repro_serve_request_latency_seconds",
            "Admission-to-reply latency of served requests.",
        )

    # -- recording ---------------------------------------------------------

    def observe_admitted(self, bucket: str) -> None:
        """Record one admitted request in its op bucket (see :attr:`requests`)."""
        self.admitted += 1
        self.arrivals.append(time.perf_counter())
        self.requests[bucket] += 1

    def observe_rejected(self) -> None:
        """Record one request refused at admission (backpressure etc.)."""
        self.rejected += 1

    def observe_batch(self, requests: int) -> None:
        """Record one executed batch carrying ``requests`` requests."""
        self.batches += 1
        self.batched_requests += requests

    def observe_reply(self, ok: bool, latency: float, samples: int = 0) -> None:
        """Record one reply and its admission-to-reply latency (seconds)."""
        if ok:
            self.replies_ok += 1
        else:
            self.replies_error += 1
        self.samples_returned += samples
        self.latencies.append(latency)
        self.drains.append(time.perf_counter())
        if self.observe_latency:
            self.latency_hist.observe(latency)

    def observe_dropped(self) -> None:
        """Record a reply that could not be delivered (client went away).

        A dropped reply still *drained* a queue slot, so it stamps the
        drain-rate window — otherwise a disconnect-heavy workload would
        under-report drain rate and inflate every ``retry_after`` hint.
        """
        self.dropped_replies += 1
        self.drains.append(time.perf_counter())

    def observe_dedup_hit(self) -> None:
        """Record a duplicate update absorbed by the idempotency window."""
        self.dedup_hits += 1

    def observe_wal_failure(self) -> None:
        """Record a batch whose write-ahead append failed (updates refused)."""
        self.wal_failures += 1

    # -- reporting ---------------------------------------------------------

    @property
    def coalesce_factor(self) -> float:
        """Mean requests per executed batch (1.0 means no coalescing won)."""
        return self.batched_requests / self.batches if self.batches else 0.0

    @staticmethod
    def _rate(stamps: deque[float]) -> float:
        """Events per second over a timestamp window (0.0 if unmeasurable)."""
        if len(stamps) < 2:
            return 0.0
        elapsed = stamps[-1] - stamps[0]
        if elapsed <= 0.0:
            return 0.0
        return (len(stamps) - 1) / elapsed

    def arrival_rate(self) -> float:
        """Measured admissions per second over the recent rate window."""
        return self._rate(self.arrivals)

    def drain_rate(self) -> float:
        """Measured replies per second over the recent rate window."""
        return self._rate(self.drains)

    def snapshot(self) -> dict:
        """Return a JSON-safe metrics snapshot (the ``stats`` op's reply)."""
        uptime = time.perf_counter() - self.started
        replies = self.replies_ok + self.replies_error
        lat = sorted(self.latencies)
        out = {
            "uptime_seconds": round(uptime, 6),
            "admitted": self.admitted,
            "rejected": self.rejected,
            "replies_ok": self.replies_ok,
            "replies_error": self.replies_error,
            "dropped_replies": self.dropped_replies,
            **{f"{bucket}_requests": n for bucket, n in self.requests.items()},
            "samples_returned": self.samples_returned,
            "dedup_hits": self.dedup_hits,
            "wal_failures": self.wal_failures,
            "batches": self.batches,
            "coalesce_factor": round(self.coalesce_factor, 3),
            "requests_per_second": round(replies / uptime, 3) if uptime > 0 else 0.0,
            "arrival_rate": round(self.arrival_rate(), 3),
            "drain_rate": round(self.drain_rate(), 3),
        }
        # Always present so wire consumers never branch on the key; zeros
        # mean "no replies measured yet", exactly like the counters.
        if lat:
            out["latency_ms"] = {
                "p50": round(1e3 * _percentile(lat, 0.50), 3),
                "p90": round(1e3 * _percentile(lat, 0.90), 3),
                "p99": round(1e3 * _percentile(lat, 0.99), 3),
                "max": round(1e3 * lat[-1], 3),
            }
        else:
            out["latency_ms"] = {"p50": 0.0, "p90": 0.0, "p99": 0.0, "max": 0.0}
        return out
