"""Observability control plane: metrics, tracing, capacity.

The :mod:`repro.obs` package is the serving stack's control plane,
kept dependency-free and importable from every layer:

* :mod:`repro.obs.metrics` — Counter/Gauge/Histogram instruments,
  labeled families, a registry, and Prometheus text exposition.
* :mod:`repro.obs.trace` — per-request span records, a bounded trace
  ring, the server↔shard attribution bridge, Chrome-trace export.
* :mod:`repro.obs.capacity` — logical resident-byte accounting and the
  over-commit admission gate.
* :mod:`repro.obs.http` — the HTTP-lite ``/metrics`` + ``/healthz``
  listener.
"""

from .capacity import AdmissionGate, resident_bytes, structure_bytes
from .http import MetricsHTTP
from .metrics import (
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    exponential_buckets,
)
from .trace import Span, TraceRecord, TraceRing, chrome_trace

__all__ = [
    "AdmissionGate",
    "resident_bytes",
    "structure_bytes",
    "MetricsHTTP",
    "LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "exponential_buckets",
    "Span",
    "TraceRecord",
    "TraceRing",
    "chrome_trace",
]
