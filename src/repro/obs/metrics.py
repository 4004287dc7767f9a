"""The dependency-free metrics core: Counter, Gauge, Histogram, registry.

Design constraints, in order:

1. **Off the hot path.**  Recording is an integer add (Counter/Gauge) or
   one ``bisect`` over ~20 bucket bounds (Histogram).  Anything more
   expensive — rate computation, label joins, text rendering — happens at
   *exposition* time, when a scraper asks.  Instruments may also be
   *pull-valued* (:meth:`Counter.set_function`): the recording site keeps
   its plain Python attribute (``pool.hits``, ``wal.appends``) and the
   registry reads it when rendering, so instrumented hot loops pay
   literally nothing.
2. **No dependencies.**  Pure stdlib; importable from any layer (storage,
   the shard facade, fault wrappers) without cycles.
3. **Prometheus text exposition.**  :meth:`MetricsRegistry.render`
   produces the v0.0.4 text format — ``# HELP``/``# TYPE`` per family,
   escaped label values, and for histograms the cumulative ``_bucket``
   series with the ``+Inf`` bound plus exact ``_sum``/``_count``.

Instruments are grouped into *families* (one metric name, one type, a
fixed label-name tuple); a family with no label names acts as its single
instrument directly (``family.inc()``), a labeled family hands out
children via :meth:`MetricFamily.labels`.  Existing instruments owned by
other objects (e.g. a :class:`~repro.shard.ShardedIRS`'s task-latency
histogram) can be *adopted* into a family under a label set, which is how
per-structure metrics compose without threading a registry through every
constructor.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "exponential_buckets",
    "LATENCY_BUCKETS",
]


def exponential_buckets(start: float, factor: float, count: int) -> tuple[float, ...]:
    """Return ``count`` log-spaced bucket bounds: ``start * factor**i``."""
    if start <= 0 or factor <= 1.0 or count < 1:
        raise ValueError("need start > 0, factor > 1, count >= 1")
    return tuple(start * factor**i for i in range(count))


#: Default latency bounds: 100µs .. ~26s, doubling — 19 buckets cover the
#: whole serving range (sub-ms coalesced replies to multi-second overload
#: queueing) at ~2x resolution.
LATENCY_BUCKETS = exponential_buckets(0.0001, 2.0, 19)


class Counter:
    """A monotonically increasing value (optionally pull-valued)."""

    __slots__ = ("_value", "_fn")

    def __init__(self) -> None:
        self._value = 0
        self._fn = None

    def inc(self, amount=1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up")
        self._value += amount

    def set_function(self, fn) -> "Counter":
        """Make the counter pull its value from ``fn()`` at render time."""
        self._fn = fn
        return self

    @property
    def value(self):
        """Current value (calls the pull function when one is set)."""
        return self._fn() if self._fn is not None else self._value


class Gauge:
    """A value that can go up and down (optionally pull-valued)."""

    __slots__ = ("_value", "_fn")

    def __init__(self) -> None:
        self._value = 0
        self._fn = None

    def set(self, value) -> None:
        """Set the gauge to ``value``."""
        self._value = value

    def inc(self, amount=1) -> None:
        """Add ``amount`` to the gauge."""
        self._value += amount

    def dec(self, amount=1) -> None:
        """Subtract ``amount`` from the gauge."""
        self._value -= amount

    def set_function(self, fn) -> "Gauge":
        """Make the gauge pull its value from ``fn()`` at render time."""
        self._fn = fn
        return self

    @property
    def value(self):
        """Current value (calls the pull function when one is set)."""
        return self._fn() if self._fn is not None else self._value


class Histogram:
    """Fixed-bucket histogram with exact sum and count.

    ``bounds`` are the upper bucket bounds in increasing order; an
    implicit ``+Inf`` bucket tops them off.  Observation is one
    ``bisect_left`` plus two adds — cheap enough for per-request and
    per-shard-task latencies.  Per-bucket counts are stored
    non-cumulative and accumulated at exposition time, where Prometheus
    wants the cumulative series.
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds=LATENCY_BUCKETS) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds or any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be non-empty and increasing")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot = the +Inf bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> list[int]:
        """Return the cumulative per-bound counts (``+Inf`` last)."""
        out, acc = [], 0
        for c in self.counts:
            acc += c
            out.append(acc)
        return out


_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt(value) -> str:
    """Format a sample value: ints stay integral, floats use repr."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class MetricFamily:
    """One named metric family: a type, a help line, labeled children.

    With an empty ``labelnames`` tuple the family *is* its single
    instrument: ``inc``/``set``/``observe``/``set_function`` delegate to
    an implicit unlabeled child.
    """

    def __init__(self, name, help, type, labelnames=(), buckets=None) -> None:
        if type not in _TYPES:
            raise ValueError(f"unknown metric type {type!r}")
        self.name = name
        self.help = help
        self.type = type
        self.labelnames = tuple(labelnames)
        self.buckets = buckets
        self._children: dict[tuple, object] = {}
        if not self.labelnames:
            self._children[()] = self._make()

    def _make(self):
        if self.type == "histogram":
            return Histogram(self.buckets or LATENCY_BUCKETS)
        return _TYPES[self.type]()

    def labels(self, **labelvalues):
        """Return (creating if needed) the child for this label set."""
        key = self._key(labelvalues)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._make()
        return child

    def adopt(self, instrument, **labelvalues) -> None:
        """Install an externally owned instrument as this label set's child.

        The instrument's type must match the family's; this is how a
        structure-owned histogram (created before any registry existed)
        joins the exposition under a ``structure=...`` label.
        """
        if not isinstance(instrument, _TYPES[self.type]):
            raise TypeError(
                f"{self.name} is a {self.type}; cannot adopt "
                f"{type(instrument).__name__}"
            )
        self._children[self._key(labelvalues)] = instrument

    def remove(self, **labelvalues) -> None:
        """Drop the child for this label set (absent is fine)."""
        self._children.pop(self._key(labelvalues), None)

    def _key(self, labelvalues: dict) -> tuple:
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"{self.name} takes labels {self.labelnames}, "
                f"got {tuple(labelvalues)}"
            )
        return tuple(str(labelvalues[name]) for name in self.labelnames)

    # -- unlabeled-family convenience delegates -----------------------------

    def _default(self):
        if self.labelnames:
            raise ValueError(f"{self.name} requires labels {self.labelnames}")
        return self._children[()]

    def inc(self, amount=1) -> None:
        """Increment the unlabeled child (labelless families only)."""
        self._default().inc(amount)

    def dec(self, amount=1) -> None:
        """Decrement the unlabeled gauge (labelless families only)."""
        self._default().dec(amount)

    def set(self, value) -> None:
        """Set the unlabeled gauge (labelless families only)."""
        self._default().set(value)

    def observe(self, value) -> None:
        """Observe into the unlabeled histogram (labelless families only)."""
        self._default().observe(value)

    def set_function(self, fn):
        """Pull-value the unlabeled child (labelless families only)."""
        return self._default().set_function(fn)

    @property
    def value(self):
        """The unlabeled child's value (labelless families only)."""
        return self._default().value

    # -- exposition ---------------------------------------------------------

    def _label_str(self, key: tuple, extra: str = "") -> str:
        parts = [
            f'{name}="{_escape_label(value)}"'
            for name, value in zip(self.labelnames, key)
        ]
        if extra:
            parts.append(extra)
        return "{" + ",".join(parts) + "}" if parts else ""

    def render(self, lines: list[str]) -> None:
        """Append this family's exposition lines (HELP/TYPE/samples)."""
        lines.append(f"# HELP {self.name} {_escape_help(self.help)}")
        lines.append(f"# TYPE {self.name} {self.type}")
        for key, child in self._children.items():
            if self.type == "histogram":
                cumulative = child.cumulative()
                for bound, count in zip(child.bounds, cumulative):
                    le = self._label_str(key, f'le="{_fmt(bound)}"')
                    lines.append(f"{self.name}_bucket{le} {count}")
                le = self._label_str(key, 'le="+Inf"')
                lines.append(f"{self.name}_bucket{le} {cumulative[-1]}")
                labels = self._label_str(key)
                lines.append(f"{self.name}_sum{labels} {_fmt(child.sum)}")
                lines.append(f"{self.name}_count{labels} {child.count}")
            else:
                lines.append(f"{self.name}{self._label_str(key)} {_fmt(child.value)}")


class MetricsRegistry:
    """An ordered collection of metric families plus exposition.

    ``register_collector`` installs a callback run at the start of every
    :meth:`render` — the hook for metrics whose *children* are dynamic
    (per-shard size gauges after a rebalance, fault sites that appear as
    plans fire), in the spirit of pull-based exposition: nothing in the
    system pushes on a timer.
    """

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}
        self._collectors: list = []

    def _family(self, name, help, type, labels, buckets=None) -> MetricFamily:
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = MetricFamily(
                name, help, type, labels, buckets
            )
        elif family.type != type or family.labelnames != tuple(labels):
            raise ValueError(f"metric {name!r} re-registered with a different shape")
        return family

    def counter(self, name, help, labels=()) -> MetricFamily:
        """Get or create a counter family."""
        return self._family(name, help, "counter", labels)

    def gauge(self, name, help, labels=()) -> MetricFamily:
        """Get or create a gauge family."""
        return self._family(name, help, "gauge", labels)

    def histogram(self, name, help, labels=(), buckets=None) -> MetricFamily:
        """Get or create a histogram family (fixed log-spaced default)."""
        return self._family(name, help, "histogram", labels, buckets)

    def get(self, name) -> MetricFamily | None:
        """Return the named family, or ``None``."""
        return self._families.get(name)

    def register_collector(self, fn) -> None:
        """Run ``fn()`` before every render (dynamic-children hook).

        ``fn`` may be a :class:`weakref.WeakMethod`: the registry then
        calls the method while its object lives and drops it once the
        object is gone, so an object that registers its own method on a
        registry it holds forms no reference cycle with it.
        """
        self._collectors.append(fn)

    def families(self) -> list[MetricFamily]:
        """The registered families, in registration order."""
        return list(self._families.values())

    def render(self) -> str:
        """Render the Prometheus text exposition (v0.0.4) of every family."""
        live = []
        for fn in self._collectors:
            collect = fn() if isinstance(fn, weakref.ref) else fn
            if collect is not None:
                live.append(fn)
                collect()
        self._collectors = live
        lines: list[str] = []
        for family in self._families.values():
            family.render(lines)
        return "\n".join(lines) + "\n"
