"""Unit tests for the metrics core and its Prometheus exposition."""

from __future__ import annotations

import math

import pytest
from promparse import PromParseError, parse

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS,
    MetricFamily,
    MetricsRegistry,
    exponential_buckets,
)


# -- instruments ------------------------------------------------------------


def test_counter_monotone():
    c = Counter()
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ValueError):
        c.inc(-1)
    assert c.value == 5


def test_counter_pull_valued():
    box = {"n": 0}
    c = Counter().set_function(lambda: box["n"])
    box["n"] = 41
    assert c.value == 41
    box["n"] += 1
    assert c.value == 42


def test_gauge_up_down_and_pull():
    g = Gauge()
    g.set(10)
    g.inc(2)
    g.dec(5)
    assert g.value == 7
    g.set_function(lambda: 3.5)
    assert g.value == 3.5


def test_exponential_buckets():
    bounds = exponential_buckets(0.001, 2.0, 4)
    assert bounds == (0.001, 0.002, 0.004, 0.008)
    assert len(LATENCY_BUCKETS) == 19
    assert all(b < c for b, c in zip(LATENCY_BUCKETS, LATENCY_BUCKETS[1:]))
    for bad in [(0.0, 2.0, 3), (1.0, 1.0, 3), (1.0, 2.0, 0)]:
        with pytest.raises(ValueError):
            exponential_buckets(*bad)


def test_histogram_observation_and_cumulative():
    h = Histogram(bounds=(1.0, 2.0, 4.0))
    for v in [0.5, 1.0, 1.5, 3.0, 100.0]:
        h.observe(v)
    # bisect_left: v <= bound lands in that bound's bucket
    assert h.counts == [2, 1, 1, 1]
    assert h.cumulative() == [2, 3, 4, 5]
    assert h.count == 5
    assert h.sum == pytest.approx(106.0)


def test_histogram_rejects_bad_bounds():
    with pytest.raises(ValueError):
        Histogram(bounds=())
    with pytest.raises(ValueError):
        Histogram(bounds=(1.0, 1.0))
    with pytest.raises(ValueError):
        Histogram(bounds=(2.0, 1.0))


# -- families ---------------------------------------------------------------


def test_unlabeled_family_is_its_instrument():
    fam = MetricFamily("x_total", "help", "counter")
    fam.inc(3)
    assert fam.value == 3
    fam.set_function(lambda: 9)
    assert fam.value == 9


def test_labeled_family_children():
    fam = MetricFamily("x_total", "help", "counter", ("kind",))
    fam.labels(kind="a").inc()
    fam.labels(kind="a").inc()
    fam.labels(kind="b").inc()
    assert fam.labels(kind="a").value == 2
    assert fam.labels(kind="b").value == 1
    with pytest.raises(ValueError):
        fam.labels(wrong="a")
    with pytest.raises(ValueError):
        fam.inc()  # labeled family has no implicit child
    fam.remove(kind="b")
    fam.remove(kind="b")  # absent is fine
    assert fam.labels(kind="b").value == 0  # recreated fresh


def test_adopt_checks_type():
    fam = MetricFamily("h", "help", "histogram", ("s",))
    owned = Histogram(bounds=(1.0,))
    owned.observe(0.5)
    fam.adopt(owned, s="one")
    assert fam.labels(s="one") is owned
    with pytest.raises(TypeError):
        fam.adopt(Counter(), s="two")


def test_registry_shape_conflicts():
    reg = MetricsRegistry()
    reg.counter("a_total", "help")
    assert reg.counter("a_total", "help").value == 0  # idempotent get-or-create
    with pytest.raises(ValueError):
        reg.gauge("a_total", "help")
    with pytest.raises(ValueError):
        reg.counter("a_total", "help", ("kind",))
    with pytest.raises(ValueError):
        MetricFamily("x", "help", "not_a_type")
    assert reg.get("a_total") is not None
    assert reg.get("missing") is None


def test_registry_collector_runs_per_render():
    reg = MetricsRegistry()
    calls = []
    reg.register_collector(lambda: calls.append(1))
    reg.counter("a_total", "help").inc()
    reg.render()
    reg.render()
    assert len(calls) == 2


def test_registry_drops_a_weak_collector_once_its_object_is_gone():
    import weakref

    reg = MetricsRegistry()
    calls = []

    class Owner:
        def collect(self):
            calls.append(1)

    owner = Owner()
    reg.register_collector(weakref.WeakMethod(owner.collect))
    reg.register_collector(lambda: calls.append(2))
    reg.render()
    assert calls == [1, 2]
    del owner  # the registry held no strong reference to it
    reg.render()
    assert calls == [1, 2, 2]
    assert len(reg._collectors) == 1


# -- exposition, validated by the strict parser -----------------------------


def test_render_passes_strict_parser():
    reg = MetricsRegistry()
    reg.counter("req_total", "Requests.", ("kind",)).labels(kind="sample").inc(7)
    reg.gauge("depth", "Queue depth.").set(3)
    h = reg.histogram("lat_seconds", "Latency.", buckets=(0.001, 0.01, 0.1))
    h.observe(0.005)
    h.observe(0.5)
    families = parse(reg.render())
    assert set(families) == {"req_total", "depth", "lat_seconds"}
    assert families["req_total"].type == "counter"
    assert families["req_total"].value(kind="sample") == 7
    assert families["depth"].value() == 3
    hist = families["lat_seconds"]
    assert hist.type == "histogram"
    assert hist.value("lat_seconds_count") == 2
    assert hist.value("lat_seconds_sum") == pytest.approx(0.505)
    assert hist.value("lat_seconds_bucket", le="0.01") == 1
    assert hist.value("lat_seconds_bucket", le="+Inf") == 2


def test_label_escaping_round_trips():
    reg = MetricsRegistry()
    nasty = 'a"b\\c\nd'
    reg.counter("esc_total", "Escapes.", ("site",)).labels(site=nasty).inc()
    families = parse(reg.render())
    assert families["esc_total"].label_values("site") == {nasty}


def test_help_escaping():
    reg = MetricsRegistry()
    reg.gauge("g", "line one\nline two \\ done").set(1)
    fam = parse(reg.render())["g"]
    # The parser keeps help text in its escaped wire form.
    assert fam.help == "line one\\nline two \\\\ done"


def test_integer_values_render_integral():
    reg = MetricsRegistry()
    reg.counter("c_total", "help").inc(5)
    reg.gauge("g", "help").set(2.5)
    text = reg.render()
    assert "c_total 5\n" in text
    assert "g 2.5\n" in text


def test_parser_rejects_renderer_regressions():
    # The strict parser is itself under test: each of these would be a
    # renderer bug it must catch.
    with pytest.raises(PromParseError):
        parse("no_newline 1")
    with pytest.raises(PromParseError):
        parse("orphan_sample 1\n")
    with pytest.raises(PromParseError):
        parse("# HELP a h\na 1\n")  # HELP without TYPE
    with pytest.raises(PromParseError):
        parse('# HELP a h\n# TYPE a counter\na{l="x} 1\n')  # unterminated
    with pytest.raises(PromParseError):
        parse("# HELP a h\n# TYPE a counter\na -1\n")  # negative counter
    with pytest.raises(PromParseError):  # non-cumulative buckets
        parse(
            "# HELP h h\n# TYPE h histogram\n"
            'h_bucket{le="1"} 5\nh_bucket{le="+Inf"} 3\nh_sum 1\nh_count 3\n'
        )
    with pytest.raises(PromParseError):  # missing +Inf
        parse(
            "# HELP h h\n# TYPE h histogram\n"
            'h_bucket{le="1"} 1\nh_sum 1\nh_count 1\n'
        )
    with pytest.raises(PromParseError):  # +Inf != count
        parse(
            "# HELP h h\n# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 2\nh_sum 1\nh_count 3\n'
        )
    with pytest.raises(PromParseError):  # duplicate sample
        parse("# HELP a h\n# TYPE a counter\na 1\na 2\n")


def test_parser_accepts_inf_values():
    fam = parse('# HELP g h\n# TYPE g gauge\ng Inf\n'.replace("Inf", "+Inf"))["g"]
    assert math.isinf(fam.value())
