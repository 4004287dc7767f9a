"""Stress and pathological-input tests across the structures.

These target the inputs most likely to break chunked/indexed designs:
all-equal multisets (every boundary search ties), adversarial hot-spot
updates (every split lands in one PMA region), huge value magnitudes, and
alternating build/teardown cycles.
"""

from __future__ import annotations

import bisect
import random

import numpy as np
import pytest

from repro import (
    DynamicIRS,
    ExternalIRS,
    InvalidQueryError,
    ShardedIRS,
    StaticIRS,
    WeightedDynamicIRS,
)
from repro.errors import KeyNotFoundError
from repro.stats import uniformity_test
from repro.workloads import UpdateStream


class TestAllEqualValues:
    def test_static(self):
        s = StaticIRS([7.0] * 5000, seed=1)
        assert s.count(7.0, 7.0) == 5000
        assert s.sample(7.0, 7.0, 10) == [7.0] * 10
        assert s.count(6.9, 6.99) == 0

    def test_dynamic_build_and_query(self):
        d = DynamicIRS([7.0] * 5000, seed=2)
        d.check_invariants()
        assert d.count(7.0, 7.0) == 5000
        assert d.sample(0.0, 10.0, 5) == [7.0] * 5

    def test_dynamic_delete_through_equal_chunks(self):
        d = DynamicIRS([7.0] * 2000, seed=3)
        for _ in range(1500):
            d.delete(7.0)
        assert len(d) == 500
        d.check_invariants()

    def test_dynamic_insert_equal_everywhere(self):
        d = DynamicIRS(seed=4)
        for _ in range(3000):
            d.insert(1.0)
        d.check_invariants()
        assert d.count(1.0, 1.0) == 3000

    @pytest.mark.parametrize("weighted", [False, True])
    def test_delete_bulk_through_equal_chunks(self, weighted):
        """Runs of equal copies cross chunk boundaries; a bulk delete takes
        the first copies in key order, or refuses the whole batch."""
        weights = [1.0 + i for i in range(2000)]
        if weighted:
            s = WeightedDynamicIRS([7.0] * 2000, weights, seed=3)
        else:
            s = DynamicIRS([7.0] * 2000, seed=3)
        removed = s.delete_bulk([7.0] * 150)
        assert len(s) == s.count(7.0, 7.0) == 1850
        if weighted:
            assert removed == weights[:150]
        s.check_invariants()
        before = s.export_sorted().tobytes()
        for refused in ([7.0] * 1851, [7.0] * 10 + [8.0], [6.0] + [7.0] * 10):
            with pytest.raises(KeyNotFoundError):
                s.delete_bulk(refused)
            assert s.export_sorted().tobytes() == before
        s.check_invariants()

    def test_external(self):
        e = ExternalIRS([7.0] * 4096, block_size=64, seed=5)
        assert e.count(7.0, 7.0) == 4096
        assert e.sample(0.0, 10.0, 100) == [7.0] * 100


class TestExtremeValues:
    def test_huge_and_tiny_magnitudes(self):
        values = [1e-300, -1e300, 0.0, 1e300, -1e-300, 42.0]
        d = DynamicIRS(values, seed=6)
        assert d.count(-1e301, 1e301) == 6
        assert d.count(0.0, 1e299) == 3  # 0.0, 1e-300, 42.0

    def test_negative_ranges(self):
        s = StaticIRS([-5.0, -3.0, -1.0], seed=7)
        assert s.report(-4.0, 0.0) == [-3.0, -1.0]
        assert s.sample(-5.0, -3.0, 4).count(-1.0) == 0

    def test_infinity_query_bounds(self):
        d = DynamicIRS([1.0, 2.0, 3.0], seed=8)
        assert d.count(float("-inf"), float("inf")) == 3
        assert len(d.sample(float("-inf"), float("inf"), 5)) == 5

    @pytest.mark.parametrize("weighted", [False, True])
    def test_signed_zeros_keep_stored_first_order(self, weighted):
        """``-0.0 == 0.0`` but their bytes differ, so the update paths'
        tie order shows in the export: stored points stay before new ones
        (a weighted scalar insert goes before its equals) and deletes take
        the first equal copy."""
        base = [-0.0, 0.0] + [float(i) for i in range(1, 1000)]
        model = list(base)
        s = (WeightedDynamicIRS if weighted else DynamicIRS).from_sorted(base, seed=1)

        def insert(v):
            s.insert(v)
            (bisect.insort_left if weighted else bisect.insort_right)(model, v)

        def insert_bulk(zeros):
            batch = [500.5 + i for i in range(20)] + zeros
            s.insert_bulk(batch)
            for v in sorted(batch):  # stable: equal values keep batch order
                bisect.insort_right(model, v)

        def delete_bulk(values):
            s.delete_bulk(values)
            for v in values:
                model.remove(v)

        for step in (
            lambda: insert(-0.0),
            lambda: insert(0.0),
            lambda: insert_bulk([0.0]),
            lambda: insert_bulk([-0.0, 0.0, -0.0]),
            lambda: s.delete(0.0) if model.remove(0.0) is None else None,
            lambda: delete_bulk([0.0, -0.0, 3.0] + [500.5 + i for i in range(20)]),
        ):
            step()
            assert s.export_sorted().tobytes() == np.asarray(model).tobytes()
            s.check_invariants()

    @pytest.mark.parametrize("weighted", [False, True])
    def test_infinite_points_next_to_row_padding(self, weighted):
        """``±inf`` are legal points that sit right beside a row's padding:
        every update path must keep counting them exactly."""
        inf = float("inf")
        model = [-inf] * 3 + [float(i) for i in range(500)] + [inf] * 3
        s = (WeightedDynamicIRS if weighted else DynamicIRS)(model, seed=2)

        def apply(op, values):
            getattr(s, op)(values)
            for v in values if op.endswith("_bulk") else [values]:
                if op.startswith("insert"):
                    model.append(v)
                else:
                    model.remove(v)
            model.sort()

        for op, values in (
            ("insert", inf),
            ("insert", -inf),
            ("insert_bulk", [inf] * 10 + [-inf] * 10 + [250.5]),
            ("delete", inf),
            ("delete", -inf),
            ("delete_bulk", [inf] * 8 + [-inf] * 9),
            ("delete_bulk", [inf] * 5 + [-inf] * 4 + [250.5]),
        ):
            apply(op, values)
            s.check_invariants()
            n_neg, n_pos = model.count(-inf), model.count(inf)
            assert len(s) == s.count(-inf, inf) == len(model)
            assert s.count(inf, inf) == n_pos and s.count(-inf, -inf) == n_neg
            peeked = s.peek_counts([(-inf, -inf), (inf, inf), (-inf, inf)])
            assert peeked.tolist() == [n_neg, n_pos, len(model)]
            report = s.report(inf, inf)
            if weighted:
                report = [value for value, _weight in report]
            assert report == [inf] * n_pos
            assert s.export_sorted().tolist() == model

    @pytest.mark.parametrize("kind", ["static", "dynamic", "weighted-dynamic", "sharded"])
    def test_f32_overflow_is_refused_or_clamped(self, kind):
        """A finite value beyond float32's range must not become ``±inf``.

        As a point it is refused before anything mutates; as a query bound
        it never selects an infinite point, so every count matches the
        float64 twin's.
        """
        inf = float("inf")
        f32 = np.float32

        def build(values, dtype):
            if kind == "static":
                return StaticIRS.from_sorted(values, seed=1, dtype=dtype)
            if kind == "dynamic":
                return DynamicIRS.from_sorted(values, seed=1, dtype=dtype)
            if kind == "weighted-dynamic":
                return WeightedDynamicIRS.from_sorted(values, seed=1, dtype=dtype)
            return ShardedIRS.from_sorted(values, num_shards=2, seed=1, dtype=dtype)

        with pytest.raises(InvalidQueryError):
            build([1.0, 1e300], f32)
        stored = [-inf, 1.0, 2.0, inf]
        narrow, wide = build(stored, f32), build(stored, np.float64)
        bounds = [
            (0.0, 1e300), (-1e300, 0.0), (1e300, inf), (-inf, -1e300), (-1e300, 1e300)
        ]
        for lo, hi in bounds:
            assert narrow.count(lo, hi) == wide.count(lo, hi), (lo, hi)
        assert narrow.count(0.0, 1e300) == 2 and narrow.count(-1e300, 0.0) == 0
        if kind != "sharded":
            peeked = narrow.peek_counts(bounds).tolist()
            assert peeked == wide.peek_counts(bounds).tolist()
        if kind == "static":
            return
        for refused in (
            lambda: narrow.insert(1e300),
            lambda: narrow.insert(-1e300),
            lambda: narrow.insert_bulk([-1e300] * 20),
            lambda: narrow.insert_bulk([0.5] * 20 + [1e300]),
            lambda: narrow.delete(1e300),  # must not remove the stored +inf
            lambda: narrow.delete_bulk([1.0, -1e300]),
        ):
            with pytest.raises(InvalidQueryError):
                refused()
            assert narrow.export_sorted().tolist() == stored
        narrow.check_invariants()

    def test_nan_points_are_refused(self):
        """A stored NaN could never be counted or deleted again, so every
        constructor and insert path refuses one before anything mutates."""
        nan, inf = float("nan"), float("inf")
        base = [float(i) for i in range(1000)]
        for build in (
            lambda v: StaticIRS(v, seed=1),
            lambda v: StaticIRS.from_sorted(v, seed=1),
            lambda v: DynamicIRS(v, seed=1),
            lambda v: DynamicIRS.from_sorted(v, seed=1),
            lambda v: WeightedDynamicIRS(v, seed=1),
            lambda v: WeightedDynamicIRS.from_sorted(v, seed=1),
            lambda v: ShardedIRS(v, num_shards=4, seed=1),
            lambda v: ShardedIRS.from_sorted(v, num_shards=4, seed=1),
        ):
            for bad in ([nan], [nan] + base, base[:500] + [nan] + base[500:], base + [nan]):
                with pytest.raises(InvalidQueryError):
                    build(bad)
        small = [0.5, nan, 1.5]  # the scalar loop below the bulk cutoff
        big = [0.5 + i for i in range(20)] + [nan] + [20.5 + i for i in range(20)]
        for s in (
            DynamicIRS(base, seed=2),
            WeightedDynamicIRS(base, seed=3),
            ShardedIRS(base, num_shards=4, seed=4),
            ShardedIRS(base, num_shards=4, seed=5, shard_kind="weighted-dynamic"),
        ):
            for refused in (
                lambda: s.insert(nan),
                lambda: s.insert_bulk(small),
                lambda: s.insert_bulk(big),
                lambda: s.insert_bulk(np.asarray(big)),
            ):
                with pytest.raises(InvalidQueryError):
                    refused()
                assert s.export_sorted().tolist() == base
                assert len(s) == s.count(-inf, inf) == len(base)
            s.check_invariants()


class TestAdversarialChurn:
    def test_hotspot_stream_keeps_uniformity(self):
        d = DynamicIRS([float(i) / 1000 for i in range(1000)], seed=9)
        stream = UpdateStream(
            d.values(),
            insert_fraction=0.7,
            hotspot=(0.5, 0.5001),
            hotspot_fraction=0.95,
            seed=10,
        )
        for op, value in stream.take(4000):
            if op == "insert":
                d.insert(value)
            else:
                d.delete(value)
        d.check_invariants()
        population = d.report(0.4, 0.6)
        samples = d.sample(0.4, 0.6, 15_000)
        _stat, p = uniformity_test(samples, population)
        assert p > 1e-4

    @pytest.mark.parametrize("weighted", [False, True])
    def test_churn_reuses_freed_rows(self, weighted):
        """Splits take slab rows and merges give them back: a grow-and-shrink
        loop never hands out more rows than it ever holds chunks."""
        rng = random.Random(14)
        s = (WeightedDynamicIRS if weighted else DynamicIRS)(
            [rng.random() for _ in range(6000)], seed=5
        )
        directory = s._dir
        peak = len(directory)
        for _ in range(12):
            lo = rng.random() * 0.9
            hot = [lo + rng.random() * 0.05 for _ in range(1500)]
            s.insert_bulk(hot)
            peak = max(peak, len(directory))
            for value in hot[:100]:
                s.delete(value)
            s.delete_bulk(hot[100:])
            peak = max(peak, len(directory))
        s.check_invariants()
        assert len(s) == 6000
        assert directory.top <= peak

    def test_sawtooth_grow_shrink_cycles(self):
        d = DynamicIRS(seed=11)
        rng = random.Random(12)
        live: list[float] = []
        for cycle in range(4):
            for _ in range(1200):
                v = rng.random()
                d.insert(v)
                live.append(v)
            rng.shuffle(live)
            for _ in range(1100):
                d.delete(live.pop())
            d.check_invariants()
        assert len(d) == len(live)
        assert d.values() == sorted(live)

    def test_ascending_then_descending_inserts(self):
        d = DynamicIRS(seed=13)
        for i in range(1500):
            d.insert(float(i))
        for i in range(1500, 3000):
            d.insert(float(4500 - i))
        d.check_invariants()
        assert len(d) == 3000

    def test_delete_always_minimum(self):
        values = [float(i) for i in range(2000)]
        d = DynamicIRS(values, seed=14)
        for v in values[:1900]:
            d.delete(v)
        d.check_invariants()
        assert d.values() == values[1900:]

    def test_many_small_queries_after_churn(self):
        d = DynamicIRS([random.Random(15).uniform(0, 1) for _ in range(5000)], seed=16)
        rng = random.Random(17)
        for _ in range(2000):
            d.insert(rng.random())
            d.delete(d.sample(0.0, 1.0, 1)[0])
        for _ in range(100):
            lo = rng.uniform(0, 0.99)
            hi = lo + 0.01
            k = d.count(lo, hi)
            if k:
                assert all(lo <= v <= hi for v in d.sample(lo, hi, 3))


class TestQueryBoundaryGaps:
    """Queries that fall entirely between stored values."""

    def test_gap_between_chunks(self):
        d = DynamicIRS([float(i) * 10 for i in range(500)], seed=18)
        assert d.count(11.0, 19.0) == 0
        with pytest.raises(Exception):
            d.sample(11.0, 19.0, 1)

    def test_before_and_after_everything(self):
        d = DynamicIRS([10.0, 20.0], seed=19)
        assert d.count(-5.0, 5.0) == 0
        assert d.count(25.0, 35.0) == 0
