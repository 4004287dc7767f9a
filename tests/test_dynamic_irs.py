"""Tests for DynamicIRS (result R2): correctness under churn."""

from __future__ import annotations

import random

import pytest

from repro import DynamicIRS, EmptyRangeError, InvalidQueryError, KeyNotFoundError
from repro.stats import uniformity_test
from repro.workloads import UpdateStream


class TestConstruction:
    def test_empty(self):
        d = DynamicIRS(seed=1)
        assert len(d) == 0
        assert d.count(0.0, 1.0) == 0
        with pytest.raises(EmptyRangeError):
            d.sample(0.0, 1.0, 1)
        d.check_invariants()

    def test_bulk_build(self, uniform_data):
        d = DynamicIRS(uniform_data, seed=2)
        assert len(d) == len(uniform_data)
        d.check_invariants()

    def test_build_from_unsorted_input(self):
        d = DynamicIRS([5.0, 1.0, 3.0, 2.0, 4.0], seed=3)
        assert d.values() == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_chunk_bounds_hold_after_build(self, uniform_data):
        d = DynamicIRS(uniform_data, seed=4)
        s, cap = d.chunk_size_bounds
        for count in d._dir.counts.tolist():
            assert s <= count <= cap


class TestUpdates:
    def test_insert_then_query(self):
        d = DynamicIRS(seed=5)
        for v in [3.0, 1.0, 2.0]:
            d.insert(v)
        assert d.count(1.0, 3.0) == 3
        assert sorted(d.sample(1.0, 3.0, 10)) != []
        d.check_invariants()

    def test_delete_missing_raises(self):
        d = DynamicIRS([1.0, 2.0], seed=6)
        with pytest.raises(KeyNotFoundError):
            d.delete(1.5)
        with pytest.raises(KeyNotFoundError):
            DynamicIRS(seed=7).delete(1.0)

    def test_delete_one_duplicate_occurrence(self):
        d = DynamicIRS([2.0, 2.0, 2.0], seed=8)
        d.delete(2.0)
        assert len(d) == 2
        assert d.count(2.0, 2.0) == 2

    def test_delete_to_empty_and_reuse(self):
        d = DynamicIRS([1.0, 2.0], seed=9)
        d.delete(1.0)
        d.delete(2.0)
        assert len(d) == 0
        d.insert(5.0)
        assert d.sample(5.0, 5.0, 2) == [5.0, 5.0]
        d.check_invariants()

    def test_grow_through_rebuild_thresholds(self):
        d = DynamicIRS(seed=10)
        for i in range(4000):
            d.insert(float(i % 97) + i * 1e-6)
        assert len(d) == 4000
        d.check_invariants()

    def test_shrink_through_rebuild_thresholds(self):
        values = [float(i) for i in range(4000)]
        d = DynamicIRS(values, seed=11)
        for v in values[:3500]:
            d.delete(v)
        assert len(d) == 500
        d.check_invariants()
        assert d.values() == values[3500:]

    def test_hotspot_inserts(self):
        """All inserts into one tiny band — worst case for chunk splits."""
        d = DynamicIRS([float(i) for i in range(1000)], seed=12)
        for i in range(2000):
            d.insert(500.0 + i * 1e-9)
        d.check_invariants()
        assert d.count(500.0, 501.0) == 2002

    def test_contains(self):
        d = DynamicIRS([1.0, 3.0], seed=13)
        assert 1.0 in d and 3.0 in d and 2.0 not in d


class TestQueriesMatchReference:
    def _compare(self, d: DynamicIRS, reference: list[float], queries) -> None:
        reference = sorted(reference)
        for lo, hi in queries:
            expected = [v for v in reference if lo <= v <= hi]
            assert d.count(lo, hi) == len(expected)
            assert d.report(lo, hi) == expected
            if expected:
                assert set(d.sample(lo, hi, 32)) <= set(expected)
            else:
                with pytest.raises(EmptyRangeError):
                    d.sample(lo, hi, 1)

    def test_against_sorted_list_reference(self):
        rng = random.Random(21)
        reference = [rng.uniform(0, 100) for _ in range(3000)]
        d = DynamicIRS(reference, seed=22)
        queries = [(rng.uniform(0, 90), 0.0) for _ in range(40)]
        queries = [(lo, lo + rng.uniform(0, 30)) for lo, _ in queries]
        self._compare(d, reference, queries)

    def test_after_heavy_churn(self):
        rng = random.Random(31)
        reference: list[float] = []
        d = DynamicIRS(seed=32)
        stream = UpdateStream([], insert_fraction=0.6, seed=33)
        for op, value in stream.take(6000):
            if op == "insert":
                d.insert(value)
                reference.append(value)
            else:
                d.delete(value)
                reference.remove(value)
        d.check_invariants()
        queries = [(0.1, 0.3), (0.0, 1.0), (0.45, 0.55), (0.9, 0.95)]
        self._compare(d, reference, queries)

    def test_narrow_middle_uses_alias_path(self):
        """A range spanning few whole chunks exercises the alias branch."""
        d = DynamicIRS([float(i) for i in range(600)], seed=41)
        s, cap = d.chunk_size_bounds
        lo, hi = 0.5, 0.5 + 4 * cap  # a handful of chunks
        expected = [v for v in d.values() if lo <= v <= hi]
        samples = d.sample(lo, hi, 200)
        assert set(samples) <= set(expected)

    def test_wide_middle_uses_pma_path(self):
        d = DynamicIRS([float(i) for i in range(30000)], seed=42)
        samples = d.sample(10.5, 29000.5, 400)
        assert all(10.5 <= v <= 29000.5 for v in samples)
        assert d.stats.samples_returned >= 400

    def test_invalid_queries(self):
        d = DynamicIRS([1.0], seed=43)
        with pytest.raises(InvalidQueryError):
            d.sample(2.0, 1.0, 1)
        with pytest.raises(InvalidQueryError):
            d.sample(1.0, 2.0, -3)


class TestDistribution:
    def test_uniform_over_static_snapshot(self):
        values = [float(i) for i in range(200)]
        d = DynamicIRS(values, seed=51)
        samples = d.sample(24.5, 174.5, 30_000)
        population = [v for v in values if 24.5 <= v <= 174.5]
        _stat, p = uniformity_test(samples, population)
        assert p > 1e-4

    def test_uniform_after_updates(self):
        d = DynamicIRS([float(i) for i in range(300)], seed=52)
        for i in range(0, 300, 3):
            d.delete(float(i))
        for i in range(300, 400):
            d.insert(float(i))
        population = d.report(50.0, 350.0)
        samples = d.sample(50.0, 350.0, 30_000)
        _stat, p = uniformity_test(samples, population)
        assert p > 1e-4

    def test_uniform_with_duplicates(self, duplicated_data):
        d = DynamicIRS(duplicated_data, seed=53)
        samples = d.sample(0.0, 1.0, 20_000)
        _stat, p = uniformity_test(samples, duplicated_data)
        assert p > 1e-4

    def test_boundary_chunk_only_query(self):
        """Range inside a single chunk: the partial-run fast path."""
        d = DynamicIRS([float(i) for i in range(1000)], seed=54)
        samples = d.sample(3.0, 6.0, 9000)
        _stat, p = uniformity_test(samples, [3.0, 4.0, 5.0, 6.0])
        assert p > 1e-4

    def test_expected_constant_rejections(self):
        """Rejection count per sample must stay O(1) on the middle-window path."""
        d = DynamicIRS([float(i) for i in range(50000)], seed=55)
        d.stats.reset()
        t = 5000
        d.sample(100.5, 49000.5, t)
        assert d.stats.rejections < 12 * t
