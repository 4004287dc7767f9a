"""Tests for StaticIRS (result R1): the ground-truth structure."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EmptyRangeError, InvalidQueryError, StaticIRS
from repro.stats import ks_uniform_test, uniformity_test


class TestQueries:
    def test_count_and_report_match_bruteforce(self, uniform_data):
        s = StaticIRS(uniform_data, seed=1)
        for lo, hi in [(0.1, 0.2), (0.0, 1.0), (0.5, 0.5), (0.95, 2.0)]:
            expected = sorted(v for v in uniform_data if lo <= v <= hi)
            assert s.count(lo, hi) == len(expected)
            assert s.report(lo, hi) == expected

    def test_samples_fall_inside_range(self, uniform_data):
        s = StaticIRS(uniform_data, seed=2)
        for value in s.sample(0.3, 0.6, 500):
            assert 0.3 <= value <= 0.6

    def test_t_zero_returns_empty(self, uniform_data):
        s = StaticIRS(uniform_data, seed=3)
        assert s.sample(0.3, 0.6, 0) == []
        assert s.sample(5.0, 6.0, 0) == []  # even on an empty range

    def test_empty_range_raises(self, uniform_data):
        s = StaticIRS(uniform_data, seed=4)
        with pytest.raises(EmptyRangeError):
            s.sample(5.0, 6.0, 1)

    def test_invalid_queries_raise(self, uniform_data):
        s = StaticIRS(uniform_data, seed=5)
        with pytest.raises(InvalidQueryError):
            s.sample(0.6, 0.3, 1)
        with pytest.raises(InvalidQueryError):
            s.sample(0.3, 0.6, -1)
        with pytest.raises(InvalidQueryError):
            s.sample(float("nan"), 0.6, 1)
        with pytest.raises(InvalidQueryError):
            s.sample(0.3, 0.6, 1.5)  # type: ignore[arg-type]
        with pytest.raises(InvalidQueryError):
            s.count(float("nan"), 0.5)
        with pytest.raises(InvalidQueryError):
            s.count(0.5, float("nan"))

    def test_empty_structure(self):
        s = StaticIRS([], seed=6)
        assert len(s) == 0
        assert s.count(0.0, 1.0) == 0
        with pytest.raises(EmptyRangeError):
            s.sample(0.0, 1.0, 1)

    def test_single_point(self):
        s = StaticIRS([3.5], seed=7)
        assert s.sample(3.5, 3.5, 4) == [3.5] * 4
        assert s.count(3.0, 4.0) == 1

    def test_closed_interval_endpoints_included(self):
        s = StaticIRS([1.0, 2.0, 3.0], seed=8)
        assert s.count(1.0, 3.0) == 3
        assert s.count(1.0 + 1e-12, 3.0 - 1e-12) == 1


class TestDistribution:
    def test_uniformity_continuous(self, uniform_data):
        s = StaticIRS(uniform_data, seed=9)
        samples = s.sample(0.2, 0.8, 4000)
        in_range = sorted(v for v in uniform_data if 0.2 <= v <= 0.8)
        # KS against the empirical step CDF is awkward; instead test ranks.
        _stat, p = ks_uniform_test(
            [in_range.index(v) + 0.5 for v in samples[:800]], 0, len(in_range)
        )
        assert p > 1e-4

    def test_uniformity_over_duplicates(self, duplicated_data):
        s = StaticIRS(duplicated_data, seed=10)
        lo, hi = 0.0, 1.0
        samples = s.sample(lo, hi, 6000)
        _stat, p = uniformity_test(samples, duplicated_data)
        assert p > 1e-4

    def test_sample_ranks_agree_with_values(self, uniform_data):
        s = StaticIRS(uniform_data, seed=11)
        a, b = s.rank_range(0.4, 0.7)
        ranks = s.sample_ranks(0.4, 0.7, 200)
        assert all(a <= r < b for r in ranks)
        assert [s.value_at_rank(r) for r in ranks] == [
            s.values[r] for r in ranks
        ]

    def test_sample_bulk_matches_semantics(self, uniform_data):
        s = StaticIRS(uniform_data, seed=12)
        arr = s.sample_bulk(0.2, 0.4, 1000)
        assert len(arr) == 1000
        assert ((arr >= 0.2) & (arr <= 0.4)).all()

    def test_sample_bulk_reuses_storage_plane(self, uniform_data):
        # Regression: the seed path once re-materialized an O(n) NumPy copy
        # per call.  Storage is now a single array plane; the export hook
        # must hand back that plane itself, never a fresh copy.
        s = StaticIRS(uniform_data, seed=12)
        plane = s._data
        s.sample_bulk(0.2, 0.4, 10)
        assert s._export_array() is plane
        s.sample_bulk(0.5, 0.9, 10)
        assert s._export_array() is plane and s.export_sorted() is plane

    def test_sample_bulk_is_fresh_per_call(self, uniform_data):
        s = StaticIRS(uniform_data, seed=12)
        a = s.sample_bulk(0.1, 0.9, 200)
        b = s.sample_bulk(0.1, 0.9, 200)
        assert not (a == b).all()

    def test_sample_bulk_reproducible_with_seed(self, uniform_data):
        a = StaticIRS(uniform_data, seed=13)
        b = StaticIRS(uniform_data, seed=13)
        assert (a.sample_bulk(0.1, 0.9, 50) == b.sample_bulk(0.1, 0.9, 50)).all()

    def test_reproducible_with_seed(self, uniform_data):
        a = StaticIRS(uniform_data, seed=13)
        b = StaticIRS(uniform_data, seed=13)
        assert a.sample(0.1, 0.9, 50) == b.sample(0.1, 0.9, 50)


@given(
    data=st.lists(st.integers(-50, 50), min_size=0, max_size=80),
    lo=st.integers(-60, 60),
    width=st.integers(0, 60),
    t=st.integers(0, 20),
)
@settings(max_examples=150, deadline=None)
def test_sampling_is_consistent_with_bruteforce(data, lo, width, t):
    """Property: samples come from exactly the brute-force in-range set."""
    hi = lo + width
    s = StaticIRS([float(v) for v in data], seed=99)
    expected = {float(v) for v in data if lo <= v <= hi}
    assert s.count(lo, hi) == sum(1 for v in data if lo <= v <= hi)
    if t == 0:
        assert s.sample(lo, hi, t) == []
    elif not expected:
        with pytest.raises(EmptyRangeError):
            s.sample(lo, hi, t)
    else:
        assert set(s.sample(lo, hi, t)) <= expected
