"""Tests for DynamicIRS rank selection and exact dynamic WoR sampling."""

from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DynamicIRS, InvalidQueryError, ShardedIRS, StaticIRS, WindowedIRS
from repro.stats import chi_square_gof


class TestSelectInRange:
    def test_matches_report(self):
        rng = random.Random(1)
        values = [rng.uniform(0, 100) for _ in range(3000)]
        d = DynamicIRS(values, seed=2)
        lo, hi = 20.0, 70.0
        expected = d.report(lo, hi)
        ranks = list(range(len(expected)))
        assert d.select_in_range(lo, hi, ranks) == expected

    def test_unsorted_and_repeated_ranks(self):
        d = DynamicIRS([float(i) for i in range(100)], seed=3)
        assert d.select_in_range(10.0, 50.0, [5, 0, 5, 40]) == [15.0, 10.0, 15.0, 50.0]

    def test_single_chunk_range(self):
        d = DynamicIRS([float(i) for i in range(100)], seed=4)
        assert d.select_in_range(3.0, 5.0, [0, 1, 2]) == [3.0, 4.0, 5.0]

    def test_out_of_bounds_rank(self):
        d = DynamicIRS([1.0, 2.0], seed=5)
        with pytest.raises(InvalidQueryError):
            d.select_in_range(0.0, 5.0, [2])
        with pytest.raises(InvalidQueryError):
            d.select_in_range(0.0, 5.0, [-1])

    def test_empty_ranks(self):
        d = DynamicIRS([1.0], seed=6)
        assert d.select_in_range(0.0, 5.0, []) == []

    def test_kth_in_range(self):
        d = DynamicIRS([float(i) for i in range(50)], seed=7)
        assert d.kth_in_range(10.0, 40.0, 0) == 10.0
        assert d.kth_in_range(10.0, 40.0, 30) == 40.0

    @given(
        data=st.lists(st.integers(0, 30), min_size=1, max_size=100),
        lo=st.integers(0, 30),
        width=st.integers(0, 30),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_full_selection_equals_report(self, data, lo, width):
        values = [float(v) for v in data]
        hi = float(lo + width)
        d = DynamicIRS(values, seed=8)
        expected = d.report(lo, hi)
        got = d.select_in_range(lo, hi, list(range(len(expected))))
        assert got == expected


VALUES = [float(i) for i in range(10)]
#: Each rank reader resolves one rank ``r``; every range holds ranks 0..5
#: or 0..9, so rank 10 lies outside all of them.
RANK_READERS = {
    "dynamic-select": lambda r: DynamicIRS(VALUES, seed=1).select_in_range(0, 5, [r]),
    "dynamic-kth": lambda r: DynamicIRS(VALUES, seed=1).kth_in_range(0, 5, r),
    "sharded-select": lambda r: ShardedIRS(VALUES, 3, seed=1).select_in_range(0, 9, [r]),
    "windowed-select": lambda r: WindowedIRS(VALUES, window=10, seed=1).select_in_range(
        0, 5, [r]
    ),
    "static-value-at-rank": lambda r: StaticIRS(VALUES, seed=1).value_at_rank(r),
}


@pytest.mark.parametrize(
    "rank", [1.5, 2.9, 4.5, 2.0, np.float64(1.0), float("nan"), True, False, -1, 10]
)
@pytest.mark.parametrize("reader", sorted(RANK_READERS))
def test_rank_that_is_no_int_in_range_raises_typed_error(reader, rank):
    """A float, bool or NaN rank, or one outside the range, is refused.

    None of them may be truncated, wrapped or indexed into a point.
    """
    with pytest.raises(InvalidQueryError):
        RANK_READERS[reader](rank)


@pytest.mark.parametrize("reader", sorted(RANK_READERS))
def test_numpy_integer_rank_resolves(reader):
    got = RANK_READERS[reader](np.int64(3))
    assert got in (3.0, [3.0])


def test_dynamic_select_takes_a_rank_array():
    d = DynamicIRS(VALUES, seed=1)
    assert d.select_in_range(0, 5, np.array([3, 1])) == [3.0, 1.0]
    assert d.select_in_range(0, 5, np.array([], dtype=np.int64)) == []


class TestDynamicWoR:
    def test_distinct_by_rank_with_duplicates(self):
        d = DynamicIRS([2.0, 2.0, 2.0, 5.0], seed=9)
        out = d.sample_without_replacement(0.0, 9.0, 4)
        assert sorted(out) == [2.0, 2.0, 2.0, 5.0]

    def test_too_many_raises(self):
        d = DynamicIRS([1.0, 2.0], seed=10)
        with pytest.raises(InvalidQueryError):
            d.sample_without_replacement(0.0, 5.0, 3)

    def test_zero(self):
        d = DynamicIRS([1.0], seed=11)
        assert d.sample_without_replacement(0.0, 5.0, 0) == []

    def test_subsets_uniform(self):
        d = DynamicIRS([float(i) for i in range(5)], seed=12)
        counts: Counter[frozenset] = Counter()
        for _ in range(15_000):
            counts[frozenset(d.sample_without_replacement(0.0, 4.0, 2))] += 1
        assert len(counts) == 10
        _stat, p = chi_square_gof(list(counts.values()), [1.0] * 10)
        assert p > 1e-4

    def test_wrapper_dispatches_to_rank_path(self):
        from repro import sample_without_replacement
        from repro.rng import RandomSource

        d = DynamicIRS([2.0, 2.0, 3.0], seed=13)
        out = sample_without_replacement(d, 0.0, 9.0, 3, rng=RandomSource(14))
        assert sorted(out) == [2.0, 2.0, 3.0]

    def test_after_updates(self):
        d = DynamicIRS([float(i) for i in range(2000)], seed=15)
        for i in range(0, 2000, 2):
            d.delete(float(i))
        out = d.sample_without_replacement(100.0, 1900.0, 50)
        assert len(set(out)) == 50
        assert all(100.0 <= v <= 1900.0 and v % 2 == 1 for v in out)
