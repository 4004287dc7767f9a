"""Tests for the without-replacement wrappers."""

from __future__ import annotations

from collections import Counter

import pytest

from repro import (
    DynamicIRS,
    ExternalIRS,
    InvalidQueryError,
    StaticIRS,
    WeightedDynamicIRS,
    WeightedStaticIRS,
    sample_ranks_without_replacement,
    sample_without_replacement,
)
from repro.rng import RandomSource
from repro.stats import chi_square_gof


class TestFloydRanks:
    def test_distinct_and_in_range(self):
        rng = RandomSource(1)
        for _ in range(50):
            ranks = sample_ranks_without_replacement(rng, 10, 40, 12)
            assert len(ranks) == 12
            assert len(set(ranks)) == 12
            assert all(10 <= r < 40 for r in ranks)

    def test_full_population(self):
        rng = RandomSource(2)
        ranks = sample_ranks_without_replacement(rng, 0, 5, 5)
        assert sorted(ranks) == [0, 1, 2, 3, 4]

    def test_too_many_requested(self):
        rng = RandomSource(3)
        with pytest.raises(InvalidQueryError):
            sample_ranks_without_replacement(rng, 0, 5, 6)

    def test_zero_requested(self):
        rng = RandomSource(4)
        assert sample_ranks_without_replacement(rng, 0, 5, 0) == []

    def test_subsets_are_uniform(self):
        """Every 2-subset of {0..4} must appear with equal frequency."""
        rng = RandomSource(5)
        counts: Counter[frozenset] = Counter()
        trials = 20_000
        for _ in range(trials):
            counts[frozenset(sample_ranks_without_replacement(rng, 0, 5, 2))] += 1
        assert len(counts) == 10
        _stat, p = chi_square_gof(list(counts.values()), [1.0] * 10)
        assert p > 1e-4

    def test_positions_are_exchangeable(self):
        """After the shuffle, the first position is uniform over the range."""
        rng = RandomSource(6)
        first = Counter(
            sample_ranks_without_replacement(rng, 0, 6, 3)[0] for _ in range(12_000)
        )
        _stat, p = chi_square_gof([first[i] for i in range(6)], [1.0] * 6)
        assert p > 1e-4


class TestWrapper:
    def test_static_path_uses_ranks(self):
        values = [1.0, 1.0, 2.0, 3.0]  # duplicates: rank-dedup must allow both 1.0s
        s = StaticIRS(values, seed=7)
        out = sample_without_replacement(s, 0.0, 5.0, 4, rng=RandomSource(8))
        assert sorted(out) == sorted(values)

    def test_select_path_takes_the_whole_range(self):
        d = DynamicIRS([float(i) for i in range(30)], seed=9)
        out = sample_without_replacement(d, 5.0, 14.0, 10, rng=RandomSource(10))
        assert sorted(out) == [float(i) for i in range(5, 15)]

    def test_select_path_returns_distinct_points(self):
        d = DynamicIRS([float(i) for i in range(1000)], seed=11)
        out = sample_without_replacement(d, 0.0, 999.0, 20, rng=RandomSource(12))
        assert len(out) == 20
        assert len(set(out)) == 20

    def test_request_exceeding_population(self):
        d = DynamicIRS([1.0, 2.0], seed=13)
        with pytest.raises(InvalidQueryError):
            sample_without_replacement(d, 0.0, 5.0, 3, rng=RandomSource(14))

    def test_zero_requested(self):
        d = DynamicIRS([1.0], seed=15)
        assert sample_without_replacement(d, 0.0, 5.0, 0, rng=RandomSource(16)) == []

    def test_select_path_subsets_uniform(self):
        d = DynamicIRS([float(i) for i in range(5)], seed=17)
        rng = RandomSource(18)
        counts: Counter[frozenset] = Counter()
        for _ in range(15_000):
            counts[
                frozenset(sample_without_replacement(d, 0.0, 4.0, 2, rng=rng))
            ] += 1
        assert len(counts) == 10
        _stat, p = chi_square_gof(list(counts.values()), [1.0] * 10)
        assert p > 1e-4

    @pytest.mark.parametrize("kind", ["weighted", "weighted-dynamic", "external"])
    def test_structures_without_ranks_are_refused(self, kind):
        # As the bulk twin refuses them: a subset drawn from these would
        # ignore the weights (nearly all the mass sits on the last point),
        # and a draw that rejects repeated values would never finish on
        # ten distinct values with t = 20.
        values = [float(i) for i in range(100)]
        weights = [1e-9] * 99 + [1.0]
        s = {
            "weighted": lambda: WeightedStaticIRS(values, weights, seed=19),
            "weighted-dynamic": lambda: WeightedDynamicIRS(values, weights, seed=19),
            "external": lambda: ExternalIRS([v % 10 for v in values], seed=19),
        }[kind]()
        with pytest.raises(InvalidQueryError, match="rank-addressable"):
            sample_without_replacement(s, 0.0, 99.0, 20, rng=RandomSource(20))
