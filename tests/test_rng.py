"""Unit tests for the RandomSource façade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.rng import (
    RandomSource,
    ScriptedSource,
    _one_query_ranks,
    seeded_ranks,
    spawn,
)


class TestRandomSource:
    def test_reproducible(self):
        a = RandomSource(7)
        b = RandomSource(7)
        assert [a.randrange(100) for _ in range(20)] == [
            b.randrange(100) for _ in range(20)
        ]

    def test_different_seeds_differ(self):
        a = RandomSource(1)
        b = RandomSource(2)
        assert [a.randrange(10**9) for _ in range(5)] != [
            b.randrange(10**9) for _ in range(5)
        ]

    def test_draw_counting(self):
        rng = RandomSource(0)
        rng.randrange(10)
        rng.randint(0, 5)
        rng.random()
        rng.uniform(0.0, 2.0)
        assert rng.draws == 4
        rng.randranges(10, 7)
        assert rng.draws == 11
        rng.shuffle([1, 2, 3])
        assert rng.draws == 14

    def test_ranges_respected(self):
        rng = RandomSource(3)
        for _ in range(200):
            assert 0 <= rng.randrange(7) < 7
            assert 2 <= rng.randint(2, 4) <= 4
            assert 0.0 <= rng.random() < 1.0
            assert 1.0 <= rng.uniform(1.0, 3.0) <= 3.0

    def test_spawn_streams_are_independent_and_deterministic(self):
        a1 = RandomSource(5).spawn()
        a2 = RandomSource(5).spawn()
        assert [a1.random() for _ in range(5)] == [a2.random() for _ in range(5)]

    def test_spawn_numpy_is_deterministic_side_stream(self):
        a = RandomSource(5).spawn_numpy()
        b = RandomSource(5).spawn_numpy()
        assert a.integers(0, 1000, size=8).tolist() == b.integers(
            0, 1000, size=8
        ).tolist()

    def test_spawn_numpy_does_not_count_draws(self):
        rng = RandomSource(5)
        gen = rng.spawn_numpy()
        gen.integers(0, 10, size=100)
        assert rng.draws == 0

    def test_spawn_numpy_advances_parent_stream(self):
        rng = RandomSource(5)
        first = rng.spawn_numpy()
        second = rng.spawn_numpy()
        assert first.integers(0, 10**9, size=4).tolist() != second.integers(
            0, 10**9, size=4
        ).tolist()

    def test_spawn_helper_indexing(self):
        s0 = spawn(9, 0)
        s1 = spawn(9, 1)
        s0_again = spawn(9, 0)
        seq0 = [s0.randrange(1000) for _ in range(5)]
        assert seq0 == [s0_again.randrange(1000) for _ in range(5)]
        assert seq0 != [s1.randrange(1000) for _ in range(5)]

    def test_choice_index_follows_cumulative_table(self):
        rng = ScriptedSource([0.0, 0.49, 0.51, 0.99])
        cumulative = [5.0, 10.0]
        picks = [rng.choice_index(cumulative) for _ in range(4)]
        assert picks == [0, 0, 1, 1]


class TestScriptedSource:
    def test_script_consumed_in_order(self):
        rng = ScriptedSource([0.0, 0.5, 0.999])
        assert rng.randrange(10) == 0
        assert rng.randrange(10) == 5
        assert rng.randrange(10) == 9

    def test_randint_maps_inclusive(self):
        rng = ScriptedSource([0.0, 0.999])
        assert rng.randint(3, 5) == 3
        assert rng.randint(3, 5) == 5

    def test_falls_back_to_seeded_source(self):
        rng = ScriptedSource([0.5], seed=11)
        rng.random()
        value = rng.random()  # from the fallback generator
        assert 0.0 <= value < 1.0

    def test_uniform_uses_script(self):
        rng = ScriptedSource([0.25])
        assert rng.uniform(0.0, 8.0) == pytest.approx(2.0)


#: Seeds folded into the uint64 counter domain, widths up to 2^63 - 1, and
#: ``3 << 61``, whose rejection bound refuses about a quarter of all draws.
RANK_SEEDS = [0, -1, (1 << 64) - 1, 1 << 64, (1 << 70) + 3]
RANK_WIDTHS = [1, 2, 10**6, (1 << 63) - 1, 3 << 61]


@pytest.mark.parametrize("width", RANK_WIDTHS)
def test_one_query_seeded_ranks_match_the_general_path(width):
    """A one-query call returns the ranks a many-query call gives it."""
    fallbacks = 0
    for seed in RANK_SEEDS:
        for t in (1, 16, 257):
            for start in (0, 7):
                one = seeded_ranks([seed], [start], [width], [t])
                # Two copies take the general path; a query's ranks do not
                # depend on its batch-mates.
                both = seeded_ranks([seed] * 2, [start] * 2, [width] * 2, [t] * 2)
                assert one.dtype == np.int64
                assert one.tolist() == both[:t].tolist() == both[t:].tolist()
                assert start <= one.min() and one.max() < start + width
                folded = seed & (1 << 64) - 1
                fallbacks += _one_query_ranks(folded, start, width, t) is None
    if width == 3 << 61:
        # Rejected draws send the call through the general path's retries.
        assert fallbacks > 0
    assert seeded_ranks([5], [0], [width], [0]).tolist() == []
