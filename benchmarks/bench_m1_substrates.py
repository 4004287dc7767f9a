"""M1 — substrate microbenchmarks (not a paper claim; engineering context).

Per-draw cost of the weighted-sampling primitives every structure is built
from.  These numbers explain the constants seen in F1/F3/T2: a Walker alias
draw is two primitive draws; the cumulative-bisect used by the dynamic
middle plan is one draw plus a C-level binary search.

The last two rows benchmark the *retired* directory substrates explicitly
(imported from their ``repro.baselines`` homes — they are out of the
production import graph since the shared array directory of DESIGN.md §8):
the implicit treap's weighted prefix descent is what one middle draw cost
before the rewrite, and the PMA insert is the cell-shifting alternative
the array directory's memmove trade replaced.
"""

from __future__ import annotations

import bisect
from itertools import accumulate

import pytest

from repro.alias import AliasTable
from repro.baselines.pma import PackedMemoryArray
from repro.baselines.treap import ChunkTreap
from repro.rng import RandomSource

M = 4096
DRAWS = 20_000


@pytest.fixture(scope="module")
def weights():
    return [1.0 + (i % 13) for i in range(M)]


@pytest.fixture(scope="module")
def rec(experiment):
    return experiment(
        "M1",
        f"substrate draw cost ({M} items, {DRAWS:,} draws); ns/draw",
        ["substrate", "ns/draw"],
    )


@pytest.mark.benchmark(group="M1 substrates")
def test_alias_table(benchmark, weights, rec):
    table = AliasTable(weights)
    rng = RandomSource(1)
    benchmark(lambda: table.sample_many(rng, DRAWS))
    rec.row("AliasTable (Walker/Vose)", benchmark.stats["mean"] / DRAWS * 1e9)


@pytest.mark.benchmark(group="M1 substrates")
def test_cumulative_bisect(benchmark, weights, rec):
    cum = list(accumulate(weights))
    total = cum[-1]
    rng = RandomSource(2)

    def run():
        random = rng._rng.random
        br = bisect.bisect_right
        return [br(cum, random() * total) for _ in range(DRAWS)]

    benchmark(run)
    rec.row("cumulative + bisect", benchmark.stats["mean"] / DRAWS * 1e9)


@pytest.mark.benchmark(group="M1 substrates")
def test_randbelow_floor(benchmark, rec):
    rng = RandomSource(4)

    def run():
        below = rng.randbelow_fn(DRAWS)
        return [below(M) for _ in range(DRAWS)]

    benchmark(run)
    rec.row("raw randbelow (floor)", benchmark.stats["mean"] / DRAWS * 1e9)


class _Run:
    """Minimal treap payload: a weighted run of ``size`` points."""

    __slots__ = ("size", "weight", "min_value", "max_value")

    def __init__(self, at: int, size: int, weight: float) -> None:
        self.size = size
        self.weight = weight
        self.min_value = float(at)
        self.max_value = float(at + size - 1)


@pytest.mark.benchmark(group="M1 substrates")
def test_treap_weighted_descent(benchmark, weights, rec):
    """The retired pointer-machine path: one weighted descent per draw."""
    treap = ChunkTreap(RandomSource(5))
    treap.bulk_build([_Run(16 * i, 16, w) for i, w in enumerate(weights)])
    total = treap.total_weight
    rng = RandomSource(6)

    def run():
        random = rng._rng.random
        select = treap.select_by_prefix_weight
        return [select(random() * total) for _ in range(DRAWS)]

    benchmark(run)
    rec.row(
        "ChunkTreap weighted descent (retired)",
        benchmark.stats["mean"] / DRAWS * 1e9,
    )


@pytest.mark.benchmark(group="M1 substrates")
def test_pma_ordered_insert(benchmark, rec):
    """The retired cell-storage path: PMA inserts with rebalances."""
    rnd = RandomSource(7)

    def run():
        anchor = {}

        def on_move(item, index):
            anchor[item] = index

        pma = PackedMemoryArray(on_move)
        pma.insert_first(0)
        below = rnd.randbelow_fn()
        for i in range(1, M):
            # Uniformly random insertion point stresses the rebalancer.
            pma.insert_after(anchor[below(i)], i)
        return pma

    benchmark(run)
    rec.row("PMA ordered insert (retired)", benchmark.stats["mean"] / M * 1e9)
