"""M1 — substrate microbenchmarks (not a paper claim; engineering context).

Per-draw cost of the weighted-sampling primitives every structure is built
from.  These numbers explain the constants seen in F1/F3/T2: a Walker alias
draw is two primitive draws; the cumulative-bisect used by the dynamic
middle plan is one draw plus a C-level binary search.
"""

from __future__ import annotations

import bisect
from itertools import accumulate

import pytest

from repro.alias import AliasTable
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

