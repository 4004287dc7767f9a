"""F14 — shard-scaling: throughput vs shard count vs execution backend.

What the rows show: sharding costs a single-structure workload more than
the per-shard draws can win back.  ``P = 1`` on ``serial`` ran 2.4-2.9x
every ``P >= 2`` row of its run on a 2-CPU host, because at ``P >= 2``
every query pays one facade-side permutation of its gathered block
(``block[permutation(t)]``), and that gather alone takes longer than the
whole ``P = 1`` draw.  ``threads`` read no better than ``serial`` at
``P >= 2`` (0.88-1.05x): the per-shard draws it spreads over cores are
the smaller share of a query.

Each measurement drives one batch of wide-range queries through
``sample_bulk_many`` (the path :class:`~repro.batch.BatchQueryRunner`
uses), so worker dispatch is amortized the way production traffic would.
Every (backend, P) row is timed once per round, in an order that rotates
by one row each round, and keeps its best round: a drifting host then
slows every row alike instead of whichever rows it caught.  The recorded
``cpus`` column names the host's core count.
"""

from __future__ import annotations

import os

import pytest

from repro import ShardedIRS
from repro.bench import time_callable
from repro.workloads import uniform_points

N = 1_000_000
QUERIES = 32
T = 65_536  # wide-range bulk draws per query
SHARD_COUNTS = [1, 2, 4]
BACKENDS = ["serial", "threads"]
ROUNDS = 10
_CPUS = os.cpu_count() or 1


@pytest.fixture(scope="module")
def dataset():
    return sorted(uniform_points(N, seed=141))


@pytest.fixture(scope="module")
def query_batch():
    # Wide ranges: every query spans ~80% of the key space, so every
    # shard participates in every scatter.
    return [(0.05 + 0.001 * i, 0.85 + 0.001 * i, T) for i in range(QUERIES)]


@pytest.fixture(scope="module")
def rec(experiment):
    return experiment(
        "F14",
        f"shard scaling (n={N}, {QUERIES} wide queries x t={T}): "
        "Msamples/s by shard count and backend",
        ["backend", "shards", "cpus", "Msamples/s"],
    )


@pytest.mark.benchmark(group="F14 shard scaling")
def test_shard_scaling(dataset, query_batch, rec):
    rows = [(backend, shards) for backend in BACKENDS for shards in SHARD_COUNTS]
    samplers = {}
    try:
        for backend, shards in rows:
            sampler = samplers[backend, shards] = ShardedIRS.from_sorted(
                dataset, num_shards=shards, seed=142, shard_kind="static",
                backend=backend, max_workers=shards,
            )
            sampler.sample_bulk_many(query_batch)  # warm pools and snapshots
        best = dict.fromkeys(rows, float("inf"))
        for start in range(ROUNDS):
            for k in range(len(rows)):
                row = rows[(start + k) % len(rows)]
                sampler = samplers[row]
                seconds = time_callable(
                    lambda: sampler.sample_bulk_many(query_batch), repeat=1
                )
                best[row] = min(best[row], seconds)
    finally:
        for sampler in samplers.values():
            sampler.close()
    for backend, shards in rows:
        rate = QUERIES * T / best[backend, shards] / 1e6
        rec.row(backend, shards, _CPUS, round(rate, 2))
