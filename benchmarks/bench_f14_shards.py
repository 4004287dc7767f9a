"""F14 — shard scaling: sampling throughput by shard count.

What the rows show: sharding costs a single-structure workload more than
the per-shard draws can win back.  On a 2-CPU host the committed run
read 70.9 Msamples/s at ``P = 1`` against 26.4 and 25.5 at ``P = 2`` and
4, and over three runs ``P = 1`` ran 2.5-2.8x every ``P >= 2`` row of
its run, because at ``P >= 2`` every query pays one facade-side
permutation of its gathered block (``block[permutation(t)]``), and that
gather alone takes longer than the whole ``P = 1`` draw.  Spreading the
per-shard draws over a thread pool did not help either: a ``threads``
backend read 25.8 and 28.3 Msamples/s at ``P = 2`` and 4 against 27.4
and 28.9 inline, since the draws are the smaller share of a query, and
it was retired.

Each measurement drives one batch of wide-range queries through
``sample_bulk_many`` (the path :class:`~repro.batch.BatchQueryRunner`
uses).  Every shard count is timed once per round, in an order that
rotates by one row each round, and keeps its best round: a drifting host
then slows every row alike instead of whichever rows it caught.  The
recorded ``cpus`` column names the host's core count.
"""

from __future__ import annotations

import os
import platform

import numpy as np
import pytest

from repro import ShardedIRS
from repro.bench import time_callable
from repro.workloads import uniform_points

N = 1_000_000
QUERIES = 32
T = 65_536  # wide-range bulk draws per query
SHARD_COUNTS = [1, 2, 4]
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
        f"Msamples/s by shard count; host: {_CPUS} CPUs, "
        f"Python {platform.python_version()}, NumPy {np.__version__}",
        ["shards", "cpus", "Msamples/s"],
    )


@pytest.mark.benchmark(group="F14 shard scaling")
def test_shard_scaling(dataset, query_batch, rec):
    samplers = {}
    for shards in SHARD_COUNTS:
        sampler = samplers[shards] = ShardedIRS.from_sorted(
            dataset, num_shards=shards, seed=142, shard_kind="static"
        )
        sampler.sample_bulk_many(query_batch)  # warm the snapshots
    best = dict.fromkeys(SHARD_COUNTS, float("inf"))
    for start in range(ROUNDS):
        for k in range(len(SHARD_COUNTS)):
            shards = SHARD_COUNTS[(start + k) % len(SHARD_COUNTS)]
            sampler = samplers[shards]
            seconds = time_callable(
                lambda: sampler.sample_bulk_many(query_batch), repeat=1
            )
            best[shards] = min(best[shards], seconds)
    for shards in SHARD_COUNTS:
        rate = QUERIES * T / best[shards] / 1e6
        rec.row(shards, _CPUS, round(rate, 2))
