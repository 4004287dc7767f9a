"""F16 — weighted-dynamic bulk throughput on the shared array directory.

The PR-5 refactor rewrote ``WeightedDynamicIRS`` from the chunk-treap
directory onto the shared array-backed engine (DESIGN.md §8): bulk
sampling resolves every middle draw with cumulative ``searchsorted``
passes (chunk by the weight prefix, then point in the tables of only the
chunks drawn; a window of at most two cells per draw is one table and
one guided search) instead of one treap descent per sample, and bulk updates
ride the same splice-and-repair pass
as the unweighted structure.  This series records the weighted paths next
to their unweighted counterparts (the "within 2–3× of unweighted" target)
and next to the **frozen PR-4 treap baseline** below.

``TREAP_BASELINE`` was measured at the PR-4 commit (``c635b8e``, the last
revision with the treap-backed ``WeightedDynamicIRS``) on the reference
container with this file's exact workload shapes (n = 10^6, t = 65 536,
batch = 10^4).  The numbers are committed in ``BENCH_F16.json`` and gated
by ``bench_smoke``: the rewrite must stay ≥ the treap path (the
acceptance bar was ≥ 5× for wide bulk sampling).

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_f16_weighted_bulk.py \
          --benchmark-only --bench-json .
"""

from __future__ import annotations

import pytest

from repro import DynamicIRS, WeightedDynamicIRS
from repro.workloads import uniform_points

N = 1_000_000
T = 65_536
BATCH = 10_000
WIDE = (0.05, 0.95)
NARROW = (0.4, 0.401)
SCALAR_T = 4_096

#: samples/s (resp. updates/s) of the PR-4 treap-backed WeightedDynamicIRS,
#: measured at commit c635b8e with exactly these workload shapes.
TREAP_BASELINE = {
    "sample_bulk wide": 431_587,
    "sample_bulk narrow": 6_583_277,
    "sample scalar": 142_479,
    "insert_bulk": 47_486,
    "delete_bulk": 45_892,
}


@pytest.fixture(scope="module")
def rec(experiment):
    return experiment(
        "F16",
        f"weighted-dynamic bulk throughput (n={N:,}, t={T:,}, batch={BATCH:,});"
        " ops/s vs the frozen PR-4 treap baseline",
        ["path", "structure", "ops/s", "treap baseline ops/s", "speedup"],
    )


@pytest.fixture(scope="module")
def dataset():
    data = uniform_points(N, seed=161)
    data.sort()
    weights = [1.0 + (i % 7) for i in range(N)]
    return data, weights


@pytest.fixture(scope="module")
def weighted(dataset):
    data, weights = dataset
    w = WeightedDynamicIRS.from_sorted(data, weights, seed=162)
    w.sample_bulk(*WIDE, 1024)  # warm the weight prefix + per-chunk views
    return w


@pytest.fixture(scope="module")
def unweighted(dataset):
    data, _ = dataset
    d = DynamicIRS.from_sorted(data, seed=162)
    d.sample_bulk(*WIDE, 1024)
    return d


def _row(rec, path, structure, ops_per_sec):
    base = TREAP_BASELINE.get(path)
    if structure == "WeightedDynamicIRS" and base is not None:
        rec.row(path, structure, ops_per_sec, base, ops_per_sec / base)
    else:
        rec.row(path, structure, ops_per_sec, "", "")


@pytest.mark.parametrize("selectivity", ["wide", "narrow"])
@pytest.mark.benchmark(group="F16 weighted bulk sampling")
def test_weighted_sample_bulk(benchmark, rec, weighted, selectivity):
    lo, hi = WIDE if selectivity == "wide" else NARROW
    benchmark(lambda: weighted.sample_bulk(lo, hi, T))
    _row(
        rec,
        f"sample_bulk {selectivity}",
        "WeightedDynamicIRS",
        T / benchmark.stats["mean"],
    )


@pytest.mark.parametrize("selectivity", ["wide", "narrow"])
@pytest.mark.benchmark(group="F16 weighted bulk sampling")
def test_unweighted_sample_bulk(benchmark, rec, unweighted, selectivity):
    lo, hi = WIDE if selectivity == "wide" else NARROW
    benchmark(lambda: unweighted.sample_bulk(lo, hi, T))
    _row(
        rec,
        f"sample_bulk {selectivity}",
        "DynamicIRS",
        T / benchmark.stats["mean"],
    )


@pytest.mark.benchmark(group="F16 weighted bulk sampling")
def test_weighted_sample_scalar(benchmark, rec, weighted):
    benchmark(lambda: weighted.sample(*WIDE, SCALAR_T))
    _row(rec, "sample scalar", "WeightedDynamicIRS", SCALAR_T / benchmark.stats["mean"])


@pytest.mark.benchmark(group="F16 weighted bulk updates")
def test_weighted_insert_bulk(benchmark, rec, dataset):
    data, weights = dataset
    batch = uniform_points(BATCH, seed=163)
    wbatch = [1.0 + (i % 5) for i in range(BATCH)]

    def fresh():
        # Untimed per-round setup: each round mutates a fresh structure.
        return (WeightedDynamicIRS.from_sorted(data, weights, seed=164),), {}

    benchmark.pedantic(
        lambda w: w.insert_bulk(batch, wbatch), setup=fresh, rounds=3, iterations=1
    )
    _row(rec, "insert_bulk", "WeightedDynamicIRS", BATCH / benchmark.stats["mean"])


@pytest.mark.benchmark(group="F16 weighted bulk updates")
def test_weighted_delete_bulk(benchmark, rec, dataset):
    data, weights = dataset
    dels = data[:: N // BATCH][:BATCH]

    def fresh():
        return (WeightedDynamicIRS.from_sorted(data, weights, seed=165),), {}

    benchmark.pedantic(
        lambda w: w.delete_bulk(dels), setup=fresh, rounds=3, iterations=1
    )
    _row(rec, "delete_bulk", "WeightedDynamicIRS", BATCH / benchmark.stats["mean"])


@pytest.mark.benchmark(group="F16 weighted bulk updates")
def test_unweighted_insert_bulk(benchmark, rec, dataset):
    data, _ = dataset
    batch = uniform_points(BATCH, seed=163)

    def fresh():
        return (DynamicIRS.from_sorted(data, seed=166),), {}

    benchmark.pedantic(
        lambda d: d.insert_bulk(batch), setup=fresh, rounds=3, iterations=1
    )
    _row(rec, "insert_bulk", "DynamicIRS", BATCH / benchmark.stats["mean"])


@pytest.mark.benchmark(group="F16 weighted bulk sampling")
def test_update_query_alternation(benchmark, rec, dataset):
    """Cache invalidation pressure: insert → bulk query, repeatedly.

    Every insert marks the weight prefix stale from its chunk on, so each
    query re-folds the prefix after that chunk (about half the chunks
    here) and takes cumulative tables of only the chunks its draws land
    in; recorded so a regression that silently does ``O(n)`` work per
    transition shows up as a cliff in this row.
    """
    data, weights = dataset

    def fresh():
        return (WeightedDynamicIRS.from_sorted(data, weights, seed=167),), {}

    def alternate(w):
        for _ in range(32):
            w.insert(0.5, 2.0)
            w.sample_bulk(*WIDE, 256)

    benchmark.pedantic(alternate, setup=fresh, rounds=2, iterations=1)
    _row(
        rec,
        "insert+sample_bulk(256) pair",
        "WeightedDynamicIRS",
        32 / benchmark.stats["mean"],
    )
