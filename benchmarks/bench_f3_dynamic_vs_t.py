"""F3 — dynamic query time vs ``t`` (claim R2 vs the O(t log n) baseline).

The paper's separation: DynamicIRS pays ``O(log n)`` once and ``O(1)``
expected per sample; TreeWalkSampler pays ``O(log n)`` *per sample*.  The
per-sample gap should approach a constant factor ≈ ``log n`` as ``t`` grows.
ReportThenSample is included as the ``O(K)`` reference.
"""

from __future__ import annotations

import pytest

from repro import DynamicIRS
from repro.baselines import ReportThenSample, TreeWalkSampler
from repro.workloads import selectivity_queries, uniform_points

N = 100_000
TS = [1, 4, 16, 64, 256, 1024]


@pytest.fixture(scope="module")
def setup():
    data = uniform_points(N, seed=31)
    queries = selectivity_queries(sorted(data), 0.3, 8, seed=32)
    return {
        "DynamicIRS": DynamicIRS(data, seed=33),
        "TreeWalkSampler": TreeWalkSampler(data, seed=34),
        "ReportThenSample": ReportThenSample(data, seed=35),
    }, queries


@pytest.fixture(scope="module")
def rec(experiment):
    return experiment(
        "F3",
        f"dynamic query time vs t  (n={N:,}, selectivity 30%); us/query",
        ["structure", "t", "us/query"],
    )


@pytest.mark.parametrize("t", TS)
@pytest.mark.parametrize(
    "name", ["DynamicIRS", "TreeWalkSampler", "ReportThenSample"]
)
@pytest.mark.benchmark(group="F3 dynamic query vs t")
def test_query_vs_t(benchmark, setup, rec, name, t):
    structures, queries = setup
    sampler = structures[name]

    def run():
        for lo, hi in queries:
            sampler.sample(lo, hi, t)

    benchmark(run)
    rec.row(name, t, benchmark.stats["mean"] / len(queries) * 1e6)


# -- F3b: the per-sample claim itself — O(1) vs O(log n) in n ----------------

NS = [10_000, 100_000, 1_000_000]
T_FIXED = 512


@pytest.fixture(scope="module")
def rec_n(experiment):
    return experiment(
        "F3b",
        f"dynamic per-sample cost vs n  (t={T_FIXED}, selectivity 30%). "
        "'touches' is machine-independent work: middle-window probes for DynamicIRS "
        "(O(1) expected), tree-node visits for TreeWalkSampler (≈log2 n) — "
        "the paper's claim; CPython wall-clock compresses the gap.",
        ["structure", "n", "us/sample", "touches/sample"],
    )


@pytest.fixture(scope="module", params=NS)
def sized(request):
    n = request.param
    data = uniform_points(n, seed=36)
    queries = selectivity_queries(sorted(data), 0.3, 6, seed=37)
    return (
        n,
        queries,
        DynamicIRS(data, seed=38),
        TreeWalkSampler(data, seed=39),
    )


@pytest.mark.parametrize("which", ["DynamicIRS", "TreeWalkSampler"])
@pytest.mark.benchmark(group="F3b dynamic per-sample vs n")
def test_per_sample_vs_n(benchmark, rec_n, sized, which):
    n, queries, dynamic, treewalk = sized
    sampler = dynamic if which == "DynamicIRS" else treewalk
    rejections_before = dynamic.stats.rejections
    visits_before = treewalk.node_visits
    runs = 0

    def run():
        nonlocal runs
        runs += 1
        for lo, hi in queries:
            sampler.sample(lo, hi, T_FIXED)

    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    total_samples = runs * len(queries) * T_FIXED
    if which == "DynamicIRS":
        probes = (
            total_samples  # one accepted probe per sample (upper bound: part draws)
            + dynamic.stats.rejections
            - rejections_before
        )
        touches = probes / total_samples
    else:
        touches = (treewalk.node_visits - visits_before) / total_samples
    rec_n.row(which, n, benchmark.stats["mean"] / (len(queries) * T_FIXED) * 1e6, touches)
