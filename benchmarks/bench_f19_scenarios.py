"""F19 — scenario-tier throughput: windowed advance, stratified amortization,
vectorized Floyd without replacement.

Three claims under test, one per scenario path added by the scenario tier:

1. **Windowed advance is a streaming-rate operation.**  ``WindowedIRS``
   batches expiry (``expiry_batch``) and rides the bulk splice engine, so
   steady-state ``advance`` — every arrival also expires one key — should
   land within a small factor of the raw ``DynamicIRS.insert_bulk`` rate,
   not at the scalar insert+delete rate a naive ring-over-tree would pay.
   Both window modes are recorded; decay mode additionally pays its
   geometric weight ladder and the occasional rescale rebuild.

2. **Stratified sampling amortizes, it does not loop.**
   ``sample_stratified`` answers all strata through one
   ``sample_bulk_many`` call where the structure has one (``ShardedIRS``:
   a single scatter round covers every stratum) — versus the naive
   baseline of one ``sample_bulk`` call per stratum with the identical
   multinomial allocation and per-stratum seeds.  The two paths return
   byte-identical blocks (asserted here), so the ratio is pure dispatch
   amortization.  ``bench_smoke`` gates the direction: one-call ≥ loop.

3. **Vectorized Floyd beats the scalar loop and the rejection baseline.**
   ``sample_without_replacement_bulk`` makes one broadcast ``integers``
   draw plus one permutation; the scalar Floyd loop draws ``t`` times
   through the Python RNG, and the rejection baseline redraws duplicates
   through ``sample``.  All three are exact; only the constant differs.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_f19_scenarios.py \
          --benchmark-only --bench-json .
"""

from __future__ import annotations

import pytest

from repro import (
    DynamicIRS,
    ShardedIRS,
    StaticIRS,
    WindowedIRS,
    sample_without_replacement_bulk,
)
from repro.core import sample_without_replacement
from repro.rng import RandomSource, derive_seed, generator
from repro.scenarios import sample_stratified
from repro.workloads import uniform_points

N = 200_000
T = 16_384
WINDOW = 50_000
ADVANCE_BATCH = 2_000
WR_RANGE = (0.05, 0.95)

#: Eight equal-width disjoint strata over the bulk of the support.
STRATA = [(0.05 + 0.1 * j, 0.05 + 0.1 * j + 0.0999) for j in range(8)]


@pytest.fixture(scope="module")
def rec(experiment):
    return experiment(
        "F19",
        f"scenario-tier throughput (n={N:,}, t={T:,}, window={WINDOW:,}):"
        " windowed advance, stratified one-call vs per-stratum loop,"
        " bulk Floyd vs scalar/rejection",
        ["path", "structure", "ops/s", "baseline path", "speedup"],
    )


@pytest.fixture(scope="module")
def dataset():
    return uniform_points(N, seed=191)


# -- windowed advance ----------------------------------------------------------


@pytest.fixture(scope="module")
def insert_bulk_reference(dataset):
    """DynamicIRS.insert_bulk updates/s — the streaming-rate yardstick."""
    import time

    batch = uniform_points(ADVANCE_BATCH, seed=193)
    best = float("inf")
    for _ in range(5):
        d = DynamicIRS(dataset[:WINDOW], seed=192)
        start = time.perf_counter()
        d.insert_bulk(batch)
        best = min(best, time.perf_counter() - start)
    return ADVANCE_BATCH / best


@pytest.mark.parametrize("mode", ["uniform", "decay"])
@pytest.mark.benchmark(group="F19 windowed advance")
def test_windowed_advance(benchmark, rec, dataset, insert_bulk_reference, mode):
    decay = 0.999 if mode == "decay" else None
    w = WindowedIRS(
        dataset[:WINDOW], window=WINDOW, seed=194, decay=decay, expiry_batch=1_024
    )
    batch = uniform_points(ADVANCE_BATCH, seed=195)
    # Steady state: the window is full, so every arrival expires one key.
    benchmark(lambda: w.advance(batch))
    ups = ADVANCE_BATCH / benchmark.stats["mean"]
    rec.row(
        f"advance {mode}",
        "WindowedIRS",
        ups,
        "DynamicIRS.insert_bulk",
        ups / insert_bulk_reference,
    )


# -- stratified: one amortized call vs the naive per-stratum loop ---------------


def per_stratum_loop(sampler, strata, t, *, seed):
    """The naive baseline: identical allocation, one bulk call per stratum."""
    qgen = generator(seed)
    shares = [float(k) for k in sampler.peek_counts(strata)]
    total = sum(shares)
    split = qgen.multinomial(t, [s / total for s in shares])
    entropy = int(qgen.integers(1 << 63))
    return [
        sampler.sample_bulk(lo, hi, int(tj), seed=derive_seed(entropy, j))
        for j, ((lo, hi), tj) in enumerate(zip(strata, split))
    ]


@pytest.fixture(scope="module")
def sharded(dataset):
    s = ShardedIRS(dataset, num_shards=4, seed=196)
    s.sample_bulk(0.05, 0.95, 1_024)  # warm the shard snapshots
    return s


@pytest.mark.parametrize("path", ["one-call", "per-stratum loop"])
@pytest.mark.benchmark(group="F19 stratified")
def test_stratified_sharded(benchmark, rec, sharded, path):
    # Same allocation, same per-stratum seeds: the outputs are identical,
    # so the timing difference is pure dispatch amortization.
    one = sample_stratified(sharded, STRATA, T, seed=77)
    loop = per_stratum_loop(sharded, STRATA, T, seed=77)
    assert [list(map(float, b)) for b in one] == [
        list(map(float, b)) for b in loop
    ]
    if path == "one-call":
        benchmark(lambda: sample_stratified(sharded, STRATA, T, seed=77))
    else:
        benchmark(lambda: per_stratum_loop(sharded, STRATA, T, seed=77))
    rec.row(f"stratified {path}", "ShardedIRS", T / benchmark.stats["mean"], "", "")


@pytest.mark.benchmark(group="F19 stratified")
def test_stratified_dynamic(benchmark, rec, dataset):
    # Context row: without a many-path the one-call route degenerates to
    # the loop, so this is the floor the amortized path improves on.
    d = DynamicIRS(dataset, seed=197)
    benchmark(lambda: sample_stratified(d, STRATA, T, seed=77))
    rec.row("stratified one-call", "DynamicIRS", T / benchmark.stats["mean"], "", "")


# -- without replacement: vectorized Floyd vs scalar Floyd vs rejection ---------


@pytest.fixture(scope="module")
def static(dataset):
    return StaticIRS(dataset, seed=198)


@pytest.fixture(scope="module")
def scalar_floyd_reference(static):
    """Scalar Floyd samples/s (Python-loop ranks, one value lookup each)."""
    import time

    lo, hi = WR_RANGE
    best = float("inf")
    for _ in range(3):
        rng = RandomSource(199)
        start = time.perf_counter()
        sample_without_replacement(static, lo, hi, T, rng=rng)
        best = min(best, time.perf_counter() - start)
    return T / best


@pytest.mark.benchmark(group="F19 without replacement")
def test_wr_bulk_floyd(benchmark, rec, static, scalar_floyd_reference):
    lo, hi = WR_RANGE
    benchmark(lambda: sample_without_replacement_bulk(static, lo, hi, T, seed=200))
    sps = T / benchmark.stats["mean"]
    rec.row(
        "without-replacement bulk Floyd",
        "StaticIRS",
        sps,
        "scalar Floyd loop",
        sps / scalar_floyd_reference,
    )


@pytest.mark.benchmark(group="F19 without replacement")
def test_wr_scalar_floyd(benchmark, rec, static):
    lo, hi = WR_RANGE
    rng = RandomSource(199)
    benchmark(lambda: sample_without_replacement(static, lo, hi, T, rng=rng))
    rec.row(
        "without-replacement scalar Floyd",
        "StaticIRS",
        T / benchmark.stats["mean"],
        "",
        "",
    )


@pytest.mark.benchmark(group="F19 without replacement")
def test_wr_rejection(benchmark, rec, static):
    # The classic alternative: draw with replacement, redraw duplicates.
    # Exact over distinct keys; ~2 draws per kept sample at t = K/2.
    lo, hi = WR_RANGE

    def rejection():
        rng = RandomSource(201)
        seen: set[float] = set()
        out: list[float] = []
        while len(out) < T:
            for value in static.sample(lo, hi, T - len(out)):
                if value not in seen:
                    seen.add(value)
                    out.append(value)
        return out

    benchmark(rejection)
    rec.row(
        "without-replacement rejection",
        "StaticIRS",
        T / benchmark.stats["mean"],
        "",
        "",
    )
