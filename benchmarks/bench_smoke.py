#!/usr/bin/env python
"""CI bench-smoke: fail loudly if the bulk update/read engine regresses.

Tiny-n, seconds-long sanity gate (not a benchmark): asserts that

* ``DynamicIRS.insert_bulk`` / ``delete_bulk`` beat the scalar loops,
* ``WeightedDynamicIRS.insert_bulk`` beats its scalar loop,
* on both dynamic kinds, a 64-value ``insert_bulk``/``delete_bulk`` pair
  beats 64 scalar insert/delete pairs (the served write batch size),
* ``WeightedDynamicIRS.sample_bulk`` beats scalar sampling, and both the
  bulk sampling and the bulk update paths stay at or above the frozen
  PR-4 treap-backed baselines committed in ``BENCH_F16.json`` —
  compared as weighted/unweighted throughput *ratios* so host speed
  cancels out,
* every sampler exposes ``sample_bulk`` and returns in-range samples,
* ``sample_stratified`` on the sharded facade matches the naive
  per-stratum loop byte-for-byte and is at least as fast (the one-call
  scatter round must amortize, never regress to the loop),
* ``DynamicIRS.sample_bulk_many`` on a batch of seeded reads matches the
  per-query ``sample_bulk(seed=)`` loop byte-for-byte and is at least as
  fast,
* the mixed-stream runner executes a coalesced read/write stream,
* the sharded engine agrees with a flat structure.

Run:  PYTHONPATH=src python benchmarks/bench_smoke.py
"""

from __future__ import annotations

import os
import random
import sys

from repro import (
    BatchQueryRunner,
    DynamicIRS,
    ExternalIRS,
    ShardedIRS,
    StaticIRS,
    WeightedDynamicIRS,
    WeightedStaticIRS,
)
from repro.bench import time_callable, update_throughput
from repro.workloads import UpdateStream, as_mixed_ops, uniform_points

N = 20_000
BATCH = 4_000
#: The bulk path must be at least this much faster than the scalar loop;
#: real ratios are 4-25x, the slack absorbs CI scheduler noise.
MARGIN = 1.3

failures: list[str] = []


def check(label: str, ok: bool, detail: str = "") -> None:
    status = "ok" if ok else "FAIL"
    print(f"[{status}] {label}" + (f"  ({detail})" if detail else ""))
    if not ok:
        failures.append(label)


def main() -> int:
    data = uniform_points(N, seed=11)
    batch = uniform_points(BATCH, seed=12)
    dels = random.Random(13).sample(data, BATCH)

    # -- dynamic bulk vs scalar (updates/sec, fresh structure per run) ---------
    def scalar_insert(d):
        for v in batch:
            d.insert(v)

    scalar = update_throughput(
        lambda: DynamicIRS(data, seed=14), scalar_insert, BATCH
    )
    bulk = update_throughput(
        lambda: DynamicIRS(data, seed=14), lambda d: d.insert_bulk(batch), BATCH
    )
    check(
        "DynamicIRS.insert_bulk beats scalar loop",
        bulk > scalar * MARGIN,
        f"bulk {bulk:,.0f}/s vs scalar {scalar:,.0f}/s",
    )

    def scalar_delete(d):
        for v in dels:
            d.delete(v)

    scalar = update_throughput(
        lambda: DynamicIRS(data, seed=15), scalar_delete, BATCH
    )
    bulk = update_throughput(
        lambda: DynamicIRS(data, seed=15), lambda d: d.delete_bulk(dels), BATCH
    )
    check(
        "DynamicIRS.delete_bulk beats scalar loop",
        bulk > scalar * MARGIN,
        f"bulk {bulk:,.0f}/s vs scalar {scalar:,.0f}/s",
    )

    # correctness cross-check while we are here
    d_bulk = DynamicIRS(data, seed=16)
    d_bulk.insert_bulk(batch)
    d_bulk.delete_bulk(dels)
    d_ref = DynamicIRS(data, seed=16)
    for v in batch:
        d_ref.insert(v)
    for v in dels:
        d_ref.delete(v)
    d_bulk.check_invariants()
    check("bulk == scalar element-for-element", d_bulk.values() == d_ref.values())

    # -- weighted bulk vs scalar -----------------------------------------------
    weights = [1.0 + (i % 7) for i in range(N)]
    wbatch = [1.0 + (i % 5) for i in range(BATCH)]

    def w_scalar(w):
        for v, wt in zip(batch, wbatch):
            w.insert(v, wt)

    scalar = update_throughput(
        lambda: WeightedDynamicIRS(data, weights, seed=17), w_scalar, BATCH
    )
    bulk = update_throughput(
        lambda: WeightedDynamicIRS(data, weights, seed=17),
        lambda w: w.insert_bulk(batch, wbatch),
        BATCH,
    )
    check(
        "WeightedDynamicIRS.insert_bulk beats scalar loop",
        bulk > scalar * MARGIN,
        f"bulk {bulk:,.0f}/s vs scalar {scalar:,.0f}/s",
    )

    # -- 64-value bulk pairs vs scalar pairs ------------------------------------
    # Served writes arrive as 64-value batches, where the bulk path's fixed
    # per-call cost decides rather than its per-value work, so the batch
    # size gets its own gate: one insert_bulk+delete_bulk pair of 64 values
    # must beat 64 scalar insert+delete pairs by MARGIN, on each dynamic
    # kind.  Same best-of-adjacent-pairs protocol as the stratified gate.
    small = uniform_points(64, seed=30)
    small_w = [1.0 + (i % 5) for i in range(64)]
    pair_kinds = (
        ("DynamicIRS", DynamicIRS(data, seed=31), False),
        ("WeightedDynamicIRS", WeightedDynamicIRS(data, weights, seed=32), True),
    )
    for name, structure, weighted in pair_kinds:

        def scalar_pairs(structure=structure, weighted=weighted):
            for v, wt in zip(small, small_w):
                if weighted:
                    structure.insert(v, wt)
                else:
                    structure.insert(v)
                structure.delete(v)

        def bulk_pair(structure=structure, weighted=weighted):
            if weighted:
                structure.insert_bulk(small, small_w)
            else:
                structure.insert_bulk(small)
            structure.delete_bulk(small)

        best_ratio, best_pair = 0.0, (0.0, 0.0)
        for _ in range(4):
            scalar_vps = 2 * len(small) / time_callable(scalar_pairs, repeat=3)
            bulk_vps = 2 * len(small) / time_callable(bulk_pair, repeat=3)
            if scalar_vps > 0.0 and bulk_vps / scalar_vps > best_ratio:
                best_ratio, best_pair = bulk_vps / scalar_vps, (bulk_vps, scalar_vps)
        check(
            f"{name} 64-value bulk pair beats scalar pairs",
            best_ratio > MARGIN,
            f"best pair: bulk {best_pair[0]:,.0f}/s vs scalar {best_pair[1]:,.0f}/s"
            f" ({best_ratio:.2f}x)",
        )
        structure.check_invariants()

    # -- weighted-dynamic: bulk sampling vs scalar and vs the treap baseline ---
    # BENCH_F16.json freezes the PR-4 treap-backed WeightedDynamicIRS numbers
    # next to the unweighted DynamicIRS numbers from the same reference run.
    # Comparing raw throughput against frozen numbers would fail any
    # sufficiently slower host with no real regression, so the gates compare
    # *ratios*: weighted throughput as a fraction of unweighted throughput,
    # measured here on this host, must be at least the treap design's
    # fraction from the frozen run — host speed cancels, a revert to the
    # treap design (or an equivalent slowdown of the weighted paths alone)
    # still fails.
    import json

    f16_path = os.path.join(os.path.dirname(__file__), "..", "BENCH_F16.json")
    with open(f16_path) as handle:
        f16_rows = json.load(handle)["rows"]
    treap_baseline = {
        row[0]: float(row[3])
        for row in f16_rows
        if row[1] == "WeightedDynamicIRS" and row[3] != ""
    }
    reference = {
        row[0]: float(row[2]) for row in f16_rows if row[1] == "DynamicIRS"
    }
    wd = WeightedDynamicIRS(data, weights, seed=28)
    d_ref = DynamicIRS(data, seed=28)
    lo, hi = 0.1, 0.9
    t_bulk, t_scalar = 16_384, 2_048
    wd.sample_bulk(lo, hi, 512)  # warm the weight prefix + per-chunk views
    d_ref.sample_bulk(lo, hi, 512)
    bulk_sps = t_bulk / time_callable(lambda: wd.sample_bulk(lo, hi, t_bulk), repeat=3)
    scalar_sps = t_scalar / time_callable(lambda: wd.sample(lo, hi, t_scalar), repeat=3)
    uw_sps = t_bulk / time_callable(lambda: d_ref.sample_bulk(lo, hi, t_bulk), repeat=3)
    check(
        "WeightedDynamicIRS.sample_bulk beats scalar sampling",
        bulk_sps > scalar_sps * MARGIN,
        f"bulk {bulk_sps:,.0f}/s vs scalar {scalar_sps:,.0f}/s",
    )
    treap_frac = treap_baseline["sample_bulk wide"] / reference["sample_bulk wide"]
    check(
        "weighted bulk sampling >= PR-4 treap baseline (host-normalized)",
        bulk_sps / uw_sps >= treap_frac,
        f"{bulk_sps / uw_sps:.2f}x of unweighted vs treap's frozen "
        f"{treap_frac:.2f}x",
    )

    def wd_update_throughput(apply):
        return update_throughput(
            lambda: WeightedDynamicIRS(data, weights, seed=29), apply, BATCH
        )

    ins_ups = wd_update_throughput(lambda w: w.insert_bulk(batch, wbatch))
    del_ups = wd_update_throughput(lambda w: w.delete_bulk(dels))
    uw_ups = update_throughput(
        lambda: DynamicIRS(data, seed=29), lambda d: d.insert_bulk(batch), BATCH
    )
    treap_ins_frac = treap_baseline["insert_bulk"] / reference["insert_bulk"]
    treap_del_frac = treap_baseline["delete_bulk"] / reference["insert_bulk"]
    check(
        "weighted bulk updates >= PR-4 treap baseline (host-normalized)",
        ins_ups / uw_ups >= treap_ins_frac and del_ups / uw_ups >= treap_del_frac,
        f"insert {ins_ups / uw_ups:.3f}x vs treap {treap_ins_frac:.3f}x, "
        f"delete {del_ups / uw_ups:.3f}x vs treap {treap_del_frac:.3f}x "
        "(of unweighted insert_bulk)",
    )

    # -- sample_bulk on every sampler ------------------------------------------
    samplers = {
        "StaticIRS": StaticIRS(data, seed=21),
        "DynamicIRS": DynamicIRS(data, seed=22),
        "WeightedStaticIRS": WeightedStaticIRS(data, weights, seed=23),
        "WeightedDynamicIRS": WeightedDynamicIRS(data, weights, seed=24),
        "ExternalIRS": ExternalIRS(data, block_size=256, seed=25),
    }
    lo, hi = 0.2, 0.7
    for name, sampler in samplers.items():
        samples = sampler.sample_bulk(lo, hi, 512)
        ok = len(samples) == 512 and all(lo <= v <= hi for v in samples)
        check(f"{name}.sample_bulk in-range", ok)

    # -- sharded engine: equivalence with a flat structure -------------------------
    sharded = ShardedIRS(data, num_shards=4, seed=31)
    flat = StaticIRS(data, seed=32)
    check(
        "ShardedIRS count/report match flat structure",
        sharded.count(0.2, 0.7) == flat.count(0.2, 0.7)
        and sharded.report(0.2, 0.7) == flat.report(0.2, 0.7),
    )
    samples = sharded.sample_bulk(0.2, 0.7, 512)
    check(
        "ShardedIRS.sample_bulk in-range",
        len(samples) == 512 and all(0.2 <= v <= 0.7 for v in samples),
    )

    # -- scenario tier: stratified must amortize, not loop ----------------------
    # sample_stratified answers every stratum through one sample_bulk_many
    # scatter round on ShardedIRS; the naive baseline is one sample_bulk
    # call per stratum with the identical multinomial allocation and
    # per-stratum seeds (so the outputs are byte-identical and the timing
    # difference is pure dispatch amortization).  F19 measures ~1.3x at
    # n=2e5; the smoke gate only asserts the direction never inverts.
    from repro import sample_stratified
    from repro.rng import derive_seed, generator

    strata = [(0.05 + 0.1 * j, 0.05 + 0.1 * j + 0.0999) for j in range(8)]
    strat_t = 4_096

    def per_stratum_loop():
        qgen = generator(77)
        shares = [float(k) for k in sharded.peek_counts(strata)]
        total = sum(shares)
        split = qgen.multinomial(strat_t, [s / total for s in shares])
        entropy = int(qgen.integers(1 << 63))
        return [
            sharded.sample_bulk(s_lo, s_hi, int(tj), seed=derive_seed(entropy, j))
            for j, ((s_lo, s_hi), tj) in enumerate(zip(strata, split))
        ]

    one_blocks = sample_stratified(sharded, strata, strat_t, seed=77)
    loop_blocks = per_stratum_loop()
    check(
        "stratified one-call == per-stratum loop (same seed)",
        [list(map(float, b)) for b in one_blocks]
        == [list(map(float, b)) for b in loop_blocks],
    )
    # Shared-CPU hosts drift more than the ~1.3x being measured, so (same
    # protocol as the metrics-overhead gate below) compare within temporally
    # adjacent loop/one-call pairs and judge the best pair: a real inversion
    # depresses every pair, scheduler noise only some.
    best_ratio, best_pair = 0.0, (0.0, 0.0)
    for _ in range(4):
        loop_sps = strat_t / time_callable(per_stratum_loop, repeat=3)
        one_sps = strat_t / time_callable(
            lambda: sample_stratified(sharded, strata, strat_t, seed=77), repeat=3
        )
        if loop_sps > 0.0 and one_sps / loop_sps > best_ratio:
            best_ratio, best_pair = one_sps / loop_sps, (one_sps, loop_sps)
    check(
        "stratified one-call >= per-stratum loop",
        best_ratio >= 1.0,
        f"best pair: one-call {best_pair[0]:,.0f}/s vs loop {best_pair[1]:,.0f}/s"
        f" ({best_ratio:.2f}x)",
    )

    # -- seeded DynamicIRS batches: one vectorized pass, never a loop ---------
    # A coalesced batch of seeded reads (64 queries, t=16, log-uniform
    # widths — the served read mix) must cost no more as one
    # sample_bulk_many call than as per-query sample_bulk(seed=) calls;
    # per-query work creeping back into the batch path fails here.  Same
    # best-of-adjacent-pairs protocol as the stratified gate.
    dyn = DynamicIRS(data, seed=28)
    flat = sorted(data)
    wrng = random.Random(29)
    seeded_queries, seeded_seeds = [], []
    for k in range(64):
        width = int(10 ** wrng.uniform(1, 4))
        at = wrng.randrange(N - width)
        seeded_queries.append((flat[at], flat[at + width - 1], 16))
        seeded_seeds.append(1_000 + k)

    def seeded_loop():
        return [
            dyn.sample_bulk(q_lo, q_hi, q_t, seed=q_seed)
            for (q_lo, q_hi, q_t), q_seed in zip(seeded_queries, seeded_seeds)
        ]

    def seeded_many():
        return dyn.sample_bulk_many(seeded_queries, seeds=seeded_seeds)

    check(
        "DynamicIRS seeded sample_bulk_many == per-query sample_bulk",
        [b.tobytes() for b in seeded_many()] == [b.tobytes() for b in seeded_loop()],
    )
    best_ratio, best_pair = 0.0, (0.0, 0.0)
    for _ in range(4):
        loop_qps = len(seeded_queries) / time_callable(seeded_loop, repeat=3)
        many_qps = len(seeded_queries) / time_callable(seeded_many, repeat=3)
        if loop_qps > 0.0 and many_qps / loop_qps > best_ratio:
            best_ratio, best_pair = many_qps / loop_qps, (many_qps, loop_qps)
    check(
        "DynamicIRS seeded sample_bulk_many >= per-query loop",
        best_ratio >= 1.0,
        f"best pair: one-call {best_pair[0]:,.0f} q/s vs loop {best_pair[1]:,.0f} q/s"
        f" ({best_ratio:.2f}x)",
    )

    # -- durability: snapshot recovery must beat WAL-only replay ---------------
    # The checkpointing story only holds if the O(n) from_sorted rebuild is
    # decisively faster than replaying the history through the batch engine;
    # F17 measures 34-49x on n=1e5 (replay decodes binary float64 columns),
    # the gate asks for 10x.
    import tempfile

    from repro.store import DurableStore
    from repro.bench import time_callable as _time

    rec_n = 100_000
    rec_values = sorted(uniform_points(rec_n, seed=41))
    with tempfile.TemporaryDirectory() as tmp:
        replay_dir = os.path.join(tmp, "replay")
        with DurableStore(replay_dir, snapshot_ops=10 * rec_n) as store:
            for i in range(0, rec_n, 256):
                store.log_batch([("insert", v) for v in rec_values[i : i + 256]])

        def recover_replay():
            with DurableStore(replay_dir, snapshot_ops=10 * rec_n) as store:
                report = store.recover({"default": DynamicIRS([], seed=1)})
                assert report.replayed_ops == rec_n

        snap_dir = os.path.join(tmp, "snap")
        with DurableStore(snap_dir) as store:
            store.snapshot({"default": DynamicIRS(rec_values, seed=1)})

        def recover_snapshot():
            with DurableStore(snap_dir) as store:
                report = store.recover({"default": DynamicIRS([], seed=1)})
                assert len(report.structures["default"].export_sorted()) == rec_n

        replay_s = _time(recover_replay, repeat=3)
        snapshot_s = _time(recover_snapshot, repeat=3)
    check(
        "snapshot recovery >= 10x faster than WAL-only replay at n=1e5",
        replay_s >= snapshot_s * 10,
        f"replay {replay_s:.3f}s vs snapshot {snapshot_s:.3f}s "
        f"({replay_s / snapshot_s:.1f}x)",
    )

    # -- observability: metrics must stay off the serving hot path -------------
    # Same protocol as F18's overhead test, at smoke scale: shared-CPU
    # runners drift more than the 5% being measured, so compare within
    # temporally adjacent off/on pairs and judge the best pair — real
    # instrumentation overhead depresses every pair, noise only some.
    from repro.bench import serve_throughput
    from repro.serve import ReproServer

    obs_rng = random.Random(43)
    obs_payloads = []
    for _ in range(16):
        requests = []
        for _ in range(50):
            lo = obs_rng.uniform(0.0, 0.5)
            requests.append(
                {"op": "sample", "lo": lo, "hi": lo + 0.4, "t": 16}
            )
        obs_payloads.append(requests)
    obs_data = sorted(uniform_points(N, seed=42))

    def serve_rps(observe: bool) -> float:
        def make_server():
            return ReproServer(
                StaticIRS(obs_data, seed=3), seed=7, window=0.001, observe=observe
            )

        rps, _ = serve_throughput(make_server, obs_payloads, repeat=2)
        return rps

    obs_ratio = 0.0
    for _ in range(3):
        off_rps = serve_rps(observe=False)
        on_rps = serve_rps(observe=True)
        if off_rps > 0:
            obs_ratio = max(obs_ratio, on_rps / off_rps)
    check(
        "metrics-on serving within 5% of metrics-off",
        obs_ratio >= 0.95,
        f"best on/off ratio {obs_ratio:.3f}",
    )

    # -- mixed stream through the batch engine ---------------------------------
    runner = BatchQueryRunner(DynamicIRS(data, seed=26))
    stream = UpdateStream(data, insert_fraction=0.5, seed=27).take(2_000)
    ops = as_mixed_ops(stream, [(0.1, 0.9)], t=64, query_every=50)
    result = runner.run_mixed(ops)
    check(
        "run_mixed coalesces updates",
        result.stats.extra["bulk_update_calls"] < result.stats.extra["updates"],
        f"{result.stats.extra['updates']} updates in "
        f"{result.stats.extra['bulk_update_calls']} bulk calls",
    )

    print()
    if failures:
        print(f"bench-smoke FAILED: {len(failures)} check(s): {failures}")
        return 1
    print("bench-smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
