"""Tests for the vectorized batch sampling engine (``repro.batch``).

Covers the three pillars the engine promises:

* statistical correctness — chi-square uniformity of ``sample_bulk`` on all
  three samplers (and weighted-proportional correctness on the weighted
  one);
* equivalence — :class:`BatchQueryRunner` returns exactly the counts the
  per-query ``sample`` path would, aligned with input order;
* cache discipline — the dynamic structure's bulk path sees every insert
  and delete (no stale NumPy views).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    BatchOp,
    BatchQuery,
    BatchQueryRunner,
    DynamicIRS,
    ShardedIRS,
    StaticIRS,
    WeightedDynamicIRS,
    WeightedStaticIRS,
    WindowedIRS,
)
from repro.errors import InvalidQueryError, KeyNotFoundError
from repro.stats import chi_square_gof, uniformity_test

# Same calibration as conftest.P_PASS: honest samplers clear this by orders
# of magnitude.
P_PASS = 1e-4

SAMPLERS = ["static", "dynamic", "weighted"]


def build(kind: str, data: list[float], seed: int):
    if kind == "static":
        return StaticIRS(data, seed=seed)
    if kind == "dynamic":
        return DynamicIRS(data, seed=seed)
    return WeightedStaticIRS(data, [1.0] * len(data), seed=seed)


TWIN_DATA = [float(i % 89) + 0.5 * (i % 2) for i in range(400)]
TWIN_FACTORIES = {
    "static": lambda: StaticIRS(TWIN_DATA, seed=61),
    "dynamic": lambda: DynamicIRS(TWIN_DATA, seed=62),
    "weighted-dynamic": lambda: WeightedDynamicIRS(
        TWIN_DATA, [1.0 + i % 3 for i in range(len(TWIN_DATA))], seed=63
    ),
    "windowed": lambda: WindowedIRS(TWIN_DATA, window=300, seed=64),
    "sharded": lambda: ShardedIRS(TWIN_DATA, num_shards=3, seed=65),
}
# Reads, and (as lists) runs of same-kind updates, in stream order.
TWIN_STEPS = [
    BatchOp.sample(10.0, 60.0, 16),
    BatchOp.count(10.0, 60.0),
    BatchOp.sample(0.0, 88.0, 5),
    [BatchOp.insert(30.25), BatchOp.insert(31.25)],
    BatchOp.sample(20.0, 40.0, 12),
    BatchOp.sample(25.0, 35.0, 3),
    BatchOp.count(0.0, 100.0),
    [BatchOp.delete(30.25)],
    BatchOp.sample(25.0, 35.0, 7),
    BatchOp.count(30.0, 31.0),
    BatchOp.sample(0.0, 100.0, 9),
]


class TestBulkUniformity:
    @pytest.mark.parametrize("kind", SAMPLERS)
    def test_bulk_is_uniform(self, uniform_data, kind):
        sampler = build(kind, uniform_data, seed=71)
        lo, hi = 0.30, 0.45
        population = sampler.report(lo, hi)
        samples = sampler.sample_bulk(lo, hi, 20 * len(population))
        assert ((samples >= lo) & (samples <= hi)).all()
        _stat, p = uniformity_test(samples.tolist(), population)
        assert p > P_PASS

    def test_dynamic_bulk_uniform_on_wide_range(self, uniform_data):
        # Small t over a wide range forces the middle-window rejection path.
        sampler = DynamicIRS(uniform_data, seed=72)
        lo, hi = 0.05, 0.95
        collected = np.concatenate(
            [sampler.sample_bulk(lo, hi, 8) for _ in range(2500)]
        )
        _stat, p = uniformity_test(collected.tolist(), sampler.report(lo, hi))
        assert p > P_PASS

    def test_weighted_bulk_is_proportional(self):
        values = [float(i) for i in range(64)]
        weights = [float(i % 8 + 1) for i in range(64)]
        sampler = WeightedStaticIRS(values, weights, seed=73)
        ranks = sampler.sample_ranks_bulk(10.0, 53.0, 40_000)
        a, b = sampler.rank_range(10.0, 53.0)
        assert ((ranks >= a) & (ranks < b)).all()
        counts = np.bincount(ranks - a, minlength=b - a)
        _stat, p = chi_square_gof(counts.tolist(), weights[a:b])
        assert p > P_PASS

    @pytest.mark.parametrize("kind", SAMPLERS)
    def test_bulk_reproducible_with_seed(self, uniform_data, kind):
        a = build(kind, uniform_data, seed=74)
        b = build(kind, uniform_data, seed=74)
        assert (a.sample_bulk(0.2, 0.8, 500) == b.sample_bulk(0.2, 0.8, 500)).all()


class TestRunnerEquivalence:
    def test_counts_match_per_query_sample(self, uniform_data):
        structures = {kind: build(kind, uniform_data, seed=75) for kind in SAMPLERS}
        scalar = {kind: build(kind, uniform_data, seed=76) for kind in SAMPLERS}
        queries = [
            BatchQuery(0.1, 0.6, 37, "static"),
            BatchQuery(0.3, 0.9, 11, "dynamic"),
            BatchQuery(0.2, 0.4, 5, "weighted"),
            BatchQuery(0.5, 0.7, 0, "static"),
            BatchQuery(0.0, 1.0, 23, "dynamic"),
        ]
        result = BatchQueryRunner(structures).run(queries)
        assert len(result.samples) == len(queries)
        for q, samples in zip(queries, result.samples):
            assert len(samples) == len(scalar[q.structure].sample(q.lo, q.hi, q.t))
            assert all(q.lo <= v <= q.hi for v in samples)
        assert result.stats.queries == len(queries)
        assert result.stats.samples_returned == sum(q.t for q in queries)
        assert result.stats.extra == {
            "queries:static": 2,
            "queries:dynamic": 2,
            "queries:weighted": 1,
        }

    def test_tuple_queries_and_default_structure(self, uniform_data):
        runner = BatchQueryRunner(StaticIRS(uniform_data, seed=77))
        result = runner.run([(0.1, 0.9, 10), (0.2, 0.8, 20, "default")])
        assert [len(s) for s in result.samples] == [10, 20]

    def test_scalar_fallback_without_sample_bulk(self, uniform_data):
        from repro.baselines import ReportThenSample

        runner = BatchQueryRunner(ReportThenSample(uniform_data, seed=78))
        result = runner.run([(0.2, 0.6, 15)])
        assert len(result.samples[0]) == 15

    def test_unknown_structure_rejected(self, uniform_data):
        runner = BatchQueryRunner(StaticIRS(uniform_data, seed=79))
        with pytest.raises(KeyNotFoundError):
            runner.run([BatchQuery(0.1, 0.2, 1, "nope")])

    def test_unknown_structure_fails_before_any_execution(self, uniform_data):
        sampler = DynamicIRS(uniform_data, seed=79)
        runner = BatchQueryRunner({"dynamic": sampler})
        with pytest.raises(KeyNotFoundError):
            runner.run([BatchQuery(0.1, 0.9, 10, "dynamic"),
                        BatchQuery(0.1, 0.2, 1, "typo")])
        assert sampler.stats.queries == 0  # atomic: nothing ran

    def test_malformed_query_rejected(self, uniform_data):
        runner = BatchQueryRunner(StaticIRS(uniform_data, seed=80))
        with pytest.raises(InvalidQueryError):
            runner.run([(0.1, 0.2)])
        with pytest.raises(InvalidQueryError):
            runner.run([("0.1", "nope", 5)])

    def test_weighted_bulk_t_zero(self, uniform_data):
        sampler = WeightedStaticIRS(uniform_data, [1.0] * len(uniform_data), seed=80)
        assert len(sampler.sample_bulk(0.1, 0.9, 0)) == 0

    def test_empty_runner_rejected(self):
        with pytest.raises(ValueError):
            BatchQueryRunner({})

    def test_run_means(self, uniform_data):
        runner = BatchQueryRunner(StaticIRS(uniform_data, seed=81))
        means = runner.run_means([(0.4, 0.6, 2000), (0.1, 0.2, 0)])
        assert means[0] == pytest.approx(0.5, abs=0.05)
        assert np.isnan(means[1])


class TestRunMixed:
    def test_stream_matches_scalar_replay(self):
        data = [float(i) for i in range(500)]
        runner = BatchQueryRunner(DynamicIRS(data, seed=91))
        reference = DynamicIRS(data, seed=91)
        ops = (
            [("insert", 1000.0 + i) for i in range(40)]
            + [("sample", 0.0, 2000.0, 32)]
            + [("delete", float(i)) for i in range(25)]
            + [("insert", -5.0), ("delete", 1000.0), ("sample", -10.0, 2000.0, 16)]
        )
        result = runner.run_mixed(ops)
        for op in ops:
            if op[0] == "insert":
                reference.insert(op[1])
            elif op[0] == "delete":
                reference.delete(op[1])
        structure = runner.structures["default"]
        assert structure.values() == reference.values()
        structure.check_invariants()
        # samples align with op positions; updates yield None
        assert [s is not None for s in result.samples].count(True) == 2
        assert len(result.samples[40]) == 32
        assert len(result.samples[-1]) == 16
        assert result.stats.queries == 2
        assert result.stats.extra["updates"] == 67
        # three coalesced runs of same-kind updates
        assert result.stats.extra["bulk_update_calls"] == 4
        assert result.operations == 69

    def test_kind_switch_preserves_order(self):
        # insert v, delete v, insert v must net to one occurrence — a
        # naive "all inserts then all deletes" coalescing would differ
        # for the error case below.
        runner = BatchQueryRunner(DynamicIRS([1.0], seed=92))
        runner.run_mixed([("insert", 2.0), ("delete", 2.0), ("insert", 2.0)])
        assert runner.structures["default"].values() == [1.0, 2.0]
        # deleting a value that is only inserted later in the stream fails
        runner2 = BatchQueryRunner(DynamicIRS([1.0], seed=93))
        with pytest.raises(KeyNotFoundError):
            runner2.run_mixed([("delete", 5.0), ("insert", 5.0)])

    def test_batchop_constructors_and_weighted(self):
        w = WeightedDynamicIRS([1.0, 2.0], [1.0, 1.0], seed=94)
        runner = BatchQueryRunner({"w": w})
        result = runner.run_mixed(
            [
                BatchOp.insert(3.0, weight=2.5, structure="w"),
                BatchOp.insert(4.0, structure="w"),
                BatchOp.sample(0.0, 10.0, 8, structure="w"),
                BatchOp.delete(1.0, structure="w"),
            ]
        )
        assert sorted(w.items()) == [(2.0, 1.0), (3.0, 2.5), (4.0, 1.0)]
        assert len(result.samples[2]) == 8
        assert result.stats.extra["queries:w"] == 1

    def test_scalar_fallback_structures(self, uniform_data):
        from repro.baselines import TreeWalkSampler

        sampler = TreeWalkSampler(uniform_data, seed=95)
        runner = BatchQueryRunner(sampler)
        result = runner.run_mixed(
            [("insert", 2.5), ("insert", 3.5), ("sample", 0.0, 4.0, 5)]
        )
        assert len(result.samples[2]) == 5
        assert result.stats.extra["bulk_update_calls"] == 0

    def test_update_on_readonly_structure_rejected(self, uniform_data):
        runner = BatchQueryRunner(StaticIRS(uniform_data, seed=96))
        with pytest.raises(InvalidQueryError):
            runner.run_mixed([("insert", 1.0)])

    def test_weighted_insert_on_unweighted_structure_rejected(self, uniform_data):
        sampler = DynamicIRS(uniform_data, seed=96)
        runner = BatchQueryRunner(sampler)
        before = len(sampler)
        with pytest.raises(InvalidQueryError):
            # Validation fires upfront: the preceding plain insert must not
            # have been applied when the weighted op is rejected.
            runner.run_mixed([("insert", 1.0), BatchOp.insert(2.0, weight=3.0)])
        assert len(sampler) == before

    def test_unknown_structure_and_malformed_op(self, uniform_data):
        runner = BatchQueryRunner(StaticIRS(uniform_data, seed=97))
        with pytest.raises(KeyNotFoundError):
            runner.run_mixed([("insert", 1.0, "nope")])
        with pytest.raises(InvalidQueryError):
            runner.run_mixed([("frobnicate", 1.0)])
        with pytest.raises(InvalidQueryError):
            runner.run_mixed([("sample", 1.0)])

    def test_operations_count_count_ops(self):
        runner = BatchQueryRunner(DynamicIRS([float(i) for i in range(100)], seed=98))
        counts = runner.run_mixed([BatchOp.count(0.0, 50.0)] * 5)
        assert counts.samples == [51] * 5
        assert counts.operations == 5
        assert counts.ops_per_second > 0.0
        mixed = runner.run_mixed(
            [BatchOp.insert(7.5), BatchOp.count(0.0, 9.0), BatchOp.sample(0.0, 9.0, 3)]
        )
        assert mixed.operations == 3

    @pytest.mark.parametrize("kind", sorted(TWIN_FACTORIES))
    def test_uncoalesced_reads_match_direct_calls(self, kind):
        # Unseeded reads draw from the structure's side stream, so the
        # uncoalesced stream must make exactly the direct calls, in order:
        # one sample_bulk or count per read (a multi-query
        # sample_bulk_many draws differently on the sharded facade) and one
        # bulk call per run of same-kind updates.
        twin = TWIN_FACTORIES[kind]()
        ops, want = [], []
        for step in TWIN_STEPS:
            if isinstance(step, list):  # one run of same-kind updates
                if not hasattr(twin, step[0].kind):
                    continue  # static has no updates, windowed no deletes
                getattr(twin, step[0].kind + "_bulk")([op.value for op in step])
                ops += step
                want += [None] * len(step)
            elif step.kind == "sample":
                ops.append(step)
                want.append(twin.sample_bulk(step.lo, step.hi, step.t).tobytes())
            else:
                ops.append(step)
                want.append(twin.count(step.lo, step.hi))
        mixed = BatchQueryRunner(TWIN_FACTORIES[kind]()).run_mixed(ops)
        got = [s.tobytes() if isinstance(s, np.ndarray) else s for s in mixed.samples]
        assert got == want


class TestDynamicInvalidation:
    def test_bulk_sees_inserts(self):
        sampler = DynamicIRS([float(i) for i in range(200)], seed=82)
        before = sampler.sample_bulk(50.0, 60.0, 500)
        assert not (before == 55.5).any()
        for _ in range(40):
            sampler.insert(55.5)
        after = sampler.sample_bulk(50.0, 60.0, 2000)
        # 40 of ~51 in-range points are the new value; it must show up.
        assert (after == 55.5).sum() > 0

    def test_bulk_sees_deletes(self):
        sampler = DynamicIRS([float(i) for i in range(200)], seed=83)
        sampler.sample_bulk(0.0, 199.0, 100)  # warm the chunk caches
        for v in range(100, 200):
            sampler.delete(float(v))
        remaining = sampler.sample_bulk(0.0, 199.0, 2000)
        assert (remaining < 100.0).all()
        sampler.check_invariants()

    def test_bulk_sees_rebuild(self):
        sampler = DynamicIRS([float(i) for i in range(64)], seed=84)
        sampler.sample_bulk(0.0, 63.0, 50)
        for i in range(64, 512):  # trigger n > 2·n0 rebuilds
            sampler.insert(float(i))
        samples = sampler.sample_bulk(0.0, 511.0, 4000)
        assert (samples >= 256.0).any()
        sampler.check_invariants()


class TestPeekCountsAndRunCounts:
    """The vectorized count-only path (`peek_counts` + `run_counts`)."""

    RANGES = [(10.0, 90.0), (49.5, 49.5), (49.0, 49.0), (-5.0, -1.0),
              (0.0, 199.0), (198.5, 300.0)]

    def test_static_peek_counts_matches_count(self):
        data = [float(i % 100) for i in range(200)]  # duplicates included
        sampler = StaticIRS(data, seed=91)
        got = sampler.peek_counts(self.RANGES)
        assert list(got) == [sampler.count(lo, hi) for lo, hi in self.RANGES]

    def test_dynamic_peek_counts_matches_count(self):
        data = [float(i % 100) for i in range(200)]
        sampler = DynamicIRS(data, seed=92)
        got = sampler.peek_counts(self.RANGES)
        assert list(got) == [sampler.count(lo, hi) for lo, hi in self.RANGES]

    def test_dynamic_peek_counts_after_updates(self):
        sampler = DynamicIRS([float(i) for i in range(300)], seed=93)
        sampler.count(0.0, 299.0)  # build the prefix cache
        for v in (300.5, 301.5, 302.5):
            sampler.insert(v)  # pending deltas ride on the cached prefix
        sampler.delete(10.0)
        got = sampler.peek_counts([(0.0, 400.0), (299.5, 400.0), (5.0, 15.0)])
        assert list(got) == [302, 3, 10]

    def test_peek_counts_rejects_bad_bounds(self):
        sampler = StaticIRS([1.0, 2.0], seed=94)
        with pytest.raises(InvalidQueryError):
            sampler.peek_counts([(2.0, 1.0)])
        dynamic = DynamicIRS([1.0, 2.0], seed=95)
        with pytest.raises(InvalidQueryError):
            dynamic.peek_counts([(float("nan"), 1.0)])

    def test_run_counts_grouped_and_aligned(self, uniform_data):
        runner = BatchQueryRunner(
            {
                "static": StaticIRS(uniform_data, seed=96),
                "dynamic": DynamicIRS(uniform_data, seed=97),
                "weighted": WeightedStaticIRS(
                    uniform_data, [1.0] * len(uniform_data), seed=98
                ),  # no peek_counts: exercises the fallback
            }
        )
        queries = [
            (0.1, 0.9, "static"),
            (0.1, 0.9, "dynamic"),
            (0.1, 0.9, "weighted"),
            BatchQuery(0.2, 0.4, 0, "static"),
            (0.3, 0.5, "dynamic"),
        ]
        counts = runner.run_counts(queries)
        assert counts[0] == counts[1] == counts[2]
        assert counts[3] == runner.structures["static"].count(0.2, 0.4)
        assert counts[4] == runner.structures["dynamic"].count(0.3, 0.5)

    def test_run_counts_errors(self, uniform_data):
        runner = BatchQueryRunner(StaticIRS(uniform_data, seed=99))
        with pytest.raises(KeyNotFoundError):
            runner.run_counts([(0.1, 0.9, "nope")])
        with pytest.raises(InvalidQueryError):
            runner.run_counts(["garbage"])
