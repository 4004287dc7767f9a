"""Tests for the sharded scatter-gather engine (``repro.shard``).

Covers the partition/routing invariants, exact equivalence of sharded vs
unsharded ``count``/``report``, chi-square uniformity of ``sample_bulk``
across shard boundaries, weighted proportionality, update routing with
cross-shard atomicity, the skew-triggered re-cut, the rank machinery
behind without-replacement sampling (and its refusal on weighted
shards), recovery of the recorded partition and of manifests that
record a backend, and the batch runner over the facade.
"""

from __future__ import annotations

import inspect
import json

import numpy as np
import pytest

from repro import (
    BatchOp,
    BatchQueryRunner,
    DynamicIRS,
    EmptyRangeError,
    InvalidQueryError,
    KeyNotFoundError,
    ShardedIRS,
    StaticIRS,
    WeightedDynamicIRS,
    WeightedStaticIRS,
    sample_without_replacement,
)
from repro.cli import main as cli_main
from repro.rng import derive_seed
from repro.shard import run_aligned_cuts
from repro.stats import chi_square_gof, uniformity_test
from repro.store import DurableStore
from repro.workloads import duplicate_heavy, hotspot_points, uniform_points

P_PASS = 1e-4


@pytest.fixture(scope="module")
def data():
    return uniform_points(4000, seed=11)


@pytest.fixture(scope="module")
def sharded(data):
    return ShardedIRS(data, num_shards=4, seed=12)


class TestPartition:
    def test_run_aligned_cuts_never_split_runs(self):
        values = np.asarray(sorted(duplicate_heavy(1000, distinct=7, seed=1)))
        cuts = run_aligned_cuts(values, 5)
        for cut in cuts:
            assert values[cut - 1] < values[cut]

    def test_cut_count_bounded(self):
        values = np.asarray(sorted(uniform_points(100, seed=2)))
        assert len(run_aligned_cuts(values, 4)) == 3
        assert run_aligned_cuts(values, 1) == []
        assert run_aligned_cuts(np.empty(0), 4) == []

    def test_construction_invariants(self, sharded):
        sharded.check_invariants()
        assert sharded.num_shards == 4
        assert len(sharded.bounds) == 3

    def test_values_roundtrip(self, data, sharded):
        assert sharded.values() == sorted(data)
        assert len(sharded) == len(data)

    def test_from_sorted(self, data):
        s = ShardedIRS.from_sorted(sorted(data), num_shards=4, seed=5)
        s.check_invariants()
        assert len(s) == len(data)
        with pytest.raises(ValueError):
            ShardedIRS.from_sorted([3.0, 1.0], num_shards=2)

    def test_duplicate_heavy_builds_fewer_shards(self):
        s = ShardedIRS(duplicate_heavy(2000, distinct=3, seed=3), num_shards=8)
        s.check_invariants()
        assert s.num_shards <= 3

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            ShardedIRS([1.0], num_shards=0)
        with pytest.raises(ValueError):
            ShardedIRS([1.0], shard_kind="nope")
        with pytest.raises(ValueError):
            ShardedIRS([1.0, 2.0], weights=[1.0])
        with pytest.raises(InvalidQueryError):
            ShardedIRS([1.0, 2.0], weights=[1.0, 2.0], shard_kind="dynamic")


class TestEquivalence:
    @pytest.mark.parametrize("kind", ["static", "dynamic", "external"])
    def test_count_report_match_flat(self, data, kind):
        s = ShardedIRS(data, num_shards=4, seed=21, shard_kind=kind, block_size=64)
        flat = StaticIRS(data, seed=22)
        ranges = [(0.0, 1.0), (0.3, 0.31), (2.0, 3.0), (-1.0, 0.0)]
        ranges += [(b, b) for b in s.bounds]  # exactly-on-a-cut endpoints
        ranges += [(s.bounds[0] - 1e-9, s.bounds[-1] + 1e-9)]
        for lo, hi in ranges:
            assert s.count(lo, hi) == flat.count(lo, hi), (lo, hi)
            assert s.report(lo, hi) == flat.report(lo, hi), (lo, hi)

    def test_peek_counts_matches_count(self, data, sharded):
        queries = [(0.1, 0.9), (0.5, 0.5), (-2.0, -1.0), (0.0, 1.0)]
        expect = [sharded.count(lo, hi) for lo, hi in queries]
        assert list(sharded.peek_counts(queries)) == expect

    def test_len_weighted_facade(self, data):
        w = [1.0 + (i % 3) for i in range(len(data))]
        s = ShardedIRS(data, num_shards=4, weights=w, seed=23, shard_kind="weighted")
        flat = WeightedStaticIRS(data, w, seed=24)
        assert s.count(0.2, 0.8) == flat.count(0.2, 0.8)
        assert s.range_weight(0.2, 0.8) == pytest.approx(
            flat.total_weight(0.2, 0.8)
        )


class TestSampling:
    def test_bulk_uniform_across_shard_boundaries(self, data, sharded):
        # The range spans all three cuts, so any per-shard bias (wrong
        # multinomial split, wrong boundary ranks) shows up as a boundary
        # discontinuity the chi-square catches.
        lo, hi = 0.1, 0.9
        samples = sharded.sample_bulk(lo, hi, 24_000)
        population = sharded.report(lo, hi)
        _stat, p = uniformity_test(samples.tolist(), population)
        assert p > P_PASS, f"sharded bulk sampling biased: p={p:.2e}"

    def test_bulk_shard_split_is_multinomial_exact(self, data, sharded):
        # Aggregated per-shard hit counts must match in-range populations.
        lo, hi = 0.05, 0.95
        samples = sharded.sample_bulk(lo, hi, 24_000)
        bounds = list(sharded.bounds)
        observed = np.histogram(samples, bins=[lo, *bounds, hi])[0]
        expected = [s.count(lo, hi) for s in sharded.shards]
        _stat, p = chi_square_gof(observed.tolist(), expected)
        assert p > P_PASS

    def test_scalar_sample_uniform(self, data):
        s = ShardedIRS(data, num_shards=4, seed=31)
        lo, hi = 0.2, 0.8
        samples = s.sample(lo, hi, 12_000)
        _stat, p = uniformity_test(samples, s.report(lo, hi))
        assert p > P_PASS

    def test_weighted_bulk_proportional(self):
        values = [float(i) for i in range(400)]
        weights = [1.0 + (i % 5) for i in range(400)]
        s = ShardedIRS(
            values, num_shards=4, weights=weights, seed=32, shard_kind="weighted"
        )
        samples = s.sample_bulk(49.5, 349.5, 30_000)
        in_range = [(v, w) for v, w in zip(values, weights) if 49.5 <= v <= 349.5]
        index = {v: i for i, (v, _w) in enumerate(in_range)}
        observed = [0] * len(in_range)
        for v in samples.tolist():
            observed[index[v]] += 1
        _stat, p = chi_square_gof(observed, [w for _v, w in in_range])
        assert p > P_PASS, f"weighted sharded sampling off-proportion: p={p:.2e}"

    def test_reproducible_under_seed(self, data):
        a = ShardedIRS(data, num_shards=4, seed=77).sample_bulk(0.1, 0.9, 500)
        b = ShardedIRS(data, num_shards=4, seed=77).sample_bulk(0.1, 0.9, 500)
        c = ShardedIRS(data, num_shards=4, seed=78).sample_bulk(0.1, 0.9, 500)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_scalar_matches_bulk_distribution_edges(self, sharded):
        assert sharded.sample(0.1, 0.9, 0) == []
        assert len(sharded.sample_bulk(0.1, 0.9, 0)) == 0
        with pytest.raises(EmptyRangeError):
            sharded.sample(2.0, 3.0, 1)
        with pytest.raises(EmptyRangeError):
            sharded.sample_bulk(2.0, 3.0, 1)
        with pytest.raises(InvalidQueryError):
            sharded.sample(0.9, 0.1, 1)
        with pytest.raises(InvalidQueryError):
            sharded.sample_bulk(0.1, 0.9, -1)

    def test_weighted_zero_mass_range_raises(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
        weights = [1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0]
        s = ShardedIRS(
            values, num_shards=2, weights=weights, seed=1, shard_kind="weighted"
        )
        with pytest.raises(EmptyRangeError):
            s.sample_bulk(2.5, 6.5, 4)

    def test_sample_bulk_many_alignment(self, sharded):
        queries = [(0.1, 0.4, 100), (0.5, 0.9, 50), (0.2, 0.3, 0)]
        results = sharded.sample_bulk_many(queries)
        assert [len(r) for r in results] == [100, 50, 0]
        for (lo, hi, _t), r in zip(queries, results):
            assert all(lo <= v <= hi for v in r.tolist())


class TestUpdates:
    def test_bulk_matches_scalar_replay(self, data):
        batch = uniform_points(600, seed=41)
        dels = sorted(data)[::9][:300]
        s_bulk = ShardedIRS(data, num_shards=4, seed=42)
        s_bulk.insert_bulk(batch)
        s_bulk.delete_bulk(dels)
        s_bulk.check_invariants()
        s_scalar = ShardedIRS(data, num_shards=4, seed=42)
        for v in batch:
            s_scalar.insert(v)
        for v in dels:
            s_scalar.delete(v)
        s_scalar.check_invariants()
        ref = DynamicIRS(data, seed=43)
        ref.insert_bulk(batch)
        ref.delete_bulk(dels)
        assert s_bulk.values() == s_scalar.values() == ref.values()

    def test_updates_route_across_bounds(self, data):
        s = ShardedIRS(data, num_shards=4, seed=44)
        for b in s.bounds:
            s.insert(b)  # exactly-on-a-cut values must route consistently
        for b in s.bounds:
            s.delete(b)
        s.check_invariants()
        assert len(s) == len(data)

    def test_delete_missing_raises(self):
        s = ShardedIRS([1.0, 2.0, 3.0, 4.0], num_shards=2, seed=1)
        with pytest.raises(KeyNotFoundError):
            s.delete(9.0)

    @pytest.mark.parametrize("kind", ["dynamic", "weighted-dynamic"])
    def test_delete_bulk_atomic_across_shards(self, data, kind):
        weighted = kind == "weighted-dynamic"
        # Distinct weights: the rollback must give each point back its own.
        weights = [1.0 + i / len(data) for i in range(len(data))] if weighted else None
        s = ShardedIRS(data, num_shards=4, weights=weights, seed=45, shard_kind=kind)

        def state():
            if weighted:
                planes = tuple(plane.tolist() for plane in s.export_sorted_pairs())
            else:
                planes = (s.values(), None)
            return planes, len(s), s.bounds

        before = state()
        present_low = before[0][0][0]  # lives in shard 0
        with pytest.raises(KeyNotFoundError):
            s.delete_bulk([present_low, 99.0])  # 99.0 routes to the last shard
        s.check_invariants()
        assert state() == before

    def test_static_shards_reject_updates(self, data):
        s = ShardedIRS(data, num_shards=4, seed=46, shard_kind="static")
        with pytest.raises(TypeError):
            s.insert(0.5)
        with pytest.raises(TypeError):
            s.delete_bulk([0.5])

    def test_weighted_facade_updates(self):
        values = uniform_points(500, seed=47)
        weights = [1.0] * 500
        s = ShardedIRS(
            values, num_shards=3, weights=weights, seed=48,
            shard_kind="weighted-dynamic",
        )
        s.insert(0.5, 3.0)
        assert len(s) == 501
        removed = s.delete(0.5)
        assert removed == 3.0 or removed is None
        s.insert_bulk([0.1, 0.6, 0.9], [2.0, 2.0, 2.0])
        s.delete_bulk([0.1, 0.6, 0.9])
        s.check_invariants()
        assert len(s) == 500

    def test_unweighted_facade_signature_has_no_weights(self, sharded):
        # BatchQueryRunner's upfront weighted-insert check inspects the
        # bulk signature; a plain facade must not advertise weights.
        assert "weights" not in inspect.signature(sharded.insert_bulk).parameters
        weighted = ShardedIRS(
            [1.0, 2.0], num_shards=1, weights=[1.0, 1.0],
            shard_kind="weighted-dynamic", seed=1,
        )
        assert "weights" in inspect.signature(weighted.insert_bulk).parameters


class TestRebalance:
    def test_skewed_inserts_trigger_rebalance(self):
        base = uniform_points(2000, seed=51)
        s = ShardedIRS(base, num_shards=4, seed=52)
        hot = hotspot_points(8000, hot_fraction=1.0, seed=53)
        s.insert_bulk(hot)
        s.check_invariants()
        assert s.stats.extra.get("rebalances", 0) >= 1
        mean = len(s) / s.num_shards
        assert max(len(sh) for sh in s.shards) <= 2.0 * mean + 1
        assert len(s) == 10_000

    def test_sampling_stays_uniform_after_rebalance(self):
        base = uniform_points(1500, seed=54)
        s = ShardedIRS(base, num_shards=4, seed=55)
        s.insert_bulk(hotspot_points(6000, hot_fraction=1.0, seed=56))
        assert s.stats.extra.get("rebalances", 0) >= 1
        lo, hi = 0.4, 0.5  # straddles the hot band
        samples = s.sample_bulk(lo, hi, 20_000)
        _stat, p = uniformity_test(samples.tolist(), s.report(lo, hi))
        assert p > P_PASS

    def test_weighted_rebalance_preserves_masses(self):
        base = uniform_points(1000, seed=57)
        s = ShardedIRS(
            base, num_shards=4, weights=[1.0] * 1000, seed=58,
            shard_kind="weighted-dynamic",
        )
        hot = hotspot_points(4000, hot_fraction=1.0, seed=59)
        s.insert_bulk(hot, [2.0] * 4000)
        s.check_invariants()
        assert s.stats.extra.get("rebalances", 0) >= 1
        assert s.range_weight(-1.0, 2.0) == pytest.approx(1000 + 8000)
        samples = s.sample_bulk(0.0, 1.0, 5000)
        frac_hot = sum(1 for v in samples.tolist() if 0.45 <= v <= 0.47) / 5000
        assert frac_hot == pytest.approx(8000 / 9000, abs=0.03)

    def test_rebalance_survives_emptied_shard(self):
        # Deleting everything a shard held must not break the next
        # rebalance (the re-cut runs over the whole export, so the
        # emptied shard's interval folds into a neighbor's).
        data = [5.0] * 500 + [6.0] * 10 + [7.0] * 500
        s = ShardedIRS(data, num_shards=4, seed=66)
        s.delete_bulk([6.0] * 10)
        s.insert_bulk([5.0] * 700)
        s.check_invariants()
        assert len(s) == 1700
        assert s.count(4.0, 8.0) == 1700
        assert s.count(5.5, 6.5) == 0

    def test_unsplittable_shard_does_not_thrash(self):
        # One giant run of equal values cannot be split (cuts never break
        # runs); the rebalance trigger must damp itself instead of firing
        # a full O(n) rebalance on every subsequent update.
        data = [5.0] * 5100 + uniform_points(1900, lo=6.0, hi=8.0, seed=67)
        s = ShardedIRS(data, num_shards=4, seed=68)
        for i in range(50):
            s.insert_bulk([6.5 + i * 1e-6] * 4)
        s.check_invariants()
        assert s.stats.extra.get("rebalances", 0) <= 3

    @pytest.mark.parametrize("kind", ["dynamic", "weighted-dynamic"])
    def test_rebalance_recuts_like_from_sorted(self, kind):
        # A rebalance re-cuts the whole point set with the constructor's
        # cut: bounds, shard sizes and seeded draws all equal a fresh
        # from_sorted facade over the same export.
        s = ShardedIRS(uniform_points(2000, seed=51), num_shards=4, seed=52,
                       shard_kind=kind)
        s.insert_bulk(hotspot_points(8000, hot_fraction=1.0, seed=53))
        assert s.stats.extra.get("rebalances", 0) == 1
        if kind == "dynamic":
            values, weights = s.export_sorted(), None
        else:
            values, weights = s.export_sorted_pairs()
        twin = ShardedIRS.from_sorted(
            values, num_shards=4, weights=weights, seed=99, shard_kind=kind
        )
        assert s.bounds == twin.bounds
        assert [len(sh) for sh in s.shards] == [len(sh) for sh in twin.shards]
        for seed in (5, 6):
            assert (
                s.sample_bulk(0.1, 0.9, 500, seed=seed).tobytes()
                == twin.sample_bulk(0.1, 0.9, 500, seed=seed).tobytes()
            )

    def test_hotspot_points_shape(self):
        pts = hotspot_points(1000, hot_lo=0.2, hot_hi=0.25, hot_fraction=0.8, seed=1)
        assert len(pts) == 1000
        frac = sum(1 for v in pts if 0.2 <= v <= 0.25) / 1000
        assert 0.7 < frac < 0.9
        assert pts == hotspot_points(
            1000, hot_lo=0.2, hot_hi=0.25, hot_fraction=0.8, seed=1
        )
        with pytest.raises(ValueError):
            hotspot_points(10, hot_fraction=1.5)


class TestRankMachinery:
    def test_select_in_range_matches_report(self, data, sharded):
        lo, hi = 0.2, 0.8
        pool = sharded.report(lo, hi)
        ranks = [0, len(pool) - 1, len(pool) // 2, 7, 7]
        got = sharded.select_in_range(lo, hi, ranks)
        assert got == [pool[r] for r in ranks]
        with pytest.raises(InvalidQueryError):
            sharded.select_in_range(lo, hi, [len(pool)])

    def test_without_replacement_with_duplicates(self):
        dup = duplicate_heavy(1200, distinct=20, seed=61)
        s = ShardedIRS(dup, num_shards=4, seed=62)
        lo, hi = 0.0, 1.0
        total = s.count(lo, hi)
        got = s.sample_without_replacement(lo, hi, total)
        assert sorted(got) == sorted(s.report(lo, hi))

    def test_module_dispatch_uses_rank_path(self):
        # Fifty of 600 points over ten distinct values: a draw that
        # rejected repeated values would never finish, while Floyd over
        # ranks, where the capability dispatch routes ShardedIRS (and
        # DynamicIRS), deduplicates ranks.
        dup = duplicate_heavy(600, distinct=10, seed=63)
        s = ShardedIRS(dup, num_shards=3, seed=64)
        got = sample_without_replacement(s, 0.0, 1.0, 50)
        assert len(got) == 50
        d = DynamicIRS(dup, seed=65)
        got_d = sample_without_replacement(d, 0.0, 1.0, 50)
        assert len(got_d) == 50

    def test_too_many_distinct_requested(self, sharded):
        with pytest.raises(InvalidQueryError):
            sharded.sample_without_replacement(0.45, 0.46, 10_000)

    @pytest.mark.parametrize("kind", ["weighted", "weighted-dynamic"])
    def test_weighted_facade_is_not_rank_addressable(self, data, kind):
        # The flat weighted kinds refuse rank addressing; a facade over
        # them refuses it too, instead of resolving ranks through report.
        s = ShardedIRS(data, num_shards=3, seed=1, shard_kind=kind)
        for call in (
            lambda: s.select_in_range(0.2, 0.8, [0, 1]),
            lambda: s.sample_without_replacement(0.2, 0.8, 3),
            lambda: s.sample_without_replacement_bulk(0.2, 0.8, 3, seed=4),
        ):
            with pytest.raises(InvalidQueryError, match="rank-addressable"):
                call()
        result = BatchQueryRunner(s).run_mixed(
            [BatchOp.sample_wr(0.2, 0.8, 3, seed=4)], capture_errors=True
        )
        assert isinstance(result.errors[0], InvalidQueryError)

    @pytest.mark.parametrize("kind", ["weighted", "weighted-dynamic"])
    def test_weighted_facade_refuses_an_empty_range_like_its_flat_kind(self, kind):
        # The refusal of rank addressing comes before the range is found
        # empty, as on the flat weighted structure.
        values = np.arange(60.0)
        op = BatchOp.sample_wr(100.0, 200.0, 3, seed=4)
        for structure in (
            ShardedIRS(values, num_shards=3, seed=1, shard_kind=kind),
            WeightedDynamicIRS(values, seed=1),
        ):
            result = BatchQueryRunner(structure).run_mixed([op], capture_errors=True)
            assert isinstance(result.errors[0], InvalidQueryError)
        flat = DynamicIRS(values, seed=1)
        result = BatchQueryRunner(flat).run_mixed([op], capture_errors=True)
        assert isinstance(result.errors[0], EmptyRangeError)


class TestMassProbes:
    def test_peek_weights_matches_range_weight(self):
        values = [float(i % 31) for i in range(600)]
        weights = [1.0 + (i % 5) for i in range(600)]
        queries = [(0.0, 10.0), (5.0, 5.0), (-2.0, 0.5), (25.0, 99.0)]
        for kind in ("weighted", "weighted-dynamic"):
            s = ShardedIRS(
                values, num_shards=4, weights=weights, seed=7, shard_kind=kind
            )
            masses = s.peek_weights(queries)
            for (lo, hi), m in zip(queries, masses):
                assert float(m) == pytest.approx(s.range_weight(lo, hi), rel=1e-12)

    def test_peek_weights_requires_weighted_shards(self):
        s = ShardedIRS([1.0, 2.0], num_shards=2, seed=8)
        with pytest.raises(InvalidQueryError):
            s.peek_weights([(0.0, 1.0)])


class TestSeeds:
    def test_derive_seed_is_stable_and_distinct(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
        assert derive_seed(1, 2, 3) != derive_seed(2, 2, 3)
        assert 0 <= derive_seed(2**64 - 1, -1, 5) < 2**64

    def test_snapshot_refresh_after_updates(self, data):
        s = ShardedIRS(data, num_shards=4, seed=74)
        before = s.sample_bulk(0.0, 1.0, 200)
        assert len(before) == 200
        s.insert_bulk([5.0] * 50)  # new region beyond the old max
        samples = s.sample_bulk(4.0, 6.0, 100)
        assert np.all(samples == 5.0)


class TestRecordedBackendRecovery:
    """Manifests from earlier versions record a ``backend``; it is ignored."""

    @pytest.mark.parametrize(
        "recorded", ["serial", "threads", "processes", "faulty-serial"]
    )
    def test_recovers_whatever_backend_is_recorded(self, data, tmp_path, recorded):
        original = ShardedIRS(data, num_shards=4, seed=83)
        with DurableStore(tmp_path / "d") as store:
            store.snapshot({"s": original})
            _seq, manifest = store.snapshots.latest()
        assert "backend" not in manifest["structures"]["s"]["params"]
        # The plane CRCs do not cover the manifest, so the field can be
        # added the way an earlier version wrote it.
        (path,) = (tmp_path / "d").rglob("manifest.json")
        doc = json.loads(path.read_text())
        doc["structures"]["s"]["params"]["backend"] = recorded
        path.write_text(json.dumps(doc))
        with DurableStore(tmp_path / "d") as store:
            _seq, manifest = store.snapshots.latest()
            assert manifest["structures"]["s"]["params"]["backend"] == recorded
            recovered = store.recover({}, seed=1).structures["s"]
        fresh = ShardedIRS(data, num_shards=4, seed=84)
        for seed in (5, 6):
            assert (
                recovered.sample_bulk(0.1, 0.9, 500, seed=seed).tobytes()
                == fresh.sample_bulk(0.1, 0.9, 500, seed=seed).tobytes()
            )

    def test_cli_refuses_backend_flag(self, tmp_path):
        points = tmp_path / "points.txt"
        points.write_text("0.1 0.4 0.6 0.9")
        with pytest.raises(SystemExit) as exc:
            cli_main(["sample", "--data", str(points), "--lo", "0", "--hi", "1",
                      "--shards", "2", "--backend", "serial"])
        assert exc.value.code == 2


class TestRecordedBounds:
    """A manifest records the partition, and recovery rebuilds it."""

    def _checkpoint(self, facade, path):
        with DurableStore(path) as store:
            store.snapshot({"s": facade})
        (manifest,) = path.rglob("manifest.json")
        return manifest

    def _recover(self, path):
        with DurableStore(path) as store:
            return store.recover({}, seed=1).structures["s"]

    def test_recovery_keeps_the_live_partition(self, data, tmp_path):
        live = ShardedIRS(data, num_shards=4, seed=85)
        live.insert_bulk([0.01 + i * 1e-5 for i in range(800)])
        live.delete_bulk([v for v in data if live.bounds[1] <= v < live.bounds[2]])
        assert live.stats.extra.get("rebalances", 0) == 0
        self._checkpoint(live, tmp_path / "d")
        recovered = self._recover(tmp_path / "d")
        recovered.check_invariants()
        assert recovered.bounds == live.bounds
        assert [len(sh) for sh in recovered.shards] == [len(sh) for sh in live.shards]
        assert len(recovered.shards[2]) == 0
        for seed in (5, 6):
            assert (
                recovered.sample_bulk(0.0, 1.0, 500, seed=seed).tobytes()
                == live.sample_bulk(0.0, 1.0, 500, seed=seed).tobytes()
            )

    def test_manifest_without_bounds_is_cut_afresh(self, data, tmp_path):
        live = ShardedIRS(data, num_shards=4, seed=86)
        live.insert_bulk([0.01 + i * 1e-5 for i in range(800)])
        path = self._checkpoint(live, tmp_path / "d")
        doc = json.loads(path.read_text())
        del doc["structures"]["s"]["params"]["bounds"]
        path.write_text(json.dumps(doc))
        recovered = self._recover(tmp_path / "d")
        fresh = ShardedIRS.from_sorted(live.export_sorted(), num_shards=4)
        assert recovered.bounds == fresh.bounds != live.bounds


class TestRunnerIntegration:
    def test_runner_uses_scatter_many(self, data):
        s = ShardedIRS(data, num_shards=4, seed=78)
        runner = BatchQueryRunner(s)
        result = runner.run([(0.1, 0.5, 64), (0.5, 0.9, 32), (0.0, 1.0, 16)])
        assert [len(r) for r in result.samples] == [64, 32, 16]
        assert result.stats.queries == 3
        assert s.stats.extra.get("scatter_tasks", 0) > 0

    def test_run_counts_uses_peek(self, data):
        s = ShardedIRS(data, num_shards=4, seed=79)
        runner = BatchQueryRunner(s)
        queries = [(0.1, 0.5), (0.6, 0.7), (2.0, 3.0)]
        assert runner.run_counts(queries) == [s.count(lo, hi) for lo, hi in queries]

    def test_mixed_stream_against_sharded(self, data):
        s = ShardedIRS(data, num_shards=4, seed=80)
        runner = BatchQueryRunner(s)
        ops = [
            BatchOp.insert(0.31),
            BatchOp.insert(0.91),
            BatchOp.sample(0.0, 1.0, 32),
            BatchOp.delete(0.31),
            BatchOp.delete(0.91),
        ]
        result = runner.run_mixed(ops)
        assert len(result.samples[2]) == 32
        assert result.stats.extra["updates"] == 4
        assert len(s) == len(data)

    def test_weighted_insert_rejected_on_plain_sharded(self, data):
        s = ShardedIRS(data, num_shards=2, seed=81)
        runner = BatchQueryRunner(s)
        with pytest.raises(InvalidQueryError):
            runner.run_mixed([BatchOp.insert(0.5, weight=2.0)])
