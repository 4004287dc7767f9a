"""Tests for the vectorized bulk-update engine and the new bulk-read paths.

Four pillars:

* equivalence — ``insert_bulk``/``delete_bulk`` leave the structure
  element-for-element identical to the scalar loop (including duplicates,
  rebuild thresholds, tiny batches below the vectorization cutoff, and the
  atomic failure contract);
* property — a Hypothesis round-trip drives random interleavings of bulk
  and scalar updates against a sorted-list model (the stateful machines in
  ``test_dynamic_irs_stateful``/``test_weighted_dynamic_stateful`` add
  bulk rules on top of this);
* sorted-build fast paths — ``from_sorted`` matches the sorting
  constructor on every sampler and rejects unsorted input;
* distribution — uniformity/proportionality of the new
  ``WeightedDynamicIRS.sample_bulk`` and ``ExternalIRS.sample_bulk``.
"""

from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    DynamicIRS,
    ExternalIRS,
    KeyNotFoundError,
    StaticIRS,
    WeightedDynamicIRS,
)
from repro.stats import chi_square_gof, uniformity_test
from repro.workloads import duplicate_heavy, uniform_points

P_PASS = 1e-4


def _deletable(population: list[float], wanted: list[float]) -> list[float]:
    """Filter a delete wish-list down to multiset availability."""
    available = Counter(population)
    out = []
    for value in wanted:
        if available[value] > 0:
            available[value] -= 1
            out.append(value)
    return out


class TestDynamicBulkEquivalence:
    def _pair(self, data, seed=7):
        return DynamicIRS(data, seed=seed), DynamicIRS(data, seed=seed)

    def test_insert_bulk_matches_scalar_loop(self, uniform_data):
        bulk, scalar = self._pair(uniform_data)
        batch = uniform_points(1200, seed=55)
        bulk.insert_bulk(batch)
        for value in batch:
            scalar.insert(value)
        assert bulk.values() == scalar.values()
        bulk.check_invariants()

    def test_delete_bulk_matches_scalar_loop(self, uniform_data):
        bulk, scalar = self._pair(uniform_data)
        batch = random.Random(56).sample(uniform_data, 1200)
        bulk.delete_bulk(batch)
        for value in batch:
            scalar.delete(value)
        assert bulk.values() == scalar.values()
        bulk.check_invariants()

    def test_duplicate_heavy_round_trip(self):
        data = duplicate_heavy(4000, distinct=32, seed=57)
        bulk, scalar = self._pair(data, seed=8)
        rng = random.Random(58)
        inserts = [float(rng.randrange(32)) for _ in range(900)]
        deletes = _deletable(data + inserts, [float(rng.randrange(32)) for _ in range(900)])
        bulk.insert_bulk(inserts)
        bulk.delete_bulk(deletes)
        for value in inserts:
            scalar.insert(value)
        for value in deletes:
            scalar.delete(value)
        assert bulk.values() == scalar.values()
        bulk.check_invariants()

    def test_bulk_into_empty_structure(self):
        d = DynamicIRS(seed=9)
        d.insert_bulk([3.0, 1.0, 2.0])
        assert d.values() == [1.0, 2.0, 3.0]
        d.check_invariants()

    def test_empty_batches_are_noops(self, uniform_data):
        d = DynamicIRS(uniform_data, seed=10)
        before = d.values()
        d.insert_bulk([])
        d.delete_bulk([])
        assert d.values() == before

    def test_growth_batch_triggers_rebuild(self):
        d = DynamicIRS([float(i) for i in range(100)], seed=11)
        s_before = d.chunk_size_bounds[0]
        d.insert_bulk([float(i) + 0.5 for i in range(5000)])
        assert len(d) == 5100
        assert d.chunk_size_bounds[0] >= s_before
        d.check_invariants()

    def test_shrink_batch_triggers_rebuild(self):
        values = [float(i) for i in range(4000)]
        d = DynamicIRS(values, seed=12)
        d.delete_bulk(values[:3500])
        assert d.values() == values[3500:]
        d.check_invariants()

    def test_tiny_batch_below_cutoff(self, uniform_data):
        bulk, scalar = self._pair(uniform_data, seed=13)
        bulk.insert_bulk([0.5, 0.25])
        bulk.delete_bulk([uniform_data[0], uniform_data[1]])
        scalar.insert(0.5)
        scalar.insert(0.25)
        scalar.delete(uniform_data[0])
        scalar.delete(uniform_data[1])
        assert bulk.values() == scalar.values()
        bulk.check_invariants()

    def test_delete_bulk_missing_is_atomic(self, uniform_data):
        d = DynamicIRS(uniform_data, seed=14)
        before = d.values()
        present = random.Random(59).sample(uniform_data, 40)
        with pytest.raises(KeyNotFoundError):
            d.delete_bulk(present + [1e9])
        assert d.values() == before
        d.check_invariants()
        with pytest.raises(KeyNotFoundError):
            DynamicIRS(seed=15).delete_bulk([1.0])

    def test_queries_see_bulk_updates(self, uniform_data):
        d = DynamicIRS(uniform_data, seed=16)
        d.sample_bulk(0.2, 0.8, 64)  # warm the chunk caches
        d.insert_bulk([0.5000001] * 200)
        samples = d.sample_bulk(0.4999, 0.5001, 4000)
        assert (samples == 0.5000001).sum() > 0
        d.delete_bulk([0.5000001] * 200)
        samples = d.sample_bulk(0.2, 0.8, 2000)
        assert not (samples == 0.5000001).any()
        d.check_invariants()

    def test_insert_many_uses_bulk_delete_many_mirrors(self, uniform_data):
        via_many = DynamicIRS(uniform_data, seed=17)
        via_bulk = DynamicIRS(uniform_data, seed=17)
        batch = uniform_points(300, seed=60)
        via_many.insert_many(batch)
        via_bulk.insert_bulk(batch)
        assert via_many.values() == via_bulk.values()
        via_many.delete_many(batch[:150])
        via_bulk.delete_bulk(batch[:150])
        assert via_many.values() == via_bulk.values()


@settings(max_examples=60, deadline=None)
@given(
    initial=st.lists(st.integers(0, 100).map(float), max_size=120),
    inserts=st.lists(st.lists(st.integers(0, 100).map(float), max_size=40), max_size=4),
    delete_seed=st.integers(0, 2**16),
)
def test_bulk_round_trip_property(initial, inserts, delete_seed):
    """Random bulk insert/delete interleavings match a sorted-list model."""
    d = DynamicIRS(initial, seed=21)
    model = sorted(initial)
    rng = random.Random(delete_seed)
    for batch in inserts:
        d.insert_bulk(batch)
        model.extend(batch)
        model.sort()
        if model and rng.random() < 0.7:
            k = rng.randrange(1, len(model) + 1)
            batch_del = _deletable(model, [rng.choice(model) for _ in range(k)])
            d.delete_bulk(batch_del)
            for value in batch_del:
                model.remove(value)
        assert len(d) == len(model)
    assert d.values() == model
    d.check_invariants()


class TestWeightedBulk:
    def test_insert_bulk_matches_scalar_multiset(self):
        rng = random.Random(31)
        vals = [rng.uniform(0, 50) for _ in range(2000)]
        ws = [rng.uniform(0.1, 4.0) for _ in range(2000)]
        bulk = WeightedDynamicIRS(vals, ws, seed=32)
        scalar = WeightedDynamicIRS(vals, ws, seed=32)
        bv = [rng.uniform(0, 50) for _ in range(700)]
        bw = [rng.uniform(0.1, 4.0) for _ in range(700)]
        bulk.insert_bulk(bv, bw)
        for v, w in zip(bv, bw):
            scalar.insert(v, w)
        assert sorted(bulk.items()) == sorted(scalar.items())
        bulk.check_invariants()

    def test_insert_bulk_default_weights(self):
        w = WeightedDynamicIRS([1.0, 2.0], seed=33)
        w.insert_bulk([3.0, 4.0])
        assert w.items() == [(1.0, 1.0), (2.0, 1.0), (3.0, 1.0), (4.0, 1.0)]

    def test_delete_bulk_returns_weights(self):
        vals = [float(i) for i in range(100)]
        ws = [float(i % 9 + 1) for i in range(100)]
        w = WeightedDynamicIRS(vals, ws, seed=34)
        wanted = [5.0, 50.0, 99.0]
        got = w.delete_bulk(wanted)
        assert got == [ws[5], ws[50], ws[99]]
        assert len(w) == 97
        w.check_invariants()

    def test_delete_bulk_missing_is_atomic(self):
        w = WeightedDynamicIRS([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], seed=35)
        before = w.items()
        with pytest.raises(KeyNotFoundError):
            w.delete_bulk([2.0, 9.0])
        assert w.items() == before
        w.check_invariants()

    def test_bulk_round_trip_heavy(self):
        rng = random.Random(36)
        vals = [float(rng.randrange(30)) for _ in range(1500)]
        ws = [rng.uniform(0.5, 2.0) for _ in range(1500)]
        bulk = WeightedDynamicIRS(vals, ws, seed=37)
        scalar = WeightedDynamicIRS(vals, ws, seed=37)
        dels = _deletable(vals, [float(rng.randrange(30)) for _ in range(600)])
        got = bulk.delete_bulk(dels)
        exp = [scalar.delete(v) for v in dels]
        assert sorted(bulk.items()) == sorted(scalar.items())
        assert sum(got) == pytest.approx(sum(exp))
        bulk.check_invariants()


class TestFromSorted:
    def test_static(self, uniform_data):
        data = sorted(uniform_data)
        a = StaticIRS.from_sorted(data, seed=41)
        b = StaticIRS(uniform_data, seed=41)
        assert list(a.values) == list(b.values)
        assert a.sample_bulk(0.2, 0.8, 50).tolist() == b.sample_bulk(0.2, 0.8, 50).tolist()

    def test_dynamic(self, uniform_data):
        data = sorted(uniform_data)
        a = DynamicIRS.from_sorted(data, seed=42)
        b = DynamicIRS(uniform_data, seed=42)
        assert a.values() == b.values()
        a.check_invariants()
        a.insert(0.5)
        a.delete(data[0])
        a.check_invariants()

    def test_dynamic_accepts_numpy_array(self):
        arr = np.sort(np.random.default_rng(1).random(500))
        d = DynamicIRS.from_sorted(arr, seed=43)
        assert len(d) == 500
        d.check_invariants()

    def test_weighted_dynamic(self):
        values = [float(i) for i in range(200)]
        weights = [float(i % 5 + 1) for i in range(200)]
        a = WeightedDynamicIRS.from_sorted(values, weights, seed=44)
        b = WeightedDynamicIRS(values, weights, seed=44)
        assert a.items() == b.items()
        a.check_invariants()

    def test_external(self):
        values = [float(i) for i in range(2000)]
        a = ExternalIRS.from_sorted(values, block_size=128, seed=45)
        assert a.count(0.0, 1999.0) == 2000
        assert a.report(10.0, 20.0) == [float(i) for i in range(10, 21)]

    @pytest.mark.parametrize(
        "factory",
        [
            lambda v: StaticIRS.from_sorted(v),
            lambda v: DynamicIRS.from_sorted(v),
            lambda v: WeightedDynamicIRS.from_sorted(v),
            lambda v: ExternalIRS.from_sorted(v, block_size=8),
        ],
        ids=["static", "dynamic", "weighted-dynamic", "external"],
    )
    def test_unsorted_input_rejected(self, factory):
        with pytest.raises(ValueError):
            factory([3.0, 1.0, 2.0])


class TestNewBulkReadPaths:
    def test_weighted_dynamic_bulk_proportional(self):
        values = [float(i) for i in range(64)]
        weights = [float(i % 8 + 1) for i in range(64)]
        w = WeightedDynamicIRS(values, weights, seed=51)
        samples = w.sample_bulk(10.0, 53.0, 40_000)
        assert ((samples >= 10.0) & (samples <= 53.0)).all()
        population = [v for v in values if 10.0 <= v <= 53.0]
        counts = Counter(samples.tolist())
        _stat, p = chi_square_gof(
            [counts.get(v, 0) for v in population],
            [weights[int(v)] for v in population],
        )
        assert p > P_PASS

    def test_weighted_dynamic_bulk_wide_middle_descent_path(self):
        # Many chunks, few samples per call: the grouped two-pass middle path.
        values = [float(i) for i in range(20_000)]
        w = WeightedDynamicIRS(values, seed=52)
        collected = np.concatenate(
            [w.sample_bulk(10.5, 19_000.5, 8) for _ in range(1500)]
        )
        population = [v for v in values if 10.5 <= v <= 19_000.5]
        _stat, p = uniformity_test(collected.tolist(), population)
        assert p > P_PASS

    def test_weighted_dynamic_bulk_after_updates(self):
        w = WeightedDynamicIRS([float(i) for i in range(300)], seed=53)
        w.sample_bulk(0.0, 299.0, 100)  # warm np caches
        w.insert_bulk([100.5] * 50, [2.0] * 50)
        samples = w.sample_bulk(100.0, 101.0, 3000)
        assert (samples == 100.5).sum() > 0
        w.delete_bulk([100.5] * 50)
        samples = w.sample_bulk(0.0, 299.0, 2000)
        assert not (samples == 100.5).any()

    def test_weighted_dynamic_bulk_t_zero_and_reproducible(self):
        values = [float(i) for i in range(100)]
        a = WeightedDynamicIRS(values, seed=54)
        b = WeightedDynamicIRS(values, seed=54)
        assert len(a.sample_bulk(0.0, 99.0, 0)) == 0
        assert (a.sample_bulk(5.0, 95.0, 400) == b.sample_bulk(5.0, 95.0, 400)).all()

    def test_external_bulk_uniform_wide(self):
        e = ExternalIRS([float(i) for i in range(32_768)], block_size=128, seed=55)
        samples = e.sample_bulk(100.0, 32_000.0, 20_000)
        population = [float(i) for i in range(100, 32_001)]
        assert ((samples >= 100.0) & (samples <= 32_000.0)).all()
        _stat, p = uniformity_test(samples.tolist(), population)
        assert p > P_PASS

    def test_external_bulk_uniform_narrow(self):
        # K < B: the whole range sits inside one or two blocks.
        e = ExternalIRS([float(i) for i in range(4096)], block_size=256, seed=56)
        samples = e.sample_bulk(50.0, 80.0, 20_000)
        _stat, p = uniformity_test(
            samples.tolist(), [float(i) for i in range(50, 81)]
        )
        assert p > P_PASS

    def test_external_bulk_block_io_is_batched(self):
        e = ExternalIRS([float(i) for i in range(65_536)], block_size=256, seed=57)
        before = e.device.stats.snapshot()
        e.sample_bulk(0.0, 65_535.0, 4096)
        delta = e.io_delta(before)
        # One read per touched block at most: never t reads.
        assert delta.reads <= 65_536 // 256 + e.tree.height + 2

    def test_external_bulk_reproducible(self):
        a = ExternalIRS([float(i) for i in range(5000)], block_size=128, seed=58)
        b = ExternalIRS([float(i) for i in range(5000)], block_size=128, seed=58)
        assert (a.sample_bulk(10.0, 4990.0, 300) == b.sample_bulk(10.0, 4990.0, 300)).all()
