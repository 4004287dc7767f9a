"""Capacity accounting and the admission gate."""

from __future__ import annotations

import pytest

from repro import (
    ExternalIRS,
    ShardedIRS,
    StaticIRS,
    WeightedStaticIRS,
)
from repro.obs import AdmissionGate, resident_bytes, structure_bytes
from repro.obs.capacity import POINT_BYTES

DATA = [float(i) for i in range(1000)]


# -- resident-byte accounting ------------------------------------------------


def test_structure_bytes_single_plane():
    s = StaticIRS(DATA, seed=1)
    assert structure_bytes(s) == len(DATA) * POINT_BYTES


def test_structure_bytes_weighted_two_planes():
    s = WeightedStaticIRS(DATA, [1.0] * len(DATA), seed=1)
    assert structure_bytes(s) == len(DATA) * 2 * POINT_BYTES


@pytest.mark.parametrize(
    "kind, dtype, snapshot_bytes",
    [
        # One float64 read snapshot per shard ...
        ("dynamic", "float32", len(DATA) * POINT_BYTES),
        # ... plus its n + 1 weight prefix on a weighted kind.
        ("weighted-dynamic", None, (2 * len(DATA) + 4) * POINT_BYTES),
    ],
    ids=["dynamic-f4", "weighted-dynamic"],
)
def test_resident_bytes_recurses_shards(kind, dtype, snapshot_bytes):
    s = ShardedIRS(DATA, num_shards=4, seed=1, shard_kind=kind, dtype=dtype)
    total = resident_bytes(s)
    assert total == sum(structure_bytes(shard) for shard in s.shards) + snapshot_bytes
    assert total >= len(DATA) * POINT_BYTES


def test_external_memory_priced_by_pooled_frames():
    s = ExternalIRS(DATA, block_size=64, pool_capacity=4, seed=1)
    priced = structure_bytes(s)
    # Resident cost is the pooled frames, not the whole on-device file.
    assert priced <= s.pool.capacity * s.device.block_size * POINT_BYTES
    assert priced < len(DATA) * POINT_BYTES


# -- admission gate ----------------------------------------------------------


def test_gate_requires_positive_overcommit():
    with pytest.raises(ValueError):
        AdmissionGate(16, overcommit=0.0)


def test_unconfigured_components_never_gate():
    gate = AdmissionGate(max_pending=8)
    admitted, component = gate.admit(depth=7, arrival_rate=1e9)
    assert admitted and component is None
    assert gate.components(4, 0.0) == {"queue": 0.5}


def test_memory_component_gates():
    s = StaticIRS(DATA, seed=1)
    budget = structure_bytes(s)  # resident == budget -> ratio 1.0 refuses
    gate = AdmissionGate(8, memory_budget=budget)
    gate.watch({"default": s})
    assert gate.resident == budget
    admitted, component = gate.admit(0, 0.0)
    assert not admitted and component == "memory"
    assert gate.refusals == 1
    # Doubling the budget halves the ratio and admits.
    roomy = AdmissionGate(8, memory_budget=2 * budget)
    roomy.watch({"default": s})
    assert roomy.admit(0, 0.0) == (True, None)
    assert roomy.pressure(0, 0.0) == pytest.approx(0.5)


def test_rate_component_gates():
    gate = AdmissionGate(8, rate_capacity=100.0)
    assert gate.admit(0, 99.0) == (True, None)
    admitted, component = gate.admit(0, 150.0)
    assert not admitted and component == "rate"


def test_overcommit_scales_both_budgets():
    s = StaticIRS(DATA, seed=1)
    budget = structure_bytes(s)
    gate = AdmissionGate(8, memory_budget=budget, rate_capacity=100.0, overcommit=2.0)
    gate.watch({"default": s})
    # Resident == raw budget, but 2x over-commit halves the ratio.
    assert gate.admit(0, 150.0) == (True, None)
    assert gate.components(0, 150.0)["memory"] == pytest.approx(0.5)
    assert gate.components(0, 150.0)["rate"] == pytest.approx(0.75)
    # Under-commit (ratio < 1) reserves headroom instead.
    tight = AdmissionGate(8, rate_capacity=100.0, overcommit=0.5)
    assert tight.admit(0, 60.0) == (False, "rate")


def test_pressure_is_max_of_components():
    s = StaticIRS(DATA, seed=1)
    gate = AdmissionGate(
        max_pending=10, memory_budget=10 * structure_bytes(s), rate_capacity=100.0
    )
    gate.watch({"default": s})
    # queue 0.8, memory 0.1, rate 0.5 -> the scarcest resource wins.
    assert gate.pressure(8, 50.0) == pytest.approx(0.8)


def test_resident_refresh_is_amortized():
    s = StaticIRS(DATA, seed=1)
    gate = AdmissionGate(8, memory_budget=10**12, refresh_every=4)
    gate.watch({"default": s})
    before = gate.resident
    # Swap in a bigger structure behind the gate's back: the cached
    # measurement persists until refresh_every admissions have passed.
    gate._structures["default"] = StaticIRS(DATA * 2, seed=1)
    for _ in range(3):
        gate.admit(0, 0.0)
    assert gate.resident == before
    for _ in range(4):
        gate.admit(0, 0.0)
    assert gate.resident == 2 * before

