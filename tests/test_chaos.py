"""Chaos equivalence: a faulted run must converge to the fault-free run.

The suite drives one deterministic client workload twice — once against a
clean serving stack, once against a stack with a seeded
:class:`~repro.faults.FaultPlan` injecting faults at every seam (shard
executors, the WAL's fsync path, the TCP transport) — and asserts the
retrying client ends with *identical* replies and the server with
*identical* state.  That is the whole resilience contract in one
sentence: faults may cost retries and latency, never correctness, and no
acked update is ever applied twice.
"""

from __future__ import annotations

import asyncio

import pytest

from repro import ShardedIRS
from repro.faults import FaultPlan, FaultyBackend, FaultyFile, FaultyProxy
from repro.rng import derive_seed
from repro.serve import ReproServer, ResilientClient, RetryPolicy
from repro.shard.executors import SerialBackend

DATA = [float(i) for i in range(200)]

POLICY = RetryPolicy(max_attempts=10, base_delay=0.005, max_delay=0.03)


def run(coro):
    return asyncio.run(coro)


def build_structure(plan=None):
    backend = SerialBackend() if plan is None else FaultyBackend(SerialBackend(), plan)
    return ShardedIRS(DATA, num_shards=3, seed=11, backend=backend)


def workload():
    """The deterministic request stream: seeded reads + unique updates."""
    payloads = []
    for k in range(25):
        payloads.append(
            {"op": "sample", "lo": 10.0, "hi": 180.0, "t": 6,
             "seed": 1000 + k, "id": f"s{k}"}
        )
        payloads.append({"op": "insert", "value": 1000.0 + k, "id": f"i{k}"})
        payloads.append({"op": "count", "lo": 0.0, "hi": 2000.0, "id": f"c{k}"})
        if k % 5 == 0:
            payloads.append({"op": "delete", "value": float(k), "id": f"d{k}"})
    return payloads


async def run_stack(tmp_path, tag, plan):
    """Run the workload against one stack; return (replies, final_state)."""
    structure = build_structure(plan)
    server = ReproServer(
        structure, seed=5, data_dir=str(tmp_path / tag), fsync="always"
    )
    if plan is not None:
        # Every WAL segment handle goes through the fault wrapper: fsync
        # faults make appends fail (and roll back), exercising the
        # retryable `unavailable` refusal under real durable traffic.
        server.store.wal.file_wrapper = lambda fh: FaultyFile(fh, plan)
    await server.start_tcp("127.0.0.1", 0)
    proxy = None
    try:
        port = server.port
        if plan is not None:
            proxy = FaultyProxy(plan, server.port)
            await proxy.start()
            port = proxy.port
        client = ResilientClient("127.0.0.1", port, policy=POLICY, seed=99)
        try:
            replies = [await client.request(dict(p)) for p in workload()]
        finally:
            await client.aclose()
        state = structure.export_sorted().tolist()
        return replies, state
    finally:
        if proxy is not None:
            await proxy.aclose()
        await server.aclose()


def chaos_plan(seed):
    return FaultPlan(
        seed,
        rates={
            "proxy.drop": 0.04,
            "proxy.truncate": 0.03,
            "proxy.delay": 0.08,
            "wal.fsync": 0.05,
        },
        # Force at least one fault at each non-transport seam so the
        # equivalence assertion can never pass vacuously.
        at={"shard.stall": {1}, "wal.fsync": {2}},
    )


def assert_equivalent(tmp_path, plan_seed):
    plan = chaos_plan(plan_seed)
    faulted, faulted_state = run(run_stack(tmp_path, f"faulted-{plan_seed}", plan))
    clean, clean_state = run(run_stack(tmp_path, f"clean-{plan_seed}", None))
    detail = (
        f"chaos seed {plan_seed}: fired={plan.fired} history={plan.history}"
    )
    assert faulted == clean, detail
    assert faulted_state == clean_state, detail
    return plan


def test_chaos_equivalence_under_all_seams(tmp_path):
    plan = assert_equivalent(tmp_path, 2026)
    # The run must actually have injected something at each seam class,
    # or the equivalence assertion is vacuous.
    assert plan.fired.get("shard.stall", 0) >= 1
    assert plan.fired.get("wal.fsync", 0) >= 1
    assert any(site.startswith("proxy.") for site in plan.fired)


def test_chaos_acked_updates_applied_exactly_once(tmp_path):
    plan = chaos_plan(7)
    replies, state = run(run_stack(tmp_path, "once", plan))
    by_id = {p["id"]: r for p, r in zip(workload(), replies)}
    for k in range(25):
        assert by_id[f"i{k}"]["ok"] is True, by_id[f"i{k}"]
        # Acked insert of a unique value: present exactly once, however
        # many times the wire lost the ack and the client retried.
        assert state.count(1000.0 + k) == 1
    for k in range(0, 25, 5):
        assert by_id[f"d{k}"]["ok"] is True
        assert state.count(float(k)) == 0


def test_chaos_dedup_survives_crash_recovery(tmp_path):
    """Retry an acked update across a crash-restart: replay, not re-apply."""
    data_dir = str(tmp_path / "srv")
    rid_payload = {"op": "insert", "value": 4242.5, "rid": "chaos-rid", "id": 1}

    async def before():
        server = ReproServer(
            build_structure(), seed=5, data_dir=data_dir, fsync="always"
        )
        await server.start_tcp("127.0.0.1", 0)
        async with ResilientClient("127.0.0.1", server.port, seed=1) as client:
            assert (await client.request(dict(rid_payload)))["ok"]
        # Crash: no shutdown snapshot — recovery must replay the WAL and
        # rebuild the dedup window from the journaled rid spans.
        server._store_closed = True
        server.store.close()
        await server.aclose()

    async def after():
        server = ReproServer(
            build_structure(), seed=5, data_dir=data_dir, fsync="always"
        )
        assert server.recovery.dedup.get("chaos-rid") == (True, 1)
        await server.start_tcp("127.0.0.1", 0)
        async with ResilientClient("127.0.0.1", server.port, seed=2) as client:
            dup = await client.request(dict(rid_payload))
            count = await client.count(4242.0, 4243.0)
        await server.aclose()
        return dup, count, server.stats.dedup_hits

    run(before())
    dup, count, hits = run(after())
    assert dup == {"id": 1, "ok": True, "result": 1}
    assert count == 1 and hits == 1


@pytest.mark.slow
def test_chaos_randomized_rounds(tmp_path):
    """Seeded random chaos rounds; a failure prints its reproduction seed."""
    root = 0xC4A05
    for round_index in range(5):
        plan_seed = derive_seed(root, round_index) & 0xFFFFFFFF
        assert_equivalent(tmp_path, plan_seed)
