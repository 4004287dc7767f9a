"""The deterministic fault-injection layer: plan, wrappers, degradation."""

from __future__ import annotations

import asyncio
import time

import pytest

from repro import DynamicIRS, ShardedIRS
from repro.em.device import BlockDevice
from repro.errors import InjectedFaultError, ShardTimeoutError, StorageError
from repro.faults import FaultPlan, FaultyBackend, FaultyDevice, FaultyFile
from repro.serve import ReproServer, ServeClient
from repro.shard.executors import SerialBackend, ThreadBackend
from repro.store import WriteAheadLog

DATA = [float(i) for i in range(120)]


def run(coro):
    return asyncio.run(coro)


# -- the fault plan -----------------------------------------------------------


def test_plan_is_deterministic_per_seed():
    def decisions(seed):
        plan = FaultPlan(seed, rates={"a.x": 0.5, "b.y": 0.3})
        return [(plan.should("a.x"), plan.should("b.y")) for _ in range(64)]

    assert decisions(7) == decisions(7)
    assert decisions(7) != decisions(8)


def test_plan_sites_are_independent():
    # Interleaving extra visits to one site must not shift another site's
    # schedule: each site keys its draws by its own visit counter.
    lone = FaultPlan(3, rates={"a.x": 0.5})
    mixed = FaultPlan(3, rates={"a.x": 0.5, "b.y": 0.5})
    lone_hits = [lone.should("a.x") for _ in range(32)]
    mixed_hits = []
    for _ in range(32):
        mixed.should("b.y")
        mixed_hits.append(mixed.should("a.x"))
        mixed.should("b.y")
    assert lone_hits == mixed_hits


def test_plan_at_limits_history_and_replay():
    plan = FaultPlan(1, rates={"r.s": 1.0}, at={"x.y": {0, 2}}, limits={"r.s": 2})
    assert [plan.should("x.y") for i in range(4)] == [True, False, True, False]
    # rate 1.0 would fire every visit; the limit caps it at two.
    assert [plan.should("r.s") for i in range(5)] == [True, True, False, False, False]
    assert plan.fired == {"x.y": 2, "r.s": 2}
    assert plan.history == [("x.y", 0), ("x.y", 2), ("r.s", 0), ("r.s", 1)]
    fresh = plan.replay()
    assert fresh.fired == {} and fresh.history == []
    assert [fresh.should("x.y") for i in range(4)] == [True, False, True, False]


def test_plan_split_point_is_strict_nonempty_prefix():
    plan = FaultPlan(5)
    assert plan.split_point("s", 0) == 0
    assert plan.split_point("s", 1) == 0
    for n in (2, 3, 10, 1000):
        for _ in range(20):
            keep = plan.split_point("s", n)
            assert 1 <= keep < n


def test_plan_validates_rates():
    with pytest.raises(ValueError):
        FaultPlan(0, rates={"a": 1.5})


# -- the storage seam ---------------------------------------------------------


def test_faulty_device_injects_read_write_and_torn():
    # The EIO write raises before the torn check runs, so the torn site's
    # visit 0 is the *second* write call.
    plan = FaultPlan(
        0, at={"device.read": {1}, "device.write": {0}, "device.torn": {0}}
    )
    device = FaultyDevice(BlockDevice(8), plan)
    assert device.block_size == 8
    bid = device.allocate()
    with pytest.raises(InjectedFaultError):
        device.write(bid, [1.0, 2.0, 3.0, 4.0])
    # EIO write: nothing landed.
    assert device.inner.read(bid) == []
    with pytest.raises(InjectedFaultError):
        device.write(bid, [1.0, 2.0, 3.0, 4.0])
    torn = device.inner.read(bid)
    # Torn write: a strict non-empty prefix landed.
    assert 1 <= len(torn) < 4 and torn == [1.0, 2.0, 3.0, 4.0][: len(torn)]
    assert device.read(bid) == torn  # visit 0: no read fault
    with pytest.raises(InjectedFaultError):
        device.read(bid)  # visit 1: injected EIO
    assert isinstance(InjectedFaultError("x"), StorageError)
    device.free(bid)
    assert device.blocks_in_use == 0
    device.close()


def test_faulty_file_torn_write_kills_the_handle(tmp_path):
    path = tmp_path / "f.bin"
    plan = FaultPlan(2, at={"wal.torn": {1}})
    fh = FaultyFile(open(path, "ab"), plan)
    fh.write(b"hello-hello-hello")
    fh.flush()
    with pytest.raises(InjectedFaultError):
        fh.write(b"world-world-world")
    persisted = path.read_bytes()
    assert len(persisted) > 17  # the tear landed a non-empty prefix
    assert persisted.startswith(b"hello-hello-hello")
    # The handle models a crashed process: every later verb fails...
    for verb in (fh.flush, fh.tell, lambda: fh.truncate(0), lambda: fh.write(b"x")):
        with pytest.raises(InjectedFaultError):
            verb()
    # ...except close, which the survivor may still call.
    fh.close()
    assert fh.closed


def test_wal_torn_append_breaks_log_and_recovers_on_reopen(tmp_path):
    plan = FaultPlan(4, at={"wal.torn": {2}})
    wal = WriteAheadLog(
        tmp_path / "wal", file_wrapper=lambda fh: FaultyFile(fh, plan)
    )
    assert wal.append([("insert", 1.0)]) == 1
    assert wal.append([("insert", 2.0)]) == 2
    with pytest.raises(InjectedFaultError):
        wal.append([("insert", 3.0)])
    # The tear killed the handle, so the rollback could not erase the
    # partial frame: the log is broken and refuses to continue.
    assert wal.broken
    with pytest.raises(StorageError):
        wal.append([("insert", 4.0)])
    wal.close()
    # Restart: the open-time scan finds the torn tail and truncates it.
    with WriteAheadLog(tmp_path / "wal") as fresh:
        assert fresh.broken is False
        assert fresh.torn_tail is not None
        assert fresh.last_seq == 2
        assert [r.seq for r in fresh.replay()] == [1, 2]
        assert fresh.append([("insert", 3.0)]) == 3


def test_wal_fsync_fault_rolls_back_atomically(tmp_path):
    plan = FaultPlan(9, at={"wal.fsync": {1}})
    wal = WriteAheadLog(
        tmp_path / "wal",
        fsync="always",
        file_wrapper=lambda fh: FaultyFile(fh, plan),
    )
    assert wal.append([("insert", 1.0)]) == 1
    with pytest.raises(InjectedFaultError):
        wal.append([("insert", 2.0)])
    # The failed append rolled its frame back: the log is intact, not
    # broken, and the retry lands the same sequence number.
    assert wal.broken is False
    assert wal.last_seq == 1
    assert wal.append([("insert", 2.5)]) == 2
    wal.close()
    with WriteAheadLog(tmp_path / "wal") as fresh:
        assert fresh.torn_tail is None
        records = list(fresh.replay())
        assert [r.seq for r in records] == [1, 2]
        # Each record holds one insert column: its values, laid end to end.
        assert [v for r in records for op in r.ops for v in op.values] == [1.0, 2.5]


def test_wal_silent_corruption_caught_by_checksum(tmp_path):
    from repro.errors import CorruptRecordError

    plan = FaultPlan(6, at={"wal.corrupt": {0}})
    # segment_bytes=1: every append rotates, so the corrupted first record
    # sits in a non-tail segment where the scan must hard-fail (a torn
    # *tail* is survivable; damage before it is not).
    wal = WriteAheadLog(
        tmp_path / "wal",
        segment_bytes=1,
        file_wrapper=lambda fh: FaultyFile(fh, plan),
    )
    wal.append([("insert", 1.0)])
    wal.append([("insert", 2.0)])
    wal.close()
    with pytest.raises(CorruptRecordError):
        WriteAheadLog(tmp_path / "wal")


# -- the shard seam -----------------------------------------------------------


def serial_sharded(seed=11, **kwargs):
    return ShardedIRS(DATA, num_shards=3, seed=seed, **kwargs)


def test_backend_stall_leaves_partial_then_fails_over():
    plan = FaultPlan(8, at={"shard.stall": {0}})
    faulty = serial_sharded(backend=FaultyBackend(SerialBackend(), plan))
    clean = serial_sharded(backend="serial")
    with pytest.raises(ShardTimeoutError):
        faulty.sample_bulk(0.0, 119.0, 32, seed=7)
    # The fault triggered failover: the wrapper is gone, serial is in.
    assert faulty.backend_name == "serial"
    assert "ShardTimeoutError" in faulty.last_failover
    assert faulty.stats.extra["failovers"] == faulty.stats.extra["timeouts"] == 1
    # Seed-pure tasks: the failed-over scatter overwrites the partial
    # output with exactly what the healthy backend would have drawn.
    assert list(faulty.sample_bulk(0.0, 119.0, 32, seed=7)) == list(
        clean.sample_bulk(0.0, 119.0, 32, seed=7)
    )


def test_thread_backend_timeout_raises_typed_error():
    backend = ThreadBackend(max_workers=2)
    try:
        done = []

        def slow(task):
            time.sleep(0.5)
            done.append(task)

        with pytest.raises(ShardTimeoutError):
            backend.run(slow, [1, 2, 3, 4], 0.05)
        # And without a timeout the same backend still works.
        backend.run(done.append, [9, 9])
    finally:
        backend.close()


def test_sharded_task_timeout_validation_and_passthrough():
    with pytest.raises(ValueError):
        ShardedIRS(DATA, num_shards=2, task_timeout=0.0)
    # A generous timeout on a healthy threads backend changes nothing.
    timed = ShardedIRS(DATA, num_shards=3, seed=11, backend="threads",
                       task_timeout=30.0)
    plain = ShardedIRS(DATA, num_shards=3, seed=11, backend="serial")
    try:
        assert list(timed.sample_bulk(1.0, 100.0, 24, seed=5)) == list(
            plain.sample_bulk(1.0, 100.0, 24, seed=5)
        )
    finally:
        timed.close()


def test_server_absorbs_shard_fault_via_capture_and_failover():
    # Inside a coalesced batch the first scatter fault is captured, the
    # facade fails over, and the per-op replay answers from the serial
    # backend — the client sees a correct reply, not an error.
    plan = FaultPlan(13, at={"shard.stall": {0}})

    async def main(structure):
        async with ReproServer(structure, seed=5) as server:
            return await ServeClient(server).sample(5.0, 110.0, 12, seed=77)

    faulty = run(main(serial_sharded(backend=FaultyBackend(SerialBackend(), plan))))
    clean = run(main(serial_sharded(backend="serial")))
    assert plan.fired.get("shard.stall") == 1
    assert faulty == clean


# -- server-side degradation --------------------------------------------------


def test_overloaded_refusal_carries_retry_after():
    async def main():
        async with ReproServer(
            DynamicIRS(DATA, seed=1), seed=5, max_pending=1, window=0.05
        ) as server:
            futures = [
                server.submit({"op": "count", "lo": 0.0, "hi": 1.0, "id": i})
                for i in range(40)
            ]
            replies = await asyncio.gather(*futures)
        refused = [r for r in replies if not r["ok"]]
        assert refused, "expected at least one overload refusal"
        for reply in refused:
            assert reply["error"]["type"] == "overloaded"
            assert 0.005 <= reply["error"]["retry_after"] <= 5.0

    run(main())


def test_wal_failure_refuses_updates_keeps_reads(tmp_path):
    async def main():
        async with ReproServer(
            DynamicIRS(DATA, seed=1), seed=5, data_dir=str(tmp_path / "srv")
        ) as server:
            client = ServeClient(server)
            await client.insert(500.5)

            def explode(ops, rids=None):
                raise StorageError("injected: disk full")

            server.store.log_batch = explode
            update, read = await asyncio.gather(
                server.submit({"op": "insert", "value": 501.5, "id": 1}),
                server.submit({"op": "count", "lo": 0.0, "hi": 1000.0, "id": 2}),
            )
            # The unlogged update was refused retryably; the read executed.
            assert update["ok"] is False
            assert update["error"]["type"] == "unavailable"
            assert read["ok"] is True and read["result"] == len(DATA) + 1
            assert server.stats.wal_failures >= 1
            # 501.5 was never applied — write-ahead means refused = not run.
            count = await client.count(501.0, 502.0)
            assert count == 0
            server._store_closed = True
            server.store.close()

    run(main())


def test_stats_expose_resilience_counters():
    async def main():
        async with ReproServer(DynamicIRS(DATA, seed=1), seed=5) as server:
            stats = (await server.submit({"op": "stats", "id": 1}))["result"]
        for key in ("dedup_hits", "wal_failures", "arrival_rate", "drain_rate"):
            assert key in stats

    run(main())
