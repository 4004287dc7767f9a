"""The serving layer's durability loop, in process (no subprocesses here)."""

from __future__ import annotations

import asyncio
import json
import os

from repro import DynamicIRS, WeightedDynamicIRS, WindowedIRS
from repro.serve import ReproServer, ServeClient

DATA = [float(i) for i in range(50)]


def run(coro):
    return asyncio.run(coro)


def fresh_structures():
    return {
        "default": DynamicIRS(DATA, seed=1),
        "weighted": WeightedDynamicIRS(DATA, [1.0] * len(DATA), seed=2),
    }


def test_server_without_data_dir_has_no_store():
    async def main():
        async with ReproServer(fresh_structures(), seed=5) as server:
            assert server.store is None and server.recovery is None
            await ServeClient(server).insert(1.5)

    run(main())


def test_server_recovers_state_and_seeded_replies(tmp_path):
    data_dir = str(tmp_path / "srv")
    sample_req = json.dumps(
        {"id": 1, "op": "sample", "lo": 0.0, "hi": 100.0, "t": 12, "seed": 99}
    ).encode()

    async def first_run():
        async with ReproServer(fresh_structures(), seed=5, data_dir=data_dir) as server:
            client = ServeClient(server)
            await client.insert_bulk([100.5, 101.5, 102.5])
            await client.delete(0.0)
            await client.insert(7.25, structure="weighted")
            reply = await server.submit(sample_req)
            state = list(server._runner.structures["default"].export_sorted())
            return reply, state

    async def second_run():
        async with ReproServer(fresh_structures(), seed=5, data_dir=data_dir) as server:
            reply = await server.submit(sample_req)
            state = list(server._runner.structures["default"].export_sorted())
            wstate = list(server._runner.structures["weighted"].export_sorted())
            return reply, state, wstate, server.recovery

    reply1, state1 = run(first_run())
    reply2, state2, wstate2, recovery = run(second_run())
    assert state2 == state1
    assert 7.25 in wstate2
    # Client-seeded replies are byte-identical across the restart.
    assert json.dumps(reply2, sort_keys=True) == json.dumps(reply1, sort_keys=True)
    # Graceful shutdown checkpointed, so recovery came from the snapshot
    # alone with nothing left to replay.
    assert recovery.snapshot_seq > 0
    assert recovery.replayed_records == 0


def test_server_snapshot_ops_trigger(tmp_path):
    data_dir = str(tmp_path / "srv")

    async def main():
        async with ReproServer(
            DynamicIRS(DATA, seed=1), seed=5, data_dir=data_dir, snapshot_ops=2
        ) as server:
            client = ServeClient(server)
            for i in range(5):
                await client.insert(1000.0 + i)
            # The size trigger fired mid-run: fewer pending ops than inserts.
            assert server.store.ops_since_snapshot < 5
            return server.store.snapshots.latest()[0]

    assert run(main()) >= 1
    snaps = os.listdir(os.path.join(data_dir, "snapshots"))
    assert len(snaps) == 1


def test_server_interval_trigger(tmp_path):
    data_dir = str(tmp_path / "srv")

    async def main():
        async with ReproServer(
            DynamicIRS(DATA, seed=1),
            seed=5,
            data_dir=data_dir,
            snapshot_interval=0.0,  # every executed batch is past due
        ) as server:
            client = ServeClient(server)
            await client.insert(1000.0)
            assert server.store.ops_since_snapshot == 0
            assert server.store.snapshots.latest() is not None

    run(main())


def test_server_read_only_traffic_logs_nothing(tmp_path):
    data_dir = str(tmp_path / "srv")

    async def main():
        async with ReproServer(
            DynamicIRS(DATA, seed=1), seed=5, data_dir=data_dir
        ) as server:
            client = ServeClient(server)
            await client.count(0.0, 100.0)
            await client.sample(0.0, 100.0, 4)
            assert server.store.last_seq == 0

    run(main())
    # No updates -> shutdown writes no snapshot either.
    assert os.listdir(os.path.join(data_dir, "snapshots")) == []


def test_server_failed_update_replays_identically(tmp_path):
    data_dir = str(tmp_path / "srv")

    async def main(check):
        async with ReproServer(
            DynamicIRS(DATA, seed=1),
            seed=5,
            data_dir=data_dir,
            snapshot_ops=10_000_000,  # keep everything in the WAL
        ) as server:
            client = ServeClient(server)
            if not check:
                # One failing delete inside a batch of otherwise-good updates:
                # the reply is a typed error, the WAL still holds the batch.
                await client.insert(200.0)
                reply = await server.submit(
                    json.dumps({"id": 9, "op": "delete", "value": 555.5}).encode()
                )
                assert reply["ok"] is False
                await client.insert(201.0)
                # Skip the shutdown snapshot so recovery must replay the WAL.
                server._store_closed = True
                server.store.close()
            return (
                list(server._runner.structures["default"].export_sorted()),
                server.recovery,
            )

    state1, _ = run(main(check=False))
    state2, recovery = run(main(check=True))
    assert state2 == state1
    assert recovery.snapshot_seq == 0
    assert recovery.replayed_ops == 3


def crash(server):
    """Stop a server the way ``kill -9`` would: no shutdown checkpoint.

    The WAL is closed only to release its handle; every appended record
    was already flushed to the OS, which is what a killed process leaves.
    """
    server._store_closed = True
    server.store.close()


def test_server_wal_numbering_stays_above_the_snapshot(tmp_path):
    # A server that recovers a WAL suffix, takes no write and stops
    # gracefully checkpoints with its log closed, so the checkpoint
    # deletes every segment.  The next run's records must still be
    # numbered above that snapshot, or recovery would skip them.
    data_dir = str(tmp_path / "srv")

    async def main(step):
        async with ReproServer(
            DynamicIRS(DATA, seed=1), seed=5, data_dir=data_dir
        ) as server:
            client = ServeClient(server)
            if step == "write-then-crash":
                await client.insert(100.0)
                await client.insert(101.0)
                crash(server)
            elif step == "insert-then-crash":
                await client.insert(200.0)
                crash(server)
            return (
                list(server._runner.structures["default"].export_sorted()),
                server.recovery,
            )

    run(main("write-then-crash"))
    _, recovery = run(main("recover-and-stop"))
    assert recovery.replayed_records == 2
    wal_dir = os.path.join(data_dir, "wal")
    assert os.listdir(wal_dir) == []  # the graceful checkpoint covered it all
    run(main("insert-then-crash"))
    state, recovery = run(main("check"))
    assert recovery.snapshot_seq == 2
    assert recovery.replayed_records == 1
    assert {100.0, 101.0, 200.0} <= set(state)


def test_server_refused_checkpoint_waits_for_a_later_trigger(tmp_path):
    data_dir = str(tmp_path / "srv")

    async def main():
        structures = {
            "default": DynamicIRS(DATA, seed=1),
            "w": WindowedIRS(DATA, window=8, seed=2),  # snapshots refuse it
        }
        async with ReproServer(
            structures, seed=5, data_dir=data_dir, snapshot_ops=4, window=0.0
        ) as server:
            store = server.store
            calls = {"snapshot": 0, "sync": 0}

            def counted(name, fn):
                def wrapper(*args, **kwargs):
                    calls[name] += 1
                    return fn(*args, **kwargs)
                return wrapper

            store.snapshot = counted("snapshot", store.snapshot)
            store.wal.sync = counted("sync", store.wal.sync)
            client = ServeClient(server)
            for i in range(20):
                await client.insert(1000.0 + i)
            # Counted before the shutdown checkpoint, which tries once more.
            return dict(calls), server.last_snapshot_error

    calls, error = run(main())
    # Retried once per further snapshot_ops ops, not on every batch, and
    # a refused attempt pays no WAL fsync.
    assert 1 <= calls["snapshot"] <= 5
    assert calls["sync"] == 0
    assert error is not None
