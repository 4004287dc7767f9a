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


# The bodies a bulk request's failure must keep, live and after recovery.
DELETE_BULK_BODY = {
    "type": "key_not_found",
    "message": "'value not present: 99.0'",
    "op_index": 1,
    "applied": 2,
}


def test_bulk_batch_replies_survive_crash_recovery(tmp_path):
    # One deterministic batch: every request is submitted before any is
    # awaited, so they share one batch, one WAL record and one run_mixed.
    data_dir = str(tmp_path / "srv")
    base = [1.0, 2.0, 3.0, 4.0]
    batch = [
        {"id": 1, "op": "insert", "value": 10.0},
        {"id": 2, "op": "insert_bulk", "values": [11.0, 12.0, 13.0], "rid": "in"},
        {"id": 3, "op": "delete_bulk", "values": [1, 99, 2, 98], "rid": "del"},
        {"id": 4, "op": "insert", "value": 14.0},
        {"id": 5, "op": "insert_bulk", "values": [20.0, 21.0], "weights": [1, 2],
         "rid": "unweighted"},
        {"id": 6, "op": "insert_bulk", "values": [30.0, 31.0, 32.0],
         "weights": [1, 0, -1], "structure": "weighted", "rid": "zero"},
        {"id": 7, "op": "delete", "value": 3.0, "structure": "weighted"},
    ]

    def structures():
        return {
            "default": DynamicIRS(base, seed=1),
            "weighted": WeightedDynamicIRS(base, [1.0] * 4, seed=2),
        }

    def state(server):
        return {
            name: sorted(structure.export_sorted().tolist())
            for name, structure in server.structures.items()
        }

    async def live():
        server = ReproServer(structures(), seed=5, data_dir=data_dir)
        await server.start()
        futures = [server.submit(request) for request in batch]
        replies = await asyncio.gather(*futures)
        batches, snapshot = server.stats.batches, state(server)
        crash(server)
        await server.aclose()
        return replies, batches, snapshot

    async def recovered():
        async with ReproServer(structures(), seed=5, data_dir=data_dir) as server:
            retries = [
                await server.submit({**request, "id": 100 + request["id"]})
                for request in batch
                if "rid" in request
            ]
            return retries, state(server), server.recovery

    replies, batches, live_state = run(live())
    assert batches == 1
    by_id = {reply["id"]: reply for reply in replies}
    assert by_id[1] == {"id": 1, "ok": True, "result": 1}
    assert by_id[2] == {"id": 2, "ok": True, "result": 3}
    assert by_id[3] == {"id": 3, "ok": False, "error": DELETE_BULK_BODY}
    assert by_id[5]["error"]["type"] == "invalid_query"
    assert (by_id[5]["error"]["op_index"], by_id[5]["error"]["applied"]) == (0, 0)
    assert by_id[6]["error"]["type"] == "invalid_weight"
    assert (by_id[6]["error"]["op_index"], by_id[6]["error"]["applied"]) == (1, 1)
    assert by_id[7] == {"id": 7, "ok": True, "result": 1}
    assert live_state == {
        "default": [3.0, 4.0, 10.0, 11.0, 12.0, 13.0, 14.0],
        "weighted": [1.0, 2.0, 4.0, 30.0],
    }

    retries, recovered_state, recovery = run(recovered())
    assert recovered_state == live_state
    assert recovery.snapshot_seq == 0
    assert recovery.replayed_records == 1
    assert recovery.replayed_ops == 1 + 3 + 4 + 1 + 2 + 3 + 1  # one per value
    # Each rid's retry gets the outcome its original got, under its own id.
    originals = [by_id[request["id"]] for request in batch if "rid" in request]
    assert len(retries) == len(originals) == 4
    for retry, original in zip(retries, originals):
        assert retry == {**original, "id": original["id"] + 100}


def test_closed_durable_server_frees_its_structures_without_a_collection(tmp_path):
    # The recovered structures must go with the server: nothing reachable
    # only through a reference cycle (the metrics registry is in one) may
    # hold them, or every recover-and-close keeps about n points alive
    # until the next full collection.
    import gc
    import weakref

    data_dir = str(tmp_path / "srv")

    async def main(step):
        server = ReproServer(DynamicIRS(DATA, seed=1), seed=5, data_dir=data_dir)
        await server.start_tcp()
        if step == "write":
            await ServeClient(server).insert(100.0)
            crash(server)  # leave a WAL suffix for the next recovery
        ref = weakref.ref(server.structures["default"])
        await server.aclose()
        return ref, server.recovery.replayed_records

    run(main("write"))
    gc.collect()
    gc.disable()
    try:
        ref, replayed = run(main("check"))
        assert replayed == 1
        assert ref() is None
    finally:
        gc.enable()
