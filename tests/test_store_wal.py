"""The durability tier: WAL framing, snapshots, and the DurableStore loop."""

from __future__ import annotations

import base64
import hashlib
import json
import os
import struct
import sys
import zlib

import numpy as np
import pytest

from repro import DynamicIRS, WeightedDynamicIRS, WindowedIRS
from repro.batch import BatchOp
from repro.errors import CorruptRecordError, StorageError
from repro.store import (
    DurableStore,
    SnapshotStore,
    WriteAheadLog,
    build_from_sorted,
    snapshot_spec,
)

OPS_A = [("insert", 1.5), ("insert", 2.5), ("delete", 1.5)]
OPS_B = [BatchOp.insert(7.0), BatchOp.delete(2.5)]


def wal_dir(tmp_path):
    return str(tmp_path / "wal")


def flat(ops) -> list[tuple]:
    """Each update value of ``ops`` as ``(kind, value, weight, structure)``."""
    out = []
    for op in ops:
        if op.values is None:
            out.append((op.kind, op.value, op.weight, op.structure))
            continue
        weights = [None] * op.size if op.weights is None else op.weights.tolist()
        out.extend(
            (op.kind, value, weight, op.structure)
            for value, weight in zip(op.values.tolist(), weights)
        )
    return out


# -- WAL framing and replay --------------------------------------------------


def test_wal_append_replay_roundtrip(tmp_path):
    with WriteAheadLog(wal_dir(tmp_path)) as wal:
        assert wal.append(OPS_A) == 1
        assert wal.append(OPS_B) == 2
        assert wal.last_seq == 2
        records = list(wal.replay())
    assert [r.seq for r in records] == [1, 2]
    first = records[0].ops
    assert flat(first) == [
        ("insert", 1.5, None, "default"),
        ("insert", 2.5, None, "default"),
        ("delete", 1.5, None, "default"),
    ]
    assert all(isinstance(op, BatchOp) for op in first)
    assert flat(records[1].ops) == flat(OPS_B)
    assert list(wal.replay(after_seq=1))[0].seq == 2
    assert list(wal.replay(after_seq=2)) == []


def test_wal_reopen_continues_sequence(tmp_path):
    with WriteAheadLog(wal_dir(tmp_path)) as wal:
        wal.append(OPS_A)
    with WriteAheadLog(wal_dir(tmp_path)) as wal:
        assert wal.last_seq == 1
        assert wal.append(OPS_B) == 2
        assert [r.seq for r in wal.replay()] == [1, 2]


def test_wal_rotation_and_truncation(tmp_path):
    with WriteAheadLog(wal_dir(tmp_path), segment_bytes=1) as wal:
        for i in range(5):
            wal.append([("insert", float(i))])
        names = sorted(os.listdir(wal_dir(tmp_path)))
        # segment_bytes=1: every append lands in its own segment.
        assert len(names) == 5
        assert [r.seq for r in wal.replay()] == [1, 2, 3, 4, 5]
        # Everything through seq 3 is covered by a snapshot: segments whose
        # records all fall at or below it are deleted, replay starts past it.
        removed = wal.truncate_through(3)
        assert removed == 3
        assert [r.seq for r in wal.replay()] == [4, 5]
        assert [r.seq for r in wal.replay(after_seq=3)] == [4, 5]
    # The active segment is only removable once the log is closed.
    with WriteAheadLog(wal_dir(tmp_path)) as wal:
        assert wal.last_seq == 5
    reopened = WriteAheadLog(wal_dir(tmp_path))
    reopened.truncate_through(5)
    assert list(reopened.replay()) == []
    reopened.close()


def refuse_record_reads(monkeypatch):
    def no_reads(self, name):
        raise AssertionError(f"read a record of {name}")

    monkeypatch.setattr(WriteAheadLog, "_iter_segment", no_reads)


def test_wal_truncation_of_a_closed_log_reads_no_record(tmp_path, monkeypatch):
    with WriteAheadLog(wal_dir(tmp_path), segment_bytes=1) as wal:
        for i in range(4):
            wal.append([("insert", float(i))])
    reopened = WriteAheadLog(wal_dir(tmp_path))  # the open-time scan reads
    refuse_record_reads(monkeypatch)
    # The last segment holds seq 4: not fully covered by seq 3, so it stays.
    assert reopened.truncate_through(3) == 3
    assert sorted(os.listdir(wal_dir(tmp_path))) == ["wal-0000000000000004.log"]
    # Covered and not open for append: it goes.
    assert reopened.truncate_through(4) == 1
    assert os.listdir(wal_dir(tmp_path)) == []
    reopened.close()


def test_wal_torn_tail_truncated_on_open(tmp_path):
    with WriteAheadLog(wal_dir(tmp_path)) as wal:
        for i in range(3):
            wal.append([("insert", float(i))])
    (name,) = os.listdir(wal_dir(tmp_path))
    path = os.path.join(wal_dir(tmp_path), name)
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) - 3)  # tear the last record
    with WriteAheadLog(wal_dir(tmp_path)) as wal:
        assert wal.torn_tail == (name, os.path.getsize(path))
        assert wal.last_seq == 2
        assert [r.seq for r in wal.replay()] == [1, 2]
        # The log keeps accepting appends after healing.
        assert wal.append(OPS_B) == 3
    with WriteAheadLog(wal_dir(tmp_path)) as wal:
        assert wal.torn_tail is None
        assert [r.seq for r in wal.replay()] == [1, 2, 3]


def test_wal_corruption_before_tail_raises(tmp_path):
    with WriteAheadLog(wal_dir(tmp_path), segment_bytes=1) as wal:
        wal.append(OPS_A)
        wal.append(OPS_B)
    first = sorted(os.listdir(wal_dir(tmp_path)))[0]
    path = os.path.join(wal_dir(tmp_path), first)
    raw = bytearray(open(path, "rb").read())
    raw[12] ^= 0xFF  # flip a payload byte in a non-tail segment
    open(path, "wb").write(bytes(raw))
    with pytest.raises(CorruptRecordError):
        WriteAheadLog(wal_dir(tmp_path))


def test_wal_crc_valid_but_unparseable_raises(tmp_path):
    os.makedirs(wal_dir(tmp_path))
    payload = b"definitely not json\n"
    frame = struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
    with open(os.path.join(wal_dir(tmp_path), "wal-0000000000000001.log"), "wb") as fh:
        fh.write(frame)
    with pytest.raises(CorruptRecordError):
        WriteAheadLog(wal_dir(tmp_path))


def test_wal_parameter_validation(tmp_path):
    with pytest.raises(ValueError):
        WriteAheadLog(wal_dir(tmp_path), fsync="sometimes")
    with pytest.raises(ValueError):
        WriteAheadLog(wal_dir(tmp_path), segment_bytes=0)
    with pytest.raises(ValueError):
        WriteAheadLog(wal_dir(tmp_path), sync_every=0)


@pytest.mark.parametrize("fsync", ["always", "batch", "off"])
def test_wal_policies_all_flush_records(tmp_path, fsync):
    with WriteAheadLog(wal_dir(tmp_path) + fsync, fsync=fsync, sync_every=2) as wal:
        for i in range(5):
            wal.append([("insert", float(i))])
        wal.sync()
    with WriteAheadLog(wal_dir(tmp_path) + fsync, fsync=fsync) as wal:
        assert [r.seq for r in wal.replay()] == [1, 2, 3, 4, 5]


def test_wal_segment_is_inspectable_json(tmp_path):
    with WriteAheadLog(wal_dir(tmp_path)) as wal:
        wal.append([("insert", 3.25, "other"), ("insert", -1.0, "other")])
    (name,) = os.listdir(wal_dir(tmp_path))
    raw = open(os.path.join(wal_dir(tmp_path), name), "rb").read()
    length, crc = struct.unpack_from("<II", raw)
    payload = raw[8 : 8 + length]
    assert zlib.crc32(payload) == crc
    body = json.loads(payload)
    assert body["q"] == 1
    (column,) = body["ops"]  # the run of inserts is one column
    assert (column["k"], column["s"], sorted(column)) == ("i", "other", ["b", "k", "s"])
    values = np.frombuffer(base64.b64decode(column["b"]), dtype="<f8")
    assert values.tolist() == [3.25, -1.0]


# -- snapshots ----------------------------------------------------------------


def test_snapshot_save_load_roundtrip(tmp_path):
    store = SnapshotStore(tmp_path / "snaps")
    assert store.latest() is None
    assert store.load() == {}
    structures = {
        "default": DynamicIRS([3.0, 1.0, 2.0], seed=1),
        "weighted": WeightedDynamicIRS([2.0, 1.0], [0.5, 2.0], seed=2),
    }
    store.save(structures, wal_seq=9)
    seq, manifest = store.latest()
    assert seq == 9
    assert set(manifest["structures"]) == {"default", "weighted"}
    loaded = store.load()
    spec, values, weights = loaded["default"]
    assert spec["kind"] == "dynamic" and weights is None
    assert list(values) == [1.0, 2.0, 3.0]
    spec, values, weights = loaded["weighted"]
    assert spec["kind"] == "weighted-dynamic"
    assert list(values) == [1.0, 2.0]
    assert list(weights) == [2.0, 0.5]
    rebuilt = build_from_sorted(spec, values, weights, seed=3)
    assert rebuilt.export_sorted().tolist() == [1.0, 2.0]
    assert rebuilt.peek_weights([(0.0, 5.0)]) == structures["weighted"].peek_weights(
        [(0.0, 5.0)]
    )


def test_snapshot_save_prunes_and_replaces(tmp_path):
    store = SnapshotStore(tmp_path / "snaps")
    d = {"default": DynamicIRS([1.0], seed=1)}
    store.save(d, wal_seq=3)
    store.save(d, wal_seq=8)
    assert [e.name for e in os.scandir(tmp_path / "snaps")] == ["snap-0000000000000008"]
    # Re-publishing the same WAL position replaces in place.
    store.save({"default": DynamicIRS([4.0], seed=1)}, wal_seq=8)
    (_, values, _) = store.load()["default"]
    assert list(values) == [4.0]


def test_resnapshot_failure_keeps_the_published_snapshot(tmp_path, monkeypatch):
    # A checkpoint at an unchanged WAL seq must not unpublish the snapshot
    # it replaces: the WAL segments that snapshot covered are gone.
    data_dir = tmp_path / "d"
    d = DynamicIRS([1.0, 2.0, 3.0], seed=1)
    with DurableStore(data_dir, segment_bytes=64) as store:
        for value in (4.0, 5.0, 6.0):
            store.log_batch([("insert", value)])
            d.insert(value)
        store.snapshot({"default": d})

        def crash(*args):
            raise OSError("crash while publishing")

        with monkeypatch.context() as patch:
            patch.setattr(os, "rename", crash)
            patch.setattr(os, "replace", crash)
            with pytest.raises(OSError):
                store.snapshot({"default": d})
    with DurableStore(data_dir) as store:
        report = store.recover({"default": DynamicIRS([1.0, 2.0, 3.0], seed=1)})
        assert report.structures["default"].export_sorted().tolist() == [
            1.0, 2.0, 3.0, 4.0, 5.0, 6.0,
        ]


def test_snapshot_ignores_tmp_and_junk_dirs(tmp_path):
    store = SnapshotStore(tmp_path / "snaps")
    os.makedirs(tmp_path / "snaps" / "snap-0000000000000009.tmp-1")
    os.makedirs(tmp_path / "snaps" / "snap-nonsense")
    assert store.latest() is None
    store.save({"default": DynamicIRS([1.0], seed=1)}, wal_seq=2)
    assert store.latest()[0] == 2


def test_snapshot_crc_mismatch_raises(tmp_path):
    store = SnapshotStore(tmp_path / "snaps")
    store.save({"default": DynamicIRS([1.0, 2.0], seed=1)}, wal_seq=1)
    snap = tmp_path / "snaps" / "snap-0000000000000001"
    plane = snap / "s0000.values.f8"
    raw = bytearray(plane.read_bytes())
    raw[0] ^= 0xFF
    plane.write_bytes(bytes(raw))
    with pytest.raises(CorruptRecordError):
        store.load()


class _SortedSurface:
    """A sampler class with the snapshot surface but no kind row."""

    def __init__(self, values):
        self._values = sorted(values)

    def export_sorted(self):
        return self._values

    @classmethod
    def from_sorted(cls, values):
        return cls(values)


def test_snapshot_spec_rejects_undescribable_samplers():
    with pytest.raises(StorageError):
        snapshot_spec(object())
    # No registry could rebuild a custom class at recovery, so it is
    # refused rather than checkpointed into an unreadable snapshot.
    with pytest.raises(StorageError):
        snapshot_spec(_SortedSurface([1.0, 2.0]))
    from repro import ShardedIRS

    def custom_shard(values, weights, seed):
        return DynamicIRS.from_sorted(list(values), seed=seed)

    with pytest.raises(ValueError):
        ShardedIRS([1.0, 2.0], num_shards=2, shard_kind=custom_shard)


@pytest.mark.parametrize(
    "refused",
    [
        lambda: WindowedIRS([1.0, 2.0], window=8, seed=1),
        lambda: _SortedSurface([1.0, 2.0]),
    ],
    ids=["windowed", "custom-class"],
)
def test_refused_checkpoint_writes_nothing_and_keeps_the_wal(tmp_path, refused):
    data_dir = tmp_path / "d"
    with DurableStore(data_dir) as store:
        store.log_batch([("insert", 4.0)])
        # "default" sorts before "w", so its planes would be written
        # first if the refusal came late.
        structures = {"default": DynamicIRS([1.0, 2.0, 3.0], seed=5), "w": refused()}
        with pytest.raises(StorageError):
            store.snapshot(structures)
        assert os.listdir(data_dir / "snapshots") == []
        assert store.ops_since_snapshot == 1
    with DurableStore(data_dir) as store:
        report = store.recover({"default": DynamicIRS([1.0, 2.0, 3.0], seed=5)})
        assert (report.snapshot_seq, report.replayed_ops) == (0, 1)
        assert report.structures["default"].export_sorted().tolist() == [
            1.0, 2.0, 3.0, 4.0,
        ]


def test_build_from_sorted_rejects_unknown_kind():
    with pytest.raises(StorageError):
        build_from_sorted({"kind": "quantum", "params": {}}, [1.0])


# -- the durable store loop ---------------------------------------------------


def test_durable_store_log_recover_invariant(tmp_path):
    data_dir = str(tmp_path / "d")
    live = DynamicIRS([1.0, 2.0, 3.0], seed=5)
    with DurableStore(data_dir) as store:
        assert store.log_batch([]) is None
        store.log_batch([("insert", 4.0), ("insert", 5.0)])
        live.insert(4.0)
        live.insert(5.0)
        store.log_batch([("delete", 1.0)])
        live.delete(1.0)
        assert store.ops_since_snapshot == 3
    with DurableStore(data_dir) as store:
        report = store.recover({"default": DynamicIRS([1.0, 2.0, 3.0], seed=5)})
        assert (report.snapshot_seq, report.replayed_records, report.replayed_ops) == (
            0, 2, 3,
        )
        assert report.structures["default"].export_sorted().tolist() == (
            live.export_sorted().tolist()
        )


def test_durable_store_snapshot_truncates_and_resets(tmp_path):
    data_dir = str(tmp_path / "d")
    d = DynamicIRS([1.0], seed=1)
    with DurableStore(data_dir) as store:
        store.log_batch([("insert", 2.0)])
        d.insert(2.0)
        seq = store.snapshot({"default": d})
        assert seq == 1
        assert store.ops_since_snapshot == 0
        store.log_batch([("insert", 3.0)])
        d.insert(3.0)
    with DurableStore(data_dir) as store:
        report = store.recover({"default": DynamicIRS([1.0], seed=1)})
        assert report.snapshot_seq == 1
        assert (report.replayed_records, report.replayed_ops) == (1, 1)
        assert report.structures["default"].export_sorted().tolist() == (
            d.export_sorted().tolist()
        )
        # Replayed-but-unsnapshotted ops still count toward the next trigger.
        assert store.ops_since_snapshot == 1


def test_durable_store_size_trigger(tmp_path):
    with DurableStore(tmp_path / "d", snapshot_ops=3) as store:
        d = DynamicIRS([], seed=1)
        store.log_batch([("insert", 1.0), ("insert", 2.0)])
        d.insert_bulk([1.0, 2.0])
        assert store.maybe_snapshot({"default": d}) is None
        store.log_batch([("insert", 3.0)])
        d.insert(3.0)
        assert store.should_snapshot()
        assert store.maybe_snapshot({"default": d}) == 2


def test_durable_store_replay_tolerates_failed_ops(tmp_path):
    data_dir = str(tmp_path / "d")
    with DurableStore(data_dir) as store:
        # A delete of an absent value failed live (capture_errors on the
        # serving path); replay must fail it identically, not abort.
        store.log_batch([("delete", 99.0), ("insert", 4.0)])
    with DurableStore(data_dir) as store:
        report = store.recover({"default": DynamicIRS([1.0], seed=1)})
        assert report.structures["default"].export_sorted().tolist() == [1.0, 4.0]


def test_durable_store_seeded_recovery_is_deterministic(tmp_path):
    data_dir = str(tmp_path / "d")
    with DurableStore(data_dir) as store:
        store.snapshot({"default": DynamicIRS([float(i) for i in range(64)], seed=1)})

    def recovered_stream():
        with DurableStore(data_dir) as store:
            rep = store.recover({"default": DynamicIRS([], seed=1)}, seed=77)
            return list(rep.structures["default"].sample_bulk(0.0, 63.0, 16))

    assert recovered_stream() == recovered_stream()


def test_durable_store_validates_snapshot_ops(tmp_path):
    with pytest.raises(ValueError):
        DurableStore(tmp_path / "d", snapshot_ops=0)


def test_durable_store_numbers_new_records_above_the_snapshot(tmp_path):
    data_dir = str(tmp_path / "d")

    def fresh():
        return {"default": DynamicIRS([1.0], seed=1)}

    with DurableStore(data_dir) as store:
        store.log_batch([("insert", 2.0)])
        store.log_batch([("insert", 3.0)])
    with DurableStore(data_dir) as store:
        report = store.recover(fresh())
        # Checkpoint with the log not open for append: every segment goes.
        assert store.snapshot(report.structures) == 2
        assert os.listdir(os.path.join(data_dir, "wal")) == []
    with DurableStore(data_dir) as store:
        store.recover(fresh())
        assert store.log_batch([("insert", 200.0)]) == 3
    with DurableStore(data_dir) as store:
        report = store.recover(fresh())
        assert (report.snapshot_seq, report.replayed_records) == (2, 1)
        assert report.structures["default"].export_sorted().tolist() == [
            1.0, 2.0, 3.0, 200.0,
        ]


def test_checkpoint_reads_no_wal_record(tmp_path, monkeypatch):
    d = DynamicIRS([1.0], seed=1)
    with DurableStore(tmp_path / "d", segment_bytes=1 << 20) as store:
        for i in range(200):
            store.log_batch([("insert", float(i))])
            d.insert(float(i))
        refuse_record_reads(monkeypatch)
        assert store.snapshot({"default": d}) == 200
        assert store.ops_since_snapshot == 0
        # The active segment is open for append, so it stays.
        assert len(os.listdir(tmp_path / "d" / "wal")) == 1


def test_failed_checkpoint_defers_the_size_trigger(tmp_path):
    with DurableStore(tmp_path / "d", snapshot_ops=2) as store:
        refused = {"w": WindowedIRS([1.0], window=4, seed=1)}
        store.log_batch([("insert", 1.0), ("insert", 2.0)])
        assert store.should_snapshot()
        with pytest.raises(StorageError):
            store.maybe_snapshot(refused)
        assert not store.should_snapshot()
        store.log_batch([("insert", 3.0)])
        assert not store.should_snapshot()
        store.log_batch([("insert", 4.0)])
        assert store.should_snapshot()
        d = DynamicIRS([1.0, 2.0, 3.0, 4.0], seed=1)
        assert store.maybe_snapshot({"default": d}) == 3
        store.log_batch([("insert", 5.0)])
        assert not store.should_snapshot()  # a success re-arms the trigger
        store.log_batch([("insert", 6.0)])
        assert store.should_snapshot()


# -- bulk ops in the log, and decoding each record once ----------------------


def segment_bytes(directory) -> bytes:
    return b"".join(
        open(os.path.join(directory, name), "rb").read()
        for name in sorted(os.listdir(directory))
    )


def test_bulk_op_logs_the_bytes_of_its_scalar_ops(tmp_path):
    bulk = [
        BatchOp.insert(1.0),
        BatchOp.insert_bulk([2.0, 3.0], [1.0, 2.0], "w"),
        BatchOp.insert_bulk([4.5, 5.5]),
        BatchOp.delete_bulk([6.0], "w"),
        BatchOp.delete(7.0),
    ]
    scalar = [
        BatchOp.insert(1.0),
        BatchOp.insert(2.0, 1.0, "w"),
        BatchOp.insert(3.0, 2.0, "w"),
        BatchOp.insert(4.5),
        BatchOp.insert(5.5),
        BatchOp.delete(6.0, "w"),
        BatchOp.delete(7.0),
    ]
    rids = [("a", 0, 1), ("b", 1, 2), (7, 5, 1)]
    counts = []
    for name, ops in (("bulk", bulk), ("scalar", scalar)):
        with DurableStore(tmp_path / name, snapshot_ops=7) as store:
            store.log_batch(ops, rids=rids)
            counts.append((store.ops_since_snapshot, store.should_snapshot()))
    # The checkpoint trigger counts values, not ops.
    assert counts == [(7, True), (7, True)]
    assert segment_bytes(tmp_path / "bulk" / "wal") == segment_bytes(
        tmp_path / "scalar" / "wal"
    )
    with WriteAheadLog(tmp_path / "bulk" / "wal") as wal:
        (record,) = wal.replay()
    assert flat(record.ops) == flat(scalar) and record.rids == rids


def test_a_read_op_is_refused_and_appends_no_record(tmp_path):
    directory = tmp_path / "wal"
    with WriteAheadLog(directory) as wal:
        # Refused before the first segment is opened: none is created.
        with pytest.raises(ValueError, match="updates only"):
            wal.append([BatchOp.count(0.0, 1.0)])
        assert wal.last_seq == 0 and os.listdir(directory) == []
        wal.append(OPS_B)
        before = (wal.last_seq, segment_bytes(directory))
        with pytest.raises(ValueError, match="updates only"):
            wal.append([BatchOp.insert(1.0), BatchOp.sample(0.0, 1.0, 4, seed=3)])
        assert (wal.last_seq, segment_bytes(directory)) == before
        assert wal.append([BatchOp.insert(1.0)]) == before[0] + 1


def count_decoded_ops(monkeypatch) -> list:
    import repro.store.wal as wal_module

    decoded = []

    def counted(wire):
        decoded.append(wire)
        return op_from_wire(wire)

    op_from_wire = wal_module.op_from_wire
    monkeypatch.setattr(wal_module, "op_from_wire", counted)
    return decoded


def test_recovery_decodes_each_record_once(tmp_path, monkeypatch):
    data_dir = tmp_path / "d"
    with DurableStore(data_dir) as store:
        store.snapshot({"default": DynamicIRS([0.5], seed=1)})
        for i in range(6):
            store.log_batch([BatchOp.insert_bulk([float(i)] * (i + 1))])
    decoded = count_decoded_ops(monkeypatch)
    with DurableStore(data_dir) as store:
        # The open scan checks frames and checksums, and decodes only the
        # last record (one column entry), for its sequence number.
        assert store.last_seq == 6
        assert len(decoded) == 1
        decoded.clear()
        report = store.recover({"default": DynamicIRS(seed=1)})
    # One column per record, each decoded once; replay counts values.
    assert len(decoded) == 6
    assert report.replayed_ops == 21
    assert report.structures["default"].count(0.0, 9.0) == 22


def write_frames(directory, payloads) -> None:
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "wal-0000000000000001.log"), "wb") as fh:
        for payload in payloads:
            fh.write(struct.pack("<II", len(payload), zlib.crc32(payload)) + payload)


def record(seq: int, value: float) -> bytes:
    return (json.dumps({"q": seq, "ops": [{"k": "i", "v": value}]}) + "\n").encode()


def b64(values) -> str:
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode()


def entry_record(seq: int, entry: dict) -> bytes:
    return (json.dumps({"q": seq, "ops": [entry]}) + "\n").encode()


#: CRC-valid records whose body does not decode.
DAMAGED = {
    "not-json": b"not json, right checksum\n",
    "invalid-base64": entry_record(2, {"k": "i", "b": "AAAA$AAAAAAA"}),
    "bad-padding": entry_record(2, {"k": "d", "b": "AAAAAAAAAAA"}),
    "not-8-bytes": entry_record(
        2, {"k": "i", "b": base64.b64encode(bytes(12)).decode()}
    ),
    "weights-length": entry_record(
        2, {"k": "i", "b": b64([2.0, 2.5]), "w": b64([1.0])}
    ),
    "non-string": entry_record(2, {"k": "i", "b": [b64([2.0])]}),
    "null": entry_record(2, {"k": "d", "b": None}),
    "sample-tag": entry_record(
        2, {"k": "s", "b": b64([2.0]), "lo": 0.0, "hi": 1.0, "t": 1}
    ),
    "count-tag": entry_record(2, {"k": "c", "b": b64([2.0]), "lo": 0.0, "hi": 1.0}),
    # The log holds updates only; no server ever logged a read's dict.
    "read-dict": entry_record(2, {"k": "s", "lo": 0.0, "hi": 1.0, "t": 1}),
    "delete-weights": entry_record(2, {"k": "d", "b": b64([2.0]), "w": b64([1.0])}),
    "entry-not-a-dict": entry_record(2, 7),
}


@pytest.mark.parametrize(
    ("snapshot", "damage"),
    [
        # A body that is not JSON keeps the plain ids ([False], [True]) it
        # has had since before columns, so its history stays comparable.
        pytest.param(
            snapshot,
            damage,
            id=str(snapshot) if damage == "not-json" else f"{snapshot}-{damage}",
        )
        for damage in sorted(DAMAGED)
        for snapshot in (False, True)
    ],
)
def test_undecodable_record_raises_before_anything_after_it_applies(
    tmp_path, snapshot, damage
):
    data_dir = tmp_path / "d"
    if snapshot:
        with DurableStore(data_dir) as store:
            store.snapshot({"default": DynamicIRS([0.5], seed=1)})
    write_frames(data_dir / "wal", [record(1, 1.0), DAMAGED[damage], record(3, 3.0)])
    with WriteAheadLog(data_dir / "wal") as wal:
        assert wal.last_seq == 3  # the open scan reads frames only
        replay = wal.replay()
        assert next(replay).seq == 1
        with pytest.raises(CorruptRecordError):
            next(replay)
    given = {"default": DynamicIRS([0.5], seed=1), "other": DynamicIRS([0.5], seed=2)}
    with DurableStore(data_dir) as store:
        with pytest.raises(CorruptRecordError):
            store.recover(given)
    # Structures absent from the snapshot replay in place: the damage is
    # found before any record touches them.
    for structure in given.values():
        assert structure.export_sorted().tolist() == [0.5]


# -- records written before columns -----------------------------------------

#: A log as a release without column records wrote it: one scalar dict per
#: update value.  It holds scalar and bulk inserts and deletes, a failed
#: delete in each structure, weighted inserts on a weighted structure, a
#: refused weighted insert on an unweighted one, and rid spans.
LEGACY_RECORDS = [
    {"q": 1, "ops": [
        {"k": "i", "v": 4.0}, {"k": "i", "v": 5.0}, {"k": "i", "v": 6.0},
        {"k": "d", "v": 1.0}, {"k": "d", "v": 2.0}, {"k": "d", "v": 99.0},
    ], "r": [["a", 0, 1], ["b", 1, 2], ["c", 3, 1], ["d", 4, 2]]},
    {"q": 2, "ops": [
        {"k": "i", "v": 3.5, "w": 2.0, "s": "w"},
        {"k": "i", "v": 4.5, "w": 0.5, "s": "w"},
        {"k": "i", "v": 5.5, "w": 1.5, "s": "w"},
        {"k": "i", "v": 7.0, "w": 1.0}, {"k": "i", "v": 8.0, "w": 1.0},
        {"k": "d", "v": 1.0, "s": "w"}, {"k": "d", "v": 2.0, "s": "w"},
        {"k": "d", "v": 42.0, "s": "w"},
    ], "r": [["w1", 0, 3], ["refused", 3, 2], [9, 5, 1], ["w2", 6, 2]]},
    {"q": 3, "ops": [{"k": "i", "v": 10.0}, {"k": "d", "v": 4.0}]},
]
#: The same updates as batches, as the server logs them.
LEGACY_BATCHES = [
    ([BatchOp.insert(4.0), BatchOp.insert_bulk([5.0, 6.0]), BatchOp.delete(1.0),
      BatchOp.delete_bulk([2.0, 99.0])],
     [("a", 0, 1), ("b", 1, 2), ("c", 3, 1), ("d", 4, 2)]),
    ([BatchOp.insert(3.5, 2.0, "w"), BatchOp.insert_bulk([4.5, 5.5], [0.5, 1.5], "w"),
      BatchOp.insert_bulk([7.0, 8.0], [1.0, 1.0]), BatchOp.delete(1.0, "w"),
      BatchOp.delete_bulk([2.0, 42.0], "w")],
     [("w1", 0, 3), ("refused", 3, 2), (9, 5, 1), ("w2", 6, 2)]),
    ([BatchOp.insert(10.0), BatchOp.delete(4.0)], None),
]
#: SHA-256 of the segment the last release without columns wrote for
#: LEGACY_BATCHES through ``DurableStore.log_batch``.
LEGACY_SEGMENT_SHA256 = (
    "d89321637e176327b556d360e8c7642cf31caf64099bbea98b2fe9d754a91409"
)


def legacy_payloads(records) -> list[bytes]:
    return [
        (json.dumps(body, separators=(",", ":")) + "\n").encode() for body in records
    ]


def legacy_structures() -> dict:
    return {
        "default": DynamicIRS([1.0, 2.0, 3.0], seed=1),
        "w": WeightedDynamicIRS([1.0, 2.0], [1.0, 1.0], seed=2),
    }


def recovered(data_dir) -> tuple:
    with DurableStore(data_dir) as store:
        report = store.recover(legacy_structures())
    return (
        report.replayed_records,
        report.replayed_ops,
        report.dedup,
        report.structures["default"].export_sorted().tolist(),
        [a.tolist() for a in report.structures["w"].export_sorted_pairs()],
    )


def test_parent_format_log_recovers_unchanged(tmp_path):
    write_frames(tmp_path / "old" / "wal", legacy_payloads(LEGACY_RECORDS))
    old = segment_bytes(tmp_path / "old" / "wal")
    assert hashlib.sha256(old).hexdigest() == LEGACY_SEGMENT_SHA256
    with DurableStore(tmp_path / "new") as store:
        for ops, rids in LEGACY_BATCHES:
            store.log_batch(ops, rids=rids)
    assert segment_bytes(tmp_path / "new" / "wal") != old
    outcome = recovered(tmp_path / "old")
    assert outcome == recovered(tmp_path / "new")
    records, values, dedup, default, weighted = outcome
    assert (records, values) == (3, 16)
    assert default == [3.0, 5.0, 6.0, 10.0]
    assert weighted == [[3.5, 4.5, 5.5], [2.0, 0.5, 1.5]]
    assert {rid: ok for rid, (ok, _) in dedup.items()} == {
        "a": True, "b": True, "c": True, "d": False,
        "w1": True, "refused": False, 9: True, "w2": False,
    }
    assert dedup["d"][1] == {
        "type": "key_not_found", "message": "'value not present: 99.0'",
        "op_index": 1, "applied": 1,
    }
    assert dedup["refused"][1] == {
        "type": "invalid_query",
        "message": "structure 'default' does not accept weighted inserts",
        "op_index": 0, "applied": 0,
    }


def test_mixed_log_replays_in_seq_order(tmp_path):
    data_dir = tmp_path / "d"
    write_frames(data_dir / "wal", legacy_payloads([
        {"q": 1, "ops": [{"k": "i", "v": 5.0}]},
        {"q": 2, "ops": [{"k": "d", "v": 5.0}, {"k": "d", "v": 6.0}],
         "r": [["x", 1, 1]]},
    ]))
    with DurableStore(data_dir) as store:
        assert store.log_batch([BatchOp.insert_bulk([6.0, 5.0])], rids=[("y", 0, 2)]) == 3
        assert store.log_batch(
            [BatchOp.delete(5.0), BatchOp.delete(7.0)], rids=[("z", 0, 2)]
        ) == 4
    raw = segment_bytes(data_dir / "wal")
    bodies = []
    while raw:
        length = struct.unpack_from("<I", raw)[0]
        bodies.append(json.loads(raw[8 : 8 + length]))
        raw = raw[8 + length :]
    # One segment: two records of scalar dicts, then two of columns.
    assert [sorted({key for e in b["ops"] for key in e}) for b in bodies] == [
        ["k", "v"], ["k", "v"], ["b", "k"], ["b", "k"],
    ]
    with DurableStore(data_dir) as store:
        report = store.recover({"default": DynamicIRS([1.0], seed=1)})
    assert (report.replayed_records, report.replayed_ops) == (4, 7)
    # In seq order 6.0 is deleted before it is inserted and 5.0 after;
    # replaying the columns first would leave [1.0] and apply "x".
    assert report.structures["default"].export_sorted().tolist() == [1.0, 6.0]
    assert report.dedup["x"][0] is False
    assert report.dedup["y"] == (True, 2)
    assert report.dedup["z"] == (False, {
        "type": "key_not_found", "message": "'value not present: 7.0'",
        "op_index": 1, "applied": 1,
    })


def test_column_values_round_trip_bit_exactly(tmp_path):
    big = sys.float_info.max
    edge = [-0.0, 0.0, 5e-324, -2.5e-310, big, -big, 1.0 / 3.0]
    weights = [big, 5e-324, 1.0, 2.5e-310, 0.1, 3.0, 7.0]
    with WriteAheadLog(wal_dir(tmp_path)) as wal:
        wal.append([BatchOp.insert(edge[0]), BatchOp.insert_bulk(edge[1:])])
        wal.append([BatchOp.insert_bulk(edge, weights, "w"), BatchOp.delete(-0.0)])
        first, second = wal.replay()

    def bits(values):
        return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()

    (inserts,) = first.ops
    assert bits(inserts.values) == bits(edge) and inserts.weights is None
    weighted, delete = second.ops
    assert (weighted.structure, delete.kind) == ("w", "delete")
    assert bits(weighted.values) == bits(edge)
    assert bits(weighted.weights) == bits(weights)
    assert bits(delete.values) == bits([-0.0])
