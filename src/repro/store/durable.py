"""The durability facade: one data directory = WAL + snapshot store.

:class:`DurableStore` owns a data directory with the layout::

    <data_dir>/wal/wal-<first_seq>.log   # the write-ahead log segments
    <data_dir>/snapshots/snap-<seq>/     # published snapshots

and implements the recovery invariant the serving layer stands on::

    state  =  snapshot  ⊕  replay(records with seq > snapshot.wal_seq)

The serving layer calls :meth:`log_batch` with each batch's update ops
*before* executing them, :meth:`maybe_snapshot` after (size-triggered
checkpoints), :meth:`snapshot` on graceful shutdown, and
:meth:`recover` on start.  Replay runs the logged ops through the same
:meth:`~repro.batch.BatchQueryRunner.run_mixed` path that executed them
live — with ``capture_errors=True``, so an op that failed live (say a
delete of an absent value) fails identically on replay instead of
aborting it.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from ..batch import BatchOp, BatchQueryRunner
from ..rng import derive_seed
from ..serve.protocol import span_error_body
from .snapshot import SnapshotStore, build_from_sorted
from .wal import WriteAheadLog

__all__ = ["DurableStore", "RecoveryReport"]


@dataclass(slots=True)
class RecoveryReport:
    """What :meth:`DurableStore.recover` found and did."""

    snapshot_seq: int = 0  #: WAL position of the snapshot used (0 = none)
    replayed_records: int = 0  #: WAL records replayed on top of it
    replayed_ops: int = 0  #: updates inside those records, one per value
    structures: dict = field(default_factory=dict)  #: the recovered set
    #: Rebuilt dedup window: rid -> (ok, result-or-error-body), one entry
    #: per request id journaled in the replayed WAL suffix.  The server
    #: seeds its in-memory dedup map from this, so a client retrying an
    #: update it sent before the crash gets the recorded outcome instead
    #: of a second application.
    dedup: dict = field(default_factory=dict)


def _value_errors(ops, errors) -> list:
    """Lay a replayed record's per-op errors out one per update value.

    A scalar op's entry stands as it is; a bulk op's is ``None`` (every
    value applied) or already a list aligned with its values.
    """
    flat: list = []
    for op, error in zip(ops, errors):
        if op.values is None:
            flat.append(error)
        elif error is None:
            flat.extend([None] * len(op.values))
        else:
            flat.extend(error)
    return flat


class DurableStore:
    """WAL + snapshots over one data directory.

    Parameters
    ----------
    data_dir:
        The directory (created if missing).  One store per directory.
    fsync:
        WAL fsync policy — see :class:`~repro.store.wal.WriteAheadLog`.
    snapshot_ops:
        Size trigger: :meth:`maybe_snapshot` checkpoints once this many
        update ops have been logged since the last snapshot.
    segment_bytes / sync_every / file_wrapper:
        Forwarded to the WAL (``file_wrapper`` is the fault-injection
        seam — see :class:`repro.faults.FaultyFile`).
    """

    def __init__(
        self,
        data_dir: str | os.PathLike,
        *,
        fsync: str = "batch",
        snapshot_ops: int = 50_000,
        segment_bytes: int = 64 << 20,
        sync_every: int = 256,
        file_wrapper=None,
    ) -> None:
        if snapshot_ops < 1:
            raise ValueError("snapshot_ops must be >= 1")
        self.data_dir = os.fspath(data_dir)
        os.makedirs(self.data_dir, exist_ok=True)
        self.wal = WriteAheadLog(
            os.path.join(self.data_dir, "wal"),
            fsync=fsync,
            segment_bytes=segment_bytes,
            sync_every=sync_every,
            file_wrapper=file_wrapper,
        )
        self.snapshots = SnapshotStore(os.path.join(self.data_dir, "snapshots"))
        # The sequence floor: a checkpoint may delete every segment it
        # covers, and a log reopened empty would number new records from
        # 1 — at or below the snapshot, where recovery skips them.
        latest = self.snapshots.latest()
        if latest is not None:
            self.wal.last_seq = max(self.wal.last_seq, latest[0])
        self.snapshot_ops = int(snapshot_ops)
        self._ops_since_snapshot = 0
        #: Update values logged by this store (a bulk op counts its
        #: values), pulled at scrape time beside the WAL's byte count.
        self.values_logged = 0
        # The size trigger fires at this many ops since the last snapshot;
        # a failed checkpoint pushes it another snapshot_ops ops out.
        self._snapshot_due = self.snapshot_ops
        # Checkpoint instruments (pulled at scrape time).
        self.snapshots_taken = 0
        self.last_snapshot_seconds = 0.0
        self.snapshot_seconds_total = 0.0

    # -- logging -------------------------------------------------------------

    @property
    def last_seq(self) -> int:
        """The WAL's current highest sequence number."""
        return self.wal.last_seq

    @property
    def ops_since_snapshot(self) -> int:
        """Updates logged (or replayed) since the last checkpoint.

        A bulk op counts one per value, as its WAL record's rid spans do.
        """
        return self._ops_since_snapshot

    def log_batch(self, ops, rids=None) -> int | None:
        """Append one batch of update ops; return its seq (None if empty).

        ``rids`` optionally journals client idempotency keys as
        ``(rid, start, n)`` spans over the record's update values, a bulk
        op holding one per value — see
        :meth:`~repro.store.wal.WriteAheadLog.append`.
        """
        ops = list(ops)
        if not ops:
            return None
        seq = self.wal.append(ops, rids=rids)
        values = sum(op.size if isinstance(op, BatchOp) else 1 for op in ops)
        self._ops_since_snapshot += values
        self.values_logged += values
        return seq

    # -- checkpointing -------------------------------------------------------

    def should_snapshot(self) -> bool:
        """True once enough updates accumulated since the last snapshot.

        After a failed checkpoint it turns true again only once another
        ``snapshot_ops`` update ops have been logged.
        """
        return self._ops_since_snapshot >= self._snapshot_due

    def maybe_snapshot(self, structures) -> int | None:
        """Checkpoint if the size trigger fired; return the seq or None."""
        if not self.should_snapshot():
            return None
        return self.snapshot(structures)

    def snapshot(self, structures) -> int:
        """Checkpoint ``structures`` at the current WAL position.

        A structure the snapshot store refuses raises
        :class:`~repro.errors.StorageError` before anything is paid.  The
        WAL is then fsynced so the snapshot can never claim to cover
        records that are not themselves durable; after publication the
        covered WAL segments are deleted by name, reading no record, so
        a checkpoint costs one snapshot write however much the WAL holds.
        """
        started = time.perf_counter()
        try:
            specs = self.snapshots.resolve(structures)
            self.wal.sync()
            seq = self.wal.last_seq
            self.snapshots.save(specs, seq)
            self.wal.truncate_through(seq)
        except Exception:
            self._snapshot_due = self._ops_since_snapshot + self.snapshot_ops
            raise
        self._ops_since_snapshot = 0
        self._snapshot_due = self.snapshot_ops
        self.snapshots_taken += 1
        self.last_snapshot_seconds = time.perf_counter() - started
        self.snapshot_seconds_total += self.last_snapshot_seconds
        return seq

    # -- recovery ------------------------------------------------------------

    def recover(self, structures, *, seed: int | None = None) -> RecoveryReport:
        """Rebuild state from the newest snapshot plus the WAL suffix.

        ``structures`` is the freshly built name -> sampler mapping (the
        server's cold-start state, e.g. from ``--data``); structures
        present in the snapshot are *replaced* by their O(n)
        ``from_sorted`` rebuild, others stay as given.  The WAL records
        beyond the snapshot then replay through the batch engine.  With
        no snapshot the whole WAL replays into the given structures.

        ``seed`` (optional) re-seeds the rebuilt structures'
        *internal* streams deterministically.  Served replies only
        depend on it for requests without a client seed — seeded
        requests are reproducible regardless, which is what the
        byte-identical recovery guarantee is stated over.

        Replay decodes each record once, as it applies it.  When a given
        structure is absent from the snapshot it replays in place, so the
        suffix is decoded once up front too: a record that does not parse
        then raises :class:`~repro.errors.CorruptRecordError` before the
        caller's structures change.
        """
        report = RecoveryReport(structures=dict(structures))
        loaded = {}
        entry = self.snapshots.latest()
        if entry is not None:
            report.snapshot_seq, manifest = entry
            loaded = self.snapshots.load(manifest)
            for index, (name, (spec, values, weights)) in enumerate(
                sorted(loaded.items())
            ):
                rebuilt_seed = None if seed is None else derive_seed(seed, index)
                report.structures[name] = build_from_sorted(
                    spec, values, weights, seed=rebuilt_seed
                )
        if self.wal.last_seq > report.snapshot_seq:
            if any(name not in loaded for name in structures):
                for _record in self.wal.replay(after_seq=report.snapshot_seq):
                    pass
            runner = BatchQueryRunner(report.structures)
            for record in self.wal.replay(after_seq=report.snapshot_seq):
                mixed = runner.run_mixed(record.ops, capture_errors=True)
                report.replayed_records += 1
                report.replayed_ops += sum(op.size for op in record.ops)
                if not record.rids:
                    continue
                # Rebuild each journaled request's outcome from the replay:
                # capture_errors reproduces the live run's per-value
                # results, so the dedup entry matches the reply the client
                # was (or would have been) sent.
                errors = _value_errors(record.ops, mixed.errors)
                for rid, start, n in record.rids:
                    body = span_error_body(errors[start : start + n])
                    report.dedup[rid] = (True, n) if body is None else (False, body)
        self._ops_since_snapshot = report.replayed_ops
        return report

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Close the WAL (fsyncing under the durable policies)."""
        self.wal.close()

    def __enter__(self) -> "DurableStore":
        """Context-manager entry (returns self)."""
        return self

    def __exit__(self, *exc) -> None:
        """Context-manager exit: close the store."""
        self.close()
