"""Write-ahead log of coalesced update batches.

The serving layer already turns concurrent client writes into ordered
:class:`~repro.batch.BatchOp` batches — the WAL logs exactly that stream,
one record per *batch* (not per request), so logging cost amortizes the
same way execution does.

Record format (little-endian), back to back inside segment files::

    [u32 payload_len][u32 crc32(payload)][payload bytes]

The payload is one newline-terminated JSON line — the serving layer's
own wire encoding (:func:`repro.serve.protocol.encode`) of
``{"q": seq, "ops": ops_to_wire(ops)}``, plus ``"r"`` (the rid spans)
when given.  Each run of consecutive inserts (or deletes) on one
structure is one *column* entry, ``{"k": "i", "b": <base64 of the
values as little-endian float64>}`` plus ``"w"`` (the weights, the same
way) and ``"s"`` (the structure) when present; scalar and bulk ops
(:meth:`~repro.batch.BatchOp.insert_bulk`) alike join it, so a bulk op
logs the bytes of the scalar ops it stands for.  A segment stays
inspectable: ``xxd`` plus any JSON tool reads a record, and one line of
``base64`` plus NumPy (``np.frombuffer(base64.b64decode(entry["b"]),
"<f8")``) its values.  A replayed record yields a column as one bulk
op; records written before columns, with one ``{"k": "i", "v": 2.5}``
dict per value, still replay as scalar ops.

Durability knobs:

* ``fsync="always"`` — flush + ``fsync`` after every record.  A record
  accepted is a record on disk; survives power loss.
* ``fsync="batch"`` (default) — flush to the OS after every record,
  ``fsync`` every ``sync_every`` records and on rotation/close.
  Survives process ``kill -9`` (the page cache persists); a machine
  crash may lose the records since the last sync.
* ``fsync="off"`` — flush to the OS after every record, never fsync.
  Same process-crash guarantee, no power-loss guarantee.

Segments rotate at ``segment_bytes``.  Opening a log scans frames and
checksums only, decoding just the last complete record for its sequence
number; a short or checksum-failing *tail* record is a torn write
(truncated, logged in :attr:`WriteAheadLog.torn_tail`), while a bad
frame *before* the tail raises :class:`~repro.errors.CorruptRecordError`.
Replay walks segments in name order and decodes each record once, as it
yields it: a record whose checksum passes but whose body does not parse
raises :class:`~repro.errors.CorruptRecordError` there, before any
record after it.

Two guarantees the serving layer's exactly-once story stands on:

* **Appends are atomic.**  If anything fails mid-append — a write, a
  flush, an fsync — the partially written frame is rolled back (the
  segment truncated to its pre-append length) before the error
  propagates, so a failed ``append`` leaves no record behind and the
  caller may safely re-log.  If the rollback itself fails the log marks
  itself :attr:`broken` and refuses further appends: only a restart
  (whose open-time scan truncates the torn tail) can make the file
  trustworthy again.
* **Request ids ride in the record.**  ``append(ops, rids=...)`` journals
  the client idempotency-key spans alongside the ops, counted in update
  values (a bulk op or a column counts one per value); replay returns
  them on :class:`WalRecord`, which is how the server's dedup window
  survives crash recovery.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass

from ..batch import BatchOp
from ..batch.runner import _normalize_op
from ..errors import CorruptRecordError, StorageError
from ..serve.protocol import encode as _encode_line
from ..serve.protocol import op_from_wire, ops_to_wire

__all__ = ["WriteAheadLog", "WalRecord", "FSYNC_POLICIES"]

FSYNC_POLICIES = ("always", "batch", "off")

_HEADER = struct.Struct("<II")
_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"


@dataclass(frozen=True, slots=True)
class WalRecord:
    """One replayed record: sequence number, decoded ops, and rid spans.

    ``ops`` holds one bulk op per column entry and one scalar op per
    scalar dict (every update of a record written before columns); the
    log holds updates only.  ``rids`` is ``None`` for records logged
    without request ids (the pre-resilience format and rid-less
    batches), else a list of ``(rid, start, n)`` tuples: the request
    with idempotency key ``rid`` contributed values ``start`` to
    ``start + n - 1`` of the record's ops laid end to end, a bulk op
    contributing one per value.
    """

    seq: int
    ops: list
    rids: list | None = None


def _segment_name(first_seq: int) -> str:
    return f"{_SEGMENT_PREFIX}{first_seq:016d}{_SEGMENT_SUFFIX}"


def _segment_first_seq(name: str) -> int:
    return int(name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)])


class WriteAheadLog:
    """Append-only, checksummed, segment-rotated log of op batches.

    Parameters
    ----------
    directory:
        Segment directory (created if missing).
    fsync:
        One of :data:`FSYNC_POLICIES`; see the module docstring.
    segment_bytes:
        Rotation threshold: a segment that reaches this size is fsynced,
        closed, and a new one started.
    sync_every:
        Under ``fsync="batch"``: fsync after this many appended records.
    file_wrapper:
        Optional callable applied to every segment file handle as it is
        opened for append (fault injection hook — see
        :class:`repro.faults.FaultyFile`).  A wrapper providing an
        ``fsync()`` method takes over fsync duty for its handle.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        fsync: str = "batch",
        segment_bytes: int = 64 << 20,
        sync_every: int = 256,
        file_wrapper=None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}")
        if segment_bytes < 1 or sync_every < 1:
            raise ValueError("segment_bytes and sync_every must be >= 1")
        self.directory = os.fspath(directory)
        self.fsync = fsync
        self.segment_bytes = int(segment_bytes)
        self.sync_every = int(sync_every)
        self.file_wrapper = file_wrapper
        self.torn_tail: tuple[str, int] | None = None  # (segment, offset) truncated
        self.broken = False  # a failed append could not be rolled back
        # Plain-int instruments, pulled by the observability registry at
        # scrape time — appending must never pay more than integer adds.
        self.appends = 0
        self.fsyncs = 0
        self.rotations = 0
        self.bytes_written = 0
        os.makedirs(self.directory, exist_ok=True)
        self._fh = None
        self._unsynced = 0
        self.last_seq = 0
        self._scan_existing()

    # -- startup ------------------------------------------------------------

    def _segments(self) -> list[str]:
        names = [
            name
            for name in os.listdir(self.directory)
            if name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX)
        ]
        return sorted(names)

    def _scan_existing(self) -> None:
        """Find the highest durable sequence number; truncate a torn tail.

        The scan checks frames and checksums only, and decodes just the
        last complete record, for its sequence number: replay decodes the
        rest, once.  Only the last segment can have a torn tail (earlier
        segments were fsynced on rotation), so a bad frame anywhere else
        is damage and raises here.
        """
        names = self._segments()
        last = None  # (segment, offset, payload) of the last complete record
        for i, name in enumerate(names):
            for payload, offset, ok in self._iter_segment(name):
                if not ok:
                    if i < len(names) - 1:
                        raise CorruptRecordError(
                            f"{name}: corrupt record at offset {offset} "
                            "before the log tail"
                        )
                    path = os.path.join(self.directory, name)
                    with open(path, "r+b") as fh:
                        fh.truncate(offset)
                        fh.flush()
                        os.fsync(fh.fileno())
                    self.torn_tail = (name, offset)
                    break
                last = (name, offset, payload)
        if last is not None:
            self.last_seq = _decode(*last).seq

    def _iter_segment(self, name: str):
        """Yield ``(payload_or_None, start_offset, ok)`` per frame of a segment.

        Frames and checksums only; a short or checksum-failing frame ends
        the segment with ``ok`` false.
        """
        path = os.path.join(self.directory, name)
        with open(path, "rb") as fh:
            offset = 0
            while True:
                header = fh.read(_HEADER.size)
                if not header:
                    return
                if len(header) < _HEADER.size:
                    yield None, offset, False
                    return
                length, crc = _HEADER.unpack(header)
                payload = fh.read(length)
                if len(payload) < length or zlib.crc32(payload) != crc:
                    yield None, offset, False
                    return
                yield payload, offset, True
                offset += _HEADER.size + length

    # -- appending ----------------------------------------------------------

    def _open_path(self, path: str) -> None:
        fh = open(path, "ab")
        if self.file_wrapper is not None:
            fh = self.file_wrapper(fh)
        self._fh = fh

    def _open_segment(self, first_seq: int) -> None:
        self._open_path(os.path.join(self.directory, _segment_name(first_seq)))

    def _rotate_if_needed(self, next_seq: int) -> None:
        if self._fh is None:
            names = self._segments()
            if names:
                # Keep appending to the newest segment until it fills.
                self._open_path(os.path.join(self.directory, names[-1]))
            else:
                self._open_segment(next_seq)
            return
        if self._fh.tell() >= self.segment_bytes:
            self._sync_file()
            self._fh.close()
            self._open_segment(next_seq)
            self.rotations += 1

    def _sync_file(self) -> None:
        if self._fh is not None:
            # A wrapped handle that knows how to fsync itself (the fault
            # injection seam) takes precedence over the raw-fd path.
            fsync = getattr(self._fh, "fsync", None)
            if fsync is not None:
                fsync()
            else:
                self._fh.flush()
                os.fsync(self._fh.fileno())
            self._unsynced = 0
            self.fsyncs += 1

    def append(self, ops, rids=None) -> int:
        """Append one batch of ops; return its sequence number.

        The record is always *flushed to the OS* before return (a
        subsequent process ``kill -9`` cannot lose it); whether it is
        also fsynced is the policy's call.  Ops are updates, as
        :class:`~repro.batch.BatchOp` instances (bulk ones included) or
        the tuple shorthands the batch runner accepts; each run of them
        logs as one column (see the module docstring), and a read op
        raises ``ValueError`` before anything is written.  ``rids``
        optionally journals request idempotency keys as
        ``(rid, start, n)`` spans over the record's update values, where
        a bulk op contributes one per value.

        The append is atomic: on any failure the partial frame is rolled
        back before the exception propagates, so the record either fully
        exists or does not exist at all.  A rollback that itself fails
        marks the log :attr:`broken`; every later append raises
        :class:`~repro.errors.StorageError` until a restart re-scans and
        truncates the file.
        """
        if self.broken:
            raise StorageError(
                "write-ahead log is broken (a failed append could not be "
                "rolled back); restart to recover"
            )
        ops = [op if isinstance(op, BatchOp) else _normalize_op(op) for op in ops]
        seq = self.last_seq + 1
        body = {"q": seq, "ops": ops_to_wire(ops)}
        if rids:
            body["r"] = [[rid, int(start), int(n)] for rid, start, n in rids]
        payload = _encode_line(body)
        self._rotate_if_needed(seq)
        start = self._fh.tell()
        try:
            self._fh.write(_HEADER.pack(len(payload), zlib.crc32(payload)) + payload)
            self._fh.flush()
            if self.fsync == "always":
                self._sync_file()
            elif self.fsync == "batch":
                self._unsynced += 1
                if self._unsynced >= self.sync_every:
                    self._sync_file()
        except Exception:
            self._rollback(start)
            raise
        self.last_seq = seq
        self.appends += 1
        self.bytes_written += _HEADER.size + len(payload)
        return seq

    def _rollback(self, start: int) -> None:
        """Erase a partially appended frame so a failed append is atomic.

        The segment is truncated back to its pre-append length through
        the (possibly wrapped) handle; the handle is then abandoned and
        the next append reopens the segment fresh.  ``truncate`` on a
        buffered writer flushes its buffer first, and the file is in
        append mode, so any straggler bytes land beyond ``start`` and are
        cut with the frame.  If the truncate fails the partial frame is
        stranded on disk and the log goes :attr:`broken` — exactly the
        state the open-time torn-tail scan repairs.
        """
        fh, self._fh = self._fh, None
        try:
            fh.truncate(start)
            fh.close()
        except Exception:
            self.broken = True
            try:
                fh.close()
            except Exception:  # pragma: no cover - best-effort cleanup
                pass

    def sync(self) -> None:
        """Force an fsync of the active segment (any policy)."""
        self._sync_file()

    # -- replay / truncation -------------------------------------------------

    def replay(self, after_seq: int = 0):
        """Yield :class:`WalRecord` for every record with ``seq > after_seq``.

        Records arrive in sequence order; a torn tail was already
        truncated at open time, so iteration never surfaces one.  Each
        record is decoded as it is reached (the ops of records at or below
        ``after_seq`` not at all), so a record that passes its checksum
        but does not parse raises :class:`~repro.errors.CorruptRecordError`
        before any record after it is yielded.
        """
        for name in self._segments():
            for payload, offset, ok in self._iter_segment(name):
                if not ok:  # pragma: no cover - tail truncated at open
                    return
                record = _decode(name, offset, payload, after_seq)
                if record is not None:
                    yield record

    def truncate_through(self, seq: int) -> int:
        """Delete segments whose records are *all* ``<= seq``; return count.

        Called after a snapshot at WAL position ``seq``: those records
        are now redundant.  A segment straddling the boundary stays (its
        prefix is simply re-skipped on replay).  The decision reads no
        record — segment names and :attr:`last_seq` settle it — so a
        checkpoint's cost does not grow with the active segment.
        """
        names = self._segments()
        removed = 0
        for name, nxt in zip(names, names[1:] + [None]):
            if nxt is None:
                # The newest segment holds no record above last_seq; it
                # goes only when that is covered and it is not open for
                # append.
                covered = self._fh is None and self.last_seq <= seq
            else:
                # Every record in `name` is < the next segment's first
                # seq, so that first seq <= seq + 1 means fully covered.
                covered = _segment_first_seq(nxt) <= seq + 1
            if covered:
                os.unlink(os.path.join(self.directory, name))
                removed += 1
        return removed

    def close(self) -> None:
        """Fsync (unless policy ``off``) and close the active segment."""
        if self._fh is not None:
            if self.fsync != "off":
                self._sync_file()
            else:
                self._fh.flush()
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "WriteAheadLog":
        """Context-manager entry (returns self)."""
        return self

    def __exit__(self, *exc) -> None:
        """Context-manager exit: close the log."""
        self.close()


def _decode(name: str, offset: int, payload: bytes, after_seq: int = 0):
    """Decode one record's payload (``None`` if its seq is ``<= after_seq``)."""
    try:
        body = json.loads(payload)
        seq = int(body["q"])
        if seq <= after_seq:
            return None
        rids = body.get("r")
        if rids is not None:
            rids = [(rid, int(start), int(n)) for rid, start, n in rids]
        return WalRecord(seq, [op_from_wire(w) for w in body["ops"]], rids)
    except (ValueError, KeyError, TypeError, AttributeError):
        # CRC passed but the body does not parse: not a torn write,
        # actual damage.
        raise CorruptRecordError(
            f"{name}: undecodable record at offset {offset}"
        ) from None
