"""A real file-backed block device implementing ``StorageBackend``.

One data file holds fixed-size binary slots, one per block; block ``i``
lives at byte offset ``HEADER + i * slot_bytes``.  The EM structures
store three shapes of block content, each with its own binary codec
(NumPy ``tobytes`` out, ``frombuffer`` back):

=====  =======================  =====================================
tag    logical content          payload planes
=====  =======================  =====================================
``0``  data block               ``count`` float64 values
``1``  pre-drawn sample buffer  ``count`` int64 ranks, then ``count``
       (``(rank, value)``       float64 values
       pairs)
``2``  B-tree node              ``count`` float64 separator keys, then
       (``[keys, children]``)   ``count`` int64 child pointers
=====  =======================  =====================================

A slot is ``16 + 16 * block_size`` bytes: a 16-byte header (u32 tag,
u32 count, u64 reserved) plus room for two full planes — node blocks
carry up to ``block_size`` keys *and* as many children, and pair blocks
count a pair as two item slots exactly like the simulated device's space
accounting.  Logical I/O accounting (reads, writes, sequential runs,
allocate/free) matches :class:`~repro.em.device.BlockDevice` transfer
for transfer, which the F17 parity benchmark asserts.

The device is a *cold tier*, not a durability log: allocation state
lives in memory and the file is rewritten from its owning structure on
recovery (see :mod:`repro.store.snapshot`).  ``sync()`` exposes fsync
for callers that want the bytes on disk at a known point.
"""

from __future__ import annotations

import os
import struct

import numpy as _np

from ..errors import BlockNotAllocatedError, CapacityError, StorageError
from ..em.device import IOStats

__all__ = ["FileDevice"]

_MAGIC = b"RIRS-FD1"
_FILE_HEADER = 4096  # one page: magic + block_size, room to grow
_SLOT_HEADER = 16
_TAG_VALUES = 0
_TAG_PAIRS = 1
_TAG_NODE = 2


class FileDevice:
    """Block device over a single binary file (seek/read/write per block).

    Parameters
    ----------
    path:
        The data file.  Created (with its parent directory) if missing;
        an existing file must carry a matching header and block size.
    block_size:
        Item capacity per block (the EM ``B``); must be >= 2.
    """

    def __init__(self, path: str | os.PathLike, block_size: int) -> None:
        if block_size < 2:
            raise CapacityError(f"block size must be >= 2, got {block_size}")
        self.path = os.fspath(path)
        self.block_size = block_size
        self.stats = IOStats()
        self._slot_bytes = _SLOT_HEADER + 16 * block_size
        self._live: set[int] = set()
        self._free_ids: list[int] = []
        self._next_id = 0
        self._last_read = -2
        self._last_write = -2
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        fresh = not os.path.exists(self.path) or os.path.getsize(self.path) == 0
        self._fh = open(self.path, "w+b" if fresh else "r+b")
        if fresh:
            header = _MAGIC + struct.pack("<I", block_size)
            self._fh.write(header.ljust(_FILE_HEADER, b"\0"))
            self._fh.flush()
        else:
            header = self._fh.read(len(_MAGIC) + 4)
            if header[: len(_MAGIC)] != _MAGIC:
                raise StorageError(f"{self.path}: not a FileDevice data file")
            (stored,) = struct.unpack("<I", header[len(_MAGIC) :])
            if stored != block_size:
                raise StorageError(
                    f"{self.path}: block size {stored} on disk, {block_size} requested"
                )

    # -- lifecycle ----------------------------------------------------------

    def allocate(self) -> int:
        """Reserve a new empty block and return its id (no transfer cost)."""
        if self._free_ids:
            bid = self._free_ids.pop()
        else:
            bid = self._next_id
            self._next_id += 1
        self._live.add(bid)
        self.stats.allocated += 1
        return bid

    def free(self, bid: int) -> None:
        """Release a block (no transfer cost); typed error on double free."""
        if bid not in self._live:
            raise BlockNotAllocatedError(f"block {bid} is not allocated")
        self._live.discard(bid)
        self._free_ids.append(bid)
        self.stats.freed += 1

    @property
    def blocks_in_use(self) -> int:
        """Number of live blocks — the structure's space in the EM model."""
        return len(self._live)

    def sync(self) -> None:
        """Flush buffered writes and fsync the data file."""
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()

    def __enter__(self) -> "FileDevice":
        """Context-manager entry (returns self)."""
        return self

    def __exit__(self, *exc) -> None:
        """Context-manager exit: close the file."""
        self.close()

    # -- codec --------------------------------------------------------------

    def _encode(self, items: list) -> bytes:
        if len(items) == 2 and isinstance(items[0], list) and isinstance(items[1], list):
            keys, children = items
            payload = (
                _np.asarray(keys, dtype="<f8").tobytes()
                + _np.asarray(children, dtype="<i8").tobytes()
            )
            return struct.pack("<IIQ", _TAG_NODE, len(keys), 0) + payload
        if items and isinstance(items[0], tuple):
            ranks = _np.asarray([r for r, _ in items], dtype="<i8")
            values = _np.asarray([v for _, v in items], dtype="<f8")
            payload = ranks.tobytes() + values.tobytes()
            return struct.pack("<IIQ", _TAG_PAIRS, len(items), 0) + payload
        payload = _np.asarray(items, dtype="<f8").tobytes()
        return struct.pack("<IIQ", _TAG_VALUES, len(items), 0) + payload

    def _decode(self, raw: bytes) -> list:
        tag, count, _ = struct.unpack_from("<IIQ", raw)
        base = _SLOT_HEADER
        if tag == _TAG_VALUES:
            return _np.frombuffer(raw, dtype="<f8", count=count, offset=base).tolist()
        if tag == _TAG_PAIRS:
            ranks = _np.frombuffer(raw, dtype="<i8", count=count, offset=base)
            values = _np.frombuffer(
                raw, dtype="<f8", count=count, offset=base + 8 * count
            )
            return list(zip(ranks.tolist(), values.tolist()))
        if tag == _TAG_NODE:
            keys = _np.frombuffer(raw, dtype="<f8", count=count, offset=base)
            children = _np.frombuffer(
                raw, dtype="<i8", count=count, offset=base + 8 * count
            )
            return [keys.tolist(), children.tolist()]
        raise StorageError(f"{self.path}: unknown block tag {tag}")

    # -- transfers ----------------------------------------------------------

    def read(self, bid: int) -> list:
        """Transfer one block in (one seek + one slot-sized read)."""
        if bid not in self._live:
            raise BlockNotAllocatedError(f"block {bid} is not allocated")
        self._fh.seek(_FILE_HEADER + bid * self._slot_bytes)
        raw = self._fh.read(self._slot_bytes)
        if len(raw) < _SLOT_HEADER:
            # Allocated but never written: an empty block, like the
            # simulated device's fresh allocation.
            items: list = []
        else:
            items = self._decode(raw)
        self.stats.reads += 1
        if bid == self._last_read + 1:
            self.stats.sequential_reads += 1
        self._last_read = bid
        return items

    def write(self, bid: int, items: list) -> None:
        """Transfer one block out; ``items`` must fit in the block."""
        items = list(items)
        if len(items) > self.block_size:
            # Same rule as the simulated device.  Every legal block then
            # fits its slot physically: <= B values (one plane), <= B
            # (rank, value) pairs or a <= B-fanout node (two planes).
            raise CapacityError(
                f"{len(items)} items exceed block size {self.block_size}"
            )
        if bid not in self._live:
            raise BlockNotAllocatedError(f"block {bid} is not allocated")
        encoded = self._encode(items)
        if len(encoded) > self._slot_bytes:
            raise CapacityError(
                f"{len(items)} items encode to {len(encoded)} bytes, "
                f"slot holds {self._slot_bytes}"
            )
        self._fh.seek(_FILE_HEADER + bid * self._slot_bytes)
        self._fh.write(encoded)
        self.stats.writes += 1
        if bid == self._last_write + 1:
            self.stats.sequential_writes += 1
        self._last_write = bid
