"""External-memory static IRS — result R3 of the paper (reconstruction).

Target bound: ``O(log_B n + t/B)`` amortized expected I/Os per query with
exact uniformity and full independence, using the substrate in
:mod:`repro.em`.  See DESIGN.md §2.2 for the analysis and the recorded
deviations.  The key obstacle is that ``t`` *fresh* uniform ranks touch up
to ``min(t, K/B)`` distinct blocks, so per-sample random probes can never
beat ``Θ(t)`` I/Os.  The structure instead spends its randomness ahead of
time:

* rank space is covered by dyadic *pieces* at every level from
  ``⌈log₂ B⌉`` up — a piece at level ``ℓ`` spans ``2^ℓ`` consecutive ranks;
* each piece lazily maintains a buffer of ``Θ(2^ℓ)`` **pre-drawn iid uniform
  samples of its own ranks**, stored as ``(rank, value)`` pairs packed many
  to a block.  Refilling the buffer draws fresh ranks and resolves them in a
  single sequential scan of the piece — ``O(len/B)`` I/Os amortized over the
  ``Θ(len)`` pops the refill serves;
* a query with rank interval ``[a, b)`` of length ``K > B`` picks the level
  with ``2^ℓ ≥ K`` (the interval then meets at most two pieces), and per
  sample: choose a piece proportionally to the overlap, pop its next
  pre-drawn sample, and accept iff the rank lands inside ``[a, b)``.
  Acceptance is at least 1/4 per trial, and consecutive pops hit the same
  buffer block through the pool, so a sample costs ``O(1/B)`` amortized
  I/Os.  Each pre-drawn sample is consumed at most once, so query results
  are mutually independent — including repeats of the same query;
* ``K ≤ B``: the interval spans at most two data blocks — read them and
  sample in memory.
"""

from __future__ import annotations

from typing import Iterable

import numpy as _np

from ..em.btree import EMBTree
from ..em.device import BlockDevice, IOStats
from ..em.pool import BufferPool
from ..em.sorted_file import EMSortedFile
from ..rng import RandomSource
from ..rng import generator as _generator
from ..types import QueryStats
from .base import RangeSampler, validate_point, validate_query

__all__ = ["ExternalIRS"]


class _PieceBuffer:
    """Pre-drawn sample store for one dyadic piece of rank space."""

    __slots__ = (
        "start",
        "length",
        "block_ids",
        "cursor",
        "entries",
        "refills",
        "next_fill",
    )

    def __init__(self, start: int, length: int, first_fill: int) -> None:
        self.start = start
        self.length = length
        self.block_ids: list[int] = []
        self.cursor = 0  # next unconsumed entry, global over the buffer
        self.entries = 0  # total entries currently buffered
        self.refills = 0
        # Geometric fill schedule: the first refill is small so a piece that
        # only ever serves a few pops doesn't pay for a full-length buffer;
        # each refill doubles the size up to the steady-state Θ(length).
        self.next_fill = max(1, min(first_fill, length))


class ExternalIRS(RangeSampler):
    """External-memory uniform IRS over a static point set.

    Parameters
    ----------
    values:
        The point set; sorted internally.
    block_size:
        Items per block (``B``).
    pool_capacity:
        Buffer-pool frames (``M/B``); defaults to a small constant multiple
        of the tree height so the experiments measure the structure, not a
        giant cache.
    seed:
        Seed of the private random stream.
    min_level:
        Smallest dyadic level that keeps a sample buffer.  Defaults to
        ``ceil(log2(block_size))``; raised by the ablation experiment F11 to
        trade buffer space against direct-read work for small ``K``.
    buffer_factor:
        Buffer entries per piece, as a multiple of the piece length.
    """

    def __init__(
        self,
        values: Iterable[float],
        block_size: int = 1024,
        pool_capacity: int | None = None,
        seed: int | None = None,
        min_level: int | None = None,
        buffer_factor: float = 1.0,
        device=None,
    ) -> None:
        self._init_from_sorted(
            sorted(values), block_size, pool_capacity, seed, min_level,
            buffer_factor, device,
        )

    @classmethod
    def from_sorted(
        cls,
        values: Iterable[float],
        block_size: int = 1024,
        pool_capacity: int | None = None,
        seed: int | None = None,
        min_level: int | None = None,
        buffer_factor: float = 1.0,
        device=None,
    ) -> "ExternalIRS":
        """O(n) fast constructor over already-sorted input (skips the sort).

        Sortedness is enforced by the underlying
        :class:`~repro.em.sorted_file.EMSortedFile`, which raises
        :class:`ValueError` on a decreasing pair while streaming the input
        to blocks.  A NaN point raises
        :class:`~repro.errors.InvalidQueryError` before any block is
        written.
        """
        self = cls.__new__(cls)
        self._init_from_sorted(
            list(values), block_size, pool_capacity, seed, min_level,
            buffer_factor, device,
        )
        return self

    def _init_from_sorted(
        self,
        data,
        block_size: int,
        pool_capacity: int | None,
        seed: int | None,
        min_level: int | None,
        buffer_factor: float,
        device=None,
    ) -> None:
        # A stored NaN could never be counted, sampled by range or found
        # again; refuse it before a block reaches the device.
        for value in data:
            validate_point(value)
        self._rng = RandomSource(seed)
        # Any StorageBackend works: the default is the paper's simulated
        # device; pass a repro.store.FileDevice for a real on-disk cold
        # tier (same code path, same logical I/O accounting).
        if device is None:
            device = BlockDevice(block_size)
        elif device.block_size != block_size:
            block_size = device.block_size
        self.device = device
        if pool_capacity is None:
            pool_capacity = 16
        self.pool = BufferPool(self.device, pool_capacity)
        self.file = EMSortedFile(self.pool, data)
        self.tree = EMBTree(self.file)
        self.pool.flush()
        n = self.file.n
        if min_level is None:
            min_level = max(1, (block_size - 1).bit_length())
        self.min_level = min_level
        self.buffer_factor = buffer_factor
        max_level = max(min_level, (max(n, 1) - 1).bit_length())
        self.max_level = max_level
        # pieces[ℓ][p] covers ranks [p * 2^ℓ, (p + 1) * 2^ℓ) ∩ [0, n).
        self._pieces: dict[int, list[_PieceBuffer]] = {}
        for level in range(min_level, max_level + 1):
            length = 1 << level
            row = []
            for start in range(0, n, length):
                row.append(
                    _PieceBuffer(start, min(length, n - start), 4 * block_size)
                )
            self._pieces[level] = row
        # Entries are (rank, value) pairs: count a pair as two item slots so
        # the space accounting stays honest.
        self._entries_per_block = max(1, block_size // 2)
        self.stats = QueryStats()
        self._bulk_gen = None  # lazily-spawned NumPy side stream (sample_bulk)
        self.construction_io = self.device.stats.snapshot()

    # -- bookkeeping ------------------------------------------------------------

    def __len__(self) -> int:
        return self.file.n

    def io_delta(self, before: IOStats) -> IOStats:
        """Return device I/O performed since ``before`` (a snapshot)."""
        return self.device.stats.delta(before)

    def close(self) -> None:
        """Flush the pool and close the device if it owns real resources."""
        self.pool.flush()
        close = getattr(self.device, "close", None)
        if close is not None:
            close()

    def count(self, lo: float, hi: float) -> int:
        validate_query(lo, hi, 0)
        a, b = self.tree.rank_range(lo, hi)
        return b - a

    def report(self, lo: float, hi: float) -> list[float]:
        validate_query(lo, hi, 0)
        a, b = self.tree.rank_range(lo, hi)
        return list(self.file.scan(a, b))

    def export_sorted(self):
        """Return every stored point as a sorted array (shard-engine hook).

        One full sequential scan of the file — ``O(n/B)`` I/Os, charged to
        the device stats like any other scan.  The shard engine calls this
        once per snapshot, not per query.
        """
        return _np.asarray(list(self.file.scan(0, self.file.n)), dtype=float)

    @property
    def buffer_blocks(self) -> int:
        """Blocks currently held by sample buffers (space accounting)."""
        return sum(
            len(piece.block_ids)
            for row in self._pieces.values()
            for piece in row
        )

    # -- sampling -----------------------------------------------------------------

    def sample(self, lo: float, hi: float, t: int) -> list[float]:
        validate_query(lo, hi, t)
        a, b = self.tree.rank_range(lo, hi)
        if self._require_nonempty(b - a, t):
            return []
        self.stats.queries += 1
        self.stats.samples_returned += t
        K = b - a
        if K <= self.file.block_size:
            pool_values = list(self.file.scan(a, b))
            rng = self._rng
            return [pool_values[rng.randrange(K)] for _ in range(t)]
        level = max(self.min_level, (K - 1).bit_length())
        length = 1 << level
        row = self._pieces[level]
        first = row[a // length]
        last = row[(b - 1) // length]
        k_first = min(b, first.start + first.length) - a
        out: list[float] = []
        rng = self._rng
        while len(out) < t:
            if first is last or rng.randrange(K) < k_first:
                piece = first
            else:
                piece = last
            rank, value = self._pop(piece)
            if a <= rank < b:
                out.append(value)
            else:
                self.stats.rejections += 1
        return out

    def sample_bulk(self, lo: float, hi: float, t: int, *, seed=None):
        """Vectorized :meth:`sample` returning a NumPy array.

        Semantics match :meth:`sample` (``t`` iid uniform in-range values),
        with randomness from a NumPy side stream spawned once via
        :meth:`RandomSource.spawn_numpy` (draw accounting differs from the
        scalar path by design); an explicit ``seed`` overrides the side
        stream (seed-addressable draws).  Instead of consuming the
        per-piece sample
        buffers, the bulk path draws all ``t`` ranks at once, groups them
        by data block, and resolves each touched block with exactly one
        pool access and one vectorized gather — ``O(min(t, K/B))`` block
        reads per query, issued in ascending block order so the pool sees a
        sequential pass rather than ``t`` random probes.
        """
        validate_query(lo, hi, t)
        a, b = self.tree.rank_range(lo, hi)
        if self._require_nonempty(b - a, t):
            return _np.empty(0, dtype=float)
        self.stats.queries += 1
        self.stats.samples_returned += t
        if seed is not None:
            gen = _generator(seed)
        else:
            if self._bulk_gen is None:
                self._bulk_gen = self._rng.spawn_numpy()
            gen = self._bulk_gen
        ranks = gen.integers(a, b, size=t)
        size = self.file.block_size
        blocks = ranks // size
        order = _np.argsort(blocks, kind="stable")
        uniq, starts = _np.unique(blocks[order], return_index=True)
        ends = _np.append(starts[1:], t)
        out = _np.empty(t, dtype=float)
        for block_index, g0, g1 in zip(uniq.tolist(), starts.tolist(), ends.tolist()):
            frame = _np.asarray(self.file.block_of(block_index * size), dtype=float)
            sel = order[g0:g1]
            out[sel] = frame[ranks[sel] - block_index * size]
        return out

    def _pop(self, piece: _PieceBuffer) -> tuple[int, float]:
        """Consume the next pre-drawn ``(rank, value)`` entry of ``piece``."""
        if piece.cursor >= piece.entries:
            self._refill(piece)
        per = self._entries_per_block
        block = self.pool.get(piece.block_ids[piece.cursor // per])
        entry = block[piece.cursor % per]
        piece.cursor += 1
        return entry

    def _refill(self, piece: _PieceBuffer) -> None:
        """Redraw the piece's buffer with fresh iid uniform samples.

        One sequential scan of the piece's data blocks resolves all drawn
        ranks to values; the (rank, value) pairs are then written out in
        their *draw* order, which is the order :meth:`_pop` will consume, so
        every consumed entry is a fresh iid uniform sample of the piece.
        """
        piece.refills += 1
        self.stats.extra["refills"] = self.stats.extra.get("refills", 0) + 1
        ceiling = max(1, int(self.buffer_factor * piece.length))
        m = min(piece.next_fill, ceiling)
        piece.next_fill = min(piece.next_fill * 2, ceiling)
        ranks = self._rng.randranges(piece.length, m)
        # Resolve ranks via one in-order pass over the piece's blocks.
        by_block: dict[int, list[int]] = {}
        size = self.file.block_size
        for i, r in enumerate(ranks):
            by_block.setdefault((piece.start + r) // size, []).append(i)
        values: list[float | None] = [None] * m
        for block_index in sorted(by_block):
            block = self.file.block_of(block_index * size)
            base = block_index * size
            for i in by_block[block_index]:
                values[i] = block[piece.start + ranks[i] - base]
        # Reuse previously allocated buffer blocks where possible.
        per = self._entries_per_block
        needed = -(-m // per)
        while len(piece.block_ids) < needed:
            piece.block_ids.append(self.device.allocate())
        while len(piece.block_ids) > needed:
            bid = piece.block_ids.pop()
            self.pool.invalidate(bid)
            self.device.free(bid)
        for j in range(needed):
            chunk = [
                (piece.start + ranks[i], values[i])
                for i in range(j * per, min((j + 1) * per, m))
            ]
            self.pool.put(piece.block_ids[j], chunk)
        piece.cursor = 0
        piece.entries = m
