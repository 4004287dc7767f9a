"""A packed-memory array (PMA) with density-bounded windows.

The PMA keeps ``m`` items in order inside an array of ``capacity >= m``
cells, leaving gaps so that insertions and deletions only shift ``O(log^2 m)``
cells amortized.  Its role in this library is to make the *middle* part of a
dynamic IRS query samplable in ``O(1)`` expected time: a run of consecutive
items occupies a contiguous window of cells whose density is bounded below,
so "pick a uniform cell, reject gaps" terminates in expected ``O(1)`` probes.

Density invariants (classic Itai–Konheim–Rodeh / Bender–Demaine–Farach-Colton
scheme): the array is split into leaf *segments* of ``Θ(log capacity)`` cells;
conceptual windows double in size up to the whole array.  A window at height
``h`` (leaf = 0, root = d) must keep its density within ``[rho(h), tau(h)]``
where ``tau`` shrinks and ``rho`` grows toward the root.  An update that
violates its leaf's threshold rebalances the smallest enclosing window that
is back within threshold, spreading items evenly; if the root itself is out
of range the array is resized.

Items are arbitrary objects.  Whenever an item's cell index changes, the
``on_move(item, index)`` callback fires, so owners can track their own
position in ``O(1)``.

Status: **retired from the production import graph.**  Since the
array-directory rewrite of :class:`~repro.core.dynamic_irs.DynamicIRS`
(DESIGN.md §5/§8), no core sampler uses the PMA — it lives on under
``baselines`` as a standalone, tested ablation substrate (benchmarked by
``bench_m1_substrates``) for directory designs that need stable
density-bounded cell addressing, with :meth:`PackedMemoryArray.bulk_load`
as its one-shot construction primitive.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

__all__ = ["PackedMemoryArray"]

# Density thresholds at the leaves and at the root.  The sampler's rejection
# analysis relies on RHO_LEAF: any fully-used leaf segment keeps density at
# least RHO_LEAF, hence any window spanning >= 2 segments has density at
# least about RHO_LEAF / 3.
TAU_ROOT = 0.60
TAU_LEAF = 1.00
RHO_ROOT = 0.40
RHO_LEAF = 0.20

_MIN_CAPACITY = 8


class PackedMemoryArray:
    """Order-preserving array of items with bounded gap density.

    Parameters
    ----------
    on_move:
        Callback ``(item, new_index)`` fired whenever an item is placed in a
        cell (on insert and on every rebalance move).
    """

    def __init__(self, on_move: Callable[[Any, int], None] | None = None) -> None:
        self._cells: list[Any | None] = [None] * _MIN_CAPACITY
        self._n = 0
        self._on_move = on_move if on_move is not None else (lambda item, i: None)
        self._recompute_geometry()
        #: cumulative count of cell writes done by rebalances (for tests /
        #: amortized-cost experiments)
        self.moves = 0
        self.rebalances = 0

    # -- geometry ------------------------------------------------------------

    def _recompute_geometry(self) -> None:
        cap = len(self._cells)
        # Leaf segment size: the largest power of two <= max(4, log2(cap)).
        target = max(4, cap.bit_length())
        seg = 4
        while seg * 2 <= target:
            seg *= 2
        while cap % seg != 0:  # capacity is a power of two >= 8, so this holds
            seg //= 2
        self._segment = seg
        self._height = max(1, (cap // seg).bit_length() - 1)

    @property
    def capacity(self) -> int:
        """Number of cells (power of two)."""
        return len(self._cells)

    @property
    def segment_size(self) -> int:
        """Cells per leaf segment; windows double from this size upward."""
        return self._segment

    def __len__(self) -> int:
        return self._n

    def get(self, index: int) -> Any | None:
        """Return the item at ``index`` or ``None`` for a gap."""
        return self._cells[index]

    def __iter__(self) -> Iterator[Any]:
        """Yield items in order, skipping gaps."""
        for cell in self._cells:
            if cell is not None:
                yield cell

    # -- thresholds ------------------------------------------------------------

    def _tau(self, height: int) -> float:
        if self._height == 0:
            return TAU_LEAF
        frac = height / self._height
        return TAU_LEAF + (TAU_ROOT - TAU_LEAF) * frac

    def _rho(self, height: int) -> float:
        if self._height == 0:
            return RHO_LEAF
        frac = height / self._height
        return RHO_LEAF + (RHO_ROOT - RHO_LEAF) * frac

    # -- window helpers ---------------------------------------------------------

    def _window(self, index: int, height: int) -> tuple[int, int]:
        width = self._segment << height
        start = (index // width) * width
        return start, width

    def _count_in(self, start: int, width: int) -> int:
        cells = self._cells
        return sum(1 for i in range(start, start + width) if cells[i] is not None)

    def _gather(self, start: int, width: int) -> list[Any]:
        cells = self._cells
        return [cells[i] for i in range(start, start + width) if cells[i] is not None]

    def _spread(self, items: list[Any], start: int, width: int) -> None:
        """Place ``items`` evenly across ``[start, start + width)``."""
        cells = self._cells
        for i in range(start, start + width):
            cells[i] = None
        m = len(items)
        if m == 0:
            return
        self.rebalances += 1
        on_move = self._on_move
        for i, item in enumerate(items):
            pos = start + (i * width) // m
            cells[pos] = item
            on_move(item, pos)
        self.moves += m

    def _resize(self, new_capacity: int, items: list[Any]) -> None:
        self._cells = [None] * max(_MIN_CAPACITY, new_capacity)
        self._recompute_geometry()
        self._spread(items, 0, len(self._cells))

    # -- mutation -----------------------------------------------------------------

    def bulk_load(self, items: list[Any]) -> None:
        """Replace the whole array with ``items`` in one even spread.

        ``O(m)`` plus one allocation: capacity is sized so the root density
        lands in ``(TAU_ROOT/2, TAU_ROOT]`` and every item is placed exactly
        once (firing ``on_move`` once each).  This is the bulk counterpart
        of ``m`` ``insert_after`` calls, skipping all intermediate
        rebalances.
        """
        m = len(items)
        capacity = _MIN_CAPACITY
        while capacity * TAU_ROOT < m:
            capacity *= 2
        self._cells = [None] * capacity
        self._n = m
        self._recompute_geometry()
        self._spread(items, 0, capacity)

    def insert_first(self, item: Any) -> None:
        """Insert ``item`` before everything currently stored."""
        self._insert_at_order_position(item, anchor_index=None)

    def insert_after(self, anchor_index: int, item: Any) -> None:
        """Insert ``item`` immediately after the item in cell ``anchor_index``.

        ``anchor_index`` must currently hold an item.
        """
        if self._cells[anchor_index] is None:
            raise IndexError(f"cell {anchor_index} is a gap")
        self._insert_at_order_position(item, anchor_index=anchor_index)

    def _insert_at_order_position(self, item: Any, anchor_index: int | None) -> None:
        if self._n + 1 > len(self._cells):
            self._grow_with(item, anchor_index)
            return
        # Fast path: a free cell right after the anchor (or at cell 0).
        cells = self._cells
        if anchor_index is None:
            if cells[0] is None:
                probe = 0
                # Place in the gap run before the first item, close to it.
                cells[probe] = item
                self._on_move(item, probe)
                self._n += 1
                self._check_upper(probe)
                return
            start_index = 0
        else:
            nxt = anchor_index + 1
            if nxt < len(cells) and cells[nxt] is None:
                cells[nxt] = item
                self._on_move(item, nxt)
                self._n += 1
                self._check_upper(nxt)
                return
            start_index = anchor_index
        # Slow path: rebalance the smallest window that can absorb the item.
        self._insert_with_rebalance(item, anchor_index, start_index)

    def _insert_with_rebalance(
        self, item: Any, anchor_index: int | None, probe_index: int
    ) -> None:
        height = 0
        while True:
            if height > self._height:
                self._grow_with(item, anchor_index)
                return
            start, width = self._window(probe_index, height)
            count = self._count_in(start, width)
            if (count + 1) / width <= self._tau(height):
                items = self._gather(start, width)
                self._insert_into_gathered(items, item, anchor_index, start)
                self._spread(items, start, width)
                self._n += 1
                return
            height += 1

    def _insert_into_gathered(
        self,
        items: list[Any],
        item: Any,
        anchor_index: int | None,
        window_start: int,
    ) -> None:
        """Insert ``item`` into the gathered order at its logical position."""
        if anchor_index is None:
            if window_start == 0:
                items.insert(0, item)
            else:
                # The window does not include the front; anchor must be in it.
                raise AssertionError("front insert rebalance must start at 0")
            return
        anchor = self._cells[anchor_index]
        if anchor is None:
            # The anchor was gathered already (cells cleared only in _spread,
            # so this cannot happen); defensive.
            raise AssertionError("anchor vanished during rebalance")
        for i, existing in enumerate(items):
            if existing is anchor:
                items.insert(i + 1, item)
                return
        raise AssertionError("anchor not inside rebalance window")

    def _grow_with(self, item: Any, anchor_index: int | None) -> None:
        items = self._gather(0, len(self._cells))
        if anchor_index is None:
            items.insert(0, item)
        else:
            anchor = self._cells[anchor_index]
            pos = next(i for i, x in enumerate(items) if x is anchor)
            items.insert(pos + 1, item)
        self._n += 1
        self._resize(len(self._cells) * 2, items)

    def _check_upper(self, index: int) -> None:
        """After a fast-path insert, restore the leaf threshold if violated."""
        start, width = self._window(index, 0)
        count = self._count_in(start, width)
        if count / width <= self._tau(0):
            return
        height = 1
        while height <= self._height:
            start, width = self._window(index, height)
            count = self._count_in(start, width)
            if count / width <= self._tau(height):
                self._spread(self._gather(start, width), start, width)
                return
            height += 1
        self._resize(len(self._cells) * 2, self._gather(0, len(self._cells)))

    def delete(self, index: int) -> Any:
        """Remove and return the item at ``index``."""
        item = self._cells[index]
        if item is None:
            raise IndexError(f"cell {index} is a gap")
        self._cells[index] = None
        self._n -= 1
        if self._n == 0:
            if len(self._cells) > _MIN_CAPACITY:
                self._resize(_MIN_CAPACITY, [])
            return item
        height = 0
        while height <= self._height:
            start, width = self._window(index, height)
            count = self._count_in(start, width)
            if count / width >= self._rho(height):
                if height > 0:
                    self._spread(self._gather(start, width), start, width)
                return item
            height += 1
        # Root under-full: shrink (never below the minimum capacity).
        items = self._gather(0, len(self._cells))
        new_cap = len(self._cells)
        while new_cap > _MIN_CAPACITY and len(items) / new_cap < RHO_ROOT:
            new_cap //= 2
        if new_cap != len(self._cells):
            self._resize(new_cap, items)
        else:
            self._spread(items, 0, new_cap)
        return item

    # -- validation (used by tests) ------------------------------------------------

    def items_in_order(self) -> list[Any]:
        """Return all items in order (gaps skipped)."""
        return [c for c in self._cells if c is not None]

    def check_invariants(self) -> None:
        """Assert counts and leaf density bounds (for tests)."""
        assert self._n == sum(1 for c in self._cells if c is not None)
        cap = len(self._cells)
        assert cap >= _MIN_CAPACITY and cap & (cap - 1) == 0, "capacity not 2^k"
        if self._n == 0:
            return
        seg = self._segment
        first = next(i for i, c in enumerate(self._cells) if c is not None)
        last = cap - 1 - next(
            i for i, c in enumerate(reversed(self._cells)) if c is not None
        )
        # Interior leaf segments (fully inside the used span) must respect a
        # relaxed lower density bound; boundary segments may be sparser.
        for start in range(0, cap, seg):
            if start <= first or start + seg - 1 >= last:
                continue
            count = self._count_in(start, seg)
            assert count >= 1, f"empty interior segment at {start}"
