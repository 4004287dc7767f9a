"""An implicit (position-ordered) treap with parent pointers and aggregates.

Status: **retired from the production import graph.**  Both dynamic
samplers once stored their chunk sequences here; since the array-backed
:mod:`repro.core.directory` engine (DESIGN.md §5/§8) neither does, and the
treap lives on under ``baselines`` as a tested ablation substrate — the
pointer-machine design the directory benchmarks are compared against
(``bench_m1_substrates``).

Ordering by *position* rather than by key makes the structure immune
to duplicate keys: chunk boundaries are located with monotone descent on the
``min``/``max`` aggregates instead of key comparisons between nodes.

Aggregates maintained per subtree:

* ``agg_nodes``  — number of nodes (chunks);
* ``agg_points`` — sum of ``payload.size`` (points);
* ``agg_min`` / ``agg_max`` — min/max of ``payload.min_value`` /
  ``payload.max_value``.

Payload objects must expose ``size``, ``min_value`` and ``max_value``; the
treap re-reads them on :meth:`ChunkTreap.refresh`.

All operations are ``O(log n)`` expected (treap priorities are drawn from the
structure's own :class:`~repro.rng.RandomSource`).
"""

from __future__ import annotations

from typing import Iterator, Protocol

from ..rng import RandomSource

__all__ = ["ChunkTreap", "TreapNode"]


class _Payload(Protocol):
    size: int
    min_value: float
    max_value: float
    # ``weight`` is optional: unweighted payloads fall back to ``size``.


def _weight_of(payload) -> float:
    weight = getattr(payload, "weight", None)
    return payload.size if weight is None else weight


class TreapNode:
    """One tree node; external code holds these as stable handles."""

    __slots__ = (
        "payload",
        "priority",
        "left",
        "right",
        "parent",
        "agg_nodes",
        "agg_points",
        "agg_weight",
        "agg_min",
        "agg_max",
    )

    def __init__(self, payload: _Payload, priority: float) -> None:
        self.payload = payload
        self.priority = priority
        self.left: TreapNode | None = None
        self.right: TreapNode | None = None
        self.parent: TreapNode | None = None
        self.agg_nodes = 1
        self.agg_points = payload.size
        self.agg_weight = _weight_of(payload)
        self.agg_min = payload.min_value
        self.agg_max = payload.max_value

    def _pull(self) -> None:
        nodes = 1
        points = self.payload.size
        weight = _weight_of(self.payload)
        lo = self.payload.min_value
        hi = self.payload.max_value
        l, r = self.left, self.right
        if l is not None:
            nodes += l.agg_nodes
            points += l.agg_points
            weight += l.agg_weight
            if l.agg_min < lo:
                lo = l.agg_min
            if l.agg_max > hi:
                hi = l.agg_max
        if r is not None:
            nodes += r.agg_nodes
            points += r.agg_points
            weight += r.agg_weight
            if r.agg_min < lo:
                lo = r.agg_min
            if r.agg_max > hi:
                hi = r.agg_max
        self.agg_nodes = nodes
        self.agg_points = points
        self.agg_weight = weight
        self.agg_min = lo
        self.agg_max = hi


def _nodes(node: TreapNode | None) -> int:
    return 0 if node is None else node.agg_nodes


def _points(node: TreapNode | None) -> int:
    return 0 if node is None else node.agg_points


def _weight(node: TreapNode | None) -> float:
    return 0.0 if node is None else node.agg_weight


class ChunkTreap:
    """Position-ordered treap over payload objects (see module docstring)."""

    def __init__(self, rng: RandomSource | None = None) -> None:
        self._root: TreapNode | None = None
        self._rng = rng if rng is not None else RandomSource(0xC0FFEE)

    # -- size / iteration ---------------------------------------------------

    def __len__(self) -> int:
        return _nodes(self._root)

    @property
    def total_points(self) -> int:
        """Sum of ``payload.size`` over all nodes."""
        return _points(self._root)

    def __iter__(self) -> Iterator[TreapNode]:
        node = self.first()
        while node is not None:
            yield node
            node = self.successor(node)

    def first(self) -> TreapNode | None:
        """Return the first node in order, or ``None`` if empty."""
        node = self._root
        if node is None:
            return None
        while node.left is not None:
            node = node.left
        return node

    def last(self) -> TreapNode | None:
        """Return the last node in order, or ``None`` if empty."""
        node = self._root
        if node is None:
            return None
        while node.right is not None:
            node = node.right
        return node

    def successor(self, node: TreapNode) -> TreapNode | None:
        """Return the next node in order."""
        if node.right is not None:
            node = node.right
            while node.left is not None:
                node = node.left
            return node
        while node.parent is not None and node.parent.right is node:
            node = node.parent
        return node.parent

    def predecessor(self, node: TreapNode) -> TreapNode | None:
        """Return the previous node in order."""
        if node.left is not None:
            node = node.left
            while node.right is not None:
                node = node.right
            return node
        while node.parent is not None and node.parent.left is node:
            node = node.parent
        return node.parent

    # -- rotations ----------------------------------------------------------

    def _rotate_up(self, node: TreapNode) -> None:
        """One rotation moving ``node`` above its parent."""
        parent = node.parent
        assert parent is not None
        grand = parent.parent
        if parent.left is node:
            parent.left = node.right
            if node.right is not None:
                node.right.parent = parent
            node.right = parent
        else:
            parent.right = node.left
            if node.left is not None:
                node.left.parent = parent
            node.left = parent
        parent.parent = node
        node.parent = grand
        if grand is None:
            self._root = node
        elif grand.left is parent:
            grand.left = node
        else:
            grand.right = node
        parent._pull()
        node._pull()

    def _bubble_up(self, node: TreapNode) -> None:
        while node.parent is not None and node.parent.priority < node.priority:
            self._rotate_up(node)
        if node.parent is None:
            self._root = node

    def _refresh_to_root(self, node: TreapNode | None) -> None:
        while node is not None:
            node._pull()
            node = node.parent

    # -- mutation -----------------------------------------------------------

    def insert_first(self, payload: _Payload) -> TreapNode:
        """Insert ``payload`` at the front of the order; return its node."""
        node = TreapNode(payload, self._rng.random())
        if self._root is None:
            self._root = node
            return node
        at = self.first()
        at.left = node
        node.parent = at
        self._refresh_to_root(at)
        self._bubble_up(node)
        return node

    def insert_after(self, anchor: TreapNode, payload: _Payload) -> TreapNode:
        """Insert ``payload`` immediately after ``anchor``; return its node."""
        node = TreapNode(payload, self._rng.random())
        if anchor.right is None:
            anchor.right = node
            node.parent = anchor
            self._refresh_to_root(anchor)
        else:
            at = anchor.right
            while at.left is not None:
                at = at.left
            at.left = node
            node.parent = at
            self._refresh_to_root(at)
        self._bubble_up(node)
        return node

    def delete(self, node: TreapNode) -> None:
        """Unlink ``node`` from the tree (its handle becomes invalid)."""
        while node.left is not None or node.right is not None:
            # Rotate the higher-priority child above ``node``.
            child = node.left
            if child is None or (
                node.right is not None and node.right.priority > child.priority
            ):
                child = node.right
            assert child is not None
            self._rotate_up(child)
        parent = node.parent
        if parent is None:
            self._root = None
        else:
            if parent.left is node:
                parent.left = None
            else:
                parent.right = None
            node.parent = None
            self._refresh_to_root(parent)

    def refresh(self, node: TreapNode) -> None:
        """Re-read ``node.payload`` and repair aggregates up to the root.

        Must be called after any in-place change to a payload's ``size``,
        ``min_value`` or ``max_value``.
        """
        self._refresh_to_root(node)

    def bulk_build(self, payloads: list) -> list[TreapNode]:
        """Replace the whole tree with one built over ``payloads`` in order.

        ``O(m)``: fresh priorities are drawn per node, the heap shape is
        assembled with the classic stack-based Cartesian-tree construction
        (in-order position = list order, max-priority on top), and the
        aggregates are pulled once bottom-up.  Returns the new nodes in
        order so callers can re-point their payload handles.  This is the
        primitive behind the bulk-update repair step and the sorted-build
        fast constructors: one call replaces ``m`` ``insert_after`` +
        ``refresh`` round trips.
        """
        random = self._rng.random
        nodes = [TreapNode(p, random()) for p in payloads]
        stack: list[TreapNode] = []
        for node in nodes:
            last: TreapNode | None = None
            while stack and stack[-1].priority < node.priority:
                last = stack.pop()
            if last is not None:
                node.left = last
                last.parent = node
            if stack:
                stack[-1].right = node
                node.parent = stack[-1]
            stack.append(node)
        self._root = stack[0] if stack else None
        # Pull aggregates children-first: reversed pre-order visits every
        # node after both of its children.
        order: list[TreapNode] = []
        walk = [self._root] if self._root is not None else []
        while walk:
            node = walk.pop()
            order.append(node)
            if node.left is not None:
                walk.append(node.left)
            if node.right is not None:
                walk.append(node.right)
        for node in reversed(order):
            node._pull()
        return nodes

    # -- order statistics ---------------------------------------------------

    def rank(self, node: TreapNode) -> int:
        """Return the number of nodes strictly before ``node`` in order."""
        count = _nodes(node.left)
        while node.parent is not None:
            if node.parent.right is node:
                count += _nodes(node.parent.left) + 1
            node = node.parent
        return count

    def select(self, rank: int) -> TreapNode:
        """Return the node with the given 0-based ``rank``."""
        node = self._root
        if node is None or not 0 <= rank < node.agg_nodes:
            raise IndexError(f"rank out of range: {rank}")
        while True:
            left = _nodes(node.left)
            if rank < left:
                node = node.left
            elif rank == left:
                return node
            else:
                rank -= left + 1
                node = node.right

    def prefix_points(self, count: int) -> int:
        """Return the total ``payload.size`` of the first ``count`` nodes."""
        if count <= 0:
            return 0
        node = self._root
        total = 0
        remaining = count
        while node is not None and remaining > 0:
            left = _nodes(node.left)
            if remaining <= left:
                node = node.left
            else:
                total += _points(node.left)
                remaining -= left
                total += node.payload.size
                remaining -= 1
                node = node.right
        return total

    def points_between(self, a: TreapNode, b: TreapNode) -> int:
        """Return total points of nodes strictly between ``a`` and ``b``."""
        ra = self.rank(a)
        rb = self.rank(b)
        if rb - ra <= 1:
            return 0
        return self.prefix_points(rb) - self.prefix_points(ra + 1)

    @property
    def total_weight(self) -> float:
        """Sum of ``payload.weight`` over all nodes (``size`` fallback)."""
        return _weight(self._root)

    def prefix_weight(self, count: int) -> float:
        """Return the total ``payload.weight`` of the first ``count`` nodes."""
        if count <= 0:
            return 0.0
        node = self._root
        total = 0.0
        remaining = count
        while node is not None and remaining > 0:
            left = _nodes(node.left)
            if remaining <= left:
                node = node.left
            else:
                total += _weight(node.left)
                remaining -= left
                total += _weight_of(node.payload)
                remaining -= 1
                node = node.right
        return total

    def weight_between(self, a: TreapNode, b: TreapNode) -> float:
        """Return total weight of nodes strictly between ``a`` and ``b``."""
        ra = self.rank(a)
        rb = self.rank(b)
        if rb - ra <= 1:
            return 0.0
        return self.prefix_weight(rb) - self.prefix_weight(ra + 1)

    def select_by_prefix_weight(self, target: float) -> tuple[TreapNode, float]:
        """Return ``(node, residual)`` where the node owns prefix weight
        ``target``: the cumulative weight of nodes before it is at most
        ``target`` and adding the node's own weight exceeds it.  ``residual``
        is ``target`` minus that cumulative prefix, i.e. a position inside
        the node's own weight mass.  ``target`` is clamped to the valid
        range, so float round-off at the ends cannot fall off the tree."""
        node = self._root
        if node is None:
            raise IndexError("select_by_prefix_weight on empty treap")
        if target < 0.0:
            target = 0.0
        while True:
            left_weight = _weight(node.left)
            if target < left_weight and node.left is not None:
                node = node.left
                continue
            target -= left_weight
            own = _weight_of(node.payload)
            if target < own or node.right is None:
                return node, min(target, own)
            target -= own
            node = node.right

    def nodes_between(self, a: TreapNode, b: TreapNode) -> int:
        """Return the number of nodes strictly between ``a`` and ``b``."""
        return max(0, self.rank(b) - self.rank(a) - 1)

    # -- monotone boundary searches ------------------------------------------

    def first_with_max_ge(self, x: float) -> TreapNode | None:
        """Return the first node in order whose ``payload.max_value >= x``.

        Correct for any tree, but intended for the IRS invariant where
        per-node ``max_value`` is nondecreasing in order; the descent uses
        the subtree ``agg_max``.
        """
        node = self._root
        answer: TreapNode | None = None
        while node is not None:
            if node.left is not None and node.left.agg_max >= x:
                node = node.left
            elif node.payload.max_value >= x:
                answer = node
                break
            else:
                node = node.right
        return answer

    def last_with_min_le(self, y: float) -> TreapNode | None:
        """Return the last node in order whose ``payload.min_value <= y``."""
        node = self._root
        answer: TreapNode | None = None
        while node is not None:
            if node.right is not None and node.right.agg_min <= y:
                node = node.right
            elif node.payload.min_value <= y:
                answer = node
                break
            else:
                node = node.left
        return answer

    # -- validation (used by tests) -------------------------------------------

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` if heap order, parents or aggregates are
        inconsistent.  Intended for tests; walks the whole tree."""

        def walk(node: TreapNode | None, parent: TreapNode | None) -> tuple:
            if node is None:
                return 0, 0, 0.0, float("inf"), float("-inf")
            assert node.parent is parent, "broken parent pointer"
            if parent is not None:
                assert node.priority <= parent.priority, "heap order violated"
            ln, lp, lw, lmin, lmax = walk(node.left, node)
            rn, rp, rw, rmin, rmax = walk(node.right, node)
            nodes = ln + rn + 1
            points = lp + rp + node.payload.size
            weight = lw + rw + _weight_of(node.payload)
            lo = min(lmin, rmin, node.payload.min_value)
            hi = max(lmax, rmax, node.payload.max_value)
            assert node.agg_nodes == nodes, "agg_nodes stale"
            assert node.agg_points == points, "agg_points stale"
            assert abs(node.agg_weight - weight) <= 1e-6 * max(1.0, abs(weight)), (
                "agg_weight stale"
            )
            assert node.agg_min == lo, "agg_min stale"
            assert node.agg_max == hi, "agg_max stale"
            return nodes, points, weight, lo, hi

        walk(self._root, None)
