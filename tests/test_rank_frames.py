"""Rank frames: a read right after a write pays for its range.

The rank readers of both dynamic kinds (seeded ``sample_bulk`` and
``sample_bulk_many``, ``peek_counts``, ``report``, ``select_in_range``
and ``delete_bulk``'s rank fallback) resolve ranks in a *frame*: an int64
``cumsum`` over the counts of just the chunks their ranges span, or the
whole-directory prefix when it is cached (DESIGN.md §8).  The prefix is
bought only once the chunks framed since the last count change add up
to the directory's size.  These tests pin that rule after every kind of
count change, and check every rank reader against a ``StaticIRS`` twin
over the exported multiset while scalar and bulk updates interleave.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import DynamicIRS, StaticIRS, WeightedDynamicIRS
from repro.core.directory import ChunkDirectory

N = 20_000
#: Narrow windows of about 200 points (about 10 chunks each at N).
NARROW = [(0.40, 0.41), (0.7, 0.7095), (0.1234, 0.1334)]

kinds = pytest.mark.parametrize("kind", [DynamicIRS, WeightedDynamicIRS])
dtypes = pytest.mark.parametrize("dtype", [np.float32, np.float64])


def _build(kind, values, dtype, seed=1):
    if kind is WeightedDynamicIRS:
        weights = 1.0 + (np.arange(values.size) % 7) / 4
        return kind.from_sorted(values, weights, seed=seed, dtype=dtype)
    return kind.from_sorted(values, seed=seed, dtype=dtype)


def _insert(d, value):
    if isinstance(d, WeightedDynamicIRS):
        d.insert(value, 1.5)
    else:
        d.insert(value)


def _insert_bulk(d, values):
    values = list(values)
    if isinstance(d, WeightedDynamicIRS):
        d.insert_bulk(values, [1.0 + (i % 3) for i in range(len(values))])
    else:
        d.insert_bulk(values)


def _change(d, how):
    """Apply one kind of count change to ``d``."""
    directory = d._dir
    if how == "insert":
        _insert(d, 0.5)
    elif how == "delete":
        d.delete(float(d.export_sorted()[N // 3]))
    elif how == "insert_bulk":
        _insert_bulk(d, np.random.default_rng(3).random(64))
    elif how == "insert_bulk_overflow":
        value = float(d.export_sorted()[N // 2])
        _insert_bulk(d, [value] * (directory.cap + 1))
    elif how == "delete_bulk":
        stored = d.export_sorted()
        d.delete_bulk(stored[np.random.default_rng(4).choice(stored.size, 64, False)])
    elif how == "delete_bulk_normalizing":
        d.delete_bulk(directory.row(100)[:-1].tolist())
    else:  # copies of one value across a chunk boundary
        value = float(d.export_sorted()[N // 4])
        _insert_bulk(d, [value] * (2 * directory.cap))
        d.delete_bulk([value] * (2 * directory.cap))


CHANGES = [
    "insert",
    "delete",
    "insert_bulk",
    "insert_bulk_overflow",
    "delete_bulk",
    "delete_bulk_normalizing",
    "delete_bulk_copies",
]


def _narrow_reads(d):
    """Every rank reader of ``d`` over the narrow windows, as plain lists."""
    out = [d.peek_counts(NARROW).tolist()]
    for lo, hi in NARROW:
        out.append(d.peek_counts([(lo, hi)]).tolist())
        out.append([list(x) if isinstance(x, tuple) else x for x in d.report(lo, hi)])
        if isinstance(d, DynamicIRS):
            out.append(d.sample_bulk(lo, hi, 16, seed=5).tolist())
            one = d.sample_bulk_many([(lo, hi, 16)], seeds=[6])
            out.append([a.tolist() for a in one])
            out.append(d.select_in_range(lo, hi, [0, 3, 3, 1]))
    if isinstance(d, DynamicIRS):
        many = d.sample_bulk_many([(lo, hi, 8) for lo, hi in NARROW], seeds=[7, 8, 9])
        out.append([a.tolist() for a in many])
    return out


def _static_reads(d):
    """What :func:`_narrow_reads` must return, from a ``StaticIRS`` twin."""
    flat = d.export_sorted()
    static = StaticIRS.from_sorted(flat, seed=1)
    items = d.items() if isinstance(d, WeightedDynamicIRS) else None
    out = [static.peek_counts(NARROW).tolist()]
    for lo, hi in NARROW:
        out.append(static.peek_counts([(lo, hi)]).tolist())
        if items is None:
            out.append(static.report(lo, hi))
        else:
            a, b = static.rank_range(lo, hi)
            out.append([list(pair) for pair in items[a:b]])
        if items is None:
            out.append(static.sample_bulk(lo, hi, 16, seed=5).tolist())
            out.append([static.sample_bulk(lo, hi, 16, seed=6).tolist()])
            a, _b = static.rank_range(lo, hi)
            out.append([static.value_at_rank(a + r) for r in (0, 3, 3, 1)])
    if items is None:
        queries = [(lo, hi, 8) for lo, hi in NARROW]
        many = static.sample_bulk_many(queries, seeds=[7, 8, 9])
        out.append([a.tolist() for a in many])
    return out


@kinds
@dtypes
@pytest.mark.parametrize("how", CHANGES)
def test_narrow_reads_after_a_count_change_build_no_whole_prefix(
    kind, dtype, how, monkeypatch
):
    d = _build(kind, np.arange(N) / N, dtype)
    d.peek_counts([(-np.inf, np.inf)])  # every chunk: buys the prefix
    assert d._dir._prefix is not None
    _change(d, how)
    assert d._dir._prefix is None
    d.check_invariants()
    want = _static_reads(d)

    def no_prefix(self):
        raise AssertionError("a narrow read built the whole count prefix")

    monkeypatch.setattr(ChunkDirectory, "ensure_prefix", no_prefix)
    assert _narrow_reads(d) == want
    assert d._dir._prefix is None
    monkeypatch.undo()
    d.check_invariants()


@kinds
def test_framed_chunks_reaching_the_directory_size_buy_the_prefix_once(
    kind, monkeypatch
):
    d = _build(kind, np.arange(N) / N, np.float64)
    directory = d._dir
    builds = []
    ensure = ChunkDirectory.ensure_prefix

    def counting(self):
        if self._prefix is None:
            builds.append(len(self))
        return ensure(self)

    monkeypatch.setattr(ChunkDirectory, "ensure_prefix", counting)
    for round_ in range(2):
        _insert(d, 0.25 + round_ / 10)  # a count change: the rental restarts
        assert directory._prefix is None
        lo, hi = NARROW[0]
        a, _la, b, _rb = directory.edges(lo, hi)
        span = b - a + 1
        local = math.ceil(len(directory) / span) - 1  # reads that only rent
        want = int(d.count(lo, hi))
        for _ in range(local):
            assert d.peek_counts([(lo, hi)]).tolist() == [want]
            assert directory._prefix is None
        assert len(builds) == round_
        assert d.peek_counts([(lo, hi)]).tolist() == [want]  # this one buys
        prefix = directory._prefix
        assert prefix is not None and len(builds) == round_ + 1
        # Every later read, narrow or wide, uses it until the next change.
        d.peek_counts([(-np.inf, np.inf), (lo, hi)])
        d.report(lo, hi)
        if kind is DynamicIRS:
            d.sample_bulk(lo, hi, 16, seed=3)
            d.select_in_range(lo, hi, [0])
        assert directory._prefix is prefix and len(builds) == round_ + 1
        d.check_invariants()


def _copies_across_a_chunk(d, rng):
    """A value with enough copies to fill more than one chunk, and the copies."""
    value = float(np.float32(rng.random()))
    return value, [value] * (d._dir.cap + int(rng.integers(2, 12)))


@kinds
@dtypes
def test_rank_readers_match_a_static_twin_under_updates(kind, dtype, monkeypatch):
    """Scalar and bulk updates interleaved with every rank reader.

    After each update a few narrow reads frame their own chunks and,
    now and then, wide ones buy the prefix; every answer must equal a
    ``StaticIRS`` twin over ``export_sorted()``.  Some bulk deletes take
    copies of one value that cross a chunk boundary, which sends them
    through the rank fallback.
    """
    rng = np.random.default_rng(21)
    values = np.sort(np.round(rng.random(8_000) * 2_000) / 2_000)  # duplicates
    d = _build(kind, values, dtype)
    fallbacks = []
    find = ChunkDirectory._find

    def spy(self, batch):
        fallbacks.append(batch.size)
        return find(self, batch)

    monkeypatch.setattr(ChunkDirectory, "_find", spy)
    answered = set()  # which frames answered a one-range peek_counts
    for step in range(90):
        op = int(rng.integers(6))
        if op == 0:
            _insert(d, float(rng.random()))
        elif op == 1:
            d.delete(float(rng.choice(d.export_sorted())))
        elif op == 2:
            batch = np.round(rng.random(int(rng.integers(17, 80))) * 2_000) / 2_000
            _insert_bulk(d, batch)
        elif op == 3:
            stored = d.export_sorted()
            picked = rng.choice(stored.size, int(rng.integers(17, 80)), False)
            d.delete_bulk(stored[picked])
        else:
            value, copies = _copies_across_a_chunk(d, rng)
            _insert_bulk(d, copies)
            if op == 5:
                d.delete(value)
            d.delete_bulk(copies[: len(copies) - 2])
        static = StaticIRS.from_sorted(d.export_sorted(), seed=1)
        items = d.items() if kind is WeightedDynamicIRS else None
        ranges = []
        for _ in range(4):
            lo = float(rng.random())
            width = float(rng.choice([0.0, 1e-3, 1e-2, 0.05, 0.6]))
            ranges.append((lo, lo + width))
        if step % 7 == 0:
            ranges.append((-np.inf, np.inf))
        for lo, hi in ranges:
            a, b = static.rank_range(lo, hi)
            assert d.peek_counts([(lo, hi)]).tolist() == [b - a]
            answered.add("local" if d._dir._prefix is None else "whole")
            if items is not None:
                assert d.report(lo, hi) == items[a:b]
                continue
            assert d.report(lo, hi) == static.report(lo, hi)
            if b > a:
                want = static.sample_bulk(lo, hi, 12, seed=step)
                assert d.sample_bulk(lo, hi, 12, seed=step).tobytes() == want.tobytes()
                ranks = rng.integers(0, b - a, 5).tolist()
                want = [static.value_at_rank(a + r) for r in ranks]
                assert d.select_in_range(lo, hi, ranks) == want
                one = d.sample_bulk_many([(lo, hi, 9)], seeds=[step + 1])[0]
                want = static.sample_bulk(lo, hi, 9, seed=step + 1)
                assert one.tobytes() == want.tobytes()
        assert d.peek_counts(ranges).tolist() == static.peek_counts(ranges).tolist()
        if items is None:
            queries = [(lo, hi, 6) for lo, hi in ranges if static.count(lo, hi)]
            seeds = list(range(len(queries)))
            got = d.sample_bulk_many(queries, seeds=seeds)
            want = static.sample_bulk_many(queries, seeds=seeds)
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        if step % 15 == 0:
            d.check_invariants()
    d.check_invariants()
    assert fallbacks, "no bulk delete crossed a chunk boundary"
    assert answered == {"local", "whole"}
