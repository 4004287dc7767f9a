"""The seeded law of ``DynamicIRS``: a pure function of seed and multiset.

A seeded ``sample_bulk`` draws ``t`` uniform *global ranks* over the
range's rank interval (:func:`repro.rng.seeded_ranks`) and maps them to
values, exactly as :class:`StaticIRS` does — so the reply cannot depend on
how the points happen to be cut into chunks.  These tests pin that down
(against rebuilt twins, after every kind of structural repair, and across
a durable server restart), the batch path that serves it
(``sample_bulk_many``), the directory's rank addressing — in a narrow
rank frame and in the whole-directory one — after scalar updates emptied
its count prefix, and read-run coalescing in ``run_mixed``.
"""

from __future__ import annotations

import asyncio
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DynamicIRS, ShardedIRS, StaticIRS, WeightedDynamicIRS
from repro.batch import BatchOp, BatchQueryRunner
from repro.errors import EmptyRangeError, InvalidQueryError, KeyNotFoundError
from repro.serve import ReproServer, ServeClient

DATA = [float(i % 97) + 0.25 * (i % 3) for i in range(600)]


def _reply(sampler, lo, hi, t, seed):
    """The seeded reply as bytes, or the name of the error it raised."""
    try:
        return sampler.sample_bulk(lo, hi, t, seed=seed).tobytes()
    except EmptyRangeError:
        return "EmptyRangeError"


def _twins(d):
    flat = d.export_sorted()
    return DynamicIRS.from_sorted(flat, seed=99), StaticIRS.from_sorted(flat, seed=7)


def _assert_layout_free(d, queries):
    rebuilt, static = _twins(d)
    for lo, hi, t, seed in queries:
        want = _reply(static, lo, hi, t, seed)
        assert _reply(d, lo, hi, t, seed) == want, (lo, hi, t, seed)
        assert _reply(rebuilt, lo, hi, t, seed) == want, (lo, hi, t, seed)


# -- (a) layout independence ---------------------------------------------------

_update = st.tuples(
    st.sampled_from(["insert", "delete", "insert_bulk", "delete_bulk", "query"]),
    st.integers(0, 30),
    st.integers(1, 60),
)


@settings(max_examples=60, deadline=None)
@given(
    dtype=st.sampled_from([np.float32, np.float64]),
    base=st.lists(st.integers(0, 30), max_size=250),
    updates=st.lists(_update, max_size=40),
    lo=st.integers(-2, 32),
    width=st.integers(0, 34),
    t=st.integers(0, 40),
    seed=st.integers(0, 2**64 - 1),
)
def test_seeded_replies_ignore_chunk_layout(dtype, base, updates, lo, width, t, seed):
    """Updates that split, borrow, merge and rebuild leave replies alone.

    Values are a few dozen integers (many duplicates straddle chunk
    boundaries); bulk inserts of up to 60 values outgrow ``2·n0`` and
    rebuild, deletes of present values underfill chunks.  Every ``query``
    step compares against rebuilt twins at that moment, so prefixes with
    pending scalar deltas are covered too.
    """
    d = DynamicIRS([v / 2 for v in base], seed=3, dtype=dtype)
    rng = random.Random(seed)
    for kind, value, k in updates:
        present = d.export_sorted().tolist()
        if kind == "insert":
            d.insert(value / 2)
        elif kind == "insert_bulk":
            d.insert_bulk([rng.randrange(31) / 2 for _ in range(k)])
        elif kind == "delete" and present:
            d.delete(rng.choice(present))
        elif kind == "delete_bulk" and present:
            d.delete_bulk(rng.sample(present, min(k, len(present))))
        elif kind == "query":
            _assert_layout_free(d, [(value / 2 - 0.5, value / 2 + 3.0, k, seed)])
    d.check_invariants()
    _assert_layout_free(d, [(lo / 2, (lo + width) / 2, t, seed), (lo, lo, 1, seed)])


def test_seeded_replies_after_many_inserts_match_rebuilt():
    """23k inserts reshape every chunk; 200 seeded replies stay put."""
    rng = random.Random(5)
    d = DynamicIRS(seed=1)
    for _ in range(23_000):
        d.insert(rng.random())
    queries = []
    for i in range(200):
        lo = rng.random()
        t = rng.choice([1, 16, 300])
        queries.append((lo, lo + rng.random() * 0.2, t, 10_000 + i))
    _assert_layout_free(d, queries)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_weighted_seeded_replies_are_layout_free(dtype):
    """A grown ``WeightedDynamicIRS`` answers like its rebuilt twin.

    Scalar and 64-value bulk inserts and deletes split, borrow, merge and
    re-cut the slab rows; the seeded replies must still match, byte for
    byte, a ``from_sorted`` twin over the same ``(value, weight)`` pairs.
    """
    rng = random.Random(17)
    values = [rng.random() for _ in range(4000)]
    weights = [rng.uniform(0.5, 2.0) for _ in values]
    w = WeightedDynamicIRS(values, weights, seed=1, dtype=dtype)
    for step in range(300):
        batch = [rng.random() for _ in range(64)]
        if step % 3 == 0:
            w.insert_bulk(batch, [rng.uniform(0.5, 2.0) for _ in batch])
            w.delete_bulk(rng.sample(w.export_sorted().tolist(), 40))
        else:
            w.insert(batch[0], rng.uniform(0.5, 2.0))
            w.delete(rng.choice(w.export_sorted().tolist()))
    w.check_invariants()
    twin = WeightedDynamicIRS.from_sorted(*w.export_sorted_pairs(), seed=99)
    assert len(twin) != 0 and twin._dir.counts.tolist() != w._dir.counts.tolist()
    for i in range(150):
        lo = rng.random()
        hi = lo + rng.random() * 0.3
        t = rng.choice([1, 16, 300])
        seed = 500 + i
        assert _reply(w, lo, hi, t, seed) == _reply(twin, lo, hi, t, seed), (lo, hi, t)


def test_all_three_raise_on_empty_range():
    d = DynamicIRS(DATA, seed=1)
    for sampler in (d, *_twins(d)):
        with pytest.raises(EmptyRangeError):
            sampler.sample_bulk(500.0, 600.0, 3, seed=1)
        with pytest.raises(EmptyRangeError):
            sampler.sample_bulk(5.1, 5.2, 1, seed=1)  # falls between points
        assert sampler.sample_bulk(500.0, 600.0, 0, seed=1).size == 0


# -- the directory's rank addressing -------------------------------------------


def _structure_after_scalar_updates(dtype=np.float64):
    d = DynamicIRS(DATA, seed=1, dtype=dtype)
    d.peek_counts([(0.0, 100.0)])  # spans every chunk: buys the count prefix
    assert d._dir._prefix is not None
    rng = random.Random(11)
    for _ in range(30):
        d.insert(rng.choice(DATA))
        d.delete(rng.choice(d.export_sorted().tolist()))
    assert d._dir._prefix is None, "a scalar update should empty the count prefix"
    return d


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_rank_addressing_after_scalar_updates(dtype):
    d = _structure_after_scalar_updates(dtype)
    directory = d._dir
    sizes = directory.counts.copy()
    before = np.cumsum(sizes) - sizes
    ci = np.repeat(np.arange(len(sizes)), sizes)
    flat = d.export_sorted()
    los = np.asarray([-1.0, 0.0, 3.1, 50.0, 96.5, 200.0])
    his = np.asarray([-0.5, 3.1, 3.1, 80.25, 96.5, 300.0])
    want_starts = np.searchsorted(flat, los, "left")
    want_ends = np.searchsorted(flat, his, "right")
    # A cold prefix: the read frames only the chunks its ranges span, and
    # each range's frame ranks name its points in order.
    starts, ends, frame = directory.rank_bounds(los, his)
    chunks, _ends = frame
    assert directory._prefix is None and 0 < chunks.size < len(sizes)
    assert (ends - starts).tolist() == (want_ends - want_starts).tolist()
    for start, end, global_start in zip(starts, ends, want_starts):
        rows, off = directory.cells(np.arange(start, end), frame)
        ranks = global_start + np.arange(end - start)
        assert rows.tolist() == directory.row_of[ci[ranks]].tolist()
        assert off.tolist() == (ranks - before[ci[ranks]]).tolist()
    # The whole-directory frame (it buys the prefix): global ranks.
    whole = directory.frame(0, len(sizes) - 1)
    assert whole[0] is None
    assert directory._prefix.tolist() == np.cumsum(sizes).tolist()
    ranks = np.arange(len(d))
    rows, off = directory.cells(ranks, whole)
    assert rows.tolist() == directory.row_of[ci].tolist()
    assert off.tolist() == (ranks - before[ci]).tolist()
    starts, ends, frame = directory.rank_bounds(los, his)
    assert frame[0] is None
    assert starts.tolist() == want_starts.tolist()
    assert ends.tolist() == want_ends.tolist()
    assert d.peek_counts(list(zip(los, his))).tolist() == (ends - starts).tolist()


# -- (b) a durable server's seeded replies survive a restart ---------------------


_RESTART_BUILDS = {
    "dynamic": lambda values: DynamicIRS(values, seed=1),
    # Seeded sharded draws depend on the partition, which the manifest
    # records: recovery must rebuild the live cut, not cut afresh.
    "sharded": lambda values: ShardedIRS(values, num_shards=3, seed=1),
    "sharded-weighted-dynamic": lambda values: ShardedIRS(
        values, num_shards=3, seed=1, shard_kind="weighted-dynamic"
    ),
}


@pytest.mark.parametrize("build", _RESTART_BUILDS.values(), ids=_RESTART_BUILDS)
def test_served_seeded_sample_identical_across_restart(tmp_path, build):
    data_dir = str(tmp_path / "srv")
    rng = random.Random(2)
    batches = [[rng.random() * 100 for _ in range(64)] for _ in range(40)]
    request = json.dumps(
        {"id": 1, "op": "sample", "lo": 10.0, "hi": 60.0, "t": 32, "seed": 4242}
    ).encode()

    async def before_restart():
        async with ReproServer(build(DATA), seed=5, data_dir=data_dir) as server:
            client = ServeClient(server)
            for values in batches:
                await client.insert_bulk(values)
            return await server.submit(request)

    async def after_restart():
        async with ReproServer(build(()), seed=5, data_dir=data_dir) as server:
            assert len(server._runner.structures["default"]) == len(DATA) + 40 * 64
            return await server.submit(request)

    first = asyncio.run(before_restart())
    second = asyncio.run(after_restart())
    assert first["ok"] and len(first["result"]) == 32
    assert json.dumps(second, sort_keys=True) == json.dumps(first, sort_keys=True)


# -- (c) sample_bulk_many ----------------------------------------------------------

QUERIES = [
    (3.0, 40.0, 16), (0.0, 96.5, 5), (50.25, 50.25, 4), (10.0, 12.0, 0), (0.0, 1.0, 700)
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_many_matches_per_query_seeded_calls(dtype):
    d = DynamicIRS(DATA, seed=1, dtype=dtype)
    seeds = [31, 32, 33, 34, 35]
    grouped = d.sample_bulk_many(QUERIES, seeds=seeds)
    for (lo, hi, t), seed, got in zip(QUERIES, seeds, grouped):
        assert got.dtype == np.float64
        assert got.tobytes() == d.sample_bulk(lo, hi, t, seed=seed).tobytes()


def test_many_preserves_side_stream_order_for_unseeded_queries():
    a = DynamicIRS(DATA, seed=4)
    b = DynamicIRS(DATA, seed=4)
    seeds = [None, 7, None, None, 9]
    grouped = a.sample_bulk_many(QUERIES, seeds=seeds)
    for (lo, hi, t), seed, got in zip(QUERIES, seeds, grouped):
        assert got.tobytes() == b.sample_bulk(lo, hi, t, seed=seed).tobytes()
    assert a.stats.queries == b.stats.queries
    assert a.stats.samples_returned == b.stats.samples_returned


def test_many_zero_t_and_misaligned_seeds():
    d = DynamicIRS(DATA, seed=1)
    out = d.sample_bulk_many([(500.0, 600.0, 0), (1.0, 2.0, 0)], seeds=[1, None])
    assert [x.size for x in out] == [0, 0]
    assert d.sample_bulk_many([]) == []
    with pytest.raises(InvalidQueryError):
        d.sample_bulk_many(QUERIES, seeds=[1, 2])


def test_many_empty_range_raises_before_drawing():
    a = DynamicIRS(DATA, seed=4)
    b = DynamicIRS(DATA, seed=4)
    with pytest.raises(EmptyRangeError):
        a.sample_bulk_many([(0.0, 9.0, 3), (500.0, 600.0, 1)])
    # The failed call consumed nothing from the side stream.
    assert a.sample_bulk(0.0, 9.0, 8).tobytes() == b.sample_bulk(0.0, 9.0, 8).tobytes()


def test_runner_replay_attributes_empty_range_to_its_op():
    ops = [
        BatchOp.sample(3.0, 40.0, 4, seed=1),
        BatchOp.sample(500.0, 600.0, 2, seed=2),
        BatchOp.count(3.0, 40.0),
        BatchOp.sample(0.0, 9.0, 3),
        BatchOp.sample(0.0, 9.0, 3, seed=3),
    ]
    coalesced = BatchQueryRunner(DynamicIRS(DATA, seed=4)).run_mixed(
        ops, capture_errors=True, coalesce_reads=True
    )
    solo = BatchQueryRunner(DynamicIRS(DATA, seed=4)).run_mixed(
        ops, capture_errors=True
    )
    assert isinstance(coalesced.errors[1], EmptyRangeError)
    assert [e is None for i, e in enumerate(coalesced.errors) if i != 1] == [True] * 4
    for i in (0, 3, 4):
        assert coalesced.samples[i].tobytes() == solo.samples[i].tobytes()
    assert coalesced.samples[2] == solo.samples[2]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_many_after_scalar_updates(dtype):
    d = _structure_after_scalar_updates(dtype)
    _rebuilt, static = _twins(d)
    seeds = [61, 62, 63, 64, 65]
    grouped = d.sample_bulk_many(QUERIES, seeds=seeds)
    counts = d._dir.counts
    # (0.0, 96.5) spans every chunk, so the batch bought the whole prefix.
    assert d._dir._prefix.tolist() == np.cumsum(counts).tolist()
    los, his = np.array([q[:2] for q in QUERIES]).T
    starts, ends, frame = d._dir.rank_bounds(los, his)
    assert frame[0] is None
    flat = d.export_sorted()
    assert starts.tolist() == np.searchsorted(flat, los, "left").tolist()
    assert ends.tolist() == np.searchsorted(flat, his, "right").tolist()
    for (lo, hi, t), seed, got in zip(QUERIES, seeds, grouped):
        assert got.tobytes() == d.sample_bulk(lo, hi, t, seed=seed).tobytes()
        assert got.tobytes() == static.sample_bulk(lo, hi, t, seed=seed).tobytes()


# -- (d) one read run between two writes ----------------------------------------


def test_run_mixed_merges_samples_and_counts_between_writes():
    ops = [BatchOp.insert(5.5)]
    for i in range(4):
        ops.append(BatchOp.sample(0.0, 50.0, 3, seed=100 + i))
        ops.append(BatchOp.count(float(i), 60.0))
        ops.append(BatchOp.sample(10.0, 20.0, 2))  # unseeded: side stream order
    ops.append(BatchOp.delete(5.5))
    ops.append(BatchOp.count(0.0, 100.0))
    merged = BatchQueryRunner(DynamicIRS(DATA, seed=8)).run_mixed(
        ops, coalesce_reads=True
    )
    plain = BatchQueryRunner(DynamicIRS(DATA, seed=8)).run_mixed(ops)
    # One sample_bulk_many + one peek_counts between the writes, one
    # peek_counts after the delete.
    assert merged.stats.extra["read_bulk_calls"] == 3
    for got, want in zip(merged.samples, plain.samples):
        if isinstance(want, np.ndarray):
            assert got.tobytes() == want.tobytes()
        else:
            assert got == want


def test_run_mixed_two_read_calls_for_alternating_reads():
    ops = [BatchOp.insert(1.0)]
    ops += [
        BatchOp.sample(0.0, 50.0, 2, seed=i) if i % 2 else BatchOp.count(0.0, 50.0)
        for i in range(10)
    ]
    ops.append(BatchOp.insert(2.0))
    merged = BatchQueryRunner(DynamicIRS(DATA, seed=8)).run_mixed(
        ops, coalesce_reads=True
    )
    assert merged.stats.extra["read_bulk_calls"] == 2


def test_run_mixed_read_run_still_orders_against_failed_write():
    runner = BatchQueryRunner(DynamicIRS(DATA, seed=8))
    mixed = runner.run_mixed(
        [BatchOp.count(0.0, 100.0), BatchOp.delete(1e9), BatchOp.count(0.0, 100.0)],
        capture_errors=True,
        coalesce_reads=True,
    )
    assert isinstance(mixed.errors[1], KeyNotFoundError)
    assert mixed.samples[0] == mixed.samples[2] == len(DATA)
