"""Coalescing edge cases and the batch-runner features serving rides on."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro import (
    BatchOp,
    BatchQuery,
    BatchQueryRunner,
    DynamicIRS,
    ShardedIRS,
    StaticIRS,
)
from repro.errors import (
    EmptyRangeError,
    InvalidQueryError,
    KeyNotFoundError,
)
from repro.serve import ReproServer, ServeClient
from repro.workloads import gaussian_mixture


def run(coro):
    return asyncio.run(coro)


DATA = sorted(gaussian_mixture(3000, clusters=3, seed=21))
LO, HI = DATA[len(DATA) // 10], DATA[(9 * len(DATA)) // 10]


# -- server-side coalescing edges -------------------------------------------


def test_empty_window_flush_single_request():
    """A lone request in a window still flushes as a batch of one."""

    async def main():
        async with ReproServer(
            StaticIRS(DATA, seed=1), window=0.005, max_batch=256
        ) as server:
            client = ServeClient(server)
            samples = await client.sample(LO, HI, 4)
            assert len(samples) == 4
            assert server.stats.batches == 1
            assert server.stats.coalesce_factor == 1.0

    run(main())


def test_window_zero_still_batches_queued_requests():
    async def main():
        # The default server: window 0, so this also pins that the default
        # configuration still batches.
        async with ReproServer(StaticIRS(DATA, seed=1)) as server:
            client = ServeClient(server)
            responses = await client.pipeline(
                [{"op": "count", "lo": LO, "hi": HI} for _ in range(10)]
            )
            assert all(r["ok"] for r in responses)
            # A zero window skips only the wait for company: requests that
            # are already queued (an in-process pipeline queues all of them
            # up front) still drain into one batch.  Only ``max_batch=1``
            # serves one request per call.
            assert server.stats.coalesce_factor > 1

    run(main())


@pytest.mark.parametrize("window", [float("inf"), float("nan"), -1.0])
def test_window_must_be_finite_and_non_negative(window):
    # An infinite window would sleep forever on a batch's first request,
    # and NaN would silently act as 0.
    with pytest.raises(ValueError, match="window"):
        ReproServer(StaticIRS(DATA, seed=1), window=window)


def test_pipelined_requests_share_batches():
    async def main():
        async with ReproServer(
            StaticIRS(DATA, seed=1), window=0.02, max_batch=64
        ) as server:
            client = ServeClient(server)
            responses = await client.pipeline(
                [{"op": "sample", "lo": LO, "hi": HI, "t": 2}] * 32
            )
            assert all(r["ok"] for r in responses)
            assert server.stats.coalesce_factor > 4.0

    run(main())


def test_max_batch_splits_bursts():
    async def main():
        async with ReproServer(
            StaticIRS(DATA, seed=1), window=0.02, max_batch=8
        ) as server:
            client = ServeClient(server)
            await client.pipeline(
                [{"op": "count", "lo": LO, "hi": HI} for _ in range(32)]
            )
            assert server.stats.batches >= 4
            assert server.stats.coalesce_factor <= 8.0

    run(main())


def test_oversized_single_request_executes_alone():
    """A request bigger than the whole sample budget still gets served."""

    async def main():
        async with ReproServer(
            StaticIRS(DATA, seed=1),
            window=0.02,
            max_batch=256,
            max_batch_samples=100,
            max_t=100_000,
        ) as server:
            client = ServeClient(server)
            big = client.sample(LO, HI, 5000)  # cost 50x the batch budget
            small = [client.count(LO, HI) for _ in range(3)]
            results = await asyncio.gather(big, *small)
            assert len(results[0]) == 5000
            assert all(isinstance(k, int) for k in results[1:])

    run(main())


def test_mixed_read_write_ordering_preserved():
    """Reads observe exactly the writes admitted before them."""

    async def main():
        async with ReproServer(
            DynamicIRS(DATA, seed=1), window=0.01, max_batch=256
        ) as server:
            client = ServeClient(server)
            marker = HI + 1000.0
            responses = await client.pipeline(
                [
                    {"op": "count", "lo": marker, "hi": marker},
                    {"op": "insert", "value": marker},
                    {"op": "count", "lo": marker, "hi": marker},
                    {"op": "insert_bulk", "values": [marker, marker]},
                    {"op": "count", "lo": marker, "hi": marker},
                    {"op": "delete", "value": marker},
                    {"op": "count", "lo": marker, "hi": marker},
                    {"op": "delete_bulk", "values": [marker, marker]},
                    {"op": "count", "lo": marker, "hi": marker},
                ]
            )
            counts = [r["result"] for r in responses if r["id"] % 2 == 1]
            assert [r["ok"] for r in responses] == [True] * 9
            assert counts == [0, 1, 3, 2, 0]

    run(main())


def test_one_bad_request_does_not_fail_its_batchmates():
    async def main():
        async with ReproServer(
            DynamicIRS(DATA, seed=1), window=0.01, max_batch=256
        ) as server:
            client = ServeClient(server)
            responses = await client.pipeline(
                [
                    {"op": "sample", "lo": LO, "hi": HI, "t": 2},
                    {"op": "delete", "value": 1e12},  # fails: not present
                    {"op": "sample", "lo": 1e9, "hi": 2e9, "t": 1},  # empty
                    {"op": "sample", "lo": LO, "hi": HI, "t": 2},
                ]
            )
            assert responses[0]["ok"] and responses[3]["ok"]
            assert responses[1]["error"]["type"] == "key_not_found"
            assert responses[2]["error"]["type"] == "empty_range"
            # The failing batch was nevertheless one coalesced execution.
            assert server.stats.batches == 1

    run(main())


def test_client_disconnect_mid_batch_keeps_server_alive():
    async def main():
        server = ReproServer(
            StaticIRS(DATA, seed=1), window=0.05, max_batch=256
        )
        await server.start_tcp(port=0)
        # The rude client fires requests and hangs up before any reply can
        # arrive (the 50 ms window guarantees the batch is still forming).
        _reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        for i in range(5):
            writer.write(
                (json.dumps({"op": "count", "lo": LO, "hi": HI, "id": i}) + "\n").encode()
            )
        await writer.drain()
        writer.close()
        # A polite client on a fresh connection still gets served.
        from repro.serve import TCPServeClient

        polite = await TCPServeClient.connect("127.0.0.1", server.port)
        assert isinstance(await polite.count(LO, HI), int)
        for _ in range(50):
            if server.stats.dropped_replies >= 5:
                break
            await asyncio.sleep(0.01)
        assert server.stats.dropped_replies >= 5
        await polite.aclose()
        await server.aclose()

    run(main())


def test_latency_percentiles_reported():
    async def main():
        async with ReproServer(StaticIRS(DATA, seed=1), window=0.001) as server:
            client = ServeClient(server)
            await client.pipeline(
                [{"op": "count", "lo": LO, "hi": HI} for _ in range(20)]
            )
            stats = await client.server_stats()
            lat = stats["latency_ms"]
            assert 0.0 <= lat["p50"] <= lat["p90"] <= lat["p99"] <= lat["max"]
            assert stats["requests_per_second"] > 0.0

    run(main())


def test_exotic_client_seeds_cannot_poison_a_batch():
    """Negative / >64-bit seeds fold into the seed domain at admission."""

    async def main():
        async with ReproServer(StaticIRS(DATA, seed=1), window=0.01) as server:
            client = ServeClient(server)
            responses = await client.pipeline(
                [
                    {"op": "sample", "lo": LO, "hi": HI, "t": 2, "seed": -1},
                    {"op": "sample", "lo": LO, "hi": HI, "t": 2, "seed": 1 << 70},
                    {"op": "sample", "lo": LO, "hi": HI, "t": 2},
                ]
            )
            assert all(r["ok"] for r in responses), responses

    run(main())


def test_non_finite_stored_values_rejected_at_admission():
    async def main():
        async with ReproServer(DynamicIRS(DATA, seed=1)) as server:
            client = ServeClient(server)
            for payload in [
                {"op": "insert", "value": float("inf")},
                {"op": "insert_bulk", "values": [1.0, float("-inf")]},
                {"op": "insert", "value": 1.0, "weight": float("inf")},
            ]:
                response = await client.request(payload)
                assert response["error"]["type"] == "bad_request", payload
            # Infinite *query bounds* stay legal (full-range queries).
            full = await client.count(float("-inf"), float("inf"))
            assert full == len(DATA)

    run(main())


def test_shutdown_resolves_the_forming_batch():
    """aclose() must answer a request the batcher already popped."""

    async def main():
        server = ReproServer(StaticIRS(DATA, seed=1), window=0.5)
        await server.start()
        future = server.submit({"op": "sample", "lo": LO, "hi": HI, "t": 1, "id": 1})
        await asyncio.sleep(0.05)  # batcher holds it, sleeping the window
        await server.aclose()
        response = await asyncio.wait_for(future, timeout=2)
        assert response["error"]["type"] == "shutting_down"

    run(main())


def test_partial_bulk_failure_reports_applied_count():
    async def main():
        async with ReproServer(DynamicIRS([1.0, 2.0, 3.0, 4.0]), window=0.0) as server:
            client = ServeClient(server)
            response = await client.request(
                {"op": "delete_bulk", "values": [1.0, 99.0, 2.0]}
            )
            error = response["error"]
            assert error["type"] == "key_not_found"
            assert error["op_index"] == 1 and error["applied"] == 2
            count = await client.request({"op": "count", "lo": 0.0, "hi": 9.0})
            assert count["result"] == 2  # the two valid deletes committed

    run(main())


# -- the run_mixed features underneath ---------------------------------------


def test_run_mixed_count_ops():
    runner = BatchQueryRunner(DynamicIRS(DATA, seed=1))
    expected = sum(1 for v in DATA if LO <= v <= HI)
    mixed = runner.run_mixed(
        [BatchOp.count(LO, HI), ("count", LO, HI), BatchOp.insert(LO), ("count", LO, HI)]
    )
    assert mixed.samples[0] == expected
    assert mixed.samples[1] == expected
    assert mixed.samples[3] == expected + 1
    assert mixed.stats.extra["counts"] == 3


def test_run_mixed_capture_errors_alignment():
    runner = BatchQueryRunner(DynamicIRS(DATA, seed=1))
    mixed = runner.run_mixed(
        [
            BatchOp.sample(LO, HI, 3),
            BatchOp.delete(1e12),
            BatchOp.sample(1e9, 2e9, 1),
            BatchOp.count(LO, HI),
        ],
        capture_errors=True,
    )
    assert mixed.errors is not None
    assert mixed.errors[0] is None and mixed.errors[3] is None
    assert isinstance(mixed.errors[1], KeyNotFoundError)
    assert isinstance(mixed.errors[2], EmptyRangeError)
    assert len(mixed.samples[0]) == 3
    assert isinstance(mixed.samples[3], int)


def test_run_mixed_capture_bulk_update_attribution():
    """A failed coalesced delete run attributes the error to the bad op."""
    runner = BatchQueryRunner(DynamicIRS(DATA, seed=1))
    present = DATA[5]
    mixed = runner.run_mixed(
        [
            BatchOp.delete(present),
            BatchOp.delete(1e12),
            BatchOp.delete(DATA[6]),
            BatchOp.count(LO - 1e9, HI + 1e9),
        ],
        capture_errors=True,
    )
    assert mixed.errors[0] is None
    assert isinstance(mixed.errors[1], KeyNotFoundError)
    assert mixed.errors[2] is None
    # both valid deletes applied exactly once
    assert mixed.samples[3] == len(DATA) - 2


def test_run_mixed_without_capture_still_raises():
    runner = BatchQueryRunner(DynamicIRS(DATA, seed=1))
    with pytest.raises(KeyNotFoundError):
        runner.run_mixed([BatchOp.delete(1e12)])
    with pytest.raises(InvalidQueryError):
        runner.run_mixed([("bogus", 1.0)])


def test_run_mixed_coalesce_reads_groups_runs():
    runner = BatchQueryRunner(StaticIRS(DATA, seed=1))
    ops = [BatchOp.sample(LO, HI, 2, seed=i) for i in range(6)]
    ops += [BatchOp.count(LO, HI) for _ in range(4)]
    mixed = runner.run_mixed(ops, coalesce_reads=True)
    # one sample_bulk_many call + one peek_counts call
    assert mixed.stats.extra["read_bulk_calls"] == 2
    assert all(len(s) == 2 for s in mixed.samples[:6])
    expected = sum(1 for v in DATA if LO <= v <= HI)
    assert mixed.samples[6:] == [expected] * 4


def test_run_mixed_coalesced_reads_match_solo_calls():
    """Seeded reads return the same draws coalesced or alone."""
    runner = BatchQueryRunner(StaticIRS(DATA, seed=1))
    ops = [BatchOp.sample(LO, HI, 5, seed=100 + i) for i in range(4)]
    together = runner.run_mixed(ops, coalesce_reads=True)
    solo = [
        BatchQueryRunner(StaticIRS(DATA, seed=1)).run_mixed([op]).samples[0]
        for op in ops
    ]
    for got, want in zip(together.samples, solo):
        assert list(got) == list(want)


def test_run_seeded_queries_reproducible_any_grouping():
    sharded = ShardedIRS(DATA, num_shards=3, seed=2)
    runner = BatchQueryRunner(sharded)
    queries = [BatchQuery(LO, HI, 7, seed=900 + i) for i in range(5)]
    first = runner.run(queries)
    sharded.sample_bulk(LO, HI, 13)  # perturb facade stream
    second = runner.run(list(reversed(queries)))
    for q, want in zip(queries, first.samples):
        got = second.samples[len(queries) - 1 - queries.index(q)]
        assert list(got) == list(want)
    sharded.close()


def test_seeded_query_requires_bulk_capable_sampler():
    from repro.baselines import ReportThenSample

    runner = BatchQueryRunner(ReportThenSample(DATA, seed=1))
    with pytest.raises(InvalidQueryError):
        runner.run([BatchQuery(LO, HI, 2, seed=5)])


def test_static_sample_bulk_many_matches_sample_bulk():
    static = StaticIRS(DATA, seed=1)
    queries = [(LO, HI, 6), (DATA[0], DATA[-1], 3), (LO, HI, 0)]
    seeds = [51, 52, 53]
    grouped = static.sample_bulk_many(queries, seeds=seeds)
    for (lo, hi, t), seed, got in zip(queries, seeds, grouped):
        want = static.sample_bulk(lo, hi, t, seed=seed)
        assert list(got) == list(want)


def test_static_sample_bulk_many_empty_range_raises():
    static = StaticIRS(DATA, seed=1)
    with pytest.raises(EmptyRangeError):
        static.sample_bulk_many([(1e9, 2e9, 1)], seeds=[1])


def test_seeded_ranks_are_exact_and_in_bounds():
    from repro.rng import seeded_ranks

    ranks = seeded_ranks(range(1, 5001), [10] * 5000, [7] * 5000, [2] * 5000)
    assert len(ranks) == 10_000
    assert ranks.min() >= 10 and ranks.max() < 17
    # all 7 cells hit roughly uniformly
    import numpy as np

    counts = np.bincount(ranks - 10, minlength=7)
    assert counts.min() > 1200 and counts.max() < 1700
