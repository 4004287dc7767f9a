"""Serve-layer observability satellites: stats shape, drops, executor stats."""

from __future__ import annotations

import asyncio

from repro import DynamicIRS, ShardedIRS
from repro.serve import ReproServer, ServeClient, ServerStats

DATA = [float(i) for i in range(3000)]


def run(coro):
    return asyncio.run(coro)


# -- snapshot always carries latency_ms (regression) -------------------------


def test_snapshot_has_latency_ms_before_any_reply():
    snap = ServerStats().snapshot()
    assert snap["latency_ms"] == {"p50": 0.0, "p90": 0.0, "p99": 0.0, "max": 0.0}


def test_stats_op_has_latency_ms_on_fresh_server():
    async def main():
        async with ReproServer(DynamicIRS(DATA, seed=1), seed=5) as server:
            client = ServeClient(server)
            # The stats op answers at admission: no reply has ever been
            # measured, yet the key must be present with zeroed quantiles.
            snap = await client.server_stats()
            assert snap["latency_ms"] == {
                "p50": 0.0, "p90": 0.0, "p99": 0.0, "max": 0.0,
            }
            await client.sample(0.0, 3000.0, 4)
            snap = await client.server_stats()
            assert set(snap["latency_ms"]) == {"p50", "p90", "p99", "max"}
            assert snap["latency_ms"]["max"] > 0.0
            assert snap["latency_ms"]["p50"] <= snap["latency_ms"]["max"]

    run(main())


# -- dropped replies stamp the drain window ----------------------------------


def test_observe_dropped_counts_and_stamps_drain():
    stats = ServerStats()
    stats.observe_dropped()
    stats.observe_dropped()
    assert stats.dropped_replies == 2
    assert len(stats.drains) == 2  # each drop drained a queue slot
    assert stats.snapshot()["dropped_replies"] == 2
    # The drain-rate window sees the drops: with >= 2 stamps the rate is
    # measurable, where pre-fix it stayed 0.0 and inflated retry_after.
    assert stats.drain_rate() >= 0.0
    stats.observe_reply(True, 0.001)
    assert len(stats.drains) == 3


def test_dropped_reply_not_double_counted():
    stats = ServerStats()
    stats.observe_dropped()
    snap = stats.snapshot()
    assert snap["dropped_replies"] == 1
    assert snap["replies_ok"] == 0 and snap["replies_error"] == 0
    # A drop is not a reply: no latency is recorded anywhere.
    assert not stats.latencies
    assert stats.latency_hist.labels().count == 0


# -- executor stats through the stats op -------------------------------------


def test_stats_op_exposes_sharded_executor():
    async def main():
        structures = {
            "default": DynamicIRS(DATA, seed=1),
            "sharded": ShardedIRS(DATA, num_shards=4, seed=2),
        }
        async with ReproServer(structures, seed=5, window=0.0) as server:
            client = ServeClient(server)
            for _ in range(5):
                await client.sample(0.0, 3000.0, 32, structure="sharded")
            snap = await client.server_stats()
            block = snap["structures"]["sharded"]
            assert block["kind"] == "ShardedIRS"
            assert block["num_shards"] == 4
            assert block["scatter_tasks"] >= 5
            assert len(block["shard_sizes"]) == 4
            assert sum(block["shard_sizes"]) == len(DATA)
            # Plain structures don't get an executor block.
            assert "default" not in snap["structures"]

    run(main())


def test_stats_op_omits_structures_without_executors():
    async def main():
        async with ReproServer(DynamicIRS(DATA, seed=1), seed=5) as server:
            snap = await ServeClient(server).server_stats()
            assert "structures" not in snap

    run(main())


# -- metrics-off mode --------------------------------------------------------


def test_observe_off_keeps_wire_stats():
    async def main():
        async with ReproServer(
            DynamicIRS(DATA, seed=1), seed=5, observe=False
        ) as server:
            client = ServeClient(server)
            await client.sample(0.0, 3000.0, 4)
            snap = await client.server_stats()
            assert snap["replies_ok"] == 1
            assert snap["latency_ms"]["max"] > 0.0  # reservoir still records
            # Only the push histogram is skipped in metrics-off mode.
            assert server.stats.latency_hist.labels().count == 0

    run(main())
