"""The live exposition listener: /metrics across all layers, /healthz flips."""

from __future__ import annotations

import asyncio
import json

from promparse import parse

from repro import DynamicIRS, ExternalIRS, ShardedIRS
from repro.faults import FaultPlan
from repro.serve import ReproServer, ServeClient

DATA = [float(i) for i in range(4000)]


def run(coro):
    return asyncio.run(coro)


async def http_get(port: int, path: str) -> tuple[str, dict, str]:
    """Issue one GET on the running loop; return (status, headers, body).

    Deliberately raw asyncio: a blocking urllib call would deadlock
    against the single-loop listener under test.
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode("ascii"))
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = lines[0].split(" ", 1)[1]
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, body.decode("utf-8")


async def request_raw(port: int, payload: bytes) -> bytes:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    return raw


# -- the five-layer scrape ---------------------------------------------------


def test_metrics_exposes_every_layer(tmp_path):
    async def main():
        structures = {
            "default": DynamicIRS(DATA, seed=1),
            "sharded": ShardedIRS(DATA, num_shards=4, seed=2),
            "em": ExternalIRS(DATA, block_size=256, pool_capacity=8, seed=3),
        }
        # The plan never fires (empty schedule for the site) but makes the
        # faults family — with its site child — part of the exposition.
        plan = FaultPlan(seed=11, limits={"wal.fsync": 0})
        async with ReproServer(
            structures,
            seed=5,
            window=0.0,
            data_dir=str(tmp_path),
            fsync="always",
            fault_plan=plan,
        ) as server:
            await server.start_metrics()
            client = ServeClient(server)
            for i in range(10):
                await client.sample(100.0, 3900.0, 16, seed=i)
                await client.sample(0.0, 4000.0, 32, structure="sharded")
                await client.sample(0.0, 4000.0, 8, structure="em")
            await client.insert(0.5)
            await client.insert_bulk([1.5, 2.5, 3.5])

            status, headers, body = await http_get(server.metrics_port, "/metrics")
            assert status == "200 OK"
            assert headers["content-type"].startswith("text/plain; version=0.0.4")
            families = parse(body)  # the strict parser validates everything

            # serve layer
            assert families["repro_serve_requests_total"].value(kind="sample") == 30
            assert families["repro_serve_requests_total"].value(kind="update") == 2
            lat = families["repro_serve_request_latency_seconds"]
            assert lat.type == "histogram"
            assert lat.value("repro_serve_request_latency_seconds_count") == 32
            assert families["repro_serve_replies_total"].value(outcome="ok") == 32
            assert families["repro_serve_batches_total"].value() >= 1
            assert "repro_serve_queue_depth" in families
            assert "repro_serve_pressure" in families
            assert families["repro_serve_health"].value() == 0

            # shard layer
            task_lat = families["repro_shard_task_latency_seconds"]
            count = task_lat.value(
                "repro_shard_task_latency_seconds_count", structure="sharded"
            )
            assert count >= 10  # one span per shard task over 10 requests
            scatter = families["repro_shard_scatter_tasks_total"]
            assert scatter.value(structure="sharded") >= 10
            assert families["repro_shard_count"].value(structure="sharded") == 4
            assert len(families["repro_shard_size"].label_values("shard")) == 4

            # store layer
            assert families["repro_store_wal_appends_total"].value() == 2
            assert families["repro_store_wal_fsyncs_total"].value() >= 2
            assert families["repro_store_wal_bytes_total"].value() > 0
            # One scalar insert and a bulk insert of three: four values.
            assert families["repro_store_wal_values_total"].value() == 4
            assert "repro_store_wal_rotations_total" in families
            assert "repro_store_snapshots_total" in families

            # external-memory layer
            hits = families["repro_em_pool_hits_total"].value(structure="em")
            misses = families["repro_em_pool_misses_total"].value(structure="em")
            assert hits + misses > 0
            assert "repro_em_pool_evictions_total" in families
            assert families["repro_em_device_reads_total"].value(structure="em") > 0

            # faults layer
            assert families["repro_faults_fired_total"].value(site="wal.fsync") == 0

    run(main())


def test_metrics_scrape_is_idempotent(tmp_path):
    async def main():
        async with ReproServer(DynamicIRS(DATA, seed=1), seed=5) as server:
            await server.start_metrics()
            client = ServeClient(server)
            await client.sample(0.0, 4000.0, 4)
            _, _, first = await http_get(server.metrics_port, "/metrics")
            _, _, second = await http_get(server.metrics_port, "/metrics")
            # Scraping must not perturb counters (uptime-free exposition).
            assert first == second

    run(main())


def test_http_routes():
    async def main():
        async with ReproServer(DynamicIRS(DATA, seed=1), seed=5) as server:
            await server.start_metrics()
            port = server.metrics_port
            status, _, _ = await http_get(port, "/nope")
            assert status.startswith("404")
            raw = await request_raw(
                port, b"POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n"
            )
            assert b"405" in raw.split(b"\r\n", 1)[0]
            status, _, _ = await http_get(port, "/metrics?x=1")
            assert status == "200 OK"  # query strings ignored

    run(main())


# -- health ------------------------------------------------------------------


def test_healthz_ok():
    async def main():
        async with ReproServer(DynamicIRS(DATA, seed=1), seed=5) as server:
            await server.start_metrics()
            status, headers, body = await http_get(server.metrics_port, "/healthz")
            assert status == "200 OK"
            assert headers["content-type"] == "application/json"
            doc = json.loads(body)
            assert doc["status"] == "ok"
            assert doc["checks"]["pressure"] < 1.0

    run(main())


def test_healthz_degrades_on_wal_fsync_fault(tmp_path):
    async def main():
        plan = FaultPlan(seed=7, rates={"wal.fsync": 1.0})
        async with ReproServer(
            DynamicIRS(DATA, seed=1),
            seed=5,
            window=0.0,
            data_dir=str(tmp_path),
            fsync="always",
            fault_plan=plan,
        ) as server:
            await server.start_metrics()
            client = ServeClient(server)
            # Healthy until the fault actually fires.
            _, _, body = await http_get(server.metrics_port, "/healthz")
            assert json.loads(body)["status"] == "ok"

            resp = await client.request(
                {"op": "insert", "id": 1, "value": 0.5}
            )
            assert resp["ok"] is False
            assert resp["error"]["type"] == "unavailable"

            status, _, body = await http_get(server.metrics_port, "/healthz")
            assert status == "503 Service Unavailable"
            doc = json.loads(body)
            assert doc["status"] == "degraded"
            assert doc["checks"]["wal"] == "append_failures"

            # The fired fault is visible in the exposition too.
            _, _, metrics = await http_get(server.metrics_port, "/metrics")
            families = parse(metrics)
            assert families["repro_faults_fired_total"].value(site="wal.fsync") >= 1
            assert families["repro_serve_wal_failures_total"].value() >= 1
            assert families["repro_serve_health"].value() == 1

    run(main())


def test_healthz_overloaded_under_memory_pressure():
    async def main():
        async with ReproServer(
            DynamicIRS(DATA, seed=1),
            seed=5,
            memory_budget=1,  # resident bytes dwarf a 1-byte budget
        ) as server:
            await server.start_metrics()
            client = ServeClient(server)
            resp = await client.request(
                {"op": "sample", "id": 1, "lo": 0.0, "hi": 1.0, "t": 1}
            )
            assert resp["ok"] is False
            assert resp["error"]["type"] == "overloaded"
            assert "memory" in resp["error"]["message"]
            assert "retry_after" in resp["error"]

            status, _, body = await http_get(server.metrics_port, "/healthz")
            assert status == "503 Service Unavailable"
            doc = json.loads(body)
            assert doc["status"] == "overloaded"
            assert doc["checks"]["pressure"] >= 1.0

            _, _, metrics = await http_get(server.metrics_port, "/metrics")
            families = parse(metrics)
            assert families["repro_serve_rejected_total"].value() == 1
            assert families["repro_serve_health"].value() == 2

    run(main())
