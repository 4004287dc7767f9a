"""Serving demo: concurrent clients, coalesced batches, reproducible replies.

Starts a :class:`repro.serve.ReproServer` over a dynamic structure and a
static "reference" structure, drives it with concurrent in-process clients
and one real TCP client, and prints the server's own account of what
coalescing did.  Run with an optional point count::

    python examples/serving_demo.py 20000
"""

from __future__ import annotations

import asyncio
import random
import sys

from repro import DynamicIRS, StaticIRS
from repro.serve import ReproServer, ServeClient, ServeError, TCPServeClient


async def aggregate_worker(client: ServeClient, lo: float, hi: float) -> float:
    """One online-aggregation client: estimate the mean of [lo, hi]."""
    samples = await client.sample(lo, hi, 256)
    return sum(samples) / len(samples)


async def main(n: int) -> None:
    rng = random.Random(42)
    points = [rng.gauss(50.0, 15.0) for _ in range(n)]
    server = ReproServer(
        {"default": DynamicIRS(points, seed=7), "reference": StaticIRS(points, seed=8)},
        seed=2014,
        max_batch=256,
    )
    await server.start_tcp(port=0)
    print(f"serving {n} points on 127.0.0.1:{server.port}")

    # -- many concurrent in-process clients, coalesced into shared batches --
    clients = [ServeClient(server) for _ in range(32)]
    jobs = [
        aggregate_worker(c, 30.0 + i % 7, 60.0 + i % 11)
        for i, c in enumerate(clients)
    ]
    means = await asyncio.gather(*jobs)
    print(f"32 concurrent mean estimates: min={min(means):.2f} max={max(means):.2f}")

    # -- mixed traffic: ordered writes interleaved with reads --
    front = clients[0]
    before = await front.count(40.0, 45.0)
    await front.insert_bulk([41.0, 42.0, 43.0])
    after = await front.count(40.0, 45.0)
    await front.delete_bulk([41.0, 42.0, 43.0])
    print(f"count 40..45: {before} -> {after} after 3 inserts (then rolled back)")

    # -- reproducibility: a seeded request always returns the same samples --
    one = await front.sample(30.0, 70.0, 5, seed=99)
    two = await front.sample(30.0, 70.0, 5, seed=99)
    print(f"seeded request replays byte-identically: {one == two}")

    # -- typed errors instead of hung connections --
    try:
        await front.sample(1000.0, 2000.0, 3)
    except ServeError as exc:
        print(f"empty range answered with typed error: {exc.code}")

    # -- the same protocol over real TCP --
    tcp = await TCPServeClient.connect("127.0.0.1", server.port)
    reference = await tcp.count(30.0, 70.0, structure="reference")
    print(f"TCP client count on 'reference' structure: {reference}")
    await tcp.aclose()

    stats = await front.server_stats()
    print(
        f"server stats: {stats['admitted']} requests in {stats['batches']} "
        f"batches (coalesce factor {stats['coalesce_factor']}), "
        f"p99 latency {stats['latency_ms']['p99']} ms"
    )
    await server.aclose()


if __name__ == "__main__":
    asyncio.run(main(int(sys.argv[1]) if len(sys.argv) > 1 else 50_000))
