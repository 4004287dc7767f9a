"""F17 — durability: logging overhead, snapshot-vs-replay recovery, file tier.

Three claims from the durability PR, measured as one experiment table:

* **Serve-side WAL cost.**  Logging every update batch before execution
  costs a bounded, policy-dependent slice of update throughput: ``off``
  and ``batch`` (flush-to-OS per record, periodic fsync) stay within a
  small factor of the unlogged server, ``always`` (fsync per record) is
  the price of strict power-loss durability.
* **Snapshot recovery beats WAL replay.**  Recovering ``n`` values from
  a snapshot (O(n) ``from_sorted`` planes) is at least an order of
  magnitude faster than replaying the equivalent insert history through
  the batch engine — the reason checkpoints exist.  The 10× floor at
  ``n = 10^5`` is also a CI gate in ``bench_smoke.py``.
* **The real cold tier keeps the model honest.**  ``ExternalIRS`` over
  the file-backed device performs *identical logical I/O* to the paper's
  simulated device (asserted here), at a wall-clock cost that stays in
  the same order of magnitude.
"""

from __future__ import annotations

import os
import platform
import time

import numpy as np
import pytest

from repro import DynamicIRS, ExternalIRS
from repro.bench import time_callable
from repro.serve import ReproServer
from repro.store import DurableStore, FileDevice
from repro.workloads import uniform_points

N_SERVE = 20_000
REQUESTS = 1_500
SERVE_MODES = ["unlogged", "off", "batch", "always"]
RECOVERY_NS = [10_000, 100_000]
REPLAY_BATCH = 256


@pytest.fixture(scope="module")
def rec(experiment):
    return experiment(
        "F17",
        "durability: WAL logging overhead, snapshot vs replay, file cold tier; "
        f"host: {os.cpu_count()} CPUs, Python {platform.python_version()}, "
        f"NumPy {np.__version__}",
        ["case", "variant", "n", "metric", "value"],
    )


@pytest.mark.parametrize("mode", SERVE_MODES)
def test_f17_serve_logging_overhead(rec, mode, tmp_path):
    """Closed-batch update throughput with and without the WAL."""
    import asyncio
    import json

    data = sorted(uniform_points(N_SERVE, seed=171))
    lines = [
        json.dumps({"id": i, "op": "insert", "value": 100.0 + i}).encode()
        for i in range(REQUESTS)
    ]
    durable = (
        {} if mode == "unlogged" else {"data_dir": str(tmp_path / mode), "fsync": mode}
    )

    async def drive() -> float:
        async with ReproServer(
            DynamicIRS(data, seed=17),
            seed=17,
            window=0.001,
            max_batch=256,
            max_pending=len(lines),
            **durable,
        ) as server:
            start = time.perf_counter()
            replies = await asyncio.gather(*[server.submit(b) for b in lines])
            elapsed = time.perf_counter() - start
            assert all(r["ok"] for r in replies)
        return elapsed

    elapsed = asyncio.run(drive())
    rec.row("serve-updates", mode, REQUESTS, "req/s", round(REQUESTS / elapsed, 1))


@pytest.mark.parametrize("n", RECOVERY_NS)
def test_f17_snapshot_vs_replay_recovery(rec, n, tmp_path):
    """Time recover() from a WAL-only history vs from a snapshot."""
    values = sorted(uniform_points(n, seed=172))

    replay_dir = str(tmp_path / f"replay-{n}")
    with DurableStore(replay_dir, snapshot_ops=10 * n) as store:
        for i in range(0, n, REPLAY_BATCH):
            store.log_batch([("insert", v) for v in values[i : i + REPLAY_BATCH]])

    def recover_replay():
        with DurableStore(replay_dir, snapshot_ops=10 * n) as store:
            report = store.recover({"default": DynamicIRS([], seed=1)})
            assert report.replayed_ops == n

    snap_dir = str(tmp_path / f"snap-{n}")
    with DurableStore(snap_dir) as store:
        store.snapshot({"default": DynamicIRS(values, seed=1)})

    def recover_snapshot():
        with DurableStore(snap_dir) as store:
            report = store.recover({"default": DynamicIRS([], seed=1)})
            assert report.replayed_ops == 0
            assert len(report.structures["default"].export_sorted()) == n

    replay_s = time_callable(recover_replay, repeat=3)
    snapshot_s = time_callable(recover_snapshot, repeat=3)
    rec.row("recovery", "wal-replay", n, "seconds", round(replay_s, 4))
    rec.row("recovery", "snapshot", n, "seconds", round(snapshot_s, 4))
    rec.row("recovery", "speedup", n, "x", round(replay_s / snapshot_s, 1))


def test_f17_file_device_parity(rec, tmp_path):
    """Identical logical I/O on the simulated and file-backed devices."""
    n = 50_000
    data = uniform_points(n, seed=173)
    lo, hi = 0.1, 0.8

    def workload(irs):
        start = time.perf_counter()
        for seed in range(8):
            irs.sample_bulk(lo, hi, 4_096, seed=seed)
        return time.perf_counter() - start

    stats = {}
    for variant in ("simulated", "file"):
        device = (
            FileDevice(tmp_path / "f17.bin", 256) if variant == "file" else None
        )
        irs = ExternalIRS(data, block_size=256, seed=7, device=device)
        elapsed = workload(irs)
        stats[variant] = irs.device.stats.snapshot()
        rec.row("cold-tier", variant, n, "total I/Os", irs.device.stats.total)
        rec.row("cold-tier", variant, n, "seconds", round(elapsed, 4))
        irs.close()
        if variant == "file":
            rec.row(
                "cold-tier", "file", n, "bytes on disk",
                os.path.getsize(tmp_path / "f17.bin"),
            )
    assert stats["file"] == stats["simulated"]
