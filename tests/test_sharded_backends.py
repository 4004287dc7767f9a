"""Execution-backend tests for the sharded engine.

The headline property: under a fixed seed, ``serial`` and ``threads``
produce byte-identical samples — every scatter task derives its generator
from explicit ``(root, call, shard)`` integers and writes a disjoint
output slice, so neither the backend nor worker scheduling can influence
results.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import BatchQueryRunner, ShardedIRS
from repro.cli import main as cli_main
from repro.faults import FaultPlan, FaultyBackend
from repro.rng import derive_seed
from repro.shard import BACKEND_NAMES, SerialBackend, ThreadBackend, make_backend
from repro.store import DurableStore
from repro.workloads import uniform_points

N = 6000
QUERIES = [(0.1, 0.9, 2000), (0.0, 1.0, 500), (0.42, 0.58, 1000)]


@pytest.fixture(scope="module")
def data():
    return uniform_points(N, seed=71)


@pytest.fixture(scope="module")
def per_backend_results(data):
    """Samples from every backend under one seed (pools sized for CI)."""
    out = {}
    for backend in BACKEND_NAMES:
        with ShardedIRS(
            data, num_shards=4, seed=72, backend=backend, max_workers=2
        ) as s:
            out[backend] = (
                s.sample_bulk(0.15, 0.85, 3000),
                s.sample_bulk_many(QUERIES),
            )
    return out


class TestDeterminism:
    @pytest.mark.parametrize("backend", ["threads"])
    def test_matches_serial_exactly(self, per_backend_results, backend):
        serial_single, serial_many = per_backend_results["serial"]
        single, many = per_backend_results[backend]
        assert np.array_equal(serial_single, single)
        for a, b in zip(serial_many, many):
            assert np.array_equal(a, b)

    def test_weighted_threads_matches_serial(self, data):
        weights = [1.0 + (i % 7) for i in range(N)]
        results = {}
        for backend in ("serial", "threads"):
            with ShardedIRS(
                data, num_shards=4, weights=weights, seed=73,
                shard_kind="weighted-dynamic", backend=backend, max_workers=2,
            ) as s:
                results[backend] = s.sample_bulk(0.2, 0.8, 4000)
        assert np.array_equal(results["serial"], results["threads"])

    def test_derive_seed_is_stable_and_distinct(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
        assert derive_seed(1, 2, 3) != derive_seed(2, 2, 3)
        assert 0 <= derive_seed(2**64 - 1, -1, 5) < 2**64


class TestThreadBackend:
    def test_snapshot_refresh_after_updates(self, data):
        with ShardedIRS(
            data, num_shards=4, seed=74, backend="threads", max_workers=2
        ) as s:
            before = s.sample_bulk(0.0, 1.0, 200)
            assert len(before) == 200
            s.insert_bulk([5.0] * 50)  # new region beyond the old max
            samples = s.sample_bulk(4.0, 6.0, 100)
            assert np.all(samples == 5.0)

    def test_close_then_reuse_rebuilds_pool(self, data):
        s = ShardedIRS(data, num_shards=2, seed=75, backend="threads",
                       max_workers=2)
        a = s.sample_bulk(0.1, 0.9, 300)
        s.close()
        b = s.sample_bulk(0.1, 0.9, 300)  # restarts the pool lazily
        assert len(a) == len(b) == 300
        s.close()
        s.close()  # idempotent


class TestBackendPlumbing:
    def test_make_backend_names(self):
        assert isinstance(make_backend("serial"), SerialBackend)
        assert isinstance(make_backend("threads"), ThreadBackend)
        for name in ("processes", "gpu"):
            with pytest.raises(ValueError):
                make_backend(name)

    def test_processes_backend_is_refused(self, data, tmp_path):
        with pytest.raises(ValueError):
            ShardedIRS(data, num_shards=2, backend="processes")
        points = tmp_path / "points.txt"
        points.write_text("0.1 0.4 0.6 0.9")
        with pytest.raises(SystemExit) as exc:
            cli_main(["sample", "--data", str(points), "--lo", "0", "--hi", "1",
                      "--shards", "2", "--backend", "processes"])
        assert exc.value.code == 2

    def test_backend_instance_passthrough(self, data):
        backend = SerialBackend()
        s = ShardedIRS(data, num_shards=2, seed=77, backend=backend)
        assert s._backend is backend
        assert s.backend_name == "serial"

    def test_thread_backend_single_task_inline(self):
        backend = ThreadBackend(max_workers=2)
        seen = []
        backend.run(seen.append, [1])
        backend.run(seen.append, [2, 3])
        backend.close()
        assert sorted(seen) == [1, 2, 3]


def _serial_named(name):
    """A serial backend under a name this version cannot build."""
    backend = SerialBackend()
    backend.name = name
    return backend


class TestRecordedBackendRecovery:
    """Manifests record ``backend_name``; recovery must not depend on it."""

    @pytest.mark.parametrize(
        "recorded, make",
        [
            ("processes", lambda: _serial_named("processes")),
            ("faulty-serial", lambda: FaultyBackend(SerialBackend(), FaultPlan(0))),
        ],
        ids=["processes", "faulty-serial"],
    )
    def test_recovers_on_serial(self, data, tmp_path, recorded, make):
        original = ShardedIRS(data, num_shards=4, seed=83, backend=make())
        with DurableStore(tmp_path / "d") as store:
            store.snapshot({"s": original})
            _seq, manifest = store.snapshots.latest()
        assert manifest["structures"]["s"]["params"]["backend"] == recorded
        with DurableStore(tmp_path / "d") as store:
            recovered = store.recover({}, seed=1).structures["s"]
        assert recovered.backend_name == "serial"
        fresh = ShardedIRS(data, num_shards=4, seed=84, backend="serial")
        for seed in (5, 6):
            assert (
                recovered.sample_bulk(0.1, 0.9, 500, seed=seed).tobytes()
                == fresh.sample_bulk(0.1, 0.9, 500, seed=seed).tobytes()
            )


class TestRunnerIntegration:
    def test_runner_uses_scatter_many(self, data):
        s = ShardedIRS(data, num_shards=4, seed=78)
        runner = BatchQueryRunner(s)
        result = runner.run([(0.1, 0.5, 64), (0.5, 0.9, 32), (0.0, 1.0, 16)])
        assert [len(r) for r in result.samples] == [64, 32, 16]
        assert result.stats.queries == 3
        assert s.stats.extra.get("scatter_tasks", 0) > 0

    def test_run_counts_uses_peek(self, data):
        s = ShardedIRS(data, num_shards=4, seed=79)
        runner = BatchQueryRunner(s)
        queries = [(0.1, 0.5), (0.6, 0.7), (2.0, 3.0)]
        assert runner.run_counts(queries) == [s.count(lo, hi) for lo, hi in queries]

    def test_mixed_stream_against_sharded(self, data):
        from repro.batch import BatchOp

        s = ShardedIRS(data, num_shards=4, seed=80)
        runner = BatchQueryRunner(s)
        ops = [
            BatchOp.insert(0.31),
            BatchOp.insert(0.91),
            BatchOp.sample(0.0, 1.0, 32),
            BatchOp.delete(0.31),
            BatchOp.delete(0.91),
        ]
        result = runner.run_mixed(ops)
        assert len(result.samples[2]) == 32
        assert result.stats.extra["updates"] == 4
        assert len(s) == N

    def test_weighted_insert_rejected_on_plain_sharded(self, data):
        from repro.batch import BatchOp
        from repro.errors import InvalidQueryError

        s = ShardedIRS(data, num_shards=2, seed=81)
        runner = BatchQueryRunner(s)
        with pytest.raises(InvalidQueryError):
            runner.run_mixed([BatchOp.insert(0.5, weight=2.0)])
