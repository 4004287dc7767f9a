"""F20 — kernel costs: updates and bulk sampling by plane dtype and n.

The chunk directory's hot loops run as pure NumPy array kernels
(`repro.core.kernels`) at exactly the paper's constant-overhead points —
scalar insert/delete, the bulk splice passes, and the middle window of
`sample_bulk`.  This table records what those points cost at n = 10⁴ and
10⁶, and float32 vs float64 planes at the large size; the title records
the host (CPU count, Python and NumPy versions) the rows came from.
`µs/op` is the inverse-throughput view used by the DESIGN.md §5
scalar-cost table.
"""

from __future__ import annotations

import os
import platform

import pytest

from repro import DynamicIRS, WeightedDynamicIRS
from repro.bench import time_callable, update_throughput
from repro.workloads import uniform_points

try:
    import numpy as np
except ImportError:  # pragma: no cover - numpy is installed in CI
    np = None

SIZES = [10_000, 1_000_000]
SCALAR_OPS = 2_000
BULK_BATCH = 10_000
T_WIDE = 65_536
T_NARROW = 256
NARROW_QUERIES = 64


@pytest.fixture(scope="module")
def datasets():
    return {n: np.asarray(uniform_points(n, seed=201)) for n in SIZES}


@pytest.fixture(scope="module")
def rec(experiment):
    return experiment(
        "F20",
        "kernel costs (scalar ops x2000, bulk batch=10k, wide t=65536): "
        f"rate by op, dtype and n; host: {os.cpu_count()} CPUs, "
        f"Python {platform.python_version()}, NumPy {np.__version__}",
        ["op", "dtype", "n", "rate/s", "us/op"],
    )


def _dtypes_for(n):
    # float32 rows at the large size only: the dtype ablation is about
    # resident bytes at scale, and the small-n rows would double runtime
    # for no information.
    return [np.float64, np.float32] if n == SIZES[-1] else [np.float64]


def _row(rec, op, dtype, n, rate):
    rec.row(
        op,
        np.dtype(dtype).name,
        n,
        round(rate),
        round(1e6 / rate, 3) if rate else float("inf"),
    )


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.benchmark(group="F20 kernels")
def test_scalar_updates(datasets, rec, n):
    data = datasets[n]
    inserts = uniform_points(SCALAR_OPS, seed=202)
    for dtype in _dtypes_for(n):
        def scalar_churn(d):
            for v in inserts:
                d.insert(v)
            for v in inserts:
                d.delete(v)

        rate = update_throughput(
            lambda: DynamicIRS(data, seed=203, dtype=dtype),
            scalar_churn,
            2 * SCALAR_OPS,
        )
        _row(rec, "scalar-insert+delete", dtype, n, rate)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.benchmark(group="F20 kernels")
def test_bulk_updates(datasets, rec, n):
    data = datasets[n]
    batch = uniform_points(BULK_BATCH, seed=204)
    for dtype in _dtypes_for(n):
        rate = update_throughput(
            lambda: DynamicIRS(data, seed=205, dtype=dtype),
            lambda d: (d.insert_bulk(batch), d.delete_bulk(batch)),
            2 * BULK_BATCH,
        )
        _row(rec, "bulk-insert+delete", dtype, n, rate)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.benchmark(group="F20 kernels")
def test_bulk_sampling(datasets, rec, n):
    data = datasets[n]
    for dtype in _dtypes_for(n):
        d = DynamicIRS(data, seed=206, dtype=dtype)
        d.sample_bulk(0.05, 0.95, T_WIDE)  # warm the side stream
        best = time_callable(lambda: d.sample_bulk(0.05, 0.95, T_WIDE), repeat=3)
        _row(rec, "sample-wide", dtype, n, T_WIDE / best)

        narrow = [
            (0.4 + 0.001 * i, 0.4 + 0.001 * i + 0.002, T_NARROW)
            for i in range(NARROW_QUERIES)
        ]

        def run_narrow():
            for lo, hi, t in narrow:
                d.sample_bulk(lo, hi, t)

        best = time_callable(run_narrow, repeat=3)
        _row(
            rec, "sample-narrow", dtype, n,
            NARROW_QUERIES * T_NARROW / best,
        )


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.benchmark(group="F20 kernels")
def test_weighted_bulk_sampling(datasets, rec, n):
    data = datasets[n]
    weights = [1.0 + (i % 7) for i in range(n)]
    for dtype in _dtypes_for(n):
        w = WeightedDynamicIRS(data, weights, seed=207, dtype=dtype)
        w.sample_bulk(0.05, 0.95, T_WIDE)
        best = time_callable(lambda: w.sample_bulk(0.05, 0.95, T_WIDE), repeat=3)
        _row(rec, "weighted-sample-wide", dtype, n, T_WIDE / best)
