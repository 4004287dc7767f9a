"""``repro`` — Independent Range Sampling (Hu–Qiao–Tao, PODS 2014).

A full reproduction of the paper's structures plus the substrates they need:

* :class:`StaticIRS` — static 1-D uniform IRS, ``O(log n + t)`` worst case;
* :class:`DynamicIRS` — dynamic 1-D uniform IRS, ``O(log n + t)`` expected
  query, ``O(log n)`` amortized update;
* :class:`ExternalIRS` — external-memory static IRS over a simulated block
  device, ``O(log_B n + t/B)`` amortized expected I/Os;
* :class:`WeightedStaticIRS` — weighted extension (exact proportional
  sampling, worst-case query).

See DESIGN.md for the system inventory and the analysis record.  Quick
start::

    from repro import DynamicIRS
    d = DynamicIRS([3.0, 1.0, 4.0, 1.0, 5.0], seed=42)
    d.sample(1.0, 4.0, 3)   # three independent uniform samples from [1, 4]
    d.insert_bulk([2.5, 0.5, 3.5])   # one sort + one directory repair
    d.sample_bulk(0.0, 4.0, 1000)    # vectorized draws (NumPy array)

Batches of queries — and mixed update/query streams — run through
:class:`repro.batch.BatchQueryRunner` (``run`` / ``run_mixed``).

For horizontal scale, :class:`ShardedIRS` range-partitions the key space
across ``P`` shards (each any sampler above) behind the same API, with
scatter-gather sampling over the shards::

    from repro import ShardedIRS
    s = ShardedIRS(values, num_shards=4, seed=42)
    s.sample_bulk(0.0, 1.0, 10_000)   # exact and reproducible

And :mod:`repro.serve` puts an asyncio front end on any of them —
newline-delimited JSON over TCP with request coalescing, typed errors,
backpressure, and replies that are byte-identical under a fixed root
seed (see README.md and docs/ for the guided tour).

The scenario tier (:mod:`repro.scenarios`) builds the paper's workload
stories on those primitives: :class:`WindowedIRS` samples over the last
``W`` inserts of a stream (optionally exponentially decayed),
:func:`sample_stratified` splits a budget exactly across caller strata,
and :func:`adaptive_estimate` draws until a target confidence-interval
width is met.
"""

from .batch import BatchOp, BatchQuery, BatchQueryRunner, BatchResult, MixedResult
from .core import (
    DynamicIRS,
    DynamicRangeSampler,
    ExternalIRS,
    RangeSampler,
    StaticIRS,
    WeightedDynamicIRS,
    WeightedStaticIRS,
    sample_ranks_without_replacement,
    sample_ranks_without_replacement_bulk,
    sample_without_replacement,
    sample_without_replacement_bulk,
)
from .errors import (
    CapacityError,
    EmptyRangeError,
    EmptyStructureError,
    InvalidQueryError,
    InvalidWeightError,
    KeyNotFoundError,
    ReproError,
)
from .rng import RandomSource
from .scenarios import EstimateResult, WindowedIRS, adaptive_estimate, sample_stratified
from .serve import ReproServer, ServeClient, TCPServeClient
from .shard import ShardedIRS
from .types import Interval, QueryStats

__version__ = "1.4.0"

__all__ = [
    "BatchOp",
    "BatchQuery",
    "BatchQueryRunner",
    "BatchResult",
    "MixedResult",
    "StaticIRS",
    "DynamicIRS",
    "ExternalIRS",
    "WeightedStaticIRS",
    "WeightedDynamicIRS",
    "ShardedIRS",
    "RangeSampler",
    "DynamicRangeSampler",
    "sample_without_replacement",
    "sample_without_replacement_bulk",
    "sample_ranks_without_replacement",
    "sample_ranks_without_replacement_bulk",
    "WindowedIRS",
    "sample_stratified",
    "adaptive_estimate",
    "EstimateResult",
    "RandomSource",
    "Interval",
    "QueryStats",
    "ReproError",
    "EmptyRangeError",
    "EmptyStructureError",
    "InvalidQueryError",
    "InvalidWeightError",
    "KeyNotFoundError",
    "CapacityError",
    "__version__",
]
