"""Sharded scatter-gather IRS: range partitioning over pluggable backends.

:class:`ShardedIRS` range-partitions the key space across ``P`` shards
(each any existing sampler) and implements the full sampler API with
exactly the single-structure distributions — per-shard in-range probes,
one multinomial split of ``t``, scatter, gather, permute.  Execution
backends (``serial`` / ``threads``) are pluggable and produce identical
results under a fixed seed.
"""

from .executors import BACKEND_NAMES, SerialBackend, ThreadBackend, make_backend
from .partition import cut_bounds, route_values, run_aligned_cuts
from .sharded import SHARD_KINDS, ShardedIRS

__all__ = [
    "ShardedIRS",
    "SHARD_KINDS",
    "BACKEND_NAMES",
    "SerialBackend",
    "ThreadBackend",
    "make_backend",
    "run_aligned_cuts",
    "cut_bounds",
    "route_values",
]
