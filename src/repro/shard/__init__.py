"""Sharded scatter-gather IRS: range partitioning over ``P`` shards.

:class:`ShardedIRS` range-partitions the key space across ``P`` shards
(each any existing sampler) and implements the full sampler API with
exactly the single-structure distributions — per-shard in-range probes,
one multinomial split of ``t``, scatter, gather, permute.  Every shard
task seeds its own generator, so results are reproducible under a fixed
seed.
"""

from .partition import cut_bounds, route_values, run_aligned_cuts
from .sharded import SHARD_KINDS, ShardedIRS

__all__ = [
    "ShardedIRS",
    "SHARD_KINDS",
    "run_aligned_cuts",
    "cut_bounds",
    "route_values",
]
