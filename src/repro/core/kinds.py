"""The structure kinds: one table row per kind.

:data:`KINDS` maps each kind's name — the vocabulary of the CLI's
``--structure``, of :class:`~repro.shard.ShardedIRS`'s ``shard_kind`` and
of snapshot manifests — to a :class:`Kind` row.  The CLI, the shard
facade and the snapshot store read these rows instead of naming kinds
themselves, so adding a kind means adding one row here.

Every builder is ``O(n)`` over value-sorted planes (the kind's own
``from_sorted``); :func:`sort_planes` prepares unsorted input for it.
:class:`~repro.scenarios.WindowedIRS` is not a kind: it has no
``from_sorted``, and snapshots refuse it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as _np

from .dynamic_irs import DynamicIRS
from .em_irs import ExternalIRS
from .static_irs import StaticIRS
from .weighted_dynamic import WeightedDynamicIRS
from .weighted_irs import WeightedStaticIRS

__all__ = ["Kind", "KINDS", "dtype_param", "sort_planes"]


@dataclass(frozen=True)
class Kind:
    """One structure kind.

    ``build(values, weights, *, seed, dtype, block_size, adopt)`` builds
    the kind over value-sorted planes.  ``weights`` is ``None`` for the
    unweighted kinds and means unit weights for the weighted ones;
    ``dtype`` is ignored by the float64-only kinds and ``block_size`` by
    all but ``external``.  ``adopt=True`` lets a ``static`` structure
    keep the caller's plane zero-copy; only snapshot recovery, which owns
    its decoded planes, passes it.  ``params(sampler)`` returns the
    rebuild parameters a snapshot manifest records for the sampler.
    """

    cls: type
    weighted: bool
    updatable: bool
    f64_only: bool
    params: Callable[[object], dict]
    build: Callable[..., object]


def dtype_param(sampler) -> dict:
    """Return ``{"dtype": name}`` for a float32 sampler, ``{}`` for float64.

    float64 stays implicit, which keeps manifests byte-identical to the
    snapshots written before float32 planes existed.
    """
    dtype = _np.dtype(sampler.dtype)
    return {} if dtype == _np.float64 else {"dtype": dtype.name}


def sort_planes(values, weights=None):
    """Sort a value plane, and the weights aligned with it, by value.

    ``values`` is a 1-D NumPy array.  The sort is stable, so equal values
    keep their weights in input order.  A length mismatch raises
    :class:`ValueError` before anything is indexed.
    """
    order = _np.argsort(values, kind="stable")
    if weights is None:
        return values[order], None
    weights = _np.asarray(list(weights), dtype=float)
    if len(weights) != len(values):
        raise ValueError(
            f"values and weights differ in length: {len(values)} != {len(weights)}"
        )
    return values[order], weights[order]


KINDS: dict[str, Kind] = {
    "static": Kind(
        StaticIRS, weighted=False, updatable=False, f64_only=False,
        params=dtype_param,
        build=lambda v, w, *, seed, dtype, block_size, adopt: StaticIRS.from_sorted(
            v, seed=seed, dtype=dtype, copy=not adopt
        ),
    ),
    "dynamic": Kind(
        DynamicIRS, weighted=False, updatable=True, f64_only=False,
        params=dtype_param,
        build=lambda v, w, *, seed, dtype, block_size, adopt: DynamicIRS.from_sorted(
            v, seed=seed, dtype=dtype
        ),
    ),
    "weighted": Kind(
        WeightedStaticIRS, weighted=True, updatable=False, f64_only=True,
        params=lambda irs: {},
        build=lambda v, w, *, seed, dtype, block_size, adopt: (
            WeightedStaticIRS.from_sorted(
                v, _np.ones(len(v)) if w is None else w, seed=seed
            )
        ),
    ),
    "weighted-dynamic": Kind(
        WeightedDynamicIRS, weighted=True, updatable=True, f64_only=False,
        params=dtype_param,
        build=lambda v, w, *, seed, dtype, block_size, adopt: (
            WeightedDynamicIRS.from_sorted(v, w, seed=seed, dtype=dtype)
        ),
    ),
    "external": Kind(
        ExternalIRS, weighted=False, updatable=False, f64_only=True,
        params=lambda irs: {"block_size": irs.device.block_size},
        build=lambda v, w, *, seed, dtype, block_size, adopt: ExternalIRS.from_sorted(
            v.tolist(), block_size=block_size, seed=seed
        ),
    ),
}
