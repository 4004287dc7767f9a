"""A sample count is an integer on every sampling entry point.

One rule, the one ranks follow: a Python or NumPy integer passes; a bool
or a float (an integral one included) raises
:class:`~repro.errors.InvalidQueryError` instead of being truncated into
a different count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import InvalidQueryError, ShardedIRS, WindowedIRS
from repro.core.kinds import KINDS
from repro.scenarios import sample_stratified

DATA = np.arange(200, dtype=float)
LO, HI = 10.0, 150.0
#: Two strata inside ``[LO, HI]``; a stratified call's blocks are pooled.
STRATA = [(LO, 60.0), (61.0, HI)]


def _kind(name):
    return lambda: KINDS[name].build(
        DATA, None, seed=1, dtype=None, block_size=16, adopt=False
    )


BUILDERS = {name: (row.cls, _kind(name)) for name, row in KINDS.items()}
BUILDERS["sharded"] = (ShardedIRS, lambda: ShardedIRS(DATA, num_shards=3, seed=1))
BUILDERS["windowed"] = (WindowedIRS, lambda: WindowedIRS(DATA, window=150, seed=1))
BUILDERS["windowed-decay"] = (
    WindowedIRS, lambda: WindowedIRS(DATA, window=150, seed=1, decay=0.99)
)

#: Entry point -> (method it needs, call returning the first query's draws).
PATHS = {
    "sample": ("sample", lambda s, t: s.sample(LO, HI, t)),
    "sample_bulk": ("sample_bulk", lambda s, t: s.sample_bulk(LO, HI, t)),
    "sample_bulk-seeded": (
        "sample_bulk", lambda s, t: s.sample_bulk(LO, HI, t, seed=5)
    ),
    "sample_bulk_many": (
        "sample_bulk_many", lambda s, t: s.sample_bulk_many([(LO, HI, t)])[0]
    ),
    "sample_bulk_many-seeded": (
        "sample_bulk_many",
        lambda s, t: s.sample_bulk_many([(LO, HI, t)], seeds=[5])[0],
    ),
    "sample_bulk_many-batch": (
        "sample_bulk_many",
        lambda s, t: s.sample_bulk_many([(LO, HI, t), (LO, HI, 3)])[0],
    ),
    "sample_bulk_many-batch-seeded": (
        "sample_bulk_many",
        lambda s, t: s.sample_bulk_many(
            [(LO, HI, t), (LO, HI, 3)], seeds=[5, 6]
        )[0],
    ),
    "sample_stratified": (
        "sample_bulk", lambda s, t: np.concatenate(sample_stratified(s, STRATA, t))
    ),
    "sample_stratified-seeded": (
        "sample_bulk",
        lambda s, t: np.concatenate(sample_stratified(s, STRATA, t, seed=3)),
    ),
    "method-sample_stratified": (
        "sample_stratified",
        lambda s, t: np.concatenate(s.sample_stratified(STRATA, t, seed=3)),
    ),
}

CASES = [
    pytest.param(kind, path, id=f"{kind}-{path}")
    for kind, (cls, _build) in BUILDERS.items()
    for path, (method, _call) in PATHS.items()
    if hasattr(cls, method)
]


@pytest.mark.parametrize("kind, path", CASES)
def test_sample_count_is_an_integer(kind, path):
    build = BUILDERS[kind][1]
    call = PATHS[path][1]
    for bad in (2.5, 2.0, True):
        with pytest.raises(InvalidQueryError):
            call(build(), bad)
    for good in (2, np.int64(2)):
        draws = call(build(), good)
        assert len(draws) == 2
        assert all(LO <= float(x) <= HI for x in draws)
