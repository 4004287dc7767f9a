"""The guided search kernel against ``searchsorted``, and the draws it serves.

``kernels.search_guided(table, targets, base)`` must return exactly
``np.searchsorted(table, targets, side="right")`` for a nondecreasing
table whose cells are all ``>= base``: over int count prefixes, float
tables of weights across ``e^±30``, duplicate cells, runs of ulp-close
cells (which crowd one bucket and send targets to the plain search),
targets on every cell and one ulp either side of it, at ``base`` and past
both ends, and target counts on both sides of the cutoff below which the
kernel is one plain search.  A ``slow`` hypothesis variant draws the
tables and targets.

``DynamicIRS.sample_bulk`` resolves a narrow middle through the kernel;
its unseeded draws must be the bits the plain search gives, on both value
planes, over duplicate-heavy data and over layouts grown by updates.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DynamicIRS
from repro.core import kernels

CUTOFF = kernels._GUIDED_MIN


def _count_prefix(rng, n):
    return np.cumsum(rng.integers(1, 60, n))


def _weight_table(rng, n):
    return np.cumsum(np.exp(rng.uniform(-30.0, 30.0, n)))


def _duplicate_cells(rng, n):
    return np.sort(rng.integers(0, max(n // 8, 2), n)).astype(float)


def _ulp_runs(rng, n):
    # Long runs of cells one ulp apart, with a few wide gaps: most cells
    # share a bucket, so most targets fall through to the plain search.
    start = np.full(n, 1.0)
    steps = np.where(rng.random(n) < 0.01, 1.0, 0.0)
    coarse = np.cumsum(steps) + start
    ulps = np.arange(n) % 64
    return np.sort(coarse * (1.0 + ulps * np.finfo(float).eps))


TABLES = {
    "count-prefix": _count_prefix,
    "weights-e30": _weight_table,
    "duplicates": _duplicate_cells,
    "ulp-runs": _ulp_runs,
}


def _targets(rng, table, base, m):
    """Every cell and one ulp either side, the ends, then uniform fill to ``m``."""
    cells = table.astype(float)
    marks = np.concatenate((
        cells,
        np.nextafter(cells, -np.inf),
        np.nextafter(cells, np.inf),
        [base, np.nextafter(base, -np.inf), cells[-1] * 2 + 1, -1.0, np.inf, -np.inf],
    ))
    if table.dtype.kind == "i":
        marks = np.clip(marks[np.isfinite(marks)], -(2**40), 2**40)
        marks = np.unique(np.concatenate((np.floor(marks), np.ceil(marks))))
        fill = rng.integers(int(base), int(table[-1]) + 2, max(m - marks.size, 0))
        out = np.concatenate((marks.astype(np.int64), fill))
    else:
        fill = base + rng.random(max(m - marks.size, 0)) * (cells[-1] - base) * 1.01
        out = np.concatenate((marks, fill))
    return rng.permutation(out)[:m] if out.size > m else rng.permutation(out)


def _expect(table, targets):
    return np.searchsorted(table, targets, side="right")


@pytest.mark.parametrize("shape", sorted(TABLES))
@pytest.mark.parametrize("n", [1, 2, 24, 700, 5000])
@pytest.mark.parametrize("m", [CUTOFF - 1, CUTOFF, 4 * CUTOFF + 3])
def test_guided_search_matches_searchsorted(shape, n, m):
    rng = np.random.default_rng([n, m, len(shape)])
    table = TABLES[shape](rng, n)
    base = table[0] if shape in ("duplicates", "ulp-runs") else 0
    targets = _targets(rng, table, base, m)
    got = kernels.search_guided(table, targets, base)
    assert got.dtype == np.int64
    assert got.tolist() == _expect(table, targets).tolist()


def test_guide_is_built_only_from_the_cutoff_on(monkeypatch):
    """Below the cutoff, or over a degenerate span, the kernel is a plain search."""
    built = []

    def buckets(values, *args, _fn=kernels._buckets):
        built.append(values.size)
        return _fn(values, *args)

    monkeypatch.setattr(kernels, "_buckets", buckets)
    rng = np.random.default_rng(3)
    table = _count_prefix(rng, 300)
    for m, guided in ((CUTOFF - 1, False), (CUTOFF, True)):
        built.clear()
        targets = rng.integers(0, int(table[-1]), m)
        assert kernels.search_guided(table, targets, 0).tolist() == (
            _expect(table, targets).tolist()
        )
        assert bool(built) == guided
    for flat in (np.zeros(40), np.array([0.0, np.inf]), np.array([5e-324] * 3)):
        built.clear()
        targets = np.linspace(-1.0, 1.0, CUTOFF)
        assert kernels.search_guided(flat, targets, 0.0).tolist() == (
            _expect(flat, targets).tolist()
        )
        assert not built


@pytest.mark.slow
@settings(max_examples=300, deadline=None)
@given(
    shape=st.sampled_from(sorted(TABLES)),
    n=st.integers(1, 4000),
    m=st.integers(CUTOFF - 8, 6 * CUTOFF),
    base_below=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_guided_search_matches_searchsorted_drawn(shape, n, m, base_below, seed):
    """Drawn tables, bases and target batches against ``searchsorted``."""
    rng = np.random.default_rng(seed)
    table = TABLES[shape](rng, n)
    base = table[0]
    if base_below:  # any base at or below the first cell is exact
        base = base - abs(base) * rng.random() - rng.integers(0, 3)
    targets = _targets(rng, table, base, m)
    assert kernels.search_guided(table, targets, base).tolist() == (
        _expect(table, targets).tolist()
    )


# -- the unweighted narrow middle draws the plain search's bits --------------


def _grown(dtype, duplicates):
    """A ``DynamicIRS`` whose layout scalar and bulk updates have reshaped."""
    rng = np.random.default_rng([5, int(duplicates)])
    n = 40_000
    if duplicates:
        values = rng.integers(0, 300, n) / 300.0
    else:
        values = rng.random(n)
    d = DynamicIRS(values, seed=17, dtype=dtype)
    stored = d.export_sorted()
    for v in rng.choice(stored, 400, replace=False).tolist():
        d.delete(v)
    for v in rng.random(400).tolist():
        d.insert(v)
    d.insert_bulk(rng.random(3000) * 0.2 + 0.4)
    d.delete_bulk(rng.choice(d.export_sorted(), 2500, replace=False))
    d.check_invariants()
    return d


CALLS = [
    (0.45, 0.5, 1024),
    (0.45, 0.5, 1200),
    (0.3, 0.31, 2048),
    (0.1, 0.2, 4096),
    (0.0, 1.0, 16384),
    (0.2, 0.9, 30000),
    (0.5, 0.5004, 5000),
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layout", ["fresh", "grown", "grown-duplicates"])
def test_narrow_middle_draws_match_the_plain_search(dtype, layout, monkeypatch):
    def build():
        if layout == "fresh":
            values = np.random.default_rng(4).random(40_000)
            return DynamicIRS(values, seed=17, dtype=dtype)
        return _grown(dtype, layout == "grown-duplicates")

    sizes = []

    def recorded(table, targets, base, _fn=kernels.search_guided):
        sizes.append(targets.size)
        return _fn(table, targets, base)

    monkeypatch.setattr(kernels, "search_guided", recorded)
    structure = build()
    guided = [structure.sample_bulk(*call) for call in CALLS]
    assert max(sizes) >= CUTOFF, "no narrow middle reached the guide"
    structure = build()
    monkeypatch.setattr(
        kernels, "search_guided", lambda table, targets, base: kernels.search_right(
            table, targets
        )
    )
    plain = [structure.sample_bulk(*call) for call in CALLS]
    for call, a, b in zip(CALLS, guided, plain):
        assert a.tobytes() == b.tobytes(), call
