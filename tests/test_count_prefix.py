"""The count prefix as a plain cache, and counts that read no prefix.

The directory's whole count prefix is a memo that every count change
empties; only rank readers (``peek_counts``, ``report``, seeded draws,
rank selection) build it, and only once the chunks they framed since the
last count change add up to the directory's size (DESIGN.md §8;
``tests/test_rank_frames.py`` pins that rule).  These tests pin that a
count and an unseeded draw never need it, that the update paths which
change counts drop it, and that every read after them matches a freshly
built twin and a sorted model.

``WeightedDynamicIRS.count`` answers from count geometry alone: it must
never rebuild the weight prefix, and it must agree with ``DynamicIRS``
over awkward bounds.  A weighted scalar write keeps the cached weight
prefix and marks it stale from its chunk on; the next read re-folds it
in place to the bits of a fresh ``cumsum``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import DynamicIRS, WeightedDynamicIRS
from repro.core.directory import ChunkDirectory

N = 60_000
#: Spans many chunks at N; the later ones are narrow and one-chunk.
QUERIES = [(0.2, 0.6), (0.0, 1.0), (0.41, 0.4101), (0.75, 0.9)]

kinds = pytest.mark.parametrize("kind", [DynamicIRS, WeightedDynamicIRS])
dtypes = pytest.mark.parametrize("dtype", [np.float32, np.float64])


def _build(kind, dtype):
    values = np.arange(N) / N  # distinct in either plane
    if kind is WeightedDynamicIRS:
        weights = np.random.default_rng(2).uniform(0.5, 2.0, N)
        return kind.from_sorted(values, weights, seed=1, dtype=dtype)
    return kind.from_sorted(values, seed=1, dtype=dtype)


def _insert(d, value):
    if isinstance(d, WeightedDynamicIRS):
        d.insert(value, 1.0 + value)
    else:
        d.insert(value)


def _insert_bulk(d, values):
    if isinstance(d, WeightedDynamicIRS):
        d.insert_bulk(values, [1.0 + v for v in values])
    else:
        d.insert_bulk(values)


def _twin(d):
    """A fresh ``from_sorted`` build over ``d``'s exported contents."""
    if isinstance(d, WeightedDynamicIRS):
        items = d.items()
        return WeightedDynamicIRS.from_sorted(
            [v for v, _ in items], [w for _, w in items], seed=1, dtype=d.dtype
        )
    return DynamicIRS.from_sorted(d.export_sorted(), seed=1, dtype=d.dtype)


def _reads(d):
    out = [d.count(lo, hi) for lo, hi in QUERIES]
    out.append(d.peek_counts(QUERIES).tolist())
    for lo, hi in QUERIES:
        out.append(d.report(lo, hi))
        out.append(d.sample_bulk(lo, hi, 32, seed=9).tolist())
    return out


def _warm(d):
    """Rank-read a range over every chunk, so the whole count prefix is cached.

    A narrower read frames only its own chunks while the prefix is cold;
    one that frames the whole directory buys the prefix at once.
    """
    assert len(d._dir) > 2
    d.peek_counts([(-np.inf, np.inf)])
    assert d._dir._prefix is not None


@kinds
@dtypes
def test_row_overflow_recut_drops_count_prefix(kind, dtype):
    d = _build(kind, dtype)
    _warm(d)
    value = float(d.export_sorted()[N // 2])
    _insert_bulk(d, [value] * (d._dir.cap + 1))  # overflows its row
    assert d._dir._prefix is None
    d.check_invariants()
    assert _reads(d) == _reads(_twin(d))


@kinds
@dtypes
def test_normalizing_bulk_delete_drops_count_prefix(kind, dtype):
    d = _build(kind, dtype)
    _warm(d)
    d.delete_bulk(d._dir.row(100)[:-1].tolist())  # one point left: under s
    assert d._dir._prefix is None
    d.check_invariants()
    assert _reads(d) == _reads(_twin(d))


@kinds
def test_random_updates_and_counts_match_a_sorted_model(kind):
    """Scalar and bulk updates in random order, each followed by a count.

    A rank read over every chunk before each update caches the whole
    count prefix, so every update must drop it; every count must equal a
    ``searchsorted`` over a model.
    """
    d = _build(kind, np.float64)
    model = d.export_sorted().astype(float)
    rng = np.random.default_rng(11)
    for step in range(160):
        _warm(d)
        op = int(rng.integers(4))
        if op == 0:
            value = float(rng.random())
            _insert(d, value)
            model = np.insert(model, model.searchsorted(value), value)
        elif op == 1:
            at = int(rng.integers(model.size))
            d.delete(float(model[at]))
            model = np.delete(model, at)
        elif op == 2:
            batch = rng.random(int(rng.integers(17, 65)))
            _insert_bulk(d, batch.tolist())
            model = np.sort(np.concatenate((model, batch)))
        else:
            at = rng.choice(model.size, int(rng.integers(17, 65)), replace=False)
            d.delete_bulk(model[at].tolist())
            model = np.delete(model, at)
        assert d._dir._prefix is None, "an update left the count prefix cached"
        lo, hi = np.sort(rng.random(2)).tolist()
        want = int(model.searchsorted(hi, "right") - model.searchsorted(lo, "left"))
        assert d.count(lo, hi) == want
        if step % 40 == 0:
            d.check_invariants()
    d.check_invariants()
    assert d.export_sorted().tolist() == model.tolist()


@kinds
def test_counts_and_unseeded_draws_read_no_count_prefix(kind, monkeypatch):
    """``count``, ``sample`` and unseeded ``sample_bulk`` never build the prefix.

    After a scalar update and a 64-value bulk pass the prefix is empty;
    with ``ensure_prefix`` patched to raise, all three must still answer.
    """
    d = _build(kind, np.float64)
    _insert(d, 0.5)
    _insert_bulk(d, np.random.default_rng(12).random(64).tolist())
    stored = d.export_sorted()

    def no_prefix(self):
        raise AssertionError("a count or an unseeded draw built the count prefix")

    monkeypatch.setattr(ChunkDirectory, "ensure_prefix", no_prefix)
    for lo, hi in QUERIES:
        assert d.count(lo, hi) == int(np.count_nonzero((stored >= lo) & (stored <= hi)))
        drawn = d.sample(lo, hi, 16) + d.sample_bulk(lo, hi, 64).tolist()
        assert len(drawn) == 80 and all(lo <= v <= hi for v in drawn)


# -- WeightedDynamicIRS.count reads no weights --------------------------------


@dtypes
def test_weighted_count_leaves_weight_prefix_cold(dtype):
    w = _build(WeightedDynamicIRS, dtype)
    lo, hi = QUERIES[0]
    w.range_weight(lo, hi)
    assert w._dir._wprefix is not None
    _insert_bulk(w, np.random.default_rng(6).random(64).tolist())
    assert w._dir._wprefix is None, "a bulk pass drops the weight prefix"
    w.check_invariants()
    assert w._dir._wprefix is None, "checking must not warm the weight prefix"
    stored = w.export_sorted()
    expected = int(np.count_nonzero((stored >= lo) & (stored <= hi)))
    assert w.count(lo, hi) == expected
    assert w._dir._wprefix is None
    _insert(w, 0.5)
    assert w.count(lo, hi) == expected + 1
    assert w._dir._wprefix is None


def _chunk_value(w, i):
    """A stored value inside chunk ``i`` (values are distinct)."""
    return float(w._dir.row(i)[1])


def _delete_down_to_s(w, i):
    """Delete from chunk ``i`` until it holds exactly ``s`` points."""
    while int(w._dir.counts[i]) > w._s:
        w.delete(_chunk_value(w, i))


SCALAR_WRITES = {
    "insert": lambda w, i: w.insert(_chunk_value(w, i) + 0.1 / N, 1.5),
    "delete": lambda w, i: w.delete(_chunk_value(w, i)),
    "borrow": lambda w, i: w.delete(_chunk_value(w, i)),
    "update-weight": lambda w, i: w.update_weight(_chunk_value(w, i), 3.0),
}


@dtypes
@pytest.mark.parametrize("write", sorted(SCALAR_WRITES))
@pytest.mark.parametrize("read", ["range_weight", "sample_bulk"])
@pytest.mark.parametrize("at", ["first", "middle", "last"])
def test_weighted_scalar_write_refolds_the_weight_prefix_in_place(
    dtype, write, read, at
):
    """A scalar write keeps the weight prefix; the next read re-folds its suffix.

    The read keeps the cached array and its bits are a fresh ``cumsum``;
    ``check_invariants`` between the write and the read checks the clean
    head only and re-folds nothing.  The first chunk's write re-folds the
    whole prefix, the last chunk's only its tail.
    """
    w = _build(WeightedDynamicIRS, dtype)
    d = w._dir
    i = {"first": 0, "middle": len(d) // 2, "last": len(d) - 1}[at]
    if write == "borrow":
        _delete_down_to_s(w, i)  # the next delete leaves chunk i under s
    w.range_weight(-np.inf, np.inf)
    cached, k = d._wprefix, len(d)
    assert cached is not None
    SCALAR_WRITES[write](w, i)
    assert len(d) == k, "the write re-cut a chunk"
    w.check_invariants()
    assert d._wprefix is cached
    if write == "borrow":
        assert int(d.counts[i]) == w._s, "the delete did not borrow"
    getattr(w, read)(0.2, 0.6, *((4096,) if read == "sample_bulk" else ()))
    assert d._wprefix is cached, "the read rebuilt the weight prefix"
    assert cached.tobytes() == np.cumsum(d.wtotals).tobytes()
    w.check_invariants()


def _awkward_values(dtype):
    """Points with ``±inf``, both zeros and a run of copies over several chunks."""
    base = np.random.default_rng(7).standard_normal(3000).astype(dtype)
    copies = np.full(80, base[1500])
    zeros_and_infs = np.array([-np.inf, np.inf, -0.0, 0.0, -0.0, 0.0], dtype=dtype)
    return np.concatenate((base, copies, zeros_and_infs)).astype(float)


def _awkward_bounds(values, copied):
    """``±inf``, zero, some stored values and their f32 neighbours."""
    stored = np.unique(values)
    picked = np.concatenate((stored[:: stored.size // 25], [copied]))
    f32 = picked.astype(np.float32)
    near = np.concatenate((
        np.nextafter(f32, np.float32(-np.inf)),
        np.nextafter(f32, np.float32(np.inf)),
    ))
    bounds = np.concatenate((picked, near.astype(float), [-np.inf, np.inf, 0.0]))
    return sorted(set(bounds.tolist()))


def _check_counts(w, d, bounds):
    """Every count path agrees, and with ``searchsorted`` over the export.

    The bounds are all exact in either plane, so the reference needs no
    rounding.
    """
    pairs = [(lo, hi) for lo in bounds for hi in bounds if lo <= hi]
    flat = d.export_sorted().astype(float)
    los, his = np.array(pairs).T
    want = (flat.searchsorted(his, "right") - flat.searchsorted(los, "left")).tolist()
    assert [d.count(lo, hi) for lo, hi in pairs] == want
    assert [w.count(lo, hi) for lo, hi in pairs] == want
    assert w.peek_counts(pairs).tolist() == want
    for (lo, hi), c in list(zip(pairs, want))[::13]:
        assert len(w.report(lo, hi)) == c


@dtypes
def test_weighted_count_matches_unweighted_over_awkward_bounds(dtype):
    values = _awkward_values(dtype)
    weights = np.random.default_rng(9).uniform(0.5, 2.0, values.size)
    w = WeightedDynamicIRS(values, weights, seed=1, dtype=dtype)
    d = DynamicIRS(values, seed=1, dtype=dtype)
    copied = float(values[3000])
    bounds = _awkward_bounds(values, copied)
    a, _la, b, _rb = d._dir.edges(copied, copied)
    assert b - a >= 2, "the copies should span several chunks"
    _check_counts(w, d, bounds)
    # After a bulk pass.
    extra = np.random.default_rng(10).standard_normal(40).tolist() + [copied] * 5
    w.insert_bulk(extra, [1.0] * len(extra))
    d.insert_bulk(extra)
    _check_counts(w, d, bounds)
    # Delete to empty, then insert again.
    everything = d.export_sorted()
    w.delete_bulk(everything)
    d.delete_bulk(everything)
    assert len(w) == len(d) == 0
    assert w.count(-np.inf, np.inf) == 0
    _check_counts(w, d, bounds[:: max(1, len(bounds) // 20)])
    w.insert_bulk(extra, [1.0] * len(extra))
    d.insert_bulk(extra)
    w.insert(-0.0, 1.0)
    d.insert(-0.0)
    _check_counts(w, d, bounds)
    w.check_invariants()
    d.check_invariants()
