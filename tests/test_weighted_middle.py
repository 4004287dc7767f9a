"""The weighted middle draw against a cumulative table over every point.

``WeightedDynamicIRS._middle_bulk`` places a batch of middle-mass
positions in one guided search over the window's table when the window
holds at most two cells per draw, and otherwise with two searches: chunk
by the weight prefix, then point in the cumulative tables of only the
chunks the draws land in.  Its picks must be the ones a single
``searchsorted`` over a table of *every* point's cumulative weight gives
(each row's sequential table shifted by the mass of the chunks before
it), clamped into the middle window — bit for bit, on both value planes,
over duplicate-heavy values, weights spanning ``e^±30`` or spiked by a
few huge ones, states after every update path, windows on both sides of
the two-cells-per-draw rule, and targets on exact cumulative boundaries
or outside the window.  The oracle builds that ``O(n)`` table here; the
structure never does, and the last test pins that a bulk read right
after a weighted write does no ``O(n)`` work.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import WeightedDynamicIRS
from repro.core import kernels

dtypes = pytest.mark.parametrize("dtype", [np.float32, np.float64])


def _flat_oracle(w, a, b, residuals):
    """Picks from one cumulative table over all points, clamped to the window."""
    d = w._dir
    counts, rows = d.counts, d.row_of
    live = np.arange(d.cap) < counts[:, None]
    vals = d.slab[rows][live]
    base = np.concatenate(([0.0], np.cumsum(d.wtotals)))
    gcum = kernels.cum_table(d.wslab[rows])[live] + np.repeat(base[:-1], counts)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    return kernels.flat_pick(
        vals, gcum, base[a + 1] + residuals, offsets[a + 1], offsets[b] - 1
    )


def _boundary_residuals(w, a, b, rng, m):
    """Residuals whose targets sit on, and one ulp off, cumulative boundaries.

    The boundaries are the chunk masses ``wprefix[c]`` of the window and
    the shifted in-row cumulative cells of a few of its chunks.
    """
    d = w._dir
    wprefix = np.cumsum(d.wtotals)
    marks = [wprefix[a:b]]
    for c in rng.integers(a + 1, b, size=min(m, b - a - 1)):
        row = kernels.cum_table(d.wslab[d.row_of[c], : d.counts[c]])
        marks.append(row + wprefix[c - 1])
    exact = np.concatenate(marks) - wprefix[a]
    return np.concatenate(
        (exact, np.nextafter(exact, -np.inf), np.nextafter(exact, np.inf))
    )


def _residuals(w, a, b, rng, m=200):
    """Uniform middle residuals, boundary ones, and ones outside the window."""
    wprefix = np.cumsum(w._dir.wtotals)
    w_mid = float(wprefix[b - 1] - wprefix[a])
    total = float(wprefix[-1])
    outside = np.array(
        [0.0, w_mid, -w_mid, -1e-300, -total, 2 * w_mid, w_mid + total, 1e300]
    )
    return np.concatenate(
        (rng.random(m) * w_mid, _boundary_residuals(w, a, b, rng, 8), outside)
    )


def _windows(k, rng):
    """Middle windows ``(a, b)`` with ``b - a >= 2``: whole, narrow, random."""
    out = [(0, k - 1), (0, 2), (k - 3, k - 1)]
    for _ in range(6):
        a = int(rng.integers(0, k - 2))
        out.append((a, int(rng.integers(a + 2, k))))
    return out


def _assert_matches_oracle(w, rng):
    k = len(w._dir)
    assert k >= 3
    for a, b in _windows(k, rng):
        residuals = _residuals(w, a, b, rng)
        got = w._middle_bulk(a, b, residuals)
        want = _flat_oracle(w, a, b, residuals)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes(), (a, b)
    w.check_invariants()


def _build(dtype, values_kind, rng, n=3000):
    if values_kind == "duplicates":
        values = rng.integers(0, 40, n) / 4.0
    else:
        values = rng.uniform(-1e3, 1e3, n)
    weights = np.exp(rng.uniform(-30.0, 30.0, n))
    return WeightedDynamicIRS(values, weights, seed=1, dtype=dtype)


def _present(w, rng, m):
    return rng.choice(w.export_sorted(), size=m, replace=False).tolist()


def _scalar_inserts(w, rng):
    # A run of inserts at one value overflows its row and re-cuts it.
    v = float(np.median(w.export_sorted()))
    for weight in np.exp(rng.uniform(-30.0, 30.0, 80)):
        w.insert(v, float(weight))


def _scalar_deletes(w, rng):
    for v in _present(w, rng, 400):
        w.delete(v)


def _update_weights(w, rng):
    for v in _present(w, rng, 200):
        w.update_weight(v, float(np.exp(rng.uniform(-30.0, 30.0))))


def _bulk_inserts(w, rng):
    values = np.repeat(rng.choice(w.export_sorted(), 20), 40)
    w.insert_bulk(values, np.exp(rng.uniform(-30.0, 30.0, values.size)))


def _bulk_removes(w, rng):
    w.delete_bulk(_present(w, rng, 1200))


STATES = {
    "fresh": lambda w, rng: None,
    "scalar-insert": _scalar_inserts,
    "scalar-delete": _scalar_deletes,
    "update-weight": _update_weights,
    "bulk-insert": _bulk_inserts,
    "bulk-remove": _bulk_removes,
}


@dtypes
@pytest.mark.parametrize("values_kind", ["distinct", "duplicates"])
@pytest.mark.parametrize("state", sorted(STATES))
def test_middle_picks_match_the_flat_table(dtype, values_kind, state):
    rng = np.random.default_rng([7, len(state), int(values_kind == "duplicates")])
    w = _build(dtype, values_kind, rng)
    w.range_weight(-np.inf, np.inf)  # warm the weight prefix before the writes
    STATES[state](w, rng)
    _assert_matches_oracle(w, rng)


SKEWS = {
    "e30": lambda rng, n: np.exp(rng.uniform(-30.0, 30.0, n)),
    # A huge weight every 97 points crowds the window table's cells into
    # a few of the guide's buckets, so most targets take the plain search.
    "spikes": lambda rng, n: np.where(np.arange(n) % 97, 1.0, 1e9) * rng.uniform(
        0.5, 2.0, n
    ),
}


def _sized_residuals(w, a, b, rng, m):
    """Exactly ``m`` residuals: boundary and outside ones, then uniform ones."""
    special = _residuals(w, a, b, rng, m=0)
    if special.size >= m:
        return rng.choice(special, m, replace=False)
    fill = _residuals(w, a, b, rng, m)[: m - special.size]
    return rng.permutation(np.concatenate((special, fill)))


@dtypes
@pytest.mark.parametrize("skew", sorted(SKEWS))
@pytest.mark.parametrize("state", ["fresh", "scalar-delete", "bulk-insert"])
def test_window_table_picks_match_the_flat_table(dtype, skew, state, monkeypatch):
    """A window of at most ``2m`` cells is one guided table; a wider one is not.

    Each window is drawn at exactly ``2m`` cells (the table) and at one
    target fewer (the touched rows); the whole window holds more than
    ``2 * _GUIDED_MIN`` cells, so its table builds the guide.
    """
    rng = np.random.default_rng([13, len(skew), len(state)])
    w = WeightedDynamicIRS(
        rng.uniform(-1e3, 1e3, 3000), SKEWS[skew](rng, 3000), seed=1, dtype=dtype
    )
    STATES[state](w, rng)
    tabled = []

    def recorded(table, targets, base, _fn=kernels.search_guided):
        tabled.append(table.size)
        return _fn(table, targets, base)

    monkeypatch.setattr(kernels, "search_guided", recorded)
    d = w._dir
    k = len(d)
    assert (k - 2) * d.cap > 2 * kernels._GUIDED_MIN
    for a, b in _windows(k, rng):
        cells = (b - a - 1) * d.cap  # even: cap is 2s
        for m, table in ((cells // 2, True), (cells // 2 - 1, False)):
            residuals = _sized_residuals(w, a, b, rng, m)
            tabled.clear()
            got = w._middle_bulk(a, b, residuals)
            assert got.dtype == np.float64
            assert got.tobytes() == _flat_oracle(w, a, b, residuals).tobytes(), (a, b, m)
            assert bool(tabled) == table, (a, b, m)
    w.check_invariants()


def test_middle_picks_after_interleaved_writes_and_reads():
    """Reads between writes leave no stale weight prefix behind."""
    rng = np.random.default_rng(11)
    w = _build(np.float64, "duplicates", rng)
    for state in ("update-weight", "scalar-insert", "bulk-insert",
                  "update-weight", "scalar-delete", "bulk-remove"):
        STATES[state](w, rng)
        _assert_matches_oracle(w, rng)
        w.sample_bulk(-np.inf, np.inf, 512)


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "update", "insert_bulk", "delete_bulk"]),
        st.integers(1, 120),
    ),
    max_size=12,
)


@pytest.mark.slow
@settings(max_examples=150, deadline=None)
@given(
    dtype=st.sampled_from([np.float32, np.float64]),
    n=st.integers(120, 2500),
    distinct=st.integers(2, 400),
    spread=st.floats(0.0, 30.0),
    ops=_OPS,
    seed=st.integers(0, 2**32 - 1),
)
def test_middle_picks_match_the_flat_table_drawn(dtype, n, distinct, spread, ops, seed):
    """Drawn layouts, update sequences and targets against the oracle."""
    rng = np.random.default_rng(seed)

    def weights(m):
        return np.exp(rng.uniform(-spread, spread, m))

    w = WeightedDynamicIRS(
        rng.integers(0, distinct, n) / 8.0, weights(n), seed=1, dtype=dtype
    )
    for op, m in ops:
        stored = w.export_sorted()
        if op == "insert":
            for v in rng.choice(stored, m):
                w.insert(float(v), float(weights(1)[0]))
        elif op == "delete" and stored.size > m + 64:
            for v in rng.choice(stored, m, replace=False):
                w.delete(float(v))
        elif op == "update":
            for v in rng.choice(stored, m):
                w.update_weight(float(v), float(weights(1)[0]))
        elif op == "insert_bulk":
            w.insert_bulk(rng.integers(0, distinct, m) / 8.0, weights(m))
        elif op == "delete_bulk" and stored.size > m + 64:
            w.delete_bulk(rng.choice(stored, m, replace=False))
        if rng.random() < 0.5:
            w.range_weight(-np.inf, np.inf)
    if len(w._dir) >= 3:
        _assert_matches_oracle(w, rng)


def test_bulk_read_after_a_weighted_write_does_no_linear_work(monkeypatch):
    """No kernel sees an array of ``n`` cells in a read right after a write."""
    n = 100_000
    data = np.arange(n) / n
    w = WeightedDynamicIRS.from_sorted(
        data, np.random.default_rng(3).uniform(0.5, 2.0, n), seed=1
    )
    w.sample_bulk(0.25, 0.75, 4096)  # anything a read may cache is warm
    largest = {}
    for name in kernels.__all__:

        def watched(*args, _fn=getattr(kernels, name), _name=name):
            sizes = [np.size(x) for x in args if isinstance(x, np.ndarray)]
            largest[_name] = max([largest.get(_name, 0)] + sizes)
            return _fn(*args)

        monkeypatch.setattr(kernels, name, watched)
    w.update_weight(float(data[n // 2]), 3.0)
    out = w.sample_bulk(0.25, 0.75, 4096)
    assert out.size == 4096 and bool(((out >= 0.25) & (out <= 0.75)).all())
    assert max(largest.values()) < n, largest
    assert {"search_right", "cum_table"} <= set(largest)
