"""Kernels, dtype planes and zero-copy adoption.

Each kernel is checked against an independent pure-Python/NumPy oracle,
and the structures must reach every kernel through the module at call
time.  The rest of the file covers the dtype-generic storage planes and
the strict zero-copy adoption contract.
"""

from __future__ import annotations

import bisect
from collections import Counter

import numpy as np
import pytest

from repro import DynamicIRS, ShardedIRS, StaticIRS, WeightedDynamicIRS
from repro.core import kernels
from repro.core.planes import as_plane, resolve_dtype
from repro.errors import ZeroCopyError


# -- kernel-op semantics against independent oracles -----------------------------


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestKernelOps:
    """Each op checked against a pure-Python/NumPy oracle."""

    def test_scalar_searches(self):
        arr = np.asarray([1.0, 2.0, 2.0, 2.0, 5.0])
        for v in (0.0, 1.0, 2.0, 3.0, 5.0, 9.0):
            assert kernels.search_left_scalar(arr, v) == bisect.bisect_left(
                arr.tolist(), v
            )
            assert kernels.search_right_scalar(arr, v) == bisect.bisect_right(
                arr.tolist(), v
            )

    def test_search_right_vector(self):
        arr = np.sort(_rng(2).integers(0, 50, 40).astype(float))
        targets = _rng(3).integers(-5, 55, 25).astype(float)
        got = np.asarray(kernels.search_right(arr, targets))
        assert got.tolist() == [
            bisect.bisect_right(arr.tolist(), t) for t in targets
        ]

    def test_search_rows_clamps_to_live_counts(self):
        # Oracle: bisect each row's live prefix alone.  The padding holds
        # values (-inf, +inf) that would count if it were searched.
        block = np.asarray(
            [[1.0, 2.0, 2.0, -np.inf], [0.0, 5.0, np.inf, np.inf], [3.0, 0, 0, 0]]
        )
        counts = np.asarray([3, 3, 1])
        targets = np.asarray([2.0, np.inf, 9.0])
        for right, bisect_fn in (
            (False, bisect.bisect_left), (True, bisect.bisect_right)
        ):
            got = kernels.search_rows(block, counts, targets, right=right)
            assert got.tolist() == [
                bisect_fn(row[:c], t)
                for row, c, t in zip(block.tolist(), counts.tolist(), targets.tolist())
            ]

    def test_merge_slots_is_stable_live_first(self):
        # Two touched rows' live runs, concatenated.  On ties the stored
        # occurrences must precede the batch's, and a batch value tying
        # the next run's first element stays in its own run.
        live = np.asarray([1.0, 3.0, 3.0, 7.0, 7.0, 9.0])
        batch = np.asarray([0.0, 3.0, 3.0, 7.0, 9.0])
        ends = np.asarray([4, 4, 4, 4, 6])  # run 0 is live[:4], run 1 live[4:]
        slots = kernels.merge_slots(live, batch, ends)
        merged = kernels.interleave(live, batch, slots)
        assert merged.tolist() == sorted(live.tolist() + batch.tolist())
        # Positional oracle: searchsorted-right placement inside each run.
        at = np.minimum(np.searchsorted(live, batch, "right"), ends)
        expect = np.insert(live, at, batch)
        assert merged.tolist() == expect.tolist()
        assert slots.tolist() == [0, 4, 5, 7, 10]

    def test_interleave_carries_weights(self):
        cdata = np.asarray([1.0, 4.0, 4.0])
        cweights = np.asarray([10.0, 11.0, 12.0])
        bdata = np.asarray([0.0, 4.0, 8.0])
        bweights = np.asarray([20.0, 21.0, 22.0])
        slots = kernels.merge_slots(cdata, bdata, np.full(3, 3))
        mdata = kernels.interleave(cdata, bdata, slots)
        mweights = kernels.interleave(cweights, bweights, slots)
        assert mdata.tolist() == [0.0, 1.0, 4.0, 4.0, 4.0, 8.0]
        # live-first on the tie at 4.0: stored weights 11, 12 precede 21.
        assert mweights.tolist() == [20.0, 10.0, 11.0, 12.0, 21.0, 22.0]

    def test_take_out(self):
        arr = np.asarray([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        hits = np.asarray([1, 4], dtype=np.int64)
        assert kernels.take_out(arr, hits).tolist() == [0.0, 2.0, 3.0, 5.0]

    def test_cum_table(self):
        weights = np.asarray([0.5, 1.5, 2.0, 0.25])
        got = np.asarray(kernels.cum_table(weights))
        assert got.tolist() == np.cumsum(weights).tolist()
        # A block of rows gets one table per row.
        block = np.stack([weights, weights[::-1]])
        assert kernels.cum_table(block).tolist() == [
            np.cumsum(weights).tolist(), np.cumsum(weights[::-1]).tolist()
        ]

    def test_rejection_split(self):
        # Oracle: walk the codes sequentially, keeping draws whose slot
        # falls under the chunk's true count, until `needed` are kept.
        counts = np.asarray([3, 5, 2, 4], dtype=np.int64)
        cap = 5
        window_lo = 0
        codes = np.asarray(
            _rng(4).integers(0, len(counts) * cap, 64), dtype=np.int64
        )
        needed = 6
        cells, slots, consumed = kernels.rejection_split(
            codes, counts, window_lo, cap, needed
        )
        kept = []
        used = 0
        for code in codes.tolist():
            used += 1
            cell, slot = divmod(code, cap)
            if slot < counts[window_lo + cell]:
                kept.append((cell, slot))
                if len(kept) == needed:
                    break
        assert consumed == used
        assert list(zip(np.asarray(cells).tolist(), np.asarray(slots).tolist())) == kept

    def test_flat_pick(self):
        vals = np.sort(_rng(5).uniform(0, 10, 20))
        gcum = np.concatenate(([0.0], np.cumsum(_rng(6).uniform(0.1, 1.0, 20))))
        targets = _rng(7).uniform(0, gcum[-1], 16)
        lo, hi = 3, 17
        got = np.asarray(kernels.flat_pick(vals, gcum, targets, lo, hi))
        expect = [
            float(vals[min(max(int(np.searchsorted(gcum, t, side="right")), lo), hi)])
            for t in targets
        ]
        assert got.dtype == np.float64
        assert got.tolist() == expect


# -- call convention -------------------------------------------------------------


def test_structures_reach_kernels_through_the_module(monkeypatch):
    """Every call site looks its kernel up on the module at call time.

    Wrapping a module attribute (as a per-layer tracer does) must reach
    the structures' scalar updates and bulk samples; a kernel bound to a
    name at import time would bypass the wrapper.  A narrow middle with at
    least ``_GUIDED_MIN`` draws reaches ``search_guided`` and never
    ``search_right``.
    """
    calls = Counter()
    names = (
        "search_left_scalar", "search_right_scalar", "search_right",
        "search_guided", "search_rows", "merge_slots", "rejection_split",
    )
    for name in names:

        def counted(*args, _fn=getattr(kernels, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(kernels, name, counted)
    data = np.sort(_rng(41).uniform(0, 1, 20_000))
    dynamic = DynamicIRS.from_sorted(data, seed=1)
    weighted = WeightedDynamicIRS.from_sorted(
        data, _rng(42).uniform(0.5, 2.0, data.size), seed=2
    )
    batch = _rng(43).uniform(0, 1, 64)
    t = 2 * kernels._GUIDED_MIN
    scalar = {"search_left_scalar", "search_right_scalar"}
    guided = ({"search_guided"}, {"search_right"})
    for op, (expected, unexpected) in (
        (lambda: dynamic.insert(0.5), (scalar, set())),
        (lambda: weighted.insert(0.5, 1.0), ({"search_left_scalar"}, set())),
        (lambda: dynamic.insert_bulk(batch), ({"merge_slots"}, set())),
        (lambda: weighted.insert_bulk(batch), ({"merge_slots"}, set())),
        (lambda: dynamic.sample_bulk(0.01, 0.99, 64), ({"rejection_split"}, set())),
        (lambda: weighted.sample_bulk(0.01, 0.99, 64), ({"search_right"}, set())),
        (lambda: dynamic.sample_bulk(0.4, 0.6, t), guided),
        (lambda: weighted.sample_bulk(0.4, 0.41, t), guided),
    ):
        calls.clear()
        op()
        assert expected <= set(calls)
        assert not unexpected & set(calls)


# -- dtype-generic storage planes ------------------------------------------------


class TestDtypePlanes:
    def test_resolve_dtype_rules(self):
        assert resolve_dtype([1.0], None) == np.float64
        assert resolve_dtype(np.zeros(3, dtype=np.float32), None) == np.float32
        assert resolve_dtype(np.zeros(3, dtype=np.int64), None) == np.float64
        assert resolve_dtype([1.0], np.float32) == np.float32
        with pytest.raises(ValueError):
            resolve_dtype([1.0], np.int32)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_static_and_dynamic_planes(self, dtype):
        data = _rng(21).uniform(0, 1, 300)
        s = StaticIRS(data, seed=1, dtype=dtype)
        d = DynamicIRS(data, seed=1, dtype=dtype)
        for structure in (s, d):
            assert structure.dtype == np.dtype(dtype)
            assert structure.export_sorted().dtype == np.dtype(dtype)
            assert structure.plane_nbytes == 300 * np.dtype(dtype).itemsize
            out = structure.sample_bulk(0.2, 0.8, 50)
            assert out.dtype == np.float64

    def test_weighted_values_plane_narrows_weights_stay_f64(self):
        data = _rng(22).uniform(0, 1, 200)
        w = WeightedDynamicIRS(data, np.ones(200), seed=3, dtype=np.float32)
        values, weights = w.export_sorted_pairs()
        assert values.dtype == np.float32
        assert weights.dtype == np.float64
        assert w.plane_nbytes == 200 * (4 + 8)

    def test_f32_counts_match_f32_membership(self):
        # Query bounds are rounded through the plane dtype, so counts are
        # exactly the float32 closed-interval membership.
        data = np.asarray([0.1, 0.2, 0.3], dtype=np.float32)
        s = StaticIRS(data, seed=1)
        lo = float(np.float32(0.2))  # representable bound
        assert s.count(lo, 1.0) == 2
        assert s.count(0.2, 1.0) == 2  # 0.2 rounds to the same bound
        d = DynamicIRS(data, seed=1)
        assert d.count(0.2, 1.0) == s.count(0.2, 1.0)

    def test_sharded_dtype_and_f64_only_kinds(self):
        data = np.sort(_rng(23).uniform(0, 1, 400))
        s = ShardedIRS.from_sorted(data, num_shards=4, seed=5, dtype=np.float32)
        assert s.dtype == np.float32
        assert s.export_sorted().dtype == np.float32
        assert all(shard.dtype == np.float32 for shard in s.shards)
        s.insert_bulk(_rng(24).uniform(0, 1, 50))
        s.check_invariants()
        with pytest.raises(ValueError):
            ShardedIRS([1.0], shard_kind="external", dtype=np.float32)
        with pytest.raises(ValueError):
            ShardedIRS(
                [1.0], shard_kind="weighted", weights=[1.0], dtype=np.float32
            )

    def test_snapshot_roundtrip_preserves_dtype(self, tmp_path):
        from repro.store.snapshot import (
            SnapshotStore,
            build_from_sorted,
            snapshot_spec,
        )

        store = SnapshotStore(str(tmp_path))
        original = {
            "f32": StaticIRS(_rng(25).uniform(0, 1, 64), seed=1, dtype=np.float32),
            "f64": DynamicIRS(_rng(26).uniform(0, 1, 64), seed=2),
        }
        store.save(original, wal_seq=1)
        loaded = store.load()
        rebuilt = {
            name: build_from_sorted(spec, values, weights, seed=9)
            for name, (spec, values, weights) in loaded.items()
        }
        assert rebuilt["f32"].dtype == np.float32
        assert rebuilt["f64"].dtype == np.float64
        for name in original:
            assert rebuilt[name].export_sorted().tolist() == pytest.approx(
                original[name].export_sorted().tolist()
            )
        # float32 planes persist at 4 bytes/point (file name carries f4).
        snap_dir = next(p for p in tmp_path.iterdir() if p.name.startswith("snap-"))
        suffixes = {p.suffix for p in snap_dir.iterdir()}
        assert ".f4" in suffixes and ".f8" in suffixes


# -- zero-copy adoption contract -------------------------------------------------


class TestZeroCopy:
    def test_static_adopts_the_caller_array(self):
        arr = np.sort(_rng(31).uniform(0, 1, 128))
        s = StaticIRS.from_sorted(arr, seed=1, copy=False)
        assert s.export_sorted() is arr

    def test_copy_true_never_aliases(self):
        arr = np.sort(_rng(33).uniform(0, 1, 64))
        s = StaticIRS.from_sorted(arr, seed=1, copy=True)
        assert not np.shares_memory(s.export_sorted(), arr)
        # The dynamic kinds copy into their slab whatever the input.
        d = DynamicIRS.from_sorted(arr, seed=1)
        w = WeightedDynamicIRS.from_sorted(arr, np.ones(arr.size), seed=1)
        assert not np.shares_memory(d._dir.slab, arr)
        assert not np.shares_memory(w._dir.slab, arr)

    def test_adoption_contract_is_strict(self):
        arr = np.sort(_rng(34).uniform(0, 1, 64))
        with pytest.raises(ZeroCopyError):
            StaticIRS.from_sorted(arr.tolist(), copy=False)
        with pytest.raises(ZeroCopyError):
            StaticIRS.from_sorted(arr.astype(np.float32), dtype=np.float64, copy=False)
        with pytest.raises(ZeroCopyError):
            StaticIRS.from_sorted(arr[::2], copy=False)  # strided view
        with pytest.raises(ZeroCopyError):
            StaticIRS.from_sorted(arr.reshape(8, 8), copy=False)
        with pytest.raises(ValueError):
            StaticIRS.from_sorted(arr[::-1].copy(), copy=False)  # unsorted
        assert isinstance(ZeroCopyError("x"), ValueError)

    def test_as_plane_copy_false_returns_input(self):
        arr = np.sort(_rng(35).uniform(0, 1, 16))
        assert as_plane(arr, copy=False) is arr

    def test_admission_gate_sees_adopted_planes(self):
        from repro.obs.capacity import structure_bytes

        arr = np.sort(_rng(36).uniform(0, 1, 256)).astype(np.float32)
        s = StaticIRS.from_sorted(arr, seed=1, copy=False)
        assert structure_bytes(s) == arr.nbytes == 256 * 4
