"""The uniform snapshot surface: export -> from_sorted across every kind.

Satellite of the durability PR: every sampler kind must round-trip through
its sorted planes — ``export_sorted`` / ``export_sorted_pairs`` out,
``from_sorted`` (via :func:`repro.store.build_from_sorted`) back — and the
rebuilt structure must answer count, weight, and *seeded* sample queries
identically to the original.  The matrix also runs the planes through
:class:`repro.store.SnapshotStore` bytes on disk, so the plane codec and
manifest are exercised, not just the in-memory constructors.
"""

from __future__ import annotations

import pytest

from repro import (
    DynamicIRS,
    ExternalIRS,
    ShardedIRS,
    StaticIRS,
    WeightedDynamicIRS,
    WeightedStaticIRS,
)
from repro.core.kinds import KINDS
from repro.errors import InvalidQueryError
from repro.store import SnapshotStore, build_from_sorted, snapshot_spec
from repro.workloads import gaussian_mixture

DATA = gaussian_mixture(900, clusters=3, seed=41)
WEIGHTS = [0.25 + (i % 9) for i in range(len(DATA))]
SORTED = sorted(DATA)
QUERIES = [
    (SORTED[50], SORTED[-50]),
    (SORTED[200], SORTED[400]),
    (SORTED[0], SORTED[0]),
    (SORTED[-1] + 1.0, SORTED[-1] + 2.0),
]


def build_static():
    return StaticIRS(DATA, seed=3)


def build_dynamic():
    return DynamicIRS(DATA, seed=3)


def build_weighted():
    return WeightedStaticIRS(DATA, WEIGHTS, seed=3)


def build_weighted_dynamic():
    return WeightedDynamicIRS(DATA, WEIGHTS, seed=3)


def build_external():
    return ExternalIRS(DATA, block_size=64, seed=3)


def build_sharded():
    return ShardedIRS(DATA, num_shards=3, seed=3, shard_kind="dynamic")


def build_sharded_weighted():
    return ShardedIRS(
        DATA, num_shards=3, weights=WEIGHTS, seed=3, shard_kind="weighted-dynamic"
    )


def build_sharded_external():
    return ShardedIRS(
        DATA, num_shards=2, seed=3, shard_kind="external", block_size=64
    )


BUILDERS = {
    "static": build_static,
    "dynamic": build_dynamic,
    "weighted": build_weighted,
    "weighted-dynamic": build_weighted_dynamic,
    "external": build_external,
    "sharded": build_sharded,
    "sharded-weighted": build_sharded_weighted,
    "sharded-external": build_sharded_external,
}


def test_builders_cover_every_kind():
    assert set(KINDS) <= set(BUILDERS)


def assert_equivalent(original, rebuilt, *, weighted):
    """Same sorted state, same counts/weights, same seeded draws."""
    assert list(rebuilt.export_sorted()) == list(original.export_sorted())
    if weighted:
        ov, ow = original.export_sorted_pairs()
        rv, rw = rebuilt.export_sorted_pairs()
        assert list(rv) == list(ov)
        assert list(rw) == list(ow)
    for lo, hi in QUERIES:
        assert rebuilt.count(lo, hi) == original.count(lo, hi)
    if hasattr(original, "peek_counts"):
        assert list(rebuilt.peek_counts(QUERIES)) == list(original.peek_counts(QUERIES))
    if weighted and hasattr(original, "peek_weights"):
        assert list(rebuilt.peek_weights(QUERIES)) == list(
            original.peek_weights(QUERIES)
        )
    lo, hi = QUERIES[0]
    for seed, t in ((11, 40), (12, 1), (13, 7)):
        assert list(rebuilt.sample_bulk(lo, hi, t, seed=seed)) == list(
            original.sample_bulk(lo, hi, t, seed=seed)
        )


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_spec_roundtrip_in_memory(kind):
    original = BUILDERS[kind]()
    spec = snapshot_spec(original)
    if spec["weighted"]:
        values, weights = original.export_sorted_pairs()
    else:
        values, weights = original.export_sorted(), None
    rebuilt = build_from_sorted(spec, values, weights, seed=3)
    assert_equivalent(original, rebuilt, weighted=spec["weighted"])
    for irs in (original, rebuilt):
        close = getattr(irs, "close", None)
        if close:
            close()


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_roundtrip_through_snapshot_bytes(kind, tmp_path):
    original = BUILDERS[kind]()
    store = SnapshotStore(tmp_path / "snaps")
    store.save({"s": original}, wal_seq=1)
    spec, values, weights = store.load()["s"]
    rebuilt = build_from_sorted(spec, values, weights, seed=3)
    assert_equivalent(original, rebuilt, weighted=spec["weighted"])
    for irs in (original, rebuilt):
        close = getattr(irs, "close", None)
        if close:
            close()


def test_resave_at_a_published_seq_swaps_the_manifest(tmp_path, monkeypatch):
    # Re-saving at a published wal_seq writes fresh planes beside the
    # published ones and swaps the manifest: the published snapshot stays
    # whole until the swap, and the swap's leftovers go with the next one.
    store = SnapshotStore(tmp_path / "snaps")
    snap_dir = tmp_path / "snaps" / "snap-0000000000000005"
    store.save({"s": WeightedDynamicIRS([1.0, 2.0], [1.0, 3.0], seed=1)}, wal_seq=5)

    def crash(*args):
        raise OSError("crash before the manifest swap")

    with monkeypatch.context() as patch:
        patch.setattr("os.replace", crash)
        with pytest.raises(OSError):
            store.save({"s": WeightedDynamicIRS([7.0], [2.0], seed=1)}, wal_seq=5)
    _, values, weights = store.load()["s"]
    assert (list(values), list(weights)) == ([1.0, 2.0], [1.0, 3.0])
    store.save({"s": WeightedDynamicIRS([8.0, 9.0], [4.0, 5.0], seed=1)}, wal_seq=5)
    _, values, weights = store.load()["s"]
    assert (list(values), list(weights)) == ([8.0, 9.0], [4.0, 5.0])
    files = {entry.name for entry in snap_dir.iterdir()}
    planes = store.latest()[1]["structures"]["s"]["planes"]
    assert files == {"manifest.json"} | {meta["file"] for meta in planes.values()}
    assert [entry.name for entry in (tmp_path / "snaps").iterdir()] == [snap_dir.name]


def test_failed_save_leaves_no_snapshot_and_no_leftovers(tmp_path, monkeypatch):
    # A save at a new seq that fails before its manifest swap publishes
    # nothing; a retry at that seq and a later save clear what it wrote.
    store = SnapshotStore(tmp_path / "snaps")
    store.save({"s": DynamicIRS([1.0], seed=1)}, wal_seq=1)

    def crash(*args):
        raise OSError("crash before the manifest swap")

    for _ in range(2):
        with monkeypatch.context() as patch:
            patch.setattr("os.replace", crash)
            with pytest.raises(OSError):
                store.save({"s": DynamicIRS([9.0], seed=1)}, wal_seq=2)
        assert store.latest()[0] == 1
        assert list(store.load()["s"][1]) == [1.0]
    snap_dir = tmp_path / "snaps" / "snap-0000000000000002"
    store.save({"s": DynamicIRS([2.0], seed=1)}, wal_seq=2)
    planes = store.latest()[1]["structures"]["s"]["planes"]
    files = {entry.name for entry in snap_dir.iterdir()}
    assert files == {"manifest.json"} | {meta["file"] for meta in planes.values()}
    with monkeypatch.context() as patch:
        patch.setattr("os.replace", crash)
        with pytest.raises(OSError):
            store.save({"s": DynamicIRS([9.0], seed=1)}, wal_seq=3)
    store.save({"s": DynamicIRS([4.0], seed=1)}, wal_seq=4)
    assert [entry.name for entry in (tmp_path / "snaps").iterdir()] == [
        "snap-0000000000000004"
    ]
    assert list(store.load()["s"][1]) == [4.0]


# -- surface details gained in this PR ---------------------------------------


def test_weighted_static_from_sorted_validates_order():
    with pytest.raises(ValueError):
        WeightedStaticIRS.from_sorted([2.0, 1.0], [1.0, 1.0])


def test_weighted_static_from_sorted_matches_constructor():
    values, weights = build_weighted().export_sorted_pairs()
    rebuilt = WeightedStaticIRS.from_sorted(values, weights, seed=3)
    assert list(rebuilt.sample_bulk(QUERIES[0][0], QUERIES[0][1], 8, seed=4)) == list(
        build_weighted().sample_bulk(QUERIES[0][0], QUERIES[0][1], 8, seed=4)
    )


def test_weighted_dynamic_export_sorted_matches_pairs():
    wd = build_weighted_dynamic()
    values, _weights = wd.export_sorted_pairs()
    assert wd.export_sorted().tolist() == list(values)
    assert wd.export_sorted().tolist() == SORTED


def test_sharded_export_preserves_order_after_updates():
    sharded = build_sharded()
    sharded.insert_bulk([SORTED[0] - 1.0, SORTED[-1] + 1.0, SORTED[10]])
    exported = sharded.export_sorted().tolist()
    assert exported == sorted(exported)
    assert len(exported) == len(DATA) + 3


def test_sharded_unweighted_rejects_pair_export():
    with pytest.raises(InvalidQueryError):
        build_sharded().export_sorted_pairs()


def test_empty_sharded_exports_empty_plane():
    empty = ShardedIRS([], num_shards=2, seed=1)
    assert empty.export_sorted().tolist() == []
