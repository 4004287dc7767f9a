"""Snapshots: each structure's sorted planes plus a manifest, atomically.

A snapshot of a structure set is a directory ``snap-<wal_seq>`` holding

* one raw little-endian *values plane* per structure (``export_sorted``
  output, written via NumPy ``tobytes`` in the structure's own plane
  dtype — ``.f8`` files for float64, ``.f4`` for float32 structures),
* an optional *weights plane* for weighted structures
  (``export_sorted_pairs``; always float64), and
* ``manifest.json`` — per-structure kind, element count, plane files
  with CRC32s and dtype codes, rebuild parameters, and the WAL sequence
  number the snapshot covers.

Durable-write discipline: planes are written and fsynced into
``snap-<wal_seq>/`` under names no file there carries, then the manifest
is staged and swapped in with one atomic ``os.replace`` — that swap is
the publication, so a complete snapshot is on disk at every instant.  A
save that fails before the swap leaves a directory with no manifest,
which :meth:`SnapshotStore.latest` skips and the next successful save
removes; a re-save at a published ``wal_seq`` (a checkpoint with no new
WAL record) keeps the old snapshot readable until its own swap.

Recovery is the O(n) inverse: :func:`build_from_sorted` feeds each plane
pair to the recorded kind's builder (:data:`~repro.core.kinds.KINDS`),
skipping the sort entirely — a ``static`` structure *adopts* its decoded
plane zero-copy, so its recovery allocates no second value plane, and the
dynamic kinds copy theirs once, straight into their slab — and the caller
then replays the WAL suffix with ``seq > wal_seq``.

Only the table's kinds and :class:`~repro.shard.ShardedIRS` over one of
them can be snapshotted; anything else raises
:class:`~repro.errors.StorageError` before a file is written.
"""

from __future__ import annotations

import json
import os
import zlib

import numpy as _np

from ..core.kinds import KINDS, dtype_param
from ..errors import CorruptRecordError, StorageError

__all__ = ["SnapshotStore", "snapshot_spec", "build_from_sorted"]

_SNAP_PREFIX = "snap-"
_MANIFEST = "manifest.json"
_FORMAT = 1


def snapshot_spec(sampler) -> dict:
    """Return the manifest entry describing how to rebuild ``sampler``.

    The spec records the sampler's *kind* (a :data:`~repro.core.kinds.
    KINDS` name, or ``sharded`` for a :class:`~repro.shard.ShardedIRS`),
    whether it carries a weight plane, and the kind's rebuild parameters.
    A sharded spec also records the partition's cut values (``bounds``):
    seeded sharded draws depend on the partition, so recovery must rebuild
    the live one rather than cut afresh.  Any other sampler raises
    :class:`~repro.errors.StorageError`: with no row to rebuild it from,
    its snapshot could not be recovered.
    """
    from ..shard import ShardedIRS

    if isinstance(sampler, ShardedIRS):
        params = {
            "num_shards": sampler._target_shards,
            "shard_kind": sampler._shard_kind,
            "block_size": sampler._block_size,
            "bounds": list(sampler.bounds),
            **dtype_param(sampler),
        }
        return {"kind": "sharded", "weighted": sampler._weighted, "params": params}
    for name, kind in KINDS.items():
        if isinstance(sampler, kind.cls):
            params = kind.params(sampler)
            return {"kind": name, "weighted": kind.weighted, "params": params}
    raise StorageError(
        f"cannot snapshot a {type(sampler).__name__}: expected one of "
        f"{list(KINDS)} or a ShardedIRS"
    )


def build_from_sorted(spec: dict, values, weights=None, *, seed=None):
    """Rebuild one structure from its snapshot planes in O(n).

    ``spec`` is a :func:`snapshot_spec` dict; ``values`` (and ``weights``
    for weighted kinds) are the decoded planes.  Unknown kinds raise
    :class:`~repro.errors.StorageError`.  A sharded spec rebuilds the
    recorded partition: its shards are cut at the recorded ``bounds``, so
    seeded replies match the live facade's; a manifest without them (an
    earlier version's) is cut afresh.  It ignores the ``backend`` entry
    that earlier manifests record: shard tasks always run inline, and
    results never depended on it.
    """
    kind = spec.get("kind")
    params = spec.get("params", {})
    dtype = params.get("dtype")
    block_size = int(params.get("block_size", 1024))
    if kind == "sharded":
        from ..shard import ShardedIRS

        facade = ShardedIRS.__new__(ShardedIRS)
        facade._init_common(
            values, int(params.get("num_shards", 4)), seed,
            params.get("shard_kind", "dynamic"), block_size, dtype,
        )
        facade._build_partitions(values, weights, params.get("bounds"))
        return facade
    row = KINDS.get(kind) if isinstance(kind, str) else None
    if row is None:
        raise StorageError(f"cannot rebuild snapshot of unknown kind {kind!r}")
    # The decoded plane is ours, so a static structure may adopt it
    # zero-copy when it already has the target dtype (the common case:
    # planes are stored in the structure's own dtype) — recovery then
    # allocates no second value plane.
    adopt = isinstance(values, _np.ndarray) and (
        dtype is None or _np.dtype(dtype) == values.dtype
    )
    return row.build(
        values, weights, seed=seed, dtype=dtype, block_size=block_size, adopt=adopt
    )


def _plane_bytes(array) -> tuple[bytes, str]:
    """Encode one plane as raw little-endian bytes; return ``(raw, code)``.

    The dtype code (``f8`` or ``f4``) doubles as the plane file suffix
    and is recorded in the manifest so :func:`_plane_values` can decode
    it.  float32 planes are persisted as-is — the snapshot halves with
    the structure.
    """
    arr = _np.asarray(array)
    if arr.dtype == _np.float32:
        return arr.astype("<f4", copy=False).tobytes(), "f4"
    return _np.asarray(arr, dtype="<f8").tobytes(), "f8"


def _plane_values(raw: bytes, code: str = "f8"):
    """Decode one plane back to a float array."""
    return _np.frombuffer(raw, dtype="<f4" if code == "f4" else "<f8")


def _fsync_write(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())


def _fsync_dir(directory: str) -> None:
    """Fsync a directory so renames in it survive power loss."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - non-POSIX directory semantics
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class SnapshotStore:
    """Directory of published snapshots, newest-wins.

    One store holds any number of ``snap-<wal_seq>`` directories;
    :meth:`save` publishes a new one atomically and prunes the rest,
    :meth:`latest` finds the newest complete one, :meth:`load` decodes
    and CRC-verifies its planes.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)

    def _snap_dirs(self) -> list[str]:
        out = []
        for name in os.listdir(self.directory):
            if not name.startswith(_SNAP_PREFIX):
                continue
            try:
                int(name[len(_SNAP_PREFIX) :])
            except ValueError:
                continue
            out.append(name)
        return sorted(out, key=lambda name: int(name[len(_SNAP_PREFIX) :]))

    def latest(self) -> tuple[int, dict] | None:
        """Return ``(wal_seq, manifest)`` of the newest complete snapshot.

        A directory without a parseable manifest (a save that failed
        before its manifest swap, or a damaged disk) is skipped, falling
        back to the next-newest snapshot.
        """
        for name in reversed(self._snap_dirs()):
            path = os.path.join(self.directory, name, _MANIFEST)
            try:
                with open(path) as fh:
                    manifest = json.load(fh)
            except (OSError, ValueError):
                continue
            if manifest.get("format") == _FORMAT:
                return int(manifest["wal_seq"]), manifest
        return None

    @staticmethod
    def resolve(structures) -> list:
        """Return ``[(name, sampler, spec), ...]``, sorted by name.

        A structure :func:`snapshot_spec` refuses raises
        :class:`~repro.errors.StorageError` here, before anything is
        written — or, for a caller that resolves first, paid.
        """
        return [(name, sampler, snapshot_spec(sampler))
                for name, sampler in sorted(structures.items())]

    def save(self, structures, wal_seq: int) -> str:
        """Write one snapshot of every structure; return its directory.

        ``structures`` maps name -> sampler, or is the list
        :meth:`resolve` returned for such a mapping.  The planes go into
        ``snap-<wal_seq>/`` as ``<tag>s<index>.<plane>.<dtype code>``,
        under a tag no file there carries (no tag in a new directory);
        the manifest is staged and swapped in with one ``os.replace``,
        and only then are the files it does not name (the old planes of
        a re-save at the same seq, the leftovers of a failed save)
        deleted and older snapshots pruned.
        A structure :func:`snapshot_spec` refuses raises
        :class:`~repro.errors.StorageError` before anything is written.
        """
        specs = structures if isinstance(structures, list) else self.resolve(structures)
        target = os.path.join(self.directory, f"{_SNAP_PREFIX}{int(wal_seq):016d}")
        os.makedirs(target, exist_ok=True)
        existing = os.listdir(target)
        tag = ""
        if existing:
            gen = 1
            while any(name.startswith(f"r{gen}-") for name in existing):
                gen += 1
            tag = f"r{gen}-"
        manifest: dict = {"format": _FORMAT, "wal_seq": int(wal_seq), "structures": {}}
        for index, (name, sampler, spec) in enumerate(specs):
            if spec["weighted"]:
                values, weights = sampler.export_sorted_pairs()
            else:
                values, weights = sampler.export_sorted(), None
            entry = dict(spec)
            entry["n"] = len(values)
            entry["planes"] = {}
            for plane, data in (("values", values), ("weights", weights)):
                if data is None:
                    continue
                raw, code = _plane_bytes(data)
                fname = f"{tag}s{index:04d}.{plane}.{code}"
                _fsync_write(os.path.join(target, fname), raw)
                entry["planes"][plane] = {
                    "file": fname,
                    "crc": zlib.crc32(raw),
                    "dtype": code,
                }
            manifest["structures"][name] = entry
        staged = os.path.join(target, _MANIFEST + ".tmp")
        _fsync_write(staged, json.dumps(manifest, indent=2).encode("utf-8"))
        os.replace(staged, os.path.join(target, _MANIFEST))
        _fsync_dir(target)
        _fsync_dir(self.directory)
        keep = {_MANIFEST}
        for entry in manifest["structures"].values():
            keep.update(meta["file"] for meta in entry["planes"].values())
        for name in os.listdir(target):
            if name not in keep:
                os.unlink(os.path.join(target, name))
        self.prune(keep=1)
        return target

    def load(self, manifest: dict | None = None) -> dict:
        """Decode the snapshot's planes; return name -> (spec, values, weights).

        Defaults to the latest snapshot.  Every plane is CRC-checked;
        a mismatch raises :class:`~repro.errors.CorruptRecordError`.
        Returns an empty dict when no snapshot exists.
        """
        if manifest is None:
            entry = self.latest()
            if entry is None:
                return {}
            manifest = entry[1]
        snap_dir = os.path.join(
            self.directory, f"{_SNAP_PREFIX}{int(manifest['wal_seq']):016d}"
        )
        out: dict = {}
        for name, entry in manifest["structures"].items():
            planes: dict = {}
            for plane, meta in entry["planes"].items():
                path = os.path.join(snap_dir, meta["file"])
                with open(path, "rb") as fh:
                    raw = fh.read()
                if zlib.crc32(raw) != meta["crc"]:
                    raise CorruptRecordError(
                        f"snapshot plane {meta['file']} failed its CRC check"
                    )
                planes[plane] = _plane_values(raw, meta.get("dtype", "f8"))
            spec = {
                "kind": entry["kind"],
                "weighted": entry["weighted"],
                "params": entry.get("params", {}),
            }
            out[name] = (spec, planes.get("values"), planes.get("weights"))
        return out

    def prune(self, keep: int = 1) -> int:
        """Delete all but the newest ``keep`` snapshots; return the count."""
        import shutil

        names = self._snap_dirs()
        removed = 0
        for name in names[: max(0, len(names) - keep)]:
            shutil.rmtree(os.path.join(self.directory, name), ignore_errors=True)
            removed += 1
        return removed
