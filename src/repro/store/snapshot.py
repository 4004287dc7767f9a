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

Durable-write discipline: planes are written and fsynced into a
temporary directory, the manifest is written last, and one atomic
``rename`` publishes the whole snapshot — a crash mid-save leaves only a
``.tmp`` directory that the next :meth:`SnapshotStore.latest` ignores.

Recovery is the O(n) inverse: :func:`build_from_sorted` feeds each plane
pair to the recorded kind's ``from_sorted`` constructor, skipping the
sort entirely — a ``static`` structure *adopts* its decoded plane
zero-copy (``copy=False``), so its recovery allocates no second value
plane, and the dynamic kinds copy theirs once, straight into their slab —
and the caller then replays the WAL suffix with ``seq > wal_seq``.
"""

from __future__ import annotations

import json
import os
import zlib

from ..errors import CorruptRecordError, StorageError

try:  # NumPy is optional at runtime; plane codecs fall back to array('d').
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is installed in CI
    _np = None

__all__ = ["SnapshotStore", "snapshot_spec", "build_from_sorted"]

_SNAP_PREFIX = "snap-"
_TMP_MARKER = ".tmp"
_FORMAT = 1


def snapshot_spec(sampler) -> dict:
    """Return the manifest entry describing how to rebuild ``sampler``.

    The spec records the sampler's *kind* (the CLI structure vocabulary:
    ``static``, ``dynamic``, ``weighted``, ``weighted-dynamic``,
    ``external``, plus ``sharded``), whether it carries a weight plane,
    and the kind-specific rebuild parameters.  Samplers that cannot be
    described — a :class:`~repro.shard.ShardedIRS` built from a callable
    ``shard_kind``, or an alien type without ``export_sorted`` — raise
    :class:`~repro.errors.StorageError`.
    """
    from ..core.dynamic_irs import DynamicIRS
    from ..core.em_irs import ExternalIRS
    from ..core.static_irs import StaticIRS
    from ..core.weighted_dynamic import WeightedDynamicIRS
    from ..core.weighted_irs import WeightedStaticIRS
    from ..shard import ShardedIRS

    if isinstance(sampler, ShardedIRS):
        kind = sampler._shard_kind
        if not isinstance(kind, str):
            raise StorageError(
                "cannot snapshot a ShardedIRS built from a callable shard_kind"
            )
        params = {
            "num_shards": sampler._target_shards,
            "shard_kind": kind,
            "backend": sampler.backend_name,
            "block_size": sampler._block_size,
        }
        dtype = getattr(sampler, "dtype", None)
        if dtype is not None and _np is not None and _np.dtype(dtype) != _np.float64:
            params["dtype"] = _np.dtype(dtype).name
        return {
            "kind": "sharded",
            "weighted": bool(sampler._weighted),
            "params": params,
        }
    if isinstance(sampler, ExternalIRS):
        return {
            "kind": "external",
            "weighted": False,
            "params": {"block_size": sampler.device.block_size},
        }
    for klass, kind, weighted in (
        (WeightedDynamicIRS, "weighted-dynamic", True),
        (WeightedStaticIRS, "weighted", True),
        (DynamicIRS, "dynamic", False),
        (StaticIRS, "static", False),
    ):
        if isinstance(sampler, klass):
            params: dict = {}
            dtype = getattr(sampler, "dtype", None)
            if dtype is not None and _np is not None and _np.dtype(dtype) != _np.float64:
                # Non-default plane dtype: recorded so recovery rebuilds the
                # structure at the same precision (float64 stays implicit,
                # keeping manifests byte-identical to older snapshots).
                params["dtype"] = _np.dtype(dtype).name
            return {"kind": kind, "weighted": weighted, "params": params}
    if hasattr(sampler, "export_sorted") and hasattr(type(sampler), "from_sorted"):
        # Custom sampler honoring the uniform snapshot surface: recoverable
        # as long as the same class is registered again at recovery time.
        return {
            "kind": type(sampler).__name__,
            "weighted": hasattr(sampler, "export_sorted_pairs"),
            "params": {},
        }
    raise StorageError(
        f"{type(sampler).__name__} exposes no export_sorted/from_sorted "
        "snapshot surface"
    )


def build_from_sorted(spec: dict, values, weights=None, *, seed=None):
    """Rebuild one structure from its snapshot planes in O(n).

    ``spec`` is a :func:`snapshot_spec` dict; ``values`` (and ``weights``
    for weighted kinds) are the decoded planes.  Unknown kinds raise
    :class:`~repro.errors.StorageError`.
    """
    from ..core.dynamic_irs import DynamicIRS
    from ..core.em_irs import ExternalIRS
    from ..core.static_irs import StaticIRS
    from ..core.weighted_dynamic import WeightedDynamicIRS
    from ..core.weighted_irs import WeightedStaticIRS
    from ..shard import ShardedIRS

    kind = spec.get("kind")
    params = spec.get("params", {})
    dtype = params.get("dtype")
    if kind == "static":
        # Adopt the decoded plane zero-copy when it already has the target
        # dtype (the common case: planes are stored in the structure's own
        # dtype) — recovery then allocates no second value plane.
        adopt = (
            _np is not None
            and isinstance(values, _np.ndarray)
            and (dtype is None or _np.dtype(dtype) == values.dtype)
        )
        return StaticIRS.from_sorted(values, seed=seed, dtype=dtype, copy=not adopt)
    if kind == "dynamic":
        return DynamicIRS.from_sorted(values, seed=seed, dtype=dtype)
    if kind == "weighted":
        return WeightedStaticIRS.from_sorted(values, weights, seed=seed)
    if kind == "weighted-dynamic":
        return WeightedDynamicIRS.from_sorted(values, weights, seed=seed, dtype=dtype)
    if kind == "external":
        data = values.tolist() if hasattr(values, "tolist") else list(values)
        return ExternalIRS.from_sorted(
            data, block_size=int(params.get("block_size", 1024)), seed=seed
        )
    if kind == "sharded":
        return ShardedIRS.from_sorted(
            values,
            num_shards=int(params.get("num_shards", 4)),
            weights=weights,
            seed=seed,
            shard_kind=params.get("shard_kind", "dynamic"),
            backend=params.get("backend", "serial"),
            block_size=int(params.get("block_size", 1024)),
            dtype=dtype,
        )
    raise StorageError(f"cannot rebuild snapshot of unknown kind {kind!r}")


def _plane_bytes(array) -> tuple[bytes, str]:
    """Encode one plane as raw little-endian bytes; return ``(raw, code)``.

    The dtype code (``f8`` or ``f4``) doubles as the plane file suffix
    and is recorded in the manifest so :func:`_plane_values` can decode
    it.  float32 planes are persisted as-is — the snapshot halves with
    the structure.
    """
    if _np is not None:
        arr = _np.asarray(array)
        if arr.dtype == _np.float32:
            return arr.astype("<f4", copy=False).tobytes(), "f4"
        return _np.asarray(arr, dtype="<f8").tobytes(), "f8"
    import array as _array  # pragma: no cover - numpy is installed in CI

    return _array.array("d", [float(v) for v in array]).tobytes(), "f8"


def _plane_values(raw: bytes, code: str = "f8"):
    """Decode one plane back to a float array (list without NumPy)."""
    if _np is not None:
        return _np.frombuffer(raw, dtype="<f4" if code == "f4" else "<f8")
    import array as _array  # pragma: no cover - numpy is installed in CI

    out = _array.array("d")
    out.frombytes(raw)
    return list(out)


def _fsync_write(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())


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
            if not name.startswith(_SNAP_PREFIX) or _TMP_MARKER in name:
                continue
            try:
                int(name[len(_SNAP_PREFIX) :])
            except ValueError:
                continue
            out.append(name)
        return sorted(out, key=lambda name: int(name[len(_SNAP_PREFIX) :]))

    def latest(self) -> tuple[int, dict] | None:
        """Return ``(wal_seq, manifest)`` of the newest complete snapshot.

        A directory without a parseable manifest (a crash between plane
        writes and publication cannot produce one, but a damaged disk
        can) is skipped, falling back to the next-newest snapshot.
        """
        for name in reversed(self._snap_dirs()):
            path = os.path.join(self.directory, name, "manifest.json")
            try:
                with open(path) as fh:
                    manifest = json.load(fh)
            except (OSError, ValueError):
                continue
            if manifest.get("format") == _FORMAT:
                return int(manifest["wal_seq"]), manifest
        return None

    def save(self, structures, wal_seq: int) -> str:
        """Write one snapshot of every structure; return its directory.

        ``structures`` maps name -> sampler.  The write is atomic: all
        planes and the manifest land in a temp directory that is renamed
        into place only when complete, then older snapshots are pruned.
        """
        final = f"{_SNAP_PREFIX}{int(wal_seq):016d}"
        tmp = os.path.join(self.directory, f"{final}{_TMP_MARKER}-{os.getpid()}")
        os.makedirs(tmp, exist_ok=True)
        manifest: dict = {"format": _FORMAT, "wal_seq": int(wal_seq), "structures": {}}
        for index, (name, sampler) in enumerate(sorted(structures.items())):
            spec = snapshot_spec(sampler)
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
                fname = f"s{index:04d}.{plane}.{code}"
                _fsync_write(os.path.join(tmp, fname), raw)
                entry["planes"][plane] = {
                    "file": fname,
                    "crc": zlib.crc32(raw),
                    "dtype": code,
                }
            manifest["structures"][name] = entry
        _fsync_write(
            os.path.join(tmp, "manifest.json"),
            json.dumps(manifest, indent=2).encode("utf-8"),
        )
        target = os.path.join(self.directory, final)
        if os.path.isdir(target):
            # Re-snapshotting an unchanged WAL position: replace.
            import shutil

            shutil.rmtree(target)
        os.rename(tmp, target)
        self._sync_dir()
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

    def _sync_dir(self) -> None:
        """Fsync the store directory so renames survive power loss."""
        try:
            fd = os.open(self.directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - non-POSIX directory semantics
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
