"""Fingerprint every sampler kind × sampling path under a fixed root seed.

Run as a script (``python tests/seedaudit.py``) this prints one JSON dict
mapping ``"<kind>/<path>"`` to a SHA-256 fingerprint of the drawn values.
``test_seed_determinism.py`` runs it twice in *fresh processes* and asserts
every entry is byte-identical — the audit that no sampling path smuggles in
process-local state (hash randomization, id()-keyed dicts, global RNGs).

Besides the sampling paths it pins how each structure kind is built:
``cli/<kind>`` (the CLI's output, flat and with ``--shards 3``),
``sharded-<kind>/updates`` (a 3-shard facade, float32 where the kind
takes a dtype, through a scalar and a bulk update pass with a rebalance)
``<name>/recovered`` (snapshot save → load → ``build_from_sorted``,
including the ``manifest.json`` bytes), ``durable/wal`` (a scripted
durable serving session of scalar and bulk updates with rids: its
replies, and after a crash the recovery's replayed counts, rebuilt
dedup outcomes and recovered structures) and ``durable/wal-segments``
(that session's WAL segment bytes, apart so that a change of record
encoding moves only this key), and ``<kind>/write-read`` for the
two dynamic kinds (a fixed script over 12,000 points that alternates
scalar and bulk updates with seeded one-query and many-query
``sample_bulk_many`` calls, ``peek_counts``, ``report`` and
``select_in_range`` — reads right after writes, narrow ones and ones
over every chunk).  The script uses only names that exist across
versions, so running it with each commit's ``src`` on ``PYTHONPATH`` and
comparing the outputs checks that a change kept every seeded result
byte-identical.  ``python tests/seedaudit.py --against <rev>`` does that
in one command: it runs this script once against ``<rev>``'s ``src``
(exported with ``git archive``) and once against this checkout's, each
in its own process, prints the keys that moved and exits 1 if any did.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile

ROOT_SEED = 123_456_789
DATA = [float((i * 53) % 401) for i in range(400)]
WEIGHTS = [1.0 + (i % 5) for i in range(400)]
STRATA = [(0.0, 99.0), (100.0, 299.0), (300.0, 400.0)]
LO, HI, T = 20.0, 380.0, 64
# Served after the client-seeded requests of each kind, in this order.
UNSEEDED_REQUESTS = [
    {"op": "sample", "lo": LO, "hi": HI, "t": T},
    {"op": "sample", "lo": HI, "hi": LO, "t": T},  # refused: inverted interval
    {"op": "stratified", "strata": [list(s) for s in STRATA], "t": T},
    {"op": "sample", "lo": LO, "hi": HI, "t": 1 << 21},  # refused: t > max_t
    {"op": "estimate", "lo": LO, "hi": HI, "target": 30.0, "batch": 64},
    {"op": "sample_wr", "lo": LO, "hi": HI, "t": T},
    {"op": "count", "lo": LO, "hi": HI},
    {"op": "insert", "value": 50.5},
    {"op": "insert_bulk", "values": [60.5, 70.5, 80.5]},
    {"op": "delete", "value": 50.5},
    {"op": "delete_bulk", "values": [60.5, 70.5]},
    {"op": "count", "lo": LO, "hi": HI},
    {"op": "sample", "lo": LO, "hi": HI, "t": T},
]


def _fingerprint(values) -> str:
    payload = json.dumps(values, separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest()


def _floats(block) -> list[float]:
    return [float(x) for x in block]


def build_factories():
    from repro import (
        DynamicIRS,
        ExternalIRS,
        ShardedIRS,
        StaticIRS,
        WeightedDynamicIRS,
        WeightedStaticIRS,
        WindowedIRS,
    )

    return {
        "static": lambda: StaticIRS(DATA, seed=ROOT_SEED),
        "dynamic": lambda: DynamicIRS(DATA, seed=ROOT_SEED),
        "external": lambda: ExternalIRS(DATA, block_size=32, seed=ROOT_SEED),
        "weighted": lambda: WeightedStaticIRS(DATA, WEIGHTS, seed=ROOT_SEED),
        "weighted-dynamic": lambda: WeightedDynamicIRS(
            DATA, WEIGHTS, seed=ROOT_SEED
        ),
        "sharded": lambda: ShardedIRS(DATA, num_shards=4, seed=ROOT_SEED),
        "windowed": lambda: WindowedIRS(DATA, window=300, seed=ROOT_SEED),
        "windowed-decay": lambda: WindowedIRS(
            DATA, window=300, seed=ROOT_SEED, decay=0.99
        ),
    }


def direct_fingerprints() -> dict[str, str]:
    from repro import sample_stratified, sample_without_replacement_bulk
    from repro.rng import derive_seed

    out: dict[str, str] = {}
    for kind, factory in build_factories().items():
        sampler = factory()
        # Scalar path: the structure's own seeded RNG, fixed call sequence.
        out[f"{kind}/scalar"] = _fingerprint(
            [_floats(sampler.sample(LO, HI, 8)) for _ in range(4)]
        )
        # Seed-addressable bulk path.
        out[f"{kind}/bulk"] = _fingerprint(
            _floats(sampler.sample_bulk(LO, HI, T, seed=derive_seed(ROOT_SEED, 1)))
        )
        # Stratified (every structure has a count-based share probe).
        out[f"{kind}/stratified"] = _fingerprint(
            [
                _floats(block)
                for block in sample_stratified(
                    sampler, STRATA, T, seed=derive_seed(ROOT_SEED, 2)
                )
            ]
        )
        # Without replacement: rank-addressable structures only.
        if kind in ("static", "dynamic", "sharded", "windowed"):
            out[f"{kind}/without-replacement"] = _fingerprint(
                _floats(
                    sample_without_replacement_bulk(
                        sampler, LO, HI, T, seed=derive_seed(ROOT_SEED, 3)
                    )
                )
            )
        close = getattr(sampler, "close", None)
        if close is not None:
            close()
    return out


def served_fingerprints() -> dict[str, str]:
    import asyncio

    from repro.serve import ReproServer, ServeClient

    async def scenario() -> dict[str, str]:
        structures = {kind: factory() for kind, factory in build_factories().items()}
        out: dict[str, str] = {}
        async with ReproServer(structures, seed=ROOT_SEED) as server:
            client = ServeClient(server)
            for kind in structures:
                replies = [
                    await client.sample(LO, HI, T, structure=kind, seed=777),
                    await client.sample_stratified(
                        [list(s) for s in STRATA], T, structure=kind, seed=778
                    ),
                    await client.estimate(
                        LO, HI, target=30.0, batch=64, structure=kind, seed=779
                    ),
                ]
                if kind in ("static", "dynamic", "sharded", "windowed"):
                    replies.append(
                        await client.sample_without_replacement(
                            LO, HI, T, structure=kind, seed=780
                        )
                    )
                # Unseeded reads draw under derive_seed(root entropy,
                # admission serial); the two refusals between them must not
                # use up a serial.  Whole envelopes are kept, so typed errors
                # (updates on static kinds, sample_wr on weighted ones) and
                # update results are pinned too.
                for payload in UNSEEDED_REQUESTS:
                    replies.append(
                        await client.request({**payload, "structure": kind})
                    )
                out[f"{kind}/served"] = _fingerprint(replies)
        return out

    return asyncio.run(scenario())


def shard_kinds() -> tuple:
    from repro.shard import SHARD_KINDS

    return SHARD_KINDS


def _weighted(kind: str) -> bool:
    return kind.startswith("weighted")


def cli_fingerprints(workdir: str) -> dict[str, str]:
    from repro.cli import main as cli_main

    data = os.path.join(workdir, "points.txt")
    weights = os.path.join(workdir, "weights.txt")
    queries = os.path.join(workdir, "queries.txt")
    with open(data, "w") as handle:
        handle.write("\n".join(repr(v) for v in DATA))
    with open(weights, "w") as handle:
        handle.write("\n".join(repr(w) for w in WEIGHTS))
    with open(queries, "w") as handle:
        handle.write("20 380\n100 140 8\n0 400 32\n")
    window = ["--lo", str(LO), "--hi", str(HI)]
    commands = [
        ["count", *window],
        ["report", "--lo", "100", "--hi", "120"],
        ["sample", *window, "-t", "16", "--seed", "7"],
        ["mean", *window, "-t", "64", "--seed", "7"],
        ["estimate", *window, "--target-ci", "5", "--seed", "7"],
        ["batch", "--queries", queries, "-t", "16", "--seed", "7"],
    ]
    out: dict[str, str] = {}
    for kind in shard_kinds():
        for suffix, shards in (("", "1"), ("/shards=3", "3")):
            common = ["--data", data, "--structure", kind, "--block-size", "32",
                      "--shards", shards]
            runs = [[*command, *common, "--weights", weights] for command in commands]
            runs.append(["sample", *window, "-t", "16", "--seed", "8", *common])
            outputs = []
            for argv in runs:
                buffer = io.StringIO()
                with contextlib.redirect_stdout(buffer):
                    cli_main(argv)
                # The batch summary line carries wall-clock timings.
                outputs.append(
                    [line for line in buffer.getvalue().splitlines()
                     if not line.startswith("#")]
                )
            out[f"cli/{kind}{suffix}"] = _fingerprint(outputs)
    return out


def sharded_fingerprints() -> dict[str, str]:
    from repro import ShardedIRS
    from repro.rng import derive_seed

    bulk = [100.0 + (i % 240) / 8 for i in range(720)]  # skews one shard
    out: dict[str, str] = {}
    for kind in shard_kinds():
        weights = WEIGHTS if _weighted(kind) else None
        try:
            sharded = ShardedIRS(DATA, num_shards=3, weights=weights,
                                 seed=ROOT_SEED, shard_kind=kind, dtype="float32")
        except ValueError:  # the kind stores float64 planes only
            sharded = ShardedIRS(DATA, num_shards=3, weights=weights,
                                 seed=ROOT_SEED, shard_kind=kind)
        record = [
            str(sharded.dtype),
            list(sharded.bounds),
            [_floats(sharded.sample(LO, HI, 8)) for _ in range(2)],
            _floats(sharded.sample_bulk(LO, HI, T, seed=derive_seed(ROOT_SEED, 4))),
        ]
        try:
            if _weighted(kind):
                sharded.insert(50.5, 3.0)
                sharded.insert_bulk(bulk, [1.0 + i % 4 for i in range(len(bulk))])
            else:
                sharded.insert(50.5)
                sharded.insert_bulk(bulk)
            sharded.delete(50.5)
            sharded.delete_bulk(bulk[::3])
        except TypeError as exc:  # the static kinds take no updates
            record.append(type(exc).__name__)
        record += [
            sharded.num_shards,
            list(sharded.bounds),
            sharded.stats.extra.get("rebalances", 0),
            sharded.export_sorted().tolist(),
            [int(c) for c in sharded.peek_counts([(LO, HI), (100.0, 130.0)])],
            [_floats(sharded.sample(LO, HI, 8)) for _ in range(2)],
            _floats(sharded.sample_bulk(LO, HI, T, seed=derive_seed(ROOT_SEED, 5))),
        ]
        close = getattr(sharded, "close", None)
        if close is not None:
            close()
        out[f"sharded-{kind}/updates"] = _fingerprint(record)
    return out


def recovered_factories():
    from repro import DynamicIRS, ShardedIRS, StaticIRS, WeightedDynamicIRS

    factories = dict(build_factories())
    factories.update({
        "static-f4": lambda: StaticIRS(DATA, seed=ROOT_SEED, dtype="float32"),
        "dynamic-f4": lambda: DynamicIRS(DATA, seed=ROOT_SEED, dtype="float32"),
        "weighted-dynamic-f4": lambda: WeightedDynamicIRS(
            DATA, WEIGHTS, seed=ROOT_SEED, dtype="float32"
        ),
        "sharded-f4": lambda: ShardedIRS(
            DATA, num_shards=3, seed=ROOT_SEED, shard_kind="static", dtype="float32"
        ),
        "sharded-weighted": lambda: ShardedIRS(
            DATA, num_shards=3, weights=WEIGHTS, seed=ROOT_SEED,
            shard_kind="weighted-dynamic",
        ),
    })
    return factories


def recovered_fingerprints(workdir: str) -> dict[str, str]:
    import numpy as np

    from repro.errors import StorageError
    from repro.rng import derive_seed
    from repro.store import SnapshotStore, build_from_sorted

    out: dict[str, str] = {}
    for index, (name, factory) in enumerate(sorted(recovered_factories().items())):
        sampler = factory()
        store = SnapshotStore(os.path.join(workdir, f"snaps{index}"))
        try:
            path = store.save({"s": sampler}, wal_seq=index + 1)
        except StorageError as exc:  # a kind snapshots refuse
            out[f"{name}/recovered"] = _fingerprint([type(exc).__name__])
            continue
        finally:
            close = getattr(sampler, "close", None)
            if close is not None:
                close()
        with open(os.path.join(path, "manifest.json"), "rb") as handle:
            manifest = handle.read().decode()
        spec, values, weights = store.load()["s"]
        rebuilt = build_from_sorted(spec, values, weights, seed=ROOT_SEED)
        exported = rebuilt.export_sorted()
        record = [
            manifest,
            type(rebuilt).__name__,
            str(np.asarray(exported).dtype),
            bool(np.shares_memory(np.asarray(exported), values)),
            np.asarray(exported).tolist(),
            rebuilt.count(LO, HI),
            _floats(rebuilt.sample_bulk(LO, HI, T, seed=derive_seed(ROOT_SEED, 6))),
        ]
        close = getattr(rebuilt, "close", None)
        if close is not None:
            close()
        out[f"{name}/recovered"] = _fingerprint(record)
    return out


BULK = [100.25 + i / 8 for i in range(64)]
# One batch (all submitted before any is awaited), then one request each.
DURABLE_BATCH = [
    {"op": "insert", "value": 50.5, "structure": "dynamic"},
    {"op": "insert_bulk", "values": BULK, "structure": "dynamic", "rid": "b1"},
    {"op": "sample", "lo": LO, "hi": HI, "t": 8, "seed": 5, "structure": "dynamic"},
    {"op": "delete_bulk", "values": [50.5, 999.5, BULK[3]], "structure": "dynamic",
     "rid": 7},
    {"op": "insert_bulk", "values": [1.5, 2.5, 3.5], "weights": [2, 0, 1.5],
     "structure": "weighted-dynamic", "rid": "w0"},
    {"op": "insert_bulk", "values": [4.5, 5.5], "weights": [1, 1],
     "structure": "dynamic", "rid": "refused"},
    {"op": "delete", "value": 1.5, "structure": "weighted-dynamic"},
    {"op": "insert_bulk", "values": [], "structure": "dynamic"},
]
DURABLE_SINGLES = [
    {"op": "delete_bulk", "values": BULK[4:], "structure": "dynamic", "rid": "b2"},
    {"op": "insert", "value": 60.25, "weight": 3.0, "structure": "weighted-dynamic",
     "rid": "s1"},
    {"op": "delete_bulk", "values": [60.25], "structure": "weighted-dynamic"},
]


def durable_fingerprints(workdir: str) -> dict[str, str]:
    import asyncio

    from repro import DynamicIRS, WeightedDynamicIRS
    from repro.serve import ReproServer

    data_dir = os.path.join(workdir, "durable")
    wal_dir = os.path.join(data_dir, "wal")

    def structures():
        return {
            "dynamic": DynamicIRS(DATA, seed=ROOT_SEED),
            "weighted-dynamic": WeightedDynamicIRS(DATA, WEIGHTS, seed=ROOT_SEED),
        }

    async def session():
        server = ReproServer(structures(), seed=ROOT_SEED, data_dir=data_dir)
        await server.start()
        replies = list(await asyncio.gather(*map(server.submit, DURABLE_BATCH)))
        for request in DURABLE_SINGLES:
            replies.append(await server.submit(request))
        # Crash: skip the shutdown checkpoint, so recovery replays the WAL.
        server._store_closed = True
        server.store.close()
        await server.aclose()
        segments = []
        for name in sorted(os.listdir(wal_dir)):
            with open(os.path.join(wal_dir, name), "rb") as handle:
                segments.append([name, handle.read().decode("latin-1")])
        async with ReproServer(
            structures(), seed=ROOT_SEED, data_dir=data_dir
        ) as recovered:
            report = recovered.recovery
            record = [
                replies,
                report.snapshot_seq,
                report.replayed_records,
                report.replayed_ops,
                sorted([repr(rid), ok, payload]
                       for rid, (ok, payload) in report.dedup.items()),
                {name: structure.export_sorted().tolist()
                 for name, structure in sorted(recovered.structures.items())},
            ]
            recovered._store_closed = True  # leave the directory as it is
            recovered.store.close()
        return record, segments

    record, segments = asyncio.run(session())
    return {
        "durable/wal": _fingerprint(record),
        "durable/wal-segments": _fingerprint(segments),
    }


#: The write-read script's multiset: 12,000 points with repeats.
WRITE_READ_POINTS = sorted(float((i * 7919) % 9973) / 10 for i in range(12_000))


def write_read_fingerprints() -> dict[str, str]:
    """Seeded reads right after scalar and bulk updates, per dynamic kind.

    Each of 36 steps makes one update — scalar insert, scalar delete,
    bulk insert or bulk delete in turn — then reads: one-query and
    three-query seeded ``sample_bulk_many`` calls, ``peek_counts`` and
    ``report`` over narrow windows (``select_in_range`` too on the
    unweighted kind).  Every sixth step adds reads over every chunk, so
    both narrow reads of a cold structure and reads of a warm one are
    pinned.
    """
    import random

    from repro import DynamicIRS, WeightedDynamicIRS

    span = WRITE_READ_POINTS[-1]
    out: dict[str, str] = {}
    for kind in ("dynamic", "weighted-dynamic"):
        weighted = kind == "weighted-dynamic"
        rng = random.Random(ROOT_SEED)
        if weighted:
            weights = [1.0 + (i % 7) / 4 for i in range(len(WRITE_READ_POINTS))]
            sampler = WeightedDynamicIRS(WRITE_READ_POINTS, weights, seed=ROOT_SEED)
        else:
            sampler = DynamicIRS(WRITE_READ_POINTS, seed=ROOT_SEED)
        bulk: list[float] = []
        record: list = []
        for step in range(36):
            value = round(rng.uniform(0.0, span), 2)
            if step % 4 == 0:
                if weighted:
                    sampler.insert(value, 2.5)
                else:
                    sampler.insert(value)
            elif step % 4 == 1:
                first = sampler.report(value, span)[0]  # (value, weight) if weighted
                sampler.delete(first[0] if weighted else first)
            elif step % 4 == 2:
                bulk = [round(rng.uniform(0.0, span), 2) for _ in range(64)]
                if weighted:
                    sampler.insert_bulk(bulk, [1.0 + (i % 3) for i in range(64)])
                else:
                    sampler.insert_bulk(bulk)
            else:
                sampler.delete_bulk(bulk)
            windows = []
            for _ in range(4):
                lo = round(rng.uniform(0.0, span * 0.97), 2)
                windows.append((lo, lo + round(rng.uniform(0.5, 25.0), 2)))
            if step % 6 == 5:
                windows += [(0.0, span), (-1.0, span / 2)]
            seed = 9_000 + step
            reads = [
                [_floats(b) for b in sampler.sample_bulk_many(
                    [(*windows[0], 16)], seeds=[seed])],
                [_floats(b) for b in sampler.sample_bulk_many(
                    [(lo, hi, 8) for lo, hi in windows[1:]],
                    seeds=[seed + i + 1 for i in range(len(windows) - 1)])],
                [int(c) for c in sampler.peek_counts(windows)],
                sampler.report(*windows[2]),
            ]
            if not weighted:
                total = sampler.count(*windows[3])
                ranks = [rng.randrange(total) for _ in range(5)] if total else []
                reads.append(sampler.select_in_range(*windows[3], ranks))
            record.append(reads)
        record.append(len(sampler))
        out[f"{kind}/write-read"] = _fingerprint(record)
    return out


def _audit(src: str) -> dict[str, str]:
    """Run this script in a fresh process with ``src`` alone on ``PYTHONPATH``.

    An audit that fails to run exits this process with code 2, after
    passing on its error output.
    """
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__)],
        capture_output=True, text=True, env=env, timeout=600,
    )
    if done.returncode:
        sys.stderr.write(done.stderr)
        raise SystemExit(2)
    return json.loads(done.stdout)


def against(rev: str) -> int:
    """Compare the audit at ``rev`` with this checkout's; return the exit code.

    ``rev``'s ``src`` is exported with ``git archive`` into a temporary
    directory; this script runs once per checkout, each in its own
    process.  The keys whose fingerprints differ (or exist on one side
    only) are printed one per line, and the code is 1 if any did (2 if
    an audit could not run).
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    archive = subprocess.run(
        ["git", "-C", root, "archive", "--format=tar", rev, "src"],
        capture_output=True,
    )
    if archive.returncode:
        sys.stderr.write(archive.stderr.decode(errors="replace"))
        return 2
    with tempfile.TemporaryDirectory() as base:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(base, filter="data")
        theirs = _audit(os.path.join(base, "src"))
    ours = _audit(os.path.join(root, "src"))
    moved = sorted(key for key in theirs.keys() | ours.keys()
                   if theirs.get(key) != ours.get(key))
    for key in moved:
        print(key)
    print(f"# {len(moved)} of {len(ours.keys() | theirs.keys())} keys moved "
          f"against {rev}", file=sys.stderr)
    return 1 if moved else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--against", metavar="REV",
        help="compare with the audit at git revision REV; exit 1 if a key moved",
    )
    args = parser.parse_args(argv)
    if args.against:
        return against(args.against)
    fingerprints = direct_fingerprints()
    fingerprints.update(served_fingerprints())
    fingerprints.update(sharded_fingerprints())
    fingerprints.update(write_read_fingerprints())
    with tempfile.TemporaryDirectory() as workdir:
        fingerprints.update(cli_fingerprints(workdir))
        fingerprints.update(recovered_fingerprints(workdir))
        fingerprints.update(durable_fingerprints(workdir))
    print(json.dumps(fingerprints, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
