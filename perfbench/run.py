"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-read --seed 1 --seconds 10 --trace 0

The workloads are listed in ``BENCHMARK.json``.  The program is imported
from ``src/`` of the same checkout (it is pure Python; nothing is built).
Scratch files (the durable workload's data directory) live under
``.bench_build/perfbench/`` and are removed before exit.

Standard output ends with two JSON lines: a detail record (host, set-up
repetitions, per-phase counts) and the result, ``{"correct", "attempted",
"failed", "metrics"}``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs an untraced and a traced phase and reports the
per-layer metrics, with the metrics of layers a workload bypasses at 0.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _git_commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    """SHA-256 over every file under ``src/repro`` (path and bytes)."""
    digest = hashlib.sha256()
    base = os.path.join(SRC, "repro")
    for directory, dirs, files in sorted(os.walk(base)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _filesystem(path: str) -> str | None:
    """Type of the filesystem holding ``path``, from the mount table."""
    path = os.path.realpath(path)
    best, kind = "", None
    try:
        with open("/proc/self/mounts") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        return None
    return kind


def host_info(workdir: str, wal_fsync: str) -> dict:
    import numpy

    import repro.core

    backend_info = getattr(repro.core, "backend_info", None)
    return {
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernels": backend_info() if backend_info is not None else None,
        "wal_fsync": wal_fsync,
        "data_dir_fs": _filesystem(workdir),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        return _fail("--seed must be >= 0 and --seconds > 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return _fail(f"unknown workload {args.workload!r}")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        return _fail(f"no program sources at {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        return _fail(f"imported repro from {repro.__file__}, not from {SRC}")
    sys.dont_write_bytecode = True  # keep the benchmark directory free of caches
    import workloads

    scratch = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        outcome = asyncio.run(
            workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
        )
        host = host_info(workdir, workloads.WAL_FSYNC)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = outcome.per_layer if args.trace else outcome.end_to_end
    undeclared = sorted(set(values) - {m["name"] for m in declared})
    if undeclared:
        return _fail(f"metrics missing from BENCHMARK.json: {undeclared}")
    if not args.trace and set(values) != {m["name"] for m in declared}:
        return _fail("an end-to-end metric was not measured")
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "detail": outcome.detail,
    }))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
