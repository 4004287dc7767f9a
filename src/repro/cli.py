"""Command-line interface: build an index over a file of numbers and query it.

Usage (also via ``python -m repro``)::

    repro count   --data points.txt --lo 0.2 --hi 0.8
    repro sample  --data points.txt --lo 0.2 --hi 0.8 -t 10 --seed 7
    repro sample  --data points.txt --weights w.txt --structure weighted ...
    repro report  --data points.txt --lo 0.2 --hi 0.8
    repro mean    --data points.txt --lo 0.2 --hi 0.8 -t 1000
    repro estimate --data points.txt --lo 0.2 --hi 0.8 --target-ci 0.05
    repro batch   --data points.txt --queries q.txt -t 256

``--data`` is a text file of whitespace/newline-separated floats.  The CLI is
stateless by design: it builds the chosen structure, answers, and exits —
it exists for smoke tests, shell pipelines and reproducing single numbers
from the experiment tables.

``batch`` runs every query from ``--queries`` (one ``lo hi [t]`` triple per
line; ``t`` defaults to the ``-t`` flag) through the vectorized
:class:`~repro.batch.BatchQueryRunner`, printing one sample mean per query
followed by a ``#``-prefixed aggregate line.  With ``--ops`` instead of
``--queries`` it executes a mixed read/write stream (lines ``insert V``,
``insert V W`` for weighted structures, ``delete V``, ``sample LO HI
[T]``) in order, coalescing update runs into the bulk fast paths and
printing one mean per ``sample`` line.

``--shards N`` range-partitions the data into an N-shard
:class:`~repro.shard.ShardedIRS` whose shards are the requested
``--structure`` kind (results are reproducible under a fixed
``--seed``).

``serve`` is the one stateful command: it builds the structure once and
serves newline-delimited JSON requests against it — over TCP
(``--port``; runs until interrupted) or from a ``--requests`` file
(offline: one response line per request line, then a ``#``-prefixed
stats line, then exit).  ``--window-ms``/``--max-batch`` tune request
coalescing: the default ``--window-ms 0`` skips only the wait for
company, so requests already queued still share a batch, a positive
window holds each batch open that long, and ``--max-batch 1`` serves
one request per call.  With ``--data-dir`` the server is durable:
state recovers from the directory's snapshot + write-ahead log on
start, every update batch is logged before it executes (``--fsync``
picks the policy), and snapshots checkpoint on
``--snapshot-ops``/``--snapshot-interval`` triggers and on graceful
shutdown.

The serving control plane (:mod:`repro.obs`) hangs off the same
command: ``--metrics-port`` serves ``GET /metrics`` (Prometheus text)
and ``GET /healthz`` (ok/degraded/overloaded JSON), ``--trace-dir``
exports recent per-request traces as Chrome-trace-viewer JSON on
shutdown, and ``--memory-budget`` / ``--rate-capacity`` /
``--overcommit`` gate admission on measured capacity instead of queue
depth alone.  These five flags are TCP-only: with ``--requests`` each is
a usage error, since a rate gate would make the deterministic replay
depend on wall-clock arrival.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

import numpy as np

from .batch import BatchQueryRunner
from .core.kinds import KINDS, sort_planes
from .stats.estimators import mean_estimate

__all__ = ["main", "build_structure", "read_floats"]

#: ``serve`` flags that only TCP mode reads; ``--requests`` refuses them.
_TCP_ONLY = ("metrics_port", "trace_dir", "memory_budget", "rate_capacity",
             "overcommit")


def read_floats(path: str) -> list[float]:
    """Parse a whitespace-separated float file."""
    with open(path) as handle:
        return [float(token) for token in handle.read().split()]


def _window_ms(text: str) -> float:
    """Parse ``--window-ms``: a finite number of milliseconds >= 0."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number >= 0, got {text!r}"
        )
    return value


def build_structure(
    name: str,
    values: Sequence[float],
    weights: Sequence[float] | None,
    seed: int | None,
    block_size: int,
    shards: int = 1,
):
    """Construct the requested sampler over the data.

    ``name`` is a :data:`~repro.core.kinds.KINDS` key.  ``weights`` are
    used by the weighted kinds only (unit weights when ``None``).  With
    ``shards > 1`` the points are range-partitioned into a
    :class:`~repro.shard.ShardedIRS` whose shards are the requested
    structure kind.
    """
    kind = KINDS.get(name)
    if kind is None:
        raise ValueError(f"unknown structure: {name}")
    if not kind.weighted:
        weights = None
    if shards > 1:
        from .shard import ShardedIRS

        return ShardedIRS(
            values,
            num_shards=shards,
            weights=weights,
            seed=seed,
            shard_kind=name,
            block_size=block_size,
        )
    values, weights = sort_planes(np.asarray(values, dtype=float), weights)
    return kind.build(
        values, weights, seed=seed, dtype=None, block_size=block_size, adopt=False
    )


def read_ops(path: str, default_t: int) -> list:
    """Parse a mixed-stream file of update/query lines.

    Accepted lines: ``insert V`` (unit weight), ``insert V W`` (weighted
    structures), ``delete V`` and ``sample LO HI [T]``.  Weighted inserts
    become :class:`~repro.batch.BatchOp` instances so the batch engine
    routes the weight through the structure's weighted bulk path — and
    rejects it upfront as a typed error on unweighted structures.
    """
    from .batch import BatchOp

    ops: list = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            tokens = line.split("#", 1)[0].split()
            if not tokens:
                continue
            kind = tokens[0]
            if kind in ("insert", "delete") and len(tokens) == 2:
                ops.append((kind, float(tokens[1])))
            elif kind == "insert" and len(tokens) == 3:
                ops.append(BatchOp.insert(float(tokens[1]), float(tokens[2])))
            elif kind == "sample" and len(tokens) in (3, 4):
                t = int(tokens[3]) if len(tokens) == 4 else default_t
                ops.append(("sample", float(tokens[1]), float(tokens[2]), t))
            else:
                raise ValueError(
                    f"{path}:{lineno}: expected 'insert V [W]', 'delete V' or "
                    f"'sample LO HI [T]', got {line.strip()!r}"
                )
    return ops


def read_queries(path: str, default_t: int) -> list[tuple[float, float, int]]:
    """Parse a batch query file: one ``lo hi [t]`` triple per line."""
    queries: list[tuple[float, float, int]] = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            tokens = line.split("#", 1)[0].split()
            if not tokens:
                continue
            if len(tokens) not in (2, 3):
                raise ValueError(
                    f"{path}:{lineno}: expected 'lo hi [t]', got {line.strip()!r}"
                )
            t = int(tokens[2]) if len(tokens) == 3 else default_t
            queries.append((float(tokens[0]), float(tokens[1]), t))
    return queries


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Independent range sampling (PODS 2014 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in ("count", "sample", "report", "mean", "estimate", "batch", "serve"):
        p = sub.add_parser(command)
        p.add_argument("--data", required=True, help="file of floats")
        p.add_argument("--weights", help="file of weights (weighted structures)")
        p.add_argument("--structure", choices=list(KINDS), default="static")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--block-size", type=int, default=1024)
        p.add_argument(
            "--shards",
            type=int,
            default=1,
            help="range-partition into N shards (ShardedIRS facade)",
        )
        if command == "batch":
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--queries", help="file of 'lo hi [t]' lines")
            group.add_argument(
                "--ops",
                help="file of 'insert V' / 'delete V' / 'sample LO HI [T]' lines",
            )
        elif command == "serve":
            p.add_argument("--host", default="127.0.0.1")
            p.add_argument(
                "--port",
                type=int,
                default=7579,
                help="TCP port (0 binds an ephemeral port)",
            )
            p.add_argument(
                "--window-ms",
                type=_window_ms,
                default=0.0,
                help="request coalescing window in milliseconds (default 0: "
                "no wait; queued requests still share a batch)",
            )
            p.add_argument("--max-batch", type=int, default=256)
            p.add_argument(
                "--requests",
                help="offline mode: file of JSON request lines to answer, "
                "then exit (no TCP listener)",
            )
            p.add_argument(
                "--data-dir",
                default=None,
                help="durability directory: recover state from it on start, "
                "write-ahead log every update, snapshot on triggers and "
                "graceful shutdown",
            )
            p.add_argument(
                "--fsync",
                choices=("always", "batch", "off"),
                default="batch",
                help="WAL fsync policy (with --data-dir)",
            )
            p.add_argument(
                "--snapshot-ops",
                type=int,
                default=50_000,
                help="checkpoint after this many logged update ops",
            )
            p.add_argument(
                "--snapshot-interval",
                type=float,
                default=None,
                help="optional wall-clock checkpoint interval in seconds",
            )
            p.add_argument(
                "--metrics-port",
                type=int,
                default=None,
                help="serve GET /metrics (Prometheus text) and GET /healthz "
                "on this port (0 binds an ephemeral port)",
            )
            p.add_argument(
                "--metrics-host",
                default="127.0.0.1",
                help="bind host for the metrics listener",
            )
            p.add_argument(
                "--trace-dir",
                default=None,
                help="export recent request traces to this directory as "
                "Chrome-trace-viewer JSON on shutdown",
            )
            p.add_argument(
                "--memory-budget",
                type=int,
                default=None,
                help="logical resident-byte budget across hosted structures; "
                "admission refuses at measured capacity",
            )
            p.add_argument(
                "--rate-capacity",
                type=float,
                default=None,
                help="provisioned arrival ceiling in requests/s for the "
                "admission gate",
            )
            p.add_argument(
                "--overcommit",
                type=float,
                default=None,
                help="over-commit ratio applied to --memory-budget and "
                "--rate-capacity (default 1.0)",
            )
        else:
            p.add_argument("--lo", type=float, required=True)
            p.add_argument("--hi", type=float, required=True)
        if command == "estimate":
            p.add_argument(
                "--target-ci",
                type=float,
                required=True,
                help="stop once the CI half-width is at or below this",
            )
            p.add_argument("--confidence", type=float, default=0.95)
            p.add_argument(
                "--batch-draws",
                type=int,
                default=256,
                help="draws per adaptive round",
            )
            p.add_argument(
                "--max-draws",
                type=int,
                default=65536,
                help="hard draw budget (converged=no when exhausted first)",
            )
        if command in ("sample", "mean", "batch"):
            p.add_argument("-t", "--samples", type=int, default=10)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "serve" and args.requests:
        for dest in _TCP_ONLY:
            if getattr(args, dest) is not None:
                flag = "--" + dest.replace("_", "-")
                parser.error(f"argument {flag}: not allowed with --requests")
    values = read_floats(args.data)
    weights = read_floats(args.weights) if args.weights else None
    structure = build_structure(
        args.structure,
        values,
        weights,
        args.seed,
        args.block_size,
        shards=args.shards,
    )
    try:
        return _dispatch(args, structure)
    finally:
        close = getattr(structure, "close", None)
        if close is not None:
            close()


def _serve(args, structure) -> int:
    """Run the ``serve`` subcommand (offline file mode or TCP mode)."""
    import asyncio
    import json

    from .serve import ReproServer, ServeClient

    window = args.window_ms / 1e3
    durable = dict(
        data_dir=args.data_dir,
        fsync=args.fsync,
        snapshot_ops=args.snapshot_ops,
        snapshot_interval=args.snapshot_interval,
    )

    async def offline() -> int:
        with open(args.requests) as handle:
            lines = [line.strip() for line in handle if line.strip()]
        async with ReproServer(
            structure,
            seed=args.seed,
            window=window,
            max_batch=args.max_batch,
            # Offline mode submits the whole file at once; the admission
            # queue must hold it all or long files would draw spurious
            # 'overloaded' errors in a deterministic replay mode.
            max_pending=max(1, len(lines)),
            **durable,
        ) as server:
            client = ServeClient(server)
            futures = [server.submit(line.encode()) for line in lines]
            for response in await asyncio.gather(*futures):
                print(json.dumps(response, separators=(",", ":")))
            stats = await client.server_stats()
            print(
                f"# requests={stats['admitted']} batches={stats['batches']}"
                f" coalesce_factor={stats['coalesce_factor']}"
                f" errors={stats['replies_error']}"
            )
        return 0

    async def tcp() -> int:
        import signal

        server = ReproServer(
            structure,
            seed=args.seed,
            window=window,
            max_batch=args.max_batch,
            memory_budget=args.memory_budget,
            rate_capacity=args.rate_capacity,
            overcommit=1.0 if args.overcommit is None else args.overcommit,
            **durable,
        )
        await server.start_tcp(args.host, args.port)
        print(f"serving on {args.host}:{server.port}", flush=True)
        if args.metrics_port is not None:
            await server.start_metrics(args.metrics_host, args.metrics_port)
            print(
                f"metrics on {args.metrics_host}:{server.metrics_port}"
                " (/metrics, /healthz)",
                flush=True,
            )
        # SIGTERM (the orchestrator's polite kill) must run the same
        # graceful path as Ctrl-C: drain in-flight batches, write the
        # shutdown checkpoint, close the WAL.  Without the handler the
        # default action kills the process mid-batch and the next start
        # pays a full WAL replay.
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        hooked: list[int] = []
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
                hooked.append(sig)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread / platform without loop signals
        try:
            await stop.wait()  # until SIGINT/SIGTERM (or KeyboardInterrupt)
        finally:
            for sig in hooked:
                loop.remove_signal_handler(sig)
            port = server.port
            await server.aclose()
            if args.trace_dir is not None and server.traces is not None:
                import os

                from .obs import chrome_trace

                os.makedirs(args.trace_dir, exist_ok=True)
                path = os.path.join(args.trace_dir, f"trace-{port}.json")
                with open(path, "w") as handle:
                    handle.write(chrome_trace(server.traces.recent()))
                print(f"wrote {len(server.traces)} traces to {path}", flush=True)
        return 0

    try:
        return asyncio.run(offline() if args.requests else tcp())
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        return 0


def _dispatch(args, structure) -> int:
    """Execute the parsed command against the built structure."""
    if args.command == "serve":
        return _serve(args, structure)
    if args.command == "batch":
        runner = BatchQueryRunner(structure)
        if args.ops:
            ops = read_ops(args.ops, args.samples)
            mixed = runner.run_mixed(ops)
            for samples in mixed.samples:
                if samples is None:
                    continue
                if len(samples) == 0:
                    print("nan")
                else:
                    print(f"{sum(samples) / len(samples):.6g}")
            stats = mixed.stats
            print(
                f"# ops={mixed.operations} queries={stats.queries}"
                f" updates={stats.extra.get('updates', 0)}"
                f" bulk_calls={stats.extra.get('bulk_update_calls', 0)}"
                f" samples={stats.samples_returned}"
                f" seconds={mixed.elapsed_seconds:.6f}"
                f" ops_per_sec={mixed.ops_per_second:.1f}"
            )
            return 0
        queries = read_queries(args.queries, args.samples)
        result = runner.run(queries)
        for samples in result.samples:
            if len(samples) == 0:
                print("nan")
            else:
                print(f"{sum(samples) / len(samples):.6g}")
        stats = result.stats
        print(
            f"# queries={stats.queries} samples={stats.samples_returned}"
            f" seconds={result.elapsed_seconds:.6f}"
            f" qps={result.queries_per_second:.1f}"
        )
        return 0
    if args.command == "count":
        print(structure.count(args.lo, args.hi))
    elif args.command == "report":
        for item in structure.report(args.lo, args.hi):
            print(item if not isinstance(item, tuple) else f"{item[0]} {item[1]}")
    elif args.command == "sample":
        for value in structure.sample(args.lo, args.hi, args.samples):
            print(value)
    elif args.command == "mean":
        samples = structure.sample(args.lo, args.hi, args.samples)
        mean, half = mean_estimate(samples)
        count = structure.count(args.lo, args.hi)
        print(f"mean={mean:.6g} ci95=±{half:.6g} t={len(samples)} K={count}")
    elif args.command == "estimate":
        from .scenarios import adaptive_estimate

        outcome = adaptive_estimate(
            structure,
            args.lo,
            args.hi,
            target_half_width=args.target_ci,
            confidence=args.confidence,
            batch=args.batch_draws,
            max_draws=args.max_draws,
            seed=args.seed,
        )
        print(
            f"estimate={outcome.estimate:.6g} ci=±{outcome.half_width:.6g}"
            f" confidence={outcome.confidence:g} draws={outcome.draws}"
            f" batches={outcome.batches}"
            f" converged={'yes' if outcome.converged else 'no'}"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
