"""Execution backends for the sharded scatter-gather engine.

A backend runs a list of *shard tasks* — pure descriptors of "draw ``t``
samples from shard ``i``'s snapshot over ``[lo, hi]`` with seed ``s`` and
write them at offset ``o``" — and the engine guarantees that the
result is byte-identical no matter which backend executed them:

* every task derives its randomness from an explicit integer seed
  (:func:`repro.rng.derive_seed` of the root entropy and the task's
  ``(call, shard)`` path), never from shared generator state;
* tasks write into disjoint slices of one output array, so completion
  order is irrelevant.

``serial`` runs the tasks inline; ``threads`` fans them out over a
:class:`~concurrent.futures.ThreadPoolExecutor` (NumPy's searchsorted /
gather kernels release the GIL on large arrays).

Every backend's ``run`` accepts an optional ``timeout`` (seconds for the
whole task list).  Expiry raises :class:`~repro.errors.ShardTimeoutError`,
a :class:`~repro.errors.ShardExecutionError`, which is the signal
:class:`~repro.shard.sharded.ShardedIRS` uses to fail over to the serial
backend — safe precisely because tasks are seed-pure and idempotent.
"""

from __future__ import annotations

import os
from typing import Sequence

from ..errors import ShardTimeoutError

try:  # NumPy is required for the parallel backends (serial falls back).
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is installed in CI
    _np = None

__all__ = [
    "SerialBackend",
    "ThreadBackend",
    "make_backend",
    "BACKEND_NAMES",
]

BACKEND_NAMES = ("serial", "threads")


def draw_from_snapshot(values, cumw, lo: float, hi: float, t: int, seed: int):
    """Draw ``t`` samples from one shard snapshot — the shared task kernel.

    ``values`` is the shard's sorted point array; ``cumw`` is either
    ``None`` (uniform shard: one rank draw per sample) or the length
    ``n + 1`` inclusive weight prefix with ``cumw[0] == 0`` (weighted
    shard: one inverse-CDF bisect per sample, exact proportional to the
    masses the prefix represents).  Every backend runs exactly this
    function, which is what makes results backend-independent: the
    generator is rebuilt from the explicit seed.
    """
    rng = _np.random.default_rng(seed)
    a = int(_np.searchsorted(values, lo, side="left"))
    b = int(_np.searchsorted(values, hi, side="right"))
    if cumw is None:
        ranks = rng.integers(a, b, size=t)
    else:
        base = cumw[a]
        mass = cumw[b] - base
        u = rng.random(t) * mass + base
        # side="right" maps u in [cumw[i], cumw[i+1]) to rank i; the clip
        # guards the one-ulp case where u rounds up to exactly cumw[b].
        ranks = _np.clip(_np.searchsorted(cumw, u, side="right") - 1, a, b - 1)
    return values[ranks]


def _run_with_deadline(pool, fn, tasks: Sequence, timeout: float) -> None:
    """Submit ``tasks`` to ``pool`` and wait at most ``timeout`` seconds.

    Stragglers are cancelled best-effort (a task already running cannot be
    interrupted, but its write lands in its own disjoint output slice, so
    a late completion is harmless).  Raises
    :class:`~repro.errors.ShardTimeoutError` when the deadline expires
    with tasks unfinished; re-raises the first task exception otherwise.
    """
    from concurrent.futures import wait

    futures = [pool.submit(fn, task) for task in tasks]
    done, not_done = wait(futures, timeout=timeout)
    if not_done:
        for future in not_done:
            future.cancel()
        raise ShardTimeoutError(
            f"{len(not_done)} of {len(futures)} shard task(s) "
            f"unfinished after {timeout}s"
        )
    for future in done:
        future.result()


class SerialBackend:
    """Run shard tasks inline, one after another.

    ``timeout`` is accepted for interface parity and ignored: inline
    execution cannot be preempted, and the serial backend is the failover
    target — it must never itself raise a shard-execution fault.
    """

    name = "serial"

    def run(self, fn, tasks: Sequence, timeout: float | None = None) -> None:
        """Execute every task inline (``timeout`` ignored)."""
        for task in tasks:
            fn(task)

    def close(self) -> None:
        """Nothing to release."""


class ThreadBackend:
    """Run shard tasks on a persistent thread pool.

    Useful when the per-task NumPy kernels are large enough to release the
    GIL; always deterministic (tasks share no mutable state and write
    disjoint output slices).
    """

    name = "threads"

    def __init__(self, max_workers: int | None = None) -> None:
        self._max_workers = max_workers or min(8, os.cpu_count() or 1)
        self._pool = None

    def _ensure_pool(self):
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(max_workers=self._max_workers)
        return self._pool

    def run(self, fn, tasks: Sequence, timeout: float | None = None) -> None:
        """Execute the tasks on the pool (inline when there is at most one).

        With a ``timeout`` the whole task list must finish within it or
        :class:`~repro.errors.ShardTimeoutError` is raised.
        """
        if timeout is None and len(tasks) <= 1:
            for task in tasks:
                fn(task)
            return
        pool = self._ensure_pool()
        if timeout is None:
            # list() drains the iterator so exceptions propagate here.
            list(pool.map(fn, tasks))
        else:
            _run_with_deadline(pool, fn, tasks, timeout)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def make_backend(spec, max_workers: int | None = None):
    """Resolve a backend name (or pass an instance through).

    ``spec`` may be ``"serial"``, ``"threads"`` or any object with
    ``run``/``close`` (a custom backend).
    """
    if not isinstance(spec, str):
        return spec
    if spec == "serial":
        return SerialBackend()
    if spec == "threads":
        return ThreadBackend(max_workers)
    raise ValueError(f"unknown backend {spec!r}; expected one of {BACKEND_NAMES}")
