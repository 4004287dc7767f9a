"""Shard-executor injection: a backend wrapper that loses work on schedule.

:class:`FaultyBackend` wraps any shard execution backend (serial,
threads, or custom) and injects the failure a parallel tier exhibits — a
wedged task that misses its deadline — as its *typed* outcome, without
real sleeps, so chaos suites stay fast and deterministic.

Site consumed (under the wrapper's ``site`` prefix, default shown):

=================  ==========================================================
``shard.stall``    run a deterministic strict prefix of the tasks, then
                   raise :class:`~repro.errors.ShardTimeoutError` — the
                   output array now holds partial results, exactly what a
                   deadline miss leaves behind
=================  ==========================================================

:class:`~repro.shard.ShardedIRS` catches the error and fails over to the
serial backend; because shard tasks are seed-pure, the serial re-run
overwrites any partial results with byte-identical samples.
"""

from __future__ import annotations

from ..errors import ShardTimeoutError
from .plan import FaultPlan

__all__ = ["FaultyBackend"]


class FaultyBackend:
    """A shard execution backend that injects deadline misses."""

    def __init__(self, inner, plan: FaultPlan, *, site: str = "shard") -> None:
        self.inner = inner
        self.plan = plan
        self.site = site
        self.name = f"faulty-{getattr(inner, 'name', type(inner).__name__)}"

    def run(self, fn, tasks, timeout: float | None = None) -> None:
        """Run the tasks through the wrapped backend, or fail on schedule."""
        if self.plan.should(f"{self.site}.stall"):
            tasks = list(tasks)
            done = (
                int(self.plan.fraction(f"{self.site}.stall") * len(tasks))
                if tasks
                else 0
            )
            if done:
                self._delegate(fn, tasks[:done], timeout)
            raise ShardTimeoutError(
                f"injected: {len(tasks) - done} of {len(tasks)} shard tasks "
                "missed their deadline"
            )
        self._delegate(fn, tasks, timeout)

    def _delegate(self, fn, tasks, timeout) -> None:
        if timeout is None:
            self.inner.run(fn, tasks)
        else:
            self.inner.run(fn, tasks, timeout)

    def close(self) -> None:
        """Close the wrapped backend."""
        self.inner.close()
