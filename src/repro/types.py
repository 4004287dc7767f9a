"""Shared value types: query descriptors and operation statistics."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidQueryError

__all__ = ["Interval", "QueryStats"]


@dataclass(frozen=True, slots=True)
class Interval:
    """A closed query interval ``[lo, hi]`` on the real line.

    Both endpoints are included, matching the paper's definition of a range
    query ``q = [x, y]``.  Construction validates ``lo <= hi``.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (self.lo <= self.hi):
            raise InvalidQueryError(
                f"invalid interval: lo={self.lo!r} must be <= hi={self.hi!r}"
            )

    def contains(self, value: float) -> bool:
        """Return whether ``value`` lies inside the closed interval."""
        return self.lo <= value <= self.hi

    @property
    def length(self) -> float:
        """Return ``hi - lo``."""
        return self.hi - self.lo


@dataclass(slots=True)
class QueryStats:
    """Counters describing the work done by one or more sampling queries.

    The samplers fill in whichever counters are meaningful for them; the
    benchmark harness aggregates these across a workload.  All counters are
    cumulative — call :meth:`reset` between measurement windows.
    """

    queries: int = 0
    samples_returned: int = 0
    rejections: int = 0
    extra: dict = field(default_factory=dict)

    def reset(self) -> None:
        """Zero every counter (including ``extra``)."""
        self.queries = 0
        self.samples_returned = 0
        self.rejections = 0
        self.extra.clear()

    def merge(self, other: "QueryStats") -> None:
        """Accumulate ``other`` into this instance."""
        self.queries += other.queries
        self.samples_returned += other.samples_returned
        self.rejections += other.rejections
        for key, value in other.extra.items():
            self.extra[key] = self.extra.get(key, 0) + value
