"""Adaptive online aggregation: draw until the error bar is small enough.

The whole point of the paper's query model is that a sampler answers
aggregate questions from ``t`` draws instead of a scan — but the right
``t`` depends on the (unknown) in-range variance.  :func:`adaptive_estimate`
closes that loop: it draws seeded batches through ``sample_bulk``, folds
them into a streaming :class:`~repro.stats.estimators.RunningMeanCI`, and
stops at the first batch boundary where the confidence interval's
half-width reaches the caller's target — or when the draw budget runs out.

Round ``r`` of a seeded call draws with ``derive_seed(seed, r)``, so the
full trajectory (every batch, hence the estimate, the CI, and the number
of draws used) is a pure function of the seed and the structure contents.
That is what lets the server's ``estimate`` op return byte-identical
replies under a fixed root seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import InvalidQueryError
from ..rng import derive_seed
from ..stats.estimators import RunningMeanCI

__all__ = ["EstimateResult", "adaptive_estimate"]


@dataclass(frozen=True, slots=True)
class EstimateResult:
    """Outcome of one :func:`adaptive_estimate` loop.

    ``converged`` distinguishes "the CI reached the target" from "the draw
    budget ran out first" — the estimate is still unbiased either way, the
    error bar is just wider than asked.
    """

    estimate: float
    half_width: float
    confidence: float
    draws: int
    batches: int
    converged: bool

    def to_dict(self) -> dict:
        """JSON-ready form (the server's ``estimate`` reply body).

        A non-finite ``half_width`` (fewer than two draws bound no
        interval) is written as ``None``: JSON has no infinity.
        """
        return {
            "estimate": self.estimate,
            "half_width": self.half_width if math.isfinite(self.half_width) else None,
            "confidence": self.confidence,
            "draws": self.draws,
            "batches": self.batches,
            "converged": self.converged,
        }


def adaptive_estimate(
    sampler,
    lo: float,
    hi: float,
    *,
    target_half_width: float,
    confidence: float = 0.95,
    batch: int = 256,
    max_draws: int = 65536,
    seed=None,
) -> EstimateResult:
    """Estimate the in-range mean to a target CI width, adaptively.

    Parameters
    ----------
    sampler:
        Any structure with ``sample_bulk(lo, hi, t, *, seed=)``.
    lo, hi:
        The (closed) query range.  An empty range raises the structure's
        own ``EmptyRangeError`` — adaptivity cannot manufacture data.
    target_half_width:
        Stop once the CI half-width is at or below this (must be > 0).
    confidence:
        CI level in ``(0, 1)``; the half-width uses the normal
        approximation, like :func:`repro.stats.estimators.mean_estimate`.
    batch:
        Draws per round (>= 1).  Convergence is checked at batch
        boundaries, so smaller batches stop closer to the target at the
        cost of more bulk calls.
    max_draws:
        Hard draw budget (>= 1); the loop returns ``converged=False``
        when it exhausts the budget first.
    seed:
        Optional integer; round ``r`` then draws with
        ``derive_seed(seed, r)``, making the whole run reproducible.
    """
    if not isinstance(batch, int) or isinstance(batch, bool) or batch < 1:
        raise InvalidQueryError(f"batch must be a positive int: {batch!r}")
    if not isinstance(max_draws, int) or isinstance(max_draws, bool) or max_draws < 1:
        raise InvalidQueryError(f"max_draws must be a positive int: {max_draws!r}")
    target = float(target_half_width)
    if not target > 0.0:
        raise InvalidQueryError(
            f"target_half_width must be > 0: {target_half_width!r}"
        )
    try:
        running = RunningMeanCI(confidence)
    except ValueError as exc:
        raise InvalidQueryError(str(exc)) from None
    rounds = 0
    while running.n < max_draws:
        t = min(batch, max_draws - running.n)
        if seed is None:
            block = sampler.sample_bulk(lo, hi, t)
        else:
            block = sampler.sample_bulk(lo, hi, t, seed=derive_seed(seed, rounds))
        running.update(block)
        rounds += 1
        if running.half_width <= target:
            break
    mean, half = running.interval()
    return EstimateResult(
        estimate=mean,
        half_width=half,
        confidence=confidence,
        draws=running.n,
        batches=rounds,
        converged=half <= target,
    )
