"""Estimators that turn IRS samples into answers with error bars.

This is the consumer side of range sampling: once a structure hands back
``t`` iid in-range samples, these helpers produce the aggregate estimates
(mean, sum, quantiles, selectivity fractions) and the confidence statements
that justify sampling instead of scanning.

All bounds are distribution-free: normal-approximation CIs for means, and
Dvoretzky–Kiefer–Wolfowitz (DKW) bands for quantiles and CDF values.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as _np

__all__ = [
    "mean_estimate",
    "sum_estimate",
    "fraction_estimate",
    "quantile_estimate",
    "quantile_bounds",
    "dkw_epsilon",
    "required_sample_size",
    "RunningMeanCI",
]


class RunningMeanCI:
    """Streaming mean + normal-approximation CI (Welford/Chan merging).

    The online-aggregation loop (:func:`repro.scenarios.adaptive_estimate`)
    feeds sample batches in as they arrive; ``mean`` and ``half_width`` are
    always current without re-touching earlier samples.  Batches merge via
    Chan's parallel update, so the running moments are exact (up to float
    rounding) regardless of how the draws were batched.
    """

    __slots__ = ("confidence", "n", "_mean", "_m2", "_z")

    def __init__(self, confidence: float = 0.95) -> None:
        if not 0.0 < confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1): {confidence}")
        self.confidence = confidence
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._z = _z_of(confidence)

    def update(self, samples: Sequence[float]) -> None:
        """Fold one batch of samples into the running moments."""
        k = len(samples)
        if k == 0:
            return
        arr = _np.asarray(samples, dtype=float)
        batch_mean = float(arr.mean())
        batch_m2 = float(((arr - batch_mean) ** 2).sum())
        delta = batch_mean - self._mean
        n = self.n + k
        self._m2 += batch_m2 + delta * delta * self.n * k / n
        self._mean += delta * k / n
        self.n = n

    @property
    def mean(self) -> float:
        """The running sample mean (``nan`` before any sample)."""
        if self.n == 0:
            return float("nan")
        return self._mean

    @property
    def half_width(self) -> float:
        """Current CI half-width (``inf`` until two samples arrived)."""
        if self.n < 2:
            return float("inf")
        var = self._m2 / (self.n - 1)
        if var < 0.0:  # float rounding on constant data
            var = 0.0
        return self._z * math.sqrt(var / self.n)

    def interval(self) -> tuple[float, float]:
        """The current ``(mean, half_width)`` pair."""
        return self.mean, self.half_width


def mean_estimate(samples: Sequence[float], confidence: float = 0.95) -> tuple[float, float]:
    """Return ``(mean, half_width)`` of a normal-approximation CI.

    Valid for iid samples (which IRS guarantees) with finite variance; the
    half-width shrinks as ``1/sqrt(t)``.
    """
    t = len(samples)
    if t == 0:
        raise ValueError("need at least one sample")
    mean = sum(samples) / t
    if t == 1:
        return mean, float("inf")
    var = sum((x - mean) ** 2 for x in samples) / (t - 1)
    z = _z_of(confidence)
    return mean, z * math.sqrt(var / t)


def sum_estimate(
    samples: Sequence[float], population: int, confidence: float = 0.95
) -> tuple[float, float]:
    """Estimate the in-range total from samples and the exact in-range count.

    IRS structures return the count ``K`` for free (the rank search), so the
    Horvitz–Thompson estimate of the sum is ``K * mean``.
    """
    mean, half = mean_estimate(samples, confidence)
    return population * mean, population * half


def fraction_estimate(
    successes: int, t: int, confidence: float = 0.95
) -> tuple[float, float]:
    """Wilson interval midpoint/half-width for a sampled proportion."""
    if t <= 0:
        raise ValueError("need at least one sample")
    z = _z_of(confidence)
    phat = successes / t
    denom = 1.0 + z * z / t
    center = (phat + z * z / (2 * t)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / t + z * z / (4 * t * t))
    return center, half


def quantile_estimate(samples: Sequence[float], q: float) -> float:
    """Empirical ``q``-quantile of the samples (nearest-rank)."""
    if not samples:
        raise ValueError("need at least one sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1]: {q}")
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def dkw_epsilon(t: int, delta: float = 0.05) -> float:
    """DKW deviation bound: with prob. ``1-delta`` the empirical CDF of
    ``t`` iid samples is within ``epsilon`` of the truth everywhere."""
    if t <= 0:
        raise ValueError("need at least one sample")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1): {delta}")
    return math.sqrt(math.log(2.0 / delta) / (2.0 * t))


def quantile_bounds(
    samples: Sequence[float], q: float, delta: float = 0.05
) -> tuple[float, float]:
    """Return a ``1-delta`` confidence interval for the true ``q``-quantile.

    By DKW, the true quantile lies between the empirical ``q - eps`` and
    ``q + eps`` quantiles simultaneously for every ``q``.
    """
    eps = dkw_epsilon(len(samples), delta)
    lo_q = max(0.0, q - eps)
    hi_q = min(1.0, q + eps)
    return quantile_estimate(samples, lo_q), quantile_estimate(samples, hi_q)


def required_sample_size(epsilon: float, delta: float = 0.05) -> int:
    """Samples needed for a DKW band of width ``epsilon`` at level ``delta``.

    This is the budgeting formula behind "how big should ``t`` be": it is
    independent of both the data size and the range size — the whole point
    of the paper's query model.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1): {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1): {delta}")
    return math.ceil(math.log(2.0 / delta) / (2.0 * epsilon * epsilon))


def _z_of(confidence: float) -> float:
    """Two-sided standard-normal quantile via the inverse error function."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1): {confidence}")
    from scipy.special import erfinv

    return math.sqrt(2.0) * float(erfinv(confidence))
