"""The deterministic fault schedule behind every injection wrapper.

A :class:`FaultPlan` answers one question — "does the fault at *this site*
fire on *this visit*?" — from nothing but the plan's seed, the site name,
and a per-site visit counter.  Every decision routes through
:func:`repro.rng.derive_seed`, so a chaos run replays *exactly* from its
seed: the same plan against the same workload fires the same faults at
the same visits, no matter how wall-clock time or thread scheduling
varies between runs.

Sites are dotted strings naming an injection point, e.g. ``"wal.fsync"``,
``"device.torn"``, ``"proxy.drop"``.  Each site keeps its
own visit counter, so the schedule at one seam is independent of how
often the other seams are exercised — adding reads to a workload cannot
shift which *writes* fail.

Faults are scheduled two ways, combinable per site:

* ``rates={"site": p}`` — each visit fires independently with
  probability ``p`` (deterministically derived, not sampled);
* ``at={"site": {0, 3}}`` — fire on exactly these visit indices.

``limits={"site": k}`` caps a site at ``k`` fired faults, which is how a
test says "exactly one fsync failure, whenever the rate lands it".
"""

from __future__ import annotations

import hashlib

from ..rng import derive_seed

__all__ = ["FaultPlan"]

_SCALE = float(1 << 64)


def _site_key(site: str) -> int:
    """Hash a site name into the 64-bit word `derive_seed` paths carry."""
    digest = hashlib.sha256(site.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class FaultPlan:
    """A seeded, replayable schedule of injected faults.

    Parameters
    ----------
    seed:
        Root seed of the schedule; equal seeds (with equal ``rates`` /
        ``at`` / ``limits``) fire identically against the same workload.
    rates:
        ``site -> probability`` of firing per visit.
    at:
        ``site -> collection of visit indices`` (0-based) that always fire.
    limits:
        ``site -> max fired faults``; visits past the cap never fire.

    Attributes
    ----------
    fired:
        ``site -> count`` of faults fired so far.
    history:
        ``(site, visit_index)`` tuples in firing order — the replay log a
        failing chaos round prints alongside its seed.
    """

    def __init__(
        self,
        seed: int = 0,
        rates: dict[str, float] | None = None,
        *,
        at: dict | None = None,
        limits: dict[str, int] | None = None,
    ) -> None:
        self.seed = int(seed)
        self.rates = {site: float(p) for site, p in (rates or {}).items()}
        for site, p in self.rates.items():
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"rate for {site!r} must be in [0, 1], got {p}")
        self.at = {site: frozenset(ticks) for site, ticks in (at or {}).items()}
        self.limits = {site: int(k) for site, k in (limits or {}).items()}
        self._entropy = derive_seed(self.seed, 0xFA017)
        self._keys: dict[str, int] = {}
        self._visits: dict[str, int] = {}
        self._draws: dict[str, int] = {}
        self.fired: dict[str, int] = {}
        self.history: list[tuple[str, int]] = []

    def _key(self, site: str) -> int:
        key = self._keys.get(site)
        if key is None:
            key = self._keys[site] = _site_key(site)
        return key

    def should(self, site: str) -> bool:
        """Advance ``site``'s visit counter; return True when it fires.

        The decision is a pure function of ``(seed, site, visit_index)``
        plus the static ``at``/``rates``/``limits`` tables — calling
        sequence across *other* sites cannot perturb it.
        """
        visit = self._visits.get(site, 0)
        self._visits[site] = visit + 1
        hit = visit in self.at.get(site, ())
        if not hit:
            rate = self.rates.get(site, 0.0)
            if rate > 0.0:
                hit = derive_seed(self._entropy, self._key(site), visit) / _SCALE < rate
        if not hit:
            return False
        limit = self.limits.get(site)
        if limit is not None and self.fired.get(site, 0) >= limit:
            return False
        self.fired[site] = self.fired.get(site, 0) + 1
        self.history.append((site, visit))
        return True

    def fraction(self, site: str) -> float:
        """Return a deterministic uniform draw in ``[0, 1)`` for ``site``.

        Used by wrappers that need an *amount* once a fault fired — where
        to tear a write, how long to delay a reply.  Each site has its own
        draw counter, independent of :meth:`should`'s visit counter.
        """
        draw = self._draws.get(site, 0)
        self._draws[site] = draw + 1
        return derive_seed(self._entropy, self._key(site) ^ 0x5C, draw) / _SCALE

    def split_point(self, site: str, n: int) -> int:
        """Return a deterministic tear point in ``[1, n)`` (``0`` if n < 2).

        A torn write keeps a strict non-empty prefix — ``0`` kept bytes is
        a *lost* write and ``n`` a successful one, neither of which is the
        fault being modeled — so the split lands strictly inside when the
        payload allows it.
        """
        if n < 2:
            return 0
        return 1 + int(self.fraction(site) * (n - 1))

    def replay(self) -> "FaultPlan":
        """Return a fresh plan with identical schedule and zeroed counters.

        Running the same workload against the replayed plan fires the same
        faults at the same visits — this is the reproduction handle a
        failing chaos round hands back with its seed.
        """
        return FaultPlan(
            self.seed,
            dict(self.rates),
            at={site: set(ticks) for site, ticks in self.at.items()},
            limits=dict(self.limits),
        )

    def __repr__(self) -> str:
        """Show the schedule knobs and how many faults fired so far."""
        return (
            f"FaultPlan(seed={self.seed}, rates={self.rates}, "
            f"at={ {s: sorted(t) for s, t in self.at.items()} }, "
            f"limits={self.limits}, fired={self.fired})"
        )
