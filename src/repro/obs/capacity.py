"""Capacity accounting and the admission gate.

The serving tier previously refused requests only when its bounded
admission queue filled — a depth signal with no notion of how big or
how hot the hosted structures are.  This module supplies the measured
half: :func:`resident_bytes` walks a structure and prices its logical
array planes, and :class:`AdmissionGate` combines that with measured
arrival rate and queue depth into one *pressure* score in ``[0, ∞)``,
where ``>= 1.0`` on any configured component refuses admission.

Capacity follows the over-commit style of cloud placement APIs: each
resource has a raw budget and an ``overcommit`` multiplier, and the
usable budget is ``budget * overcommit``.  Over-commit ratios above 1.0
deliberately admit more than the raw budget — the operator's statement
that peak demands rarely coincide; ratios below 1.0 reserve headroom.

Components (each optional; unconfigured components never gate):

``queue``
    ``depth / max_pending`` — the PR-7 depth signal, kept.
``memory``
    ``resident_bytes / (memory_budget * overcommit)`` — logical bytes
    of every hosted structure, refreshed every ``refresh_every``
    admissions so the per-request cost is a counter decrement.
``rate``
    ``arrival_rate / (rate_capacity * overcommit)`` — measured ops/s
    against a provisioned ceiling.

Pressure is the **max** of the configured components: admission is
gated by the scarcest resource, not an average that lets one exhausted
resource hide behind two idle ones.
"""

from __future__ import annotations

__all__ = ["resident_bytes", "structure_bytes", "AdmissionGate"]

#: Logical bytes per stored point (one float plane).
POINT_BYTES = 8


def structure_bytes(structure) -> int:
    """Price one (non-sharded) structure's logical array planes.

    The accounting is *logical*: the structure's own ``plane_nbytes``
    when it reports one (dtype-aware — a float32 plane prices at 4 bytes
    per point, and a structure built zero-copy over a caller array still
    prices its adopted plane), otherwise 8 bytes per resident float plane
    entry (values; weighted structures carry a second weight plane;
    external structures are priced by their pooled frames rather than the
    full on-device file).  It deliberately ignores Python object overhead
    — the point is a stable, comparable load signal, not an allocator
    audit.
    """
    pool = getattr(structure, "pool", None)
    if pool is not None:  # external-memory: resident == pooled frames
        device = getattr(structure, "device", None)
        block = getattr(device, "block_size", None) or getattr(
            pool, "capacity", 0
        )
        frames = len(getattr(pool, "_frames", ()))
        return frames * block * POINT_BYTES
    nbytes = getattr(structure, "plane_nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    n = len(structure)
    planes = 2 if _is_weighted(structure) else 1
    return n * planes * POINT_BYTES


def _is_weighted(structure) -> bool:
    return hasattr(structure, "total_weight") or hasattr(structure, "weight")


def resident_bytes(structure) -> int:
    """Price a structure, recursing through sharded containers.

    A sharded facade also holds one float64 read snapshot per shard, plus
    its weight prefix on weighted kinds; those arrays are priced too.
    """
    shards = getattr(structure, "shards", None)
    if shards is not None and not callable(shards):
        snaps = sum(
            a.nbytes for snap in structure._snaps
            for a in (snap.values, snap.cumw) if a is not None
        )
        return sum(structure_bytes(s) for s in shards) + snaps
    return structure_bytes(structure)


class AdmissionGate:
    """Measured-capacity admission control with over-commit ratios.

    Parameters
    ----------
    max_pending:
        Queue-depth bound (the server's admission queue size).
    memory_budget:
        Logical resident-byte budget across hosted structures, or
        ``None`` to leave memory ungated.
    rate_capacity:
        Provisioned arrival ceiling in requests/s, or ``None``.
    overcommit:
        Multiplier applied to ``memory_budget`` and ``rate_capacity``.
    refresh_every:
        Admissions between resident-byte re-walks (amortizes the walk).
    """

    def __init__(
        self,
        max_pending: int,
        memory_budget: int | None = None,
        rate_capacity: float | None = None,
        overcommit: float = 1.0,
        refresh_every: int = 256,
    ) -> None:
        if overcommit <= 0:
            raise ValueError("overcommit must be positive")
        self.max_pending = max(1, int(max_pending))
        self.memory_budget = memory_budget
        self.rate_capacity = rate_capacity
        self.overcommit = float(overcommit)
        self.refresh_every = max(1, int(refresh_every))
        self._structures: dict[str, object] = {}
        self._resident = 0
        self._countdown = 0
        self.refusals = 0

    def watch(self, structures: dict) -> None:
        """Set the structures whose resident bytes the gate accounts."""
        self._structures = dict(structures)
        self._refresh()

    def _refresh(self) -> None:
        self._resident = sum(
            resident_bytes(s) for s in self._structures.values()
        )
        self._countdown = self.refresh_every

    @property
    def resident(self) -> int:
        """Last measured logical resident bytes across watched structures."""
        return self._resident

    def components(self, depth: int, arrival_rate: float) -> dict[str, float]:
        """Return each configured component's pressure (name -> ratio)."""
        out = {"queue": depth / self.max_pending}
        if self.memory_budget:
            out["memory"] = self._resident / (self.memory_budget * self.overcommit)
        if self.rate_capacity:
            out["rate"] = arrival_rate / (self.rate_capacity * self.overcommit)
        return out

    def pressure(self, depth: int, arrival_rate: float) -> float:
        """The max component pressure — the scarcest resource gates."""
        return max(self.components(depth, arrival_rate).values())

    def admit(self, depth: int, arrival_rate: float) -> tuple[bool, str | None]:
        """Decide admission; returns ``(admitted, refusing_component)``.

        The queue component is excluded here — queue-full refusal stays
        with the server's ``put_nowait``, which is exact.  The gate adds
        the *measured* components on top.
        """
        if self._countdown <= 0:
            self._refresh()
        self._countdown -= 1
        components = self.components(depth, arrival_rate)
        for name in ("memory", "rate"):
            if components.get(name, 0.0) >= 1.0:
                self.refusals += 1
                return False, name
        return True, None
