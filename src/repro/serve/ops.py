"""The served op table: one :class:`OpSpec` row per wire op.

Every per-kind decision of the serving layer reads :data:`OPS`.  A new op
kind is a row here, a ``BatchOp`` constructor, a runner executor, a
client method and a row in the ``docs/api.md`` wire table (which
``tests/test_docs.py`` checks against :data:`OPS`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..batch import BatchOp
from . import protocol
from .protocol import RequestError

__all__ = ["OpSpec", "OPS", "spec_for"]


@dataclass(frozen=True, slots=True)
class OpSpec:
    """One wire op: how it is admitted, accounted, logged and answered.

    ``parse(message, structure, max_t, resolve_seed)`` checks the fields
    and returns the request's one ``BatchOp`` (``None`` for a bulk update
    of no values) and its batch cost.  It raises the first failing
    field's :class:`~repro.serve.RequestError` and calls ``resolve_seed``
    last, so a refused request never uses up a serial.  ``reply(value,
    n)`` maps the runner's result for the request's op, which stands for
    ``n`` updates (1 unless bulk), to ``(wire result, samples
    returned)``.  Rows
    with ``immediate(server, message)`` are answered at admission.
    ``bucket`` is the :class:`~repro.serve.ServerStats` counter (the
    scenario reads drain sampler capacity, so they count as ``sample``).
    ``scatter_seed`` marks the op whose seed a shard scatter sees as is.
    """

    name: str
    bucket: str | None = None
    parse: Callable | None = None
    reply: Callable | None = None
    immediate: Callable | None = None
    scatter_seed: bool = False

    @property
    def writes(self) -> bool:
        """Whether the op mutates: WAL-logged, and may carry a ``rid``."""
        return self.bucket == "update"

    @property
    def trace_kind(self) -> str:
        """The ``TraceRecord.kind`` label: the op name, ``update`` for writes."""
        return "update" if self.writes else self.name


def spec_for(op) -> OpSpec | None:
    """Return the row of wire op ``op`` (``None`` if unknown or unhashable)."""
    return OPS.get(op) if isinstance(op, str) else None


def _interval(message: dict) -> tuple[float, float]:
    lo = protocol.require_number(message, "lo")
    hi = protocol.require_number(message, "hi")
    if lo > hi:
        raise RequestError("invalid_query", f"invalid interval: {lo!r} > {hi!r}")
    return lo, hi


def _capped(value: int, field: str, max_t: int) -> int:
    if value > max_t:
        raise RequestError("too_large", f"{field}={value} exceeds max_t={max_t}")
    return value


def _optional_int(message: dict, field: str, default: int) -> int:
    if message.get(field) is None:
        return default
    return protocol.require_int(message, field, minimum=1)


def _bulk_values(message: dict, max_t: int):
    values = message.get("values")
    if not isinstance(values, list):
        raise RequestError("bad_request", "field 'values' must be a list")
    if len(values) > max_t:
        raise RequestError("too_large", f"{len(values)} values exceed max_t={max_t}")
    return protocol.require_numbers(values, "values")


def _draws(make) -> Callable:
    """Parse ``lo``/``hi``/``t`` into one seeded op built by ``make``."""

    def parse(message, structure, max_t, resolve_seed):
        lo, hi = _interval(message)
        t = _capped(protocol.require_int(message, "t"), "t", max_t)
        return make(lo, hi, t, structure, seed=resolve_seed(message)), max(1, t)

    return parse


def _parse_stratified(message, structure, max_t, resolve_seed):
    strata = message.get("strata")
    if not isinstance(strata, list):
        raise RequestError("bad_request", "field 'strata' must be a list")
    bounds = []
    for stratum in strata:
        if not isinstance(stratum, (list, tuple)) or len(stratum) != 2:
            raise RequestError("bad_request", "each stratum must be a [lo, hi] pair")
        lo = protocol.require_number({"strata": stratum[0]}, "strata")
        hi = protocol.require_number({"strata": stratum[1]}, "strata")
        if lo > hi:
            raise RequestError("invalid_query", f"invalid stratum: {lo!r} > {hi!r}")
        bounds.append((lo, hi))
    t = _capped(protocol.require_int(message, "t"), "t", max_t)
    op = BatchOp.stratified(bounds, t, structure, seed=resolve_seed(message))
    return op, max(1, t)


def _parse_estimate(message, structure, max_t, resolve_seed):
    lo, hi = _interval(message)
    target = protocol.require_number(message, "target", finite=True)
    if not target > 0.0:
        raise RequestError("invalid_query", "field 'target' must be > 0")
    confidence = 0.95
    if message.get("confidence") is not None:
        confidence = protocol.require_number(message, "confidence", finite=True)
        if not 0.0 < confidence < 1.0:
            raise RequestError("invalid_query", "field 'confidence' must be in (0, 1)")
    batch_draws = _optional_int(message, "batch", 256)
    max_draws = _capped(_optional_int(message, "max_draws", 65536), "max_draws", max_t)
    op = BatchOp.estimate(
        lo, hi, target=target, confidence=confidence, batch=batch_draws,
        max_draws=max_draws, structure=structure, seed=resolve_seed(message),
    )
    return op, max(1, max_draws)  # the worst case is the honest price


def _parse_count(message, structure, max_t, resolve_seed):
    lo, hi = _interval(message)
    return BatchOp.count(lo, hi, structure), 1


def _parse_insert(message, structure, max_t, resolve_seed):
    value = protocol.require_number(message, "value", finite=True)
    weight = message.get("weight")
    if weight is not None:
        weight = protocol.require_number(message, "weight", finite=True)
    return BatchOp.insert(value, weight, structure), 1


def _parse_delete(message, structure, max_t, resolve_seed):
    value = protocol.require_number(message, "value", finite=True)
    return BatchOp.delete(value, structure), 1


def _parse_insert_bulk(message, structure, max_t, resolve_seed):
    values = _bulk_values(message, max_t)
    weights = message.get("weights")
    if weights is not None:
        if not isinstance(weights, list) or len(weights) != len(values):
            raise RequestError(
                "bad_request", "field 'weights' must align with 'values'"
            )
        weights = protocol.require_numbers(weights, "weights")
    if not len(values):
        return None, 0
    return BatchOp.insert_bulk(values, weights, structure), len(values)


def _parse_delete_bulk(message, structure, max_t, resolve_seed):
    values = _bulk_values(message, max_t)
    if not len(values):
        return None, 0
    return BatchOp.delete_bulk(values, structure), len(values)


def _floats(block) -> list[float]:
    # ndarray.tolist() yields builtin floats at C speed; the comprehension
    # is the list-result (scalar path) fallback.
    return block.tolist() if hasattr(block, "tolist") else [float(x) for x in block]


def _reply_samples(value, n):
    result = _floats(value)
    return result, len(result)


def _reply_stratified(value, n):
    result = [_floats(block) for block in value]
    return result, sum(len(block) for block in result)


def _reply_update(value, n):
    return n, 0


def _stats(server, message):
    snapshot = server.stats.snapshot()
    if server.obs is not None:
        structures = server.obs.structure_stats()
        if structures:
            snapshot["structures"] = structures
    return snapshot


def _trace(server, message):
    return server.trace_snapshot(message.get("limit"))


#: Wire op name -> :class:`OpSpec`, in the order the docs list them.
OPS: dict[str, OpSpec] = {
    spec.name: spec
    for spec in (
        OpSpec("sample", "sample", _draws(BatchOp.sample), _reply_samples,
               scatter_seed=True),
        OpSpec("sample_wr", "sample", _draws(BatchOp.sample_wr), _reply_samples),
        OpSpec("stratified", "sample", _parse_stratified, _reply_stratified),
        OpSpec("estimate", "sample", _parse_estimate,
               lambda value, n: (value.to_dict(), value.draws)),
        OpSpec("count", "count", _parse_count, lambda value, n: (int(value), 0)),
        OpSpec("insert", "update", _parse_insert, _reply_update),
        OpSpec("delete", "update", _parse_delete, _reply_update),
        OpSpec("insert_bulk", "update", _parse_insert_bulk, _reply_update),
        OpSpec("delete_bulk", "update", _parse_delete_bulk, _reply_update),
        OpSpec("stats", immediate=_stats),
        OpSpec("ping", immediate=lambda server, message: "pong"),
        OpSpec("trace", immediate=_trace),
    )
}
