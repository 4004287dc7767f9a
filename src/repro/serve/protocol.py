"""Wire protocol of the serving layer: newline-delimited JSON messages.

Every request and every response is one JSON object on one line (UTF-8,
``\\n``-terminated).  Requests carry an ``op`` plus op-specific fields and
an optional ``id`` that the server echoes back verbatim, so clients may
pipeline requests and match replies out of order.  Responses are either

``{"id": ..., "ok": true, "result": ...}``
    the op's result — a list of floats for ``sample``, an integer for
    ``count`` and the update ops, a dict for ``stats``; or

``{"id": ..., "ok": false, "error": {"type": ..., "message": ...}}``
    a *typed* error: ``type`` is a stable machine-readable code (one of
    :data:`ERROR_TYPES` values plus the admission codes ``bad_request``,
    ``unknown_op``, ``unknown_structure``, ``too_large``, ``overloaded``,
    ``unavailable`` and ``shutting_down``), ``message`` is human-readable
    detail.  Overload refusals may carry ``retry_after`` (seconds) — the
    server's measured-capacity backoff hint; codes in
    :data:`RETRYABLE_CODES` are safe to retry.

The module is transport-agnostic: the TCP server and the in-process
client both speak dicts shaped by these helpers.
"""

from __future__ import annotations

import json
import math

from ..errors import (
    CapacityError,
    EmptyRangeError,
    EmptyStructureError,
    InvalidQueryError,
    InvalidWeightError,
    KeyNotFoundError,
    ReproError,
    ShardTimeoutError,
    StorageError,
)

__all__ = [
    "ERROR_TYPES",
    "RETRYABLE_CODES",
    "RequestError",
    "ServeError",
    "encode",
    "decode",
    "error_code",
    "error_response",
    "ok_response",
    "span_error_body",
    "op_to_wire",
    "op_from_wire",
]

#: Library exception -> stable wire error code (most specific class wins).
ERROR_TYPES: list[tuple[type, str]] = [
    (EmptyRangeError, "empty_range"),
    (EmptyStructureError, "empty_structure"),
    (InvalidWeightError, "invalid_weight"),
    (KeyNotFoundError, "key_not_found"),
    (InvalidQueryError, "invalid_query"),
    (CapacityError, "capacity"),
    (ShardTimeoutError, "shard_timeout"),
    (StorageError, "storage"),
    (ReproError, "error"),
]

#: Wire error codes that mean "the request did not take effect (or is safe
#: to repeat) and a later attempt may succeed" — the retrying client's
#: whitelist.  ``overloaded``/``shutting_down``/``unavailable`` are
#: refusals issued *before* execution; ``shard_timeout`` comes from
#: seed-pure read paths, so repeating it is harmless.
RETRYABLE_CODES = frozenset(
    {"overloaded", "shutting_down", "unavailable", "shard_timeout"}
)


class RequestError(ReproError):
    """A request rejected at admission, carrying its wire error code.

    Raised (and caught) inside the server for malformed payloads,
    unknown ops/structures, oversized requests and backpressure refusals;
    the ``code`` attribute becomes the response's ``error.type``.
    ``retry_after`` (seconds), when set, is attached to the error body as
    the server's backoff hint — how long until capacity should free up.
    """

    def __init__(
        self, code: str, message: str, *, retry_after: float | None = None
    ) -> None:
        super().__init__(message)
        self.code = code
        self.retry_after = retry_after


class ServeError(ReproError):
    """Client-side surface of a typed error reply.

    The convenience client methods (``sample``, ``count``, ...) raise this
    when the server answers ``ok: false``; ``code`` holds the wire error
    type so callers can branch without string-matching messages.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.detail = message


def error_code(exc: BaseException) -> str:
    """Return the wire error code for an exception (``internal`` if alien)."""
    if isinstance(exc, RequestError):
        return exc.code
    for klass, code in ERROR_TYPES:
        if isinstance(exc, klass):
            return code
    return "internal"


def ok_response(request_id, result) -> dict:
    """Build a success response envelope."""
    return {"id": request_id, "ok": True, "result": result}


def error_response(request_id, exc: BaseException) -> dict:
    """Build a typed error response envelope from an exception.

    A ``retry_after`` hint carried by a :class:`RequestError` (the
    overload path) rides along in the error body.
    """
    body = {"type": error_code(exc), "message": str(exc)}
    retry_after = getattr(exc, "retry_after", None)
    if retry_after is not None:
        body["retry_after"] = round(float(retry_after), 4)
    return {"id": request_id, "ok": False, "error": body}


def span_error_body(span_errors) -> dict | None:
    """Build the error body for a request spanning these per-op errors.

    ``span_errors`` is the request's slice of a mixed run's ``errors``
    list (``None`` per succeeded op).  Returns ``None`` when every op
    succeeded, else the wire error body; multi-op (bulk) requests also
    get ``op_index`` (first failing op) and ``applied`` (ops that did
    commit) — bulk requests are not atomic, and the reply must say what
    committed or a client would retry ops that already happened.  The
    same helper shapes live replies and the dedup outcomes rebuilt from
    WAL replay, which is what keeps them identical.
    """
    error = None
    error_at = -1
    for j, exc in enumerate(span_errors):
        if exc is not None:
            error, error_at = exc, j
            break
    if error is None:
        return None
    body = {"type": error_code(error), "message": str(error)}
    if len(span_errors) > 1:
        body["op_index"] = error_at
        body["applied"] = sum(1 for e in span_errors if e is None)
    return body


def encode(message: dict) -> bytes:
    """Serialize one message to its wire form (compact JSON + newline).

    Non-finite floats are rejected rather than silently emitting invalid
    JSON (``NaN`` is not JSON); results never legitimately contain them.
    """
    return (
        json.dumps(message, separators=(",", ":"), allow_nan=False) + "\n"
    ).encode("utf-8")


def decode(line: bytes | str) -> dict:
    """Parse one wire line into a request dict.

    Raises :class:`RequestError` (code ``bad_request``) when the line is
    not valid JSON or not a JSON object, so the server can answer with a
    typed error instead of dropping the connection.
    """
    try:
        message = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise RequestError("bad_request", f"invalid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise RequestError("bad_request", "request must be a JSON object")
    return message


#: BatchOp kind <-> one-letter wire tag (kept stable: WAL records on disk
#: outlive code versions).
_OP_TAGS = {"insert": "i", "delete": "d", "sample": "s", "count": "c"}
_TAG_OPS = {tag: kind for kind, tag in _OP_TAGS.items()}


def op_to_wire(op) -> dict:
    """Serialize one :class:`~repro.batch.BatchOp` to its wire dict.

    This is the record body format of the write-ahead log
    (:mod:`repro.store.wal`): compact stable keys, op-irrelevant fields
    omitted, round-trippable through :func:`op_from_wire`.  The dict is
    JSON-safe by construction — values were validated finite at
    admission.
    """
    tag = _OP_TAGS.get(op.kind)
    if tag is None:
        raise ValueError(f"unknown op kind: {op.kind!r}")
    wire: dict = {"k": tag}
    if op.kind in ("insert", "delete"):
        wire["v"] = op.value
        if op.kind == "insert" and op.weight is not None:
            wire["w"] = op.weight
    else:
        wire["lo"] = op.lo
        wire["hi"] = op.hi
        if op.kind == "sample":
            wire["t"] = op.t
            if op.seed is not None:
                wire["seed"] = op.seed
    if op.structure != "default":
        wire["s"] = op.structure
    return wire


def op_from_wire(wire: dict):
    """Rebuild a :class:`~repro.batch.BatchOp` from its wire dict."""
    from ..batch import BatchOp

    kind = _TAG_OPS.get(wire.get("k"))
    if kind is None:
        raise ValueError(f"unknown op tag: {wire.get('k')!r}")
    structure = wire.get("s", "default")
    if kind == "insert":
        return BatchOp.insert(wire["v"], wire.get("w"), structure)
    if kind == "delete":
        return BatchOp.delete(wire["v"], structure)
    if kind == "sample":
        return BatchOp.sample(
            wire["lo"], wire["hi"], wire["t"], structure, seed=wire.get("seed")
        )
    return BatchOp.count(wire["lo"], wire["hi"], structure)


def require_number(message: dict, field: str, *, finite: bool = False) -> float:
    """Extract a numeric field as a float.

    ``NaN`` and non-numeric types are rejected with a typed
    :class:`RequestError`; booleans are not numbers on this wire.  Query
    bounds may be infinite (a full-range query is legitimate), but fields
    that become *stored values* must pass ``finite=True`` — an infinity
    accepted into a structure would later poison the JSON encoding of
    every sample reply that draws it.
    """
    value = message.get(field)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RequestError("bad_request", f"field {field!r} must be a number")
    value = float(value)
    if math.isnan(value):
        raise RequestError("bad_request", f"field {field!r} must not be NaN")
    if finite and math.isinf(value):
        raise RequestError("bad_request", f"field {field!r} must be finite")
    return value


def require_int(message: dict, field: str, minimum: int = 0) -> int:
    """Extract a non-negative (by default) integer field."""
    value = message.get(field)
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestError("bad_request", f"field {field!r} must be an integer")
    if value < minimum:
        raise RequestError("bad_request", f"field {field!r} must be >= {minimum}")
    return value
