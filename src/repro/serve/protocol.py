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

import base64
import json
import math

import numpy as np

from ..batch import BatchOp
from ..errors import (
    CapacityError,
    EmptyRangeError,
    EmptyStructureError,
    InvalidQueryError,
    InvalidWeightError,
    KeyNotFoundError,
    ReproError,
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
    "ops_to_wire",
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
    (StorageError, "storage"),
    (ReproError, "error"),
]

#: Wire error codes that mean "the request did not take effect and a
#: later attempt may succeed" — the retrying client's whitelist.  All
#: three are refusals issued *before* execution.
RETRYABLE_CODES = frozenset({"overloaded", "shutting_down", "unavailable"})


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

    ``span_errors`` holds one entry per update value of the request
    (``None`` per value that applied): a bulk op's per-value error list
    from a live run, or the request's slice of a replayed WAL record's
    values.  Returns ``None`` when every value applied, else the wire
    error body; multi-value (bulk) requests also get ``op_index`` (first
    failing value) and ``applied`` (values that did commit) — bulk
    requests are not atomic, and the reply must say what committed or a
    client would retry values that already applied.  The same helper
    shapes live replies and the dedup outcomes rebuilt from WAL replay,
    which is what keeps them identical.
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


#: Update kind <-> one-letter wire tag (kept stable: WAL records on disk
#: outlive code versions).
_OP_TAGS = {"insert": "i", "delete": "d"}
_TAG_OPS = {tag: kind for kind, tag in _OP_TAGS.items()}

#: A column's float64 byte order, whatever the host's.
_COLUMN_DTYPE = np.dtype("<f8")


def _column_text(pieces: list) -> str:
    """Base64 of a run's values as little-endian float64.

    ``pieces`` holds lists of scalar values and bulk arrays in run order;
    empty pieces are skipped, and a lone piece converts without a
    concatenation.
    """
    pieces = [piece for piece in pieces if len(piece)]
    if len(pieces) == 1:
        column = np.asarray(pieces[0], dtype=_COLUMN_DTYPE)
    else:
        column = np.concatenate(pieces, dtype=_COLUMN_DTYPE)
    return base64.b64encode(column.tobytes()).decode("ascii")


def ops_to_wire(ops) -> list[dict]:
    """Serialize update ops to wire dicts, each run of them as one column.

    This is the record body of the write-ahead log
    (:mod:`repro.store.wal`).  A *run* is consecutive ``insert`` ops (or
    consecutive ``delete`` ops) on one structure, scalar and bulk alike,
    whose weights are all given or all absent.  It logs as one column
    entry ``{"k": "i"|"d", "b": ..., "w": ..., "s": ...}``: ``b`` holds
    the base64 of the values as little-endian float64, ``w`` the same for
    the weights (weighted inserts only), ``s`` the structure (when not
    ``"default"``).  A bulk op of no values logs nothing, and a read op
    raises ``ValueError``.  A run's bytes depend only on its values, not
    on how they arrived: a bulk op logs exactly as the scalar ops it
    stands for.
    """
    runs: list[tuple] = []
    key = None
    for op in ops:
        bulk = op.values
        if op.kind == "insert":
            weight = op.weight if bulk is None else op.weights
        elif op.kind == "delete":
            weight = None
        else:
            raise ValueError(f"the log records updates only, not {op.kind!r}")
        if bulk is not None and not len(bulk):
            continue
        if key != (op.kind, op.structure, weight is not None):
            key = (op.kind, op.structure, weight is not None)
            values, weights = [[]], [[]]
            runs.append((key, values, weights))
        if bulk is None:
            values[-1].append(op.value)
            if weight is not None:
                weights[-1].append(weight)
        else:
            values += (bulk, [])
            if weight is not None:
                weights += (weight, [])
    wire: list[dict] = []
    for (kind, structure, weighted), values, weights in runs:
        entry = {"k": _OP_TAGS[kind], "b": _column_text(values)}
        if weighted:
            entry["w"] = _column_text(weights)
        if structure != "default":
            entry["s"] = structure
        wire.append(entry)
    return wire


def _column_floats(text) -> np.ndarray:
    """Decode a column's base64 text to its float64 values.

    Text that is not strict base64, or not a whole number of float64s,
    raises ``ValueError``; anything but text, ``TypeError``.
    """
    return np.frombuffer(base64.b64decode(text, validate=True), dtype=_COLUMN_DTYPE)


def op_from_wire(wire: dict):
    """Rebuild an update :class:`~repro.batch.BatchOp` from its wire dict.

    A column entry (``"b"``) becomes one bulk op; a scalar dict
    (``"v"``, the only update form records held before columns) one
    scalar op.  A damaged entry, or one of any other kind, raises
    ``ValueError`` or ``TypeError`` (``AttributeError`` if it is not a
    dict at all).
    """
    kind = _TAG_OPS.get(wire.get("k"))
    if kind is None:
        raise ValueError(f"unknown op tag: {wire.get('k')!r}")
    structure = wire.get("s", "default")
    if "b" in wire:
        values = _column_floats(wire["b"])
        if kind == "insert":
            weights = wire.get("w")
            if weights is not None:
                weights = _column_floats(weights)
            return BatchOp.insert_bulk(values, weights, structure)
        if "w" in wire:
            raise ValueError("a delete column carries no weights")
        return BatchOp.delete_bulk(values, structure)
    if kind == "insert":
        return BatchOp.insert(wire["v"], wire.get("w"), structure)
    return BatchOp.delete(wire["v"], structure)


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
    try:
        value = float(value)
    except OverflowError:  # a JSON integer beyond the float range
        raise RequestError(
            "bad_request", f"field {field!r} is too large for a float"
        ) from None
    if math.isnan(value):
        raise RequestError("bad_request", f"field {field!r} must not be NaN")
    if finite and math.isinf(value):
        raise RequestError("bad_request", f"field {field!r} must be finite")
    return value


#: The element types the bulk fast path converts; ``bool`` (an ``int``
#: subclass) and everything else take the per-element checks.
_PLAIN_NUMBERS = frozenset({int, float})


def require_numbers(items: list, field: str) -> np.ndarray:
    """Convert a list field's items to a float64 array of finite numbers.

    The result equals :func:`require_number` (``finite=True``) applied to
    each item, bit for bit, and the first offending item raises the same
    error.  When every item is a plain ``int`` or ``float``, one NumPy
    conversion and one finiteness check stand in for the per-item calls;
    anything else (a bool, a string, ``None``, a list, a non-finite or
    out-of-range number) falls back to them, to word the error.
    """
    if _PLAIN_NUMBERS.issuperset(map(type, items)):
        try:
            array = np.array(items, dtype=np.float64)
        except OverflowError:  # an integer beyond the float range
            pass
        else:
            if np.isfinite(array).all():
                return array
    return np.array(
        [require_number({field: item}, field, finite=True) for item in items],
        dtype=np.float64,
    )


def require_int(message: dict, field: str, minimum: int = 0) -> int:
    """Extract a non-negative (by default) integer field."""
    value = message.get(field)
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestError("bad_request", f"field {field!r} must be an integer")
    if value < minimum:
        raise RequestError("bad_request", f"field {field!r} must be >= {minimum}")
    return value
