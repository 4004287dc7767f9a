"""Exception hierarchy for the ``repro`` package.

Every error raised intentionally by the library derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors such as ``TypeError``.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "EmptyRangeError",
    "EmptyStructureError",
    "InvalidQueryError",
    "InvalidWeightError",
    "KeyNotFoundError",
    "CapacityError",
    "ZeroCopyError",
    "StorageError",
    "BlockNotAllocatedError",
    "CorruptRecordError",
    "InjectedFaultError",
    "ConnectionLostError",
    "DeadlineExceededError",
    "RetriesExhaustedError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class EmptyRangeError(ReproError):
    """Raised when a sampling query targets a range that contains no points.

    Sampling from an empty population is undefined; callers that prefer an
    empty result should call ``count`` first or use ``sample_or_empty``
    helpers where available.
    """


class EmptyStructureError(ReproError):
    """Raised when an operation requires a non-empty structure."""


class InvalidQueryError(ReproError):
    """Raised for malformed queries (e.g. ``x > y`` or ``t < 0``)."""


class InvalidWeightError(ReproError):
    """Raised for non-finite, negative, or all-zero weight assignments."""


class KeyNotFoundError(ReproError, KeyError):
    """Raised when deleting a point that is not present."""


class CapacityError(ReproError):
    """Raised when a fixed-capacity substrate (e.g. a block) overflows."""


class ZeroCopyError(ReproError, ValueError):
    """Raised when ``StaticIRS.from_sorted(..., copy=False)`` cannot adopt the input.

    Zero-copy adoption is a contract, not a hint: the caller's array must
    already be a one-dimensional, C-contiguous NumPy array of exactly the
    requested plane dtype.  Anything else (wrong dtype, a strided view, a
    plain list) raises this error instead of silently falling back to a
    copy — a silent copy would defeat the caller's memory budget and hide
    the aliasing semantics the contract documents.
    """


class StorageError(ReproError):
    """Base class for storage-backend and durability-tier failures."""


class BlockNotAllocatedError(StorageError, KeyError):
    """Raised when touching a block id that is not currently allocated.

    Covers double frees and read/write-after-free on any
    :class:`~repro.store.StorageBackend`.  Subclasses ``KeyError`` for
    backward compatibility with callers that caught the old dict error.
    """


class CorruptRecordError(StorageError):
    """Raised when a WAL record or snapshot plane fails its integrity check.

    The write-ahead log treats a corrupt *tail* record as a torn write and
    truncates it silently during recovery; corruption before the tail — or
    a corrupt snapshot manifest/plane — is unrecoverable data damage and
    surfaces as this error.
    """


class InjectedFaultError(StorageError):
    """A fault deliberately injected by :mod:`repro.faults`.

    Subclasses :class:`StorageError` so injection sites inside the storage
    stack surface exactly like a real EIO would; the distinct type lets
    chaos tests tell an injected failure from an accidental one.
    """


class ConnectionLostError(ReproError, ConnectionError):
    """The transport to the server died mid-conversation.

    Raised by :class:`~repro.serve.TCPServeClient` when the connection
    drops, the server closes mid-reply, or a reply frame is truncated or
    undecodable — every "the wire went bad" failure mode, so callers (and
    the retrying client) need exactly one except clause for them.
    """


class DeadlineExceededError(ReproError, TimeoutError):
    """A request's per-call deadline expired before a reply arrived.

    Raised by :class:`~repro.serve.ResilientClient` when the configured
    deadline runs out — including when time remains but not enough to sit
    out the next backoff delay.
    """


class RetriesExhaustedError(ReproError):
    """A retryable request failed on every allowed attempt.

    The last underlying failure is attached as ``__cause__``; seeded reads
    and request-id-tagged updates are safe to retry again at a higher
    level because both are idempotent against the server.
    """
