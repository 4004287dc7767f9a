"""Clients for the serving layer: in-process and TCP, one shared surface.

:class:`ServeClient` talks to a :class:`~repro.serve.ReproServer` living
on the same event loop — no sockets, no serialization — which makes it the
right tool for tests, examples and embedded use.  :class:`TCPServeClient`
speaks the real newline-delimited JSON wire protocol; both expose the same
typed convenience methods (``sample``, ``count``, ``insert``, ...), so
code written against one runs against the other.

Both clients pipeline: :meth:`_ClientAPI.pipeline` submits many requests
before awaiting any reply, which is what lets the server coalesce them
into shared batches.

:class:`ResilientClient` is the production-grade TCP surface: per-request
deadlines, bounded retries with exponential backoff and deterministic
jitter, automatic reconnection, and idempotency keys (``rid``) on update
ops so a retried update is applied exactly once — see
:class:`RetryPolicy` for the knobs and DESIGN.md §10 for the argument.
"""

from __future__ import annotations

import asyncio
import itertools
import os
from dataclasses import dataclass

import numpy as np

from ..errors import ConnectionLostError, DeadlineExceededError, RetriesExhaustedError
from ..rng import derive_seed
from .ops import spec_for
from .protocol import RETRYABLE_CODES, RequestError, ServeError, decode, encode

__all__ = ["ServeClient", "TCPServeClient", "ResilientClient", "RetryPolicy"]


def _body_list(values) -> list:
    """A bulk request's ``values`` (or ``weights``) as a request-body list.

    A 1-D float64 array goes as ``tolist()``: plain floats with the same
    bits, which admission converts in one pass, where ``list(array)``
    would hand it ``np.float64`` scalars to check one by one.  Anything
    else goes as ``list(values)``, so admission refuses exactly what it
    refused before (float32 and integer arrays among them).
    """
    if isinstance(values, np.ndarray) and values.dtype == np.float64 and values.ndim == 1:
        return values.tolist()
    return list(values)


class _ClientAPI:
    """Shared convenience surface over ``request`` (transport-agnostic)."""

    async def request(self, payload: dict) -> dict:
        """Send one raw request dict; return the raw response envelope."""
        raise NotImplementedError

    async def pipeline(self, payloads) -> list[dict]:
        """Submit every request before awaiting; return aligned responses.

        This is the bulk door: the server can only coalesce requests that
        are in flight together, and awaiting each reply before sending the
        next (as :meth:`request` callers do) serializes them.
        """
        return list(await asyncio.gather(*[self.request(p) for p in payloads]))

    def _unwrap(self, response: dict):
        if response.get("ok"):
            return response.get("result")
        error = response.get("error") or {}
        raise ServeError(
            error.get("type", "internal"), error.get("message", "unknown error")
        )

    async def _call(self, payload: dict, **optional):
        """Send ``payload`` plus the ``optional`` fields that are set; unwrap."""
        payload.update((k, v) for k, v in optional.items() if v is not None)
        return self._unwrap(await self.request(payload))

    async def sample(
        self,
        lo: float,
        hi: float,
        t: int,
        *,
        structure: str = "default",
        seed: int | None = None,
    ) -> list[float]:
        """Return ``t`` independent samples from ``P ∩ [lo, hi]``.

        ``seed`` pins the request's randomness; without it the server
        derives one from its root seed and the request serial.
        """
        payload = {"op": "sample", "lo": lo, "hi": hi, "t": t, "structure": structure}
        return await self._call(payload, seed=seed)

    async def count(self, lo: float, hi: float, *, structure: str = "default") -> int:
        """Return ``|P ∩ [lo, hi]|``."""
        payload = {"op": "count", "lo": lo, "hi": hi, "structure": structure}
        return await self._call(payload)

    async def sample_without_replacement(
        self,
        lo: float,
        hi: float,
        t: int,
        *,
        structure: str = "default",
        seed: int | None = None,
    ) -> list[float]:
        """Return ``t`` *distinct* in-range samples (the ``sample_wr`` op)."""
        payload = {
            "op": "sample_wr", "lo": lo, "hi": hi, "t": t, "structure": structure,
        }
        return await self._call(payload, seed=seed)

    async def sample_stratified(
        self,
        strata,
        t: int,
        *,
        structure: str = "default",
        seed: int | None = None,
    ) -> list[list[float]]:
        """Split ``t`` exactly across ``strata``; per-stratum sample blocks."""
        payload = {
            "op": "stratified",
            "strata": [[lo, hi] for lo, hi in strata],
            "t": t,
            "structure": structure,
        }
        return await self._call(payload, seed=seed)

    async def estimate(
        self,
        lo: float,
        hi: float,
        *,
        target: float,
        confidence: float = 0.95,
        batch: int = 256,
        max_draws: int = 65536,
        structure: str = "default",
        seed: int | None = None,
    ) -> dict:
        """Adaptively estimate the in-range mean to a target CI half-width.

        Returns the server's reply dict: ``estimate``, ``half_width``,
        ``confidence``, ``draws``, ``batches``, ``converged``.
        """
        payload = {
            "op": "estimate", "lo": lo, "hi": hi, "target": target,
            "confidence": confidence, "batch": batch, "max_draws": max_draws,
            "structure": structure,
        }
        return await self._call(payload, seed=seed)

    async def insert(
        self,
        value: float,
        *,
        weight: float | None = None,
        structure: str = "default",
    ) -> int:
        """Insert one point (``weight`` only on weighted structures)."""
        payload = {"op": "insert", "value": value, "structure": structure}
        return await self._call(payload, weight=weight)

    async def delete(self, value: float, *, structure: str = "default") -> int:
        """Delete one occurrence of ``value``."""
        payload = {"op": "delete", "value": value, "structure": structure}
        return await self._call(payload)

    async def insert_bulk(
        self,
        values,
        *,
        weights=None,
        structure: str = "default",
    ) -> int:
        """Insert many points in one request; returns how many."""
        payload = {
            "op": "insert_bulk", "values": _body_list(values), "structure": structure
        }
        if weights is not None:
            payload["weights"] = _body_list(weights)
        return await self._call(payload)

    async def delete_bulk(self, values, *, structure: str = "default") -> int:
        """Delete one occurrence per value in one request; returns how many."""
        payload = {
            "op": "delete_bulk", "values": _body_list(values), "structure": structure
        }
        return await self._call(payload)

    async def server_stats(self) -> dict:
        """Return the server's metrics snapshot (the ``stats`` op)."""
        return await self._call({"op": "stats"})

    async def ping(self) -> str:
        """Round-trip a ``ping`` (returns ``"pong"``)."""
        return await self._call({"op": "ping"})


class ServeClient(_ClientAPI):
    """In-process client bound to a started :class:`~repro.serve.ReproServer`.

    Requests go straight into the server's admission pipeline on the
    current event loop, so everything about serving — coalescing,
    backpressure, typed errors, per-request seeds — behaves exactly as it
    does over TCP, minus the wire.
    """

    def __init__(self, server) -> None:
        self._server = server
        self._ids = itertools.count(1)

    async def request(self, payload: dict) -> dict:
        """Submit one request dict and await its response envelope."""
        if "id" not in payload:
            payload = {**payload, "id": next(self._ids)}
        return await self._server.submit(payload)


class TCPServeClient(_ClientAPI):
    """TCP client speaking the newline-delimited JSON protocol.

    Use :meth:`connect`; requests may be pipelined freely — a background
    reader task matches responses to callers by ``id``.

    Every way the wire can go bad — the server closing mid-reply, a reset,
    a truncated or undecodable frame — surfaces as one typed
    :class:`~repro.errors.ConnectionLostError` on the affected requests,
    never a raw ``json``/``asyncio`` exception.  The client does not retry
    by itself; that is :class:`ResilientClient`'s job.
    """

    def __init__(self, reader, writer) -> None:
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count(1)
        self._pending: dict[object, asyncio.Future] = {}
        self._lost_reason: str | None = None
        self._reader_task = asyncio.create_task(self._read_loop())

    @classmethod
    async def connect(
        cls, host: str = "127.0.0.1", port: int = 0, *, limit: int = 1 << 20
    ) -> "TCPServeClient":
        """Open a connection and return a ready client."""
        reader, writer = await asyncio.open_connection(host, port, limit=limit)
        return cls(reader, writer)

    @property
    def is_closed(self) -> bool:
        """Whether the connection is no longer usable for new requests."""
        return self._reader_task.done() or self._writer.is_closing()

    async def request(self, payload: dict) -> dict:
        """Send one request over the wire and await its matched response.

        Raises :class:`~repro.errors.ConnectionLostError` when the
        connection is (or goes) dead before the reply arrives.
        """
        if self.is_closed:
            raise ConnectionLostError(self._lost_reason or "connection is closed")
        if "id" not in payload:
            payload = {**payload, "id": next(self._ids)}
        request_id = payload["id"]
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            self._writer.write(encode(payload))
            await self._writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError) as exc:
            self._pending.pop(request_id, None)
            raise ConnectionLostError(f"send failed: {exc}") from exc
        return await future

    async def _read_loop(self) -> None:
        reason = "connection closed by server"
        try:
            while True:
                try:
                    line = await self._reader.readline()
                except (ConnectionResetError, OSError, ValueError) as exc:
                    # ValueError: a reply frame longer than the stream
                    # limit; there is no resyncing a newline protocol
                    # after that, so the connection ends.
                    reason = f"connection lost: {exc}"
                    break
                if not line:
                    break
                try:
                    response = decode(line)
                except RequestError as exc:
                    # A malformed frame (truncated mid-reply, garbage):
                    # request/reply matching is unrecoverable from here.
                    reason = f"malformed reply frame: {exc}"
                    break
                future = self._pending.pop(response.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(response)
        except asyncio.CancelledError:
            reason = "client closed"
        finally:
            self._lost_reason = reason
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(ConnectionLostError(reason))
            self._pending.clear()

    async def aclose(self) -> None:
        """Close the connection and fail any unanswered requests."""
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, OSError):  # pragma: no cover
            pass

    async def __aenter__(self) -> "TCPServeClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.aclose()


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/deadline/backoff knobs for :class:`ResilientClient`.

    Attributes
    ----------
    max_attempts:
        Total tries per request (first attempt included).
    deadline:
        Per-request wall-clock budget in seconds (``None`` = unbounded).
        Connecting, sending, waiting and backing off all draw on it;
        expiry raises :class:`~repro.errors.DeadlineExceededError`.
    attempt_timeout:
        Cap on one attempt's connect-plus-reply wait (``None`` = only the
        deadline caps it).  A hung server is indistinguishable from a slow
        one without this.
    base_delay / multiplier / max_delay:
        Exponential backoff: attempt ``k`` (1-based) sleeps
        ``min(max_delay, base_delay * multiplier**(k-1))`` before retrying.
    jitter:
        Fraction of each backoff delay randomized away (``0.5`` means the
        sleep lands in ``[0.5, 1.0] * delay``) — deterministically, from
        the client's seed, so chaos runs replay exactly.
    """

    max_attempts: int = 5
    deadline: float | None = None
    attempt_timeout: float | None = None
    base_delay: float = 0.02
    multiplier: float = 2.0
    max_delay: float = 1.0
    jitter: float = 0.5


class ResilientClient(_ClientAPI):
    """A TCP client that retries, reconnects, and never double-applies.

    The convenience surface (``sample``, ``insert``, ...) is the shared
    one; underneath, every request runs a bounded retry loop:

    * transport failures (:class:`~repro.errors.ConnectionLostError`,
      timeouts) drop the connection, reconnect, and retry;
    * retryable server refusals (``overloaded``, ``unavailable``,
      ``shutting_down``) retry after the backoff — honoring the server's
      ``retry_after`` hint when the reply carries one;
    * anything else (a real typed error, a success) returns immediately.

    Reads are safe to repeat by construction — seeded replies are
    byte-identical, and unseeded samples are i.i.d. draws either way.
    Updates get an idempotency key (``rid``) derived from the client's
    tag and a counter; the server's dedup window turns a retried update
    whose ack was lost into a replay of the recorded outcome, so every
    acked update is applied exactly once.

    ``seed`` pins the rid tag *and* the backoff jitter, making a chaos
    run fully deterministic; concurrent clients must use distinct seeds
    (or none — the tag then comes from ``os.urandom``).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        policy: RetryPolicy | None = None,
        seed: int | None = None,
        limit: int = 1 << 20,
    ) -> None:
        self._host = host
        self._port = port
        self._limit = limit
        self._policy = policy or RetryPolicy()
        if self._policy.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        entropy = (
            int.from_bytes(os.urandom(8), "little") if seed is None else int(seed)
        )
        self._entropy = derive_seed(entropy, 0xC11E27)
        self._tag = f"{self._entropy & 0xFFFFFFFFFFFF:012x}"
        self._rids = itertools.count(1)
        self._jitter_tick = 0
        self._client: TCPServeClient | None = None
        self._ever_connected = False
        self.retries = 0  #: attempts beyond the first, across all requests
        self.reconnects = 0  #: connections (re)established after the first

    # -- connection management ----------------------------------------------

    async def _connect(self) -> TCPServeClient:
        if self._client is None or self._client.is_closed:
            self._client = await TCPServeClient.connect(
                self._host, self._port, limit=self._limit
            )
            if self._ever_connected:
                self.reconnects += 1
            self._ever_connected = True
        return self._client

    async def _drop(self) -> None:
        client, self._client = self._client, None
        if client is not None:
            await client.aclose()

    async def aclose(self) -> None:
        """Close the current connection (a later request reconnects)."""
        await self._drop()

    async def __aenter__(self) -> "ResilientClient":
        """Context-manager entry (connection opens lazily)."""
        return self

    async def __aexit__(self, *exc) -> None:
        """Context-manager exit: close the connection."""
        await self.aclose()

    # -- the retry loop -------------------------------------------------------

    def _next_jitter(self) -> float:
        self._jitter_tick += 1
        return derive_seed(self._entropy, 0xB0FF, self._jitter_tick) / float(1 << 64)

    def _backoff(self, attempt: int, retry_after: float | None) -> float:
        policy = self._policy
        delay = min(
            policy.max_delay, policy.base_delay * policy.multiplier ** (attempt - 1)
        )
        delay *= 1.0 - policy.jitter * self._next_jitter()
        if retry_after is not None:
            # The server measured its own drain rate; retrying sooner than
            # its hint only feeds the overload.
            delay = max(delay, float(retry_after))
        return delay

    async def request(self, payload: dict) -> dict:
        """Send one request with retries/deadline; return the final reply.

        Raises :class:`~repro.errors.DeadlineExceededError` when the
        policy deadline expires and
        :class:`~repro.errors.RetriesExhaustedError` (chaining the last
        failure) when every attempt failed retryably.
        """
        policy = self._policy
        loop = asyncio.get_running_loop()
        deadline = None if policy.deadline is None else loop.time() + policy.deadline
        spec = spec_for(payload.get("op"))
        if spec is not None and spec.writes and "rid" not in payload:
            payload = {**payload, "rid": f"{self._tag}-{next(self._rids)}"}
        attempt = 0
        while True:
            attempt += 1
            if attempt > 1:
                self.retries += 1
            failure: Exception
            retry_after = None
            try:
                response = await self._attempt(payload, deadline, loop)
            except ConnectionLostError as exc:
                await self._drop()
                failure = exc
            except (TimeoutError, asyncio.TimeoutError) as exc:
                # The attempt timed out with the connection formally alive;
                # drop it anyway — a stale reply to a superseded attempt
                # must not be mistaken for the retry's.
                await self._drop()
                if deadline is not None and loop.time() >= deadline:
                    raise DeadlineExceededError(
                        f"deadline of {policy.deadline}s exceeded "
                        f"after {attempt} attempt(s)"
                    ) from exc
                failure = exc
            else:
                error = None if response.get("ok") else (response.get("error") or {})
                if error is None or error.get("type") not in RETRYABLE_CODES:
                    return response
                retry_after = error.get("retry_after")
                failure = ServeError(
                    error.get("type", "internal"),
                    error.get("message", "unknown error"),
                )
            if attempt >= policy.max_attempts:
                raise RetriesExhaustedError(
                    f"request failed after {attempt} attempt(s): {failure}"
                ) from failure
            delay = self._backoff(attempt, retry_after)
            if deadline is not None and loop.time() + delay > deadline:
                raise DeadlineExceededError(
                    f"deadline of {policy.deadline}s exceeded after "
                    f"{attempt} attempt(s); not retrying"
                ) from failure
            await asyncio.sleep(delay)

    async def _attempt(self, payload: dict, deadline, loop) -> dict:
        """Run one connect-plus-request attempt under the time budget."""
        timeout = self._policy.attempt_timeout
        if deadline is not None:
            remaining = deadline - loop.time()
            if remaining <= 0.0:
                raise DeadlineExceededError(
                    f"deadline of {self._policy.deadline}s exceeded"
                )
            timeout = remaining if timeout is None else min(timeout, remaining)

        async def attempt() -> dict:
            client = await self._connect()
            return await client.request(payload)

        if timeout is None:
            return await attempt()
        return await asyncio.wait_for(attempt(), timeout)
