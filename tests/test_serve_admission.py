"""Admission against the op table: every reply typed, every reply encodable.

The server answers each request from its row in ``repro.serve.ops.OPS``.
A sweep sets one field of one request to one bad value — over every op
kind (plus ops that are not strings), every request field and a fixed
list of bad values — and asserts the reply still encodes to the wire and
is never ``internal``.  Two edges the sweep once found get their own
checks over TCP: a non-finite ``id``, and an ``estimate`` whose draw
budget is too small to bound an interval.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro import DynamicIRS
from repro.serve import ReproServer, ServeClient, TCPServeClient
from repro.serve.ops import OPS
from repro.serve.protocol import ServeError, encode


def run(coro):
    return asyncio.run(coro)


DATA = [float(i % 101) for i in range(500)]

# A valid request body per op: the sweep spoils one field at a time.
VALID = {
    "sample": {"lo": 0.0, "hi": 100.0, "t": 4, "seed": 7},
    "sample_wr": {"lo": 0.0, "hi": 100.0, "t": 4, "seed": 7},
    "stratified": {"strata": [[0.0, 50.0], [50.5, 100.0]], "t": 4, "seed": 7},
    "estimate": {
        "lo": 0.0, "hi": 100.0, "target": 1e9, "confidence": 0.9,
        "batch": 8, "max_draws": 64, "seed": 7,
    },
    "count": {"lo": 0.0, "hi": 100.0},
    "insert": {"value": 5.5},
    "delete": {"value": 5.5},
    "insert_bulk": {"values": [1.5, 2.5]},
    "delete_bulk": {"values": [1.5, 2.5]},
    "stats": {},
    "ping": {},
    "trace": {"limit": 2},
}
NON_STRING_OPS = [["x"], {"k": 1}, 7]
FIELDS = [
    "op", "id", "structure", "rid", "seed", "lo", "hi", "t", "strata", "target",
    "confidence", "batch", "max_draws", "value", "weight", "values", "weights",
    "limit",
]
BAD_VALUES = [
    None, True, False, -1, 0, 1, 1.5, 2**70, float("inf"), float("-inf"),
    float("nan"), "x", "", [], [1, 2], [[2, 1]], {"a": 1},
]


def test_sweep_covers_every_op():
    assert sorted(VALID) == sorted(OPS)


def test_admission_sweep_replies_encode_and_stay_typed():
    async def sweep():
        failures = []
        serial = 0
        async with ReproServer(DynamicIRS(DATA, seed=1), seed=3) as server:
            for op in [*OPS, *NON_STRING_OPS]:
                for field in FIELDS:
                    requests = []
                    for bad in BAD_VALUES:
                        serial += 1
                        body = VALID.get(op, {}) if isinstance(op, str) else {}
                        requests.append({"op": op, "id": serial, **body, field: bad})
                    replies = await asyncio.gather(*map(server.submit, requests))
                    for request, reply in zip(requests, replies):
                        try:
                            encode(reply)
                        except (TypeError, ValueError) as exc:
                            failures.append((request, f"unencodable: {exc}"))
                            continue
                        if not reply["ok"] and reply["error"]["type"] == "internal":
                            failures.append((request, reply["error"]["message"]))
        return serial, failures

    sent, failures = run(sweep())
    assert sent == (len(OPS) + len(NON_STRING_OPS)) * len(FIELDS) * len(BAD_VALUES)
    assert not failures, failures[:5]


def test_unhashable_and_non_string_ops_are_unknown_ops():
    async def main():
        async with ReproServer(DynamicIRS(DATA, seed=1), seed=3) as server:
            return [
                await server.submit({"op": op, "id": 1}) for op in NON_STRING_OPS
            ]

    for reply in run(main()):
        assert reply["error"]["type"] == "unknown_op"


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_tcp_non_finite_id_gets_a_reply(literal):
    async def main():
        server = ReproServer(DynamicIRS(DATA, seed=1), seed=3)
        await server.start_tcp(port=0)
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        try:
            writer.write(f'{{"op":"ping","id":{literal}}}\n'.encode())
            writer.write(b'{"op":"ping","id":2}\n')
            await writer.drain()
            return [
                json.loads(await asyncio.wait_for(reader.readline(), 2.0))
                for _ in range(2)
            ]
        finally:
            writer.close()
            await server.aclose()

    refused, pong = run(main())
    assert refused["id"] is None
    assert refused["error"]["type"] == "bad_request"
    assert pong == {"id": 2, "ok": True, "result": "pong"}


def test_one_draw_estimate_has_null_half_width_on_both_clients():
    async def main():
        async with ReproServer(DynamicIRS(DATA, seed=1), seed=3) as server:
            await server.start_tcp(port=0)
            tcp = await TCPServeClient.connect("127.0.0.1", server.port)
            try:
                replies = []
                for client in (ServeClient(server), tcp):
                    replies.append(
                        await client.estimate(
                            0.0, 100.0, target=1.0, max_draws=1, seed=5
                        )
                    )
                return replies
            finally:
                await tcp.aclose()

    local, wire = run(main())
    assert local == wire
    assert local["half_width"] is None
    assert local["converged"] is False
    assert local["draws"] == 1


# -- a JSON integer too large for a float ----------------------------------------

HUGE = 10**400  # json.loads reads it exactly; float() overflows

HUGE_FIELDS = {
    "value": {"op": "insert", "value": HUGE},
    "weight": {"op": "insert", "value": 1.0, "weight": HUGE},
    "values": {"op": "insert_bulk", "values": [1.0, HUGE]},
    "weights": {"op": "insert_bulk", "values": [1.0, 2.0], "weights": [1.0, HUGE]},
    "lo": {"op": "sample", "lo": HUGE, "hi": 1.0, "t": 2},
    "hi": {"op": "count", "lo": 0.0, "hi": -HUGE},
    "target": {"op": "estimate", "lo": 0.0, "hi": 9.0, "target": HUGE},
    "confidence": {
        "op": "estimate", "lo": 0.0, "hi": 9.0, "target": 1.0, "confidence": HUGE
    },
    "strata": {"op": "stratified", "strata": [[0.0, HUGE]], "t": 2},
}


@pytest.mark.parametrize("field", sorted(HUGE_FIELDS))
def test_integer_beyond_float_range_is_a_bad_request(field):
    async def main():
        async with ReproServer(DynamicIRS(DATA, seed=1), seed=3) as server:
            return await server.submit(json.dumps({"id": 8, **HUGE_FIELDS[field]}))

    assert run(main()) == {
        "id": 8,
        "ok": False,
        "error": {
            "type": "bad_request",
            "message": f"field {field!r} is too large for a float",
        },
    }


def test_tcp_connection_survives_an_integer_beyond_float_range():
    async def main():
        server = ReproServer(DynamicIRS(DATA, seed=1), seed=3)
        await server.start_tcp(port=0)
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        try:
            writer.write(b'{"op":"ping","id":1}\n')
            writer.write(b'{"op":"insert","id":2,"value":1%s}\n' % (b"0" * 400))
            writer.write(b'{"op":"ping","id":3}\n')
            await writer.drain()
            replies = [
                json.loads(await asyncio.wait_for(reader.readline(), 2.0))
                for _ in range(3)
            ]
            # The connection is still open for more.
            writer.write(b'{"op":"count","id":4,"lo":0,"hi":100}\n')
            await writer.drain()
            replies.append(json.loads(await asyncio.wait_for(reader.readline(), 2.0)))
            return replies
        finally:
            writer.close()
            await server.aclose()

    ping, refused, pong, count = run(main())
    assert ping == {"id": 1, "ok": True, "result": "pong"}
    assert refused["id"] == 2 and refused["error"]["type"] == "bad_request"
    assert pong == {"id": 3, "ok": True, "result": "pong"}
    assert count == {"id": 4, "ok": True, "result": len(DATA)}


# -- bulk values from the in-process client --------------------------------------


def test_in_process_client_sends_float64_arrays_as_plain_floats(monkeypatch):
    # A float64 array arrives as Python floats, so admission converts it in
    # its one-pass fast path; its values are stored with the same bits.
    from repro import WeightedDynamicIRS
    from repro.serve import protocol

    seen = []
    require_numbers = protocol.require_numbers

    def spy(items, field):
        seen.append((field, {type(item) for item in items}))
        return require_numbers(items, field)

    monkeypatch.setattr(protocol, "require_numbers", spy)
    values = np.random.default_rng(1).random(64) * 100
    weights = np.random.default_rng(2).uniform(0.5, 2.0, 64)

    async def main():
        structures = {
            "default": DynamicIRS(DATA, seed=1),
            "w": WeightedDynamicIRS(DATA, [1.0] * len(DATA), seed=1),
        }
        async with ReproServer(structures, seed=3) as server:
            client = ServeClient(server)
            added = await client.insert_bulk(values)
            stored = structures["default"].export_sorted()
            await client.insert_bulk(values, weights=weights, structure="w")
            pairs = structures["w"].items()
            removed = await client.delete_bulk(values)
            return added, stored, pairs, removed

    added, stored, pairs, removed = run(main())
    assert added == removed == 64
    assert stored.tobytes() == np.sort(np.concatenate((DATA, values))).tobytes()
    assert sorted(pair for pair in pairs if pair[0] in set(values.tolist())) == sorted(
        zip(values.tolist(), weights.tolist())
    )
    assert seen == [
        ("values", {float}),
        ("values", {float}),
        ("weights", {float}),
        ("values", {float}),
    ]


@pytest.mark.parametrize("dtype", [np.float32, np.int64])
@pytest.mark.parametrize("op", ["insert_bulk", "delete_bulk"])
def test_in_process_client_bulk_arrays_admission_refuses_stay_refused(dtype, op):
    values = np.arange(1, 9).astype(dtype)

    async def main():
        async with ReproServer(DynamicIRS(DATA, seed=1), seed=3) as server:
            with pytest.raises(ServeError) as refused:
                await getattr(ServeClient(server), op)(values)
            assert len(server.structures["default"]) == len(DATA)
            return refused.value

    error = run(main())
    assert error.code == "bad_request"
    assert error.detail == "field 'values' must be a number"
