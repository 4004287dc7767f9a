"""The serving layer end to end: protocol, equivalence, reproducibility."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro import (
    DynamicIRS,
    ShardedIRS,
    StaticIRS,
    WeightedDynamicIRS,
    WeightedStaticIRS,
)
from repro.serve import ReproServer, ServeClient, ServeError, TCPServeClient
from repro.serve.protocol import decode, encode, error_response, ok_response
from repro.stats import uniformity_test
from repro.workloads import duplicate_heavy, gaussian_mixture


def run(coro):
    return asyncio.run(coro)


DATA = sorted(gaussian_mixture(4000, clusters=4, seed=11))
WEIGHTS = [1.0 + (i % 7) for i in range(len(DATA))]


def mid_range():
    return DATA[len(DATA) // 10], DATA[(9 * len(DATA)) // 10]


# -- protocol ---------------------------------------------------------------


def test_protocol_roundtrip():
    message = {"id": 3, "op": "sample", "lo": 0.25, "hi": 1.5, "t": 4}
    assert decode(encode(message)) == message


def test_protocol_rejects_bad_json():
    from repro.serve.protocol import RequestError

    with pytest.raises(RequestError) as info:
        decode(b"{nope")
    assert info.value.code == "bad_request"
    with pytest.raises(RequestError):
        decode(b"[1, 2, 3]")


def test_response_envelopes():
    assert ok_response(7, [1.0]) == {"id": 7, "ok": True, "result": [1.0]}
    from repro.errors import EmptyRangeError

    body = error_response(None, EmptyRangeError("nothing here"))
    assert body["ok"] is False
    assert body["error"]["type"] == "empty_range"
    assert "nothing" in body["error"]["message"]


# -- basic ops, in process ---------------------------------------------------


def test_all_ops_in_process():
    async def main():
        structures = {
            "default": DynamicIRS(DATA, seed=1),
            "weighted": WeightedStaticIRS(DATA, [1.0] * len(DATA), seed=2),
        }
        async with ReproServer(structures, seed=5) as server:
            client = ServeClient(server)
            lo, hi = mid_range()
            assert await client.ping() == "pong"
            baseline = await client.count(lo, hi)
            assert baseline == sum(1 for v in DATA if lo <= v <= hi)
            samples = await client.sample(lo, hi, 32)
            assert len(samples) == 32
            assert all(lo <= s <= hi for s in samples)
            assert await client.insert(lo) == 1
            assert await client.insert_bulk([lo, lo, lo]) == 3
            assert await client.count(lo, hi) == baseline + 4
            assert await client.delete(lo) == 1
            assert await client.delete_bulk([lo, lo, lo]) == 3
            assert await client.count(lo, hi) == baseline
            weighted = await client.sample(lo, hi, 4, structure="weighted")
            assert len(weighted) == 4
            stats = await client.server_stats()
            assert stats["admitted"] == 9  # ping/stats answer at admission
            assert stats["replies_ok"] == 9

    run(main())


def test_empty_bulk_resolves_immediately():
    async def main():
        async with ReproServer(DynamicIRS(DATA, seed=1)) as server:
            client = ServeClient(server)
            assert await client.insert_bulk([]) == 0
            assert await client.delete_bulk([]) == 0

    run(main())


def test_typed_errors_in_process():
    async def main():
        async with ReproServer(StaticIRS(DATA, seed=1), max_t=100) as server:
            client = ServeClient(server)
            codes = {}
            for payload, key in [
                ({"op": "warp", "id": 1}, "unknown_op"),
                ({"op": "count", "lo": 0.0, "hi": 1.0, "structure": "x"}, "unknown_structure"),
                ({"op": "sample", "lo": 2.0, "hi": 1.0, "t": 1}, "invalid_query"),
                ({"op": "sample", "lo": 0.0, "hi": 1.0, "t": 101}, "too_large"),
                ({"op": "sample", "lo": "a", "hi": 1.0, "t": 1}, "bad_request"),
                ({"op": "sample", "lo": 0.0, "hi": 1.0, "t": 1, "seed": "x"}, "bad_request"),
                ({"op": "insert", "value": 1.0}, "invalid_query"),  # static: no updates
                ({"op": "sample", "lo": 1e9, "hi": 2e9, "t": 1}, "empty_range"),
                ({"op": "delete", "value": 12.0, "structure": "default"}, "invalid_query"),
            ]:
                response = await client.request(payload)
                assert response["ok"] is False, payload
                codes[key] = response["error"]["type"]
            for key, got in codes.items():
                assert got == key, f"expected {key}, got {got}"

    run(main())


def test_delete_missing_is_key_not_found():
    async def main():
        async with ReproServer(DynamicIRS(DATA, seed=1)) as server:
            client = ServeClient(server)
            with pytest.raises(ServeError) as info:
                await client.delete(1e12)
            assert info.value.code == "key_not_found"

    run(main())


# -- equivalence and reproducibility ----------------------------------------


def test_served_samples_are_uniform():
    """The statistical acceptance gate holds through the server path."""

    async def main():
        data = duplicate_heavy(400, distinct=25, seed=33)
        async with ReproServer(DynamicIRS(data, seed=42), seed=9) as server:
            client = ServeClient(server)
            ordered = sorted(data)
            lo, hi = ordered[len(ordered) // 10], ordered[(9 * len(ordered)) // 10]
            chunks = await asyncio.gather(
                *(client.sample(lo, hi, 1500) for _ in range(8))
            )
            samples = [value for chunk in chunks for value in chunk]
            population = [v for v in data if lo <= v <= hi]
            _stat, p = uniformity_test(samples, population)
            assert p > 1e-4, f"server-path sampling biased: p={p:.2e}"

    run(main())


def test_served_weighted_samples_are_proportional():
    """The weighted chi-square gate holds through the server path."""
    from collections import Counter

    from repro.stats import chi_square_gof

    async def main():
        values = [float(v) for v in range(40)]
        weights = [1.0 + (v % 5) * 3.0 for v in range(40)]
        structure = WeightedDynamicIRS(values, weights, seed=21)
        async with ReproServer(structure, seed=9) as server:
            client = ServeClient(server)
            chunks = await asyncio.gather(
                *(client.sample(5.0, 34.0, 2000) for _ in range(6))
            )
        samples = Counter(v for chunk in chunks for v in chunk)
        population = [v for v in values if 5.0 <= v <= 34.0]
        counts = [samples.get(v, 0) for v in population]
        expected = [weights[int(v)] for v in population]
        _stat, p = chi_square_gof(counts, expected)
        assert p > 1e-4, f"server-path weighted sampling biased: p={p:.2e}"

    run(main())


@pytest.mark.parametrize(
    "factory",
    [
        lambda: StaticIRS(DATA, seed=1),
        lambda: DynamicIRS(DATA, seed=1),
        lambda: WeightedDynamicIRS(DATA, WEIGHTS, seed=1),
        lambda: ShardedIRS(DATA, num_shards=3, seed=1),
        lambda: ShardedIRS(
            DATA, num_shards=3, weights=WEIGHTS, seed=1,
            shard_kind="weighted-dynamic",
        ),
    ],
    ids=["static", "dynamic", "weighted-dynamic", "sharded", "sharded-weighted"],
)
def test_replies_byte_identical_across_coalescing_configs(factory):
    """A fixed root seed fixes every reply, however batches happen to form."""
    lo, hi = mid_range()
    requests = []
    for i in range(120):
        slot = i % 5
        if slot < 3:
            requests.append({"op": "sample", "lo": lo, "hi": hi, "t": 1 + i % 9})
        elif slot == 3:
            requests.append({"op": "count", "lo": lo, "hi": hi})
        else:
            requests.append({"op": "insert", "value": lo + 0.001 * i})

    async def transcript(**coalescing):
        async with ReproServer(factory(), seed=77, **coalescing) as server:
            responses = await ServeClient(server).pipeline(requests)
            return json.dumps(responses, sort_keys=True)

    async def main():
        naive = await transcript(window=0.0, max_batch=1)
        wide = await transcript(window=0.004, max_batch=256)
        ragged = await transcript(window=0.001, max_batch=7)
        default = await transcript()
        assert naive == wide == ragged == default

    run(main())


def test_client_seed_pins_the_reply():
    async def main():
        async with ReproServer(StaticIRS(DATA, seed=1), seed=5) as server:
            client = ServeClient(server)
            lo, hi = mid_range()
            one = await client.sample(lo, hi, 16, seed=424242)
            two = await client.sample(lo, hi, 16, seed=424242)
            other = await client.sample(lo, hi, 16, seed=424243)
            assert one == two
            assert one != other

    run(main())


def test_serves_sharded_structure():
    async def main():
        sharded = ShardedIRS(DATA, num_shards=4, seed=3)
        async with ReproServer(sharded, seed=5) as server:
            client = ServeClient(server)
            lo, hi = mid_range()
            samples = await client.sample(lo, hi, 64)
            assert len(samples) == 64
            assert all(lo <= s <= hi for s in samples)
            assert await client.count(lo, hi) == sharded.count(lo, hi)

    run(main())


# -- backpressure ------------------------------------------------------------


def test_admission_queue_backpressure():
    async def main():
        async with ReproServer(
            StaticIRS(DATA, seed=1), window=0.05, max_pending=4, max_batch=4
        ) as server:
            client = ServeClient(server)
            lo, hi = mid_range()
            futures = [
                server.submit({"op": "sample", "lo": lo, "hi": hi, "t": 1, "id": i})
                for i in range(40)
            ]
            responses = await asyncio.gather(*futures)
            overloaded = [r for r in responses if not r["ok"]]
            served = [r for r in responses if r["ok"]]
            assert served, "some requests must be admitted"
            assert overloaded, "queue bound must refuse the overflow"
            assert all(r["error"]["type"] == "overloaded" for r in overloaded)
            assert client is not None

    run(main())


def test_submit_after_close_is_shutting_down():
    async def main():
        server = ReproServer(StaticIRS(DATA, seed=1))
        await server.start()
        await server.aclose()
        response = await server.submit({"op": "ping", "id": 1})
        assert response["ok"] is False
        assert response["error"]["type"] == "shutting_down"

    run(main())


# -- TCP ---------------------------------------------------------------------


def test_tcp_roundtrip_and_pipelining():
    async def main():
        server = ReproServer(DynamicIRS(DATA, seed=1), seed=5, window=0.001)
        await server.start_tcp(port=0)
        lo, hi = mid_range()
        client = await TCPServeClient.connect("127.0.0.1", server.port)
        assert await client.ping() == "pong"
        samples = await client.sample(lo, hi, 8)
        assert len(samples) == 8
        responses = await client.pipeline(
            [{"op": "count", "lo": lo, "hi": hi}] * 5
            + [{"op": "sample", "lo": lo, "hi": hi, "t": 3}] * 5
        )
        assert all(r["ok"] for r in responses)
        stats = await client.server_stats()
        assert stats["batches"] >= 1
        await client.aclose()
        await server.aclose()

    run(main())


def test_tcp_many_clients_agree_with_direct_calls():
    async def main():
        server = ReproServer(StaticIRS(DATA, seed=1), seed=5, window=0.002)
        await server.start_tcp(port=0)
        lo, hi = mid_range()
        clients = await asyncio.gather(
            *(TCPServeClient.connect("127.0.0.1", server.port) for _ in range(8))
        )
        counts = await asyncio.gather(*(c.count(lo, hi) for c in clients))
        expected = sum(1 for v in DATA if lo <= v <= hi)
        assert counts == [expected] * len(clients)
        for client in clients:
            await client.aclose()
        await server.aclose()

    run(main())


def test_tcp_bad_json_gets_typed_error_reply():
    async def main():
        server = ReproServer(StaticIRS(DATA, seed=1), window=0.0)
        await server.start_tcp(port=0)
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        writer.write(b"this is not json\n")
        await writer.drain()
        reply = json.loads(await reader.readline())
        assert reply["ok"] is False
        assert reply["error"]["type"] == "bad_request"
        writer.close()
        await server.aclose()

    run(main())


# -- CLI ---------------------------------------------------------------------


def test_cli_serve_offline_mode(tmp_path, capsys):
    from repro.cli import main

    data_file = tmp_path / "points.txt"
    data_file.write_text(" ".join(str(v) for v in DATA[:500]))
    lo, hi = DATA[50], DATA[450]
    requests_file = tmp_path / "requests.jsonl"
    requests_file.write_text(
        "\n".join(
            json.dumps(payload)
            for payload in [
                {"op": "count", "lo": lo, "hi": hi, "id": 1},
                {"op": "sample", "lo": lo, "hi": hi, "t": 3, "id": 2},
                {"op": "insert", "value": lo, "id": 3},
                {"op": "sample", "lo": 1e9, "hi": 2e9, "t": 1, "id": 4},
            ]
        )
    )
    code = main(
        [
            "serve",
            "--data", str(data_file),
            "--structure", "dynamic",
            "--seed", "7",
            "--requests", str(requests_file),
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    payloads = [json.loads(line) for line in lines if not line.startswith("#")]
    assert [p["id"] for p in payloads] == [1, 2, 3, 4]
    assert payloads[0]["ok"] and isinstance(payloads[0]["result"], int)
    assert len(payloads[1]["result"]) == 3
    assert payloads[3]["error"]["type"] == "empty_range"
    assert lines[-1].startswith("# requests=4")


def test_cli_serve_offline_reproducible(tmp_path, capsys):
    from repro.cli import main

    data_file = tmp_path / "points.txt"
    data_file.write_text(" ".join(str(v) for v in DATA[:500]))
    requests_file = tmp_path / "requests.jsonl"
    requests_file.write_text(
        json.dumps({"op": "sample", "lo": DATA[50], "hi": DATA[450], "t": 8, "id": 1})
    )
    outputs = []
    for _ in range(2):
        main(
            [
                "serve",
                "--data", str(data_file),
                "--seed", "123",
                "--requests", str(requests_file),
            ]
        )
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
