"""Fingerprint every sampler kind × sampling path under a fixed root seed.

Run as a script (``python tests/seedaudit.py``) this prints one JSON dict
mapping ``"<kind>/<path>"`` to a SHA-256 fingerprint of the drawn values.
``test_seed_determinism.py`` runs it twice in *fresh processes* and asserts
every entry is byte-identical — the audit that no sampling path smuggles in
process-local state (hash randomization, id()-keyed dicts, global RNGs).
"""

from __future__ import annotations

import hashlib
import json

ROOT_SEED = 123_456_789
DATA = [float((i * 53) % 401) for i in range(400)]
WEIGHTS = [1.0 + (i % 5) for i in range(400)]
STRATA = [(0.0, 99.0), (100.0, 299.0), (300.0, 400.0)]
LO, HI, T = 20.0, 380.0, 64
# Served after the client-seeded requests of each kind, in this order.
UNSEEDED_REQUESTS = [
    {"op": "sample", "lo": LO, "hi": HI, "t": T},
    {"op": "sample", "lo": HI, "hi": LO, "t": T},  # refused: inverted interval
    {"op": "stratified", "strata": [list(s) for s in STRATA], "t": T},
    {"op": "sample", "lo": LO, "hi": HI, "t": 1 << 21},  # refused: t > max_t
    {"op": "estimate", "lo": LO, "hi": HI, "target": 30.0, "batch": 64},
    {"op": "sample_wr", "lo": LO, "hi": HI, "t": T},
    {"op": "count", "lo": LO, "hi": HI},
    {"op": "insert", "value": 50.5},
    {"op": "insert_bulk", "values": [60.5, 70.5, 80.5]},
    {"op": "delete", "value": 50.5},
    {"op": "delete_bulk", "values": [60.5, 70.5]},
    {"op": "count", "lo": LO, "hi": HI},
    {"op": "sample", "lo": LO, "hi": HI, "t": T},
]


def _fingerprint(values) -> str:
    payload = json.dumps(values, separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest()


def _floats(block) -> list[float]:
    return [float(x) for x in block]


def build_factories():
    from repro import (
        DynamicIRS,
        ExternalIRS,
        ShardedIRS,
        StaticIRS,
        WeightedDynamicIRS,
        WeightedStaticIRS,
        WindowedIRS,
    )

    return {
        "static": lambda: StaticIRS(DATA, seed=ROOT_SEED),
        "dynamic": lambda: DynamicIRS(DATA, seed=ROOT_SEED),
        "external": lambda: ExternalIRS(DATA, block_size=32, seed=ROOT_SEED),
        "weighted": lambda: WeightedStaticIRS(DATA, WEIGHTS, seed=ROOT_SEED),
        "weighted-dynamic": lambda: WeightedDynamicIRS(
            DATA, WEIGHTS, seed=ROOT_SEED
        ),
        "sharded": lambda: ShardedIRS(DATA, num_shards=4, seed=ROOT_SEED),
        "windowed": lambda: WindowedIRS(DATA, window=300, seed=ROOT_SEED),
        "windowed-decay": lambda: WindowedIRS(
            DATA, window=300, seed=ROOT_SEED, decay=0.99
        ),
    }


def direct_fingerprints() -> dict[str, str]:
    from repro import sample_stratified, sample_without_replacement_bulk
    from repro.rng import derive_seed

    out: dict[str, str] = {}
    for kind, factory in build_factories().items():
        sampler = factory()
        # Scalar path: the structure's own seeded RNG, fixed call sequence.
        out[f"{kind}/scalar"] = _fingerprint(
            [_floats(sampler.sample(LO, HI, 8)) for _ in range(4)]
        )
        # Seed-addressable bulk path.
        out[f"{kind}/bulk"] = _fingerprint(
            _floats(sampler.sample_bulk(LO, HI, T, seed=derive_seed(ROOT_SEED, 1)))
        )
        # Stratified (every structure has a count-based share probe).
        out[f"{kind}/stratified"] = _fingerprint(
            [
                _floats(block)
                for block in sample_stratified(
                    sampler, STRATA, T, seed=derive_seed(ROOT_SEED, 2)
                )
            ]
        )
        # Without replacement: rank-addressable structures only.
        if kind in ("static", "dynamic", "sharded", "windowed"):
            out[f"{kind}/without-replacement"] = _fingerprint(
                _floats(
                    sample_without_replacement_bulk(
                        sampler, LO, HI, T, seed=derive_seed(ROOT_SEED, 3)
                    )
                )
            )
        close = getattr(sampler, "close", None)
        if close is not None:
            close()
    return out


def served_fingerprints() -> dict[str, str]:
    import asyncio

    from repro.serve import ReproServer, ServeClient

    async def scenario() -> dict[str, str]:
        structures = {kind: factory() for kind, factory in build_factories().items()}
        out: dict[str, str] = {}
        async with ReproServer(structures, seed=ROOT_SEED) as server:
            client = ServeClient(server)
            for kind in structures:
                replies = [
                    await client.sample(LO, HI, T, structure=kind, seed=777),
                    await client.sample_stratified(
                        [list(s) for s in STRATA], T, structure=kind, seed=778
                    ),
                    await client.estimate(
                        LO, HI, target=30.0, batch=64, structure=kind, seed=779
                    ),
                ]
                if kind in ("static", "dynamic", "sharded", "windowed"):
                    replies.append(
                        await client.sample_without_replacement(
                            LO, HI, T, structure=kind, seed=780
                        )
                    )
                # Unseeded reads draw under derive_seed(root entropy,
                # admission serial); the two refusals between them must not
                # use up a serial.  Whole envelopes are kept, so typed errors
                # (updates on static kinds, sample_wr on weighted ones) and
                # update results are pinned too.
                for payload in UNSEEDED_REQUESTS:
                    replies.append(
                        await client.request({**payload, "structure": kind})
                    )
                out[f"{kind}/served"] = _fingerprint(replies)
        return out

    return asyncio.run(scenario())


def main() -> None:
    fingerprints = direct_fingerprints()
    fingerprints.update(served_fingerprints())
    print(json.dumps(fingerprints, sort_keys=True))


if __name__ == "__main__":
    main()
