"""Random-source façade used by every sampler in the library.

All structures draw randomness through :class:`RandomSource` instead of the
global ``random`` module.  This buys three things:

* **reproducibility** — a structure seeded with the same integer replays the
  same sample stream, which the statistical tests and the benchmark harness
  rely on;
* **accounting** — the number of primitive draws is counted, so tests can
  assert expected-constant rejection rates empirically;
* **substitutability** — tests can inject a scripted source to force rare
  code paths (e.g. long rejection streaks) deterministically.

The vectorized bulk paths (``sample_bulk`` and the batch engine) draw from
a NumPy *side stream* spawned once per structure via :meth:`RandomSource.
spawn_numpy`, so their draw accounting differs from the scalar paths: the
spawn costs nothing against :attr:`RandomSource.draws` and bulk draws are
not counted per element.  Reproducibility under a fixed seed still holds —
the side stream is seeded by a deterministic 64-bit split.
"""

from __future__ import annotations

import hashlib
import random
import struct
from typing import Iterable, Iterator, Sequence

__all__ = [
    "RandomSource",
    "ScriptedSource",
    "spawn",
    "derive_seed",
    "generator",
    "splitmix64",
    "seeded_ranks",
]


def derive_seed(root: int, *path: int) -> int:
    """Return a deterministic 64-bit seed for the stream at ``path``.

    The sharded engine needs one independent child stream per ``(call,
    shard)`` task, derivable from plain integers — a task carries
    ``(root, call, shard)``, not a generator object.  Hashing the whole
    path through SHA-256 gives streams that are (cryptographically)
    independent of each other and of the root stream, and identical no
    matter in which order the tasks run.
    """
    words = [value & 0xFFFFFFFFFFFFFFFF for value in (root, *path)]
    digest = hashlib.sha256(struct.pack(f"<{len(words)}Q", *words)).digest()
    return int.from_bytes(digest[:8], "little")


def generator(seed: int):
    """Return a NumPy ``Generator`` for the stream addressed by ``seed``.

    This is the backbone of *seed-addressable* sampling: every
    ``sample_bulk`` accepts an optional ``seed`` argument, and a call with
    ``seed=derive_seed(root, serial)`` draws only as a function of the
    seed and the structure contents — not of how many bulk calls ran
    before, or how a batch was composed.  The serving layer
    (:mod:`repro.serve`) leans on this to make replies byte-identical
    under a fixed root seed no matter how requests coalesce into batches.

    Raises :class:`RuntimeError` when NumPy is not installed.
    """
    try:
        import numpy as np
    except ImportError as exc:  # pragma: no cover - numpy is in CI
        raise RuntimeError("generator() requires NumPy") from exc
    # Philox keyed directly: a counter-based bit generator whose key IS the
    # seed, skipping the SeedSequence entropy-pool setup that dominates
    # default_rng(seed) construction.  At one generator per served request
    # that halves the setup cost; distinct keys give statistically
    # independent streams by construction.
    return np.random.Generator(np.random.Philox(key=seed & (1 << 64) - 1))


#: SplitMix64 constants (Steele, Lea & Flood 2014): the golden-gamma
#: increment and the two finalizer multipliers of the mix function.
_SM64_GAMMA = 0x9E3779B97F4A7C15
_SM64_MIX1 = 0xBF58476D1CE4E5B9
_SM64_MIX2 = 0x94D049BB133111EB


def splitmix64(words):
    """Vectorized SplitMix64 finalizer over a uint64 NumPy array.

    ``words`` are counter words (e.g. ``seed + j * gamma``); the output is
    a uint64 array of iid-quality bits, one per word.  This is the
    counter-based primitive behind the vectorized seeded sampling path:
    unlike a stateful generator, every output is a pure function of its
    input word, so a batch of queries with distinct seeds can draw all
    their randomness in a handful of array ops.
    """
    import numpy as np

    z = words.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_SM64_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_SM64_MIX2)
    z ^= z >> np.uint64(31)
    return z


def seeded_ranks(seeds, starts, widths, counts):
    """Exact uniform ranks for many seeded queries in one vectorized pass.

    For query ``i`` the function returns ``counts[i]`` iid uniform integer
    ranks in ``[starts[i], starts[i] + widths[i])``, derived purely from
    ``seeds[i]`` via counter-based SplitMix64 draws — so the result for a
    query depends only on its seed and bounds, never on its batch-mates.
    Output is one concatenated int64 array in query order.

    Uniformity is exact: a draw whose 64-bit word falls in the truncated
    tail ``[2^64 - (2^64 mod width), 2^64)`` is rejected and redrawn from
    a disjoint counter range (expected rejections per batch are ``~t ×
    width / 2^64``, i.e. essentially never, but the guarantee matches the
    scalar samplers' exact ``randbelow``).

    A one-query call (a served seeded sample) draws with scalar bounds;
    should any of its draws be rejected, it takes the general path, so
    its ranks are the general path's either way.
    """
    import numpy as np

    # Fold arbitrary Python ints into the uint64 counter domain (the same
    # masking generator() applies) — np.asarray would raise OverflowError
    # on negative or >64-bit seeds instead of wrapping.
    mask = (1 << 64) - 1
    if len(seeds) == 1:
        ranks = _one_query_ranks(
            int(seeds[0]) & mask, int(starts[0]), int(widths[0]), int(counts[0])
        )
        if ranks is not None:
            return ranks
    seeds = np.asarray([int(s) & mask for s in seeds], dtype=np.uint64)
    starts = np.asarray(starts, dtype=np.int64)
    widths = np.asarray(widths, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # Per-draw words: seed_i + (j + 1) * gamma for j = 0..counts_i - 1.
    seed_rep = np.repeat(seeds, counts)
    offsets = np.concatenate(([0], np.cumsum(counts)))[:-1]
    j = np.arange(total, dtype=np.uint64) - np.repeat(
        offsets.astype(np.uint64), counts
    )
    with np.errstate(over="ignore"):
        words = seed_rep + (j + np.uint64(1)) * np.uint64(_SM64_GAMMA)
        bits = splitmix64(words)
        width_rep = np.repeat(widths, counts).astype(np.uint64)
        # Exact rejection bound: accept bits < width * floor((2^64 - 1) /
        # width), a multiple of width below 2^64 (for a power-of-two width
        # one multiple short of 2^64, so such widths reject w / 2^64 of
        # their draws).  floor((2^64 - 1 - w) / w) + 1 is that floor.
        limit = (
            (np.uint64(0xFFFFFFFFFFFFFFFF) - width_rep) // width_rep
            + np.uint64(1)
        ) * width_rep
        reject = bits >= limit  # hit probability ~ width / 2^64
        retry_round = np.uint64(0)
        while reject.any():
            retry_round += np.uint64(1)
            idx = np.nonzero(reject)[0]
            count_rep = np.repeat(counts, counts).astype(np.uint64)
            words = seed_rep[idx] + (
                j[idx] + np.uint64(1) + retry_round * count_rep[idx]
            ) * np.uint64(_SM64_GAMMA)
            fresh = splitmix64(words)
            bits[idx] = fresh
            reject = np.zeros_like(reject)
            reject[idx] = fresh >= limit[idx]
        ranks = (bits % width_rep).astype(np.int64)
    return ranks + np.repeat(starts, counts)


def _one_query_ranks(seed: int, start: int, width: int, count: int):
    """:func:`seeded_ranks` for one query; ``None`` if a draw is rejected.

    The same words, bits and bound as the general path, with the seed,
    width and limit as scalars instead of per-draw arrays.
    """
    import numpy as np

    if count <= 0 or width <= 0:
        return None  # the general path's own answers
    with np.errstate(over="ignore"):
        words = np.uint64(seed) + np.arange(
            1, count + 1, dtype=np.uint64
        ) * np.uint64(_SM64_GAMMA)
        bits = splitmix64(words)
    if bits.max() >= ((0xFFFFFFFFFFFFFFFF - width) // width + 1) * width:
        return None
    ranks = (bits % np.uint64(width)).astype(np.int64)
    ranks += start
    return ranks


class RandomSource:
    """A seedable wrapper around :class:`random.Random` that counts draws.

    Parameters
    ----------
    seed:
        Seed forwarded to the underlying Mersenne-Twister generator.  ``None``
        seeds from the OS, which is fine everywhere except tests.
    """

    __slots__ = ("_rng", "draws")

    def __init__(self, seed: int | None = None) -> None:
        self._rng = random.Random(seed)
        #: Number of primitive draws performed so far (randrange/random each
        #: count as one draw; bulk helpers count one draw per element).
        self.draws = 0

    # -- primitive draws ---------------------------------------------------

    def randrange(self, n: int) -> int:
        """Return a uniform integer in ``[0, n)``; ``n`` must be positive."""
        self.draws += 1
        return self._rng.randrange(n)

    def randint(self, lo: int, hi: int) -> int:
        """Return a uniform integer in the inclusive range ``[lo, hi]``."""
        self.draws += 1
        return self._rng.randint(lo, hi)

    def random(self) -> float:
        """Return a uniform float in ``[0, 1)``."""
        self.draws += 1
        return self._rng.random()

    def uniform(self, lo: float, hi: float) -> float:
        """Return a uniform float in ``[lo, hi]``."""
        self.draws += 1
        return self._rng.uniform(lo, hi)

    # -- bulk helpers ------------------------------------------------------

    def randranges(self, n: int, count: int) -> list[int]:
        """Return ``count`` iid uniform integers in ``[0, n)``."""
        self.draws += count
        rr = self._rng.randrange
        return [rr(n) for _ in range(count)]

    def shuffle(self, items: list) -> None:
        """Shuffle ``items`` in place (Fisher–Yates)."""
        self.draws += len(items)
        self._rng.shuffle(items)

    def choice_index(self, cumulative: Sequence[float]) -> int:
        """Return an index drawn proportionally to a cumulative weight table.

        ``cumulative`` must be nondecreasing with a positive final entry.
        Used only on short tables (query-local); long-lived distributions use
        alias tables instead.
        """
        total = cumulative[-1]
        u = self.random() * total
        lo, hi = 0, len(cumulative) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cumulative[mid] <= u:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def randbelow_fn(self, expected_draws: int = 0):
        """Return a bound ``f(n) -> uniform int in [0, n)`` for hot loops.

        The returned callable is the generator's exact-uniform integer
        primitive with the wrapper layers peeled off; samplers use it inside
        per-sample loops where attribute dispatch would dominate.  Draw
        counting cannot be per-call on this path, so callers pass their
        ``expected_draws`` up front (the counter is bookkeeping for tests,
        not a correctness mechanism).
        """
        self.draws += expected_draws
        return self._rng._randbelow

    def spawn(self) -> "RandomSource":
        """Return a new source seeded from this one (stream splitting)."""
        return RandomSource(self._rng.getrandbits(64))

    def spawn_numpy(self):
        """Return a NumPy ``Generator`` seeded from this source.

        This is the public hand-off point between the scalar draw stream and
        the vectorized bulk paths: the spawned generator is a *side stream*
        (seeded once by a 64-bit split, like :meth:`spawn`), so bulk draws
        are reproducible under the structure's seed but are **not** counted
        in :attr:`draws` per element — tests that assert draw accounting
        must use the scalar paths.

        Raises :class:`RuntimeError` when NumPy is not installed; callers
        that want a graceful fallback should check for NumPy themselves.
        """
        try:
            import numpy as np
        except ImportError as exc:  # pragma: no cover - numpy is in CI
            raise RuntimeError("spawn_numpy() requires NumPy") from exc
        return np.random.default_rng(self._rng.getrandbits(64))


def spawn(seed: int | None, index: int) -> RandomSource:
    """Return the ``index``-th derived source of a root seed.

    Deterministic helper for experiments that need several independent
    streams from a single user-provided seed.
    """
    root = random.Random(seed)
    for _ in range(index):
        root.getrandbits(64)
    return RandomSource(root.getrandbits(64))


class ScriptedSource(RandomSource):
    """A :class:`RandomSource` that replays a fixed script of floats.

    ``randrange(n)`` consumes one scripted float ``u`` and returns
    ``int(u * n)``; ``random()`` returns the float itself.  When the script is
    exhausted the source falls back to the seeded generator, so tests only
    need to script the prefix they care about.
    """

    __slots__ = ("_script",)

    def __init__(self, script: Iterable[float], seed: int = 0) -> None:
        super().__init__(seed)
        self._script: Iterator[float] = iter(script)

    def _next(self) -> float | None:
        return next(self._script, None)

    def randrange(self, n: int) -> int:
        u = self._next()
        if u is None:
            return super().randrange(n)
        self.draws += 1
        return min(int(u * n), n - 1)

    def randint(self, lo: int, hi: int) -> int:
        return lo + self.randrange(hi - lo + 1)

    def random(self) -> float:
        u = self._next()
        if u is None:
            return super().random()
        self.draws += 1
        return u

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def randbelow_fn(self, expected_draws: int = 0):
        """Scripted override: route hot-loop draws through the script."""
        return self.randrange
