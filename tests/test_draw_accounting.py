"""Randomness-budget tests: expected O(1) primitive draws per sample.

The paper's per-sample costs are driven by how much fresh randomness a
sample needs.  RandomSource counts primitive draws, so these tests pin the
budgets down: exact for the deterministic paths, bounded for the rejection
paths.
"""

from __future__ import annotations

from repro import DynamicIRS, ExternalIRS, StaticIRS, WeightedStaticIRS
from repro.core.dynamic_irs import _narrow
from repro.rng import ScriptedSource


class TestStaticBudget:
    def test_exactly_one_draw_per_sample(self):
        s = StaticIRS([float(i) for i in range(1000)], seed=1)
        before = s._rng.draws
        s.sample(10.0, 900.0, 250)
        assert s._rng.draws - before == 250


class TestWeightedBudget:
    def test_two_draws_per_alias_level(self):
        """Top alias + node alias, two primitive draws each: 4 per sample."""
        n = 1024
        w = WeightedStaticIRS(
            [float(i) for i in range(n)], [1.0 + i % 3 for i in range(n)], seed=2
        )
        before = w._rng.draws
        w.sample(10.0, 1000.0, 100)
        assert w._rng.draws - before == 4 * 100


class TestDynamicBudget:
    def test_expected_constant_draws(self):
        d = DynamicIRS([float(i) for i in range(50_000)], seed=3)
        before = d._rng.draws
        t = 4000
        d.sample(100.5, 49_000.5, t)
        per_sample = (d._rng.draws - before) / t
        # 1 part draw + expected O(1) rejection probes on the PMA path.
        assert per_sample < 6.0, per_sample

    def test_cumulative_path_single_draw(self):
        """Narrow middles resolve the part draw itself — 1 draw/sample."""
        d = DynamicIRS([float(i) for i in range(2000)], seed=4)
        s, cap = d.chunk_size_bounds
        lo, hi = 0.5, 0.5 + 6 * cap  # a handful of chunks → cumulative mode
        before = d._rng.draws
        d.sample(lo, hi, 300)
        assert d._rng.draws - before == 300


class TestExternalBudget:
    def test_bounded_draws_per_sample(self):
        e = ExternalIRS([float(i) for i in range(32_768)], block_size=128, seed=5)
        e.sample(100.0, 32_000.0, 2000)  # warm buffers (refills draw in bulk)
        before = e._rng.draws
        t = 2000
        e.sample(100.0, 32_000.0, t)
        consumed = e._rng.draws - before
        # Per sample: one piece-choice draw + expected O(1) buffer pops; a
        # refill draws its whole batch at once, amortized over later pops.
        assert consumed / t < 40.0


class TestScriptedPaths:
    """Force specific rejection branches deterministically."""

    def test_dynamic_rejection_probe_then_accept(self):
        d = DynamicIRS([float(i) for i in range(60_000)], seed=6)
        plan = d._plan(10.5, 59_000.5)
        assert plan is not None
        _total, a, _la, _k_left, k_mid, b, _k_r = plan
        assert k_mid > 0
        assert not _narrow(b - a - 1, 1), "a wide middle samples by rejection"
        # Script: the first probes land on slots past the chunk fill and are
        # rejected, then the fallback RNG takes over and terminates the loop.
        rng = ScriptedSource([0.999999] * 3, seed=7)
        value = d._reject_draw(a + 1, b - 1, rng.randbelow_fn())
        mid_lo = d._dir.mins[a + 1]
        mid_hi = d._dir.maxes[b - 1]
        assert mid_lo <= value <= mid_hi

    def test_static_scripted_is_deterministic(self):
        s = StaticIRS([float(i) for i in range(100)], seed=8)
        s._rng = ScriptedSource([0.0, 0.5, 0.999], seed=9)
        assert s.sample(0.0, 99.0, 3) == [0.0, 50.0, 99.0]
