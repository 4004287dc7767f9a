"""Hypothesis stateful (model-based) test for DynamicIRS.

Drives the structure with an arbitrary interleaving of inserts, deletes,
counts, reports and samples, mirroring every operation on a plain sorted
list.  After every step the observable behavior must match the model, and
the structure's own invariant checker must pass.
"""

from __future__ import annotations

import bisect

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro import DynamicIRS

_VALUES = st.integers(0, 200).map(float)


class DynamicIRSMachine(RuleBasedStateMachine):
    @initialize(seed=st.integers(0, 2**16))
    def setup(self, seed):
        self.structure = DynamicIRS(seed=seed)
        self.model: list[float] = []
        self.steps = 0

    @rule(value=_VALUES)
    def insert(self, value):
        self.structure.insert(value)
        bisect.insort(self.model, value)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete_existing(self, data):
        value = data.draw(st.sampled_from(self.model))
        self.structure.delete(value)
        self.model.remove(value)

    @rule(batch=st.lists(_VALUES, max_size=40))
    def insert_bulk(self, batch):
        self.structure.insert_bulk(batch)
        for value in batch:
            bisect.insort(self.model, value)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete_bulk_existing(self, data):
        # Draw a multiset-consistent batch of currently live values.
        batch = data.draw(
            st.lists(st.sampled_from(self.model), min_size=1, max_size=20)
        )
        from collections import Counter

        available = Counter(self.model)
        take = []
        for value in batch:
            if available[value] > 0:
                available[value] -= 1
                take.append(value)
        self.structure.delete_bulk(take)
        for value in take:
            self.model.remove(value)

    @rule(lo=_VALUES, width=st.integers(0, 200))
    def count_matches(self, lo, width):
        hi = lo + width
        expected = bisect.bisect_right(self.model, hi) - bisect.bisect_left(
            self.model, lo
        )
        assert self.structure.count(lo, hi) == expected

    @rule(lo=_VALUES, width=st.integers(0, 200))
    def report_matches(self, lo, width):
        hi = lo + width
        expected = self.model[
            bisect.bisect_left(self.model, lo) : bisect.bisect_right(self.model, hi)
        ]
        assert self.structure.report(lo, hi) == expected

    @rule(lo=_VALUES, width=st.integers(0, 200), t=st.integers(1, 8))
    def samples_are_in_range_members(self, lo, width, t):
        hi = lo + width
        a = bisect.bisect_left(self.model, lo)
        b = bisect.bisect_right(self.model, hi)
        if a == b:
            return
        members = set(self.model[a:b])
        for sample in self.structure.sample(lo, hi, t):
            assert sample in members

    @invariant()
    def sizes_agree(self):
        if hasattr(self, "model"):
            assert len(self.structure) == len(self.model)

    @invariant()
    def structure_invariants_hold(self):
        # Every step, so a stale prefix cache (deferred bulk steps and
        # pending deltas included) fails on the step that left it.
        if hasattr(self, "structure"):
            self.structure.check_invariants()

    def teardown(self):
        if hasattr(self, "structure"):
            assert self.structure.values() == self.model


TestDynamicIRSStateful = DynamicIRSMachine.TestCase
TestDynamicIRSStateful.settings = settings(
    max_examples=40, stateful_step_count=60, deadline=None
)


class WindowedIRSMachine(RuleBasedStateMachine):
    """Model-based window-expiry rules for the uniform :class:`WindowedIRS`.

    The model is simply the list of the last ``W`` arrivals.  Interleaved
    advance/insert/sample/count/report must never surface an expired key:
    reads flush pending expiry, so the structure observes exactly the
    model's window regardless of how expiry batching interleaves with
    arrivals.
    """

    @initialize(
        seed=st.integers(0, 2**16),
        window=st.integers(1, 24),
        expiry_batch=st.integers(1, 8),
    )
    def setup(self, seed, window, expiry_batch):
        from repro import WindowedIRS

        self.window = window
        self.structure = WindowedIRS(
            window=window, seed=seed, expiry_batch=expiry_batch
        )
        self.model: list[float] = []  # the live window, oldest first
        self.arrivals = 0

    def _arrive(self, batch):
        self.arrivals += len(batch)
        self.model.extend(batch)
        del self.model[: max(0, len(self.model) - self.window)]

    @rule(value=_VALUES)
    def insert(self, value):
        self.structure.insert(value)
        self._arrive([value])

    @rule(batch=st.lists(_VALUES, max_size=40))
    def advance(self, batch):
        self.structure.advance(batch)
        self._arrive(batch)

    @rule(lo=_VALUES, width=st.integers(0, 200))
    def count_sees_exactly_the_window(self, lo, width):
        hi = lo + width
        expected = sum(1 for v in self.model if lo <= v <= hi)
        assert self.structure.count(lo, hi) == expected

    @rule(lo=_VALUES, width=st.integers(0, 200))
    def report_sees_exactly_the_window(self, lo, width):
        hi = lo + width
        expected = sorted(v for v in self.model if lo <= v <= hi)
        assert self.structure.report(lo, hi) == expected

    @rule(lo=_VALUES, width=st.integers(0, 200), t=st.integers(1, 8))
    def samples_never_surface_expired_keys(self, lo, width, t):
        hi = lo + width
        live = set(v for v in self.model if lo <= v <= hi)
        if not live:
            return
        for sample in self.structure.sample(lo, hi, t):
            assert sample in live

    @invariant()
    def live_size_is_min_window_arrivals(self):
        if hasattr(self, "model"):
            assert len(self.structure) == len(self.model)
            assert len(self.structure) == min(self.arrivals, self.window)
            assert self.structure.arrivals == self.arrivals

    def teardown(self):
        if hasattr(self, "structure"):
            self.structure.check_invariants()
            assert self.structure.live() == self.model


TestWindowedIRSStateful = WindowedIRSMachine.TestCase
TestWindowedIRSStateful.settings = settings(
    max_examples=40, stateful_step_count=60, deadline=None
)
