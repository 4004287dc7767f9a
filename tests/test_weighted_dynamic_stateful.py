"""Hypothesis stateful test for WeightedDynamicIRS vs a list model.

Exercises the shared array-directory engine (DESIGN.md §8) under every
mutation kind — scalar insert/delete, ``update_weight``, bulk insert and
atomic bulk delete — and checks the read side (count, range_weight, the
vectorized peek probes, scalar and bulk sampling) against the model after
arbitrary interleavings.
"""

from __future__ import annotations

import bisect

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

import pytest

from repro import KeyNotFoundError, WeightedDynamicIRS

_VALUES = st.integers(0, 60).map(float)
_WEIGHTS = st.floats(min_value=0.1, max_value=50.0)


class WeightedDynamicMachine(RuleBasedStateMachine):
    @initialize(seed=st.integers(0, 2**16))
    def setup(self, seed):
        self.structure = WeightedDynamicIRS(seed=seed)
        self.model: list[tuple[float, float]] = []  # sorted (value, weight)

    @rule(value=_VALUES, weight=_WEIGHTS)
    def insert(self, value, weight):
        self.structure.insert(value, weight)
        bisect.insort(self.model, (value, weight))

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete_existing(self, data):
        value = data.draw(st.sampled_from([v for v, _w in self.model]))
        removed = self.structure.delete(value)
        # The structure removes *one* occurrence of the value; the model must
        # drop an occurrence with exactly that weight.
        for i, (v, w) in enumerate(self.model):
            if v == value and w == pytest.approx(removed):
                self.model.pop(i)
                break
        else:
            raise AssertionError("structure returned a weight not in model")

    @rule(batch=st.lists(st.tuples(_VALUES, _WEIGHTS), max_size=25))
    def insert_bulk(self, batch):
        self.structure.insert_bulk([v for v, _w in batch], [w for _v, w in batch])
        for value, weight in batch:
            bisect.insort(self.model, (value, weight))

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete_bulk_existing(self, data):
        batch = data.draw(
            st.lists(
                st.sampled_from([v for v, _w in self.model]), min_size=1, max_size=12
            )
        )
        from collections import Counter

        available = Counter(v for v, _w in self.model)
        take = []
        for value in batch:
            if available[value] > 0:
                available[value] -= 1
                take.append(value)
        removed = self.structure.delete_bulk(take)
        assert len(removed) == len(take)
        for value, weight in zip(take, removed):
            for i, (v, w) in enumerate(self.model):
                if v == value and w == pytest.approx(weight):
                    self.model.pop(i)
                    break
            else:
                raise AssertionError("bulk delete returned a weight not in model")

    @precondition(lambda self: self.model)
    @rule(data=st.data(), weight=_WEIGHTS)
    def update_weight(self, data, weight):
        value = data.draw(st.sampled_from([v for v, _w in self.model]))
        old = self.structure.update_weight(value, weight)
        for i, (v, w) in enumerate(self.model):
            if v == value and w == pytest.approx(old):
                self.model[i] = (v, weight)
                break
        else:
            raise AssertionError("update_weight returned a weight not in model")

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete_bulk_missing_is_atomic(self, data):
        batch = data.draw(
            st.lists(st.sampled_from([v for v, _w in self.model]), max_size=5)
        )
        before = self.structure.items()
        with pytest.raises(KeyNotFoundError):
            # 1000.0 is outside the value strategy's [0, 60] range, so it
            # can never be present: the whole batch must roll back.
            self.structure.delete_bulk(batch + [1000.0])
        assert self.structure.items() == before

    @rule(lo=_VALUES, width=st.integers(0, 60))
    def count_and_weight_match(self, lo, width):
        hi = lo + width
        expected = [(v, w) for v, w in self.model if lo <= v <= hi]
        assert self.structure.count(lo, hi) == len(expected)
        assert self.structure.range_weight(lo, hi) == pytest.approx(
            sum(w for _v, w in expected), abs=1e-9
        )
        # The vectorized probes must agree with the scalar answers exactly
        # (counts) / to float tolerance (masses), right after any update.
        assert int(self.structure.peek_counts([(lo, hi)])[0]) == len(expected)
        assert float(self.structure.peek_weights([(lo, hi)])[0]) == pytest.approx(
            sum(w for _v, w in expected), abs=1e-9
        )

    @rule(lo=_VALUES, width=st.integers(0, 60), t=st.integers(1, 6))
    def samples_are_members(self, lo, width, t):
        hi = lo + width
        members = {v for v, _w in self.model if lo <= v <= hi}
        if not members:
            return
        for sample in self.structure.sample(lo, hi, t):
            assert sample in members

    @rule(lo=_VALUES, width=st.integers(0, 60), t=st.integers(1, 6))
    def bulk_samples_are_members(self, lo, width, t):
        hi = lo + width
        members = {v for v, _w in self.model if lo <= v <= hi}
        if not members:
            return
        for sample in self.structure.sample_bulk(lo, hi, t):
            assert sample in members

    @invariant()
    def sizes_agree(self):
        if hasattr(self, "model"):
            assert len(self.structure) == len(self.model)

    @invariant()
    def structure_invariants_hold(self):
        # Every step, so a stale prefix cache fails on the step that
        # left it.
        if hasattr(self, "structure"):
            self.structure.check_invariants()

    def teardown(self):
        if hasattr(self, "structure"):
            got = self.structure.items()
            assert [v for v, _ in got] == [v for v, _ in self.model]


TestWeightedDynamicStateful = WeightedDynamicMachine.TestCase
TestWeightedDynamicStateful.settings = settings(
    max_examples=30, stateful_step_count=50, deadline=None
)


class DecayedWindowMachine(RuleBasedStateMachine):
    """Window-expiry rules for the *decayed* :class:`WindowedIRS`.

    Decay mode rides the weighted plane, so this machine lives with the
    weighted stateful suite: the model is the last ``W`` arrivals, and the
    extra hazard over the uniform machine is the duplicate-expiry rebuild
    path (a by-value delete could strip the wrong occurrence's weight).
    Values are drawn from a tiny domain to force duplicates constantly.
    """

    @initialize(
        seed=st.integers(0, 2**16),
        window=st.integers(1, 20),
        expiry_batch=st.integers(1, 6),
    )
    def setup(self, seed, window, expiry_batch):
        from repro import WindowedIRS

        self.window = window
        self.structure = WindowedIRS(
            window=window, seed=seed, decay=0.9, expiry_batch=expiry_batch
        )
        self.model: list[float] = []  # the live window, oldest first

    def _arrive(self, batch):
        self.model.extend(batch)
        del self.model[: max(0, len(self.model) - self.window)]

    @rule(value=st.integers(0, 8).map(float))
    def insert(self, value):
        self.structure.insert(value)
        self._arrive([value])

    @rule(batch=st.lists(st.integers(0, 8).map(float), max_size=30))
    def advance(self, batch):
        self.structure.advance(batch)
        self._arrive(batch)

    @rule(lo=st.integers(0, 8).map(float), width=st.integers(0, 8))
    def count_sees_exactly_the_window(self, lo, width):
        hi = lo + width
        expected = sum(1 for v in self.model if lo <= v <= hi)
        assert self.structure.count(lo, hi) == expected

    @rule(lo=st.integers(0, 8).map(float), width=st.integers(0, 8))
    def report_sees_exactly_the_window(self, lo, width):
        hi = lo + width
        expected = sorted(v for v in self.model if lo <= v <= hi)
        assert self.structure.report(lo, hi) == expected

    @rule(
        lo=st.integers(0, 8).map(float),
        width=st.integers(0, 8),
        t=st.integers(1, 6),
    )
    def samples_never_surface_expired_keys(self, lo, width, t):
        hi = lo + width
        live = set(v for v in self.model if lo <= v <= hi)
        if not live:
            return
        for sample in self.structure.sample(lo, hi, t):
            assert sample in live
        for sample in self.structure.sample_bulk(lo, hi, t):
            assert sample in live

    @invariant()
    def window_never_overflows(self):
        if hasattr(self, "model"):
            assert len(self.structure) == len(self.model) <= self.window

    def teardown(self):
        if hasattr(self, "structure"):
            self.structure.check_invariants()
            assert self.structure.live() == self.model


TestDecayedWindowStateful = DecayedWindowMachine.TestCase
TestDecayedWindowStateful.settings = settings(
    max_examples=30, stateful_step_count=50, deadline=None
)
