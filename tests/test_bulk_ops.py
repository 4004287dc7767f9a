"""Bulk updates as one array op, from admission through the batch runner.

An ``insert_bulk``/``delete_bulk`` request becomes one :class:`BatchOp`
holding a read-only float64 ``values`` array (plus ``weights``).  These
tests pin that op's contract (immutable, comparable, bit-equal to
``float(v)``), the runner folding it into its update run, the per-value
failure attribution that keeps bulk replies byte-identical, and the
admission validator wording the first offending element's error.
"""

from __future__ import annotations

import asyncio
import copy
import pickle
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from repro import BatchOp, BatchQueryRunner, DynamicIRS, WeightedDynamicIRS
from repro.errors import InvalidQueryError, InvalidWeightError, KeyNotFoundError
from repro.serve import ReproServer


def run(coro):
    return asyncio.run(coro)


# -- the op ---------------------------------------------------------------------


def test_bulk_op_holds_a_private_read_only_float64_copy():
    source = np.array([3.0, 1.0, 2.0])
    op = BatchOp.insert_bulk(source, [1, 2, 3], structure="w")
    source[0] = 99.0  # the caller's array stays the caller's
    assert op.kind == "insert" and op.structure == "w"
    assert op.values.tolist() == [3.0, 1.0, 2.0]
    assert op.weights.tolist() == [1.0, 2.0, 3.0]
    assert op.values.dtype == np.float64 and op.weights.dtype == np.float64
    assert op.size == 3 and BatchOp.insert(1.0).size == 1
    for array in (op.values, op.weights):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 5.0
    assert BatchOp.delete_bulk([1, 2]).values.tolist() == [1.0, 2.0]
    with pytest.raises(ValueError):
        BatchOp.insert_bulk([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        BatchOp.delete_bulk([[1.0], [2.0]])


def test_ops_refuse_assignment_and_deletion():
    for op in (BatchOp.insert(1.0), BatchOp.delete_bulk([1.0, 2.0])):
        with pytest.raises(FrozenInstanceError):
            op.value = 2.0
        with pytest.raises(FrozenInstanceError):
            op.values = None
        with pytest.raises(FrozenInstanceError):
            del op.kind
        with pytest.raises(AttributeError):
            op.extra = 1  # slotted: no new attributes either


def test_op_equality_hash_repr_and_copies():
    a = BatchOp.insert_bulk([1.0, 2.0], [1.0, 3.0])
    b = BatchOp.insert_bulk(np.array([1.0, 2.0]), np.array([1.0, 3.0]))
    assert a == b and hash(a) == hash(b)
    assert a != BatchOp.insert_bulk([1.0, 2.5], [1.0, 3.0])
    assert a != BatchOp.insert_bulk([1.0, 2.0])
    assert a != BatchOp.delete_bulk([1.0, 2.0])
    assert BatchOp.insert(1.0, 2.0) == BatchOp.insert(1.0, 2.0)
    assert BatchOp.insert(1.0) != BatchOp.delete(1.0)
    assert BatchOp.insert(1.0) != ("insert", 1.0)
    seeded = [BatchOp.sample(0.0, 1.0, 4, seed=3) for _ in range(2)]
    assert len(set(seeded)) == 1
    assert repr(BatchOp.delete(2.5)).startswith("BatchOp(kind='delete', value=2.5,")
    assert "values=array([1., 2.])" in repr(a)
    for clone in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert clone == a and type(clone) is BatchOp
        assert not clone.values.flags.writeable and not clone.weights.flags.writeable
    moved = replace(BatchOp.insert(1.0), value=4.0)
    assert moved == BatchOp.insert(4.0) and type(moved) is BatchOp
    assert BatchOp("count", lo=1.0, hi=2.0) == BatchOp.count(1.0, 2.0)
    # Built directly, a bulk op still holds frozen float64 arrays.
    direct = BatchOp("delete", values=[1, 2])
    assert direct == BatchOp.delete_bulk([1.0, 2.0])
    assert not direct.values.flags.writeable


def test_values_stay_bit_equal_to_float():
    big = [2**53 + 1, 2**63 + 1, -(2**64) - 7, 10**300, 7, -0.0, 0.1]
    op = BatchOp.insert_bulk(big)
    assert [v.hex() for v in op.values.tolist()] == [float(v).hex() for v in big]


# -- the runner -----------------------------------------------------------------


class Recorder:
    """A DynamicIRS whose bulk calls are recorded with their values."""

    def __init__(self, data):
        self.inner = DynamicIRS(data, seed=5)
        self.calls = []

    def insert_bulk(self, values):
        self.calls.append(("insert_bulk", list(values)))
        self.inner.insert_bulk(values)

    def delete_bulk(self, values):
        self.calls.append(("delete_bulk", list(values)))
        self.inner.delete_bulk(values)

    def insert(self, value):
        self.calls.append(("insert", value))
        self.inner.insert(value)

    def delete(self, value):
        self.calls.append(("delete", value))
        self.inner.delete(value)

    def count(self, lo, hi):
        return self.inner.count(lo, hi)


def test_bulk_op_and_its_scalar_neighbours_make_one_bulk_call():
    structure = Recorder([1.0, 2.0, 3.0, 4.0])
    runner = BatchQueryRunner(structure)
    bulk = [10.0 + i for i in range(64)]
    result = runner.run_mixed(
        [BatchOp.insert(5.0), BatchOp.insert_bulk(bulk), BatchOp.insert(6.0),
         BatchOp.count(0.0, 100.0), BatchOp.delete_bulk([5.0, 6.0])],
        capture_errors=True,
    )
    assert structure.calls == [
        ("insert_bulk", [5.0, *bulk, 6.0]),
        ("delete_bulk", [5.0, 6.0]),
    ]
    assert all(type(v) is float for v in structure.calls[0][1])
    assert result.stats.extra["bulk_update_calls"] == 2
    assert result.stats.extra["updates"] == 68
    assert result.samples == [None, None, None, 70, None]
    assert result.errors == [None] * 5


def test_failed_bulk_run_is_attributed_to_the_exact_values():
    structure = Recorder([1.0, 2.0, 3.0, 4.0])
    runner = BatchQueryRunner(structure)
    ops = [BatchOp.delete(3.0), BatchOp.delete_bulk([1.0, 99.0, 2.0, 98.0]),
           BatchOp.delete(97.0), BatchOp.delete_bulk([4.0])]
    result = runner.run_mixed(ops, capture_errors=True)
    assert structure.calls[0] == ("delete_bulk", [3.0, 1.0, 99.0, 2.0, 98.0, 97.0, 4.0])
    # The failed bulk call changed nothing; the value-by-value replay
    # applied every value that could apply.
    assert structure.inner.values() == []
    assert result.errors[0] is None and result.errors[3] is None
    per_value = result.errors[1]
    assert [type(e) for e in per_value] == [
        type(None), KeyNotFoundError, type(None), KeyNotFoundError
    ]
    assert isinstance(result.errors[2], KeyNotFoundError)
    # Without capture the stream raises, as before.
    with pytest.raises(KeyNotFoundError):
        BatchQueryRunner(DynamicIRS([1.0], seed=1)).run_mixed(
            [BatchOp.delete_bulk([1.0, 5.0])]
        )


def test_weighted_bulk_on_an_unweighted_structure_is_refused_per_value():
    runner = BatchQueryRunner(DynamicIRS([1.0], seed=1))
    result = runner.run_mixed(
        [BatchOp.insert(2.0), BatchOp.insert_bulk([3.0, 4.0], [1.0, 2.0])],
        capture_errors=True,
    )
    assert result.errors[0] is None
    refused = result.errors[1]
    assert len(refused) == 2 and all(isinstance(e, InvalidQueryError) for e in refused)
    assert runner.structures["default"].values() == [1.0, 2.0]
    with pytest.raises(InvalidQueryError):
        runner.run_mixed([BatchOp.insert_bulk([3.0], [1.0])])


def test_weighted_bulk_joins_a_run_with_backfilled_weights():
    w = WeightedDynamicIRS([1.0], [1.0], seed=2)
    runner = BatchQueryRunner(w)
    result = runner.run_mixed(
        [BatchOp.insert(2.0), BatchOp.insert_bulk([3.0, 4.0], [2.0, 0.0]),
         BatchOp.insert(5.0, 4.0)],
        capture_errors=True,
    )
    assert isinstance(result.errors[1][1], InvalidWeightError)
    assert result.errors[1][0] is None
    assert sorted(w.items()) == [(1.0, 1.0), (2.0, 1.0), (3.0, 2.0), (5.0, 4.0)]


# -- admission ------------------------------------------------------------------

GOOD = [5, 6.5]
#: (bad element, HEAD's error body).  A JSON integer too large for a
#: float once escaped admission as an OverflowError.
BAD_ELEMENTS = [
    (True, "field 'values' must be a number"),
    ("1", "field 'values' must be a number"),
    (None, "field 'values' must be a number"),
    ([1], "field 'values' must be a number"),
    (float("nan"), "field 'values' must not be NaN"),
    (float("inf"), "field 'values' must be finite"),
    (float("-inf"), "field 'values' must be finite"),
    (10**400, "field 'values' is too large for a float"),
]


@pytest.mark.parametrize("position", ["first", "middle"])
@pytest.mark.parametrize(
    "bad, message", BAD_ELEMENTS,
    ids=["true", "string", "null", "list", "nan", "inf", "-inf", "huge-int"],
)
@pytest.mark.parametrize("field", ["values", "weights"])
def test_first_bad_element_words_the_error(field, bad, message, position):
    items = [bad, *GOOD] if position == "first" else [*GOOD, bad, 7]
    # A later, different offender must not word the error.
    items = [*items, "later"]
    request = {"id": 1, "op": "insert_bulk", "values": [1.0] * len(items)}
    request[field] = items
    message = message.replace("'values'", repr(field))

    async def main():
        async with ReproServer(WeightedDynamicIRS([0.5], [1.0], seed=1)) as server:
            return await server.submit(request)

    assert run(main()) == {
        "id": 1, "ok": False, "error": {"type": "bad_request", "message": message}
    }


def test_bulk_validator_matches_the_per_element_checks():
    from repro.serve.protocol import require_number, require_numbers

    items = [0, -0.0, 1, 2.5, -7, 2**53 + 1, 2**63 + 1, -(2**64) - 7, 10**300,
             1e308, 5e-324, np.float64(0.25), 3]
    fast = require_numbers(items, "values")
    reference = [require_number({"values": v}, "values", finite=True) for v in items]
    assert fast.dtype == np.float64
    assert [v.hex() for v in fast.tolist()] == [v.hex() for v in reference]


@pytest.mark.parametrize(
    "request_, error",
    [
        ({"op": "delete_bulk", "values": [5, True]},
         {"type": "bad_request", "message": "field 'values' must be a number"}),
        ({"op": "insert_bulk", "values": [5, 1e400]},
         {"type": "bad_request", "message": "field 'values' must be finite"}),
        ({"op": "insert_bulk", "values": [5], "weights": [1, 2]},
         {"type": "bad_request", "message": "field 'weights' must align with 'values'"}),
        ({"op": "insert_bulk", "values": [], "weights": [1]},
         {"type": "bad_request", "message": "field 'weights' must align with 'values'"}),
        ({"op": "delete_bulk", "values": [1.0] * 9},
         {"type": "too_large", "message": "9 values exceed max_t=8"}),
    ],
)
def test_bulk_admission_errors(request_, error):
    async def main():
        async with ReproServer(DynamicIRS([1.0], seed=1), max_t=8) as server:
            return await server.submit({"id": 4, **request_})

    assert run(main()) == {"id": 4, "ok": False, "error": error}


def test_empty_bulk_is_answered_at_admission():
    async def main():
        async with ReproServer(DynamicIRS([1.0], seed=1)) as server:
            replies = [
                await server.submit({"id": 1, "op": "insert_bulk", "values": []}),
                await server.submit({"id": 2, "op": "delete_bulk", "values": []}),
            ]
            return replies, server.stats.batches

    replies, batches = run(main())
    assert replies == [
        {"id": 1, "ok": True, "result": 0}, {"id": 2, "ok": True, "result": 0}
    ]
    assert batches == 0


def test_bulk_request_is_one_op_costing_its_values():
    from repro.serve.ops import OPS

    values = [float(i) for i in range(64)]
    op, cost = OPS["insert_bulk"].parse(
        {"values": values, "weights": [2] * 64}, "w", 1 << 20, None
    )
    assert cost == 64
    assert op == BatchOp.insert_bulk(values, [2.0] * 64, "w")
    op, cost = OPS["delete_bulk"].parse({"values": values}, "default", 64, None)
    assert cost == 64 and op == BatchOp.delete_bulk(values)
