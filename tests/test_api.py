"""Public API surface checks: exports exist and carry documentation."""

from __future__ import annotations

import inspect

import pytest

import repro
from repro import Interval, InvalidQueryError, QueryStats


def test_all_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_version():
    assert repro.__version__.count(".") == 2


@pytest.mark.parametrize(
    "module_name",
    [
        "repro.core.static_irs",
        "repro.core.dynamic_irs",
        "repro.core.directory",
        "repro.core.kernels",
        "repro.core.weighted_irs",
        "repro.core.weighted_dynamic",
        "repro.core.em_irs",
        "repro.core.without_replacement",
        "repro.cli",
        "repro.stats.estimators",
        "repro.alias.walker",
        "repro.baselines.treap",
        "repro.baselines.pma",
        "repro.em.device",
        "repro.em.pool",
        "repro.em.btree",
        "repro.em.sorted_file",
        "repro.stats.chisquare",
        "repro.stats.independence",
        "repro.workloads.datasets",
        "repro.workloads.queries",
    ],
)
def test_public_items_are_documented(module_name):
    """Every public class/function in every module has a docstring, and
    every public method of public classes does too."""
    module = __import__(module_name, fromlist=["_"])
    assert module.__doc__, f"{module_name} missing module docstring"
    for name in getattr(module, "__all__", []):
        obj = getattr(module, name)
        assert obj.__doc__, f"{module_name}.{name} missing docstring"
        if inspect.isclass(obj):
            for meth_name, meth in inspect.getmembers(obj, inspect.isfunction):
                if meth_name.startswith("_"):
                    continue
                if meth.__qualname__.split(".")[0] != obj.__name__:
                    continue  # inherited
                # getdoc() walks the MRO, so overriding an already-documented
                # interface method without restating its docstring is fine.
                doc = inspect.getdoc(meth) or inspect.getdoc(
                    getattr(obj.__mro__[1], meth_name, None)
                )
                assert doc, f"{module_name}.{name}.{meth_name} undocumented"


class TestInterval:
    def test_validation(self):
        with pytest.raises(InvalidQueryError):
            Interval(2.0, 1.0)

    def test_contains(self):
        interval = Interval(1.0, 2.0)
        assert interval.contains(1.0) and interval.contains(2.0)
        assert not interval.contains(2.5)
        assert interval.length == 1.0


class TestQueryStats:
    def test_merge_and_reset(self):
        a = QueryStats(queries=1, samples_returned=5, extra={"x": 1})
        b = QueryStats(queries=2, rejections=3, extra={"x": 2, "y": 1})
        a.merge(b)
        assert a.queries == 3 and a.rejections == 3
        assert a.extra == {"x": 3, "y": 1}
        a.reset()
        assert a.queries == 0 and a.extra == {}
