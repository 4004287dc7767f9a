"""NumPy is a hard dependency: no module keeps a path for its absence."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _imports_numpy(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(
            alias.name.split(".")[0] == "numpy" for alias in node.names
        ):
            return True
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] == "numpy":
                return True
    return False


def _catches_import_error(handler: ast.ExceptHandler) -> bool:
    caught = handler.type
    names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
    return caught is None or any(
        isinstance(name, ast.Name)
        and name.id in ("ImportError", "ModuleNotFoundError")
        for name in names
    )


def absence_paths(source: str) -> list[str]:
    """The constructs of ``source`` that only matter without NumPy."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            if _imports_numpy(node):
                found.append(f"line {node.lineno}: a function imports numpy")
        elif isinstance(node, ast.Try):
            if any(map(_catches_import_error, node.handlers)) and any(
                map(_imports_numpy, node.body)
            ):
                found.append(f"line {node.lineno}: numpy imported under ImportError")
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(
                isinstance(o, ast.Name) and o.id in ("np", "_np") for o in operands
            ) and any(isinstance(o, ast.Constant) and o.value is None for o in operands):
                found.append(f"line {node.lineno}: numpy compared with None")
    return found


def test_the_scan_finds_each_kind_of_absence_path():
    source = """
try:
    import numpy as _np
except ImportError:
    _np = None

def spawn():
    from numpy.random import default_rng
    return default_rng()

def mean(xs):
    if _np is not None:
        return _np.mean(xs)
"""
    assert absence_paths(source) == [
        "line 2: numpy imported under ImportError",
        "line 7: a function imports numpy",
        "line 12: numpy compared with None",
    ]
    clean = "import numpy as np\n\n\ndef total(x):\n    return np.sum(x)\n"
    assert absence_paths(clean) == []


def test_no_module_keeps_a_path_for_missing_numpy():
    offenders = {
        str(path.relative_to(SRC)): found
        for path in sorted(SRC.rglob("*.py"))
        if (found := absence_paths(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}
