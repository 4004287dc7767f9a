"""Documentation must execute: doctests over README and the docs/ guides.

Every ``>>>`` block in the markdown files runs here (and again in the CI
docs job), so a signature change that invalidates an example fails the
build instead of silently rotting the docs.
"""

from __future__ import annotations

import doctest
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = ["README.md", "docs/architecture.md", "docs/api.md"]


@pytest.mark.parametrize("relpath", DOC_FILES)
def test_documentation_examples_run(relpath):
    path = ROOT / relpath
    assert path.exists(), f"{relpath} is part of the documented surface"
    failures, tests = doctest.testfile(
        str(path),
        module_relative=False,
        optionflags=doctest.NORMALIZE_WHITESPACE,
    )
    assert tests > 0, f"{relpath} should contain runnable examples"
    assert failures == 0, f"{failures} doctest failure(s) in {relpath}"


def test_docs_mention_every_layer():
    """The README's API tour must cover the whole stack."""
    readme = (ROOT / "README.md").read_text()
    for token in ["repro.core", "repro.batch", "repro.shard", "repro.serve"]:
        assert token in readme
    for link in ["PAPER.md", "DESIGN.md", "docs/architecture.md", "docs/api.md"]:
        assert link in readme, f"README must link {link}"


def test_wire_table_lists_every_served_op():
    """docs/api.md's wire table names exactly the ops the server answers."""
    from repro.serve.ops import OPS

    text = (ROOT / "docs/api.md").read_text()
    table = text.split("| `op` | Fields | Result |", 1)[1].split("\n\n", 1)[0]
    assert re.findall(r"^\| `(\w+)` \|", table, re.MULTILINE) == list(OPS)


def test_kinds_table_lists_every_structure_kind():
    """docs/api.md's kinds table has one honest row per ``KINDS`` entry."""
    from repro.core.kinds import KINDS

    text = (ROOT / "docs/api.md").read_text()
    table = text.split("| Kind | Class |", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(
        r"^\| `([\w-]+)` \| `(\w+)` \| (yes|no) \| (yes|no) \| ([^|]+) \|",
        table,
        re.MULTILINE,
    )

    def yes(flag):
        return "yes" if flag else "no"

    assert [(n, c, w, u, p.strip()) for n, c, w, u, p in rows] == [
        (name, kind.cls.__name__, yes(kind.weighted), yes(kind.updatable),
         "f8" if kind.f64_only else "f4, f8")
        for name, kind in KINDS.items()
    ]
