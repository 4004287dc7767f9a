"""Count the code lines of ``src/repro``: no blanks, comments or docstrings.

A line counts when a token other than a comment, a newline or an
indentation marker touches it, and it is not part of a module, class or
function docstring.  A multi-line expression therefore counts every line
it spans, and so does a string literal that is not a docstring.

``python tests/codelines.py`` prints the count for this checkout.
``python tests/codelines.py --against <rev>`` also counts ``<rev>``'s
``src/repro``, exported with ``git archive`` (as ``seedaudit.py
--against`` does), and prints both counts and the delta.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import subprocess
import sys
import tarfile
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NOT_CODE = (
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
)
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """Return the number of code lines in one module's source text."""
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


def count_tree(path) -> int:
    """Return the code lines of every ``.py`` file under ``path``."""
    return sum(code_lines(f.read_text()) for f in sorted(Path(path).rglob("*.py")))


def count_rev(rev: str) -> int:
    """Return the code lines of ``rev``'s ``src/repro``, via ``git archive``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src/repro"],
        capture_output=True,
        check=True,
    )
    with tempfile.TemporaryDirectory() as base:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(base, filter="data")
        return count_tree(os.path.join(base, "src", "repro"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--against", metavar="REV",
        help="also count git revision REV and print the delta",
    )
    args = parser.parse_args(argv)
    ours = count_tree(ROOT / "src" / "repro")
    if not args.against:
        print(ours)
        return 0
    try:
        theirs = count_rev(args.against)
    except subprocess.CalledProcessError as exc:
        sys.stderr.write(exc.stderr.decode(errors="replace"))
        return 2
    print(f"src/repro code lines: {theirs} at {args.against}, {ours} here "
          f"({ours - theirs:+d})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
