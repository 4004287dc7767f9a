"""The code-line counter behind ``tests/codelines.py``."""

from __future__ import annotations

from codelines import code_lines

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line

# a comment line


class Point:
    """Class docstring."""

    def norm(self):
        """Method docstring."""
        total = (
            self.x
            + self.y
        )
        return total


TEXT = """not a docstring:
every line counts"""
'''


def test_counts_code_and_skips_docstrings_comments_and_blanks():
    # import, class, def, the four lines of the expression, return and
    # the two lines of the module-level string.
    assert code_lines(SOURCE) == 10


def test_empty_and_docstring_only_modules_count_zero():
    assert code_lines("") == 0
    assert code_lines('"""Only a docstring."""\n# and a comment\n') == 0
