import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parents[1] / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring,
over two lines."""

# a comment line
import os  # code with a trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """a string that is
        not a docstring"""
        return text


def g(): """One-line docstring after code on its line."""
'''


def test_code_lines_skips_comments_blanks_and_docstrings():
    # import, class, def f, the two lines of text, return, def g
    assert code_lines.code_lines(SAMPLE) == 7
