"""Count the code lines of the convexmorph package, per module and in total.

A code line is a line that holds a code token: blank lines, comment lines and
the lines of module, class and function docstrings do not count. A line that
holds code and a trailing comment counts once, and every line of a string
that is not a docstring counts.

    python3 tools/code_lines.py            # src/convexmorph of this checkout
    python3 tools/code_lines.py DIR        # the .py files directly under DIR
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_starts(source: str):
    """The (line, column) where each module, class and function docstring
    starts."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of lines of source that hold a code token."""
    docs = _docstring_starts(source)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE:
            continue
        if tok.type == tokenize.STRING and tok.start in docs:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv):
    root = Path(argv[1]) if len(argv) > 1 else (
        Path(__file__).resolve().parents[1] / "src" / "convexmorph")
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:24} {count:6,}")
    print(f"{'total':24} {total:6,}")


if __name__ == "__main__":
    main(sys.argv)
