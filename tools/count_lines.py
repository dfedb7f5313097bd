"""Print the total and code lines of each module under src/tailmoments, and its public names.

Code lines are the lines that hold a token of a statement: blank lines,
comment lines and the lines of module, class and function docstrings do not
count.  The last line gives the number of names in the package's
``__all__``, imported from the package directory counted.  Run from anywhere:

    python3 tools/count_lines.py [package directory]
"""

from __future__ import annotations

import ast
import importlib
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tailmoments"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers covered by the docstrings of the module, its classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    docs = docstring_lines(ast.parse(source))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - docs)


def public_names(package: Path) -> int:
    """The length of ``__all__`` of the package in ``package``, imported from there."""
    sys.path.insert(0, str(package.resolve().parent))
    return len(importlib.import_module(package.resolve().name).__all__)


def main(argv: list[str]) -> int:
    package = Path(argv[1]) if len(argv) > 1 else PACKAGE
    totals = [0, 0]
    print(f"{'module':<16} {'lines':>6} {'code':>6}")
    for path in sorted(package.glob("*.py")):
        lines, code = count(path.read_text())
        totals[0] += lines
        totals[1] += code
        print(f"{path.stem:<16} {lines:>6} {code:>6}")
    print(f"{'total':<16} {totals[0]:>6} {totals[1]:>6}")
    print(f"{'__all__':<16} {public_names(package):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
