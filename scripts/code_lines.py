#!/usr/bin/env python3
"""Count the code lines of Python source files: every line that is not
blank, not a comment line and not part of a module, class or function
docstring.  With no arguments it counts src/hkdelay; otherwise the given
files and the *.py files under the given folders.  Prints the total.

    python3 scripts/code_lines.py
    python3 scripts/code_lines.py src/hkdelay/rates.py tests
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hkdelay"


def docstring_lines(tree: ast.Module) -> set:
    """The line numbers of the module's, every class's and every function's docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    return sum(
        1 for number, line in enumerate(source.splitlines(), 1)
        if number not in skip and line.strip() and not line.lstrip().startswith("#")
    )


def python_files(paths):
    for path in map(Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    print(sum(code_lines(path.read_text()) for path in python_files(paths or [PACKAGE])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
