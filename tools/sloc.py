"""Count the code lines of each module of a package, standard library only.

A line counts unless it is blank, holds only a comment, or lies inside a
docstring (the leading string of a module, class or function body).

    python3 tools/sloc.py               # src/tbtrellis of this checkout
    python3 tools/sloc.py path/to/pkg   # any directory of .py files
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

DEFAULT = Path(__file__).resolve().parents[1] / "src" / "tbtrellis"
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """Line numbers covered by docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            value = first.value if isinstance(first, ast.Expr) else None
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path):
    text = path.read_text()
    skip = docstring_lines(ast.parse(text))
    code = 0
    for i, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        code += bool(stripped) and not stripped.startswith("#") and i not in skip
    return code


def main(argv):
    root = Path(argv[0]) if argv else DEFAULT
    total = 0
    for path in sorted(root.glob("*.py")):
        n = count(path)
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
