"""Print the code lines of each module under src/ and their total.

A code line is a non-blank line that is neither a comment nor part of a
docstring (the string that opens a module, class or function).  Run from
the repository root, or give the source directory:

    python tools/src_lines.py [src]
"""

import ast
import sys
from pathlib import Path


def code_lines(text):
    """The number of code lines in the Python source text."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for n, line in enumerate(text.splitlines(), 1)
               if line.strip() and not line.lstrip().startswith("#")
               and n not in docstrings)


def main(argv):
    root = Path(argv[1] if len(argv) > 1 else "src")
    total = 0
    for path in sorted(root.rglob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print("%5d %s" % (n, path.relative_to(root)))
    print("%5d total" % total)


if __name__ == "__main__":
    main(sys.argv)
