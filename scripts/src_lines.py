"""Count the lines of code in rep3's source modules, docstrings aside.

From the root of a rep3 checkout:

    python3 scripts/src_lines.py

Each .py file under src/ is parsed and written back with ast.unparse,
with its module, class and function docstrings dropped; the non-blank
lines of what remains are counted.  So comments, blank lines and line
wrapping do not count, and a change to them moves no figure.  One line
per module, then the total.  Standard library only.
"""

import ast
import sys
from pathlib import Path

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(source: str) -> int:
    """The non-blank lines of source unparsed, docstrings dropped."""
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            # a body left empty by the drop needs a statement to unparse
            node.body = node.body[1:] or [ast.Pass()]
    return sum(1 for line in ast.unparse(tree).splitlines() if line.strip())


def main() -> int:
    root = Path("src")
    total = 0
    for path in sorted(root.rglob("*.py")):
        lines = count(path.read_text(encoding="utf-8"))
        total += lines
        print(f"{lines:6}  {path.relative_to(root)}")
    print(f"{total:6}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
