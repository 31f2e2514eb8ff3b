"""Print the code lines of each ``src/corfuse`` module and their total.

A line counts unless it is blank, holds only a comment, or lies inside a
module, class or function docstring (found with ``ast``).  Other string
literals, decorators and signatures count as code.

    python tools/loc.py              # the package
    python tools/loc.py path/to/dir  # the .py files of another directory
"""
from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based line numbers that module, class and function docstrings span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that count as code (see the module docstring)."""
    skip = docstring_lines(ast.parse(source))
    return sum(1 for number, line in enumerate(source.splitlines(), 1)
               if number not in skip and line.strip() and not line.lstrip().startswith("#"))


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory", nargs="?", type=Path, default=ROOT / "src" / "corfuse")
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(args.directory.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
