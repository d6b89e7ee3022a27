#!/usr/bin/env python3
"""Count the code lines of every Python module under each directory given.

    python3 scripts/code_lines.py src/
    python3 scripts/code_lines.py src/ ../parent-checkout/src/

A code line holds something other than whitespace and is neither a comment
line nor part of a docstring (the string that opens a module, class or
function body). Lines inside any other string count, whatever they hold. For
each directory it prints one line per module, its count and its path below
the directory, then the directory's total.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import List, Set


def _docstring_lines(tree: ast.AST) -> Set[int]:
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _string_lines(tree: ast.AST) -> Set[int]:
    """Lines after the first of each multi-line string, where a '#' or a
    blank line is part of the string."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Constant, ast.JoinedStr)) and node.end_lineno > node.lineno:
            lines.update(range(node.lineno + 1, node.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    tree = ast.parse(source)
    docstrings = _docstring_lines(tree)
    strings = _string_lines(tree) - docstrings
    count = 0
    for lineno, line in enumerate(source.splitlines(), start=1):
        if lineno in docstrings:
            continue
        text = line.strip()
        if lineno in strings or (text and not text.startswith("#")):
            count += 1
    return count


def main(argv: List[str]) -> int:
    if not argv:
        print("usage: code_lines.py DIR...", file=sys.stderr)
        return 1
    for directory in map(Path, argv):
        total = 0
        for path in sorted(directory.rglob("*.py")):
            count = code_lines(path.read_text(encoding="utf-8"))
            total += count
            print(f"{count:6d}  {path.relative_to(directory)}")
        print(f"{total:6d}  total {directory}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
