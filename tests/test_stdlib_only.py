"""The library imports nothing outside the standard library and itself."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rallypoint"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported_names(tree):
    """Top-level names of every absolute import in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_modules_are_found():
    assert PACKAGE / "__init__.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_imports_only_stdlib_and_itself(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    allowed = sys.stdlib_module_names | {"rallypoint"}
    assert sorted(set(_imported_names(tree)) - allowed) == []
