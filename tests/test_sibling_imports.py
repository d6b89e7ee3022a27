"""Every name a library module imports from a sibling module is used there.

A name counts as used when the module reads it anywhere outside the import
(annotations included) or lists it in ``__all__``. An import left behind by
a deleted call fails here.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rallypoint"
MODULES = sorted(PACKAGE.glob("*.py"))

# Names a module imports only to re-export them. The benchmark binds
# ``multi_venue.sso_admits``; the engine applies the same test through
# ``admission_edges``.
REEXPORTS = {("multi_venue.py", "sso_admits")}


def _sibling_imports(tree):
    """Local names bound by the module's relative imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                yield alias.asname or alias.name


def _used_names(tree):
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            names |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return names


def test_modules_are_found():
    assert PACKAGE / "multi_venue.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_sibling_imports_are_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used_names(tree)
    unused = [
        name
        for name in _sibling_imports(tree)
        if name not in used and (path.name, name) not in REEXPORTS
    ]
    assert unused == []
