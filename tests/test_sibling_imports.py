"""Every name a library module imports from a sibling module is used there,
and every private function or class the library defines is used somewhere
in it.

A name counts as used when the module reads it anywhere outside the import
(annotations included) or lists it in ``__all__``. An import left behind by
a deleted call fails here, and so does a private helper left behind by one.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rallypoint"
MODULES = sorted(PACKAGE.glob("*.py"))

# Names a module imports only to re-export them. The benchmark binds
# ``multi_venue.sso_admits``, the paper's admission test, which no search
# applies.
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


def test_private_definitions_are_used():
    # A private ``_name`` function or class (methods included, dunders not)
    # is used when some module of the package reads the name, as a name or
    # an attribute, anywhere outside its definition.
    defined = {}
    used = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined[node.name] = path.name
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert defined
    orphans = sorted(f"{module}:{name}" for name, module in defined.items() if name not in used)
    assert orphans == []
