"""Static checks on the package source that need no linter."""

import ast
from pathlib import Path

import pytest

import hpm

MODULES = sorted(p for p in Path(hpm.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
TESTS = sorted(Path(__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    """Each name a package module or a test file imports (but `from
    __future__`) occurs as a Name elsewhere in it; the package's
    `__init__.py` re-exports and is exempt."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{path.name}:{line}: {name}" for name, line in imported.items()
              if name not in used]
    assert not unused, unused


def test_every_exported_name_resolves():
    missing = [name for name in hpm.__all__ if not hasattr(hpm, name)]
    assert not missing, missing
