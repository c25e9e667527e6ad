"""Every name a module of the package imports is used in that module.
The package's __init__ is exempt: its imports are the public names it
re-exports. The modules postpone annotations, so an annotation names
what it uses unquoted and counts as a use."""

import ast

import pytest
from conftest import ROOT

MODULES = sorted(path for path in (ROOT / "src/operad_workbench").glob("*.py")
                 if path.name != "__init__.py")


def _imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.partition(".")[0]
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_uses(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name in _imported_names(tree) if name not in used] == []
