"""Every name a module of the package imports is used in that module.
The package's __init__ is exempt: its imports are the public names it
re-exports. The modules postpone annotations, so an annotation names
what it uses unquoted and counts as a use. Rewrite steps serve decide's
trace only: the certificates compile 2-cells from merge links. Only the
weakening turns objects into terms, and every private helper has a
caller. A presentation's flavor is checked where the presentation is
built, and the closure and its readers take what it determines from
it."""

import ast
from collections import Counter

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


@pytest.mark.parametrize("name", ["weakcat.py", "strictify.py"])
def test_certificates_use_no_rewrite_steps(name):
    text = (ROOT / "src/operad_workbench" / name).read_text(encoding="utf-8")
    assert "RewriteStep" not in _imported_names(ast.parse(text))
    assert ".explain(" not in text


def _references(node: ast.AST) -> Counter:
    return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr
                   for sub in ast.walk(node)
                   if isinstance(sub, (ast.Name, ast.Attribute)))


@pytest.mark.parametrize("name", ["weakcat.py", "strictify.py"])
def test_only_the_weakening_turns_objects_into_terms(name):
    tree = ast.parse((ROOT / "src/operad_workbench" / name).read_text(
        encoding="utf-8"))
    assert {"to_term", "to_term_alpha"}.isdisjoint(_references(tree))
    assert "_as_term" not in {node.name for node in ast.walk(tree)
                              if isinstance(node, ast.FunctionDef)}
    assert "WeakObject" not in _imported_names(tree)


def test_every_private_definition_has_a_caller():
    """A private function, class or method is named somewhere in the
    package outside its own definition, which recursion does not count."""
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in (ROOT / "src/operad_workbench").glob("*.py")]
    everywhere = sum(map(_references, trees), Counter())
    private = [node for tree in trees for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.endswith("__")]
    assert private
    assert [node.name for node in private
            if everywhere[node.name] == _references(node)[node.name]] == []


def _functions(tree: ast.Module):
    """Every module-level function and method, with its qualified name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item) for item in node.body
                        if isinstance(item, ast.FunctionDef))


def test_flavors_are_checked_only_where_a_presentation_is_built():
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in (ROOT / "src/operad_workbench").glob("*.py")]
    callers = Counter({name: _references(node)["_check_flavor"]
                       for tree in trees for name, node in _functions(tree)})
    assert +callers == Counter({"Presentation.__post_init__": 1,
                                "parse_presentation": 1})
    assert sum(_references(tree)["_check_flavor"] for tree in trees) == 2


def test_the_closure_and_its_readers_take_no_flavor_equations_or_path():
    params = {name.rpartition(".")[2]: {arg.arg for arg in
                                        node.args.args + node.args.kwonlyargs}
              for path in MODULES
              for name, node in _functions(ast.parse(path.read_text(
                  encoding="utf-8")))}
    for name in ("closure_saturate", "path_arrow", "link_arrow"):
        assert params[name].isdisjoint({"flavor", "equations", "path"}), name
