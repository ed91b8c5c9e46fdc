"""Every name a module exports in ``__all__``, and every name the package
imports into ``allocore``, resolves: a deletion that leaves a stale export
fails here instead of at ``from allocore.<module> import *``. No module
imports an underscore name from a sibling."""

import ast
import importlib
import os
import pkgutil

import pytest

import allocore

MODULES = [m.name for m in pkgutil.iter_modules(allocore.__path__)
           if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"allocore.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_imports_resolve():
    with open(os.path.join(os.path.dirname(allocore.__file__), "__init__.py")) as f:
        tree = ast.parse(f.read())
    imports = [node for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"allocore.{node.module}")
        names = [alias.name for alias in node.names]
        assert [n for n in names if not hasattr(module, n)] == []
        assert all(getattr(allocore, n) is getattr(module, n) for n in names)


def test_no_private_names_imported_across_modules():
    # a name with a leading underscore belongs to its module; a sibling
    # that needs it needs a public name
    src = os.path.dirname(allocore.__file__)
    private = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name)) as f:
            tree = ast.parse(f.read())
        private += [(name, node.module, alias.name) for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level and node.module
                    for alias in node.names if alias.name.startswith("_")]
    assert private == []
