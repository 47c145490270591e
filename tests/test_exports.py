"""Every exported name resolves: each module's __all__ and the package's
re-exports, so a deleted function cannot leave a stale export behind."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import diracosc

MODULES = [m.name for m in pkgutil.iter_modules(diracosc.__path__) if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"diracosc.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_package_reexports_resolve():
    tree = ast.parse(pathlib.Path(diracosc.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        for alias in node.names:
            source = (
                importlib.import_module(f"diracosc.{node.module}")
                if node.module else diracosc
            )
            bound = alias.asname or alias.name
            assert getattr(diracosc, bound) is getattr(source, alias.name)
