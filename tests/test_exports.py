"""Every exported name resolves: each module's __all__, the package's
re-exports and the bindings the benchmark's tracer wraps, so a deleted or
moved function cannot leave a stale name behind."""

import ast
import importlib
import pathlib
import pkgutil
import sys
import types

import pytest

import diracosc
from diracosc import dirac_solver, linalg, susy_reduction
from diracosc.model import Grid

from conftest import linear_params

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


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and neither reads nor lists in __all__."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    # an attribute's base is a Name too
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported = set(ast.literal_eval(node.value))
    return [name for name in imported if name not in read | exported]


def test_unused_imports_are_found():
    source = "from .errors import A, B\nimport numpy as np\n__all__ = ['B']\nnp.zeros(A)\n"
    assert _unused_imports(source) == []
    assert _unused_imports(source.replace("np.zeros(A)", "A")) == ["np"]


@pytest.mark.parametrize("path", sorted(
    path.name for path in pathlib.Path(diracosc.__file__).parent.glob("*.py")
    if path.name != "__init__.py"))
def test_module_reads_every_name_it_imports(path):
    source = (pathlib.Path(diracosc.__file__).parent / path).read_text(encoding="utf-8")
    assert _unused_imports(source) == []


def test_every_traced_layer_keeps_a_binding(monkeypatch):
    # perfbench/layers.py wraps each kind's (module, attribute) bindings; a
    # kind with none left is reported absent, and its per-layer metrics drop
    # out of the traced result. The file is read and run, never imported, so
    # no bytecode is written beside it
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    layers = types.ModuleType("perfbench_layers")
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, layers.__name__, layers)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), layers.__dict__)
    unbound = [kind for kind, targets in layers.TARGETS.items()
               if not any(callable(getattr(getattr(diracosc, module, None), attr, None))
                          for module, attr in targets)]
    assert layers.TARGETS and not unbound


def test_production_counts_go_through_the_traced_sturm_count(monkeypatch):
    # the tracer's linalg.sturm layer wraps these two bindings; a count made
    # through any other name would leave it reading 0
    callers = set()
    for module in (linalg, dirac_solver):
        def counted(t, lams, _count=module.sturm_count, _module=module):
            callers.add(_module)
            return _count(t, lams)

        monkeypatch.setattr(module, "sturm_count", counted)
    dirac_solver._converge_cached.cache_clear()
    susy_reduction._solve_level_cached.cache_clear()
    dirac_solver.converge_box_full(linear_params(0.3), 2, grid=Grid(half_width=10.0, n=300))
    susy_reduction.solve_nonlinear_level(linear_params(0.3), -1, 1,
                                         grid=Grid(half_width=10.0, n=300))
    dirac_solver._converge_cached.cache_clear()
    susy_reduction._solve_level_cached.cache_clear()
    assert callers == {linalg, dirac_solver}
