"""Each module's __all__ lists only names the module itself defines, so no
module re-exports another's name, and a star import of each module works.
The package's __init__ gathers names from the modules by design and is not
one of them."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import cokernel_lab

MODULES = sorted(m.name for m in pkgutil.iter_modules(cokernel_lab.__path__))


def _top_level_definitions(module) -> set:
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_defined_in_their_module(name):
    module = importlib.import_module(f"cokernel_lab.{name}")
    exported = getattr(module, "__all__", [])
    assert set(exported) <= _top_level_definitions(module), name
    namespace = {}
    exec(f"from cokernel_lab.{name} import *", namespace)
    assert set(exported) <= set(namespace)
