"""Each module's __all__ lists only names the module itself defines, so no
module re-exports another's name, and a star import of each module works.
The package's __init__ gathers names from the modules by design and is not
one of them.  The package memoizes only the functions that requests reuse."""

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


# each is hit again within one request or across the requests of one
# process; a function whose value each request computes once is not memoized
MEMOIZED = {
    "algebra.is_irreducible",
    "chainring.local_tables_for",
    "cli.build_parser",
    # hit by every census request after the first at its (q, g): on the
    # curve-stats workload, 2 misses and 30 hits per 16-round cycle; the
    # other three workloads request no census
    "curves._census_law",
    "curves._newton_constants",
    "curves._orbit_tables",
    "curves._taylor_table",
    "measure.eta",
    "montecarlo._theory_truncation",
}


def test_memoized_functions_are_the_reused_ones():
    """Every distinct function with cache_clear in the package's modules,
    once under each alias, is one of the memos that requests reuse."""
    memos = set()
    for name in MODULES:
        for value in vars(importlib.import_module(f"cokernel_lab.{name}")).values():
            if callable(getattr(value, "cache_clear", None)):
                memos.add(value)
    found = {f"{fn.__module__.removeprefix('cokernel_lab.')}.{fn.__qualname__}" for fn in memos}
    assert found == MEMOIZED
    assert len(memos) == len(MEMOIZED)
