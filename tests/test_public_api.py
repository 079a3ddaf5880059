"""Guards on the public API: stale names left behind by a deletion break
`from ergosmp.<module> import *` and tools that walk `__all__`."""

import ast
import importlib
import inspect

import pytest

import ergosmp

MODULES = ["model", "config", "forward", "adjoint", "ergodic_cost", "duality", "smp", "verify", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"ergosmp.{name}")
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert not missing, f"ergosmp.{name}.__all__ names missing attributes: {missing}"


def test_package_reexports_are_public_names():
    imports = [
        node for node in ast.walk(ast.parse(inspect.getsource(ergosmp)))
        if isinstance(node, ast.ImportFrom) and node.level == 1
    ]
    assert imports
    for node in imports:
        module = importlib.import_module(f"ergosmp.{node.module}")
        for alias in node.names:
            assert hasattr(ergosmp, alias.asname or alias.name)
            assert alias.name in module.__all__, f"ergosmp.{node.module}.{alias.name} is re-exported but not in __all__"
