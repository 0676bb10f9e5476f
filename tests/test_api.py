"""The public surface: each module's __all__ and the package's exports."""

import importlib
import types

import pytest

import infoprice

MODULES = ("model", "quadrature", "optimize", "agents", "simulate", "pricing")


def module_all(name: str) -> dict:
    mod = importlib.import_module(f"infoprice.{name}")
    return {n: getattr(mod, n, None) for n in mod.__all__}


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    assert [n for n, obj in module_all(name).items() if obj is None] == []


def test_package_exports_are_listed_in_their_module_all():
    listed = {}
    for name in MODULES:
        listed.update(module_all(name))
    exports = {n: obj for n, obj in vars(infoprice).items()
               if not n.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert exports
    assert [n for n, obj in exports.items() if listed.get(n) is not obj] == []
