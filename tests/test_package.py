"""The package namespace."""

import importlib
import pkgutil
import types

import rowgate


def test_submodules_are_not_shadowed():
    for info in pkgutil.iter_modules(rowgate.__path__):
        importlib.import_module(f"rowgate.{info.name}")
        assert isinstance(getattr(rowgate, info.name), types.ModuleType), info.name
