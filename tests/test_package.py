"""Tooling checks on the package's public surface."""

import importlib
import pkgutil

import pytest

import optbench

MODULES = [optbench] + [importlib.import_module(f"optbench.{info.name}")
                        for info in pkgutil.iter_modules(optbench.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
