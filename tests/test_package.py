"""Tooling checks on the package's public surface."""

import importlib
import json
import pkgutil
from pathlib import Path

import pytest

import optbench

LAYER_MAP = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "layer_map.json").read_text())
MODULES = [optbench] + [importlib.import_module(f"optbench.{info.name}")
                        for info in pkgutil.iter_modules(optbench.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("layer", sorted(LAYER_MAP["layers"]))
def test_layer_map_functions_resolve(layer):
    # the benchmark's tracer records a function it cannot find as absent and
    # goes on, so a rename would silently drop that layer's metrics
    module = importlib.import_module(f"optbench.{layer}")
    missing = [name for name in LAYER_MAP["layers"][layer]["functions"]
               if not callable(getattr(module, name, None))]
    assert missing == []
