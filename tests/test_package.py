"""Tooling checks on the package's public surface."""

import ast
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
# Public names whose only callers are tests. ROADMAP item 6: item 2's budget
# curve gives best_so_far a caller in src/ and item 4's --resume gives one to
# load_study_json; a name that gets none is deleted.
WITHOUT_SRC_CALLER = {"StudyRecord.best_so_far", "load_study_json"}


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


def public_definitions(tree):
    """(qualified name, name, node) of each public module-level function, class
    and constant, and of each public method, in one module's syntax tree."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, name, node) for name in names if not name.startswith("_"))
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item.name, item) for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_is_the_whole_public_surface(module):
    # every public module-level function, class and constant is exported, and
    # nothing else is
    tree = ast.parse(Path(module.__file__).read_text())
    public = [name for qualified, name, _ in public_definitions(tree) if qualified == name]
    assert sorted(getattr(module, "__all__", ())) == sorted(public)


def test_every_public_name_has_a_caller_in_src():
    # ROADMAP aim 2: no library function exists without a caller. A reference is
    # a name or attribute read anywhere in src/ outside the definition itself;
    # a method matches any attribute of its name, and __all__'s strings are no
    # references.
    trees = [ast.parse(path.read_text())
             for path in sorted(Path(optbench.__file__).parent.glob("*.py"))]
    reads = [(node.id if isinstance(node, ast.Name) else node.attr, node)
             for tree in trees for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)]
    uncalled = set()
    for tree in trees:
        for qualified, name, definition in public_definitions(tree):
            inside = {id(node) for node in ast.walk(definition)}
            if not any(read == name and id(node) not in inside for read, node in reads):
                uncalled.add(qualified)
    assert uncalled == WITHOUT_SRC_CALLER
