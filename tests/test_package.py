"""Tooling checks on the package's public surface."""

import ast
import importlib
import json
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import optbench

REPO = Path(__file__).resolve().parents[1]
LAYER_MAP = json.loads((REPO / "perfbench" / "layer_map.json").read_text())
MODULES = [optbench] + [importlib.import_module(f"optbench.{info.name}")
                        for info in pkgutil.iter_modules(optbench.__path__)]
SRC_TREES = [ast.parse(path.read_text())
             for path in sorted(Path(optbench.__file__).parent.glob("*.py"))]
# Public names whose only callers are tests. The acceptance gate reads both:
# criterion 6 loads every study file of the protocol run with load_study_json,
# and criterion 7 checks each study's best_so_far, so both stay until a src/
# caller lands (ROADMAP item 6).
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
    reads = [(node.id if isinstance(node, ast.Name) else node.attr, node)
             for tree in SRC_TREES for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)]
    uncalled = set()
    for tree in SRC_TREES:
        for qualified, name, definition in public_definitions(tree):
            inside = {id(node) for node in ast.walk(definition)}
            if not any(read == name and id(node) not in inside for read, node in reads):
                uncalled.add(qualified)
    assert uncalled == WITHOUT_SRC_CALLER


def dataclass_definitions(tree):
    """Each class in one module's syntax tree whose decorators include
    ``dataclass``, bare, called or as ``dataclasses.dataclass``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
            if any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass"
                   for d in decorators):
                yield node


def test_every_record_field_is_read_in_src():
    # aim 2 for record fields: each annotated field of a src/ dataclass is read
    # as an attribute of its name somewhere in src/, outside its own class's
    # __post_init__, so a field that only tests read cannot come back unnoticed
    attribute_reads = [node for tree in SRC_TREES for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
    fields, unread = [], []
    for tree in SRC_TREES:
        for cls in dataclass_definitions(tree):
            checks = {id(node) for item in cls.body
                      if isinstance(item, ast.FunctionDef) and item.name == "__post_init__"
                      for node in ast.walk(item)}
            reads = {node.attr for node in attribute_reads if id(node) not in checks}
            names = [item.target.id for item in cls.body if isinstance(item, ast.AnnAssign)]
            fields += [f"{cls.name}.{name}" for name in names]
            unread += [f"{cls.name}.{name}" for name in names if name not in reads]
    assert "SplitResult.test" in fields  # the scan finds the records
    assert unread == []


def test_readme_python_examples_run():
    # README's library examples are run as written, so a renamed or removed name
    # they use fails here rather than in a reader's hands
    blocks = re.findall(r"^```python\n(.*?)^```$", (REPO / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    for i, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {i}", "exec"), {})


def test_failing_hypothesis_test_prints_its_falsifying_example(tmp_path):
    # under the suite's own pytest configuration, where warnings are errors, a
    # failing @given test reports its example rather than ending the session in
    # an INTERNALERROR raised from hypothesis's report hook
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n\n"
        "@settings(database=None)\n"
        "@given(st.integers(0, 10))\n"
        "def test_fails(x):\n"
        "    assert x < 5\n")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(REPO / "pyproject.toml"), "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
