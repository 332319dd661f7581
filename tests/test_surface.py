"""The public surface: each library name has one import path, its defining module."""

import ast
import importlib
import inspect
import re
import sys
import types
from pathlib import Path

import pytest

import acir
from acir import core

MODULES = ["acir.core", "acir.datagen", "acir.models", "acir.conformal", "acir.invariance", "acir.bench"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves_to_its_own_definition(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    for export in module.__all__:
        obj = getattr(module, export)
        if isinstance(obj, (type, types.FunctionType)):
            assert obj.__module__ == name, export


def test_the_package_exports_only_its_version_and_submodules():
    for name in MODULES:
        importlib.import_module(name)
    public = [n for n in dir(acir) if not n.startswith("_")]
    assert all(isinstance(getattr(acir, n), types.ModuleType) for n in public), public
    assert isinstance(acir.__version__, str)
    assert not hasattr(acir, "__all__")


def test_only_the_fork_primitive_forks():
    # core._in_two holds the one worker lifecycle and the one fallback; a
    # second place that forks, reaps or hands back through a temporary file
    # would be a second policy
    sources = "".join(path.read_text() for path in Path(acir.__file__).parent.glob("*.py"))
    primitive = inspect.getsource(core._in_two)
    for call in ("os.fork(", "os.waitpid(", "tempfile.TemporaryFile("):
        assert sources.count(call) == primitive.count(call) == 1, call
    # and it alone asks the fork gate: its callers pass only their size test
    gate = re.compile(r"(?<!def )\b_can_fork\(\)")
    assert len(gate.findall(sources)) == len(gate.findall(primitive)) == 1


@pytest.mark.parametrize("path", sorted(Path(acir.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_the_library_imports_only_the_standard_library_and_numpy(path):
    # scipy and the test tools may serve tests and studies, never the library
    allowed = set(sys.stdlib_module_names) | {"numpy", "acir"}
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            assert name.split(".")[0] in allowed, f"{path.name}:{node.lineno} imports {name}"
