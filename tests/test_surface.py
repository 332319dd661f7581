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


# Each rule that several modules once built by hand has one home, which every
# site calls; a second place that builds the rule's message is a second rule.
RULE_HOMES = {
    "feature count": ("core.py", "_check_feature_count"),
    "field that does not apply": ("core.py", "_refuse_given"),
    "whitespace header cell count": ("datagen.py", "_read_header"),
}


def _rule_built_by(node):
    """The rule of RULE_HOMES whose message or count node builds, else None."""
    if isinstance(node, ast.JoinedStr):
        text = "".join(v.value for v in node.values if isinstance(v, ast.Constant))
        if " features, got " in text:
            return "feature count"
        if " does not apply " in text:
            return "field that does not apply"
    # len(text.split()): the cells of a line split on whitespace, counted
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "len"
            and len(node.args) == 1 and isinstance(call := node.args[0], ast.Call)
            and isinstance(call.func, ast.Attribute) and call.func.attr == "split"
            and not call.args and not call.keywords):
        return "whitespace header cell count"
    return None


def test_each_shared_rule_is_built_in_one_place():
    sites = {rule: [] for rule in RULE_HOMES}

    def scan(node, where):
        # where is the innermost function around node, or <module>
        for child in ast.iter_child_nodes(node):
            if rule := _rule_built_by(child):
                sites[rule].append(where)
            scan(child, (where[0], child.name) if isinstance(child, ast.FunctionDef) else where)

    for path in sorted(Path(acir.__file__).parent.glob("*.py")):
        scan(ast.parse(path.read_text(), str(path)), (path.name, "<module>"))
    assert sites == {rule: [home] for rule, home in RULE_HOMES.items()}


def _sites(predicate):
    """(site, node) for every node of the library that predicate holds for; a
    site is the file and the dotted name of the innermost class or function
    around the node, or <module>."""
    found = []

    def scan(node, path, where):
        for child in ast.iter_child_nodes(node):
            if predicate(child):
                found.append(((path.name, ".".join(where) or "<module>"), child))
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef))
            scan(child, path, (*where, child.name) if named else where)

    for path in sorted(Path(acir.__file__).parent.glob("*.py")):
        scan(ast.parse(path.read_text(), str(path)), path, ())
    return found


def _model_attribute(node):
    """Whether node reads an attribute named weights or phi, or its ``.T``."""
    if isinstance(node, ast.Attribute) and node.attr == "T":
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr in ("weights", "phi")


def _operands(node):
    """The operands of a matrix product, ``@`` or a dot call, else ()."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
        return node.left, node.right
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("dot", "matmul")):
        return node.func.value, *node.args
    return ()


def _calls_sorted_quantile(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "sorted_conformal_quantile")


def test_the_model_owns_its_products_and_a_state_reads_quantiles_in_one_place():
    # centres and representations come from LinearIRMModel.predict and
    # .represent, and a calibration state reads every quantile, pooled and
    # per environment, in the one method that fills its per-alpha memo
    aliases = {(site, target.id)  # names bound to weights or phi, as s = model.weights
               for site, node in _sites(lambda n: isinstance(n, ast.Assign)
                                        and _model_attribute(n.value))
               for target in node.targets if isinstance(target, ast.Name)}
    products = {site for site, node in _sites(_operands)
                if any(_model_attribute(n) or isinstance(n, ast.Name) and (site, n.id) in aliases
                       for operand in _operands(node) for n in ast.walk(operand))}
    assert products == {("models.py", "LinearIRMModel.predict"),
                        ("models.py", "LinearIRMModel.represent")}
    reads = [site for site, _ in _sites(_calls_sorted_quantile) if site[0] == "conformal.py"]
    assert reads == [("conformal.py", "CalibrationState._quantiles")]
