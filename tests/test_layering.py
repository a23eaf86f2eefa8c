"""The layering rule: no module of the package reaches into another
module's private names.  A module may not import a ``_``-name from
another package module, nor read a ``_``-prefixed attribute that it does
not define itself.  Tests and the benchmark are exempt.  The benchmark's
tracer reaches the layers from outside, by module name, so it must find
every module it names and put back every binding it wraps."""

import ast
import importlib
import pathlib
import sys

import pytest

from conftest import perfbench_module

SRC = pathlib.Path(__file__).parents[1] / "src" / "flagposet"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def private_reaches(source: str) -> list[str]:
    """The private names that ``source``, a package module, takes from
    elsewhere in the package, in order of appearance."""
    tree = ast.parse(source)
    own = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            own.add(node.name)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                           ast.Load):
            own.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx,
                                                                ast.Load):
            own.add(node.attr)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0]
                == "flagposet"):
            out += [f"import {a.name}" for a in node.names
                    if _private(a.name)]
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)
              and _private(node.attr) and node.attr not in own):
            out.append(f"attribute {node.attr}")
    return out


@pytest.mark.parametrize("source, found", [
    ("from .posets import _helper, Poset\n", ["import _helper"]),
    ("from flagposet.characterize import _bits\n", ["import _bits"]),
    ("from . import _kernel_py\n", ["import _kernel_py"]),
    ("def f(p):\n    return p._children\n", ["attribute _children"]),
    ("import flagposet.covers as c\nc._helper(None)\n",
     ["attribute _helper"]),
    ("class A:\n    def __init__(self):\n        self._x = 1\n"
     "    def g(self, other):\n        return self._x + other._x\n", []),
    ("from .posets import Poset\nfrom os import _exit\n"
     "def f(g):\n    return g.__class__, g.__wrapped__\n", []),
])
def test_private_reaches_finds_the_reach(source, found):
    assert private_reaches(source) == found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_module_reaches_into_another(path):
    assert private_reaches(path.read_text()) == []


def _bindings():
    """Every module-level binding of the loaded package modules."""
    return {(name, attr): value
            for name, module in list(sys.modules.items())
            if name.split(".")[0] == "flagposet"
            for attr, value in list(vars(module).items())}


def test_benchmark_tracer_installs_and_uninstalls():
    # the benchmark's tracer imports every module it names as a layer
    # and wraps its public functions wherever they are bound; a module
    # it names that is gone, or a binding left wrapped, fails here
    layertrace = perfbench_module("layertrace")
    for names in layertrace.LAYERS.values():
        for name in names:
            importlib.import_module(name)
    before = _bindings()
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        wrapped = [key for key, value in _bindings().items()
                   if value is not before.get(key)]
        assert ("flagposet.homology", "full_betti_table") in wrapped
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
