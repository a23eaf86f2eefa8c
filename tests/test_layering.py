"""The layering rule: no module of the package reaches into another
module's private names.  A module may not import a ``_``-name from
another package module, nor read a ``_``-prefixed attribute that it does
not define itself.  It imports package modules only at module top,
never inside a function or method body, and the package's imports form
no cycle.  Tests and the benchmark are exempt.  The benchmark's tracer
reaches the layers from outside, by module name, so it must find every
module it names and put back every binding it wraps."""

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


def _in_package(module: str | None) -> bool:
    return (module or "").split(".")[0] == "flagposet"


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
        if isinstance(node, ast.ImportFrom) and (node.level
                                                 or _in_package(node.module)):
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


def function_imports(source: str) -> list[str]:
    """The package imports that ``source`` makes inside a function or
    method body, each as ``"<innermost function>: <import>"``, in order
    of appearance."""
    out = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if func is not None and isinstance(child, ast.ImportFrom) and (
                    child.level or _in_package(child.module)):
                out.append(f"{func}: from {'.' * child.level}"
                           f"{child.module or ''}")
            elif func is not None and isinstance(child, ast.Import):
                out.extend(f"{func}: import {a.name}" for a in child.names
                           if _in_package(a.name))
            visit(child, func)

    visit(ast.parse(source), None)
    return out


@pytest.mark.parametrize("source, found", [
    ("from .posets import Poset\nfrom . import kernel\n"
     "import flagposet.covers\n", []),
    ("def f():\n    from .covers import check_cover_budget\n",
     ["f: from .covers"]),
    ("def f():\n    from flagposet import covers\n"
     "    import flagposet.kernel as k\n",
     ["f: from flagposet", "f: import flagposet.kernel"]),
    ("class A:\n    def m(self):\n        from . import homology\n",
     ["m: from ."]),
    ("def f():\n    def g():\n        if True:\n"
     "            from .ideals import flag_ideal\n",
     ["g: from .ideals"]),
    ("def f():\n    import json\n    from os import path\n"
     "    import flagposet_extra\n", []),
])
def test_function_imports_finds_the_import(source, found):
    assert function_imports(source) == found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_function_imports_the_package(path):
    assert function_imports(path.read_text()) == []


def package_imports(source: str) -> set[str]:
    """The package modules that ``source`` imports, anywhere in it."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            out |= ({node.module.split(".")[0]} if node.module
                    else {a.name for a in node.names})
        elif isinstance(node, ast.ImportFrom) and _in_package(node.module):
            out |= ({node.module.split(".")[1]} if "." in node.module
                    else {a.name for a in node.names})
        elif isinstance(node, ast.Import):
            out |= {a.name.split(".")[1] for a in node.names
                    if _in_package(a.name) and "." in a.name}
    return out


def test_package_imports_run_one_way():
    # posets -> covers -> ideals -> homology -> characterize -> cli: the
    # modules can be ordered so that each imports only earlier ones
    deps = {path.stem: package_imports(path.read_text())
            for path in SRC.glob("*.py") if path.stem != "__init__"}
    done: list[str] = []
    while len(done) < len(deps):
        ready = sorted(m for m, d in deps.items()
                       if m not in done and d <= set(done))
        assert ready, f"import cycle among {sorted(set(deps) - set(done))}"
        done += ready
    assert done.index("ideals") < done.index("characterize")


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
