"""Every module of the package imports first in a fresh interpreter, and
the package's own imports form no cycle.

A module-level name import along a cycle (say `from .multigrid import
Multigrid` in finefem, which multigrid imports) fails or not by the order
in which the cycle's modules first load, and no in-process test can see
it: there the modules are already cached.  Importing `legmsfem.<m>` does
not load <m> first either, since the package `__init__` imports every
module in its own order before it.  So each child puts a stub `legmsfem`
package in `sys.modules`, with the source directory as its `__path__`,
so `__init__` never runs, and imports its module through it: a few
children at a time.  The intra-package imports are also read from the
source, in process, and must form an acyclic graph, so no first-import
order can meet a half-initialised module.
"""

import ast
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "legmsfem"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")

# argv: the package directory and the module to import first
CHILD = """
import importlib, sys, types
stub = types.ModuleType("legmsfem")
stub.__path__ = [sys.argv[1]]
sys.modules["legmsfem"] = stub
importlib.import_module("legmsfem." + sys.argv[2])
"""


def package_imports(source: str) -> set[str]:
    """The package modules a module's source imports, at any depth: `from
    . import a, b` and `from .a import x` both import a."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                out.update(alias.name for alias in node.names)
            else:
                out.add(node.module.split(".")[0])
    return out


def import_graph() -> dict[str, set[str]]:
    return {m: package_imports((PACKAGE / f"{m}.py").read_text())
            for m in MODULES}


@pytest.fixture(scope="module")
def fresh_imports():
    """The completed child of each module, by module name."""

    def run(module):
        return subprocess.run(
            [sys.executable, "-c", CHILD, str(PACKAGE), module],
            capture_output=True, text=True)

    with ThreadPoolExecutor(max_workers=4) as pool:
        return dict(zip(MODULES, pool.map(run, MODULES)))


def test_every_module_is_listed():
    assert {"finefem", "multigrid"} <= set(MODULES)
    # the graph reads a module import, a name import and an import in a
    # function body
    graph = import_graph()
    assert "multigrid" in graph["localbasis"] and "mesh" in graph["errors"]
    assert "polybasis" in graph["cli"]


@pytest.mark.parametrize("module", MODULES)
def test_imports_first_in_a_fresh_interpreter(fresh_imports, module):
    proc = fresh_imports[module]
    assert proc.returncode == 0, proc.stderr


def test_package_imports_form_no_cycle():
    graph = import_graph()
    assert set().union(*graph.values()) <= set(MODULES)
    try:
        order = list(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")
    assert sorted(order) == MODULES
