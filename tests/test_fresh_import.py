"""Every module of the package imports first in a fresh interpreter.

finefem and multigrid import each other as modules and read each other's
names at call time.  A module-level name import between them (say
`from .finefem import Stencil` in multigrid) would break that cycle, and
no in-process test can see it: there the modules are already cached.  So
each module is imported first in a child `python -c "import legmsfem.<m>"`
with src on PYTHONPATH, a few children at a time.
"""

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(p.stem for p in (SRC / "legmsfem").glob("*.py")
                 if p.stem != "__init__")


@pytest.fixture(scope="module")
def fresh_imports():
    """The completed child of each module, by module name."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(module):
        return subprocess.run(
            [sys.executable, "-c", f"import legmsfem.{module}"],
            env=env, capture_output=True, text=True)

    with ThreadPoolExecutor(max_workers=4) as pool:
        return dict(zip(MODULES, pool.map(run, MODULES)))


def test_every_module_is_listed():
    assert {"finefem", "multigrid"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_imports_first_in_a_fresh_interpreter(fresh_imports, module):
    proc = fresh_imports[module]
    assert proc.returncode == 0, proc.stderr
