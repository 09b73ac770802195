"""The traced benchmark child wraps package attributes by name; every name
it lists must still exist where it looks for it."""

import importlib.util
from pathlib import Path

TRACED_PY = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"


def test_traced_names_exist():
    spec = importlib.util.spec_from_file_location("perfbench_traced",
                                                  TRACED_PY)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    assert traced.TRACED
    for owner, attr, name in traced.TRACED:
        assert attr in owner.__dict__, f"{name}: {owner.__name__}.{attr}"
        assert callable(owner.__dict__[attr])
