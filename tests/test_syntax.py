"""Every Python file of the package, its tests and the benchmark harness
parses under the grammar of Python 3.10, the floor that pyproject.toml
declares, on whatever Python runs the tests.

This checks grammar only (ast.parse with feature_version): a call to a
standard-library API newer than 3.10 parses fine and is not caught here.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests", "perfbench")
               for p in (ROOT / d).rglob("*.py"))


def test_floor_is_the_declared_one():
    text = (ROOT / "pyproject.toml").read_text()
    assert 'requires-python = ">=3.10"' in text


@pytest.mark.parametrize("path", FILES,
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize("source", [
    "try:\n    pass\nexcept* ValueError:\n    pass\n",
    "type Vector = list[float]\n",
    "def first[T](xs: list[T]) -> T:\n    return xs[0]\n",
])
def test_newer_grammar_is_rejected(source):
    # except*, type aliases and PEP 695 generics came after 3.10
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))
