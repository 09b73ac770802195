"""The README's library example runs as written."""

import contextlib
import io
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The python block under the README's "## Library use" heading."""
    text = README.read_text()
    section = text[text.index("\n## Library use\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_example(), str(README), "exec"), {})
    values = [float(v) for v in out.getvalue().split()]
    assert len(values) == 3 and all(math.isfinite(v) for v in values)
