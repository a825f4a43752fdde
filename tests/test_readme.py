"""The README's library example runs and prints what the README shows."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The first ```python block under the README's ``## Library`` heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"^```python\n(.*?)^```$", section, re.MULTILINE | re.DOTALL).group(1)


def test_library_example_prints_the_isolated_triangle():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_example(), str(README), "exec"), {})
    # the triangle a b c is isolated at ell 1 (one edge, a-d, leaves it);
    # the edge a-d is not (two edges leave it), and nothing is pruned
    assert out.getvalue().splitlines() == ["['a b c']", "5 Counter() 1"]
