"""README's Library example runs as written and prints what its comments
say it prints."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_library_example_prints_its_comments():
    [block] = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                         re.M | re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    gap, labels, runs = out.getvalue().splitlines()
    comments = [line.split("#", 1)[1].strip()
                for line in block.splitlines() if line.startswith("print(")]
    assert len(comments) == 3
    # the gap to the six decimals the CSVs print, then the exact reprs
    assert comments[0].startswith(f"{float(gap):.6f}...,")
    assert comments[1:] == [labels, runs]
