"""The README's Python example runs as written and prints what its comment
says, so the one code sample of the README cannot drift from the library."""

import contextlib
import io
import re
from pathlib import Path

import repdyn

README = Path(repdyn.__file__).resolve().parents[2] / "README.md"


def test_python_example_prints_its_comment():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    verdict, a_hat = out.getvalue().split()
    assert verdict == "dominated" and a_hat.startswith("2.308")
