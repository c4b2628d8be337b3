"""The README's code examples must run as printed."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run() -> None:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            exec(compile(block, str(README), "exec"), {})
        assert printed.getvalue()
