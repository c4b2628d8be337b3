"""The README's code examples must run as printed."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

from mahlerzeta.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_readme_python_blocks_run() -> None:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            exec(compile(block, str(README), "exec"), {})
        assert printed.getvalue()


def test_readme_eval_transcript_matches_the_cli(tmp_path) -> None:
    transcript = re.search(
        r"^\$ mahlerzeta (eval --family i --n 2)\n((?:[^$\n].*\n){3})",
        README.read_text(),
        re.M,
    )
    assert transcript
    printed = io.StringIO()
    argv = transcript.group(1).split() + ["--store", str(tmp_path / "store.txt")]
    with contextlib.redirect_stdout(printed):
        assert main(argv) == 0
    assert printed.getvalue() == transcript.group(2)


def test_readme_names_exist_in_the_package() -> None:
    """Every backticked snake_case name in the README occurs in the package source."""
    prose = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    source = "\n".join(p.read_text() for p in (ROOT / "src" / "mahlerzeta").glob("**/*.py"))
    missing = [
        name
        for span in re.findall(r"`([^`\n]+)`", prose)
        if "/" not in span  # paths and fractions, not names
        for name in re.findall(r"\b[a-z][a-z0-9]*(?:_[a-z0-9]+)+\b", span)
        if not re.search(r"\b%s\b" % name, source)
    ]
    assert missing == []
