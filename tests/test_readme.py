"""The README's library example runs as written."""

from __future__ import annotations

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_true(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library example\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)```", section, re.S)
    assert block, "no python block opens the library example section"
    exec(compile(block.group(1), "README.md", "exec"), {})
    assert capsys.readouterr().out == "True\n"
