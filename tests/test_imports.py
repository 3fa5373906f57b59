"""Every top-level import in ``src/zetacode`` and ``tests`` is read by its
module.

No linter ships with the project, so this stdlib-``ast`` check catches an
import that a deletion left behind.  ``from __future__`` imports and names
listed in the module's ``__all__`` (re-exports) are exempt.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
CHECKED = sorted((ROOT / "src" / "zetacode").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Top-level imported names that ``source`` never reads."""
    tree = ast.parse(source)
    bound = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        f"line {line}: {name}"
        for name, line in bound.items()
        if name not in read and name not in exported
    )


@pytest.mark.parametrize("path", CHECKED, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_unread_imports():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from math import comb, gcd\n"
        "from fractions import Fraction\n"
        "__all__ = ['gcd']\n"
        "def f(x: Fraction) -> int:\n"
        "    return comb(x, 2)\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 2: osp"]
