"""Every top-level import in ``src/zetacode`` and ``tests`` is read by its
module, every import in ``src/zetacode`` is top-level, and every
module-level private name of ``src/zetacode`` is read somewhere in
``src/zetacode``.

No linter ships with the project, so these stdlib-``ast`` checks catch an
import or a helper that a deletion left behind.  ``from __future__``
imports and names listed in the module's ``__all__`` (re-exports) are
exempt from the first.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "zetacode").glob("*.py"))
CHECKED = SRC + sorted((ROOT / "tests").glob("*.py"))


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


def nested_imports(source: str) -> list[str]:
    """``line: module`` for each import that is not a top-level statement
    of ``source``: the unused-import check reads only those."""
    tree = ast.parse(source)
    top = {id(node) for node in tree.body}
    return [
        f"line {node.lineno}: {node.module if isinstance(node, ast.ImportFrom) else node.names[0].name}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
    ]


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_every_import_is_at_module_level(path):
    assert nested_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_nested_imports():
    source = (
        "import os\n"
        "def f():\n"
        "    from fractions import Fraction\n"
        "    return Fraction(1)\n"
        "class A:\n"
        "    import math\n"
        "if os.name:\n"
        "    import sys\n"
    )
    assert nested_imports(source) == ["line 3: fractions", "line 6: math", "line 8: sys"]


def private_definitions(source: str) -> dict[str, int]:
    """Module-level names with one leading underscore that ``source`` binds
    by def, class or assignment, with their lines."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        found.update(
            (name, node.lineno) for name in names if name.startswith("_") and not name.startswith("__")
        )
    return found


def names_read(source: str) -> set[str]:
    """The names ``source`` loads, reads as attributes or imports.  A
    top-level function that calls itself does not read its own name."""
    read = set()
    for stmt in ast.parse(source).body:
        own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id != own:
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return read


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module: line: name`` for each module-level private name that no
    source reads."""
    read = set().union(*map(names_read, sources.values()))
    return sorted(
        f"{module}: line {line}: {name}"
        for module, source in sources.items()
        for name, line in private_definitions(source).items()
        if name not in read
    )


def test_every_private_name_is_read():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SRC}
    assert unread_private_names(sources) == []


def test_checker_flags_unread_private_names():
    sources = {
        "a.py": (
            "_LIMIT = 3\n"
            "_left, _USED = 1, 2\n"
            "__version__ = '1'\n"
            "def _walk(n):\n"
            "    return _walk(n - 1) if n else _USED\n"
            "def _helper():\n"
            "    return _LIMIT\n"
            "class _Box:\n"
            "    pass\n"
        ),
        "b.py": "from .a import _helper\nimport a\nprint(_helper(), a._Box)\n",
    }
    assert unread_private_names(sources) == ["a.py: line 2: _left", "a.py: line 4: _walk"]
