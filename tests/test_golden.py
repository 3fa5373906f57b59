"""Replay the golden-report corpus in ``tests/golden``.

Every case is run again and must give its pinned exit code, stderr and
stdout, byte for byte (a long stdout by its sha256).  The corpus pins
behaviour, not truth: see ``tests/golden/README.md``.  After a deliberate
change of output, rewrite it with ``python tests/golden/regenerate.py`` and
review the diff.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import pathlib

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def _regenerate():
    spec = importlib.util.spec_from_file_location("regenerate", GOLDEN / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_golden_case_replays(monkeypatch):
    regen = _regenerate()
    monkeypatch.chdir(GOLDEN)
    monkeypatch.delenv("ZETACODE_BUDGET", raising=False)
    monkeypatch.setenv("COLUMNS", regen.COLUMNS)
    cases = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
    assert len(cases) > 100
    changed = []
    for case in cases:
        rc, stdout, stderr = regen.run_case(case)
        data = stdout.encode("utf-8")
        if "stdout_sha256" in case:
            same = hashlib.sha256(data).hexdigest() == case["stdout_sha256"]
        else:
            same = data == (GOLDEN / case["stdout"]).read_bytes()
        if not (same and rc == case["exit"] and stderr == case["stderr"]):
            changed.append(case["name"])
    assert changed == [], "reports differ from tests/golden; see tests/golden/README.md"
