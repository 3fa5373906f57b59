"""Replay the golden-report corpus in ``tests/golden``.

Every case is run again and must give its pinned exit code, stderr and
stdout, byte for byte (a long stdout by its sha256).  The corpus pins
behaviour, not truth: see ``tests/golden/README.md``.  After a deliberate
change of output, rewrite it with ``python tests/golden/regenerate.py`` and
review the diff.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import pathlib

from zetacode import cli

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


def test_curves_reports_parse_once_and_row_reduce_only_for_a_dual(monkeypatch, rref_calls):
    """The 38 command-line calls of the ``curves`` workload at seed 4 make
    one argparse pass each, and an RREF only where a report enumerates the
    dual (n - k < k): grs and elliptic codes have rank k by construction."""
    monkeypatch.chdir(GOLDEN)
    monkeypatch.delenv("ZETACODE_BUDGET", raising=False)
    parses = []
    parse = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        parses.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    cases = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
    calls = [c["argv"] for c in cases if c["name"].startswith("curves-4-") and "argv" in c]
    assert len(calls) == 38
    for argv in calls:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv
    assert len(parses) == 38
    assert len(rref_calls) == 7
