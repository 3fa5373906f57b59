"""The test configuration itself: with every warning an error, a failing
``hypothesis`` property must still be reported as one failed test."""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

PROBE = textwrap.dedent(
    """
    from hypothesis import given, settings, strategies as st


    @settings(derandomize=True, database=None)
    @given(st.integers())
    def test_fails(x):
        assert x < 5


    def test_passes():
        pass
    """
)


def test_failing_property_is_reported_not_an_internal_error(tmp_path):
    """On a failure hypothesis imports libcst to print the example as a
    patch, and that import warns; the configuration must not turn the
    warning into an INTERNALERROR that hides the failure and stops the run."""
    pytest.importorskip("hypothesis")
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
