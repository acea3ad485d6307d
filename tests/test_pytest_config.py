"""The project's pytest settings report a failing property test as a
failure and go on to the next test.

Warnings become errors under ``pyproject.toml``.  When a hypothesis test
fails, hypothesis's pytest plugin imports ``libcst``, whose import warns
that ``mypy_extensions.TypedDict`` is deprecated; as an error, that
warning aborted the whole run with ``INTERNALERROR``.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = textwrap.dedent('''
    from hypothesis import given, settings, strategies as st


    @settings(derandomize=True, database=None)
    @given(st.integers())
    def test_fails(x):
        assert x < 0


    def test_runs_after():
        pass
''')


def test_failing_property_test_is_reported(tmp_path):
    pytest.importorskip("hypothesis")
    pytest.importorskip("libcst")
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         str(tmp_path / "test_property.py")],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
