"""The repository's pytest configuration reports failures instead of aborting."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROPERTY_FILE = '''
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(x):
    assert x < 0


def test_passes():
    assert True
'''


def test_failing_property_test_is_reported_and_the_run_goes_on(tmp_path):
    # reporting a failing example makes hypothesis import modules that warn
    # with a DeprecationWarning; the config turns those into errors, which
    # must not abort the run
    (tmp_path / "test_property.py").write_text(PROPERTY_FILE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-q", "-p", "no:cacheprovider",
         "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.returncode == 1
    assert "1 failed, 1 passed" in run.stdout
