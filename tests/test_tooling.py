"""Repository tooling: the pytest configuration reports failures instead of
aborting, and the library runs without SciPy, which only the tests use."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"

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


CLI_WITHOUT_SCIPY = """
import sys

import jil.cli

main = jil.cli.main
assert main(["simulate", "--scenario", "1", "--n", "200", "--p", "2", "--out", "d.csv"]) == 0
assert main(["fit", "--data", "d.csv", "--out", "m.json"]) == 0
assert main(["evaluate", "--model", "m.json", "--data", "d.csv", "--plot-data", "p.tsv"]) == 0
assert main(["bench", "--n", "100", "--reps", "2"]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_cli_commands_never_import_scipy(tmp_path):
    # a fresh interpreter, since this one has imported SciPy for the oracles
    run = subprocess.run(
        [sys.executable, "-c", CLI_WITHOUT_SCIPY],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))},
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"
