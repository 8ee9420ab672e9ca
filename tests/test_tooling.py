"""Repository tooling: the pytest configuration reports failures instead of
aborting and refuses a mistyped mark or ini key, the library runs without
SciPy, which only the tests use, it reads no environment setting but the one
the CLI documents, it runs in one process and one thread, and it calls
numpy.linalg only in the coefficient rule and the propensity fit, and the
policy layer reduces over its short interval axis only in its row-sum
helper."""

from __future__ import annotations

import ast
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


MISTYPED_MARK_FILE = '''
import pytest


@pytest.mark.slwo
def test_x():
    pass
'''


def test_mistyped_mark_or_ini_key_fails_the_run(tmp_path):
    (tmp_path / "test_mark.py").write_text(MISTYPED_MARK_FILE)
    typo = tmp_path / "pyproject.toml"
    typo.write_text(PYPROJECT.read_text().replace("xfail_strict", "xfial_strict"))
    for config, error in ((PYPROJECT, "'slwo' not found in `markers`"),
                          (typo, "Unknown config option: xfial_strict")):
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-c", str(config), "-q", "-p", "no:cacheprovider",
             "--rootdir", str(tmp_path), "test_mark.py"],
            cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
        assert run.returncode != 0 and error in run.stdout + run.stderr


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


ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}
ALLOWED_ENV = {"SOURCE_DATE_EPOCH"}


def env_reads(source: str) -> list:
    """(line, name) of each environment read in Python source: name is the
    literal key of os.environ[...], os.environ.get(...) or os.getenv(...),
    and None for any other use of environ or getenv, which a scan cannot
    name."""
    tree = ast.parse(source)
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    reads = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and node.attr in ENV_NAMES
                or isinstance(node, ast.Name) and node.id in ENV_NAMES):
            continue
        up = parent.get(node)
        key = None
        if isinstance(up, ast.Subscript):
            key = up.slice
        elif isinstance(up, ast.Call) and up.func is node and up.args:
            key = up.args[0]
        elif isinstance(up, ast.Attribute) and up.attr == "get":
            call = parent.get(up)
            if isinstance(call, ast.Call) and call.args:
                key = call.args[0]
        literal = isinstance(key, ast.Constant) and isinstance(key.value, str)
        reads.append((node.lineno, key.value if literal else None))
    return sorted(reads, key=lambda read: read[0])


def test_env_scan_names_each_read():
    source = """import os
from os import environ
a = os.environ["A"]
b = os.getenv("B", "1")
c = os.environ.get("C")
d = environ.get(name)
e = dict(os.environ)
"""
    assert env_reads(source) == [(3, "A"), (4, "B"), (5, "C"), (6, None), (7, None)]


def test_library_reads_only_its_documented_environment():
    # SOURCE_DATE_EPOCH pins artifact timestamps; any other read, such as a
    # worker count or a tuning constant like the cost layer's block budget,
    # would be a setting no caller can see
    found = {}
    for path in sorted((ROOT / "src" / "jil").glob("*.py")):
        for line, name in env_reads(path.read_text()):
            found.setdefault(name, []).append(f"{path.name}:{line}")
    assert set(found) == ALLOWED_ENV, found


CONCURRENCY = {"concurrent", "multiprocessing", "threading"}


def absolute_imports(source: str) -> list:
    """(line, module) of each absolute import in Python source, module the
    full dotted name imported from (import a.b gives "a.b", from a.b import
    c gives "a.b"); relative imports are the package's own modules and are
    left out."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
    return sorted(found)


def test_import_scan_names_each_module():
    source = """import os, threading
from concurrent.futures import ProcessPoolExecutor
from .sim import replicate_table1
def f():
    import multiprocessing.pool as mp
"""
    assert absolute_imports(source) == [
        (1, "os"), (1, "threading"), (2, "concurrent.futures"), (5, "multiprocessing.pool")]


def test_library_runs_in_one_process_and_one_thread():
    # replications run one after another; a pool would be a second
    # execution path that no result depends on
    found = [
        f"{path.name}:{line} {module}"
        for path in sorted((ROOT / "src" / "jil").glob("*.py"))
        for line, module in absolute_imports(path.read_text())
        if module.split(".")[0] in CONCURRENCY
    ]
    assert found == [], found


# the library's only numpy.linalg calls: the coefficient rule's
# eigendecomposition and the propensity's Newton step
ALLOWED_LINALG = {("cost.py", "CostCache.theta", "eigh"), ("policy.py", "_fit_softmax", "solve")}


def linalg_uses(source: str) -> list:
    """(line, scope, name) of each use of numpy's linalg in Python source:
    scope is the dotted path of the enclosing classes and functions ("" at
    module level), and name the attribute read from linalg
    (np.linalg.eigh gives "eigh"), None for any other use, such as an
    import of linalg or linalg passed on as a value."""
    tree = ast.parse(source)
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "linalg" \
                or isinstance(node, ast.Name) and node.id == "linalg":
            up = parent.get(node)
            name = up.attr if isinstance(up, ast.Attribute) else None
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                "linalg" in f"{getattr(node, 'module', '')}.{alias.name}".split(".")
                for alias in node.names):
            name = None
        else:
            continue
        uses.append((node.lineno, node.col_offset, enclosing(parent, node), name))
    return [(line, scope, name) for line, _, scope, name in sorted(uses, key=lambda u: u[:2])]


def enclosing(parent: dict, node) -> str:
    """Dotted path of the classes and functions around an AST node ("" at
    module level); parent maps each node to its parent."""
    scope, up = [], parent.get(node)
    while up is not None:
        if isinstance(up, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope.append(up.name)
        up = parent.get(up)
    return ".".join(reversed(scope))


def test_linalg_scan_names_each_use():
    source = """import numpy as np
from numpy import linalg
import numpy.linalg as la
class C:
    def f(self):
        return np.linalg.eigh(self)
def g(x):
    solve = numpy.linalg.solve
    return linalg.norm(x), np.linalg
"""
    assert linalg_uses(source) == [
        (2, "", None), (3, "", None), (6, "C.f", "eigh"), (8, "g", "solve"),
        (9, "g", "norm"), (9, "g", None)]


def test_library_calls_linalg_only_for_theta_and_propensity():
    # every interval's coefficients come from the one rule in CostCache.theta;
    # a second solve anywhere else in the library would be a second
    # coefficient path (the cost kernel calls none: test_columns_call_no_linalg)
    found = set()
    for path in sorted((ROOT / "src" / "jil").glob("*.py")):
        found |= {(path.name, scope, name) for _, scope, name in linalg_uses(path.read_text())}
    assert found == ALLOWED_LINALG, found


# policy.py keeps its interval axis outer, class-major (K, n), so a reduction
# over it is a pass over K contiguous rows; a call along axis 1 of a
# row-major (n, K) array reduces n rows of K (typically 3) entries one at a
# time. The one such call is numpy's own row sum for K >= 8 in _class_sum,
# which the bits require (see the policy.py module docstring)
ALLOWED_SHORT_AXIS = {("_class_sum", "sum")}


def short_axis_uses(source: str) -> list:
    """(line, scope, name) of each call in Python source with an axis=1 or
    axis=-1 keyword, as a method or a function (x.max(axis=1) and
    np.max(x, axis=1) both give "max"), scope as in linalg_uses. An axis
    passed by position is not seen."""
    tree = ast.parse(source)
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and any(
                kw.arg == "axis" and literal(kw.value) in (1, -1) for kw in node.keywords):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            uses.append((node.lineno, node.col_offset, enclosing(parent, node), name))
    return [(line, scope, name) for line, _, scope, name in sorted(uses, key=lambda u: u[:2])]


def literal(node):
    """The value of an AST node that is a literal, else None."""
    try:
        return ast.literal_eval(node)
    except ValueError:
        return None


def test_short_axis_scan_names_each_use():
    source = """import numpy as np
from numpy import argmax
def f(Q):
    return Q.max(axis=1), argmax(Q, axis=-1), Q.sum(axis=0), np.stack([Q], axis=1)
class C:
    def g(self, Q):
        return np.sum(Q, 1), Q.cumsum(keepdims=True, axis=-1), Q.mean(axis=(0, 1)), Q.min(axis=-k)
"""
    assert short_axis_uses(source) == [
        (4, "f", "max"), (4, "f", "argmax"), (4, "f", "stack"), (7, "C.g", "cumsum")]


def test_policy_reduces_over_the_interval_axis_only_in_the_row_sum_helper():
    source = (ROOT / "src" / "jil" / "policy.py").read_text()
    found = {(scope, name) for _, scope, name in short_axis_uses(source)}
    assert found == ALLOWED_SHORT_AXIS, found


def definitions(source: str) -> list:
    """(line, name) of each function and class defined in Python source, at
    any depth; dunder methods, which Python calls by protocol, are left
    out."""
    return sorted((node.lineno, node.name) for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and not (node.name.startswith("__") and node.name.endswith("__")))


def references(source: str) -> set:
    """Every name Python source refers to: a name, an attribute, an imported
    name or module part, or a string constant that is an identifier, such as
    an __all__ entry or a getattr key. Docstrings refer to nothing."""
    tree = ast.parse(source)
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef))
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(part for alias in node.names for part in alias.name.split("."))
            found.update(node.module.split(".") if getattr(node, "module", None) else ())
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier() and id(node) not in docstrings:
            found.add(node.value)
    return found


def unreferenced(defining: dict, referencing: list) -> list:
    """"file:line name" of each definition in the sources of defining (file
    name -> source) that no source of referencing refers to."""
    names = set().union(*map(references, referencing))
    return [f"{path}:{line} {name}" for path, source in defining.items()
            for line, name in definitions(source) if name not in names]


def test_reference_scan_names_an_unreferenced_definition():
    library = '''"""helper and only_in_docs are named here."""
__all__ = ["exported"]
def exported():
    return helper()
def helper():
    pass
def only_in_docs():
    """only_in_docs is named in its own docstring"""
class Table:
    def __len__(self):
        return 0
    def read(self):
        return "only_in_docs, in a message"
'''
    bench = "from lib import Table\nTable().read()\n"
    assert unreferenced({"lib.py": library}, [library]) == ["lib.py:7 only_in_docs",
                                                            "lib.py:9 Table", "lib.py:12 read"]
    assert unreferenced({"lib.py": library}, [library, bench]) == ["lib.py:7 only_in_docs"]


def test_library_holds_no_code_that_only_tests_use():
    # every function and class of the library is referenced from the
    # library or the benchmark; one that only tests call is dead weight
    library = {path.name: path.read_text() for path in sorted((ROOT / "src" / "jil").glob("*.py"))}
    bench = [path.read_text() for path in sorted((ROOT / "bench").glob("*.py"))]
    assert unreferenced(library, [*library.values(), *bench]) == []
