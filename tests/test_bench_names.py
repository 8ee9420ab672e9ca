"""The package names that the benchmark's tracer wraps must exist.

bench/tracing.py lists the module attributes it wraps; a name that the
package no longer has is skipped silently there, which would zero a traced
layer, and bench/selftest.py reads some of the lists without a guard. The
tracer module is imported here read-only: nothing is installed.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import jil.cost

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    tracing = load_tracing()
    for mod in tracing.PELT_SITES:
        assert hasattr(mod, "pelt"), mod.__name__
    for mod in tracing.COST_CACHE_SITES:
        assert hasattr(mod, "CostCache"), mod.__name__
    for attr, _ in tracing.COST_METHODS:
        assert hasattr(jil.cost.CostCache, attr), attr
    missing = [(mod.__name__, attr) for mod, attr, _ in tracing.CALL_SITES if not hasattr(mod, attr)]
    # jil.tuning has trained no network itself since D-JIL CV moved onto
    # fit.NetworkCosts; that entry is the one stale name in the list
    assert missing == [("jil.tuning", "mlp_train")]
