"""The package names that the benchmark's tracer wraps must exist.

bench/tracing.py lists the module attributes it wraps; a name that the
package no longer has is skipped silently there, which would zero a traced
layer, and bench/selftest.py reads some of the lists without a guard. The
tracer module is imported here read-only: nothing is installed.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

import jil.cost
import jil.fit
import jil.segment
import jil.tuning
from jil.sim import ScenarioSpec, gen_scenario

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


def traced(call):
    """(result, tracer) of call() run as traced op 0 of a fresh Tracer."""
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        tracer.op = 0
        result = call()
        tracer.op = None
    finally:
        tracer.uninstall()
    return result, tracer


def test_tracer_counts_one_grid_dp_per_cv_fold(factorized):
    # ljil-cv's traced layers read these counts: one pelt call per fold,
    # whose column function is called once per block of columns, so
    # segment.cost_lookups counts kernel calls; at m = 12 each fold's
    # columns fit in one block
    d, _ = gen_scenario(ScenarioSpec(1, 120, 2, 3))
    m, k = 12, 3
    grid = jil.tuning.TuningGrid((0.0, 1e-2), (0.01, 0.1), k_folds=k, seed=3)
    report, tracer = traced(lambda: jil.tuning.cv_select_ljil(d, m, grid))
    assert jil.tuning.pelt is jil.segment.pelt
    counts = tracer.op_counts(0)
    assert counts["segment.pelt_calls"] == k
    assert counts["segment.cost_lookups"] == len(factorized) == k
    assert counts["cost.builds"] == k
    assert counts["cost.theta_calls"] == k * len(grid.lambdas)
    assert np.array_equal(report.scores, jil.tuning.cv_select_ljil(d, m, grid).scores)


def test_tracer_counts_one_column_dp_per_lone_fit(factorized):
    # ljil-large's and bench-reps' traced layers read these counts: one pelt
    # call whose column function is called once per block of columns, one
    # kernel call each, one cost build and one theta call; the scalar costfn
    # is never called, so cost.costfn_s reads 0
    d, _ = gen_scenario(ScenarioSpec(1, 200, 2, 4))
    m = 40
    fit, tracer = traced(lambda: jil.fit_ljil(d, m, 0.0, jil.default_gamma(d.n)))
    assert 1 < len(factorized) < m
    assert tracer.op_counts(0) == {
        "cost.builds": 1,
        "cost.theta_calls": 1,
        "segment.cost_lookups": len(factorized),
        "segment.exact_lookups": m * (m + 1) // 2,
        "segment.pelt_calls": 1,
    }
    assert not [s for s in tracer.spans if s[1] == "cost.costfn"]
    assert fit.partition == jil.fit_ljil(d, m, 0.0, jil.default_gamma(d.n)).partition


def test_tracer_counts_one_column_dp_per_djil_fit(monkeypatch):
    # network costs come in blocks of columns, so the column function is
    # called once per block, and each block makes one trainer call at most;
    # under a budget of one network per call, once per column
    d, _ = gen_scenario(ScenarioSpec(1, 60, 2, 4))
    m = 6
    cfg = jil.TrainConfig(hidden=(2,), epochs=2, seed=1)
    _, tracer = traced(lambda: jil.fit_djil(d, m, 0.05, cfg))
    counts = tracer.op_counts(0)
    assert counts["segment.pelt_calls"] == 1
    assert 1 <= counts["segment.cost_lookups"] < m
    assert 0 < counts["mlp.trainings"] <= counts["segment.cost_lookups"]
    assert "cost.builds" not in counts
    monkeypatch.setattr(jil.fit.NetworkCosts, "budget", 1)
    _, tracer = traced(lambda: jil.fit_djil(d, m, 0.05, cfg))
    counts = tracer.op_counts(0)
    assert counts["segment.pelt_calls"] == 1
    assert counts["segment.cost_lookups"] == m
    assert 0 < counts["mlp.trainings"] <= m * (m + 1) // 2
    assert "cost.builds" not in counts
