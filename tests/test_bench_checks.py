"""The benchmark's own output checks pass on the library's fits.

bench/workloads.py checks every op it times: the objective recomputes,
pelt and dp_no_prune agree on a precompute=True cache's scalar costfn, the
D-JIL workload trains networks through mlp_train(d, Interval, cfg) with a
TrainConfig(**kwargs), the CV workload rebuilds a JilFit from the `jil fit`
artifact, and the replication workload refits replication 0 with
fit_ljil(d, m, 0.0, default_gamma(d.n)). Running those checks here, on small
inputs, keeps the names and call forms the benchmark relies on working. The
workload module is imported read-only: nothing under bench/ is installed or
changed.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import pytest

import jil

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("lam", [0.0, 1e-3])
@pytest.mark.parametrize("scenario", [1, 3, 5])
def test_ljil_fit_passes_bench_checks(workloads, scenario, lam):
    d, _ = jil.gen_scenario(jil.ScenarioSpec(scenario, 200, 4, 17))
    m = jil.make_grid(d.n, 5.0)
    fit = jil.fit_ljil(d, m, lam, jil.default_gamma(d.n))
    workloads.check_objective(d, fit)
    workloads.check_solvers_agree(d, m, lam, fit.gamma, fit.partition)


def test_djil_workload_runs_and_checks(workloads, tmp_path):
    class DjilTiny(workloads.DjilSmall):
        n = 60
        m = 8
        cfg_kwargs = {"hidden": (4,), "epochs": 2}

    w = DjilTiny(seed=3, workdir=str(tmp_path))
    inputs = w.prepare(0)
    figures = w.check(inputs, w.run(inputs), first=True, quality=True)
    assert set(figures) == {"cp_hausdorff", "regret"}
    gap = w.trace_extra(inputs)["segment.djil_prune_gap"]
    assert math.isfinite(gap) and gap >= -1e-12


def test_ljil_cv_workload_runs_and_checks(workloads, tmp_path):
    # `jil simulate`, `jil fit` (CV defaults) and `jil evaluate --plot-data`,
    # then the artifact is rebuilt as a JilFit and checked against the data
    class LjilCvTiny(workloads.LjilCv):
        n = 60

    w = LjilCvTiny(seed=3, workdir=str(tmp_path))
    inputs = w.prepare(0)
    assert w.check(inputs, w.run(inputs), first=True, quality=False) is None


def test_bench_reps_workload_runs_and_checks(workloads, tmp_path):
    # replication 0 is refit directly and must match its record
    class BenchRepsTiny(workloads.BenchReps):
        n = 60
        reps = 2

    w = BenchRepsTiny(seed=3, workdir=str(tmp_path))
    inputs = w.prepare(0)
    assert w.check(inputs, w.run(inputs), first=True, quality=False) is None
