"""The benchmark's four workloads, their output checks and quality figures.

A workload turns a workload seed into per-op inputs (untimed), runs one op
through the public ``jil`` API or CLI (timed), and checks the op's outputs
(untimed). Every op draws a fresh dataset from (workload seed, op index),
and every run replays the same list, so no cache keyed on repeated inputs
can fake a gain.

Quality figures per op:
  cp_hausdorff  Hausdorff distance between fitted and true change points.
  regret        true_optimal_value - policy_value_mc(rule, MidPoint) on the
                same Monte-Carlo draws, so it is >= 0 exactly.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

import jil
import jil.cli
from jil.cost import CostCache

MC_DRAWS = 100_000
MC_SEED = 20211117
OBJECTIVE_RTOL = 1e-9
WARMUP = -1


class CheckFailed(Exception):
    """An op's output failed one of the benchmark's correctness checks."""


def derive_seed(*key: int) -> int:
    return int(np.random.SeedSequence(key).generate_state(1, np.uint64)[0])


def op_seed(seed: int, i: int) -> int:
    """Dataset seed of op i. The warm-up op's dataset is the same for every
    workload seed, so set-up does the same work whatever the seed."""
    return derive_seed(0, 0, 0) if i == WARMUP else derive_seed(seed, 1, i)


def rep_seed(seed: int, rep: int) -> int:
    """Seed of replication rep, derived from (seed, rep) as replicate_table1 does."""
    return derive_seed(seed, rep)


def hausdorff(fitted, true) -> float:
    """Hausdorff distance between two change-point sets on [0, 1].

    A fit with no change point is as far as the domain is long.
    """
    if not fitted:
        return 1.0
    f = np.asarray(fitted, dtype=float)
    t = np.asarray(true, dtype=float)
    dist = np.abs(f[:, None] - t[None, :])
    return float(max(dist.min(axis=0).max(), dist.min(axis=1).max()))


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def check_objective(d, fit) -> None:
    got = jil.recompute_objective(d, fit)
    err = abs(got - fit.objective) / max(abs(fit.objective), 1e-300)
    require(err <= OBJECTIVE_RTOL, f"objective {fit.objective!r} recomputes to {got!r}")


def check_solvers_agree(d, m: int, lam: float, gamma: float, partition) -> None:
    """Pruned and exact DP return the fit's partition on the op's cost table."""
    costfn = CostCache(d, m, lambdas=(lam,), precompute=True).costfn(lam)
    pruned, _ = jil.pelt(costfn, m, gamma)
    exact, _ = jil.dp_no_prune(costfn, m, gamma)
    require(pruned == exact, "pelt and dp_no_prune disagree")
    require(pruned == partition, "fit partition differs from pelt on the op's costs")


class Workload:
    """One seeded workload; subclasses define prepare, run and check."""

    name = ""
    scenario = 1
    n = 400
    p = 4
    sweep_n = ()  # sample sizes of the traced run's scaling sweep

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.v_star = jil.true_optimal_value(self.spec(0), MC_DRAWS, MC_SEED)

    def spec(self, data_seed: int, n: int = None):
        return jil.ScenarioSpec(self.scenario, n or self.n, self.p, data_seed)

    def dataset(self, data_seed: int, n: int = None):
        spec = self.spec(data_seed, n)
        d, oracle = jil.gen_scenario(spec)
        return spec, d, oracle

    def sized(self, n: int):
        """Untimed inputs of the sweep op at sample size n."""
        return self.dataset(derive_seed(self.seed, 2, n), n)

    def quality(self, spec, fit, oracle) -> dict:
        value = jil.policy_value_mc(jil.I2dr(fit), jil.MidPoint(), spec, MC_DRAWS, MC_SEED)
        regret = self.v_star - value
        require(regret >= 0.0, f"negative regret {regret!r}")
        return {
            "cp_hausdorff": hausdorff(fit.partition.boundaries(), oracle.true_change_points),
            "regret": regret,
        }

    def prepare(self, i: int):
        """Untimed inputs of op i."""
        return self.dataset(op_seed(self.seed, i))

    def run(self, inputs):
        """The timed op."""
        raise NotImplementedError

    def check(self, inputs, result, first: bool, quality: bool) -> dict:
        """Untimed output checks; returns the op's quality figures if asked."""
        raise NotImplementedError

    def trace_extra(self, inputs) -> dict:
        """Per-layer figures measured once on the first op of a traced run."""
        return {}


def fit_and_value(d, fit):
    prop = jil.fit_propensity(d, fit.partition)
    value = jil.estimate_value(d, jil.I2dr(fit), prop, 0.05)
    return fit, value


class LjilLarge(Workload):
    """Scenario 1, n = 4000, m = 800, lambda = 0: the O(m^2) cost table."""

    name = "ljil-large"
    scenario = 1
    n = 4000
    c = 5.0
    sweep_n = (800, 2000, 4000, 8000)

    def run(self, inputs):
        _, d, _ = inputs
        m = jil.make_grid(d.n, self.c)
        return fit_and_value(d, jil.fit_ljil(d, m, 0.0, jil.default_gamma(d.n)))

    def check(self, inputs, result, first, quality):
        spec, d, oracle = inputs
        fit, value = result
        require(math.isfinite(value.v_hat), "non-finite v_hat")
        check_objective(d, fit)
        if first:
            check_solvers_agree(d, fit.m, fit.lam, fit.gamma, fit.partition)
        return self.quality(spec, fit, oracle) if quality else None


class LjilCv(Workload):
    """Scenario 3, n = 800: `jil fit` with CV defaults, then `jil evaluate`."""

    name = "ljil-cv"
    scenario = 3
    n = 800

    def prepare(self, i):
        """Writes op i's dataset as CSV with `jil simulate`."""
        spec, d, oracle = self.dataset(op_seed(self.seed, i))
        paths = {name: os.path.join(self.workdir, name)
                 for name in ("data.csv", "model.json", "plot.tsv")}
        with contextlib.redirect_stdout(io.StringIO()):
            rc = jil.cli.main(["simulate", "--scenario", str(spec.id), "--n", str(spec.n),
                               "--p", str(spec.p), "--seed", str(spec.seed),
                               "--out", paths["data.csv"]])
        require(rc == 0, f"jil simulate exited {rc}")
        return spec, d, oracle, paths

    def run(self, inputs):
        paths = inputs[3]
        with contextlib.redirect_stdout(io.StringIO()):
            fit_rc = jil.cli.main(["fit", "--data", paths["data.csv"], "--out", paths["model.json"]])
        report = io.StringIO()
        with contextlib.redirect_stdout(report):
            eval_rc = jil.cli.main(
                ["evaluate", "--model", paths["model.json"], "--data", paths["data.csv"],
                 "--plot-data", paths["plot.tsv"]]
            )
        return fit_rc, eval_rc, report.getvalue()

    def check(self, inputs, result, first, quality):
        spec, d, oracle, paths = inputs
        fit_rc, eval_rc, report = result
        require(fit_rc == 0, f"jil fit exited {fit_rc}")
        require(eval_rc == 0, f"jil evaluate exited {eval_rc}")
        with open(paths["model.json"], encoding="utf-8") as fh:
            art = json.load(fh)
        require(json.loads(report)["v_hat"] == art["value"]["v_hat"],
                "evaluate v_hat differs from the artifact's")
        with open(paths["plot.tsv"], encoding="utf-8") as fh:
            require(sum(1 for _ in fh) == d.n + 1, "plot data row count")
        m = int(art["m"])
        edges = [0] + [int(hi) for _, hi in art["partition"]]
        fit = jil.JilFit(
            partition=jil.Partition.from_edges(edges, m),
            models=tuple(jil.Linear(np.asarray(e["theta"], dtype=float)) for e in art["models"]),
            m=m,
            lam=float(art["lambda"]),
            gamma=float(art["gamma"]),
            objective=float(art["objective"]),
        )
        check_objective(d, fit)
        if first:
            check_solvers_agree(d, m, fit.lam, fit.gamma, fit.partition)
        return self.quality(spec, fit, oracle) if quality else None


class DjilSmall(Workload):
    """Scenario 2, n = 400, m = 80: network training dominates.

    The number of networks trained per fit varies by up to 2x between
    datasets, so an op is kept short (5 epochs) to fit enough ops into one
    run for a steady median; the default config takes tens of minutes.
    """

    name = "djil-small"
    scenario = 2
    n = 400
    m = 80
    cfg_kwargs = {"hidden": (8,), "epochs": 5}

    def run(self, inputs):
        _, d, _ = inputs
        cfg = jil.TrainConfig(**self.cfg_kwargs)
        return fit_and_value(d, jil.fit_djil(d, self.m, jil.default_gamma(d.n), cfg))

    def check(self, inputs, result, first, quality):
        spec, d, oracle = inputs
        fit, value = result
        require(math.isfinite(value.v_hat), "non-finite v_hat")
        check_objective(d, fit)
        return self.quality(spec, fit, oracle) if quality else None

    def trace_extra(self, inputs):
        """Pruned minus exact-DP objective on the op's network costs.

        PELT pruning assumes splitting never raises a cost, which trained
        networks break, so the gap is reported rather than gated.
        """
        _, d, _ = inputs
        cfg = jil.TrainConfig(**self.cfg_kwargs)
        gamma = jil.default_gamma(d.n)
        cells = jil.grid_cell(d.treatments, self.m)
        memo = {}

        def cost(lo, hi):
            if (lo, hi) not in memo:
                rows = np.flatnonzero((cells >= lo) & (cells < hi))
                if rows.size == 0:
                    memo[lo, hi] = 0.0
                else:
                    net = jil.mlp.mlp_train(d, jil.Interval(lo, hi, self.m), cfg)
                    r = d.outcomes[rows] - net.predict_batch(d.covariates[rows])
                    memo[lo, hi] = float(np.dot(r, r) / d.n)
            return memo[lo, hi]

        _, pruned = jil.pelt(cost, self.m, gamma)
        _, exact = jil.dp_no_prune(cost, self.m, gamma)
        return {"segment.djil_prune_gap": pruned - exact}


class BenchReps(Workload):
    """replicate_table1(reps=20, n=400, scenario 1) with v_opt from set-up."""

    name = "bench-reps"
    scenario = 1
    n = 400
    reps = 20
    c = 5.0

    def prepare(self, i):
        return op_seed(self.seed, i)

    def run(self, inputs):
        return jil.replicate_table1(
            self.reps, self.n, inputs, scenario=self.scenario, p=self.p, v_opt=self.v_star
        )

    def check(self, inputs, result, first, quality):
        """Replication 0 always, and every replication when quality is asked,
        is refit directly; its change points must match the record's."""
        records = result["records"]
        require(len(records) == self.reps, f"{len(records)} records, expected {self.reps}")
        require(math.isfinite(result["coverage_pct"]), "non-finite coverage_pct")
        figures = []
        for rep, rec in enumerate(records[: self.reps if quality else 1]):
            spec, d, oracle = self.dataset(rep_seed(inputs, rep))
            m = jil.make_grid(d.n, self.c)
            fit = jil.fit_ljil(d, m, 0.0, jil.default_gamma(d.n))
            require(fit.partition.boundaries() == rec["boundaries"],
                    f"replication {rep} change points differ from a direct fit")
            if rep == 0:
                check_objective(d, fit)
                if first:
                    check_solvers_agree(d, m, fit.lam, fit.gamma, fit.partition)
            if quality:
                figures.append(self.quality(spec, fit, oracle))
        if not quality:
            return None
        return {k: float(np.mean([f[k] for f in figures])) for k in figures[0]}


WORKLOADS = {w.name: w for w in (LjilLarge, LjilCv, DjilSmall, BenchReps)}
