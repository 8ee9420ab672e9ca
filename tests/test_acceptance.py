"""End-to-end acceptance gate.

Ten tests, one per shipping criterion, each ending in a single [PASS] line.
The expensive replication runs are session-scoped fixtures shared across
tests; every run is seeded, so the whole gate is deterministic.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from conftest import cost_oracle, enumerate_partitions, gradient_check
from jil.core import Dataset, JilFit, Linear, Partition
from jil.cost import CostCache
from jil.fit import NetworkCosts
from jil.mlp import TrainConfig, init_model
from jil.policy import I2dr, PropensityModel, estimate_value, fit_propensity
from jil.segment import dp_no_prune, pelt
from jil.sim import ScenarioSpec, replicate_table1, true_optimal_value
from jil.tuning import TuningGrid, cv_select_ljil, kfold_split

SEED = 3


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="session")
def s1_replications():
    t0 = time.perf_counter()
    res = replicate_table1(200, 800, seed=SEED, scenario=1, p=4, v_opt=1.34)
    return res, time.perf_counter() - t0


@pytest.fixture(scope="session")
def s2_replications():
    res = replicate_table1(200, 800, seed=SEED, scenario=2, p=4, v_opt=1.35)
    return res


# ------------------------------------------------- 1: segmentation solvers


def _sse_cost_table(rng, m):
    """Least-squares cost table from random data (independent arithmetic).

    Splitting never increases total least-squares cost, the condition under
    which zero-slack pruning is exact; point-mass treatments leave empty
    cells whose zero costs stress the tie-breaks.
    """
    n = int(rng.integers(max(2, m), 4 * m))
    A = rng.random(n)
    if rng.random() < 0.3:
        step = max(1, m // 2)
        A = np.round(A * step) / step
    Y = rng.standard_normal(n) + 2.0 * (A > rng.random())
    cells = np.minimum(np.floor(A * m).astype(int), m - 1)
    t = np.zeros((m + 1, m + 1))
    for lo in range(m):
        for hi in range(lo + 1, m + 1):
            rows = (cells >= lo) & (cells < hi)
            if rows.any():
                yr = Y[rows]
                t[lo, hi] = float(np.sum((yr - yr.mean()) ** 2)) / n
    return t


def test_segmentation_solvers_agree_on_100_random_tables():
    rng = np.random.default_rng(20260813)
    t0 = time.perf_counter()
    for trial in range(100):
        m = int(rng.integers(2, 13))
        table = _sse_cost_table(rng, m)
        gamma = float(rng.uniform(0.0, 1.2))
        fn = lambda lo, hi: table[lo, hi]
        p1, o1 = enumerate_partitions(fn, m, gamma)
        p2, o2 = dp_no_prune(fn, m, gamma)
        p3, o3 = pelt(fn, m, gamma)
        assert o1 == o2 == o3
        assert p1 == p2 == p3
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(
        "[PASS] pruned DP, unpruned DP, and full enumeration returned identical "
        f"partitions and objectives on 100 random cost tables ({elapsed:.1f}s)"
    )


# ---------------------------------------------- 2: ridge cost table vs direct


def _direct_pair(d, tr_mask, cells, lo, hi, m, lam):
    """Per-interval ridge by direct solve on raw rows; no shared factorization."""
    rows = tr_mask & (cells >= lo) & (cells < hi)
    n_tr = int(tr_mask.sum())
    k = d.p + 1
    ilen = (hi - lo) / m
    if not rows.any():
        theta = np.zeros(k)
        return 0.0, theta
    Xb = np.hstack([np.ones((int(rows.sum()), 1)), d.covariates[rows]])
    y = d.outcomes[rows]
    if lam == 0.0:
        theta = np.linalg.lstsq(Xb, y, rcond=None)[0]
    else:
        theta = np.linalg.solve(
            Xb.T @ Xb + n_tr * lam * ilen * np.eye(k), Xb.T @ y
        )
    resid = y - Xb @ theta
    c = float(resid @ resid) / n_tr + lam * ilen * float(theta @ theta)
    return c, theta


def _naive_cv_scores(d, m, lambdas, gammas, assign):
    cells = np.minimum(np.floor(d.treatments * m).astype(int), m - 1)
    scores = np.zeros((len(lambdas), len(gammas)))
    for fid in np.unique(assign):
        va = assign == fid
        tr = ~va
        Xva = np.hstack([np.ones((int(va.sum()), 1)), d.covariates[va]])
        yva = d.outcomes[va]
        cells_va = cells[va]
        for h, lam in enumerate(lambdas):
            table = np.zeros((m + 1, m + 1))
            thetas = {}
            for lo in range(m):
                for hi in range(lo + 1, m + 1):
                    c, th = _direct_pair(d, tr, cells, lo, hi, m, lam)
                    table[lo, hi] = c
                    thetas[(lo, hi)] = th
            for j, gam in enumerate(gammas):
                part, _ = dp_no_prune(lambda lo, hi: table[lo, hi], m, gam)
                his = np.array(part.edges()[1:])
                idx = np.searchsorted(his, cells_va, side="right")
                th_stack = np.stack([thetas[(iv.lo, iv.hi)] for iv in part.intervals])
                preds = np.sum(Xva * th_stack[idx], axis=1)
                scores[h, j] += float(np.sum((yva - preds) ** 2))
    return scores / d.n


def test_spectral_costs_and_cv_fast_path_match_direct_refits():
    rng = np.random.default_rng(4)
    t0 = time.perf_counter()
    for trial in range(100):
        n = int(rng.integers(5, 61))
        p = int(rng.integers(0, 6))
        m = int(rng.integers(1, 9))
        X = rng.uniform(-1, 1, (n, p))
        A = rng.random(n)
        Y = rng.standard_normal(n) * 2.0
        d = Dataset(X, A, Y)
        lams = np.sort(rng.uniform(1e-3, 0.5, 5))
        if trial % 3 == 0:
            lams[0] = 0.0
        lo = int(rng.integers(0, m))
        hi = int(rng.integers(lo + 1, m + 1))
        fast = CostCache(d, m, lambdas=lams).columns()(np.array([lo]), hi)[:, 0, 0]
        for pos, lam in enumerate(lams):
            direct = cost_oracle(X, A, Y, lo, hi, m, float(lam))
            assert abs(fast[pos] - direct) <= 1e-8 * max(1.0, abs(direct))
    for trial in range(20):
        n = int(rng.integers(60, 151))
        p = int(rng.integers(0, 5))
        m = int(rng.integers(2, 31))
        X = rng.uniform(-1, 1, (n, p))
        A = rng.random(n)
        Y = rng.standard_normal(n) + np.where(A > 0.5, 1.5, 0.0)
        d = Dataset(X, A, Y)
        H = int(rng.integers(1, 4))
        J = int(rng.integers(1, 4))
        lams = tuple(np.sort(rng.uniform(1e-3, 0.3, H)))
        if trial % 2 == 0:
            lams = (0.0,) + lams[1:]
        gams = tuple(np.sort(rng.uniform(0.01, 0.8, J)))
        assign = kfold_split(n, 3, seed=trial)
        grid = TuningGrid(lambdas=lams, gammas=gams, k_folds=3, seed=trial)
        report = cv_select_ljil(d, m, grid)
        naive = _naive_cv_scores(d, m, lams, gams, assign)
        assert np.all(
            np.abs(report.scores - naive) <= 1e-8 * np.maximum(1.0, np.abs(naive))
        )
        assert abs(report.scores.min() - naive.min()) <= 1e-8 * max(1.0, naive.min())
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(
        "[PASS] cached ridge costs matched per-lambda direct solves on "
        f"100 intervals and CV scores matched naive refits on 20 instances ({elapsed:.1f}s)"
    )


# -------------------------------------------------- 3: structure recovery


def test_three_segment_recovery_rate_and_boundary_accuracy(s1_replications):
    res, elapsed = s1_replications
    assert elapsed < 600.0
    recs = res["records"][:100]
    threes = [r for r in recs if r["n_segments"] == 3]
    assert len(threes) >= 90
    worst = 0.0
    for r in threes:
        b = sorted(r["boundaries"])
        worst = max(worst, abs(b[0] - 0.35), abs(b[1] - 0.65))
    assert worst <= 0.05
    print(
        f"[PASS] 3 segments recovered in {len(threes)}/100 replications at n=800; "
        f"worst boundary deviation {worst:.4f} <= 0.05 ({elapsed:.1f}s for 200 reps)"
    )


# ----------------------------------------------- 4: value + coverage windows


def test_value_means_and_ci_coverage_windows(s1_replications, s2_replications):
    res1, _ = s1_replications
    assert 1.30 <= res1["mean_v_hat"] <= 1.38
    assert 91.0 <= res1["coverage_pct"] <= 99.0
    res2 = s2_replications
    assert 1.31 <= res2["mean_v_hat"] <= 1.45
    print(
        f"[PASS] 200-rep value windows: scenario 1 mean {res1['mean_v_hat']:.4f} "
        f"(target 1.34) with {res1['coverage_pct']:.1f}% CI coverage of 1.34; "
        f"scenario 2 mean {res2['mean_v_hat']:.4f} (target 1.35)"
    )


# --------------------------------------------------- 5: integrated l2 loss


def test_integrated_l2_loss_small_and_decreasing_in_n(s1_replications):
    res, _ = s1_replications
    l2_800 = float(np.mean([r["l2"] for r in res["records"][:100]]))
    assert l2_800 <= 0.20
    small = replicate_table1(100, 200, seed=SEED, scenario=1, p=4, v_opt=1.34)
    l2_200 = small["mean_l2"]
    assert l2_200 > l2_800
    print(
        f"[PASS] integrated coefficient loss {l2_800:.4f} <= 0.20 at n=800, "
        f"decreasing from {l2_200:.4f} at n=200"
    )


# ------------------------------------------------- 6: published optima


def test_true_optimal_values_match_published_numbers():
    published = {1: 1.34, 2: 1.35, 3: 0.76, 4: 1.28, 5: 8.00}
    t0 = time.perf_counter()
    got = {}
    for sc, target in published.items():
        v = true_optimal_value(ScenarioSpec(sc, 10, 4, SEED), 10**6, SEED)
        got[sc] = v
        assert abs(v - target) <= 0.02
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    devs = ", ".join(f"S{s}={got[s]:.4f}" for s in sorted(got))
    print(f"[PASS] million-draw optima within 0.02 of published values: {devs} ({elapsed:.1f}s)")


# ------------------------------------------- 7: single-interval AIPW identity


def test_single_interval_value_equals_sample_mean():
    rng = np.random.default_rng(77)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(2, 41))
        p = int(rng.integers(0, 4))
        m = int(rng.integers(1, 13))
        d = Dataset(
            rng.uniform(-1, 1, (n, p)),
            rng.random(n),
            rng.standard_normal(n) * rng.uniform(0.5, 5.0),
        )
        part = Partition.from_edges([0, m], m)
        model = Linear(rng.standard_normal(p + 1) * 3.0)
        fit = JilFit(part, (model,), m, 0.0, 0.1, 0.0)
        if trial % 3 == 0:
            prop = PropensityModel(partition=part, weights=rng.standard_normal((1, p + 1)))
        else:
            prop = fit_propensity(d, part)
        v = estimate_value(d, I2dr(fit), prop, 0.05).v_hat
        worst = max(worst, abs(v - float(np.mean(d.outcomes))))
    assert worst <= 1e-12
    print(
        "[PASS] with one interval the doubly-robust estimate equals the sample "
        f"mean on 50 random fits (worst gap {worst:.2e})"
    )


# ------------------------------------- 8: gradients + nonlinear segment gain


def _near_kink(model, x, tol):
    h = np.asarray(x, dtype=float)
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        z = w @ h + b
        if np.any(np.abs(z) < tol):
            return True
        h = np.maximum(z, 0.0)
    return False


def test_backprop_matches_finite_differences_and_beats_linear_fit():
    rng = np.random.default_rng(8)
    checked = 0
    worst = 0.0
    while checked < 50:
        p = int(rng.integers(1, 5))
        hidden = (int(rng.integers(2, 7)), int(rng.integers(2, 7)))
        model = init_model(p, hidden, rng)
        x = rng.uniform(-1, 1, p)
        if _near_kink(model, x, 1e-4):
            continue
        y = float(rng.standard_normal())
        worst = max(worst, gradient_check(model, x, y, 1e-5))
        checked += 1
    assert worst < 1e-4
    n = 360
    X = rng.uniform(-1, 1, (n, 2))
    Y = np.sin(2.0 * np.pi * X[:, 1]) + 0.1 * rng.standard_normal(n)
    d = Dataset(X, rng.random(n), Y)
    linear_mse = CostCache(d, 1).columns()(np.array([0]), 1)[0, 0, 0]
    cfg = TrainConfig(hidden=(32, 32), epochs=500, learning_rate=1e-2, batch_size=32, seed=11)
    mlp_mse = NetworkCosts(d, 1, cfg).columns()(np.array([0]), 1)[0, 0, 0]
    assert mlp_mse < linear_mse
    print(
        f"[PASS] worst backprop relative error {worst:.2e} < 1e-4 over 50 networks; "
        f"network segment MSE {mlp_mse:.4f} < linear {linear_mse:.4f} on a sine segment"
    )


# ------------------------------------------------ 9: grid coarseness smoke


def test_value_insensitive_to_grid_coarseness():
    means = {}
    for c in (6.0, 8.0, 10.0):
        res = replicate_table1(50, 400, seed=SEED, scenario=1, p=4, c=c, v_opt=1.34)
        means[c] = res["mean_v_hat"]
    spread = max(means.values()) - min(means.values())
    assert spread < 0.05
    shown = ", ".join(f"c={int(c)}: {v:.4f}" for c, v in means.items())
    print(f"[PASS] mean value varies by {spread:.4f} < 0.05 across coarseness ({shown})")


# -------------------------------------- 10: determinism and round tripping


def test_determinism_and_bitwise_round_trip(tmp_path, monkeypatch, capsys):
    from jil.cli import main

    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1755043200")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        rc = main(["simulate", "--scenario", "1", "--n", "300", "--p", "3",
                   "--seed", "5", "--out", str(out)])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    for out in (m1, m2):
        rc = main(["fit", "--data", str(a), "--lambda", "0", "--gamma", "default",
                   "--seed", "9", "--out", str(out)])
        assert rc == 0
    assert m1.read_bytes() == m2.read_bytes()
    capsys.readouterr()
    rc = main(["evaluate", "--model", str(m1), "--data", str(a)])
    assert rc == 0
    got = json.loads(capsys.readouterr().out)
    art = json.loads(m1.read_text())
    assert got["v_hat"] == art["value"]["v_hat"]
    assert got["ci_lo"] == art["value"]["ci_lo"]
    assert got["ci_hi"] == art["value"]["ci_hi"]
    print(
        "[PASS] byte-identical simulated data and fit artifacts under a fixed "
        "seed; reloaded model reproduced the value estimate bitwise"
    )
