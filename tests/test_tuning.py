"""Cross-validation hyperparameter selection for both fit flavors."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

import jil.fit as fit_mod
import jil.tuning as tuning_mod
from jil.core import Dataset, Interval, Partition, grid_cell, make_grid
from jil.cost import CostCache
from jil.errors import BadFoldCount, InsufficientData, InvalidData
from jil.fit import NetworkCosts
from jil.mlp import TrainConfig, mlp_train
from jil.segment import dp_no_prune, pelt
from jil.sim import ScenarioSpec, gen_scenario
from jil.tuning import (
    CvReport,
    TuningGrid,
    cv_select_djil,
    cv_select_ljil,
    default_gamma,
    default_grid,
    kfold_split,
)

from conftest import cell_of, cost_oracle, ridge_oracle


# ---------------------------------------------------------------- kfold


def test_kfold_equal_sizes():
    assign = kfold_split(10, 5, seed=3)
    assert sorted(np.bincount(assign, minlength=5)) == [2, 2, 2, 2, 2]


def test_kfold_near_equal_sizes():
    assign = kfold_split(7, 3, seed=1)
    assert sorted(np.bincount(assign, minlength=3)) == [2, 2, 3]


def test_kfold_deterministic_and_seed_sensitive():
    a = kfold_split(50, 5, seed=11)
    b = kfold_split(50, 5, seed=11)
    c = kfold_split(50, 5, seed=12)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_kfold_labels_in_range():
    assign = kfold_split(23, 4, seed=0)
    assert assign.shape == (23,)
    assert assign.min() >= 0 and assign.max() < 4


def test_kfold_bad_counts():
    with pytest.raises(BadFoldCount):
        kfold_split(10, 1, seed=0)
    with pytest.raises(BadFoldCount):
        kfold_split(10, 11, seed=0)


def test_tuning_grid_validation():
    with pytest.raises(ValueError):
        TuningGrid(lambdas=(), gammas=(0.1,), k_folds=2, seed=0)
    with pytest.raises(ValueError):
        TuningGrid(lambdas=(0.0,), gammas=(0.2, 0.1), k_folds=2, seed=0)
    with pytest.raises(ValueError, match="gamma values must be >= 0"):
        TuningGrid(lambdas=(0.0,), gammas=(-0.1, 0.1), k_folds=2, seed=0)
    # gamma = 0 is a valid jump penalty, as segment.pelt takes it
    assert TuningGrid(lambdas=(0.0,), gammas=(0.0,), k_folds=2, seed=0).gammas == (0.0,)
    with pytest.raises(ValueError):
        TuningGrid(lambdas=(0.0,), gammas=(0.1,), k_folds=1, seed=0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="lambda grid must be finite"):
            TuningGrid(lambdas=(0.0, bad), gammas=(0.1,), k_folds=2, seed=0)
        with pytest.raises(ValueError, match="gamma grid must be finite"):
            TuningGrid(lambdas=(0.0,), gammas=(0.1, bad), k_folds=2, seed=0)


# ------------------------------------------------------- naive CV oracle


def naive_cv_scores(X, A, Y, m, lambdas, gammas, assign):
    """Per-(lambda, gamma) refit CV with dense solves and Python membership."""
    n = len(Y)
    H, J = len(lambdas), len(gammas)
    scores = np.zeros((H, J))
    for fid in sorted(set(int(f) for f in assign)):
        va = np.asarray(assign) == fid
        tr = ~va
        Xt, At, Yt = X[tr], A[tr], Y[tr]
        for h, lam in enumerate(lambdas):
            table = {
                (lo, hi): cost_oracle(Xt, At, Yt, lo, hi, m, lam)
                for lo in range(m)
                for hi in range(lo + 1, m + 1)
            }
            for j, gam in enumerate(gammas):
                part, _ = dp_no_prune(lambda lo, hi: table[(lo, hi)], m, gam)
                thetas = [
                    ridge_oracle(Xt, At, Yt, iv.lo, iv.hi, m, lam)
                    for iv in part.intervals
                ]
                sse = 0.0
                for i in np.flatnonzero(va):
                    c = cell_of(A[i], m)
                    k = next(
                        ki for ki, iv in enumerate(part.intervals) if iv.lo <= c < iv.hi
                    )
                    pred = thetas[k][0] + float(np.dot(X[i], thetas[k][1:]))
                    sse += (Y[i] - pred) ** 2
                scores[h, j] += sse
    return scores / n


def naive_best(scores, lambdas, gammas):
    best = (np.inf, None, None)
    for h in reversed(range(len(lambdas))):
        for j in reversed(range(len(gammas))):
            if scores[h, j] < best[0]:
                best = (scores[h, j], lambdas[h], gammas[j])
    return best[1], best[2]


# ------------------------------------------------------------- ljil CV


def piecewise_data(rng, n, p=2, noise=0.5):
    X = rng.uniform(-1, 1, (n, p))
    A = rng.random(n)
    q = np.where(A < 0.5, 1.0 + X[:, 0], 1.0 - X[:, 1])
    return Dataset(X, A, q + noise * rng.standard_normal(n))


def test_cv_single_cell_matches_explicit_loop(rng):
    d = piecewise_data(rng, 60)
    grid = TuningGrid(lambdas=(0.01,), gammas=(0.2,), k_folds=3, seed=4)
    rep = cv_select_ljil(d, 6, grid)
    assign = kfold_split(60, 3, seed=4)
    want = naive_cv_scores(d.covariates, d.treatments, d.outcomes, 6, (0.01,), (0.2,), assign)
    np.testing.assert_allclose(rep.scores, want, rtol=1e-8, atol=1e-10)
    assert rep.best_lambda == 0.01 and rep.best_gamma == 0.2


def test_cv_overflowing_outcomes_raise_invalid_data(rng):
    # 1e160 * N(0, 1) outcomes overflow every fold's moments: CV names the
    # outcomes rather than scoring NaN costs
    d = piecewise_data(rng, 120)
    big = Dataset(d.covariates, d.treatments, 1e160 * rng.standard_normal(d.n))
    with pytest.raises(InvalidData, match="outcomes are too large") as exc:
        cv_select_ljil(big, 12, default_grid(d.n, seed=0))
    assert exc.value.field == "outcomes"


def test_cv_grid_matches_naive_refit(rng):
    d = piecewise_data(rng, 120)
    g0 = default_gamma(120)
    lambdas = (0.0, 1e-3, 1e-2)
    gammas = (0.5 * g0, g0, 2.0 * g0)
    grid = TuningGrid(lambdas=lambdas, gammas=gammas, k_folds=5, seed=9)
    rep = cv_select_ljil(d, 8, grid)
    assign = kfold_split(120, 5, seed=9)
    want = naive_cv_scores(d.covariates, d.treatments, d.outcomes, 8, lambdas, gammas, assign)
    np.testing.assert_allclose(rep.scores, want, rtol=1e-8, atol=1e-10)
    bl, bg = naive_best(want, lambdas, gammas)
    assert rep.best_lambda == bl and rep.best_gamma == bg
    np.testing.assert_array_equal(rep.fold_assignments, assign)


def test_cv_huge_gamma_column_is_global_ridge(rng):
    d = piecewise_data(rng, 90)
    lam = 1e-2
    grid = TuningGrid(lambdas=(lam,), gammas=(0.05, 1e6), k_folds=3, seed=2)
    rep = cv_select_ljil(d, 10, grid)
    assign = kfold_split(90, 3, seed=2)
    sse = 0.0
    for fid in range(3):
        va = assign == fid
        tr = ~va
        theta = ridge_oracle(
            d.covariates[tr], d.treatments[tr], d.outcomes[tr], 0, 10, 10, lam
        )
        pred = theta[0] + d.covariates[va] @ theta[1:]
        sse += float(np.sum((d.outcomes[va] - pred) ** 2))
    assert rep.scores[0, 1] == pytest.approx(sse / 90, rel=1e-8)


def test_cv_all_zero_outcomes_tie_breaks_to_largest_pair(rng):
    n = 50
    d = Dataset(rng.uniform(-1, 1, (n, 2)), rng.random(n), np.zeros(n))
    grid = TuningGrid(lambdas=(0.0, 1e-3, 1e-2), gammas=(0.1, 0.3), k_folds=5, seed=6)
    rep = cv_select_ljil(d, 5, grid)
    np.testing.assert_array_equal(rep.scores, np.zeros((3, 2)))
    assert rep.best_lambda == 1e-2
    assert rep.best_gamma == 0.3


def test_cv_fold_relabel_invariance(rng, monkeypatch):
    d = piecewise_data(rng, 80)
    grid = TuningGrid(lambdas=(0.0, 1e-2), gammas=(0.1, 0.4), k_folds=4, seed=5)
    r1 = cv_select_ljil(d, 6, grid)
    relabel = np.array([2, 3, 0, 1])[kfold_split(80, 4, seed=5)]
    monkeypatch.setattr(tuning_mod, "kfold_split", lambda n, k, seed: relabel)
    r2 = cv_select_ljil(d, 6, grid)
    np.testing.assert_array_equal(r2.fold_assignments, relabel)
    np.testing.assert_array_equal(r1.scores, r2.scores)
    assert r1.best_lambda == r2.best_lambda and r1.best_gamma == r2.best_gamma


def test_cv_deterministic(rng):
    d = piecewise_data(rng, 70)
    grid = TuningGrid(lambdas=(0.0, 1e-3), gammas=(0.1, 0.2), k_folds=3, seed=8)
    r1 = cv_select_ljil(d, 7, grid)
    r2 = cv_select_ljil(d, 7, grid)
    np.testing.assert_array_equal(r1.scores, r2.scores)
    np.testing.assert_array_equal(r1.fold_assignments, r2.fold_assignments)


def test_cv_scores_nonnegative_finite(rng):
    d = piecewise_data(rng, 64, noise=2.0)
    grid = TuningGrid(lambdas=(0.0, 1e-2), gammas=(0.05, 0.5), k_folds=4, seed=1)
    rep = cv_select_ljil(d, 6, grid)
    assert np.all(np.isfinite(rep.scores))
    assert np.all(rep.scores >= 0.0)
    assert isinstance(rep, CvReport)


def test_cv_report_best_attains_minimum(rng):
    d = piecewise_data(rng, 100)
    grid = TuningGrid(lambdas=(0.0, 1e-3, 1e-2), gammas=(0.05, 0.15, 0.45), k_folds=5, seed=3)
    rep = cv_select_ljil(d, 8, grid)
    h = list(grid.lambdas).index(rep.best_lambda)
    j = list(grid.gammas).index(rep.best_gamma)
    assert rep.scores[h, j] == rep.scores.min()


def one_cost_row(table, h, lam):
    """(costfn, batched) of the costs at lam, the h-th lambda, read apart
    from the stacked columns() the CV runs where the table allows: a ridge
    table through its scalar costfn; a network table has only columns(), of
    which row h is taken."""
    if isinstance(table, CostCache):
        return table.costfn(lam), False
    columns = table.columns()
    return (lambda R, r: columns(R, r)[h : h + 1]), True


def reference_fold_loop(d, make_table, grid):
    """CV scores as one separate DP per (lambda, gamma) pair computes them:
    per fold, a table, H*J single-gamma pelt calls each over one_cost_row,
    and one models call per partition; folds combined by exact summation."""
    assign = kfold_split(d.n, grid.k_folds, grid.seed)
    H, J = len(grid.lambdas), len(grid.gammas)
    parts = [[[] for _ in range(J)] for _ in range(H)]
    for fid in range(grid.k_folds):
        va = assign == fid
        table = make_table(d.subset(np.flatnonzero(~va)))
        cells = grid_cell(d.treatments[va], table.m)
        for h, lam in enumerate(grid.lambdas):
            costfn, batched = one_cost_row(table, h, lam)
            for j, gamma in enumerate(grid.gammas):
                part, _ = pelt(costfn, table.m, gamma, batched=batched)
                edges = np.array(part.edges())
                models = table.models(edges[:-1], edges[1:], lam)
                idx = np.searchsorted(edges[1:], cells, side="right")
                pred = np.empty(int(va.sum()))
                for k, model in enumerate(models):
                    pred[idx == k] = model.predict_batch(d.covariates[va][idx == k])
                resid = d.outcomes[va] - pred
                parts[h][j].append(float(np.dot(resid, resid)))
    scores = np.array([[math.fsum(parts[h][j]) for j in range(J)] for h in range(H)])
    return scores / d.n


@pytest.mark.parametrize("scenario", [1, 3, 5])
def test_cv_matches_reference_fold_loop_bitwise(scenario):
    d, _ = gen_scenario(ScenarioSpec(scenario, 400, 4, 2))
    m = make_grid(d.n, 5.0)
    grid = default_grid(d.n, seed=2)
    rep = cv_select_ljil(d, m, grid)
    want = reference_fold_loop(
        d, lambda d_tr: CostCache(d_tr, m, lambdas=grid.lambdas, precompute=True), grid
    )
    assert rep.scores.tobytes() == want.tobytes()
    assert (rep.best_lambda, rep.best_gamma) == naive_best(want, grid.lambdas, grid.gammas)


def test_cv_one_theta_call_per_fold_and_lambda(rng, monkeypatch):
    d = piecewise_data(rng, 200)
    grid = TuningGrid(lambdas=(0.0, 1e-2), gammas=(0.01, 0.05, 0.2), k_folds=4, seed=1)
    calls = []
    real = CostCache.theta

    def recording(self, los, his, lam):
        calls.append((lam, list(zip(np.asarray(los).tolist(), np.asarray(his).tolist()))))
        return real(self, los, his, lam)

    monkeypatch.setattr(CostCache, "theta", recording)
    cv_select_ljil(d, 10, grid)
    assert [lam for lam, _ in calls] == [lam for _ in range(4) for lam in grid.lambdas]
    for _, pairs in calls:
        assert pairs == sorted(set(pairs))  # each distinct interval solved once


def test_cv_holds_no_interval_table():
    # one fold's table alone would take H (m+1)^2 8 B = 15.4 MB at m = 800
    d, _ = gen_scenario(ScenarioSpec(1, 4000, 4, 7))
    m = make_grid(d.n, 5.0)
    assert m == 800
    tracemalloc.start()
    try:
        cv_select_ljil(d, m, default_grid(d.n, seed=7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


# ------------------------------------------------------------- djil CV


def small_cfg(seed=0, epochs=40):
    return TrainConfig(hidden=(4,), epochs=epochs, learning_rate=0.05, batch_size=32, seed=seed)


def djil_grid(gammas, k, seed):
    return TuningGrid(lambdas=(0.0,), gammas=gammas, k_folds=k, seed=seed)


def test_djil_cv_single_candidate(rng):
    n = 40
    d = Dataset(rng.uniform(-1, 1, (n, 2)), rng.random(n), rng.standard_normal(n))
    rep = cv_select_djil(d, 3, djil_grid((0.3,), 2, 5), small_cfg(seed=0))
    assert (rep.best_lambda, rep.best_gamma) == (0.0, 0.3)
    # the folds come from the grid's seed, not the training seed
    np.testing.assert_array_equal(rep.fold_assignments, kfold_split(n, 2, 5))


def test_djil_cv_rejects_a_lambda_axis(rng, monkeypatch):
    n = 40
    d = Dataset(rng.uniform(-1, 1, (n, 2)), rng.random(n), rng.standard_normal(n))
    monkeypatch.setattr(fit_mod, "mlp_train",
                        lambda dd, ivs, cfg: pytest.fail(f"trained {len(ivs)} networks"))
    for lambdas in ((0.0, 1e-3), (1e-3,)):
        grid = TuningGrid(lambdas=lambdas, gammas=(0.3,), k_folds=2, seed=0)
        with pytest.raises(ValueError, match="lambdas"):
            cv_select_djil(d, 3, grid, small_cfg())


def test_djil_cv_matches_naive_per_gamma_loop(rng):
    n = 60
    X = rng.uniform(-1, 1, (n, 2))
    A = rng.random(n)
    Y = np.where(A < 0.5, 2.0, -2.0) + 0.3 * rng.standard_normal(n)
    d = Dataset(X, A, Y)
    m, k = 4, 2
    gammas = (0.01, 2.0)
    cfg = small_cfg(seed=7)
    rep = cv_select_djil(d, m, djil_grid(gammas, k, 7), cfg)

    assign = kfold_split(n, k, seed=7)
    scores = np.zeros(len(gammas))
    for fid in range(k):
        va = assign == fid
        d_tr = d.subset(np.flatnonzero(~va))
        cells_tr = np.array([cell_of(a, m) for a in d_tr.treatments])

        def seg_cost(lo, hi):
            rows = (cells_tr >= lo) & (cells_tr < hi)
            if not rows.any():
                return 0.0
            model = mlp_train(d_tr, Interval(lo, hi, m), cfg)
            r = d_tr.outcomes[rows] - model.predict_batch(d_tr.covariates[rows])
            return float(r @ r) / d_tr.n

        for j, gam in enumerate(gammas):
            part, _ = dp_no_prune(seg_cost, m, gam)
            sse = 0.0
            for i in np.flatnonzero(va):
                c = cell_of(d.treatments[i], m)
                iv = part.intervals[
                    next(ki for ki, q in enumerate(part.intervals) if q.lo <= c < q.hi)
                ]
                rows = (cells_tr >= iv.lo) & (cells_tr < iv.hi)
                if rows.any():
                    model = mlp_train(d_tr, Interval(iv.lo, iv.hi, m), cfg)
                    pred = model.predict_batch(d.covariates[i : i + 1])[0]
                else:  # an interval without training rows predicts 0
                    pred = 0.0
                sse += (d.outcomes[i] - pred) ** 2
            scores[j] += sse
    scores /= n
    best = (np.inf, None)
    for j in reversed(range(len(gammas))):
        if scores[j] < best[0]:
            best = (scores[j], gammas[j])
    assert rep.best_gamma == best[1]
    assert rep.best_lambda == 0.0
    assert rep.scores.shape == (1, len(gammas))
    np.testing.assert_allclose(rep.scores[0], scores, rtol=1e-12)


def test_djil_cv_trains_each_interval_once_per_fold(rng, monkeypatch):
    n, m, k = 60, 5, 3
    A = rng.random(n)
    Y = np.where(A < 0.5, 2.0, -2.0) + 0.3 * rng.standard_normal(n)
    d = Dataset(rng.uniform(-1, 1, (n, 2)), A, Y)
    calls = []
    real = fit_mod.mlp_train

    def counting(dd, ivs, cfg):
        # holding dd keeps each fold's id unique
        calls.extend((dd, iv.lo, iv.hi) for iv in ivs)
        return real(dd, ivs, cfg)

    monkeypatch.setattr(fit_mod, "mlp_train", counting)
    cv_select_djil(d, m, djil_grid((0.001, 0.01, 0.1, 1.0), k, 2), small_cfg(seed=2, epochs=5))
    folds = {}
    for dd, lo, hi in calls:
        folds.setdefault(id(dd), []).append((lo, hi))
    assert len(folds) == k
    for pairs in folds.values():
        assert len(pairs) == len(set(pairs)) <= m * (m + 1) // 2


def test_djil_cv_skips_held_out_rows_in_untrained_interval(rng, monkeypatch):
    # row 0 is alone in cell 0, so in its held-out fold the interval [0, 1)
    # has no training rows; like an empty ridge segment it predicts 0, so
    # the row adds y_0^2 to the score instead of being skipped
    n, k = 30, 2
    A = np.concatenate([[0.1], np.full(n - 1, 0.9)])
    Y = np.concatenate([[5.0], rng.standard_normal(n - 1)])
    d = Dataset(rng.uniform(-1, 1, (n, 2)), A, Y)
    forced = Partition.from_edges([0, 1, 2], 2)
    monkeypatch.setattr(
        tuning_mod, "pelt", lambda costfn, m, gammas, **kw: [[(forced, 0.0)] * len(gammas)]
    )
    cfg = small_cfg(epochs=5)
    rep = cv_select_djil(d, 2, djil_grid((0.1, 0.2), k, 0), cfg)
    # both gammas see the same partition, so the tie goes to the larger one
    assert rep.best_gamma == 0.2
    assign = kfold_split(n, k, 0)
    sse = 0.0
    for fid in range(k):
        va = assign == fid
        d_tr = d.subset(np.flatnonzero(~va))
        for i in np.flatnonzero(va):
            if i == 0:
                pred = 0.0  # no training row in [0, 1)
            else:
                net = mlp_train(d_tr, Interval(1, 2, 2), cfg)
                pred = net.predict_batch(d.covariates[i : i + 1])[0]
            sse += (d.outcomes[i] - pred) ** 2
    scores = rep.scores
    assert scores.shape == (1, 2) and scores[0, 0] == scores[0, 1]
    assert scores[0, 0] == pytest.approx(sse / n, rel=1e-12)
    assert scores[0, 0] >= 25.0 / n


def test_djil_cv_deterministic(rng):
    n = 50
    d = Dataset(rng.uniform(-1, 1, (n, 2)), rng.random(n), rng.standard_normal(n))
    g = (0.05, 0.5)
    first = cv_select_djil(d, 3, djil_grid(g, 2, 3), small_cfg(seed=3))
    again = cv_select_djil(d, 3, djil_grid(g, 2, 3), small_cfg(seed=3))
    assert first.best_gamma == again.best_gamma
    assert first.scores.tobytes() == again.scores.tobytes()


def test_djil_cv_global_linear_data_prefers_fewest_segments():
    wins = 0
    for seed in range(20):
        r = np.random.default_rng(1000 + seed)
        n = 60
        X = r.uniform(-1, 1, (n, 2))
        A = r.random(n)
        Y = 1.0 + X[:, 0] - X[:, 1] + 0.2 * r.standard_normal(n)
        d = Dataset(X, A, Y)
        grid = djil_grid((0.005, 1.0), 3, seed)
        best = cv_select_djil(d, 5, grid, small_cfg(seed=seed, epochs=60)).best_gamma
        wins += best == 1.0
    assert wins >= 16


def test_djil_cv_matches_reference_fold_loop(rng, monkeypatch):
    n, m = 80, 6
    A = rng.random(n)
    d = Dataset(rng.uniform(-1, 1, (n, 2)), A, np.where(A < 0.5, 1.0, -1.0) + rng.standard_normal(n))
    grid = djil_grid((0.001, 0.01, 0.1), 3, 4)
    cfg = small_cfg(seed=4, epochs=5)
    trainings = []
    real = fit_mod.mlp_train
    # networks, not trainer calls: the batched DP trains a column's in one call
    monkeypatch.setattr(fit_mod, "mlp_train",
                        lambda dd, ivs, c: trainings.extend(ivs) or real(dd, ivs, c))
    rep = cv_select_djil(d, m, grid, cfg)
    got = len(trainings)
    trainings.clear()
    want = reference_fold_loop(d, lambda d_tr: NetworkCosts(d_tr, m, cfg), grid)
    assert rep.scores.tobytes() == want.tobytes()
    assert got == len(trainings) > 0


# ------------------------------------------------------------- defaults


def test_default_gamma_values():
    assert default_gamma(800) == pytest.approx(4.0 * np.log(800) / 800, rel=1e-15)
    assert default_gamma(800) == pytest.approx(0.033423, abs=1e-5)
    assert default_gamma(7) == pytest.approx(4.0 * np.log(7) / 7, rel=1e-15)
    assert default_gamma(2) == pytest.approx(2.0 * np.log(2.0), rel=1e-15)
    with pytest.raises(InsufficientData):
        default_gamma(1)


def test_default_grid_shape():
    g = default_grid(200, seed=5)
    assert tuple(g.lambdas) == (0.0, 1e-3, 1e-2)
    g0 = default_gamma(200)
    np.testing.assert_allclose(g.gammas, g0 * np.array([0.25, 0.5, 1.0, 2.0, 4.0]), rtol=1e-15)
    assert g.k_folds == 5 and g.seed == 5
