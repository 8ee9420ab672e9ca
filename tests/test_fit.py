"""End-to-end segmentation fits: data -> costs -> partition -> models."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

import jil.cost
import jil.fit as fit_mod
from jil.core import Dataset, Interval, Linear, Partition, make_grid, normalize_treatment
from jil.cost import CostCache
from jil.errors import InvalidData, NoConvergence
from jil.fit import fit_djil, fit_ljil, recompute_objective
from jil.mlp import MlpModel, TrainConfig
from jil.policy import I2dr, recommend_batch
from jil.segment import pelt
from jil.sim import ScenarioSpec, gen_scenario
from jil.tuning import TuningGrid, cv_select_djil, default_gamma

from conftest import (block_rule, diverging_sgd_rows, enumerate_partitions, indicator_data,
                      reference_pelt)


def s1_like(rng, n, p=2, noise=0.25):
    """Three constant-in-a branches with cuts at 0.35 and 0.65."""
    X = rng.uniform(-1.0, 1.0, (n, p))
    A = rng.random(n)
    q = np.where(A < 0.35, 1.0 + X[:, 0], np.where(A < 0.65, X[:, 0] - X[:, 1], 1.0 - X[:, 1]))
    Y = q + noise * rng.standard_normal(n)
    return Dataset(X, A, Y)


# ------------------------------------------------------------------- ljil


@pytest.mark.parametrize(
    "lam, field, scale_y, shift_y, scale_x",
    [(0.0, "outcomes", 1e160, 0.0, 1.0), (0.0, "covariates", 1.0, 0.0, 1e160),
     (1e-2, "outcomes", 1e160, 0.0, 1.0), (1e-2, "outcomes", 1.0, 1e155, 1.0),
     (1e-2, "covariates", 1.0, 0.0, 1e160)],
)
def test_ljil_overflowing_moments_raise_invalid_data(rng, field, scale_y, shift_y, scale_x, lam):
    # finite data whose moments (or, at lam > 0, the squared outcome mean of
    # the penalty) overflow would make every cost NaN; the fit names the
    # field instead, without an overflow warning, which the test
    # configuration raises
    d = s1_like(rng, 200)
    big = Dataset(scale_x * d.covariates, d.treatments, scale_y * d.outcomes + shift_y)
    with pytest.raises(InvalidData, match=f"{field} are too large") as exc:
        fit_ljil(big, 40, lam, default_gamma(200))
    assert (exc.value.field, exc.value.row) == (field, None)


def test_ljil_large_outcome_mean_fits_at_lambda_zero(rng):
    # at lam = 0 the costs carry no penalty, so an outcome mean whose square
    # overflows still fits; the penalty needs that square at any lam > 0
    d = s1_like(rng, 200)
    big = Dataset(d.covariates, d.treatments, d.outcomes + 1e155)
    f = fit_ljil(big, 40, 0.0, default_gamma(200))
    assert np.isfinite(f.objective)
    assert all(np.isfinite(model.theta).all() for model in f.models)
    cache = CostCache(big, 40)
    for lam in (1e-2, 1e-300):
        with pytest.raises(InvalidData, match="outcomes are too large"):
            cache.theta(np.array([0]), np.array([40]), lam)
    column = CostCache(big, 40, lambdas=(0.0, 1e-2)).columns()
    for r in (40, 1, 2):  # a block that failed leaves no costs to read
        with pytest.raises(InvalidData, match="outcomes are too large"):
            column(np.array([0]), r)


def test_ljil_outcome_mean_past_squared_overflow_scales_exactly():
    # scaling by powers of two is exact, so outcomes scaled by 2^503 (mean
    # about 2^513, whose square overflows; the centered moments do not) fit
    # the partition of the unscaled data, with the objective scaled by
    # 2^1006 and theta by 2^503, bit for bit
    d, _ = gen_scenario(ScenarioSpec(1, 400, 4, 0))
    y = 2.0**10 + d.outcomes
    big = 2.0**503 * y
    c = float(np.mean(big))
    assert math.isinf(c * c)
    m, gamma = make_grid(d.n, 5.0), default_gamma(d.n)
    base = fit_ljil(Dataset(d.covariates, d.treatments, y), m, 0.0, gamma)
    got = fit_ljil(Dataset(d.covariates, d.treatments, big), m, 0.0, gamma * 2.0**1006)
    assert got.partition == base.partition
    assert got.objective == base.objective * 2.0**1006
    for a, b in zip(got.models, base.models):
        assert a.theta.tobytes() == (b.theta * 2.0**503).tobytes()


def test_ljil_matches_manual_pipeline(rng):
    d = s1_like(rng, 150)
    m, lam, gamma = 20, 1e-3, 0.05
    f = fit_ljil(d, m, lam, gamma)
    cache = CostCache(d, m, lambdas=(lam,), precompute=True)
    part, obj = pelt(cache.costfn(lam), m, gamma)
    assert f.partition == part
    assert f.objective == obj
    for model, iv in zip(f.models, part.intervals):
        alone = cache.theta(np.array([iv.lo]), np.array([iv.hi]), lam)[0]
        assert model.theta.tobytes() == alone.tobytes()


def test_ljil_recovers_three_segments(rng):
    n = 400
    d = s1_like(rng, n)
    gamma = 4.0 * np.log(n) / n
    f = fit_ljil(d, 80, 0.0, gamma)
    assert f.partition.size == 3
    b = f.partition.boundaries()
    assert abs(b[0] - 0.35) <= 0.05
    assert abs(b[1] - 0.65) <= 0.05


def test_ljil_objective_matches_independent_recompute(rng):
    d = s1_like(rng, 200)
    f = fit_ljil(d, 25, 1e-2, 0.08)
    assert recompute_objective(d, f) == pytest.approx(f.objective, rel=1e-8, abs=1e-10)


def test_ljil_prewarmed_cache_identical(rng):
    # the fit body over a table filled up front and fit_ljil's lazy table
    # must give the same partition, objective and coefficients
    d = s1_like(rng, 120)
    m, lam, gamma = 15, 0.0, 0.1
    cache = CostCache(d, m, lambdas=(lam,), precompute=True)
    f1 = fit_mod._fit(cache, lam, gamma)
    f2 = fit_ljil(d, m, lam, gamma)
    assert f1.partition == f2.partition
    assert f1.objective == f2.objective
    for a, b in zip(f1.models, f2.models):
        np.testing.assert_array_equal(a.theta, b.theta)


def test_ljil_lazy_and_bulk_identical(rng):
    d = s1_like(rng, 100)
    eager = CostCache(d, 12, lambdas=(1e-3,), precompute=True)
    f1 = fit_mod._fit(eager, 1e-3, 0.07)
    f2 = fit_ljil(d, 12, 1e-3, 0.07)
    assert f1.partition == f2.partition
    assert f1.objective == f2.objective


def test_ljil_computes_only_pruned_survivors(rng, factorized):
    d = s1_like(rng, 400)
    m, lam, gamma = 80, 0.0, 4.0 * np.log(400) / 400
    cost = CostCache(d, m, lambdas=(lam,), precompute=True).costfn(lam)
    partition, _, columns = reference_pelt(lambda R, r: [cost(j, r) for j in R.tolist()], m, gamma)
    candidates = [(j, r) for R, r in columns for j in R.tolist()]  # each R_r
    factorized.clear()
    factorized.intervals.clear()
    f = fit_ljil(d, m, lam, gamma)
    calls = len(factorized)
    stacked = np.concatenate(factorized.intervals)[:, 1:].astype(np.int64).tolist()
    assert f.partition == partition
    # each candidate once, and the final intervals' coefficients through no
    # kernel call; the cost stacks are the block rule's rectangles, whose
    # speculation stays below _BLOCK_PAIRS intervals per kernel call
    assert len(set(map(tuple, stacked))) == len(stacked)
    assert set(candidates) <= set(map(tuple, stacked))
    assert factorized == block_rule(columns, m, jil.cost._BLOCK_PAIRS)
    assert len(stacked) - len(candidates) < calls * jil.cost._BLOCK_PAIRS
    assert len(candidates) < m * (m + 1) // 2
    assert f.partition.size == 3


def test_ljil_peak_memory_at_n4000():
    # no O(m^2) allocation on the fit path (at m = 800 one (m+1)^2 float64
    # table alone would take 4.9 MB), and no (n, d, d) temporaries in the
    # prefix sums, which are summed per cell first and stored packed; the
    # fit peaks at 0.63 MiB (numpy 2.4, Python 3.11), and the bound leaves
    # about 7% above that
    d, _ = gen_scenario(ScenarioSpec(1, 4000, 4, 7))
    m = make_grid(d.n, 5.0)
    assert m == 800
    tracemalloc.start()
    try:
        fit_ljil(d, m, 0.0, 4.0 * np.log(d.n) / d.n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.68 * 2**20


def test_ljil_partition_invariant_to_outcome_offset():
    # the partition must not depend on shifting the outcome, up to 1e7
    n, m = 400, 80
    for seed in range(5):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1.0, 1.0, (n, 4))
        A = rng.random(n)
        Y = X.sum(axis=1) + rng.standard_normal(n)
        base = fit_ljil(Dataset(X, A, Y), m, 0.0, 4.0 * np.log(n) / n).partition
        shifted = fit_ljil(Dataset(X, A, Y + 1e7), m, 0.0, 4.0 * np.log(n) / n).partition
        assert shifted == base, seed


def test_ljil_partition_invariant_to_covariate_offset():
    # at lam = 0 the intercept absorbs a covariate shift, so the partition
    # must not move
    n, m = 400, 80
    for seed in range(5):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1.0, 1.0, (n, 4))
        A = rng.random(n)
        Y = X.sum(axis=1) + rng.standard_normal(n)
        base = fit_ljil(Dataset(X, A, Y), m, 0.0, 4.0 * np.log(n) / n).partition
        for offset in (1e2, 1e3, 1e4):
            shifted = fit_ljil(Dataset(X + offset, A, Y), m, 0.0, 4.0 * np.log(n) / n).partition
            assert shifted == base, (seed, offset)


@pytest.mark.xfail(raises=AssertionError,
                   reason="ROADMAP items 14/16: at lam = 0 a rank-deficient interval's "
                          "min-norm theta depends on how a rare indicator is coded")
def test_ljil_recommendations_invariant_to_indicator_coding():
    # 1 - x and x + 3 carry the same information as a 0/1 indicator, and
    # the intercept absorbs the change on every interval of full rank; on
    # an interval where the indicator is constant the min-norm theta splits
    # the intercept differently, so unseen codings predict differently
    n = 400
    m, gamma = make_grid(n, 5.0), default_gamma(n)
    for seed in range(10):
        d = indicator_data(n, (0.01,), seed)
        X = indicator_data(2000, (0.01,), seed + 100).covariates.copy()
        X[:, -1] = np.arange(X.shape[0]) % 2  # both codes in every test batch
        want = recommend_batch(I2dr(fit_ljil(d, m, 0.0, gamma)), X)
        for recode in (lambda x: 1.0 - x, lambda x: x + 3.0):
            Xr, Zr = d.covariates.copy(), X.copy()
            Xr[:, -1], Zr[:, -1] = recode(Xr[:, -1]), recode(Zr[:, -1])
            fit = fit_ljil(Dataset(Xr, d.treatments, d.outcomes), m, 0.0, gamma)
            assert recommend_batch(I2dr(fit), Zr).tolist() == want.tolist(), seed


def test_ljil_fields_recorded(rng):
    d = s1_like(rng, 80)
    f = fit_ljil(d, 10, 1e-2, 0.2)
    assert (f.m, f.lam, f.gamma, f.method) == (10, 1e-2, 0.2, "ljil")
    assert all(isinstance(mod, Linear) for mod in f.models)


def test_ljil_rejects_invalid_data(rng):
    X = rng.uniform(-1, 1, (20, 2))
    A = rng.random(20)
    Y = rng.standard_normal(20)
    Y[7] = np.nan
    with pytest.raises(InvalidData):
        fit_ljil(Dataset(X, A, Y), 5, 0.0, 0.1)


def test_ljil_intercept_only_step_matches_enumeration(rng):
    # p = 0: intercept-only segments; the step boundary sits at cell 5 of 10
    n = 200
    A = rng.random(n)
    Y = np.where(A < 0.5, 0.0, 10.0) + 0.1 * rng.standard_normal(n)
    d = Dataset(np.empty((n, 0)), A, Y)
    m, gamma = 10, 0.05
    f = fit_ljil(d, m, 0.0, gamma)
    cache = CostCache(d, m, lambdas=(0.0,), precompute=True)
    part, obj = enumerate_partitions(cache.costfn(0.0), m, gamma)
    assert f.partition == part
    assert f.objective == pytest.approx(obj, rel=1e-12)
    assert 5 in f.partition.edges()


# ------------------------------------------------------------------- djil


def djil_cfg(seed=0, epochs=300):
    return TrainConfig(hidden=(8,), epochs=epochs, learning_rate=0.05, batch_size=32, seed=seed)


def test_djil_step_data_two_segments(rng):
    n = 120
    A = rng.random(n)
    Y = np.where(A < 0.5, 0.0, 4.0) + 0.1 * rng.standard_normal(n)
    d = Dataset(rng.uniform(-1, 1, (n, 1)), A, Y)
    f = fit_djil(d, 6, 0.05, djil_cfg())
    assert f.partition.edges() == [0, 3, 6]
    assert f.method == "djil"
    assert f.lam == 0.0


def test_djil_huge_gamma_single_interval(rng):
    n = 80
    d = Dataset(rng.uniform(-1, 1, (n, 2)), rng.random(n), rng.standard_normal(n))
    f = fit_djil(d, 5, 50.0, djil_cfg(epochs=50))
    assert f.partition.size == 1


def counting_trainer(monkeypatch, record):
    """Route fit.mlp_train through a wrapper that appends each call's
    intervals, as one list per trainer call, to record."""
    real = fit_mod.mlp_train

    def counting(dd, intervals, cfg):
        record.append([(iv.lo, iv.hi) for iv in intervals])
        return real(dd, intervals, cfg)

    monkeypatch.setattr(fit_mod, "mlp_train", counting)


def counting_blocks(monkeypatch, trainer_calls, record):
    """Route fit.pelt's column function through a wrapper that appends, per
    block, (V, r, b, the trainer calls the block made) to record, reading
    the calls from the list counting_trainer fills."""
    real = fit_mod.pelt

    def counting(column, m, gamma, **kw):
        def block(U, r):
            before = len(trainer_calls)
            costs = column(U, r)
            b = costs.shape[1]
            record.append((U.tolist() + list(range(r, r + b - 1)), r, b, trainer_calls[before:]))
            return costs

        return real(block, m, gamma, **kw)

    monkeypatch.setattr(fit_mod, "pelt", counting)


def test_djil_trains_each_interval_once(rng, monkeypatch):
    n = 90
    A = rng.random(n)
    Y = np.where(A < 0.5, 0.0, 4.0) + 0.1 * rng.standard_normal(n)
    d = Dataset(rng.uniform(-1, 1, (n, 1)), A, Y)
    per_call, blocks = [], []
    counting_trainer(monkeypatch, per_call)
    counting_blocks(monkeypatch, per_call, blocks)
    m = 6
    f = fit_djil(d, m, 0.05, djil_cfg(epochs=60))
    calls = [pair for pairs in per_call for pair in pairs]
    assert len(calls) == len(set(calls))
    assert len(calls) <= m * (m + 1) // 2
    assert len(calls) >= f.partition.size
    # one lockstep call per block of DP columns at most, over the block's own pairs
    assert 0 < len(per_call) <= len(blocks) < m and all(per_call)
    for V, r, b, made in blocks:
        assert len(made) <= 1
        assert all(set(pairs) <= {(j, r + t) for t in range(b) for j in V if j < r + t}
                   for pairs in made)


def test_djil_trains_the_intervals_per_pair_pelt_trains(rng, monkeypatch):
    # the block DP asks for the candidates the per-pair DP asks for, column
    # by column, so it trains those networks, with the same bits, and the
    # pairs its blocks add past the candidates
    d, _ = gen_scenario(ScenarioSpec(2, 120, 2, 3))
    m, gamma, cfg = 12, 0.05, djil_cfg(seed=1, epochs=5)
    per_call = []
    counting_trainer(monkeypatch, per_call)
    f = fit_djil(d, m, gamma, cfg)
    batched = [pair for pairs in per_call for pair in pairs]
    assert len(per_call) < m
    per_call.clear()
    monkeypatch.setattr(fit_mod, "_BLOCK_NETWORKS", 1)  # one-pair calls
    column = fit_mod.NetworkCosts(d, m, cfg).columns()
    part, obj = pelt(lambda lo, hi: column(np.array([lo]), hi)[0, 0, 0], m, gamma)
    per_pair = [pair for pairs in per_call for pair in pairs]
    assert all(len(pairs) == 1 for pairs in per_call)
    assert len(batched) == len(set(batched))
    assert set(batched) >= set(per_pair)
    assert len(batched) >= len(per_pair) > m
    assert f.partition == part
    assert float(f.objective).hex() == float(obj).hex()


@pytest.mark.parametrize("scenario", [1, 2])
@pytest.mark.parametrize("hidden", [(8,), (4, 3)])
def test_djil_bits_do_not_depend_on_the_block_width(monkeypatch, scenario, hidden):
    # the DP reads the same candidates column by column whatever the block
    # width, and a network gets the same bits in any stack, so one network
    # per trainer call (one column per block) changes no partition,
    # objective, weight or CV score, only the number of calls
    d, _ = gen_scenario(ScenarioSpec(scenario, 160, 2, 5))
    cfg = TrainConfig(hidden=hidden, epochs=5, batch_size=16, seed=3)
    grid = TuningGrid((0.0,), (0.002, 0.01, 0.05), k_folds=3, seed=1)

    def run():
        per_call = []
        with monkeypatch.context() as mp:
            counting_trainer(mp, per_call)
            f = fit_djil(d, 32, 0.02, cfg)
            rep = cv_select_djil(d, 16, grid, cfg)
        weights = b"".join(w.tobytes() for net in f.models for w in net.weights + net.biases)
        return (f.partition.edges(), float(f.objective).hex(), weights, rep.scores.tobytes(),
                rep.best_gamma), len(per_call)

    wide, wide_calls = run()
    monkeypatch.setattr(fit_mod, "_BLOCK_NETWORKS", 1)
    narrow, narrow_calls = run()
    assert wide == narrow
    assert wide_calls < narrow_calls
    assert len(wide[0]) > 2  # a partition with a jump


def test_djil_deterministic(rng):
    n = 70
    d = Dataset(rng.uniform(-1, 1, (n, 1)), rng.random(n), rng.standard_normal(n))
    f1 = fit_djil(d, 4, 0.2, djil_cfg(seed=9, epochs=40))
    f2 = fit_djil(d, 4, 0.2, djil_cfg(seed=9, epochs=40))
    assert f1.partition == f2.partition
    for a, b in zip(f1.models, f2.models):
        assert isinstance(a, MlpModel)
        for w1, w2 in zip(a.weights, b.weights):
            np.testing.assert_array_equal(w1, w2)


def test_djil_objective_matches_independent_recompute(rng):
    n = 100
    A = rng.random(n)
    Y = np.where(A < 0.5, 0.0, 4.0) + 0.1 * rng.standard_normal(n)
    d = Dataset(rng.uniform(-1, 1, (n, 1)), A, Y)
    f = fit_djil(d, 5, 0.1, djil_cfg(epochs=80))
    assert recompute_objective(d, f) == pytest.approx(f.objective, rel=1e-8, abs=1e-10)


def test_djil_empty_interval_predicts_zero(rng, monkeypatch):
    # the DP never keeps a lone empty interval (merging it saves one gamma),
    # so the segmenter's answer is forced to contain one
    n = 30
    d = Dataset(rng.uniform(-1, 1, (n, 1)), np.full(n, 0.95), rng.standard_normal(n) + 2.0)
    forced = Partition.from_edges([0, 2, 3], 3)

    def forced_pelt(column, m, gamma, **kw):
        return forced, column(np.array([0]), 2)[0, 0] + column(np.array([2]), 3)[0, 0] + 2 * gamma

    monkeypatch.setattr(fit_mod, "pelt", forced_pelt)
    f = fit_djil(d, 3, 0.1, djil_cfg(epochs=20))
    empty, full = f.models
    assert empty.layer_sizes == full.layer_sizes == (1, 8, 1)
    assert not any(w.any() for w in empty.weights + empty.biases)
    assert empty.predict_batch(np.array([[0.3]])).tolist() == [0.0]
    assert any(w.any() for w in full.weights)
    assert recompute_objective(d, f) == pytest.approx(f.objective, rel=1e-12)


def test_djil_diverging_training_raises_naming_the_interval():
    y, a, X = diverging_sgd_rows()
    d = Dataset(X, normalize_treatment(a), y)
    with pytest.raises(NoConvergence, match=r"network training on \[[\d.]+, [\d.]+[)\]] diverged"):
        fit_djil(d, make_grid(d.n, 5.0), default_gamma(d.n), TrainConfig())
