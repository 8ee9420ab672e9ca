"""Decision rules, propensity estimation, and doubly-robust value estimates."""

from __future__ import annotations

import math
import statistics

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.stats import norm

import jil.policy
from jil.core import Dataset, Interval, JilFit, Linear, Partition, make_grid
from jil.cost import CostCache
from jil.errors import DimensionMismatch, InsufficientData, InvalidData, JilError, NoConvergence
from jil.policy import (
    I2dr,
    MaxDose,
    MidPoint,
    MinDose,
    PropensityModel,
    UniformRandom,
    estimate_value,
    fit_propensity,
    floor_probabilities,
    propensity_probs,
    recommend,
    recommend_batch,
    select_dose,
)
from jil.fit import fit_ljil
from jil.sim import ScenarioSpec, gen_scenario
from jil.tuning import default_gamma

from conftest import cell_of


def linear_fit(thetas, edges, m, lam=0.0, gamma=0.1):
    part = Partition.from_edges(edges, m)
    models = tuple(Linear(np.asarray(t, dtype=float)) for t in thetas)
    return JilFit(part, models, m, lam, gamma, 0.0)


# ---------------------------------------------------------------- recommend


def test_recommend_single_interval():
    rule = I2dr(linear_fit([[1.0, 0.0]], [0, 4], 4))
    iv = recommend(rule, np.array([3.0]))
    assert iv == Interval(0, 4, 4)


def test_recommend_picks_larger_prediction():
    rule = I2dr(linear_fit([[1.0, 0.0], [0.0, 1.0]], [0, 1, 2], 2))
    assert recommend(rule, np.array([2.0])) == Interval(1, 2, 2)
    assert recommend(rule, np.array([-2.0])) == Interval(0, 1, 2)


def test_recommend_exact_tie_smaller_lo():
    rule = I2dr(linear_fit([[1.0, 0.5], [1.0, 0.5]], [0, 1, 2], 2))
    assert recommend(rule, np.array([0.7])) == Interval(0, 1, 2)


def test_recommend_near_tie_within_tolerance_smaller_lo():
    rule = I2dr(linear_fit([[1.0, 0.0], [1.0 + 5e-13, 0.0]], [0, 1, 2], 2))
    assert recommend(rule, np.array([0.0])) == Interval(0, 1, 2)


def test_recommend_dimension_mismatch():
    rule = I2dr(linear_fit([[1.0, 0.0]], [0, 2], 2))
    with pytest.raises(DimensionMismatch):
        recommend(rule, np.array([1.0, 2.0]))


def test_recommend_rejects_a_covariate_matrix():
    rule = I2dr(linear_fit([[1.0, 0.0]], [0, 2], 2))
    with pytest.raises(DimensionMismatch, match="expected a covariate vector"):
        recommend(rule, np.array([[0.5]]))


def test_recommend_batch_matches_scalar(rng):
    thetas = rng.standard_normal((3, 3))
    rule = I2dr(linear_fit(thetas, [0, 2, 5, 9], 9))
    X = rng.uniform(-2, 2, (100, 2))
    idx = recommend_batch(rule, X)
    for i in range(100):
        assert rule.fit.partition.intervals[idx[i]] == recommend(rule, X[i])


def test_recommend_affine_invariance(rng):
    thetas = rng.standard_normal((3, 3))
    rule = I2dr(linear_fit(thetas, [0, 3, 7, 10], 10))
    scaled = [2.5 * t for t in thetas]
    scaled = [np.concatenate([[t[0] + 4.0], t[1:]]) for t in scaled]
    rule2 = I2dr(linear_fit(scaled, [0, 3, 7, 10], 10))
    for x in rng.uniform(-1, 1, (50, 2)):
        assert recommend(rule, x) == recommend(rule2, x)


def test_recommend_deterministic(rng):
    rule = I2dr(linear_fit(rng.standard_normal((2, 3)), [0, 4, 8], 8))
    x = np.array([0.3, -0.8])
    assert recommend(rule, x) == recommend(rule, x)


# ------------------------------------------------------------- propensity


def test_floor_probabilities_hand_cases():
    q = floor_probabilities(np.array([[0.001, 0.999]]))
    np.testing.assert_allclose(q, [[0.01, 0.99]], rtol=0, atol=1e-15)
    q = floor_probabilities(np.array([[0.005, 0.005, 0.99]]))
    np.testing.assert_allclose(q, [[0.01, 0.01, 0.98]], rtol=0, atol=1e-15)
    q = floor_probabilities(np.array([[0.25, 0.75]]))
    np.testing.assert_allclose(q, [[0.25, 0.75]], rtol=0, atol=1e-15)


def test_floor_probabilities_invariants(rng):
    for _ in range(50):
        k = int(rng.integers(2, 7))
        raw = rng.random(k) + 1e-12
        p = (raw / raw.sum())[None, :]
        q = floor_probabilities(p)
        assert q.min() >= 0.01 - 1e-15
        assert abs(q.sum() - 1.0) <= 1e-12


def test_propensity_single_interval_is_one(rng):
    n = 40
    d = Dataset(rng.uniform(-1, 1, (n, 2)), rng.random(n), rng.standard_normal(n))
    part = Partition.from_edges([0, 5], 5)
    prop = fit_propensity(d, part)
    probs = propensity_probs(prop, rng.uniform(-1, 1, (20, 2)))
    np.testing.assert_allclose(probs, np.ones((20, 1)), rtol=0, atol=1e-15)


def test_propensity_zero_weights_uniform():
    part = Partition.from_edges([0, 2, 4], 4)
    prop = PropensityModel(partition=part, weights=np.zeros((2, 3)))
    probs = propensity_probs(prop, np.array([[0.4, -0.2], [5.0, 5.0]]))
    np.testing.assert_allclose(probs, 0.5 * np.ones((2, 2)), rtol=0, atol=1e-15)


def test_propensity_two_halves_near_half(rng):
    # true e(I|x) = 0.5 for both halves; finite-sample slope noise amplifies
    # toward the support corners, so probe the interior of the support
    n = 500
    d = Dataset(rng.uniform(-1, 1, (n, 2)), rng.random(n), rng.standard_normal(n))
    part = Partition.from_edges([0, 10, 20], 20)
    prop = fit_propensity(d, part)
    probs = propensity_probs(prop, rng.uniform(-0.5, 0.5, (200, 2)))
    assert np.all(np.abs(probs - 0.5) < 0.1)


def test_propensity_simplex_after_training(rng):
    n = 300
    A = rng.beta(0.4, 0.4, n)
    d = Dataset(rng.uniform(-1, 1, (n, 3)), A, rng.standard_normal(n))
    part = Partition.from_edges([0, 3, 9, 12], 12)
    prop = fit_propensity(d, part)
    X = rng.uniform(-3, 3, (1000, 3))
    probs = propensity_probs(prop, X)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert probs.min() >= 0.01 - 1e-15


def test_propensity_model_needs_one_weight_row_per_interval():
    with pytest.raises(ValueError, match="one row per interval"):
        PropensityModel(Partition.from_edges([0, 3, 6], 6), np.zeros((3, 2)))
    with pytest.raises(ValueError, match="a matrix"):
        PropensityModel(Partition.from_edges([0, 3, 6], 6), np.zeros(2))


def test_propensity_probs_covariate_count_checked():
    prop = PropensityModel(Partition.from_edges([0, 3, 6], 6), np.zeros((2, 3)))
    with pytest.raises(DimensionMismatch, match="propensity expects 2 covariates, got 3"):
        propensity_probs(prop, np.zeros((4, 3)))


def test_propensity_insufficient_rows(rng):
    d = Dataset(rng.uniform(-1, 1, (1, 2)), np.array([0.5]), np.array([0.0]))
    with pytest.raises(InsufficientData):
        fit_propensity(d, Partition.from_edges([0, 2, 4], 4))


def softmax_objective(W, X, labels):
    """Softmax log-loss / n + 1e-4 ||W||^2 and its gradient, from scratch."""
    n = X.shape[0]
    Xb = np.hstack([np.ones((n, 1)), X])
    z = Xb @ W.T
    z = z - z.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    onehot = np.eye(W.shape[0])[labels]
    f = -np.sum(logp * onehot) / n + 1e-4 * np.sum(W * W)
    g = (np.exp(logp) - onehot).T @ Xb / n + 2e-4 * W
    return f, g


def interval_labels(d, part):
    return part.locate(d.treatments)


@pytest.mark.parametrize(
    "scenario, edges",
    [
        (1, [0, 80]),
        (1, [0, 28, 52, 80]),
        (3, [0, 20, 40, 60, 80]),
        (3, [0, 8, 20, 33, 40, 52, 60, 80]),
    ],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_propensity_reaches_stationary_point(scenario, edges, seed):
    d, _ = gen_scenario(ScenarioSpec(scenario, 400, 4, seed))
    part = Partition.from_edges(edges, 80)
    prop = fit_propensity(d, part)
    _, g = softmax_objective(prop.weights, d.covariates, interval_labels(d, part))
    assert np.abs(g).max() <= 1e-8


def test_propensity_separable_labels_converge(rng):
    # x[:, 0] decides the interval, so the unpenalized MLE does not exist;
    # the ridge term keeps the penalized one finite
    n = 400
    X = rng.uniform(-1, 1, (n, 2))
    d = Dataset(X, (X[:, 0] + 1.0) / 2.0 * 0.999, rng.standard_normal(n))
    part = Partition.from_edges([0, 5, 10], 10)
    labels = interval_labels(d, part)
    prop = fit_propensity(d, part)
    _, g = softmax_objective(prop.weights, X, labels)
    assert np.all(np.isfinite(prop.weights))
    assert np.abs(g).max() <= 1e-8
    probs = propensity_probs(prop, X)
    assert np.mean(np.argmax(probs, axis=1) == labels) >= 0.95


@pytest.mark.parametrize("scale", [1e3, 1e6])
def test_propensity_scaled_covariates_converge(scale):
    d, _ = gen_scenario(ScenarioSpec(3, 400, 4, 0))
    big = Dataset(d.covariates * scale, d.treatments, d.outcomes)
    part = Partition.from_edges([0, 20, 40, 60, 80], 80)
    prop = fit_propensity(big, part)
    _, g = softmax_objective(prop.weights, big.covariates, interval_labels(big, part))
    # the gradient in the unscaled coordinates W * diag(1, scale, ...)
    assert np.abs(g / np.r_[1.0, np.full(4, scale)]).max() <= 1e-8


def test_propensity_iteration_cap_raises(monkeypatch):
    d, _ = gen_scenario(ScenarioSpec(1, 400, 4, 0))
    monkeypatch.setattr(jil.policy, "_NEWTON_MAX_ITER", 1)
    with pytest.raises(NoConvergence, match="decrement") as info:
        fit_propensity(d, Partition.from_edges([0, 28, 52, 80], 80))
    assert isinstance(info.value, JilError)
    assert info.value.decrement > jil.policy._NEWTON_TOL


@pytest.mark.parametrize("seed", [0, 1])
def test_propensity_matches_independent_solver(seed):
    d, _ = gen_scenario(ScenarioSpec(3, 400, 4, seed))
    part = Partition.from_edges([0, 20, 40, 60, 80], 80)
    labels = interval_labels(d, part)
    shape = (part.size, d.p + 1)

    def fun(w):
        f, g = softmax_objective(w.reshape(shape), d.covariates, labels)
        return f, g.ravel()

    res = minimize(fun, np.zeros(shape).ravel(), jac=True, method="L-BFGS-B",
                   options={"gtol": 1e-12, "ftol": 1e-16, "maxiter": 10_000})
    prop = fit_propensity(d, part)
    f_newton, _ = softmax_objective(prop.weights, d.covariates, labels)
    assert f_newton == pytest.approx(res.fun, rel=1e-10)
    ref = PropensityModel(partition=part, weights=res.x.reshape(shape))
    X = d.covariates
    np.testing.assert_allclose(propensity_probs(prop, X), propensity_probs(ref, X),
                               rtol=0, atol=1e-6)


# ----------------------------------------------------------- estimate_value


def two_interval_setup(rng, n, p=1):
    X = rng.uniform(-1, 1, (n, p))
    A = rng.random(n)
    Y = rng.standard_normal(n) + 0.5
    return Dataset(X, A, Y)


def test_value_single_interval_equals_mean_outcome(rng):
    for _ in range(10):
        n = int(rng.integers(5, 40))
        d = two_interval_setup(rng, n, p=2)
        theta = rng.standard_normal(3)
        rule = I2dr(linear_fit([theta], [0, 6], 6))
        prop = fit_propensity(d, rule.fit.partition)
        rep = estimate_value(d, rule, prop, alpha=0.05)
        assert rep.v_hat == pytest.approx(float(np.mean(d.outcomes)), abs=1e-12)


def test_value_report_fields_are_python_floats(rng):
    d = two_interval_setup(rng, 40, p=2)
    rule = I2dr(linear_fit(rng.standard_normal((2, 3)), [0, 3, 6], 6))
    rep = estimate_value(d, rule, fit_propensity(d, rule.fit.partition), alpha=0.05)
    assert [type(v) for v in vars(rep).values()] == [float] * 5
    # the library's quantile is statistics.NormalDist's; SciPy's norm.ppf
    # differs in the last bits, and test_value_hand_oracle checks the two agree
    half = statistics.NormalDist().inv_cdf(0.975) * rep.sigma_hat / np.sqrt(d.n)
    assert (rep.ci_lo, rep.ci_hi) == (rep.v_hat - half, rep.v_hat + half)


@pytest.mark.parametrize(
    "field, row, value",
    [("outcomes", 2, np.nan), ("treatments", 1, -0.4), ("treatments", 4, 1.7), ("outcomes", None, None)],
)
def test_invalid_rows_never_reach_propensity_value_or_costs(rng, field, row, value):
    # each fails when the Dataset is built, so no consumer sees it; value
    # None drops the field's last row
    n = 8
    cols = {
        "covariates": rng.uniform(-1, 1, (n, 1)),
        "treatments": rng.random(n),
        "outcomes": rng.standard_normal(n),
    }
    if row is None:
        cols[field] = cols[field][:-1]
    else:
        cols[field][row] = value
    good = two_interval_setup(rng, n)
    rule = I2dr(linear_fit([[0.0, 1.0], [1.0, 0.0]], [0, 3, 6], 6))
    prop = fit_propensity(good, rule.fit.partition)
    consumers = [
        lambda d: fit_propensity(d, rule.fit.partition),
        lambda d: estimate_value(d, rule, prop, 0.05),
        lambda d: CostCache(d, 6).costs(0, 6),
    ]
    for use in consumers:
        with pytest.raises(InvalidData) as exc:
            use(Dataset(**cols))
        assert (exc.value.field, exc.value.row) == (field, row)


def test_value_constant_outcome_zero_variance(rng):
    n = 30
    d = Dataset(rng.uniform(-1, 1, (n, 1)), rng.random(n), np.full(n, 2.5))
    rule = I2dr(linear_fit([[2.5, 0.0], [2.5, 0.0]], [0, 3, 6], 6))
    prop = fit_propensity(d, rule.fit.partition)
    rep = estimate_value(d, rule, prop, alpha=0.05)
    assert rep.v_hat == pytest.approx(2.5, abs=1e-12)
    assert rep.sigma_hat == pytest.approx(0.0, abs=1e-12)
    assert rep.ci_lo == pytest.approx(2.5, abs=1e-12)
    assert rep.ci_hi == pytest.approx(2.5, abs=1e-12)


def test_value_hand_oracle():
    m = 4
    part = Partition.from_edges([0, 2, 4], m)
    X = np.array([[0.2], [-0.4], [0.1], [0.8], [0.0], [-0.9]])
    A = np.array([0.1, 0.3, 0.6, 0.7, 0.2, 0.9])
    Y = np.array([1.5, 0.3, -0.2, 2.2, 0.7, -1.1])
    d = Dataset(X, A, Y)
    th0 = np.array([1.0, 2.0])
    th1 = np.array([0.5, -1.0])
    rule = I2dr(linear_fit([th0, th1], [0, 2, 4], m))
    prop = fit_propensity(d, part)

    # independent per-row recomputation
    probs = propensity_probs(prop, X)
    terms = []
    for i in range(6):
        q0 = th0[0] + th0[1] * X[i, 0]
        q1 = th1[0] + th1[1] * X[i, 0]
        qmax = max(q0, q1)
        rec = 0 if q0 >= q1 - 1e-12 else 1
        seg = 0 if cell_of(A[i], m) < 2 else 1
        ind = 1.0 if seg == rec else 0.0
        terms.append(ind / probs[i, rec] * (Y[i] - qmax) + qmax)
    terms = np.array(terms)
    v = terms.mean()
    sd = np.sqrt(np.sum((terms - v) ** 2) / 5)
    z = norm.ppf(0.975)

    rep = estimate_value(d, rule, prop, alpha=0.05)
    assert rep.v_hat == pytest.approx(v, rel=1e-12)
    assert rep.sigma_hat == pytest.approx(sd, rel=1e-12)
    assert rep.ci_lo == pytest.approx(v - z * sd / np.sqrt(6), rel=1e-12)
    assert rep.ci_hi == pytest.approx(v + z * sd / np.sqrt(6), rel=1e-12)
    assert rep.alpha == 0.05


def test_value_alpha_nesting(rng):
    d = two_interval_setup(rng, 60)
    rule = I2dr(linear_fit([[0.4, 0.1], [0.2, -0.3]], [0, 3, 6], 6))
    prop = fit_propensity(d, rule.fit.partition)
    r05 = estimate_value(d, rule, prop, alpha=0.05)
    r10 = estimate_value(d, rule, prop, alpha=0.10)
    assert r05.ci_lo < r10.ci_lo <= r10.v_hat <= r10.ci_hi < r05.ci_hi
    assert r05.v_hat == r10.v_hat


def test_value_input_validation(rng):
    d1 = Dataset(np.array([[0.1]]), np.array([0.5]), np.array([1.0]))
    rule = I2dr(linear_fit([[1.0, 0.0]], [0, 2], 2))
    prop = fit_propensity(two_interval_setup(rng, 20), rule.fit.partition)
    with pytest.raises(InsufficientData):
        estimate_value(d1, rule, prop, alpha=0.05)
    d = two_interval_setup(rng, 20)
    for bad in (0.0, 1.0, -0.2, 1.3, np.nan):
        with pytest.raises(ValueError):
            estimate_value(d, rule, prop, alpha=bad)
    # 1 - alpha/2 rounds to 1 for alpha <= 2**-53, where the quantile is infinite
    for tiny in (1e-17, 2.0**-53):
        with pytest.raises(ValueError, match="1 - alpha/2 must round below 1"):
            estimate_value(d, rule, prop, alpha=tiny)
    rep = estimate_value(d, rule, prop, alpha=np.nextafter(2.0**-53, 1.0))
    assert all(math.isfinite(v) for v in vars(rep).values())


@pytest.mark.parametrize("k", [0, 600, 1000])
def test_value_sigma_hat_scales_exactly_by_powers_of_two(rng, k):
    # scaling outcomes and coefficients by 2**k scales every AIPW term, and so
    # v_hat and sigma_hat, exactly; past k = 512 the squared deviations
    # themselves would overflow, though sigma_hat is finite
    d = two_interval_setup(rng, 50, p=2)
    thetas = rng.standard_normal((2, 3))
    rule = I2dr(linear_fit(thetas, [0, 3, 6], 6))
    prop = fit_propensity(d, rule.fit.partition)
    big = Dataset(d.covariates, d.treatments, np.ldexp(d.outcomes, k))
    big_rule = I2dr(linear_fit(np.ldexp(thetas, k), [0, 3, 6], 6))
    assert (recommend_batch(big_rule, d.covariates) == recommend_batch(rule, d.covariates)).all()
    rep = estimate_value(d, rule, prop, alpha=0.05)
    got = estimate_value(big, big_rule, prop, alpha=0.05)
    assert got.v_hat == math.ldexp(rep.v_hat, k)
    assert got.sigma_hat == math.ldexp(rep.sigma_hat, k)
    assert math.isfinite(got.ci_lo) and math.isfinite(got.ci_hi)


def test_value_report_bitwise_under_row_permutation():
    # both AIPW sums are correctly rounded, so the order of the rows leaves
    # every bit of the report; numpy's pairwise sums moved v_hat or
    # sigma_hat in 9 of these 20 reports
    n = 800
    for seed in range(20):
        d, _ = gen_scenario(ScenarioSpec(1 + seed % 3, n, 4, seed))
        rule = I2dr(fit_ljil(d, make_grid(n, 5.0), 0.0, default_gamma(n)))
        prop = fit_propensity(d, rule.fit.partition)
        perm = np.random.default_rng(seed).permutation(n)
        shuffled = Dataset(d.covariates[perm], d.treatments[perm], d.outcomes[perm])
        want = estimate_value(d, rule, prop, alpha=0.05)
        assert estimate_value(shuffled, rule, prop, alpha=0.05) == want, seed


def test_value_partition_mismatch(rng):
    d = two_interval_setup(rng, 30)
    rule = I2dr(linear_fit([[1.0, 0.0], [0.0, 1.0]], [0, 3, 6], 6))
    other = fit_propensity(d, Partition.from_edges([0, 2, 6], 6))
    with pytest.raises(ValueError):
        estimate_value(d, rule, other, alpha=0.05)


def test_value_ci_width_scales_with_sqrt_n():
    widths = {250: [], 500: []}
    gen = np.random.default_rng(77)
    rule = I2dr(linear_fit([[0.3, 0.0], [0.1, 0.0]], [0, 5, 10], 10))
    for _ in range(20):
        for n in (250, 500):
            X = gen.uniform(-1, 1, (n, 1))
            A = gen.random(n)
            Y = gen.standard_normal(n)
            d = Dataset(X, A, Y)
            prop = fit_propensity(d, rule.fit.partition)
            rep = estimate_value(d, rule, prop, alpha=0.05)
            widths[n].append(rep.ci_hi - rep.ci_lo)
    ratio = np.mean(widths[250]) / np.mean(widths[500])
    assert abs(ratio - np.sqrt(2.0)) <= 0.15 * np.sqrt(2.0)


# ------------------------------------------------------------- select_dose


def test_select_dose_point_preferences():
    iv = Interval(1, 2, 5)  # [0.2, 0.4)
    assert select_dose(iv, MinDose()) == pytest.approx(0.2, rel=1e-15)
    assert select_dose(iv, MaxDose()) == pytest.approx(0.4, rel=1e-15)
    assert select_dose(iv, MidPoint()) == pytest.approx(0.3, rel=1e-15)
    last = Interval(4, 5, 5)
    assert select_dose(last, MaxDose()) == 1.0


def test_select_dose_uniform_moments():
    iv = Interval(1, 2, 5)
    pref = UniformRandom(seed=123)
    draws = np.array([select_dose(iv, pref) for _ in range(10_000)])
    assert np.all(draws >= 0.2) and np.all(draws < 0.4)
    se = (0.2 / np.sqrt(12.0)) / np.sqrt(10_000)
    assert abs(draws.mean() - 0.3) <= 3 * se


def test_select_dose_uniform_deterministic():
    # one seed replays one dose stream; the stream advances across calls
    iv = Interval(0, 3, 4)
    p1, p2 = UniformRandom(seed=9), UniformRandom(seed=9)
    s1 = [select_dose(iv, p1) for _ in range(5)]
    s2 = [select_dose(iv, p2) for _ in range(5)]
    assert s1 == s2
    assert len(set(s1)) > 1


def test_select_dose_rejects_unknown_preference():
    with pytest.raises(TypeError, match="unknown preference"):
        select_dose(Interval(1, 3, 4), "mid")


@pytest.mark.parametrize(
    "make_pref", [MinDose, MaxDose, MidPoint, lambda: UniformRandom(seed=4)]
)
def test_select_dose_matches_batch_doses(rng, make_pref):
    # the batch path behind policy_value_mc and --plot-data gives, row by row,
    # the same bits as one select_dose call per row on a fresh preference
    m = 37
    lo = rng.integers(0, m, 500)
    hi = np.array([rng.integers(a + 1, m + 1) for a in lo])
    batch = jil.policy._doses(lo, hi, m, make_pref())
    pref = make_pref()
    rows = [select_dose(Interval(int(a), int(b), m), pref) for a, b in zip(lo, hi)]
    assert batch.tolist() == rows


def test_select_dose_always_inside_closure(rng):
    for _ in range(30):
        m = int(rng.integers(2, 12))
        lo = int(rng.integers(0, m - 1))
        hi = int(rng.integers(lo + 1, m + 1))
        iv = Interval(lo, hi, m)
        for pref in (MinDose(), MaxDose(), MidPoint(), UniformRandom(seed=1)):
            dose = select_dose(iv, pref)
            assert iv.lo_frac <= dose <= iv.hi_frac
