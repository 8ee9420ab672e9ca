"""Per-interval ridge fitting, cost evaluation, and the cost cache.

Coefficients and costs are read through CostCache (theta, costs, and
the scalar costfn, a read of the precompute=True table), the one ridge
cost path of the package, and checked against the oracles in conftest.
Every cost comes from one kernel, cost._eliminate on packed upper
triangles, tested here against LAPACK, lstsq and the full-square form in
conftest; every coefficient comes from one rule, the shift-exact min-norm
solve of CostCache.theta through a batched eigendecomposition. costs
serves the DP's blocks of columns, one kernel call each, and those calls
follow conftest.block_rule for the candidate sets of
conftest.reference_pelt.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jil.cost
import jil.segment
from conftest import (block_rule, cost_oracle, eliminate_full, indicator_data, pack,
                      penalty_matrix, reference_calls, ridge_oracle)
from jil.core import Dataset, Interval, make_grid
from jil.cost import CostCache, _eliminate
from jil.fit import NetworkCosts, fit_ljil
from jil.mlp import TrainConfig
from jil.segment import dp_no_prune, pelt
from jil.sim import ScenarioSpec, gen_scenario
from jil.tuning import default_gamma, default_grid, kfold_split


def make_ds(rng, n, p, y_scale=1.0):
    X = rng.uniform(-1, 1, size=(n, p))
    A = rng.random(n)
    Y = X.sum(axis=1) + y_scale * rng.standard_normal(n)
    return Dataset(X, A, Y)


def theta_of(d, iv, lam):
    """Ridge coefficients of one interval, from a fresh cache."""
    return CostCache(d, iv.m, lambdas=(lam,)).theta(np.array([iv.lo]), np.array([iv.hi]), lam)[0]


def costs_of(d, iv, lambdas):
    """Costs of one interval over a lambda grid, from one cache on that grid."""
    return CostCache(d, iv.m, lambdas=lambdas).costs(iv.lo, iv.hi)


def cost_of(d, iv, lam):
    """Cost of one interval at one lambda, from a fresh cache."""
    return float(costs_of(d, iv, (lam,))[0])


# ------------------------------------------------------------- ridge fit


def test_cache_rejects_empty_grid(rng):
    with pytest.raises(ValueError, match="grid resolution must be >= 1"):
        CostCache(make_ds(rng, 20, 2), 0)


def test_ridge_intercept_only_sample_mean():
    d = Dataset(np.zeros((3, 0)), np.array([0.1, 0.5, 0.9]), np.array([1.0, 2.0, 3.0]))
    theta = theta_of(d, Interval(0, 1, 1), 0.0)
    np.testing.assert_allclose(theta, [2.0])


def test_ridge_huge_lambda_shrinks_to_zero(rng):
    d = make_ds(rng, 30, 2)
    theta = theta_of(d, Interval(0, 5, 5), 1e12)
    assert np.all(np.abs(theta) < 1e-9)


def test_ridge_matches_direct_solve(rng):
    for trial in range(8):
        d = make_ds(rng, 20, 2)
        lo, hi, m = 2, 5, 7
        for lam in (0.0, 1e-3, 0.05, 1.7):
            got = theta_of(d, Interval(lo, hi, m), lam)
            want = ridge_oracle(d.covariates, d.treatments, d.outcomes, lo, hi, m, lam)
            np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-8)


def test_ridge_empty_interval_returns_zero(rng):
    X = rng.uniform(-1, 1, size=(10, 2))
    A = np.full(10, 0.05)  # everything in the first cell
    d = Dataset(X, A, rng.standard_normal(10))
    for lam in (0.0, 0.5):
        theta = theta_of(d, Interval(5, 9, 10), lam)
        np.testing.assert_array_equal(theta, np.zeros(3))


def test_ridge_min_norm_on_singular_gram(rng):
    # more parameters than observations: lam=0 must return the min-norm solution
    X = rng.uniform(-1, 1, size=(3, 4))
    d = Dataset(X, np.array([0.2, 0.4, 0.6]), rng.standard_normal(3))
    got = theta_of(d, Interval(0, 1, 1), 0.0)
    want = ridge_oracle(d.covariates, d.treatments, d.outcomes, 0, 1, 1, 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-7, atol=1e-8)


def test_ridge_min_norm_duplicate_column(rng):
    X = rng.uniform(-1, 1, size=(12, 2))
    X[:, 1] = X[:, 0]
    d = Dataset(X, rng.random(12), X[:, 0] + 0.1 * rng.standard_normal(12))
    got = theta_of(d, Interval(0, 1, 1), 0.0)
    want = ridge_oracle(d.covariates, d.treatments, d.outcomes, 0, 1, 1, 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-7, atol=1e-8)


def test_ridge_norm_monotone_in_lambda(rng):
    for _ in range(10):
        d = make_ds(rng, 25, 3)
        iv = Interval(1, 4, 4)
        lams = [0.0, 1e-4, 1e-2, 0.3, 2.0, 50.0]
        norms = [np.linalg.norm(theta_of(d, iv, lam)) for lam in lams]
        for a, b in zip(norms, norms[1:]):
            assert b <= a + 1e-12


# ------------------------------------------------------------------ cost


def test_cost_empty_interval_zero(rng):
    d = Dataset(rng.uniform(-1, 1, (5, 1)), np.full(5, 0.01), rng.standard_normal(5))
    assert cost_of(d, Interval(5, 10, 10), 0.0) == 0.0
    assert cost_of(d, Interval(5, 10, 10), 0.7) == 0.0


def test_cost_empty_intervals_exact_zero_in_columns(rng):
    # eliminating n*lam*|I|*P of an interval without rows leaves rounding in
    # the last pivot for about one (offset, lam) pair in five; a one-lambda
    # cache adds the ridge to M's own row 0, the row counts, and the table
    # fills one column at a time
    lambdas = (0.0, 1e-3, 0.01, 0.37, 2.0)
    for offset in (0.3, 1.7, 3.0, 1e3, 12345.678, 1e5):
        d = Dataset(rng.uniform(-1, 1, (8, 2)), np.full(8, 0.95), offset + rng.standard_normal(8))
        for grid in [lambdas] + [(lam,) for lam in lambdas[1:]]:
            costs = CostCache(d, 10, lambdas=grid).costs
            for hi in range(1, 10):
                assert not costs(np.arange(hi, dtype=np.int64), hi).any()
        table = CostCache(d, 10, lambdas=lambdas, precompute=True)._table
        assert not table[:, :10].any()  # [h, hi, lo]: every interval below cell 9 is empty


def test_cost_single_point_exact_fit():
    d = Dataset(np.zeros((4, 0)), np.array([0.05, 0.35, 0.65, 0.95]), np.array([3.0, -1.0, 2.0, 5.0]))
    assert cost_of(d, Interval(1, 2, 4), 0.0) == 0.0


def test_cost_matches_brute_force(rng):
    for _ in range(6):
        d = make_ds(rng, 30, 2)
        for lam in (0.0, 0.02, 0.9):
            got = cost_of(d, Interval(1, 5, 6), lam)
            want = cost_oracle(d.covariates, d.treatments, d.outcomes, 1, 5, 6, lam)
            assert got == pytest.approx(want, rel=1e-8, abs=1e-10)


def test_cost_nonnegative(rng):
    for _ in range(50):
        n = int(rng.integers(1, 40))
        p = int(rng.integers(0, 4))
        d = make_ds(rng, n, p, y_scale=float(rng.uniform(0, 3)))
        m = int(rng.integers(1, 12))
        lo = int(rng.integers(0, m))
        hi = int(rng.integers(lo + 1, m + 1))
        lam = float(rng.choice([0.0, 1e-3, 0.1, 5.0]))
        assert cost_of(d, Interval(lo, hi, m), lam) >= 0.0


def test_cost_row_permutation_invariance(rng):
    d = make_ds(rng, 60, 3)
    perm = rng.permutation(60)
    dp = Dataset(d.covariates[perm], d.treatments[perm], d.outcomes[perm])
    for lam in (0.0, 0.05):
        a = cost_of(d, Interval(2, 7, 9), lam)
        b = cost_of(dp, Interval(2, 7, 9), lam)
        assert a == pytest.approx(b, rel=1e-8, abs=1e-12)


# ------------------------------------------------------ multi-lambda costs


def test_multi_lambda_singleton_equals_scalar(rng):
    # a cost does not depend on the other lambdas of the cache's grid
    d = make_ds(rng, 40, 2)
    iv = Interval(1, 6, 8)
    vec = costs_of(d, iv, np.array([0.0, 0.3]))
    assert vec.shape == (2,)
    for h, lam in enumerate((0.0, 0.3)):
        assert vec[h] == cost_of(d, iv, lam)


def test_multi_lambda_matches_direct_solves(rng):
    lams = np.array([0.0, 1e-4, 1e-2, 0.5, 3.0])
    for _ in range(5):
        d = make_ds(rng, 50, 3)
        iv = Interval(2, 9, 11)
        got = costs_of(d, iv, lams)
        want = [
            cost_oracle(d.covariates, d.treatments, d.outcomes, 2, 9, 11, lam)
            for lam in lams
        ]
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-10)


def test_multi_lambda_zero_outcomes(rng):
    X = rng.uniform(-1, 1, (20, 2))
    d = Dataset(X, rng.random(20), np.zeros(20))
    got = costs_of(d, Interval(0, 4, 4), np.array([0.0, 0.1, 1.0]))
    np.testing.assert_array_equal(got, np.zeros(3))


def test_multi_lambda_requires_sorted_nonnegative(rng):
    d = make_ds(rng, 10, 1)
    with pytest.raises(ValueError):
        costs_of(d, Interval(0, 2, 2), np.array([0.1, 0.0]))
    with pytest.raises(ValueError):
        costs_of(d, Interval(0, 2, 2), np.array([-0.1, 0.0]))


def test_eigendecomposition_consistency_sample(rng):
    # compressed version of the acceptance sweep: random triples, all lambdas
    lams = np.array([0.0, 1e-3, 1e-2, 0.1, 1.0])
    for _ in range(20):
        n = int(rng.integers(5, 61))
        p = int(rng.integers(0, 6))
        d = make_ds(rng, n, p)
        m = int(rng.integers(1, 15))
        lo = int(rng.integers(0, m))
        hi = int(rng.integers(lo + 1, m + 1))
        got = costs_of(d, Interval(lo, hi, m), lams)
        want = [
            cost_oracle(d.covariates, d.treatments, d.outcomes, lo, hi, m, lam)
            for lam in lams
        ]
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-10)


# ------------------------------------- outcome shifts and rank-deficient intervals


def test_cost_matches_oracle_at_outcome_offsets():
    # an outcome offset must not cost precision: an SSE formed from
    # uncentered moments cancels once the offset dwarfs the noise
    n, m = 400, 80
    rng = np.random.default_rng(3)
    X = rng.uniform(-1.0, 1.0, (n, 4))
    A = rng.random(n)
    base = X.sum(axis=1) + rng.standard_normal(n)
    los = rng.integers(0, m - 5, size=25)
    pairs = [(int(lo), int(rng.integers(lo + 5, m + 1))) for lo in los]  # >= 5 cells
    for offset in (0.0, 1e3, 1e5, 1e7):
        Y = base + offset
        costs = CostCache(Dataset(X, A, Y), m, lambdas=(0.0, 1e-2)).costs
        for lo, hi in pairs:
            got = costs(lo, hi)
            for h, lam in enumerate((0.0, 1e-2)):
                want = cost_oracle(X, A, Y, lo, hi, m, lam)
                assert got[h] == pytest.approx(want, rel=1e-8), (offset, lam, lo, hi)


def theta_slope_drift(X, A, base, pairs, m, lam, offset):
    """Largest change of the slopes theta[1:] over the intervals pairs when
    the outcomes base move by offset, beyond the exact change. The ridge
    pulls the intercept toward 0, so the slopes of an interval move by
    offset * s, s = -r [(G + r Id)^-1 e1][1:] with r = n*lam*|I|, solved on
    its rows' Gram matrix G; s = 0 at lam = 0."""
    n, (los, his) = X.shape[0], np.array(pairs).T
    cells = np.minimum((A * m).astype(int), m - 1)
    Xb = np.hstack([np.ones((n, 1)), X])
    eye = np.eye(Xb.shape[1])
    exact = []
    for lo, hi in pairs:
        rows = Xb[(cells >= lo) & (cells < hi)]
        r = n * lam * (hi - lo) / m
        exact.append(-r * np.linalg.solve(rows.T @ rows + r * eye, eye[0])[1:])
    theta = [CostCache(Dataset(X, A, Y), m).theta(los, his, lam) for Y in (base, base + offset)]
    return float(np.abs(theta[1][:, 1:] - theta[0][:, 1:] - offset * np.array(exact)).max())


def test_theta_slopes_stable_under_outcome_offsets():
    # the shift c e1 enters theta outside the eigendecomposition, so an
    # outcome offset costs the slopes only rounding of the offset's size;
    # solving the uncentered system G theta = sum xbar y by the same
    # eigendecomposition drifts about 6x past the bound
    n, m = 400, 80
    rng = np.random.default_rng(3)
    X = rng.uniform(-1.0, 1.0, (n, 4))
    A = rng.random(n)
    base = X.sum(axis=1) + rng.standard_normal(n)
    los = rng.integers(0, m - 5, size=25)
    pairs = [(int(lo), int(rng.integers(lo + 5, m + 1))) for lo in los]  # >= 5 cells
    for lam in (0.0, 1e-2):
        for offset in (1e3, 1e5, 1e7):
            assert theta_slope_drift(X, A, base, pairs, m, lam, offset) <= 1e-16 * offset, (lam, offset)


def check_against_oracles(d, lo, hi, m, lam):
    """Cost and coefficients of one interval match the oracles."""
    iv = Interval(lo, hi, m)
    got_cost, got_theta = cost_of(d, iv, lam), theta_of(d, iv, lam)
    X, A, Y = d.covariates, d.treatments, d.outcomes
    assert got_cost == pytest.approx(cost_oracle(X, A, Y, lo, hi, m, lam), rel=1e-8, abs=1e-12)
    want = ridge_oracle(X, A, Y, lo, hi, m, lam)
    np.testing.assert_allclose(got_theta, want, rtol=1e-7, atol=1e-8)
    return got_cost, got_theta


def test_min_norm_route_few_rows(rng):
    # at lam = 0 an interval with d rows or fewer has a singular or
    # interpolating Gram; d = 4 here, and the first cell holds 4, then 2 rows
    for rows in (4, 2):
        A = np.concatenate([np.linspace(0.05, 0.45, rows), rng.uniform(0.5, 1.0, 30)])
        X = rng.uniform(-1, 1, (A.size, 3))
        d = Dataset(X, A, 5.0 + X.sum(axis=1) + rng.standard_normal(A.size))
        check_against_oracles(d, 0, 1, 2, 0.0)


def test_min_norm_route_collinear_covariates(rng):
    n = 60
    A = rng.random(n)
    X = rng.uniform(-1, 1, (n, 3))
    X[:, 2] = X[:, 0]  # a duplicated column
    d = Dataset(X, A, X[:, 0] + rng.standard_normal(n))
    check_against_oracles(d, 0, 4, 4, 0.0)
    # a binary covariate, 0 on [0, 1/2) and 1 (the intercept's twin) on [1/2, 1)
    X[:, 2] = A >= 0.5
    d = Dataset(X, A, 2.0 * X[:, 2] + X[:, 1] + rng.standard_normal(n))
    for lo, hi in ((0, 2), (2, 4)):
        check_against_oracles(d, lo, hi, 4, 0.0)
    # a near-duplicate column: its eigenvalue ratio (about 1e-12) makes that
    # direction null, so theta drops it as a singular-value cutoff of 1e-5
    # does
    X[:, 2] = X[:, 0] + 1e-6 * rng.standard_normal(n)
    d = Dataset(X, A, X[:, 0] + rng.standard_normal(n))
    got = theta_of(d, Interval(0, 1, 1), 0.0)
    Xb = np.hstack([np.ones((n, 1)), X])
    want = np.linalg.lstsq(Xb, d.outcomes, rcond=1e-5)[0]
    np.testing.assert_allclose(got, want, rtol=1e-7, atol=1e-8)
    sse = float(np.sum((d.outcomes - Xb @ want) ** 2))
    assert cost_of(d, Interval(0, 1, 1), 0.0) == pytest.approx(sse / n, rel=1e-8)


def test_min_norm_route_noiseless_outcomes(rng):
    # SSE = 0 leaves the augmented moments singular. Constant outcomes center
    # to exact zeros, so the last pivot is 0; linear ones leave a last pivot
    # at rounding level, which must turn into a zero cost, and theta must
    # give the exact coefficients
    n = 40
    X = rng.uniform(-1, 1, (n, 2))
    A = rng.random(n)
    cost, theta = check_against_oracles(Dataset(X, A, np.full(n, 3.0)), 0, 3, 3, 0.0)
    assert cost <= 1e-12
    np.testing.assert_allclose(theta, [3.0, 0.0, 0.0], atol=1e-12)
    d = Dataset(X, A, 3.0 + X @ np.array([1.5, -2.0]))
    for lo, hi in ((0, 3), (1, 2), (2, 3)):
        assert cost_of(d, Interval(lo, hi, 3), 0.0) <= 1e-12
        np.testing.assert_allclose(theta_of(d, Interval(lo, hi, 3), 0.0), [3.0, 1.5, -2.0], rtol=1e-10)


def test_min_norm_route_empty_interval_exact_zero(rng):
    d = Dataset(rng.uniform(-1, 1, (8, 2)), np.full(8, 0.9), 1e5 + rng.standard_normal(8))
    for lam in (1e-3, 0.5):
        assert cost_of(d, Interval(0, 2, 4), lam) == 0.0
        np.testing.assert_array_equal(theta_of(d, Interval(0, 2, 4), lam), np.zeros(3))


def test_min_norm_route_per_interval_in_a_failing_batch(rng):
    # a binary covariate constant on each half leaves those intervals
    # rank-deficient; every interval of a column keeps the bits of a batch
    # of its own
    n, m = 80, 8
    A = rng.random(n)
    X = rng.uniform(-1, 1, (n, 2))
    X[:, 1] = A >= 0.5
    d = Dataset(X, A, X[:, 0] + rng.standard_normal(n))
    cache = CostCache(d, m, lambdas=(0.0,))
    for hi in range(1, m + 1):
        los = np.arange(hi, dtype=np.int64)
        assert cache.costs(los, hi)[0].tolist() == [cache.costs(lo, hi)[0] for lo in los]
        thetas = cache.theta(los, np.full(hi, hi), 0.0)
        for k, lo in enumerate(los):
            single = cache.theta(los[k : k + 1], np.array([hi]), 0.0)[0]
            assert thetas[k].tobytes() == single.tobytes()


# ------------------------------------------------------------- CostCache


def test_cache_repeated_lookup_bitwise(rng):
    d = make_ds(rng, 40, 2)
    cache = CostCache(d, 8, lambdas=(0.0, 0.1))
    iv = Interval(1, 5, 8)
    a = cache.costs(iv.lo, iv.hi)
    b = cache.costs(iv.lo, iv.hi)
    assert a.tobytes() == b.tobytes() and not np.isnan(a).any()


def test_cache_fresh_instance_reproduces(rng):
    d = make_ds(rng, 40, 2)
    c1 = CostCache(d, 8, lambdas=(0.0, 0.1))
    c2 = CostCache(d, 8, lambdas=(0.0, 0.1))
    for hi in range(1, 9):
        los = np.arange(hi, dtype=np.int64)
        assert c1.costs(los, hi).tobytes() == c2.costs(los, hi).tobytes()


def test_cache_distinct_intervals_not_aliased(rng):
    d = make_ds(rng, 60, 2, y_scale=2.0)
    costs = CostCache(d, 6, lambdas=(0.0,)).costs
    v1 = costs(0, 3)[0]
    v2 = costs(0, 5)[0]
    v1_again = costs(0, 3)[0]
    assert v1 == v1_again
    assert v1 != v2  # same lo, different hi: independent entries


def test_cache_precompute_matches_lazy_bitwise(rng):
    # table reads carry the bits of the lazy cache's costs
    d = make_ds(rng, 50, 2)
    eager = CostCache(d, 9, lambdas=(0.0, 0.05), precompute=True)
    costs = CostCache(d, 9, lambdas=(0.0, 0.05), precompute=False).costs
    for hi in range(1, 10):
        los = np.arange(hi, dtype=np.int64)
        lazy = costs(los, hi)
        for h, lam in enumerate((0.0, 0.05)):
            assert [eager.costfn(lam)(lo, hi) for lo in range(hi)] == lazy[h].tolist()


def test_cache_agrees_with_scalar_ops(rng):
    d = make_ds(rng, 45, 2)
    cache = CostCache(d, 7, lambdas=(0.0, 0.2), precompute=True)
    for lo in range(7):
        for hi in range(lo + 1, 8):
            for lam in (0.0, 0.2):
                direct = cost_oracle(d.covariates, d.treatments, d.outcomes, lo, hi, 7, lam)
                assert cache.costfn(lam)(lo, hi) == pytest.approx(direct, rel=1e-8, abs=1e-12)


def test_cache_theta_agrees_with_ridge_fit(rng):
    d = make_ds(rng, 45, 2)
    cache = CostCache(d, 7, lambdas=(0.0, 0.2))
    for lam in (0.0, 0.2):
        got = cache.theta(np.array([2]), np.array([6]), lam)[0]
        want = ridge_oracle(d.covariates, d.treatments, d.outcomes, 2, 6, 7, lam)
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-10)


def test_cache_off_grid_lambda(rng, factorized):
    # a lambda off the cache's grid is rejected, as NetworkCosts rejects
    # any lambda but 0, and nothing is computed
    d = make_ds(rng, 30, 2)
    cache = CostCache(d, 5, lambdas=(0.0, 0.1), precompute=True)
    factorized.clear()
    for lam in (0.37, 1e-3, np.nextafter(0.1, 1.0)):
        with pytest.raises(ValueError, match="lambda grid"):
            cache.costfn(lam)
    for lam in ("0.1", False, np.nan):  # not converted to a grid lambda
        with pytest.raises(ValueError, match="lam must be"):
            cache.costfn(lam)
    assert factorized == []
    assert cache.costfn(0.1)(1, 4) == pytest.approx(
        cost_oracle(d.covariates, d.treatments, d.outcomes, 1, 4, 5, 0.1), rel=1e-8, abs=1e-12
    )


def test_cache_costfn_closure(rng):
    d = make_ds(rng, 30, 1)
    cache = CostCache(d, 6, lambdas=(0.1,), precompute=True)
    f = cache.costfn(0.1)
    lazy = CostCache(d, 6, lambdas=(0.1,)).costs
    assert f(0, 3) == cache.costfn(0.1)(0, 3) == lazy(0, 3)[0]
    assert f(2, 6) == cost_of(d, Interval(2, 6, 6), 0.1)


def test_cache_columns_match_scalar_costfn_bitwise(rng):
    d = make_ds(rng, 60, 2)
    lambdas = (0.0, 0.05)
    costs = CostCache(d, 9, lambdas=lambdas).costs
    for h, lam in enumerate(lambdas):  # each lambda of the cache's grid
        scalar = CostCache(d, 9, lambdas=lambdas, precompute=True).costfn(lam)
        one_row = CostCache(d, 9, lambdas=(lam,)).costs
        for hi in range(1, 10):
            los = np.arange(hi, dtype=np.int64)[::2].copy()
            # the rectangle of a DP block from column hi to the last column
            b = 10 - hi
            V = np.concatenate([los, np.arange(hi, hi + b - 1)])
            rectangle = V[None, :], np.arange(hi, hi + b)[:, None]
            got = costs(*rectangle)
            assert isinstance(got, np.ndarray) and got.shape == (len(lambdas), b, V.size)
            assert got[h].tobytes() == one_row(*rectangle)[0].tobytes()
            for t in range(b):
                want = [scalar(int(lo), hi + t) if lo < hi + t else 0.0 for lo in V]
                assert got[h, t].tolist() == want
                assert all(isinstance(v, float) for v in want)


def test_cache_costfn_rejects_bad_indices(rng):
    d = make_ds(rng, 30, 1)
    cache = CostCache(d, 5, lambdas=(0.0,), precompute=True)
    f, costs = cache.costfn(0.0), cache.costs
    for lo, hi in ((-1, 2), (3, 3), (4, 2), (0, 6)):
        with pytest.raises(ValueError):
            f(lo, hi)
    for los, hi in (([-1, 0], 2), ([0, 6], 3), ([1, 2], 6)):
        with pytest.raises(ValueError):
            costs(np.array(los, dtype=np.int64), hi)
    # the scalar adapter takes no array: that is what costs is for
    for lo in (np.array([0, 1], dtype=np.int64), np.array([1], dtype=np.int64), 1.0):
        with pytest.raises(TypeError):
            f(lo, 3)


def test_columns_reject_bad_calls_on_both_cost_tables(rng):
    # a costs call needs every index in [0, m], whatever the size and shape
    # of the arrays: an empty los is no licence for hi = -3, which would
    # gather the prefix at a wrapped negative index. Unsorted and repeated
    # indices and pairs lo >= hi are valid, and such pairs cost 0
    d, m = make_ds(rng, 40, 2), 10
    for table in (CostCache(d, m, lambdas=(0.0, 0.1)), NetworkCosts(d, m, TrainConfig())):
        for los, his in (([], -3), ([], 11), ([], 15), ([-1, 3], 5), ([3, 11], 5),
                         ([[0], [12]], [3]), (0, [[4], [-1]])):
            with pytest.raises(ValueError):
                table.costs(np.array(los, dtype=np.int64), np.array(his, dtype=np.int64))
        for los, his in (([], 0), ([3, 1], 5), ([2, 2], 5), ([4], 4), ([[7], [5]], [[5, 5]])):
            costs = table.costs(np.array(los, dtype=np.int64), np.array(his, dtype=np.int64))
            lo, hi = np.broadcast_arrays(los, his)
            assert costs.shape[1:] == lo.shape and not costs[:, lo >= hi].any()


@pytest.mark.parametrize("kind", ["ridge", "network"])
def test_costs_over_broadcast_shapes_match_one_pair_calls(rng, kind):
    # the pair contract is elementwise: over index arrays of random shapes
    # that broadcast together, every pair lo < hi has the bits of a call of
    # its own, and every pair lo >= hi costs exactly 0
    d, m = make_ds(rng, 80, 2), 7
    if kind == "ridge":
        table, single = (CostCache(d, m, lambdas=(0.0, 1e-3, 0.1)) for _ in range(2))
    else:
        cfg = TrainConfig(hidden=(3,), epochs=2, seed=1)
        table, single = (NetworkCosts(d, m, cfg) for _ in range(2))
    for _ in range(6):
        shape = tuple(rng.integers(1, 4, size=int(rng.integers(0, 4))))
        lo_shape = tuple(k if rng.random() < 0.5 else 1 for k in shape)
        hi_shape = tuple(k if rng.random() < 0.5 else 1 for k in shape)[int(rng.integers(0, 2)):]
        los = rng.integers(0, m + 1, size=lo_shape)
        his = rng.integers(0, m + 1, size=hi_shape)
        got = table.costs(los, his)
        lo, hi = np.broadcast_arrays(los, his)
        assert got.shape[1:] == lo.shape
        for index in np.ndindex(lo.shape):
            if lo[index] < hi[index]:
                want = single.costs(lo[index], hi[index])
            else:
                want = np.zeros(got.shape[0])
            assert got[(slice(None),) + index].tobytes() == want.tobytes()


def test_repeated_zero_lambdas_match_one_zero_lambda(rng):
    # at lambda = 0 one lambda's stack is eliminated in place; a grid of
    # repeated zeros stacks a copy per lambda, each with the same bits
    d, U = make_ds(rng, 120, 3), np.array([0, 3, 5], dtype=np.int64)
    one = CostCache(d, 12).costs(U, 7)
    two = CostCache(d, 12, lambdas=(0.0, 0.0)).costs(U, 7)
    assert two.shape == (2,) + one.shape[1:]
    assert two[0].tobytes() == two[1].tobytes() == one[0].tobytes()


def test_cache_costfn_needs_the_table(rng, factorized):
    # the scalar costfn only reads a precompute=True table; a lazy cache
    # computes through costs and has no scalar form
    lazy = CostCache(make_ds(rng, 30, 2), 5, lambdas=(0.0, 0.1))
    for lam in (0.0, 0.1, 0.37):
        with pytest.raises(ValueError, match="precompute=True"):
            lazy.costfn(lam)
    assert factorized == []


def test_cache_fills_only_requested_costs(rng, factorized):
    d = make_ds(rng, 50, 2)
    m = 8
    lazy = CostCache(d, m, lambdas=(0.0, 0.1))
    assert factorized == []
    # the DP's block for U = {1, 4} at column 6 runs to the last column
    # (b = 3) over V = {1, 4, 6, 7}: one call for its rectangle of
    # b|V| = 12 pairs at both lambdas, 9 of them intervals
    assert jil.segment._block_width(2, m + 1 - 6, CostCache.budget) == 3
    assert block_rule([(np.array([1, 4]), 6)], m, CostCache.budget) == [12]
    block = lazy.costs(np.array([[1, 4, 6, 7]]), np.arange(6, 9)[:, None])
    assert factorized == [2 * 12]
    assert block.shape == (2, 3, 4)
    # the pairs of no interval, [6, 6), [7, 6) and [7, 7), cost 0
    assert not block[:, 0, 2:].any() and not block[:, 1, 3].any()
    # every call computes what it is asked for: V = {4, 6, 7}, b = 2, 6 pairs
    lazy.costs(np.array([[4, 6, 7]]), np.arange(7, 9)[:, None])
    assert factorized == [24, 2 * 6]
    factorized.clear()
    eager = CostCache(d, m, lambdas=(0.0, 0.1), precompute=True)
    # one call per column, at both lambdas
    assert factorized == [2 * r for r in range(1, m + 1)]
    for lam in (0.0, 0.1):
        for lo in range(m):
            eager.costfn(lam)(lo, m)
        eager.costfn(lam)(2, 7)
    assert sum(factorized) == 2 * m * (m + 1) // 2  # reads computed nothing more


def random_calls(rng, m, count):
    """Block calls (U, r) that mostly follow a DP (next column, U within the
    last U and r-1) and sometimes do not: U with a fresh member, r jumping
    forward or back, r = m, an empty U."""
    calls, U, r = [], np.zeros(1, dtype=np.int64), 1
    for _ in range(count):
        move = rng.random()
        if move < 0.6 and r < m:  # the DP's next column
            U = np.append(U[rng.random(U.size) < 0.8], r)
            r += 1
        elif move < 0.7:  # a jump, forward or back
            r = int(rng.integers(1, m + 1))
            U = np.unique(rng.integers(0, r, size=int(rng.integers(1, r + 1))))
        elif move < 0.8:  # the same column, a member outside the block's V
            U = np.unique(np.append(U, rng.integers(0, r)))
        elif move < 0.9:
            r = m
            U = np.unique(rng.integers(0, m, size=int(rng.integers(1, m + 1))))
        else:
            U = np.zeros(0, dtype=np.int64)
        calls.append((U.astype(np.int64), r))
    return calls


@pytest.mark.parametrize("lambdas", [(0.0,), (1e-2,), (0.0, 1e-3, 0.1)],
                         ids=["lam0", "lam1e-2", "3lams"])
@pytest.mark.parametrize("budget", [8, 768])
def test_columns_blocks_match_fresh_calls(rng, factorized, lambdas, budget):
    # every block segment._block asks CostCache.costs for, whatever calls
    # came before, has in each column's live prefix the bits of a fresh
    # one-column costs call and zeros past it, and each call is one kernel
    # call of the block rule's size
    for _ in range(4):
        m = int(rng.integers(1, 41))
        d = make_ds(rng, 120, 3, y_scale=float(rng.uniform(0.1, 3.0)))
        cache = CostCache(d, m, lambdas=lambdas)
        calls = random_calls(rng, m, 60)
        factorized.clear()
        got = [jil.segment._block(cache.costs, U, r, m, budget) for U, r in calls]
        assert factorized == [len(lambdas) * block_rule([call], m, budget)[0] for call in calls]
        for (U, r), (V, block) in zip(calls, got):
            b = block.shape[1]
            assert block.shape == (len(lambdas), b, U.size + b - 1)
            assert V.tolist() == U.tolist() + list(range(r, r + b - 1))
            for t in range(b):
                want = cache.costs(V[: U.size + t], r + t)
                assert block[:, t, : U.size + t].tobytes() == want.tobytes(), (U, r, t)
                assert not block[:, t, U.size + t :].any()


def dp_calls(d, m, lambdas, gammas):
    """The column candidate sets (U_r, r), r = 1..m, of the grid DP over the
    costs of d on m cells at lambdas and gammas, from conftest.reference_pelt
    over a precompute=True table. The table is built through the kernel, so
    a test that records kernel calls calls this first."""
    table = CostCache(d, m, lambdas=lambdas, precompute=True)._table
    return reference_calls(table.transpose(0, 2, 1), gammas)


def stacked_once(stacks, calls, lambdas):
    """The cost stacks hold each (lambda, lo, hi) once, and every cost the
    column calls ask for at each lambda is among them."""
    rows = np.concatenate(stacks)
    stacked = set(map(tuple, rows.tolist()))
    assert len(stacked) == rows.shape[0]
    assert {(lam, j, r) for U, r in calls for j in U.tolist() for lam in lambdas} <= stacked


def test_fit_and_cv_fold_stack_no_interval_twice(rng, factorized):
    # the block DP makes the block rule's kernel calls for the reference
    # DP's candidate sets, and stacks no interval twice
    d = make_ds(rng, 400, 3)
    m, gamma = 80, default_gamma(400)
    calls = dp_calls(d, m, (0.0,), [gamma])
    factorized.clear()
    factorized.intervals.clear()
    fit_ljil(d, m, 0.0, gamma)  # its theta call builds no cost stack
    stacked_once(factorized.intervals, calls, (0.0,))
    assert factorized == block_rule(calls, m, jil.cost._BLOCK_PAIRS)
    # one CV fold: the lockstep DP of the default grid on the training rows
    grid = default_grid(d.n, 0)
    train = d.subset(np.flatnonzero(kfold_split(d.n, grid.k_folds, grid.seed) != 0))
    calls = dp_calls(train, m, grid.lambdas, grid.gammas)
    factorized.clear()
    factorized.intervals.clear()
    pelt(CostCache(train, m, lambdas=grid.lambdas).costs, m, list(grid.gammas),
         budget=CostCache.budget)
    stacked_once(factorized.intervals, calls, grid.lambdas)
    H = len(grid.lambdas)
    assert factorized == [H * k for k in block_rule(calls, m, jil.cost._BLOCK_PAIRS)]
    assert len(factorized) < len(calls) // 4


@pytest.mark.parametrize("n, budget", [(400, 768), (4000, 768), (400, 16)])
def test_block_speculation_within_budget(factorized, n, budget):
    # a block stacks at most max(budget, |U|) pairs per lambda, |U| that of
    # the call that opened it; beyond the costs its calls ask for it stacks
    # fewer than budget, and a one-column block (|U| above the budget)
    # stacks exactly what it is asked for
    d, _ = gen_scenario(ScenarioSpec(1, n, 4, 7))
    m = make_grid(n, 5.0)
    sizes = {r: U.size for U, r in dp_calls(d, m, (0.0,), [default_gamma(n)])}  # |R_r|
    factorized.clear()
    cache = CostCache(d, m)
    blocks = []  # per block: [stacked, asked (the sum of its columns' |R_r|), |U|]

    def column(los, his):
        c = cache.costs(los, his)
        r, b = int(his[0, 0]), his.shape[0]
        blocks.append([factorized[-1], sum(sizes[r + t] for t in range(b)), los.size - b + 1])
        return c

    pelt(column, m, default_gamma(n), budget=budget)
    assert len(blocks) == len(factorized)
    for stacked, asked, u in blocks:
        assert u <= asked <= stacked <= max(budget, u)
        assert stacked - asked < budget
        if u > budget:
            assert stacked == asked == u
    if budget == 16:
        assert any(u > budget for _, _, u in blocks)  # one-column blocks ran
    else:
        assert len(blocks) < m // 4

def test_cache_theta_batched_matches_per_interval_bitwise(rng):
    for _ in range(20):
        n = int(rng.integers(5, 80))
        p = int(rng.integers(0, 9))
        m = int(rng.integers(1, 15))
        d = make_ds(rng, n, p, y_scale=float(rng.uniform(0.1, 5.0)))
        cache = CostCache(d, m, lambdas=(0.0,))
        his = rng.integers(1, m + 1, size=int(rng.integers(1, 2 * m + 1)))
        los = np.array([rng.integers(0, hi) for hi in his], dtype=np.int64)
        for lam in (0.0, 1e-3, 0.37):  # on and off the cache's grid
            batched = cache.theta(los, his, lam)
            assert batched.shape == (los.size, p + 1)
            for k in range(los.size):
                single = cache.theta(los[k : k + 1], his[k : k + 1], lam)[0]
                assert batched[k].tobytes() == single.tobytes()


def test_min_norm_batched_matches_per_interval_bitwise(rng):
    # theta gives each interval the same bits in any batch, at zero and
    # positive lambda; cell 0 holds no rows, so [0, 1) gets exact zeros
    n, m = 50, 10
    A = rng.uniform(0.1, 1.0, n)
    X = rng.uniform(-1, 1, (n, 3))
    d = Dataset(X, A, 4.0 + X.sum(axis=1) + rng.standard_normal(n))
    cache = CostCache(d, m)
    los, his = np.array([0, 2, 5, 2, 0]), np.array([10, 8, 6, 3, 1])
    for lam in (0.0, 1e-3):
        thetas = cache.theta(los, his, lam)
        assert thetas.shape == (los.size, 4)
        np.testing.assert_array_equal(thetas[-1], np.zeros(4))
        for k in range(los.size):
            theta = cache.theta(los[k : k + 1], his[k : k + 1], lam)
            assert thetas[k].tobytes() == theta[0].tobytes()


def test_cache_theta_rejects_bad_lambda(rng, factorized):
    # only the constructor's grid used to be checked: theta at NaN returned
    # zeros and at -1 silent coefficients
    cache = CostCache(make_ds(rng, 200, 4), 40)
    los, his = np.array([0, 10]), np.array([10, 40])
    for lam in (np.nan, -1.0, -1e-300, np.inf, -np.inf, "0.0", True, None):
        for call in (cache.theta, cache.models):
            with pytest.raises(ValueError, match="lambda"):
                call(los, his, lam)
    assert factorized == []
    # any spelling of a grid lambda gets the same coefficient bytes
    for lams in ((0.0, 0, np.float64(0.0), np.array(0.0)), (1e-2, np.float64(1e-2))):
        got = {cache.theta(los, his, lam).tobytes() for lam in lams}
        assert len(got) == 1


def test_cache_theta_rejects_bad_index_arrays(rng):
    cache = CostCache(make_ds(rng, 30, 1), 5)
    for los, his in (([0, 2], [2]), ([-1, 2], [2, 5]), ([0, 3], [2, 3]), ([1, 2], [3, 6])):
        with pytest.raises(ValueError):
            cache.theta(np.array(los, dtype=np.int64), np.array(his, dtype=np.int64), 0.0)


# ------------------------------------------------------ elimination kernel


def spd_stack(rng, D, K, rank=None, rows=None):
    """K Gram matrices Z^T Z (D, D, K) of Z = [X, y] with rows rows (default
    3D), X of the given rank (default D - 1) in its D - 1 columns."""
    rows = 3 * D if rows is None else rows
    B = rng.standard_normal((K, rows, D - 1))
    if rank is not None:
        B = B[:, :, :rank] @ rng.standard_normal((K, rank, D - 1))
    Z = np.concatenate([B, rng.standard_normal((K, rows, 1))], axis=2)
    return np.einsum("kni,knj->ijk", Z, Z), Z


@pytest.mark.parametrize("D", range(1, 10))
def test_eliminate_pivots_match_cholesky(rng, D):
    # well-conditioned Gram matrices: 50 rows per dimension
    A, _ = spd_stack(rng, D, 40, rows=50 * D)
    S = pack(A)
    last = _eliminate(S)
    want = np.diagonal(np.linalg.cholesky(np.moveaxis(A, -1, 0)), axis1=1, axis2=2) ** 2
    upper = np.triu_indices(D)
    got = S[upper[0] == upper[1]].T  # the pivots stay on the diagonal, (K, D)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    np.testing.assert_array_equal(last, got[:, -1])


@pytest.mark.parametrize("D, rank", [(2, 0), (4, 1), (6, 3), (6, 4), (9, 5)])
def test_eliminate_rank_deficient_last_pivot_is_lstsq_residual(rng, D, rank):
    A, Z = spd_stack(rng, D, 30, rank)
    last = _eliminate(pack(A))
    for k in range(Z.shape[0]):
        X, y = Z[k, :, :-1], Z[k, :, -1]
        resid = y - X @ np.linalg.lstsq(X, y, rcond=None)[0]
        assert last[k] == pytest.approx(resid @ resid, rel=1e-9)


def test_eliminate_bitwise_alone_and_in_a_batch(rng):
    full, _ = spd_stack(rng, 6, 20)
    low, _ = spd_stack(rng, 6, 20, rank=2)
    A = pack(np.concatenate([full, low, np.zeros((6, 6, 3))], axis=2))
    S = A.copy()
    last = _eliminate(S)
    for k in range(A.shape[1]):
        one = A[:, k : k + 1].copy()
        last_k = _eliminate(one)
        assert one.tobytes() == np.ascontiguousarray(S[:, k : k + 1]).tobytes()
        assert last_k[0].tobytes() == last[k].tobytes()


@settings(max_examples=60, deadline=None)
@given(D=st.integers(1, 8), K=st.integers(1, 30), rank=st.integers(0, 7),
       seed=st.integers(0, 2**32 - 1))
def test_eliminate_keeps_row_0_and_zeroes_empty_and_negated_stacks(D, K, rank, seed):
    # _eliminate never writes packed row 0, the row counts; a block's pairs
    # lo >= hi stack zero or negated moments, whose last pivot is exactly 0,
    # with nothing divided (the test configuration makes a RuntimeWarning an
    # error)
    A, _ = spd_stack(np.random.default_rng(seed), D, K, rank=min(rank, D - 1))
    S = pack(np.stack([A, np.zeros_like(A), -A], axis=2))  # (T, 3, K)
    row0 = S[0].copy()
    last = _eliminate(S)
    assert S[0].tobytes() == row0.tobytes()
    assert not last[1:].any()
    assert last[0].tobytes() == _eliminate(pack(A)).tobytes()


@pytest.mark.parametrize("lambdas, offset", [
    ((1e-3,), 0.0), ((0.37,), 0.0), ((0.0, 1e-3, 1e-2), 0.0), ((1e-2,), 1e150),
    ((0.0, 1e-2), 1e150)])
def test_penalized_stacks_match_dense_penalty_bitwise(monkeypatch, lambdas, offset):
    # every stack a positive lambda's costs eliminate is, bit for bit, the
    # packed M + n*lam*|I|*P with the dense P, however the kernel adds it
    d, _ = gen_scenario(ScenarioSpec(1, 300, 4, 2))
    d = Dataset(d.covariates, d.treatments, d.outcomes + offset)
    m, stacks = 60, []
    real_costs, real_eliminate = CostCache._costs, jil.cost._eliminate

    def costs(self, los, his, lams):
        stacks.append([self._M, *np.broadcast_arrays(los, his), lams])
        return real_costs(self, los, his, lams)

    def eliminate(S):
        stacks[-1].append(S.copy())  # before the kernel overwrites it
        return real_eliminate(S)

    monkeypatch.setattr(CostCache, "_costs", costs)
    monkeypatch.setattr(jil.cost, "_eliminate", eliminate)
    costs = CostCache(d, m, lambdas, precompute=True).costs
    costs(np.array([0, 7, 30], dtype=np.int64), 31)
    costs(np.arange(55, dtype=np.int64), 55)
    if len(lambdas) == 1 and not offset:
        fit_ljil(d, m, lambdas[0], default_gamma(d.n))
    assert len(stacks) >= m + 2
    P = penalty_matrix(d.p + 1, float(np.mean(d.outcomes)))
    upper = np.triu_indices(d.p + 2)
    for prefix, los, his, lams, S in stacks:
        M = np.empty((d.p + 2, d.p + 2) + los.shape)
        M[upper] = M[upper[::-1]] = prefix[:, his] - prefix[:, los]
        Pb = P.reshape(P.shape + (1,) * los.ndim)
        for h, lam in enumerate(lams):
            want = pack(M + Pb * (d.n * lam * ((his - los) / m)))
            assert np.ascontiguousarray(S[:, h]).tobytes() == want.tobytes()


def moment_stack(rng, D, kind, K=100):
    """Augmented moments (D, D, K) of z = (1, x, y - c) over 3D rows each:
    x uniform with D - 2 columns, y linear in x plus noise, and by kind
    "full", "rank" (every x a multiple of the first), "collinear" (two equal
    columns), "indicator" (a column constant at 0 or 1 on all rows, a null
    column or the intercept's twin) or "offset" (y near 1e6, c off its mean
    by 0.3, as a global centering leaves an interval's outcomes)."""
    Z = np.ones((K, 3 * D, D))
    x = Z[:, :, 1:-1]
    x[:] = rng.uniform(-1, 1, x.shape)
    if kind == "rank":
        x[:] = x[:, :, :1] * rng.standard_normal((K, 1, D - 2))
    elif kind == "collinear" and D > 3:
        x[:, :, 1] = x[:, :, 0]
    elif kind == "indicator" and D > 2:
        x[:, :, -1] = rng.random((K, 1)) < 0.5
    y = x.sum(axis=2) + rng.standard_normal((K, 3 * D))
    Z[:, :, -1] = (y + 1e6) - (1e6 + 0.3) if kind == "offset" else y
    return np.einsum("kni,knj->ijk", Z, Z)


@pytest.mark.parametrize("kind", ["full", "rank", "collinear", "indicator", "offset"])
@pytest.mark.parametrize("D", range(2, 8))
def test_eliminate_matches_full_square_oracle(rng, D, kind):
    # the packed kernel eliminates with each pivot's upper row where the
    # full-square form reads its lower column, so the two round apart; the
    # last pivots agree within 1e-13 relative (measured: at most 1.3e-15)
    A = moment_stack(rng, D, kind)
    want = eliminate_full(A.copy())
    assert want.min() > 0.0
    np.testing.assert_allclose(_eliminate(pack(A)), want, rtol=1e-13, atol=0.0)


def test_columns_call_no_linalg(indicators, monkeypatch):
    # the DP path is numpy elementwise work only, rank-deficient intervals included
    m = 80
    cache = CostCache(indicators, m, lambdas=(0.0, 1e-3))

    def forbidden(*args, **kwargs):
        raise AssertionError("np.linalg called inside costs()")

    for name in dir(np.linalg):
        if not name.startswith("_") and callable(getattr(np.linalg, name)) \
                and not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, forbidden)
    for r in range(1, m + 1):
        cache.costs(np.arange(r, dtype=np.int64), r)


# ---------------------------------------------------- discrete covariates


def test_indicator_costs_match_oracle(indicators, rng):
    d, m = indicators, 80
    flags = d.covariates[:, np.isin(d.covariates, (0.0, 1.0)).all(axis=0)]
    cells = np.minimum((d.treatments * m).astype(int), m - 1)
    cache = CostCache(d, m, lambdas=(0.0, 1e-3))
    constant = varying = 0
    for hi in rng.integers(1, m + 1, size=12):
        los = np.unique(rng.integers(0, hi, size=6))
        got = cache.costs(los, int(hi))
        for k, lo in enumerate(los):
            rows = (cells >= lo) & (cells < hi)
            if rows.any() and (flags[rows] == flags[rows][0]).all():
                constant += 1
            else:
                varying += 1
            for h, lam in enumerate(cache.lambdas):
                want = cost_oracle(d.covariates, d.treatments, d.outcomes, int(lo), int(hi), m, lam)
                assert got[h, k] == pytest.approx(want, rel=1e-9, abs=1e-12), (lo, hi, lam)
    assert constant and varying


@pytest.mark.parametrize("lam", [0.0, 1e-3])
def test_indicator_pelt_matches_dp_no_prune(indicators, lam):
    m, gamma = 80, default_gamma(400)
    costfn = CostCache(indicators, m, lambdas=(lam,), precompute=True).costfn(lam)
    pruned, exact = pelt(costfn, m, gamma)[0], dp_no_prune(costfn, m, gamma)[0]
    assert pruned == exact == fit_ljil(indicators, m, lam, gamma).partition


def test_rare_indicator_fit_one_kernel_call_per_block(factorized, column_calls):
    # LAPACK failed a batch as a whole, so a 1% indicator used to cost about
    # 38 factorization calls per column; the kernel never fails a batch, so
    # the fit makes exactly the block rule's kernel calls for the column
    # calls it makes, each within the reference DP's candidate set, and its
    # theta call makes none. The dominance certificate's kernel calls,
    # counted apart, take it below PELT's 84 calls, and with them too
    d, m = indicator_data(4000, (0.01,)), 800
    gamma = default_gamma(4000)
    calls = dp_calls(d, m, (0.0,), [gamma])
    assert len(calls) == m
    factorized.clear()
    fit_ljil(d, m, 0.0, gamma)
    assert factorized == block_rule(column_calls, m, jil.cost._BLOCK_PAIRS)
    R = {r: set(U.tolist()) for U, r in calls}
    assert all(set(U.tolist()) <= R[r] for U, r in column_calls)
    assert factorized.certified
    assert len(block_rule(calls, m, jil.cost._BLOCK_PAIRS)) == 84  # plain PELT's calls
    assert len(factorized) + len(factorized.certified) < 84


def test_lone_fit_at_n4000_makes_few_kernel_calls(factorized):
    # each kernel call has a fixed cost (about 65 us, against 90 ns per
    # pair), paid once per block: ljil-large's m = 800 fit makes 84 calls
    d, _ = gen_scenario(ScenarioSpec(1, 4000, 4, 7))
    fit_ljil(d, make_grid(d.n, 5.0), 0.0, default_gamma(d.n))
    assert len(factorized) <= 100
