"""Per-interval ridge fitting, cost evaluation, and the cost cache.

Coefficients and costs are read through CostCache (theta, costfn),
the one ridge cost path of the package, and checked against the oracles in
conftest; the eigendecomposition is checked through cost._factorize.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cost_oracle, ridge_oracle, rows_in_interval
from jil.core import Dataset, Interval
from jil.cost import CostCache, _factorize


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
    cache = CostCache(d, iv.m, lambdas=lambdas)
    return np.array([cache.costfn(lam)(iv.lo, iv.hi) for lam in cache.lambdas])


def cost_of(d, iv, lam):
    """Cost of one interval at one lambda, from a fresh cache."""
    return float(costs_of(d, iv, (lam,))[0])


# ------------------------------------------------------------- ridge fit


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


# ---------------------------------------------------------- factorization


def gram_of(d, lo, hi, m):
    """Gram matrix and cross moment of an interval, built from its rows."""
    mask = rows_in_interval(d.treatments, lo, hi, m)
    Xb = np.hstack([np.ones((mask.sum(), 1)), d.covariates[mask]])
    return Xb.T @ Xb, Xb.T @ d.outcomes[mask]


def test_gram_factor_invariants(rng):
    d = make_ds(rng, 50, 3)
    pairs = ((2, 8), (0, 10), (5, 6))
    Gs, bs = map(np.array, zip(*(gram_of(d, lo, hi, 10) for lo, hi in pairs)))
    U, tau, phi = _factorize(Gs, bs)
    assert U.shape == (3, 4, 4) and tau.shape == phi.shape == (3, 4)
    assert np.all(tau >= 0.0)
    for k in range(3):
        recon = U[k] @ np.diag(tau[k]) @ U[k].T
        assert np.linalg.norm(recon - Gs[k]) <= 1e-8 * max(1.0, np.linalg.norm(Gs[k]))
        np.testing.assert_allclose(phi[k], U[k].T @ bs[k], rtol=1e-12, atol=1e-12)


def test_gram_factor_empty(rng):
    d = Dataset(rng.uniform(-1, 1, (6, 2)), np.full(6, 0.99), rng.standard_normal(6))
    G, b = gram_of(d, 0, 5, 10)
    _, tau, phi = _factorize(G[None], b[None])
    np.testing.assert_array_equal(tau, np.zeros((1, 3)))
    np.testing.assert_array_equal(phi, np.zeros((1, 3)))


# ------------------------------------------------------------- CostCache


def test_cache_repeated_lookup_bitwise(rng):
    d = make_ds(rng, 40, 2)
    cache = CostCache(d, 8, lambdas=(0.0, 0.1))
    iv = Interval(1, 5, 8)
    a = cache.costfn(0.1)(iv.lo, iv.hi)
    b = cache.costfn(0.1)(iv.lo, iv.hi)
    assert a == b and not np.isnan(a)


def test_cache_fresh_instance_reproduces(rng):
    d = make_ds(rng, 40, 2)
    c1 = CostCache(d, 8, lambdas=(0.0, 0.1))
    c2 = CostCache(d, 8, lambdas=(0.0, 0.1))
    for lo in range(8):
        for hi in range(lo + 1, 9):
            assert c1.costfn(0.1)(lo, hi) == c2.costfn(0.1)(lo, hi)


def test_cache_distinct_intervals_not_aliased(rng):
    d = make_ds(rng, 60, 2, y_scale=2.0)
    cache = CostCache(d, 6, lambdas=(0.0,))
    f = cache.costfn(0.0)
    v1 = f(0, 3)
    v2 = f(0, 5)
    v1_again = f(0, 3)
    assert v1 == v1_again
    assert v1 != v2  # same lo, different hi: independent entries


def test_cache_precompute_matches_lazy_bitwise(rng):
    d = make_ds(rng, 50, 2)
    eager = CostCache(d, 9, lambdas=(0.0, 0.05), precompute=True)
    lazy = CostCache(d, 9, lambdas=(0.0, 0.05), precompute=False)
    for lo in range(9):
        for hi in range(lo + 1, 10):
            for lam in (0.0, 0.05):
                assert eager.costfn(lam)(lo, hi) == lazy.costfn(lam)(lo, hi)


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


def test_cache_off_grid_lambda(rng):
    # a lambda off the cache's grid is rejected, as NetworkCosts rejects
    # any lambda but 0, and nothing is computed
    d = make_ds(rng, 30, 2)
    cache = CostCache(d, 5, lambdas=(0.0, 0.1))
    for lam in (0.37, 1e-3, np.nextafter(0.1, 1.0)):
        with pytest.raises(ValueError, match="lambda grid"):
            cache.costfn(lam)
    assert np.isnan(cache._table).all()
    assert cache.costfn(0.1)(1, 4) == pytest.approx(
        cost_oracle(d.covariates, d.treatments, d.outcomes, 1, 4, 5, 0.1), rel=1e-8, abs=1e-12
    )


def test_cache_costfn_closure(rng):
    d = make_ds(rng, 30, 1)
    cache = CostCache(d, 6, lambdas=(0.1,), precompute=True)
    f = cache.costfn(0.1)
    assert f(0, 3) == cache.costfn(0.1)(0, 3) == cache._table[0, 3, 0]
    assert f(2, 6) == cost_of(d, Interval(2, 6, 6), 0.1)


def test_cache_costfn_array_matches_scalar_bitwise(rng):
    d = make_ds(rng, 60, 2)
    for lam in (0.0, 0.05):  # each lambda of the cache's grid
        batched = CostCache(d, 9, lambdas=(0.0, 0.05)).costfn(lam)
        scalar = CostCache(d, 9, lambdas=(0.0, 0.05)).costfn(lam)
        for hi in range(1, 10):
            los = np.arange(hi, dtype=np.int64)[::2].copy()
            got = batched(los, hi)
            assert isinstance(got, np.ndarray) and got.shape == los.shape
            want = [scalar(int(lo), hi) for lo in los]
            assert got.tolist() == want
            assert all(isinstance(v, float) for v in want)


def test_cache_costfn_rejects_bad_indices(rng):
    d = make_ds(rng, 30, 1)
    f = CostCache(d, 5, lambdas=(0.0,)).costfn(0.0)
    for lo, hi in ((-1, 2), (3, 3), (4, 2), (0, 6)):
        with pytest.raises(ValueError):
            f(lo, hi)
    for los, hi in (([-1, 0], 2), ([0, 3], 3), ([1, 2], 6)):
        with pytest.raises(ValueError):
            f(np.array(los, dtype=np.int64), hi)


def test_cache_fills_only_requested_costs(rng):
    d = make_ds(rng, 50, 2)
    m = 8
    lazy = CostCache(d, m, lambdas=(0.0, 0.1))
    assert np.isnan(lazy._table).all()
    lazy.costfn(0.1)(np.array([1, 4], dtype=np.int64), 6)
    assert np.count_nonzero(~np.isnan(lazy._table)) == 2 * 2  # both lambdas, two pairs
    eager = CostCache(d, m, lambdas=(0.0, 0.1), precompute=True)
    for h in range(2):
        assert np.count_nonzero(~np.isnan(eager._table[h])) == m * (m + 1) // 2


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


def test_cache_factor_batched_matches_per_interval_bitwise(rng):
    d = make_ds(rng, 50, 3)
    pairs = ((0, 10), (2, 8), (5, 6), (2, 3))
    Gs, bs = map(np.array, zip(*(gram_of(d, lo, hi, 10) for lo, hi in pairs)))
    stacked = _factorize(Gs, bs)
    assert stacked[0].shape == (4, 4, 4)
    for k in range(len(pairs)):
        single = _factorize(Gs[k : k + 1], bs[k : k + 1])
        for a, b in zip(stacked, single):
            assert a[k].tobytes() == b[0].tobytes()


def test_cache_theta_rejects_bad_index_arrays(rng):
    cache = CostCache(make_ds(rng, 30, 1), 5)
    for los, his in (([0, 2], [2]), ([-1, 2], [2, 5]), ([0, 3], [2, 3]), ([1, 2], [3, 6])):
        with pytest.raises(ValueError):
            cache.theta(np.array(los, dtype=np.int64), np.array(his, dtype=np.int64), 0.0)
