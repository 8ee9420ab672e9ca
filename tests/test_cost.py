"""Per-interval ridge fitting, cost evaluation, and the cost cache.

Coefficients and costs are read through CostCache (theta, columns, and
the scalar costfn, a read of the precompute=True table), the one ridge
cost path of the package, and checked against the oracles in conftest.
Every cost comes from one kernel, cost._eliminate, tested here against
LAPACK and lstsq; coefficients take one of two routes, a solve or the
min-norm eigendecomposition of CostCache._min_norm.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jil.cost
from conftest import cost_oracle, indicator_data, ridge_oracle
from jil.core import Dataset, Interval
from jil.cost import CostCache, _eliminate
from jil.fit import fit_ljil
from jil.segment import dp_no_prune, pelt
from jil.tuning import default_gamma


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
    return CostCache(d, iv.m, lambdas=lambdas).columns()(np.array([iv.lo]), iv.hi)[:, 0]


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
    # the last pivot for about one (offset, lam) pair in five
    for offset in (0.3, 1.7, 3.0, 1e3, 12345.678, 1e5):
        d = Dataset(rng.uniform(-1, 1, (8, 2)), np.full(8, 0.95), offset + rng.standard_normal(8))
        column = CostCache(d, 10, lambdas=(0.0, 1e-3, 0.01, 0.37, 2.0)).columns()
        for hi in range(1, 10):
            assert not column(np.arange(hi, dtype=np.int64), hi).any()


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


# ---------------------------------------- outcome shifts and the min-norm route


@pytest.fixture
def min_norm(monkeypatch):
    """Sizes of every batch the min-norm path (CostCache._min_norm) gets;
    only theta calls reach it."""
    sizes = []
    real = jil.cost.CostCache._min_norm

    def recording(self, M, ridge):
        sizes.append(M.shape[2])
        return real(self, M, ridge)

    monkeypatch.setattr(jil.cost.CostCache, "_min_norm", recording)
    return sizes


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
        column = CostCache(Dataset(X, A, Y), m, lambdas=(0.0, 1e-2)).columns()
        for lo, hi in pairs:
            got = column(np.array([lo]), hi)[:, 0]
            for h, lam in enumerate((0.0, 1e-2)):
                want = cost_oracle(X, A, Y, lo, hi, m, lam)
                assert got[h] == pytest.approx(want, rel=1e-8), (offset, lam, lo, hi)


def check_min_norm_route(d, lo, hi, m, lam, min_norm):
    """Cost and coefficients of one interval match the oracles, and the
    coefficients come from the min-norm path."""
    min_norm.clear()
    iv = Interval(lo, hi, m)
    got_cost, got_theta = cost_of(d, iv, lam), theta_of(d, iv, lam)
    assert min_norm == [1]
    X, A, Y = d.covariates, d.treatments, d.outcomes
    assert got_cost == pytest.approx(cost_oracle(X, A, Y, lo, hi, m, lam), rel=1e-8, abs=1e-12)
    want = ridge_oracle(X, A, Y, lo, hi, m, lam)
    np.testing.assert_allclose(got_theta, want, rtol=1e-7, atol=1e-8)
    return got_cost, got_theta


def test_min_norm_route_few_rows(rng, min_norm):
    # at lam = 0 an interval with d rows or fewer has a singular or
    # interpolating Gram; d = 4 here, and the first cell holds 4, then 2 rows
    for rows in (4, 2):
        A = np.concatenate([np.linspace(0.05, 0.45, rows), rng.uniform(0.5, 1.0, 30)])
        X = rng.uniform(-1, 1, (A.size, 3))
        d = Dataset(X, A, 5.0 + X.sum(axis=1) + rng.standard_normal(A.size))
        check_min_norm_route(d, 0, 1, 2, 0.0, min_norm)


def test_min_norm_route_collinear_covariates(rng, min_norm):
    n = 60
    A = rng.random(n)
    X = rng.uniform(-1, 1, (n, 3))
    X[:, 2] = X[:, 0]  # a duplicated column
    d = Dataset(X, A, X[:, 0] + rng.standard_normal(n))
    check_min_norm_route(d, 0, 4, 4, 0.0, min_norm)
    # a binary covariate, 0 on [0, 1/2) and 1 (the intercept's twin) on [1/2, 1)
    X[:, 2] = A >= 0.5
    d = Dataset(X, A, 2.0 * X[:, 2] + X[:, 1] + rng.standard_normal(n))
    for lo, hi in ((0, 2), (2, 4)):
        check_min_norm_route(d, lo, hi, 4, 0.0, min_norm)
    # a near-duplicate column: its pivot ratio (about 1e-12) makes that
    # direction null, so theta takes the min-norm path, which drops it as a
    # singular-value cutoff of 1e-5 does
    X[:, 2] = X[:, 0] + 1e-6 * rng.standard_normal(n)
    d = Dataset(X, A, X[:, 0] + rng.standard_normal(n))
    min_norm.clear()
    got = theta_of(d, Interval(0, 1, 1), 0.0)
    assert min_norm == [1]
    Xb = np.hstack([np.ones((n, 1)), X])
    want = np.linalg.lstsq(Xb, d.outcomes, rcond=1e-5)[0]
    np.testing.assert_allclose(got, want, rtol=1e-7, atol=1e-8)
    sse = float(np.sum((d.outcomes - Xb @ want) ** 2))
    assert cost_of(d, Interval(0, 1, 1), 0.0) == pytest.approx(sse / n, rel=1e-8)


def test_min_norm_route_noiseless_outcomes(rng, min_norm):
    # SSE = 0 leaves the augmented moments singular. Constant outcomes center
    # to exact zeros, so the last pivot is 0 and theta takes the min-norm
    # path; linear ones leave a last pivot at rounding level, which either
    # route must turn into a zero cost and the exact coefficients
    n = 40
    X = rng.uniform(-1, 1, (n, 2))
    A = rng.random(n)
    cost, theta = check_min_norm_route(Dataset(X, A, np.full(n, 3.0)), 0, 3, 3, 0.0, min_norm)
    assert cost <= 1e-12
    np.testing.assert_allclose(theta, [3.0, 0.0, 0.0], atol=1e-12)
    d = Dataset(X, A, 3.0 + X @ np.array([1.5, -2.0]))
    for lo, hi in ((0, 3), (1, 2), (2, 3)):
        assert cost_of(d, Interval(lo, hi, 3), 0.0) <= 1e-12
        np.testing.assert_allclose(theta_of(d, Interval(lo, hi, 3), 0.0), [3.0, 1.5, -2.0], rtol=1e-10)


def test_min_norm_route_empty_interval_exact_zero(rng, min_norm):
    d = Dataset(rng.uniform(-1, 1, (8, 2)), np.full(8, 0.9), 1e5 + rng.standard_normal(8))
    for lam in (1e-3, 0.5):
        min_norm.clear()
        assert cost_of(d, Interval(0, 2, 4), lam) == 0.0
        np.testing.assert_array_equal(theta_of(d, Interval(0, 2, 4), lam), np.zeros(3))
        assert min_norm == [1]


def test_min_norm_route_per_interval_in_a_failing_batch(rng, min_norm):
    # a binary covariate constant on each half leaves those intervals
    # rank-deficient; every interval of a column keeps the bits of a batch
    # of its own
    n, m = 80, 8
    A = rng.random(n)
    X = rng.uniform(-1, 1, (n, 2))
    X[:, 1] = A >= 0.5
    d = Dataset(X, A, X[:, 0] + rng.standard_normal(n))
    cache = CostCache(d, m, lambdas=(0.0,))
    column = cache.columns()
    for hi in range(1, m + 1):
        los = np.arange(hi, dtype=np.int64)
        assert column(los, hi)[0].tolist() == [column(los[k : k + 1], hi)[0, 0] for k in range(hi)]
        thetas = cache.theta(los, np.full(hi, hi), 0.0)
        for k, lo in enumerate(los):
            single = cache.theta(los[k : k + 1], np.array([hi]), 0.0)[0]
            assert thetas[k].tobytes() == single.tobytes()
    assert min_norm  # the rank-deficient intervals took the min-norm path


def test_min_norm_path_idle_on_full_rank_data(rng, min_norm):
    # the solve serves every interval of generic data with enough rows
    d = make_ds(rng, 200, 3)
    m = 10
    cache = CostCache(d, m, lambdas=(0.0, 1e-3, 0.1), precompute=True)
    los, his = np.triu_indices(m + 1, 1)
    for lam in cache.lambdas:
        cache.theta(los, his, lam)
    assert min_norm == []


# ------------------------------------------------------------- CostCache


def test_cache_repeated_lookup_bitwise(rng):
    d = make_ds(rng, 40, 2)
    cache = CostCache(d, 8, lambdas=(0.0, 0.1))
    iv = Interval(1, 5, 8)
    a = cache.columns()(np.array([iv.lo]), iv.hi)
    b = cache.columns()(np.array([iv.lo]), iv.hi)
    assert a.tobytes() == b.tobytes() and not np.isnan(a).any()


def test_cache_fresh_instance_reproduces(rng):
    d = make_ds(rng, 40, 2)
    c1 = CostCache(d, 8, lambdas=(0.0, 0.1))
    c2 = CostCache(d, 8, lambdas=(0.0, 0.1))
    for hi in range(1, 9):
        los = np.arange(hi, dtype=np.int64)
        assert c1.columns()(los, hi).tobytes() == c2.columns()(los, hi).tobytes()


def test_cache_distinct_intervals_not_aliased(rng):
    d = make_ds(rng, 60, 2, y_scale=2.0)
    column = CostCache(d, 6, lambdas=(0.0,)).columns()
    v1 = column(np.array([0]), 3)[0, 0]
    v2 = column(np.array([0]), 5)[0, 0]
    v1_again = column(np.array([0]), 3)[0, 0]
    assert v1 == v1_again
    assert v1 != v2  # same lo, different hi: independent entries


def test_cache_precompute_matches_lazy_bitwise(rng):
    # table reads carry the bits of the lazy cache's columns()
    d = make_ds(rng, 50, 2)
    eager = CostCache(d, 9, lambdas=(0.0, 0.05), precompute=True)
    column = CostCache(d, 9, lambdas=(0.0, 0.05), precompute=False).columns()
    for hi in range(1, 10):
        los = np.arange(hi, dtype=np.int64)
        lazy = column(los, hi)
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
    assert factorized == []
    assert cache.costfn(0.1)(1, 4) == pytest.approx(
        cost_oracle(d.covariates, d.treatments, d.outcomes, 1, 4, 5, 0.1), rel=1e-8, abs=1e-12
    )


def test_cache_costfn_closure(rng):
    d = make_ds(rng, 30, 1)
    cache = CostCache(d, 6, lambdas=(0.1,), precompute=True)
    f = cache.costfn(0.1)
    lazy = CostCache(d, 6, lambdas=(0.1,)).columns()
    assert f(0, 3) == cache.costfn(0.1)(0, 3) == lazy(np.array([0]), 3)[0, 0]
    assert f(2, 6) == cost_of(d, Interval(2, 6, 6), 0.1)


def test_cache_columns_match_scalar_costfn_bitwise(rng):
    d = make_ds(rng, 60, 2)
    lambdas = (0.0, 0.05)
    column = CostCache(d, 9, lambdas=lambdas).columns()
    for h, lam in enumerate(lambdas):  # each lambda of the cache's grid
        scalar = CostCache(d, 9, lambdas=lambdas, precompute=True).costfn(lam)
        one_row = CostCache(d, 9, lambdas=(lam,)).columns()
        for hi in range(1, 10):
            los = np.arange(hi, dtype=np.int64)[::2].copy()
            got = column(los, hi)
            assert isinstance(got, np.ndarray) and got.shape == (len(lambdas), los.size)
            want = [scalar(int(lo), hi) for lo in los]
            assert got[h].tolist() == one_row(los, hi)[0].tolist() == want
            assert all(isinstance(v, float) for v in want)


def test_cache_costfn_rejects_bad_indices(rng):
    d = make_ds(rng, 30, 1)
    cache = CostCache(d, 5, lambdas=(0.0,), precompute=True)
    f, column = cache.costfn(0.0), cache.columns()
    for lo, hi in ((-1, 2), (3, 3), (4, 2), (0, 6)):
        with pytest.raises(ValueError):
            f(lo, hi)
    for los, hi in (([-1, 0], 2), ([0, 3], 3), ([1, 2], 6)):
        with pytest.raises(ValueError):
            column(np.array(los, dtype=np.int64), hi)
    # the scalar adapter takes no column: that is what columns() is for
    for lo in (np.array([0, 1], dtype=np.int64), np.array([1], dtype=np.int64), 1.0):
        with pytest.raises(TypeError):
            f(lo, 3)


def test_cache_costfn_needs_the_table(rng, factorized):
    # the scalar costfn only reads a precompute=True table; a lazy cache
    # computes through columns() and has no scalar form
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
    lazy.columns()(np.array([1, 4], dtype=np.int64), 6)
    assert factorized == [4]  # one call for both pairs at both lambdas
    factorized.clear()
    eager = CostCache(d, m, lambdas=(0.0, 0.1), precompute=True)
    # one call per column, at both lambdas
    assert factorized == [2 * r for r in range(1, m + 1)]
    for lam in (0.0, 0.1):
        for lo in range(m):
            eager.costfn(lam)(lo, m)
        eager.costfn(lam)(2, 7)
    assert sum(factorized) == 2 * m * (m + 1) // 2  # reads computed nothing more


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
    # the min-norm path gives each interval the same theta bits in any
    # batch, at zero and positive ridge; cell 0 holds no rows
    n, m = 50, 10
    A = rng.uniform(0.1, 1.0, n)
    X = rng.uniform(-1, 1, (n, 3))
    d = Dataset(X, A, 4.0 + X.sum(axis=1) + rng.standard_normal(n))
    cache = CostCache(d, m)
    los, his = np.array([0, 2, 5, 2, 0]), np.array([10, 8, 6, 3, 1])
    M = cache._M[:, :, his] - cache._M[:, :, los]  # cell-major: (D, D, K)
    for ridge in (np.zeros(los.size), n * 1e-3 * (his - los) / m):
        thetas = cache._min_norm(M, ridge)
        assert thetas.shape == (los.size, 4)
        np.testing.assert_array_equal(thetas[-1], np.zeros(4))
        for k in range(los.size):
            theta = cache._min_norm(M[:, :, k : k + 1], ridge[k : k + 1])
            assert thetas[k].tobytes() == theta[0].tobytes()


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
    S = A.copy()
    live, last = _eliminate(S)
    assert live.all()
    want = np.diagonal(np.linalg.cholesky(np.moveaxis(A, -1, 0)), axis1=1, axis2=2) ** 2
    got = np.diagonal(S)  # the pivots stay on the diagonal, (K, D)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    np.testing.assert_array_equal(last, got[:, -1])


@pytest.mark.parametrize("D, rank", [(2, 0), (4, 1), (6, 3), (6, 4), (9, 5)])
def test_eliminate_rank_deficient_last_pivot_is_lstsq_residual(rng, D, rank):
    A, Z = spd_stack(rng, D, 30, rank)
    live, last = _eliminate(A.copy())
    assert not live.any()
    for k in range(Z.shape[0]):
        X, y = Z[k, :, :-1], Z[k, :, -1]
        resid = y - X @ np.linalg.lstsq(X, y, rcond=None)[0]
        assert last[k] == pytest.approx(resid @ resid, rel=1e-9)


def test_eliminate_bitwise_alone_and_in_a_batch(rng):
    full, _ = spd_stack(rng, 6, 20)
    low, _ = spd_stack(rng, 6, 20, rank=2)
    A = np.concatenate([full, low, np.zeros((6, 6, 3))], axis=2)
    S = A.copy()
    live, last = _eliminate(S)
    for k in range(A.shape[2]):
        one = A[:, :, k : k + 1].copy()
        live_k, last_k = _eliminate(one)
        assert one.tobytes() == np.ascontiguousarray(S[:, :, k : k + 1]).tobytes()
        assert (live_k[0], last_k[0].tobytes()) == (live[k], last[k].tobytes())


def test_columns_call_no_linalg(indicators, monkeypatch):
    # the DP path is numpy elementwise work only, rank-deficient intervals included
    m = 80
    cache = CostCache(indicators, m, lambdas=(0.0, 1e-3))
    column = cache.columns()

    def forbidden(*args, **kwargs):
        raise AssertionError("np.linalg called inside columns()")

    for name in dir(np.linalg):
        if not name.startswith("_") and callable(getattr(np.linalg, name)) \
                and not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, forbidden)
    for r in range(1, m + 1):
        column(np.arange(r, dtype=np.int64), r)


# ---------------------------------------------------- discrete covariates


def test_indicator_costs_match_oracle(indicators, rng):
    d, m = indicators, 80
    flags = d.covariates[:, np.isin(d.covariates, (0.0, 1.0)).all(axis=0)]
    cells = np.minimum((d.treatments * m).astype(int), m - 1)
    cache = CostCache(d, m, lambdas=(0.0, 1e-3))
    column = cache.columns()
    constant = varying = 0
    for hi in rng.integers(1, m + 1, size=12):
        los = np.unique(rng.integers(0, hi, size=6))
        got = column(los, int(hi))
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


def test_rare_indicator_fit_one_kernel_call_per_column(factorized):
    # LAPACK failed a batch as a whole, so a 1% indicator used to cost about
    # 38 factorization calls per column; the kernel never fails a batch
    d, m = indicator_data(4000, (0.01,)), 800
    fit = fit_ljil(d, m, 0.0, default_gamma(4000))
    assert len(factorized) == m + 1  # one per DP column, then one theta call
    assert factorized[-1] == fit.partition.size
