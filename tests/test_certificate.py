"""Functional pruning: the S-lemma dominance certificate of
CostCache.certificate inside the one DP body, segment._dp.

A certified DP must return the bits of plain PELT (the ridge table with no
certificate) and of the exact DP, ask only for subsets of PELT's candidate
sets, and ask for far fewer of them at scale. The gapped-treatment fits run
the certificate at every block boundary, where exact ties are common; there
a zero margin or a kernel without the positive-pivot check changes
partitions, and the last test shows that it does.
"""

from __future__ import annotations

import numpy as np
import pytest

import jil.cost
import jil.segment
from conftest import indicator_data, pack, reference_calls
from jil.core import Dataset, make_grid
from jil.cost import CostCache, _schur
from jil.fit import NetworkCosts, fit_ljil
from jil.mlp import TrainConfig
from jil.segment import dp_no_prune, pelt
from jil.sim import ScenarioSpec, gen_scenario
from jil.tuning import default_gamma, default_grid

LAMBDAS = (0.0, 1e-3, 1e-2)


def scenario(k, n=4000, seed=0):
    return gen_scenario(ScenarioSpec(k, n, 4, seed))[0]


def constant_covariate():
    d = scenario(1, seed=7)
    X = d.covariates.copy()
    X[:, 1] = 3.0
    return Dataset(X, d.treatments, d.outcomes)


def duplicated_treatments():
    d = scenario(1, seed=7)
    A = d.treatments.copy()
    A[1::2] = A[::2][: A[1::2].size]
    return Dataset(d.covariates, A, d.outcomes)


def outcomes(f):
    d = scenario(1, seed=7)
    return Dataset(d.covariates, d.treatments, f(d.outcomes))


DATASETS = {
    **{f"scenario{k}": (lambda k=k: scenario(k)) for k in range(1, 6)},
    "indicator": lambda: indicator_data(4000, (0.01,)),
    "constant-covariate": constant_covariate,
    "duplicated-treatments": duplicated_treatments,
    "y+1e4": lambda: outcomes(lambda y: y + 1e4),
    "y*2^20": lambda: outcomes(lambda y: y * 2.0**20),
    "y*2^-20": lambda: outcomes(lambda y: y * 2.0**-20),
    # intervals with fewer than d rows cost rounding noise at lambda = 0
    "scenario5-seed1": lambda: scenario(5, seed=1),
}
# costs scale with the outcome squared; so does the penalty here, so that
# the scaled data pose the unscaled problem and the certificate runs
GAMMA_SCALE = {"y*2^20": 2.0**40, "y*2^-20": 2.0**-40}


@pytest.fixture
def uncertified(monkeypatch):
    """Run fn with CostCache supplying no certificate: plain PELT."""

    def run(fn, *args):
        with monkeypatch.context() as patch:
            patch.setattr(CostCache, "certificate", None)
            return fn(*args)

    return run


def bits(partition, objective):
    return partition, objective.hex()


@pytest.mark.parametrize("name", DATASETS)
def test_certified_fits_keep_the_bits_of_pelt_and_the_exact_dp(name, factorized, uncertified):
    d = DATASETS[name]()
    m, gamma = make_grid(d.n, 5.0), default_gamma(d.n) * GAMMA_SCALE.get(name, 1.0)
    factorized.certified.clear()
    fits = [fit_ljil(d, m, lam, gamma) for lam in LAMBDAS]
    assert factorized.certified  # the certificate ran
    plain = [uncertified(fit_ljil, d, m, lam, gamma) for lam in LAMBDAS]
    cache = CostCache(d, m, lambdas=LAMBDAS)
    exact = dp_no_prune(cache.costs, m, [gamma], budget=cache.budget)
    for fit, other, (row,) in zip(fits, plain, exact):
        assert bits(fit.partition, fit.objective) == bits(other.partition, other.objective) \
            == bits(*row)
        assert [f.theta.tobytes() for f in fit.models] == [f.theta.tobytes() for f in other.models]
    # the grid form over the default grid: every (lambda, gamma) DP alike
    gammas = [g * GAMMA_SCALE.get(name, 1.0) for g in default_grid(d.n, 0).gammas]
    factorized.certified.clear()
    grid = pelt(cache.costs, m, gammas, budget=cache.budget, certificate=cache.certificate)
    assert factorized.certified
    want = pelt(cache.costs, m, gammas, budget=cache.budget)
    assert [[bits(*x) for x in row] for row in grid] == [[bits(*x) for x in row] for row in want]


def test_certified_column_calls_within_pelt_candidate_sets(column_calls):
    # lone fits and a CV-sized grid: every call's U is within the union of
    # PELT's R_r over the DPs, and somewhere strictly
    d = scenario(3, seed=7)
    m, gammas = make_grid(d.n, 5.0), list(default_grid(d.n, 0).gammas)
    for lambdas, gs in [((0.0,), gammas[2:3]), ((1e-2,), gammas[2:3]), (LAMBDAS, gammas)]:
        cache = CostCache(d, m, lambdas=lambdas)
        R = {r: set(U.tolist()) for U, r in reference_calls(
            CostCache(d, m, lambdas=lambdas, precompute=True)._table.transpose(0, 2, 1), gs)}
        column_calls.clear()
        pelt(cache.costs, m, gs, budget=cache.budget, certificate=cache.certificate)
        assert all(set(U.tolist()) <= R[r] for U, r in column_calls)
        assert any(set(U.tolist()) < R[r] for U, r in column_calls)


def test_certificate_halves_the_candidates_at_n8000(uncertified):
    # one-column calls, so the count is the DP's candidates, sum |R_r|
    d = gen_scenario(ScenarioSpec(1, 8000, 4, 7))[0]
    m, gamma = make_grid(d.n, 5.0), default_gamma(d.n)
    cache = CostCache(d, m)
    counts = []

    def count(certificate):
        total = [0]

        def costs(los, his):
            total[0] += los.size
            return cache.costs(los, his)

        result = pelt(costs, m, gamma, budget=0, certificate=certificate)
        counts.append(total[0])
        return bits(*result)

    assert count(cache.certificate) == count(None)
    assert counts[0] <= counts[1] / 2, counts


def test_network_costs_supply_no_certificate():
    d = scenario(2, n=60)
    assert NetworkCosts.certificate is None
    assert NetworkCosts(d, 6, TrainConfig(hidden=(2,), epochs=1)).certificate is None


def test_certificate_survives_a_plain_wrapper_around_the_column_function(column_calls):
    # the benchmark's tracer wraps the pair function in a closure and
    # forwards keywords, so the certificate, a keyword, still prunes
    d = scenario(1, seed=7)
    m, gamma = make_grid(d.n, 5.0), default_gamma(d.n)
    cache = CostCache(d, m)
    got = pelt(lambda los, his: cache.costs(los, his), m, gamma, budget=cache.budget,
               certificate=cache.certificate)
    direct = fit_ljil(d, m, 0.0, gamma)
    assert bits(*got) == bits(direct.partition, direct.objective)
    half = len(column_calls) // 2
    assert [(U.tolist(), r) for U, r in column_calls[:half]] \
        == [(U.tolist(), r) for U, r in column_calls[half:]]


# ------------------------------------------------------------ the kernel


def quadratic_minimum(Q):
    """min over t of (-t, 1)^T Q (-t, 1) for one symmetric Q with a positive
    definite leading block, by a dense solve."""
    G, b = Q[:-1, :-1], Q[:-1, -1]
    return Q[-1, -1] - b @ np.linalg.solve(G, b)


@pytest.mark.parametrize("D", range(2, 8))
def test_schur_is_the_minimum_of_a_bounded_quadratic(rng, D):
    X = rng.standard_normal((40, D, D))
    Q = X @ X.transpose(0, 2, 1)
    Q[:, -1, -1] -= rng.uniform(0, 5, 40)  # an indefinite last row is fine
    got = _schur(pack(np.moveaxis(Q, 0, -1).copy()))
    want = [quadratic_minimum(q) for q in Q]
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


def test_schur_is_minus_inf_unless_every_leading_pivot_is_positive(rng):
    D = 4
    X = rng.standard_normal((D, D))
    base = X @ X.T + np.eye(D)
    cases = []
    for value in (0.0, -1e-300, -1.0, np.nan):  # the first pivot
        cases.append(base.copy())
        cases[-1][0, 0] = value
    for k in range(1, D - 1):  # a later pivot, -1 or NaN
        for value in (-1.0, np.nan):
            Q = base.copy()
            G, b = Q[:k, :k], Q[:k, k]
            Q[k, k] = value + b @ np.linalg.solve(G, b)
            cases.append(Q)
    twin = base.copy()  # a covariate twin of the intercept: pivot 1 is exactly 0
    twin[1, :], twin[:, 1] = twin[0, :], twin[:, 0]
    twin[1, 1] = twin[0, 0]
    zero = np.zeros((D, D))
    zero[-1, -1] = 1.0  # flat and bounded, but not certified
    cases += [twin, zero]
    got = _schur(pack(np.stack(cases, axis=-1)))
    assert np.all(got == -np.inf), got
    assert np.isfinite(_schur(pack(base[:, :, None].copy())))[0]


# -------------------------------------------------- exact ties, mutations


def gapped_mismatches(seeds=range(30)) -> int:
    """Fits whose certified pelt differs from the exact DP in partition or
    objective bits, over treatments on every third cell (empty cells
    between, so exact ties), with the certificate at every block boundary."""
    bad = 0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        n, m = 300, 120
        X = rng.uniform(-1, 1, (n, 2))
        A = (rng.choice(np.arange(0, m, 3), size=n) + 0.5) / m
        Y = X.sum(axis=1) + (A > 0.5) + 0.3 * rng.standard_normal(n)
        for lam in (0.0, 1e-3):
            cache = CostCache(Dataset(X, A, Y), m, lambdas=(lam,))
            for gamma in (0.0, 1e-3, 0.05):
                got = pelt(cache.costs, m, gamma, budget=cache.budget,
                           certificate=cache.certificate)
                bad += bits(*got) != bits(*dp_no_prune(cache.costs, m, gamma, budget=cache.budget))
    return bad


@pytest.fixture
def certify_always(monkeypatch):
    monkeypatch.setattr(jil.segment, "_CERTIFY_EVERY", 1)
    monkeypatch.setattr(jil.segment, "_CERTIFY_WORK", 0)


def test_certificate_at_every_boundary_keeps_exact_ties(certify_always, factorized):
    assert gapped_mismatches() == 0
    assert len(factorized.certified) >= 180  # at least once per fit


def unchecked_schur(S):
    """_schur without its positive-pivot check: null and negative pivots
    are skipped as the cost kernel's clamp skips them."""
    start = jil.cost._row_starts(S)
    with np.errstate(over="ignore", invalid="ignore"):
        jil.cost._sweep(S, start, jil.cost._TINY)
    return S[-1]


@pytest.mark.parametrize("mutation", ["zero margin", "no pivot check"])
def test_margin_and_pivot_check_are_needed(certify_always, monkeypatch, mutation):
    if mutation == "zero margin":
        monkeypatch.setattr(jil.segment, "_MARGIN", 0.0)
    else:
        monkeypatch.setattr(jil.cost, "_schur", unchecked_schur)
    assert gapped_mismatches() > 0
