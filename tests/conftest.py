"""Shared test fixtures and independent oracle implementations.

The oracles here deliberately avoid every fast path in the package: ridge
solves go through dense normal equations (or lstsq for the singular case),
costs and losses are accumulated with plain Python loops where feasible, and
interval membership is recomputed from first principles. The exhaustive
partition search and the finite-difference gradient check live here too.
Tests compare the library against these, never against itself.
"""

from __future__ import annotations

import numpy as np
import pytest

import jil.cost
from jil.core import Partition
from jil.errors import DimensionMismatch
from jil.mlp import MlpModel, _batch_gradients


def make_xbar(X: np.ndarray) -> np.ndarray:
    """Design matrix with a leading intercept column."""
    n = X.shape[0]
    return np.hstack([np.ones((n, 1)), X])


def cell_of(a: float, m: int) -> int:
    """Grid cell of a treatment value: min(floor(a*m), m-1)."""
    return min(int(np.floor(a * m)), m - 1)


def rows_in_interval(A: np.ndarray, lo: int, hi: int, m: int) -> np.ndarray:
    """Boolean mask of rows whose treatment cell lies in [lo, hi)."""
    cells = np.array([cell_of(a, m) for a in A])
    return (cells >= lo) & (cells < hi)


def ridge_oracle(X, A, Y, lo, hi, m, lam):
    """Direct dense solve of the per-interval ridge normal equations.

    theta = (sum xbar xbar^T + n*lam*|I|*Id)^{-1} sum xbar y over rows with
    A in the interval; min-norm lstsq when lam == 0 and the Gram is singular.
    """
    X = np.asarray(X, dtype=float)
    n = len(Y)
    mask = rows_in_interval(np.asarray(A, dtype=float), lo, hi, m)
    Xb = make_xbar(X[mask])
    Yv = np.asarray(Y, dtype=float)[mask]
    d = X.shape[1] + 1
    if Xb.shape[0] == 0:
        return np.zeros(d)
    ilen = (hi - lo) / m
    if lam == 0.0:
        theta, *_ = np.linalg.lstsq(Xb, Yv, rcond=None)
        return theta
    G = Xb.T @ Xb + n * lam * ilen * np.eye(d)
    return np.linalg.solve(G, Xb.T @ Yv)


def cost_oracle(X, A, Y, lo, hi, m, lam):
    """Interval cost from the ridge oracle, accumulated with a Python loop."""
    theta = ridge_oracle(X, A, Y, lo, hi, m, lam)
    n = len(Y)
    mask = rows_in_interval(np.asarray(A, dtype=float), lo, hi, m)
    sse = 0.0
    for i in range(n):
        if mask[i]:
            pred = theta[0] + float(np.dot(X[i], theta[1:]))
            sse += (Y[i] - pred) ** 2
    ilen = (hi - lo) / m
    return sse / n + lam * ilen * float(np.dot(theta, theta))


def random_xy(rng, n, p, scale=1.0):
    """Covariates uniform on [-1, 1], treatments uniform on [0, 1], noisy outcomes."""
    X = rng.uniform(-1.0, 1.0, size=(n, p))
    A = rng.random(n)
    Y = scale * rng.standard_normal(n) + X.sum(axis=1)
    return X, A, Y


_ENUM_MAX_M = 16


def enumerate_partitions(costfn, m: int, gamma: float):
    """Exhaustive minimizer over all 2^(m-1) boundary subsets.

    Returns (Partition, objective). Ties break toward fewer intervals, then
    the lexicographically smallest boundary set. Each objective sums the
    interval costs left to right and then adds gamma per interval, as the
    library's DP reports its objective, so equal partitions give equal bits.
    Guarded to m <= 16.
    """
    if not 1 <= m <= _ENUM_MAX_M:
        raise ValueError(f"enumeration supports 1 <= m <= {_ENUM_MAX_M}, got {m}")
    gamma = float(gamma)
    best_key = best_edges = None
    for mask in range(1 << (m - 1)):
        cuts = tuple(j + 1 for j in range(m - 1) if mask >> j & 1)
        edges = (0,) + cuts + (m,)
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            total += costfn(lo, hi)
        key = (total + gamma * (len(edges) - 1), len(edges) - 1, cuts)
        if best_key is None or key < best_key:
            best_key, best_edges = key, edges
    return Partition.from_edges(list(best_edges), m), best_key[0]


def gradient_check(model: MlpModel, x, y: float, eps: float = 1e-5) -> float:
    """Worst relative error between backprop and central finite differences.

    The analytic gradient of (pred - y)^2 at one row comes from the
    library's backprop; for each parameter entry the numeric gradient is
    (loss(theta + eps) - loss(theta - eps)) / (2 eps) and the relative error
    is |analytic - numeric| / max(|analytic| + |numeric|, 1e-12).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != model.n_inputs:
        raise DimensionMismatch(
            f"network expects {model.n_inputs} covariates, got shape {x.shape}"
        )
    dws, dbs = _batch_gradients(model, x[None, :], np.array([y]))

    def loss(weights, biases):
        probe = MlpModel(model.layer_sizes, tuple(weights), tuple(biases))
        r = float(probe.predict_batch(x[None, :])[0]) - y
        return r * r

    worst = 0.0
    weights = [w.copy() for w in model.weights]
    biases = [b.copy() for b in model.biases]
    for k in range(len(weights)):
        for grads, arr in ((dws, weights[k]), (dbs, biases[k])):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = arr[ix]
                arr[ix] = orig + eps
                up = loss(weights, biases)
                arr[ix] = orig - eps
                down = loss(weights, biases)
                arr[ix] = orig
                numeric = (up - down) / (2.0 * eps)
                analytic = float(grads[k][ix])
                err = abs(analytic - numeric) / max(abs(analytic) + abs(numeric), 1e-12)
                worst = max(worst, err)
    return worst


@pytest.fixture
def rng():
    return np.random.default_rng(20260813)


@pytest.fixture
def factorized(monkeypatch):
    """Sizes of every batch cost._cholesky gets while the test runs: the
    number of intervals the ridge path evaluates, call by call. Every cost
    column and every theta call routes all of its intervals through it, the
    ones the min-norm path then takes included."""
    sizes = []
    real = jil.cost._cholesky

    def recording(As, fast):
        sizes.append(As.shape[0])
        return real(As, fast)

    monkeypatch.setattr(jil.cost, "_cholesky", recording)
    return sizes
