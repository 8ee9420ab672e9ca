"""Shared test fixtures and independent oracle implementations.

The oracles here deliberately avoid every fast path in the package: ridge
solves go through dense normal equations (or lstsq for the singular case),
costs and losses are accumulated with plain Python loops where feasible, and
interval membership is recomputed from first principles. The exhaustive
partition search, a plain column-form PELT (reference_pelt), the
full-square form of the cost kernel (eliminate_full), the dense ridge
penalty (penalty_matrix), a one-network SGD loop (reference_mlp_train) and
the finite-difference gradient check live here too.
Tests compare the library against these, never against itself.
"""

from __future__ import annotations

import numpy as np
import pytest

import jil.cost
import jil.segment
from jil.core import Dataset, Interval, Partition, grid_cell
from jil.errors import DimensionMismatch
from jil.mlp import MlpModel, TrainConfig, _batch_gradients, init_model
from jil.sim import ScenarioSpec, gen_scenario


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


def diverging_sgd_rows():
    """(y, raw doses, X) of 60 rows on which default network SGD overflows:
    outcomes near 1e7 with spread 1e6, raw doses on [0, 100]."""
    rng = np.random.default_rng(0)
    X = rng.uniform(-1.0, 1.0, (60, 2))
    a = 100.0 * rng.uniform(0.0, 1.0, 60)
    y = 1e7 + 1e6 * rng.standard_normal(60)
    return y, a, X


def indicator_data(n, rates=(0.01,), seed=7):
    """Scenario 1 data (p = 4, seed) with its last len(rates) covariates
    replaced by Bernoulli indicators at those rates, drawn from seed. A rare
    indicator is constant on many intervals, all 0 (a null column) or all 1
    (the intercept's twin), so their Gram matrices are singular at lam = 0."""
    d, _ = gen_scenario(ScenarioSpec(1, n, 4, seed))
    X = d.covariates.copy()
    draws = np.random.default_rng(seed).random((n, len(rates)))
    X[:, X.shape[1] - len(rates) :] = draws < np.asarray(rates)
    return Dataset(X, d.treatments, d.outcomes)


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


def stack_gradients(model: MlpModel, X, y):
    """The library's batch-mean gradients of (pred - y)^2 over rows X (n, p),
    for one network run as a stack of one: (dws, dbs) shaped like the
    model's weights and biases."""
    n = X.shape[0]
    dws = [np.empty((1,) + w.shape) for w in model.weights]
    dbs = [np.empty((1, 1) + b.shape) for b in model.biases]
    _batch_gradients([w[None] for w in model.weights], [b[None, None] for b in model.biases],
                     X[None], np.asarray(y, dtype=float)[None, :, None],
                     np.full((1, n, 1), float(n)), dws, dbs)
    return [dw[0] for dw in dws], [db[0, 0] for db in dbs]


def reference_mlp_train(d: Dataset, interval: Interval, cfg: TrainConfig) -> MlpModel:
    """One network trained alone by a plain SGD loop, the oracle for
    mlp.mlp_train: the init_model draw of default_rng(cfg.seed), then per
    epoch a permutation of the interval's rows from the same generator, cut
    into minibatches of at most batch_size rows, the last one short, each
    taking one step W <- W - lr * mean-gradient, by 2-D forward and backward
    passes written here."""
    cells = grid_cell(d.treatments, interval.m)
    rows = np.flatnonzero((cells >= interval.lo) & (cells < interval.hi))
    X, y = d.covariates[rows], d.outcomes[rows]
    rng = np.random.default_rng(cfg.seed)
    model = init_model(d.p, cfg.hidden, rng)
    weights, biases = list(model.weights), list(model.biases)
    last = len(weights) - 1
    for _ in range(cfg.epochs):
        order = rng.permutation(rows.size)
        for start in range(0, rows.size, cfg.batch_size):
            take = order[start : start + cfg.batch_size]
            acts, pres = [X[take]], []
            for k, (w, b) in enumerate(zip(weights, biases)):
                pres.append(acts[-1] @ w.T + b)
                acts.append(pres[-1] if k == last else np.maximum(pres[-1], 0.0))
            delta = 2.0 * (acts[-1] - y[take][:, None]) / take.size
            for k in range(last, -1, -1):
                dw, db = delta.T @ acts[k], delta.sum(axis=0)
                if k > 0:
                    delta = (delta @ weights[k]) * (pres[k - 1] > 0.0)
                weights[k] = weights[k] - cfg.learning_rate * dw
                biases[k] = biases[k] - cfg.learning_rate * db
    return MlpModel(model.layer_sizes, tuple(weights), tuple(biases))


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
    dws, dbs = stack_gradients(model, x[None, :], np.array([y]))

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


@pytest.fixture(params=[(0.01,), (0.05,), (0.02, 0.02, 0.02)], ids=["1pct", "5pct", "3x2pct"])
def indicators(request):
    """n = 400 scenario 1 data with rare indicator covariates (indicator_data)."""
    return indicator_data(400, request.param)


def eliminate_full(S: np.ndarray) -> np.ndarray:
    """The full-square form of cost._eliminate, the oracle for the packed
    kernel: symmetric elimination without exchanges over the D-1 leading
    pivots of a stack S (D, D, K), in place, updating the whole trailing
    square with the lower column of each pivot; returns the last pivot (K,)
    clamped at 0. Null pivots follow the kernel's rule."""
    D = S.shape[0]
    tol = np.maximum(jil.cost._CLAMP_REL * np.diagonal(S[:-1, :-1]).max(axis=1, initial=0.0),
                     jil.cost._TINY)
    for k in range(D - 1):
        ok = S[k, k] >= tol
        row = np.divide(S[k, k + 1 :], S[k, k], out=np.zeros_like(S[k, k + 1 :]), where=ok)
        S[k + 1 :, k + 1 :] -= S[k + 1 :, k, None] * row
    return np.maximum(S[-1, -1], 0.0)


def penalty_matrix(d: int, c: float) -> np.ndarray:
    """The dense penalty P = [[I_d, -c e1], [-c e1^T, c^2]] (d+1, d+1) of
    the cost module's docstring: with outcomes centered at c, an interval's
    n * cost is v^T (M + n*lam*|I| * P) v."""
    P = np.zeros((d + 1, d + 1))
    P[:d, :d] = np.eye(d)
    P[0, d] = P[d, 0] = -c
    P[d, d] = c * c
    return P


def pack(A: np.ndarray) -> np.ndarray:
    """The row-major upper triangles (D(D+1)/2, K) of a stack A (D, D, K),
    the layout cost._eliminate takes."""
    return A[np.triu_indices(A.shape[0])]


def reference_pelt(column, m: int, gamma: float, prune: bool = True):
    """Plain column-form PELT in Python lists, the oracle for segment.pelt.

    column(R, r) returns the costs (|R|,) of [j/m, r/m) for j in R. Returns
    (Partition, objective, calls) with calls the (R_r, r) it asked for, in
    column order. Ties keep the smallest j and the objective sums the kept
    costs from left to right, as the library does, so equal partitions give
    equal bits."""
    B, pred, kept = [-gamma], [0], [0.0]
    R, c, calls = [0], [], []
    for r in range(1, m + 1):
        if r > 1:
            R = [j for j, cj in zip(R, c) if not prune or B[j] + cj <= B[r - 1]] + [r - 1]
        calls.append((np.array(R, dtype=np.int64), r))
        c = [float(x) for x in column(calls[-1][0], r)]
        best = None
        for j, cj in zip(R, c):
            v = B[j] + gamma + cj
            if best is None or v < best[0]:
                best = (v, j, cj)
        B.append(best[0])
        pred.append(best[1])
        kept.append(best[2])
    edges = [m]
    while edges[-1] > 0:
        edges.append(pred[edges[-1]])
    edges.reverse()
    objective = 0.0
    for hi in edges[1:]:
        objective += kept[hi]
    return Partition.from_edges(edges, m), objective + gamma * (len(edges) - 1), calls


def reference_calls(tables, gammas, prune: bool = True) -> list:
    """The column calls (U_r, r), r = 1..m, of a grid DP over cost tables
    (H, m+1, m+1) indexed [h, lo, hi]: U_r is the union of reference_pelt's
    R_r over every (row, gamma)."""
    m = tables.shape[1] - 1
    union = [set() for _ in range(m + 1)]
    for table in tables:
        for gamma in gammas:
            for R, r in reference_pelt(lambda R, r: table[R, r], m, gamma, prune)[2]:
                union[r].update(R.tolist())
    return [(np.array(sorted(union[r]), dtype=np.int64), r) for r in range(1, m + 1)]


def table_costs(tables):
    """Pair function over cost tables (H, m+1, m+1) indexed [h, lo, hi], in
    the form CostCache.costs takes: a call (los, his) returns (H,) + the
    broadcast shape. Entries where lo >= hi are NaN, so a DP that reads one
    gets a NaN objective. Records each block call (U, r, b) the DP makes,
    (V[None, :], arange(r, r+b)[:, None]) with V = U followed by
    r, ..., r+b-2, in .calls."""

    def fn(los, his):
        b = his.shape[0]
        fn.calls.append((los[0, : los.shape[1] - b + 1].copy(), int(his[0, 0]), b))
        return np.where(los < his, tables[:, los, his], np.nan)

    fn.calls = []
    return fn


@pytest.fixture
def fixed_width(monkeypatch):
    """Make a block budget read as a block width: the DP's blocks are then
    min(budget, columns left) wide (at least 1), whatever |U|."""
    monkeypatch.setattr(jil.segment, "_block_width",
                        lambda u, left, budget: max(1, min(budget, left)))


def block_rule(calls, m: int, budget: int) -> list:
    """Pairs per lambda that each kernel call of a block DP over
    CostCache.costs stacks, given the DP's column candidate sets
    (U, r), in Python sets: a column whose r lies in the current block and
    whose U lies in its candidate set V runs from the block; any other opens
    one at r, of the largest width 1 <= b <= m+1-r with
    b(|U| + b - 1) <= budget (b = 1 when none fits), with
    V = U + {r, ..., r+b-2}, and stacks the whole rectangle of pairs
    (j, r') with r <= r' < r+b and j in V, b|V| of them, the intervals
    [j, r') with j < r' among them."""
    sizes, r0, b, V = [], 0, 0, set()
    for U, r in calls:
        U = set(U.tolist())
        if r0 <= r < r0 + b and U <= V:
            continue
        r0, b = r, 1
        while b < m + 1 - r and (b + 1) * (len(U) + b) <= budget:
            b += 1
        V = U | set(range(r, r + b - 1))
        sizes.append(b * len(V))
    return sizes


class Stacks(list):
    """Sizes of the stacks cost._eliminate gets, in call order, with
    .intervals: for each cost stack CostCache._costs builds, the
    (lambda, lo, hi) rows of its intervals (lo < hi) as a (K, 3) array, and
    .certified: the sizes of the certificate's cost._schur stacks."""


@pytest.fixture
def column_calls(monkeypatch):
    """Every block (U, r) segment.pelt opens while the test runs, in order:
    the candidate set U of the block's first column r."""
    calls = []
    real = jil.segment._block

    def recorded(costs, U, r, m, budget):
        calls.append((U.copy(), r))
        return real(costs, U, r, m, budget)

    monkeypatch.setattr(jil.segment, "_block", recorded)
    return calls


@pytest.fixture
def factorized(monkeypatch):
    """Sizes of every stack cost._eliminate gets while the test runs: the
    number of (lambda, lo, hi) pairs the ridge path eliminates, call by
    call, those with lo >= hi included. Only cost blocks reach it: theta
    solves its intervals by its own eigendecomposition and builds no cost
    stack. The list's .intervals records which (lambda, lo, hi) intervals
    each cost stack holds, and .certified, counted apart, the size of each
    stack the DP's dominance certificate hands cost._schur."""
    sizes = Stacks()
    sizes.intervals, sizes.certified = [], []
    real, real_costs, real_schur = jil.cost._eliminate, jil.cost.CostCache._costs, jil.cost._schur

    def recording(S):
        sizes.append(S[0].size)
        return real(S)

    def recording_schur(S):
        sizes.certified.append(S[0].size)
        return real_schur(S)

    def recording_costs(self, los, his, lams):
        lo, hi = (x.ravel() for x in np.broadcast_arrays(los, his))
        lo, hi = lo[lo < hi], hi[lo < hi]
        sizes.intervals.append(np.column_stack(
            [np.repeat(lams, lo.size), np.tile(lo, lams.size), np.tile(hi, lams.size)]))
        return real_costs(self, los, his, lams)

    monkeypatch.setattr(jil.cost, "_eliminate", recording)
    monkeypatch.setattr(jil.cost, "_schur", recording_schur)
    monkeypatch.setattr(jil.cost.CostCache, "_costs", recording_costs)
    return sizes
