"""Per-interval ridge regression and cost evaluation.

The per-interval estimator solves

    theta_I = (sum_i xbar_i xbar_i^T 1(A_i in I) + n*lam*|I|*Id)^{-1}
              (sum_i xbar_i Y_i 1(A_i in I)),         xbar = (1, x^T)^T,

and the interval cost is

    cost(I) = (1/n) sum_i 1(A_i in I) {Y_i - xbar_i^T theta_I}^2
              + lam * |I| * ||theta_I||^2.

Moments. The outcomes are shifted once by their mean c, and one prefix array
over grid cells holds the augmented moments M = sum z z^T of
z = (xbar, Y - c), so an interval's moments are a single subtraction:
M = [[G, b'], [b'^T, s']], with G the Gram matrix, b' = sum xbar (Y - c) and
s' = sum (Y - c)^2. Centering keeps s' and b' from cancelling when the
outcomes sit far from zero.

Penalty. With theta' = theta - c e1 the residuals are Y - c - xbar^T theta',
and the penalty stays on the uncentered theta = theta' + c e1. So for
v = (-theta', 1),

    n * cost(theta) = v^T (M + n*lam*|I| * P) v,
    P = [[Id, -c e1], [-c e1^T, c^2]].

Cost. Minimizing over theta' leaves the Schur complement of the leading
d x d block of A = M + n*lam*|I|*P, which is the square of the last pivot of
the Cholesky factor of A: the last pivot^2 equals n * cost(I). The leading
pivots double as the rank check, so one batched Cholesky per lam serves a
whole DP column, and theta' = (G + n*lam*|I|*Id)^{-1} (b' - n*lam*|I|*c e1)
comes from one batched solve.

Routing. The Cholesky serves an interval when it has more than d rows (at
lam = 0; at least one row at lam > 0; M[0, 0] is its exact row count), its
factorization succeeds and every leading pivot^2 is at least _CLAMP_REL
times the largest leading diagonal entry of A. Every other interval takes
the one fallback, CostCache._min_norm, which serves costs and coefficients
alike: one batched symmetric eigendecomposition of G solves the uncentered
system theta = (G + n*lam*|I|*Id)^+ (b' + c G e1), dropping eigenvalues
below _CLAMP_REL of the largest at lam = 0 (the minimum-norm solution,
which is not shift-equivariant, hence the uncentered system), and the cost
is formed from theta and the centered moments. An interval without rows
gets theta = 0 and costs exactly 0 at every lam. Routing is decided per
interval, so an interval gets the same bits in any batch.

CostCache computes costs over a fixed lam grid and stores none: each
columns() call computes its DP column at every lam of the grid, stacked into
one Cholesky call and one min-norm call. A lone fit reads the one cost row
of a one-lam cache; a CV fold runs the grid form of segment.pelt over all
rows. Coefficients are solved on demand, for any intervals in one batched
call. CostCache shares this interface, columns() and models(los, his, lam),
with fit.NetworkCosts, so one fit body and one CV loop serve both model
families. The scalar costfn(lam) and precompute=True, a table of every
interval's costs for costfn to read, serve only the benchmark's solver
check and tests (ROADMAP item 11).
"""

from __future__ import annotations

import operator

import numpy as np

from .core import Dataset, Linear, check_grid, grid_cell, make_xbar

__all__ = ["CostCache"]

# an eigenvalue below this fraction of the largest, or a Cholesky pivot^2
# below this fraction of the largest diagonal entry, is treated as a null
_CLAMP_REL = 1e-10


def _pivots(As: np.ndarray) -> np.ndarray:
    """Cholesky pivots (K, D) of a stack of matrices As (K, D, D), all zero
    for a matrix the factorization fails on.

    LAPACK fails a batch as a whole, so a failed batch is split in halves
    until each failure stands alone: a matrix's pivots never depend on its
    batch, and a few failures cost O(log K) more calls.
    """
    try:
        return np.diagonal(np.linalg.cholesky(As), axis1=1, axis2=2)
    except np.linalg.LinAlgError:
        if len(As) == 1:
            return np.zeros((1, As.shape[1]))
        half = len(As) // 2
        return np.concatenate([_pivots(As[:half]), _pivots(As[half:])])


def _cholesky(As: np.ndarray, fast: np.ndarray):
    """Route a stack of augmented matrices As (K, D, D) through one batched
    Cholesky factorization; returns (ok, last).

    ok marks the intervals the factor serves: those in the mask fast whose
    factorization succeeds with every leading pivot^2 at least _CLAMP_REL
    times the largest leading diagonal entry. last holds the squared last
    pivots, n times the costs, where ok and 0 elsewhere.
    """
    pivots = np.zeros((As.shape[1], As.shape[0]))  # (D, K): reductions run over K
    idx = np.flatnonzero(fast)
    pivots[:, idx] = _pivots(As[idx]).T
    sq = pivots * pivots
    lead = np.diagonal(As, axis1=1, axis2=2).T[:-1]
    ok = fast & (sq[:-1].min(axis=0) >= _CLAMP_REL * lead.max(axis=0))
    return ok, np.where(ok, sq[-1], 0.0)


def _check_pairs(los: np.ndarray, his: np.ndarray, m: int):
    """Reject index arrays that are not equal-length pairs 0 <= lo < hi <= m."""
    if los.shape != his.shape or not np.all((0 <= los) & (los < his) & (his <= m)):
        raise ValueError(f"invalid interval indices ({los}, {his}) on grid {m}")


def _check_call(R: np.ndarray, r, m: int):
    """Check a column call: 0 <= j < r <= m for j in R, an ascending array."""
    if R.size and not (0 <= R[0] and R[-1] < r <= m):
        raise ValueError(f"invalid interval indices ({R}, {r}) on grid {m}")


class CostCache:
    """Interval costs for one dataset on one grid, over a fixed lambda grid.

    Augmented moments come from prefix sums over grid cells, so each
    interval's moments are a single subtraction. Without precompute the
    cache holds only these prefix sums, and each columns() call computes
    the intervals it asks for at every lam of the grid in one batched
    Cholesky factorization. precompute=True fills a float64 table of shape
    (H, m+1, m+1), indexed [h, hi, lo], one column and lam at a time, so
    temporaries stay O(m d^2); the scalar costfn then only reads it. theta
    solves the intervals it is asked for on each call, and models wraps its
    coefficients as one Linear model per interval. There is no lock: a cache
    belongs to one thread (replication runs in processes).
    """

    def __init__(self, dataset: Dataset, m: int, lambdas=(0.0,), precompute: bool = False):
        if m < 1:
            raise ValueError(f"grid resolution must be >= 1, got {m}")
        self.dataset = dataset
        self.m = int(m)
        self.lambdas = check_grid("lambda", lambdas, allow_zero=True)
        self._lam_index = {float(l): h for h, l in enumerate(self.lambdas)}
        self._build_prefix()
        self._table = None
        if precompute:
            self._table = np.zeros((self.lambdas.size, self.m + 1, self.m + 1))
            for r in range(1, self.m + 1):
                for h, lam in enumerate(self.lambdas):
                    self._table[h, r, :r] = self._costs(np.arange(r), r, self._at([lam]))[0]

    # ---------------------------------------------------------- internals

    def _build_prefix(self):
        d = self.dataset
        m = self.m
        cells = grid_cell(d.treatments, m)
        c = float(np.mean(d.outcomes))
        z = np.hstack([make_xbar(d.covariates), (d.outcomes - c)[:, None]])
        dim = z.shape[1]
        # per-cell sums of z z^T, then prefix sums at cell boundaries: row j
        # holds the sum over cells < j
        cell_sums = np.empty((m, dim, dim))
        for i in range(dim):
            for j in range(i + 1):
                s = np.bincount(cells, weights=z[:, i] * z[:, j], minlength=m)
                cell_sums[:, i, j] = cell_sums[:, j, i] = s
        self._M = np.zeros((m + 1, dim, dim))
        np.cumsum(cell_sums, axis=0, out=self._M[1:])
        self._shift = c
        P = np.eye(dim)
        P[0, -1] = P[-1, 0] = -c
        P[-1, -1] = c * c
        self._P = P

    def _at(self, lams):
        """The per-lambda constants _route takes for lams (H,): n*lam, and
        the fewest rows an interval needs for the Cholesky route (at lam = 0
        an interval with at most d rows has a singular Gram), as (H, 1)
        columns."""
        lams = np.asarray(lams, dtype=float)[:, None]
        return self.dataset.n * lams, np.where(lams > 0.0, 1.0, float(self._M.shape[1]))

    def _route(self, los, his, at):
        """Moments M (K, D, D) of [lo/m, hi/m) and, at each lambda of
        at = self._at(lams), the ridge weights n*lam*|I|, augmented matrices
        and Cholesky route (ok, last) of every (lambda, interval) pair,
        stacked lambda-major: row h*K + k is interval k at lams[h]."""
        n_lam, min_rows = at
        M = self._M[his] - self._M[los]
        ridge = n_lam * ((his - los) / self.m)
        A = (ridge[:, :, None, None] * self._P + M).reshape(-1, *M.shape[1:])
        fast = M[:, 0, 0] >= min_rows
        return M, ridge.ravel(), A, *_cholesky(A, fast.ravel())

    def _min_norm(self, M: np.ndarray, ridge: np.ndarray):
        """(theta (K, d), n * cost (K,)) of the min-norm path for moments M
        and ridge weights n*lam*|I|, from one batched eigendecomposition;
        theta is all zeros and the cost 0 for an interval without rows. Each
        interval gets the same bits in any batch, K = 1 included."""
        d = M.shape[1] - 1
        G, b = M[:, :d, :d], M[:, :d, d]
        tau, U = np.linalg.eigh(G)
        tau = np.where(tau < _CLAMP_REL * np.maximum(tau[:, -1:], 0.0), 0.0, tau)
        phi = np.einsum("kij,ki->kj", U, b + self._shift * G[:, :, 0])
        denom = tau + ridge[:, None]
        dinv = np.where(denom > 0.0, 1.0 / np.where(denom > 0.0, denom, 1.0), 0.0)
        theta = np.einsum("kij,kj->ki", U, dinv * phi)
        t = theta.copy()
        t[:, 0] -= self._shift  # theta', against the centered moments
        sse = (
            M[:, d, d]
            - 2.0 * np.einsum("ki,ki->k", t, b)
            + np.einsum("ki,ki->k", t, np.einsum("kij,kj->ki", G, t))
        )
        return theta, np.maximum(sse, 0.0) + ridge * np.einsum("ki,ki->k", theta, theta)

    def _costs(self, los: np.ndarray, his, at) -> np.ndarray:
        """Costs (H, K) of the intervals [lo/m, hi/m) at each lambda of
        at = self._at(lams), from one Cholesky call and at most one min-norm
        call."""
        M, ridge, _, ok, ncost = self._route(los, his, at)
        rest = np.flatnonzero(~ok)
        if rest.size:
            ncost[rest] = self._min_norm(M[rest % len(M)], ridge[rest])[1]
        return (ncost / self.dataset.n).reshape(len(at[0]), -1)

    # ------------------------------------------------------------- access

    def theta(self, los: np.ndarray, his: np.ndarray, lam: float) -> np.ndarray:
        """Ridge coefficients (K, d) of the intervals [lo/m, hi/m) for the pairs
        of the equal-length int64 arrays los, his, e.g. every interval of a
        partition, from one fresh batched solve routed as the costs are;
        each interval gets the same bits as in a batch of its own."""
        los, his = np.asarray(los), np.asarray(his)
        _check_pairs(los, his, self.m)
        M, ridge, A, ok, _ = self._route(los, his, self._at([lam]))
        d = M.shape[1] - 1
        theta = np.empty((los.size, d))
        theta[ok] = np.linalg.solve(A[ok, :d, :d], A[ok, :d, d:])[:, :, 0]
        theta[ok, 0] += self._shift
        rest = ~ok
        if rest.any():
            theta[rest] = self._min_norm(M[rest], ridge[rest])[0]
        return theta

    def models(self, los: np.ndarray, his: np.ndarray, lam: float) -> tuple:
        """One Linear model per interval, from a single theta call."""
        return tuple(Linear(t) for t in self.theta(los, his, lam))

    def columns(self):
        """Column cost function (U, r) -> costs (H, |U|) of [j/m, r/m) for j
        in U at every lambda of the grid, for the column form of segment.pelt.

        U must be an ascending int64 array with 0 <= j < r <= m. Each call
        stacks the H*|U| (lambda, interval) pairs into one Cholesky call and
        one min-norm call for the rest, and computes afresh; routing is per
        interval, so a cost has the same bits in any call.
        """
        at = self._at(self.lambdas)

        def fn(U, r):
            _check_call(U, r, self.m)
            return self._costs(U, r, at)

        return fn

    def costfn(self, lam: float):
        """Scalar cost function (lo, hi) -> cost at lam, a lambda of the grid
        (else ValueError), for the scalar form of segment.pelt. The library
        segments through columns(); the benchmark's solver check, on a
        precompute=True table, is its only caller outside the tests (item 11).
        """
        h = self._lam_index.get(float(lam))
        if h is None:
            raise ValueError(f"lam {lam} is not on this cache's lambda grid {self.lambdas}")
        at = self._at([lam])

        def fn(lo, hi):
            los = np.array([operator.index(lo)])
            _check_call(los, hi, self.m)
            if self._table is not None:
                return float(self._table[h, hi, lo])
            return float(self._costs(los, hi, at)[0, 0])

        return fn
