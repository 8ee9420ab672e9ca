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
outcomes sit far from zero. Finite data can still overflow these sums, or
c^2 in P below, which only a stack at a positive lam reads (at lam = 0 the
stack is M alone); either would make costs NaN, so such data raise
InvalidData naming the outcomes or covariates.

Penalty. With theta' = theta - c e1 the residuals are Y - c - xbar^T theta',
and the penalty stays on the uncentered theta = theta' + c e1. So for
v = (-theta', 1),

    n * cost(theta) = v^T (M + n*lam*|I| * P) v,
    P = [[Id, -c e1], [-c e1^T, c^2]].

Cost. Minimizing over theta' leaves the Schur complement of the leading
d x d block of A = M + n*lam*|I|*P, the last pivot of a symmetric elimination
of A: that pivot equals n * cost(I). cost._eliminate runs this elimination in
numpy, elementwise over a stack of matrices, so one call serves a whole DP
column at every lam and an interval gets the same bits in any batch. A
leading pivot below _CLAMP_REL times the largest leading diagonal entry of A
is a null direction, neither divided by nor eliminated, so a rank-deficient
interval (at lam = 0 one with at most d rows, a collinear or constant
covariate) costs the residual on the span of its live directions with no
second path. An interval without rows costs exactly 0 at every lam.

Routing. Coefficients come from one batched solve of the leading block of
A, (G + n*lam*|I|*Id) theta' = b' - n*lam*|I|*c e1, for an interval with more
than d rows (at lam = 0; at least one row at lam > 0; M[0, 0] is its exact
row count) whose leading pivots are all live and whose last pivot is
positive. Every other interval takes CostCache._min_norm: one batched
symmetric eigendecomposition of G solves the uncentered system
theta = (G + n*lam*|I|*Id)^+ (b' + c G e1), zeroing eigenvalues below
_CLAMP_REL of the largest (at lam = 0 the minimum-norm solution, which is
not shift-equivariant, hence the uncentered system); an interval without
rows gets theta = 0. Routing is decided per interval, so an interval gets
the same bits in any batch.

CostCache computes costs over a fixed lam grid: each columns() call computes
its DP column at every lam of the grid in one _eliminate call. A lone fit
reads the one cost row of a one-lam cache; a CV fold runs the grid form of
segment.pelt over all rows. Coefficients are solved on demand, for any
intervals in one batched call. CostCache shares this interface, columns()
and models(los, his, lam), with fit.NetworkCosts, so one fit body and one CV
loop serve both model families. The scalar costfn(lam) only reads the table
of every interval's costs that precompute=True fills; both serve only the
benchmark's solver check and tests (ROADMAP item 11).
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .core import Dataset, Linear, check_grid, grid_cell, make_xbar
from .errors import InvalidData

__all__ = ["CostCache"]

# a pivot below this fraction of the largest leading diagonal entry of its
# matrix, or an eigenvalue below this fraction of the largest, is a null
_CLAMP_REL = 1e-10
_TINY = np.nextafter(0.0, 1.0)  # the smallest positive double
_OUTCOMES_OVERFLOW = "outcomes are too large: their moments overflow"


def _eliminate(S: np.ndarray):
    """Symmetric elimination without exchanges over the D-1 leading pivots
    of a stack S (D, D, K), in place; returns (live, last), both (K,).

    A pivot below max(_CLAMP_REL * largest leading diagonal entry, _TINY) is
    a null direction: it is neither divided by nor eliminated. live marks
    the matrices whose leading pivots are all live; last is the last pivot
    clamped at 0, the residual of the last variable on the span of the live
    directions. Every step is elementwise along K, so a matrix gets the same
    bits in any batch.
    """
    D = S.shape[0]
    tol = np.maximum(_CLAMP_REL * np.diagonal(S[:-1, :-1]).max(axis=1, initial=0.0), _TINY)
    live = np.ones(S.shape[2], dtype=bool)
    for k in range(D - 1):
        ok = S[k, k] >= tol
        live &= ok
        row = np.divide(S[k, k + 1 :], S[k, k], out=np.zeros_like(S[k, k + 1 :]), where=ok)
        S[k + 1 :, k + 1 :] -= S[k + 1 :, k, None] * row
    return live, np.maximum(S[-1, -1], 0.0)


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

    Augmented moments come from prefix sums over grid cells, stored
    cell-major as _M (D, D, m+1); an interval stack is two take gathers
    and one subtraction, contiguous along the intervals. Without precompute
    the cache holds only these prefix sums, and each columns() call computes
    the intervals it asks for at every lam of the grid in one _eliminate
    call. precompute=True fills a float64 table of shape (H, m+1, m+1),
    indexed [h, hi, lo], one column at a time at every lam, so temporaries
    stay O(H m d^2); costfn only reads it. theta solves the
    intervals it is asked for on each call, and models wraps its
    coefficients as one Linear model per interval. There is no lock: a cache
    belongs to one thread (replication runs in processes).
    """

    def __init__(self, dataset: Dataset, m: int, lambdas=(0.0,), precompute: bool = False):
        if m < 1:
            raise ValueError(f"grid resolution must be >= 1, got {m}")
        self.dataset = dataset
        self.m = int(m)
        self.lambdas = check_grid("lambda", lambdas)
        self._build_prefix()
        self._table = None
        if precompute:
            self._table = np.zeros((self.lambdas.size, self.m + 1, self.m + 1))
            for r in range(1, self.m + 1):
                self._table[:, r, :r] = self._costs(np.arange(r), r, self.lambdas)

    # ---------------------------------------------------------- internals

    def _build_prefix(self):
        d = self.dataset
        m = self.m
        cells = grid_cell(d.treatments, m)
        with np.errstate(over="ignore", invalid="ignore"):
            c = float(np.mean(d.outcomes))
            z = np.hstack([make_xbar(d.covariates), (d.outcomes - c)[:, None]])
            dim = z.shape[1]
            # per-cell sums of z z^T, then prefix sums at cell boundaries:
            # _M[:, :, j] holds the sum over cells < j
            cell_sums = np.empty((dim, dim, m))
            for i in range(dim):
                for j in range(i + 1):
                    s = np.bincount(cells, weights=z[:, i] * z[:, j], minlength=m)
                    cell_sums[i, j] = cell_sums[j, i] = s
            self._M = np.zeros((dim, dim, m + 1))
            np.cumsum(cell_sums, axis=2, out=self._M[:, :, 1:])
        # an overflowed sum would turn every cost NaN
        total = np.diagonal(self._M[:, :, -1])
        if not np.isfinite(total[1:-1]).all():
            raise InvalidData("covariates", None, "covariates are too large: their moments overflow")
        if not np.isfinite(total[-1]):
            raise InvalidData("outcomes", None, _OUTCOMES_OVERFLOW)
        self._shift = c
        P = np.eye(dim)
        P[0, -1] = P[-1, 0] = -c
        P[-1, -1] = c * c
        self._P = P

    def _stack(self, los, his, lams):
        """Moments M (D, D, K) of the intervals [lo/m, hi/m), his an array or
        one hi for all, and at each lambda of lams (H,) the ridge weights
        n*lam*|I| (H, K) and augmented matrices A (D, D, H*K), stacked
        lambda-major: A[:, :, h*K + k] is interval k at lams[h]."""
        M = self._M.take(np.atleast_1d(his), axis=2) - self._M.take(los, axis=2)
        ridge = self.dataset.n * lams[:, None] * ((his - los) / self.m)
        if lams[-1] == 0.0:  # lams ascend, so no penalty term and c^2 is never read
            A = np.tile(M, lams.size)
        elif not math.isfinite(self._P[-1, -1]):  # c^2 overflows: NaN costs
            raise InvalidData("outcomes", None, _OUTCOMES_OVERFLOW)
        else:
            A = (self._P[:, :, None, None] * ridge + M[:, :, None, :]).reshape(*M.shape[:2], -1)
        return M, ridge, A

    def _min_norm(self, M: np.ndarray, ridge: np.ndarray) -> np.ndarray:
        """Coefficients theta (K, d) of the min-norm path for cell-major
        moments M (D, D, K) and ridge weights n*lam*|I| (K,), from one batched
        eigendecomposition; all zeros for an interval without rows. Each
        interval gets the same bits in any batch, K = 1 included."""
        d = M.shape[0] - 1
        G, b = np.moveaxis(M[:d, :d], -1, 0), M[:d, d].T
        tau, U = np.linalg.eigh(G)
        tau = np.where(tau < _CLAMP_REL * np.maximum(tau[:, -1:], 0.0), 0.0, tau)
        phi = np.einsum("kij,ki->kj", U, b + self._shift * G[:, :, 0])
        denom = tau + ridge[:, None]
        dinv = np.where(denom > 0.0, 1.0 / np.where(denom > 0.0, denom, 1.0), 0.0)
        return np.einsum("kij,kj->ki", U, dinv * phi)

    def _costs(self, los: np.ndarray, his, lams: np.ndarray) -> np.ndarray:
        """Costs (H, K) of the intervals [lo/m, hi/m) at each lambda of lams
        (H,), from one _eliminate call; 0 for an interval without rows."""
        M, _, A = self._stack(los, his, lams)
        ncost = _eliminate(A)[1].reshape(lams.size, -1)
        return np.where(M[0, 0] > 0.0, ncost, 0.0) / self.dataset.n

    # ------------------------------------------------------------- access

    def theta(self, los: np.ndarray, his: np.ndarray, lam: float) -> np.ndarray:
        """Ridge coefficients (K, d) of the intervals [lo/m, hi/m) for the pairs
        of the equal-length int64 arrays los, his, e.g. every interval of a
        partition, from one fresh batched solve routed by the pivots of one
        _eliminate call; each interval gets the same bits as in a batch of
        its own."""
        los, his = np.asarray(los), np.asarray(his)
        _check_pairs(los, his, self.m)
        M, ridge, A = self._stack(los, his, np.array([lam], dtype=float))
        live, last = _eliminate(A.copy())
        d = M.shape[0] - 1
        ok = (M[0, 0] >= (1.0 if lam > 0.0 else d + 1.0)) & live & (last > 0.0)
        theta = np.empty((los.size, d))
        A = np.moveaxis(A, -1, 0)[ok]
        theta[ok] = np.linalg.solve(A[:, :d, :d], A[:, :d, d:])[:, :, 0]
        theta[ok, 0] += self._shift
        rest = ~ok
        if rest.any():
            theta[rest] = self._min_norm(M[:, :, rest], ridge[0, rest])
        return theta

    def models(self, los: np.ndarray, his: np.ndarray, lam: float) -> tuple:
        """One Linear model per interval, from a single theta call."""
        return tuple(Linear(t) for t in self.theta(los, his, lam))

    def columns(self):
        """Column cost function (U, r) -> costs (H, |U|) of [j/m, r/m) for j
        in U at every lambda of the grid, for the column form of segment.pelt.

        U must be an ascending int64 array with 0 <= j < r <= m. Each call
        stacks the H*|U| (lambda, interval) pairs into one _eliminate call
        and computes afresh; the kernel is elementwise along the stack, so a
        cost has the same bits in any call.
        """

        def fn(U, r):
            _check_call(U, r, self.m)
            return self._costs(U, r, self.lambdas)

        return fn

    def costfn(self, lam: float):
        """Scalar cost function (lo, hi) -> cost at lam, for the scalar form
        of segment.pelt: a read of the precompute=True table, with the bits
        columns() computes. Without the table, or for a lam off the grid,
        ValueError. Only the benchmark's solver check and tests call it.
        """
        if self._table is None:
            raise ValueError("costfn reads the cost table; build the cache with precompute=True")
        if float(lam) not in self.lambdas.tolist():
            raise ValueError(f"lam {lam} is not on this cache's lambda grid {self.lambdas}")
        h = self.lambdas.tolist().index(float(lam))

        def fn(lo, hi):
            _check_call(np.array([operator.index(lo)]), hi, self.m)
            return float(self._table[h, hi, lo])

        return fn
