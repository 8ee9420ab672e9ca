"""Per-interval ridge regression and cost evaluation.

The per-interval estimator solves

    theta_I = (sum_i xbar_i xbar_i^T 1(A_i in I) + n*lam*|I|*Id)^{-1}
              (sum_i xbar_i Y_i 1(A_i in I)),         xbar = (1, x^T)^T,

and the interval cost is

    cost(I) = (1/n) sum_i 1(A_i in I) {Y_i - xbar_i^T theta_I}^2
              + lam * |I| * ||theta_I||^2.

Both are computed through one symmetric eigendecomposition of the interval
Gram matrix, G = U diag(tau) U^T with phi = U^T b. Substituting the spectral
form gives, writing w_j = 1/(tau_j + n*lam*|I|),

    residual SSE = syy - 2 sum_j w_j phi_j^2 + sum_j tau_j w_j^2 phi_j^2
    ||theta||^2  = sum_j w_j^2 phi_j^2 ,

so a whole grid of lam values reuses a single factorization. When lam = 0,
eigenvalues clamped to zero are dropped (w_j = 0), which yields the
minimum-norm solution on singular designs.

CostCache stores costs only, over a fixed lam grid, in one table filled a
column at a time: the costs of every requested interval ending at one grid
point come from one batched eigendecomposition of prefix-sum moments, and
the eigenvectors are not kept. Coefficients are refactorized on demand,
for all intervals of a partition in one batched call, which the fits need
only for the partitions they score or return.

CostCache shares its interface with fit.NetworkCosts, so one fit body and
one CV loop serve both model families: costfn(lam) is the segmenter's cost
function and models(los, his, lam) returns one model per interval. costfn
accepts only a lam on the cache's lambda grid, as NetworkCosts accepts only
lam = 0; any other lam raises ValueError.
"""

from __future__ import annotations

import numpy as np

from .core import Dataset, Linear, check_grid, grid_cell, make_xbar

__all__ = ["CostCache"]

# eigenvalues below this fraction of the largest are treated as exact nulls
_CLAMP_REL = 1e-10


def _factorize(Gs: np.ndarray, bs: np.ndarray):
    """Eigendecompose a stack of Gram matrices; returns (U, tau, phi) stacks.

    One code path serves cost-table columns and partitions' coefficients,
    K = 1 included, so each interval's results are bit-identical in any batch.
    """
    tau, U = np.linalg.eigh(Gs)
    thr = _CLAMP_REL * np.maximum(tau[:, -1:], 0.0)
    tau = np.where(tau < thr, 0.0, tau)
    phi = np.einsum("kij,ki->kj", U, bs)
    return U, tau, phi


def _check_pairs(los: np.ndarray, his: np.ndarray, m: int):
    """Reject index arrays that are not equal-length pairs 0 <= lo < hi <= m."""
    if los.shape != his.shape or not np.all((0 <= los) & (los < his) & (his <= m)):
        raise ValueError(f"invalid interval indices ({los}, {his}) on grid {m}")


def _check_call(lo, hi, m: int):
    """Check the arguments of a costfn call: lo is an int or an ascending
    int64 array, whose ends bound every entry."""
    if isinstance(lo, np.ndarray):
        if not lo.size:
            return
        first, last = int(lo[0]), int(lo[-1])
    else:
        first = last = lo
    if not (0 <= first and last < hi <= m):
        raise ValueError(f"invalid interval indices ({lo}, {hi}) on grid {m}")


def _spectral_costs(tau, phi, syy, ilen, n, lambdas) -> np.ndarray:
    """Costs (K, H) for stacked factors over a lambda grid.

    tau, phi: (K, d); syy, ilen: (K,); lambdas: (H,).
    """
    lambdas = np.asarray(lambdas, dtype=float)
    ph2 = phi * phi
    denom = tau[:, None, :] + n * lambdas[None, :, None] * ilen[:, None, None]
    dinv = np.where(denom > 0.0, 1.0 / np.where(denom > 0.0, denom, 1.0), 0.0)
    resid = (
        syy[:, None]
        - 2.0 * np.einsum("khd,kd->kh", dinv, ph2)
        + np.einsum("khd,kd->kh", dinv * dinv, ph2 * tau)
    )
    resid = np.maximum(resid, 0.0)
    norm2 = np.einsum("khd,kd->kh", dinv * dinv, ph2)
    return resid / n + lambdas[None, :] * ilen[:, None] * norm2


def _spectral_thetas(U, tau, phi, ilen, n, lam) -> np.ndarray:
    """Coefficients (K, d) for stacked factors at a single lambda."""
    denom = tau + n * lam * ilen[:, None]
    dinv = np.where(denom > 0.0, 1.0 / np.where(denom > 0.0, denom, 1.0), 0.0)
    return np.einsum("kij,kj->ki", U, dinv * phi)


class CostCache:
    """Interval costs for one dataset on one grid, over a fixed lambda grid.

    Gram moments come from prefix sums over grid cells, so each interval's
    moments are a single subtraction. The cache holds costs only: one float64
    table of shape (H, m+1, m+1) indexed [h, hi, lo], NaN where a cost has not
    been computed yet. Column hi is filled for a whole set of lo at once, by
    one batched eigendecomposition that serves every lambda of the grid; the
    eigenvectors are dropped once the costs are stored. precompute=True fills
    every column up front, one column at a time, so temporaries stay
    O(m d^2). theta refactorizes the intervals it is asked for on each call,
    and models wraps its coefficients as one Linear model per interval.
    There is no lock: a cache belongs to one thread (replication runs in
    processes).
    """

    def __init__(self, dataset: Dataset, m: int, lambdas=(0.0,), precompute: bool = False):
        if m < 1:
            raise ValueError(f"grid resolution must be >= 1, got {m}")
        self.dataset = dataset
        self.m = int(m)
        self.lambdas = check_grid("lambda", lambdas, allow_zero=True)
        self._lam_index = {float(l): h for h, l in enumerate(self.lambdas)}
        self._build_prefix()
        self._table = np.full((self.lambdas.size, self.m + 1, self.m + 1), np.nan)
        if precompute:
            for r in range(1, self.m + 1):
                self._fill(np.arange(r), r)

    # ---------------------------------------------------------- internals

    def _build_prefix(self):
        d = self.dataset
        m = self.m
        cells = grid_cell(d.treatments, m)
        order = np.argsort(cells, kind="stable")
        xb = make_xbar(d.covariates)[order]
        y = d.outcomes[order]
        outer = xb[:, :, None] * xb[:, None, :]
        dim = xb.shape[1]
        # prefix sums at cell boundaries: row j holds the sum over cells < j
        csum_xx = np.concatenate([np.zeros((1, dim, dim)), np.cumsum(outer, axis=0)])
        csum_xy = np.concatenate([np.zeros((1, dim)), np.cumsum(xb * y[:, None], axis=0)])
        csum_yy = np.concatenate([[0.0], np.cumsum(y * y)])
        bnd = np.searchsorted(cells[order], np.arange(m + 1))
        self._Cxx = csum_xx[bnd]
        self._Cxy = csum_xy[bnd]
        self._Cyy = csum_yy[bnd]

    def _fill(self, los: np.ndarray, hi: int):
        """Compute and store the costs of column hi still missing for lo in los,
        from one batched factorization that serves the whole lambda grid."""
        col = self._table[:, hi]
        miss = los[np.isnan(col[0, los])]
        if miss.size:
            G = self._Cxx[hi] - self._Cxx[miss]
            b = self._Cxy[hi] - self._Cxy[miss]
            syy = self._Cyy[hi] - self._Cyy[miss]
            _, tau, phi = _factorize(G, b)
            ilen = (hi - miss) / self.m
            col[:, miss] = _spectral_costs(tau, phi, syy, ilen, self.dataset.n, self.lambdas).T

    # ------------------------------------------------------------- access

    def theta(self, los: np.ndarray, his: np.ndarray, lam: float) -> np.ndarray:
        """Ridge coefficients (K, d) of the intervals [lo/m, hi/m) for the pairs
        of the equal-length int64 arrays los, his, e.g. every interval of a
        partition, from one fresh batched factorization; each interval gets
        the same bits as in a batch of its own."""
        los, his = np.asarray(los), np.asarray(his)
        _check_pairs(los, his, self.m)
        U, tau, phi = _factorize(self._Cxx[his] - self._Cxx[los], self._Cxy[his] - self._Cxy[los])
        return _spectral_thetas(U, tau, phi, (his - los) / self.m, self.dataset.n, float(lam))

    def models(self, los: np.ndarray, his: np.ndarray, lam: float) -> tuple:
        """One Linear model per interval, from a single theta call."""
        return tuple(Linear(t) for t in self.theta(los, his, lam))

    def costfn(self, lam: float):
        """Cost function (lo, hi) -> cost at a fixed lambda, for the segmenter.

        lo is an int, giving a float, or an ascending int64 array, giving one
        cost per entry (the batched column form of segment.pelt); indices
        must satisfy 0 <= lo < hi <= m. lam must be on the cache's lambda
        grid, where every cost is computed once and stored in the table.
        """
        h = self._lam_index.get(float(lam))
        if h is None:
            raise ValueError(f"lam {lam} is not on this cache's lambda grid {self.lambdas}")

        def fn(lo, hi):
            _check_call(lo, hi, self.m)
            if isinstance(lo, np.ndarray):
                self._fill(lo, hi)
                return self._table[h, hi, lo]
            c = self._table[h, hi, lo]
            if c != c:  # NaN marks a cost not computed yet
                self._fill(np.array([lo]), hi)
                c = self._table[h, hi, lo]
            return float(c)

        return fn
