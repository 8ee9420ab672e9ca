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
s' = sum (Y - c)^2. M is symmetric, so it is stored packed: the row-major
upper triangle, D(D+1)/2 entries for D = d + 1 (21 rather than 36 at
p = 4), each a row of prefix sums contiguous along the cells. Centering
keeps s' and b' from cancelling when the outcomes sit far from zero. Finite
data can still overflow these sums, or c^2 in P below, which only a
positive lam reads; either would make costs NaN, so such data raise
InvalidData naming the outcomes or covariates.

Penalty. With theta' = theta - c e1 the residuals are Y - c - xbar^T theta',
and the penalty stays on the uncentered theta = theta' + c e1. So for
v = (-theta', 1),

    n * cost(theta) = v^T (M + n*lam*|I| * P) v,
    P = [[Id, -c e1], [-c e1^T, c^2]].

Packed, P is nonzero in only D+1 rows (7 of 21 at p = 4): the d unit
diagonals, (0, d) and (d, d). So a cost stack is M (a copy per lam of a
grid), and a positive lam adds n*lam*|I| in place to those rows alone.

Cost. Minimizing over theta' leaves the Schur complement of the leading
d x d block of A = M + n*lam*|I|*P, the last pivot of a symmetric elimination
of A: that pivot equals n * cost(I). cost._eliminate runs this elimination in
numpy on packed A, elementwise over a stack of matrices, so one call serves a
block of DP columns at every lam and an interval gets the same bits in any
batch. Pivot k updates the trailing upper triangle only, row by row, with
the pivot's row standing in for its column (35 entry updates per interval at
D = 6, where the full square takes 55). A leading pivot below _CLAMP_REL
times the largest leading diagonal entry of A is a null direction, neither
divided by nor eliminated, so a rank-deficient interval (at lam = 0 one with
at most d rows, a collinear or constant covariate) costs the residual on the
span of its live directions with no second path. An interval without rows
costs exactly 0 at every lam.

Coefficients. Every interval's theta comes from one rule, the min-norm
solution theta = (G + r*Id)^+ (b' + c G e1) of the uncentered system, with
r = n*lam*|I| (at lam = 0 and rank-deficient G the minimum-norm solution,
which is not shift-equivariant, hence the uncentered system). One batched
symmetric eigendecomposition G = U diag(tau) U^T, with tau below _CLAMP_REL
of the largest zeroed, gives it as

    theta = c e1 + U [dinv * U^T b' - c * w * U^T e1],

dinv = 1/(tau + r) where tau + r > 0 and 0 elsewhere, and w = 1 - tau*dinv,
computed as r*dinv where tau > 0 and as 1 elsewhere. The shift c enters
outside the solve, and at lam = 0 w is exactly 0 on every live direction,
so an outcome offset costs the slopes only rounding of its own size. An
interval without rows gets theta = 0 exactly (the eigenvectors of a zero
matrix are Id), and every step is elementwise or batched along the
intervals, so an interval gets the same bits in any batch.

Certificate. A is additive over cells, A_[j,r) = A_[j,s) + A_[s,r) (the
ridge n*lam*|I| is additive in length), so for the DP of segment.pelt a
candidate j's value at any column r >= s is min over theta' of
q_j + v^T A_[s,r) v / n, with q_j = B(j) + gamma + v^T A_[j,s) v / n a
quadratic in theta' that every candidate shares the second term with.
segment._dp compares (1+mu) q_j with a competitor's q_i; the quadratic part
of the difference is v^T Q v / n with Q = (1+mu) A_[j,s) - A_[i,s), and its
minimum over theta' is the last pivot of an elimination of Q when Q's
leading d x d block is positive definite, that is when every leading pivot
is positive (Sylvester's criterion), and -inf otherwise (unbounded below,
or flat, which is not certified either). cost._schur runs that elimination
with the kernel's loop, _sweep, but with no clamp: the clamp reads a small
or negative pivot as a null direction, right for a cost's positive
semidefinite A but not for the indefinite Q, where skipping a negative
pivot would overstate the minimum. Q is formed from the packed A of the
cost path, _assemble, so lam > 0 needs nothing more. The bound is the
method CostCache.certificate itself, which a fit hands segment.pelt as
certificate=table.certificate; each call builds one (T, mu, pair, |U|)
stack and makes one _schur call.

CostCache serves the pair contract of segment.py over a fixed lam grid:
costs(los, his) computes its pairs at every lam in one _eliminate call, so
the kernel's fixed cost is paid once per block of DP columns; pairs
lo >= hi stack zero or negated moments and cost exactly 0. A lone fit reads
the one row of a one-lam cache; a CV fold runs the grid form over all rows.
Coefficients are solved on demand, for any intervals in one batched call,
at a finite lam >= 0. fit.NetworkCosts shares the interface (costs, budget,
certificate, models(los, his, lam)), with certificate = None as a class
attribute, as budget is one, so one fit body and one CV loop serve both
model families. The scalar costfn(lam) only reads the table that
precompute=True fills; both serve only the benchmark's solver check and
tests (ROADMAP item 11).
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .core import Dataset, Linear, _real, _whole, check_grid, grid_cell, make_xbar
from .errors import InvalidData

__all__ = ["CostCache"]

# a pivot below this fraction of the largest leading diagonal entry of its
# matrix (costs), or a Gram eigenvalue below this fraction of the largest
# (coefficients), is a null direction
_CLAMP_REL = 1e-10
_TINY = np.nextafter(0.0, 1.0)  # the smallest positive double
_OUTCOMES_OVERFLOW = "outcomes are too large: their moments overflow"
# pairs one costs() call of the DP may stack per lambda: a kernel call costs
# about 65 us plus 90 ns per pair (2-vCPU Xeon, numpy 2.4), so its fixed cost
# is then about a third of a call, and a lone fit at m = 800 peaks near 0.63 MiB
_BLOCK_PAIRS = 1536


def _row_starts(S: np.ndarray) -> list:
    """Where each row of the packed upper triangles S (D(D+1)/2,) + K starts:
    row i is S[start[i]:start[i+1]], and S[start[i]] its diagonal entry."""
    D = (math.isqrt(8 * S.shape[0] + 1) - 1) // 2
    return [i * D - i * (i - 1) // 2 for i in range(D + 1)]


def _sweep(S: np.ndarray, start: list, tol) -> None:
    """Symmetric elimination without exchanges over the D-1 leading pivots
    of a packed stack S (D(D+1)/2,) + K, K any shape, each S[:, k] the
    row-major upper triangle of a symmetric D x D matrix, in place; start
    is _row_starts(S), and S[start[k]], k < D-1, end as the pivots.

    Pivot k updates only the trailing upper triangle, row by row: entry
    (i, j), k < i <= j, loses S[k, i] * S[k, j] / S[k, k]. A pivot below tol
    is a null direction: the row divides by +inf, so it is 0 and eliminates
    nothing. Every step is elementwise along K, so a matrix gets the same
    bits in any batch.
    """
    D = len(start) - 1
    rows = np.empty((D - 1,) + S.shape[1:])  # every pivot's row, one buffer
    for k in range(D - 1):
        a, b = start[k], start[k + 1]
        row = np.divide(S[a + 1 : b], np.where(S[a] >= tol, S[a], np.inf), out=rows[: b - a - 1])
        for i in range(k + 1, D):
            S[start[i] : start[i + 1]] -= S[a + i - k] * row[i - k - 1 :]


def _eliminate(S: np.ndarray) -> np.ndarray:
    """The cost kernel: _sweep a packed stack S in place, a pivot below
    max(_CLAMP_REL * largest leading diagonal entry, _TINY) a null direction;
    returns the last pivot K clamped at 0, the residual of the last variable
    on the span of the live directions."""
    start = _row_starts(S)
    _sweep(S, start, np.maximum(_CLAMP_REL * S[start[:-2]].max(axis=0, initial=0.0), _TINY))
    return np.maximum(S[-1], 0.0)


def _schur(S: np.ndarray) -> np.ndarray:
    """The certificate's kernel: _sweep a packed stack S in place without
    clamps; returns the last pivot, min over theta' of v^T S v with
    v = (-theta', 1), and -inf wherever a leading pivot is not positive
    (the quadratic is then unbounded below or flat, and no bound holds).
    Where S overflows the result may be NaN, which certifies nothing."""
    start = _row_starts(S)
    with np.errstate(over="ignore", invalid="ignore"):
        _sweep(S, start, _TINY)
    return np.where((S[start[:-2]] > 0.0).all(axis=0), S[-1], -np.inf)


def _check_pairs(los: np.ndarray, his: np.ndarray, m: int):
    """Reject index arrays that are not equal-length pairs 0 <= lo < hi <= m."""
    if los.shape != his.shape or not np.all((0 <= los) & (los < his) & (his <= m)):
        raise ValueError(f"invalid interval indices ({los}, {his}) on grid {m}")


def _check_indices(los: np.ndarray, his: np.ndarray, m: int):
    """Reject grid indices outside [0, m]."""
    if not (np.all((0 <= los) & (los <= m)) and np.all((0 <= his) & (his <= m))):
        raise ValueError(f"invalid interval indices ({los}, {his}) on grid {m}")


class CostCache:
    """Interval costs for one dataset on one grid, over a fixed lambda grid.

    Augmented moments come from prefix sums over grid cells, stored packed
    as _M (D(D+1)/2, m+1), each packed entry a row contiguous along the
    cells; an interval stack is two take gathers and one subtraction,
    contiguous along the intervals, and _full maps an entry (i, j) of the
    unpacked matrix to its packed row. Without precompute the cache holds
    only these prefix sums. precompute=True fills a float64 table of shape
    (H, m+1, m+1), indexed [h, hi, lo], one column at a time at every lam,
    so temporaries stay O(H m d^2); costfn only reads it. theta solves the
    intervals it is asked for on each call, by the one coefficient rule of
    the module docstring, and models wraps its coefficients as one Linear
    model per interval. There is no lock: the library starts no thread or
    process, so a cache is used from one thread.
    """

    budget = _BLOCK_PAIRS  # the pairs per lambda segment.pelt puts in one costs call

    def __init__(self, dataset: Dataset, m: int, lambdas=(0.0,), precompute: bool = False):
        self.dataset = dataset
        self.m = _whole("grid resolution", m)
        self.lambdas = check_grid("lambda", lambdas)
        self._build_prefix()
        self._table = None
        if precompute:
            self._table = np.zeros((self.lambdas.size, self.m + 1, self.m + 1))
            for r in range(1, self.m + 1):
                self._table[:, r, :r] = self._costs(np.arange(r), np.array([r]), self.lambdas)

    # ---------------------------------------------------------- internals

    def _build_prefix(self):
        d = self.dataset
        m = self.m
        cells = grid_cell(d.treatments, m)
        with np.errstate(over="ignore", invalid="ignore"):
            c = float(np.mean(d.outcomes))
            z = np.hstack([make_xbar(d.covariates), (d.outcomes - c)[:, None]])
            dim = z.shape[1]
            upper = np.triu_indices(dim)  # row-major: (0, 0), (0, 1), ..., (dim-1, dim-1)
            # per-cell sums of z z^T, then prefix sums at cell boundaries:
            # _M[t, j] holds the sum over cells < j of packed entry t
            cell_sums = np.empty((upper[0].size, m))
            for t, (i, j) in enumerate(zip(*upper)):
                cell_sums[t] = np.bincount(cells, weights=z[:, i] * z[:, j], minlength=m)
            self._M = np.zeros((upper[0].size, m + 1))
            np.cumsum(cell_sums, axis=1, out=self._M[:, 1:])
        # entry (i, j) of an unpacked matrix is packed entry _full[i, j]
        self._full = np.empty((dim, dim), dtype=np.int64)
        self._full[upper] = self._full[upper[::-1]] = np.arange(upper[0].size)
        diag = self._full.diagonal()
        # an overflowed sum would turn every cost NaN
        total = self._M[diag, -1]
        if not np.isfinite(total[1:-1]).all():
            raise InvalidData("covariates", None, "covariates are too large: their moments overflow")
        if not np.isfinite(total[-1]):
            raise InvalidData("outcomes", None, _OUTCOMES_OVERFLOW)
        self._shift = c

    def _stack(self, los, his, lams):
        """Packed moments M (T,) + S, T = D(D+1)/2, of [lo/m, hi/m) for los
        and his broadcast to shape S, and at each lambda of lams (H,) the
        ridge weights n*lam*(hi-lo)/m (H,) + S; InvalidData at a positive
        lambda if c^2, P's (d, d) entry, overflows. los and his have one
        rank, so the two gathers broadcast along S."""
        M = self._M.take(his, axis=1) - self._M.take(los, axis=1)
        ridge = np.multiply.outer(self.dataset.n * lams, (his - los) / self.m)
        if lams[-1] > 0.0 and not math.isfinite(self._shift * self._shift):  # lams ascend
            raise InvalidData("outcomes", None, _OUTCOMES_OVERFLOW)
        return M, ridge

    def _assemble(self, los, his, lams: np.ndarray):
        """The packed A = M + ridge * P (T, H) + S of [lo/m, hi/m) at each
        lambda of lams (H,), the ridge added in place to P's D+1 nonzero rows,
        and the mask M[0] > 0 of the pairs with rows."""
        M, ridge = self._stack(los, his, lams)
        live = M[0] > 0.0  # read first: at one lambda, A[0] is M[0] and gains the ridge
        A = M[:, None] if lams.size == 1 else np.repeat(M[:, None], lams.size, axis=1)
        if lams[-1] > 0.0:  # lams ascend
            c = self._shift
            for t in self._full.diagonal()[:-1]:
                A[t] += ridge
            A[self._full[0, -1]] += -c * ridge
            A[-1] += c * c * ridge
        return A, live

    def _costs(self, los: np.ndarray, his, lams: np.ndarray) -> np.ndarray:
        """Costs (H,) + S of [lo/m, hi/m) at each lambda of lams (H,), from
        one _eliminate call over the packed A of _assemble; 0 where the row
        count M[0] is <= 0: no rows, or a pair lo >= hi."""
        A, live = self._assemble(los, his, lams)
        return np.where(live, _eliminate(A), 0.0) / self.dataset.n

    # ------------------------------------------------------------- access

    def theta(self, los: np.ndarray, his: np.ndarray, lam: float) -> np.ndarray:
        """Ridge coefficients (K, d) of the intervals [lo/m, hi/m) for the pairs
        of the equal-length int64 arrays los, his, e.g. every interval of a
        partition, from one batched eigendecomposition of their Gram
        matrices, unpacked from the prefix by _full, by the coefficient rule
        of the module docstring; all zeros for an interval without rows, and
        each interval gets the same bits as in a batch of its own. A lam that
        is NaN, infinite or negative raises ValueError."""
        los, his = np.asarray(los), np.asarray(his)
        _check_pairs(los, his, self.m)
        M, ridge = self._stack(los, his, check_grid("lambda", lam))
        M = M[self._full]  # (D, D, K)
        d = M.shape[0] - 1
        tau, U = np.linalg.eigh(np.moveaxis(M[:d, :d], -1, 0))
        tau = np.where(tau < _CLAMP_REL * np.maximum(tau[:, -1:], 0.0), 0.0, tau)
        denom = tau + ridge.T
        dinv = np.where(denom > 0.0, 1.0 / np.where(denom > 0.0, denom, 1.0), 0.0)
        w = np.where(tau > 0.0, ridge.T * dinv, 1.0)  # 1 - tau*dinv, exactly 0 at lam = 0
        phi = dinv * np.einsum("kij,ik->kj", U, M[:d, d]) - self._shift * w * U[:, 0]
        theta = np.einsum("kij,kj->ki", U, phi)
        theta[:, 0] += self._shift
        return theta

    def models(self, los: np.ndarray, his: np.ndarray, lam: float) -> tuple:
        """One Linear model per interval, from a single theta call (which
        checks lam)."""
        return tuple(Linear(t) for t in self.theta(los, his, lam))

    def costs(self, los, his) -> np.ndarray:
        """Costs (H,) + S of [lo/m, hi/m) at every lambda of the grid, for
        the int64 index arrays los and his broadcast to shape S, from one
        _eliminate call; exactly 0 where lo >= hi. The pair contract of
        segment.pelt: an index outside [0, m] raises ValueError."""
        los, his = np.asarray(los), np.asarray(his)
        _check_indices(los, his, self.m)
        if los.ndim != his.ndim:  # one rank, so the gathers of _stack broadcast
            los, his = np.broadcast_arrays(los, his)
        return self._costs(los, his, self.lambdas)

    def certificate(self, U, s: int, pairs, mus):
        """The dominance bound (low, scale) that segment.pelt takes as
        certificate= for functional pruning, by the algebra of the module
        docstring: for each multiplier mu of mus (N,), each pair (i, h) of
        the int64 array pairs (P, 2), competitor i at the h-th lambda of the
        grid, and each candidate j of the int64 array U, low[mu, p, j] is

            min over theta' of v^T [(1+mu) A_{[j,s)} - A_{[i,s)}] v / n,

        v = (-theta', 1), from one _schur call over the (T, N, P, |U|)
        stack, -inf where it is not bounded below, and scale[mu, p, j] is
        ((1+mu) A_{[j,s)} + A_{[i,s)}) at the outcome's diagonal entry,
        over n, the size the DP's margin reads. U and the competitors need
        not be sorted; every j and i is at most s, and s at most m.
        """
        i, h = pairs.T
        A = self._assemble(np.concatenate([U, i]), np.array([s]), self.lambdas)[0]  # (T, H, |U|+P)
        A_j = A[:, None, h, : U.size]  # (T, 1, P, |U|)
        A_i = A[:, None, h, U.size + np.arange(h.size), None]  # (T, 1, P, 1)
        mu = (1.0 + mus)[:, None, None]
        Q = mu * A_j
        scale = (Q[-1] + A_i[-1]) / self.dataset.n
        Q -= A_i
        return _schur(Q) / self.dataset.n, scale

    def costfn(self, lam: float):
        """Scalar cost function (lo, hi) -> cost at lam, for the scalar form
        of segment.pelt: a read of the precompute=True table, with the bits
        costs computes. Without the table, or for a lam off the grid,
        ValueError. Only the benchmark's solver check and tests call it.
        """
        if self._table is None:
            raise ValueError("costfn reads the cost table; build the cache with precompute=True")
        lam = _real("lam", lam)
        if lam not in self.lambdas.tolist():
            raise ValueError(f"lam {lam} is not on this cache's lambda grid {self.lambdas}")
        h = self.lambdas.tolist().index(lam)

        def fn(lo, hi):
            _check_pairs(np.array([operator.index(lo)]), np.array([operator.index(hi)]), self.m)
            return float(self._table[h, hi, lo])

        return fn
