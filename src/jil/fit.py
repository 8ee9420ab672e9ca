"""Full segmentation fits tying together costs, the segmenter, and models.

Both model families run one fit body over an interval table: the pruned
column-wise DP segments with the table's columns(), which computes only the
surviving candidates' costs, and _attach gives the final intervals their
models from one models(los, his, lam) call. CV runs both steps per fold and
scores with _sse, the residual rule of recompute_objective. fit_ljil uses a
one-lambda CostCache; fit_djil a NetworkCosts table, which trains each
candidate interval at most once, at lam 0: network costs carry no
coefficient penalty.
"""

from __future__ import annotations

import numpy as np

from .core import Dataset, Interval, JilFit, Linear, grid_cell
from .cost import CostCache, _check_call, _check_pairs
from .mlp import MlpModel, TrainConfig, mlp_train
from .segment import pelt

__all__ = ["NetworkCosts", "fit_ljil", "fit_djil", "recompute_objective"]


def _attach(table, lam: float, results, gammas) -> list:
    """One JilFit per DP result (Partition, objective) of the table at lam,
    paired with gammas; the distinct intervals of all the partitions get
    their models from one models call."""
    pairs = sorted({(iv.lo, iv.hi) for partition, _ in results for iv in partition.intervals})
    los, his = np.array(pairs, dtype=np.int64).T
    models = dict(zip(pairs, table.models(los, his, lam)))
    return [
        JilFit(partition, [models[iv.lo, iv.hi] for iv in partition.intervals],
               table.m, lam, gamma, objective)
        for (partition, objective), gamma in zip(results, gammas)
    ]


def _sse(fit: JilFit, X: np.ndarray, A: np.ndarray, Y: np.ndarray) -> float:
    """Residual sum of squares of a fit on rows (X, A, Y), each row predicted
    by the model of the interval that holds its dose."""
    idx = fit.partition.locate(A)
    pred = np.empty(Y.size)
    for k, model in enumerate(fit.models):
        rows = idx == k
        pred[rows] = model.predict_batch(X[rows])
    resid = Y - pred
    return float(np.dot(resid, resid))


def _fit(table, lam: float, gamma: float) -> JilFit:
    """Segment with the one cost row of a table over lambdas (lam,); attach models."""
    return _attach(table, lam, [pelt(table.columns(), table.m, gamma, batched=True)], [gamma])[0]


def fit_ljil(d: Dataset, m: int, lam: float, gamma: float) -> JilFit:
    """Ridge-per-segment fit on an m-cell grid with jump penalty gamma.

    The fit builds a CostCache without a table, so only the intervals the
    pruned DP evaluates are factorized, each once, and memory stays O(m d^2).
    """
    lam = float(lam)
    return _fit(CostCache(d, m, lambdas=(lam,)), lam, gamma)


class NetworkCosts:
    """Per-interval networks and their costs for one dataset on one grid.

    The network counterpart of cost.CostCache, with the same interface
    over the one-lambda grid (0.0,): columns() is the column cost function
    (R, hi) -> costs (1, |R|) segment.pelt calls with batched=True, and
    models(los, his, 0.0) returns the networks of the intervals.
    An interval's cost is the SSE of its network divided by the full sample
    size n, so costs add up across a partition. An interval without rows
    costs 0 and gets the all-zero network, which predicts 0. Each interval
    is trained at most once, on first use, through mlp_train.
    """

    def __init__(self, dataset: Dataset, m: int, cfg: TrainConfig):
        self.dataset = dataset
        self.m = int(m)
        self.cfg = cfg
        self._cells = grid_cell(dataset.treatments, self.m)
        self._memo = {}
        sizes = (dataset.p,) + tuple(cfg.hidden) + (1,)
        self._zero = MlpModel(
            sizes,
            tuple(np.zeros((o, i)) for i, o in zip(sizes[:-1], sizes[1:])),
            tuple(np.zeros(o) for o in sizes[1:]),
        )

    def _entry(self, lo: int, hi: int):
        got = self._memo.get((lo, hi))
        if got is None:
            d = self.dataset
            rows = np.flatnonzero((self._cells >= lo) & (self._cells < hi))
            if rows.size == 0:
                got = (self._zero, 0.0)
            else:
                model = mlp_train(d, Interval(lo, hi, self.m), self.cfg)
                resid = d.outcomes[rows] - model.predict_batch(d.covariates[rows])
                got = (model, float(np.dot(resid, resid) / d.n))
            self._memo[lo, hi] = got
        return got

    def columns(self):
        """Column cost function (R, hi) -> (1, |R|) costs of [j/m, hi/m), j in R."""

        def column(R, hi):
            _check_call(R, hi, self.m)
            return np.array([[self._entry(j, hi)[1] for j in R.tolist()]])

        return column

    def models(self, los: np.ndarray, his: np.ndarray, lam: float) -> tuple:
        """One network per interval [lo/m, hi/m); lam must be 0."""
        if float(lam) != 0.0:
            raise ValueError(f"network costs carry no penalty; lam must be 0, got {lam}")
        los, his = np.asarray(los), np.asarray(his)
        _check_pairs(los, his, self.m)
        return tuple(self._entry(lo, hi)[0] for lo, hi in zip(los.tolist(), his.tolist()))


def fit_djil(d: Dataset, m: int, gamma: float, cfg: TrainConfig) -> JilFit:
    """Network-per-segment fit; each candidate interval is trained at most once.

    Empty intervals cost 0 and carry an all-zero network (predicting 0),
    mirroring the zero ridge coefficients of an empty linear segment.
    """
    return _fit(NetworkCosts(d, m, cfg), 0.0, gamma)


def recompute_objective(d: Dataset, fit: JilFit) -> float:
    """Objective of a fit from its stored components, independent of caches.

    Residual SSE / n by _sse, plus lam * |I| * ||theta||^2 for each linear
    segment, plus gamma per interval.
    """
    total = _sse(fit, d.covariates, d.treatments, d.outcomes) / d.n
    for iv, model in zip(fit.partition.intervals, fit.models):
        if isinstance(model, Linear):
            total += fit.lam * iv.length * float(np.dot(model.theta, model.theta))
    return total + fit.gamma * fit.partition.size
