"""Full segmentation fits tying together costs, the segmenter, and models.

Both model families run one fit body over an interval table: the pruned
column-wise DP segments with the table's costfn(lam), which computes only
the surviving candidates' costs, and the table's models(los, his, lam)
attaches one model per final interval. fit_ljil uses a CostCache without a
table, whose models are ridge coefficients refactorized for the final
intervals in one batched call. fit_djil uses a NetworkCosts table, which
trains one network per candidate interval at most once; its lam is fixed
at 0 because the network cost carries no coefficient penalty.
"""

from __future__ import annotations

import numpy as np

from .core import Dataset, Interval, JilFit, Linear, grid_cell
from .cost import CostCache, _check_call, _check_pairs
from .mlp import MlpModel, TrainConfig, mlp_train
from .segment import pelt

__all__ = ["NetworkCosts", "fit_ljil", "fit_djil", "recompute_objective"]


def _fit(table, lam: float, gamma: float, segment) -> JilFit:
    """Segment with the table's costs at lam, then attach its models.

    segment is the caller's module-level pelt, so each driver's DP calls can
    be replaced or traced in the module that makes them.
    """
    partition, objective = segment(table.costfn(lam), table.m, gamma, batched=True)
    edges = np.array(partition.edges())
    models = table.models(edges[:-1], edges[1:], lam)
    return JilFit(partition, models, table.m, lam, gamma, objective)


def fit_ljil(d: Dataset, m: int, lam: float, gamma: float) -> JilFit:
    """Ridge-per-segment fit on an m-cell grid with jump penalty gamma.

    The fit builds a CostCache without a table, so only the intervals the
    pruned DP evaluates are factorized, each once, and memory stays O(m d^2).
    """
    lam = float(lam)
    return _fit(CostCache(d, m, lambdas=(lam,)), lam, gamma, pelt)


class NetworkCosts:
    """Per-interval networks and their costs for one dataset on one grid.

    The network counterpart of cost.CostCache, with the same interface,
    except that costfn(0.0) takes DP columns only: (R, hi) -> costs for an
    ascending int64 array R, as segment.pelt calls it with batched=True.
    An interval's cost is the SSE of its network divided by the full sample
    size n, so costs add up across a partition. models(los, his, 0.0)
    returns those networks. An interval without rows costs 0 and gets the
    all-zero network, which predicts 0. Each interval is trained at most
    once, on first use, through mlp_train.
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

    @staticmethod
    def _check_lam(lam):
        if float(lam) != 0.0:
            raise ValueError(
                f"network costs carry no coefficient penalty; lam must be 0, got {lam}"
            )

    def costfn(self, lam: float):
        """Column cost function (R, hi) -> costs of [j/m, hi/m) for j in R;
        lam must be 0."""
        self._check_lam(lam)

        def column(R, hi):
            _check_call(R, hi, self.m)
            return np.array([self._entry(j, hi)[1] for j in R.tolist()], dtype=float)

        return column

    def models(self, los: np.ndarray, his: np.ndarray, lam: float) -> tuple:
        """One network per interval [lo/m, hi/m); lam must be 0."""
        self._check_lam(lam)
        los, his = np.asarray(los), np.asarray(his)
        _check_pairs(los, his, self.m)
        return tuple(self._entry(lo, hi)[0] for lo, hi in zip(los.tolist(), his.tolist()))


def fit_djil(d: Dataset, m: int, gamma: float, cfg: TrainConfig) -> JilFit:
    """Network-per-segment fit; each candidate interval is trained at most once.

    Empty intervals cost 0 and carry an all-zero network (predicting 0),
    mirroring the zero ridge coefficients of an empty linear segment.
    """
    return _fit(NetworkCosts(d, m, cfg), 0.0, gamma, pelt)


def recompute_objective(d: Dataset, fit: JilFit) -> float:
    """Objective of a fit from its stored components, independent of caches.

    Sum over intervals of residual SSE / n plus lam * |I| * ||theta||^2 for
    linear segments, plus gamma per interval.
    """
    cells = grid_cell(d.treatments, fit.m)
    total = 0.0
    for iv, model in zip(fit.partition.intervals, fit.models):
        rows = np.flatnonzero((cells >= iv.lo) & (cells < iv.hi))
        if rows.size:
            resid = d.outcomes[rows] - model.predict_batch(d.covariates[rows])
            total += float(np.dot(resid, resid)) / d.n
        if isinstance(model, Linear):
            total += fit.lam * iv.length * float(np.dot(model.theta, model.theta))
    return total + fit.gamma * fit.partition.size
