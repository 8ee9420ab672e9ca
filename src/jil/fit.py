"""Full segmentation fits tying together costs, the segmenter, and models.

fit_ljil builds a lazy CostCache, segments with the pruned column-wise DP
(which fills only the surviving candidates' costs), and attaches ridge
coefficients refactorized for the final intervals in one batched call.
fit_djil does the same over a NetworkCosts table, which trains one network
per candidate interval at most once; its lam is fixed at 0 because the
network cost carries no coefficient penalty.
"""

from __future__ import annotations

import numpy as np

from .core import Dataset, Interval, JilFit, Linear, grid_cell, validate_dataset
from .cost import CostCache
from .mlp import MlpModel, TrainConfig, mlp_train
from .segment import pelt

__all__ = ["NetworkCosts", "fit_ljil", "fit_djil", "recompute_objective"]


def fit_ljil(
    d: Dataset,
    m: int,
    lam: float,
    gamma: float,
    cache: CostCache = None,
) -> JilFit:
    """Ridge-per-segment fit on an m-cell grid with jump penalty gamma.

    Without a cache, a lazy one is built, so only the intervals the pruned DP
    evaluates are ever factorized.
    """
    validate_dataset(d)
    lam = float(lam)
    if cache is None:
        cache = CostCache(d, m, lambdas=(lam,))
    partition, objective = pelt(cache.costfn(lam), m, gamma, batched=True)
    edges = np.array(partition.edges())
    models = tuple(Linear(theta) for theta in cache.theta(edges[:-1], edges[1:], lam))
    return JilFit(partition, models, m, lam, gamma, objective, method="ljil")


class NetworkCosts:
    """Per-interval networks and their costs for one dataset on one grid.

    The network counterpart of cost.CostCache. cost(lo, hi) is the costfn for
    segment.pelt: the SSE of the interval's network divided by the full
    sample size n, so costs add up across a partition. model(lo, hi) is that
    network, or None for an interval without rows, whose cost is 0. Each
    interval is trained at most once, on first use, through mlp_train.
    """

    def __init__(self, dataset: Dataset, m: int, cfg: TrainConfig):
        self.dataset = dataset
        self.m = int(m)
        self.cfg = cfg
        self._cells = grid_cell(dataset.treatments, self.m)
        self._memo = {}

    def _entry(self, lo: int, hi: int):
        got = self._memo.get((lo, hi))
        if got is None:
            d = self.dataset
            rows = np.flatnonzero((self._cells >= lo) & (self._cells < hi))
            if rows.size == 0:
                got = (None, 0.0)
            else:
                model = mlp_train(d, Interval(lo, hi, self.m), self.cfg)
                resid = d.outcomes[rows] - model.predict_batch(d.covariates[rows])
                got = (model, float(np.dot(resid, resid) / d.n))
            self._memo[lo, hi] = got
        return got

    def cost(self, lo: int, hi: int) -> float:
        return self._entry(lo, hi)[1]

    def model(self, lo: int, hi: int):
        return self._entry(lo, hi)[0]


def _zero_network(p: int, hidden: tuple) -> MlpModel:
    sizes = (p,) + tuple(hidden) + (1,)
    return MlpModel(
        sizes,
        tuple(np.zeros((o, i)) for i, o in zip(sizes[:-1], sizes[1:])),
        tuple(np.zeros(o) for o in sizes[1:]),
    )


def fit_djil(d: Dataset, m: int, gamma: float, cfg: TrainConfig) -> JilFit:
    """Network-per-segment fit; each candidate interval is trained at most once.

    Empty intervals cost 0 and carry an all-zero network (predicting 0),
    mirroring the zero ridge coefficients of an empty linear segment.
    """
    validate_dataset(d)
    table = NetworkCosts(d, m, cfg)
    partition, objective = pelt(table.cost, m, gamma)
    models = []
    for iv in partition.intervals:
        net = table.model(iv.lo, iv.hi)
        models.append(_zero_network(d.p, cfg.hidden) if net is None else net)
    return JilFit(partition, models, m, 0.0, gamma, objective, method="djil")


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
