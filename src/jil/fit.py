"""Full segmentation fits tying together costs, the segmenter, and models.

fit_ljil builds a lazy CostCache, segments with the pruned column-wise DP
(which fills only the surviving candidates' costs), and attaches ridge
coefficients refactorized for the final intervals. fit_djil does the same
with one freshly trained network per candidate interval, memoized so the
segmenter never trains the same interval twice; its lam is fixed at 0
because the network cost carries no coefficient penalty.
"""

from __future__ import annotations

import numpy as np

from .core import Dataset, Interval, JilFit, Linear, Mlp, grid_cell, validate_dataset
from .cost import CostCache
from .mlp import MlpModel, TrainConfig, mlp_train
from .segment import pelt

__all__ = ["fit_ljil", "fit_djil", "recompute_objective"]


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
    models = tuple(Linear(cache.theta(iv.lo, iv.hi, lam)) for iv in partition.intervals)
    return JilFit(partition, models, m, lam, gamma, objective, method="ljil")


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
    cells = grid_cell(d.treatments, m)
    memo = {}

    def entry(lo: int, hi: int):
        key = (lo, hi)
        got = memo.get(key)
        if got is None:
            rows = np.flatnonzero((cells >= lo) & (cells < hi))
            if rows.size == 0:
                got = (_zero_network(d.p, cfg.hidden), 0.0)
            else:
                model = mlp_train(d, Interval(lo, hi, m), cfg)
                resid = d.outcomes[rows] - model.predict_batch(d.covariates[rows])
                got = (model, float(np.dot(resid, resid) / d.n))
            memo[key] = got
        return got

    partition, objective = pelt(lambda lo, hi: entry(lo, hi)[1], m, gamma)
    models = tuple(Mlp(entry(iv.lo, iv.hi)[0]) for iv in partition.intervals)
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
