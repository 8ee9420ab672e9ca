"""K-fold cross-validation over the (lambda, gamma) hyperparameter grid.

For the ridge flavor every fold fills one CostCache on its training rows up
front, so a single eigendecomposition per interval serves the entire lambda
grid, and the column-wise segmenter runs once per (lambda, gamma) pair.
Scores are held-out SSE totals divided by n. Per-fold contributions are
combined with exact summation, so scores do not depend on fold labeling or
processing order. Ties prefer the larger lambda, then the larger gamma.

The network flavor tunes gamma only (lambda is pinned at 0); per fold one
fit.NetworkCosts table trains each candidate interval once and serves the
whole gamma grid.
Held-out rows landing in an interval that had no training rows contribute
nothing to the score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, check_grid, grid_cell, make_xbar, validate_dataset
from .cost import CostCache
from .errors import BadFoldCount
from .fit import NetworkCosts
from .mlp import TrainConfig
from .segment import pelt

__all__ = [
    "TuningGrid",
    "CvReport",
    "kfold_split",
    "cv_select_ljil",
    "cv_select_djil",
    "default_gamma",
    "default_grid",
]


def _grid(name, values, allow_zero):
    return tuple(check_grid(name, values, allow_zero).tolist())


@dataclass(frozen=True)
class TuningGrid:
    """Hyperparameter grid and fold layout for cross-validation."""

    lambdas: tuple
    gammas: tuple
    k_folds: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "lambdas", _grid("lambda", self.lambdas, True))
        object.__setattr__(self, "gammas", _grid("gamma", self.gammas, False))
        if self.k_folds < 2:
            raise ValueError(f"k_folds must be >= 2, got {self.k_folds}")


@dataclass(frozen=True)
class CvReport:
    """Held-out SSE/n per grid cell plus the selected pair."""

    scores: np.ndarray
    best_lambda: float
    best_gamma: float
    fold_assignments: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.scores, dtype=float)
        s.flags.writeable = False
        object.__setattr__(self, "scores", s)
        fa = np.asarray(self.fold_assignments)
        fa.flags.writeable = False
        object.__setattr__(self, "fold_assignments", fa)


def kfold_split(n: int, k: int, seed: int) -> np.ndarray:
    """Fold id per row: a uniform shuffle cut into k near-equal groups."""
    if not (2 <= k <= n):
        raise BadFoldCount(f"need 2 <= k <= n, got k={k}, n={n}")
    perm = np.random.default_rng(seed).permutation(n)
    assign = np.empty(n, dtype=np.int64)
    assign[perm] = np.arange(n, dtype=np.int64) % k
    return assign


def _pick_largest_on_ties(scores: np.ndarray, lambdas, gammas):
    """Grid cell with the minimum score; ties go to larger lambda, then gamma."""
    best_val, best_h, best_j = np.inf, -1, -1
    for h in range(len(lambdas) - 1, -1, -1):
        for j in range(len(gammas) - 1, -1, -1):
            if scores[h, j] < best_val:
                best_val, best_h, best_j = scores[h, j], h, j
    return float(lambdas[best_h]), float(gammas[best_j])


def cv_select_ljil(
    d: Dataset, m: int, grid: TuningGrid, fold_assignments=None
) -> CvReport:
    """Select (lambda, gamma) for the ridge flavor by K-fold CV.

    Each fold refits the full segmentation on its training rows for every
    grid pair and accumulates the squared held-out residuals under the
    fitted piecewise-linear model.
    """
    validate_dataset(d)
    if fold_assignments is None:
        assign = kfold_split(d.n, grid.k_folds, grid.seed)
    else:
        assign = np.asarray(fold_assignments, dtype=np.int64)
        if assign.shape != (d.n,):
            raise BadFoldCount("fold_assignments length must equal n")
    H, J = len(grid.lambdas), len(grid.gammas)
    parts = [[[] for _ in range(J)] for _ in range(H)]
    for fid in sorted(int(v) for v in np.unique(assign)):
        va = assign == fid
        d_tr = d.subset(np.flatnonzero(~va))
        cache = CostCache(d_tr, m, lambdas=grid.lambdas, precompute=True)
        Xva = make_xbar(d.covariates[va])
        Yva = d.outcomes[va]
        cells_va = grid_cell(d.treatments[va], m)
        for h, lam in enumerate(grid.lambdas):
            costfn = cache.costfn(lam)
            for j, gam in enumerate(grid.gammas):
                partition, _ = pelt(costfn, m, gam, batched=True)
                edges = np.array(partition.edges())
                thetas = cache.theta(edges[:-1], edges[1:], lam)
                resid = Yva - np.sum(Xva * thetas[partition.locate_cells(cells_va)], axis=1)
                parts[h][j].append(float(np.dot(resid, resid)))
    scores = np.array([[math.fsum(parts[h][j]) for j in range(J)] for h in range(H)])
    scores /= d.n
    best_lambda, best_gamma = _pick_largest_on_ties(scores, grid.lambdas, grid.gammas)
    return CvReport(scores, best_lambda, best_gamma, assign)


def cv_select_djil(d: Dataset, m: int, gammas, k: int, cfg: TrainConfig) -> float:
    """Select gamma for the network flavor by K-fold CV (lambda fixed at 0).

    The fold split derives from cfg.seed so one config fully determines the
    procedure. Within a fold one NetworkCosts table trains each candidate
    interval at most once and serves every gamma of the grid.
    """
    validate_dataset(d)
    gams = _grid("gamma", gammas, False)
    assign = kfold_split(d.n, k, cfg.seed)
    parts = [[] for _ in gams]
    for fid in range(k):
        va = assign == fid
        table = NetworkCosts(d.subset(np.flatnonzero(~va)), m, cfg)
        Xva = d.covariates[va]
        Yva = d.outcomes[va]
        cells_va = grid_cell(d.treatments[va], m)
        for j, gam in enumerate(gams):
            partition, _ = pelt(table.cost, m, gam)
            idx = partition.locate_cells(cells_va)
            sse = 0.0
            for ki, iv in enumerate(partition.intervals):
                model = table.model(iv.lo, iv.hi)
                if model is None:
                    continue
                rows = idx == ki
                if rows.any():
                    r = Yva[rows] - model.predict_batch(Xva[rows])
                    sse += float(np.dot(r, r))
            parts[j].append(sse)
    scores = np.array([math.fsum(p) for p in parts]) / d.n
    best_val, best = np.inf, gams[-1]
    for j in range(len(gams) - 1, -1, -1):
        if scores[j] < best_val:
            best_val, best = scores[j], gams[j]
    return float(best)


def default_gamma(n: int) -> float:
    """Jump-penalty default 4 log(n) / n."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return 4.0 * math.log(n) / n


def default_grid(n: int, seed: int, k_folds: int = 5) -> TuningGrid:
    """Default CV grid: raw lambdas {0, 1e-3, 1e-2}, gammas scaled around
    default_gamma(n) by {0.25, 0.5, 1, 2, 4}."""
    g0 = default_gamma(n)
    return TuningGrid(
        lambdas=(0.0, 1e-3, 1e-2),
        gammas=tuple(g0 * f for f in (0.25, 0.5, 1.0, 2.0, 4.0)),
        k_folds=k_folds,
        seed=seed,
    )
