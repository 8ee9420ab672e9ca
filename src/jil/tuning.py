"""K-fold cross-validation over the (lambda, gamma) hyperparameter grid.

Both flavors run one fold loop, the fit body of fit.py over a grid. Every
fold builds one interval table on its training rows and makes one grid-form
segment.pelt call over the table's costs, budget and certificate, which
runs the DPs of every (lambda, gamma) pair in lockstep: each block of
columns is computed once, at every lambda, for the union of the candidates
the DPs still hold, and no table of interval costs is kept. fit._attach
gives each lambda's partitions their models from one models call, as for a
lone fit, and fit._sse scores them. The ridge flavor's table is a
CostCache without precompute, O(m d^2) per fold. The network flavor tunes
gamma only (its grid's lambda axis must be (0.0,)) over a fit.NetworkCosts
table, which trains each interval at most once for the whole gamma grid.
Both flavors take their folds and seed from the TuningGrid and return a
CvReport.

Scores are held-out SSE totals divided by n, with held-out rows predicted
by the fitted models; a held-out row in an interval without training rows
is predicted as 0. Per-fold contributions are combined with exact
summation, so scores do not depend on fold labeling or processing order.
Ties prefer the larger lambda, then the larger gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, _whole, check_grid
from .cost import CostCache
from .errors import BadFoldCount, InsufficientData
from .fit import NetworkCosts, _attach, _sse
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


def _grid(name, values):
    return tuple(check_grid(name, values).tolist())


@dataclass(frozen=True)
class TuningGrid:
    """Hyperparameter grid and fold layout for cross-validation: k_folds an
    integer >= 2 and seed an integer >= 0, never a bool, checked when built
    (ValueError naming the field), so a float is refused, not truncated."""

    lambdas: tuple
    gammas: tuple
    k_folds: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "lambdas", _grid("lambda", self.lambdas))
        object.__setattr__(self, "gammas", _grid("gamma", self.gammas))
        object.__setattr__(self, "k_folds", _whole("k_folds", self.k_folds, least=2))
        object.__setattr__(self, "seed", _whole("seed", self.seed, least=0))


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
    """Fold id per row: a uniform shuffle cut into k near-equal groups; n, k
    and seed are integers, never bools (ValueError naming the field)."""
    n, k = _whole("n", n), _whole("k", k, least=None)
    seed = _whole("seed", seed, least=0)
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


def _cv(d: Dataset, make_table, grid: TuningGrid):
    """Held-out SSE / n over the grid's (lambda, gamma) pairs, as a CvReport.

    Folds come from the grid's k_folds and seed; kfold_split uses every
    label 0..k-1, so each fold has held-out and training rows, and
    make_table(training rows) builds its one table over the grid's lambdas.
    Folds are combined by exact summation.
    """
    assign = kfold_split(d.n, grid.k_folds, grid.seed)
    sse = []  # per fold, the held-out SSE of each (lambda, gamma) pair
    for fid in range(grid.k_folds):
        va = assign == fid
        table = make_table(d.subset(np.flatnonzero(~va)))
        held_out = d.covariates[va], d.treatments[va], d.outcomes[va]
        results = pelt(table.costs, table.m, grid.gammas, budget=table.budget,
                       certificate=table.certificate)
        sse.append([[_sse(fit, *held_out) for fit in _attach(table, lam, row, grid.gammas)]
                    for lam, row in zip(grid.lambdas, results)])
    scores = np.apply_along_axis(math.fsum, 0, np.array(sse)) / d.n
    best_lambda, best_gamma = _pick_largest_on_ties(scores, grid.lambdas, grid.gammas)
    return CvReport(scores, best_lambda, best_gamma, assign)


def cv_select_ljil(d: Dataset, m: int, grid: TuningGrid) -> CvReport:
    """Select (lambda, gamma) for the ridge flavor by K-fold CV.

    Each fold refits the full segmentation on its training rows for every
    grid pair and accumulates the squared held-out residuals under the
    fitted piecewise-linear model.
    """

    def make_table(d_tr):
        return CostCache(d_tr, m, lambdas=grid.lambdas)

    return _cv(d, make_table, grid)


def cv_select_djil(d: Dataset, m: int, grid: TuningGrid, cfg: TrainConfig) -> CvReport:
    """Select gamma for the network flavor by K-fold CV; grid.lambdas must be
    (0.0,), since network costs carry no coefficient penalty.

    Within a fold one NetworkCosts table trains each interval at most once
    and serves every gamma of the grid; each block of columns, over the
    union of the gammas' candidates, trains its untrained intervals in one
    lockstep call, and the scores do not depend on the block width.

    Each gamma's DP prunes with PELT's zero slack, which is exact only when
    splitting never raises a cost, and trained-network costs break that
    (see fit_djil: 6 of 18 small cases disagreed with the exact DP, and
    djil-small's pruning gap is 0.023), so a fold's partitions, and the
    scores built on them, can differ from the exact DP's.
    """
    if grid.lambdas != (0.0,):
        raise ValueError(
            f"network CV tunes gamma only; grid lambdas must be (0.0,), got {grid.lambdas}"
        )

    def make_table(d_tr):
        return NetworkCosts(d_tr, m, cfg)

    return _cv(d, make_table, grid)


def default_gamma(n: int) -> float:
    """Jump-penalty default 4 log(n) / n; n is an integer (ValueError
    otherwise), and InsufficientData for n < 2."""
    n = _whole("n", n, least=None)
    if n < 2:
        raise InsufficientData(f"n must be >= 2, got {n}")
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
