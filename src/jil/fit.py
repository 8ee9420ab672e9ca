"""Full segmentation fits tying together costs, the segmenter, and models.

Both model families run one fit body over an interval table: the pruned DP
segments with the table's columns(), which serves its costs in blocks of
DP columns, each as wide as cost._block_width allows within the table's
budget (_BLOCK_PAIRS pairs for CostCache, _BLOCK_NETWORKS networks for
NetworkCosts), and computes only the surviving candidates' costs and a
block's own columns; _attach gives the final intervals their models from
one models(los, his, lam) call. CV runs both steps per fold and scores with
_sse, the residual rule of recompute_objective. fit_ljil uses a one-lambda
CostCache; fit_djil a NetworkCosts table, which trains each interval at
most once, at lam 0 (network costs carry no coefficient penalty), a block's
untrained intervals in one lockstep mlp_train call.
"""

from __future__ import annotations

import numpy as np

from .core import Dataset, Interval, JilFit, Linear, grid_cell
from .cost import CostCache, _block_width, _check_call, _check_pairs
from .mlp import MlpModel, TrainConfig, mlp_train
from .segment import pelt

__all__ = ["NetworkCosts", "fit_ljil", "fit_djil", "recompute_objective"]

# pairs one NetworkCosts block may span, b*(|U|+b-1) by cost._block_width,
# so a trainer call stacks at most max(_BLOCK_NETWORKS, |U|) networks: a
# one-step lockstep epoch, shuffles included, costs about 57 us for one
# network plus 12 us per further one at hidden (8,) (2-vCPU Xeon, numpy
# 2.4). Six scenario-2 fits at n = 400, m = 80, (8,), 5 epochs took 0.71 s
# at 16, 0.52 s at 24 and 0.52 s at 32 (medians of 5); a (32, 32), 10-epoch
# fit at n = 800 took 0.77 s at 1, 0.58 s at 16, 0.60 s at 24 and 0.75 s
# at 32, where the networks of pruned candidates cost more
_BLOCK_NETWORKS = 24


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
    (U, r) -> block (1, b, |U|+b-1) segment.pelt calls with batched=True,
    so no network is trained ahead of the DP, and models(los, his, 0.0)
    returns the networks of the intervals. A block's width b comes from
    cost._block_width, the ridge table's rule, under _BLOCK_NETWORKS in
    place of _BLOCK_PAIRS.
    An interval's cost is the SSE of its network divided by the full sample
    size n, so costs add up across a partition. An interval without rows
    costs 0 and gets the all-zero network, which predicts 0. Each interval
    is trained at most once, on first use: the untrained nonempty intervals
    of one call, for a block every (V[k], r+t) with V[k] < r+t, train in
    lockstep in one mlp_train call, so the DP makes at most one trainer
    call per block. mlp_train gives a network the same bits in any stack,
    so the DP's partitions, objectives and networks do not depend on the
    block width; the price of a wide block is the networks it trains for
    candidates the DP prunes inside it. A network that diverges raises
    NoConvergence naming its interval, whether or not the DP would have
    read its cost.
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

    def _train(self, pairs) -> None:
        """Memoize (network, cost) for every pair (lo, hi) not yet trained;
        the nonempty ones train in one mlp_train call, in the given order."""
        d, new = self.dataset, []
        for lo, hi in dict.fromkeys(pairs):
            if (lo, hi) in self._memo:
                continue
            rows = np.flatnonzero((self._cells >= lo) & (self._cells < hi))
            if rows.size == 0:
                self._memo[lo, hi] = (self._zero, 0.0)
            else:
                new.append((lo, hi, rows))
        if not new:
            return
        nets = mlp_train(d, tuple(Interval(lo, hi, self.m) for lo, hi, _ in new), self.cfg)
        for (lo, hi, rows), net in zip(new, nets):
            resid = d.outcomes[rows] - net.predict_batch(d.covariates[rows])
            self._memo[lo, hi] = (net, float(np.dot(resid, resid) / d.n))

    def columns(self):
        """Column cost function (U, r) -> block (1, b, |U|+b-1) for the
        column form of segment.pelt: with V = U followed by r, ..., r+b-2,
        entry [0, t, k] is the cost of [V[k]/m, (r+t)/m) where V[k] < r+t,
        and 0 elsewhere (never read). b is cost._block_width's under
        _BLOCK_NETWORKS, and the block's untrained pairs train in one
        mlp_train call."""
        m = self.m

        def block(U, r):
            _check_call(U, r, m)
            width = _block_width(U.size, m + 1 - r, _BLOCK_NETWORKS)
            V = U.tolist() + list(range(r, r + width - 1))
            # entry [t, k] is read where k < |U| + t, in row-major order
            live = np.arange(len(V)) < U.size + np.arange(width)[:, None]
            pairs = [(lo, r + t) for t in range(width) for lo in V[: U.size + t]]
            self._train(pairs)
            costs = np.zeros((1, width, len(V)))
            costs[0, live] = [self._memo[pair][1] for pair in pairs]
            return costs

        return block

    def models(self, los: np.ndarray, his: np.ndarray, lam: float) -> tuple:
        """One network per interval [lo/m, hi/m); lam must be 0."""
        if float(lam) != 0.0:
            raise ValueError(f"network costs carry no penalty; lam must be 0, got {lam}")
        los, his = np.asarray(los), np.asarray(his)
        _check_pairs(los, his, self.m)
        pairs = list(zip(los.tolist(), his.tolist()))
        self._train(pairs)
        return tuple(self._memo[pair][0] for pair in pairs)


def fit_djil(d: Dataset, m: int, gamma: float, cfg: TrainConfig) -> JilFit:
    """Network-per-segment fit; each interval is trained at most once, the
    untrained intervals of one block of DP columns (NetworkCosts.columns)
    together in one lockstep mlp_train call, and the result does not
    depend on the block width.

    Empty intervals cost 0 and carry an all-zero network (predicting 0),
    mirroring the zero ridge coefficients of an empty linear segment.

    The DP prunes as PELT does, with zero slack, which is exact only when
    splitting an interval never raises its cost. SGD-trained network costs
    do not satisfy that, so the partition can be worse than the exact DP's
    (segment.dp_no_prune on the same costs): pruned and exact DPs disagreed
    in 6 of 18 small cases, with objective gaps up to 0.144, and on the
    benchmark's djil-small op at seed 7 the pruned objective is 0.023 above
    the exact one.
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
