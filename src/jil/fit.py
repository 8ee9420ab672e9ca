"""Full segmentation fits tying together costs, the segmenter, and models.

Both model families run one fit body over an interval table: the pruned DP
segments with the table's costs (segment.pelt's pair contract) under the
table's budget, so only the surviving candidates' costs and a block's own
columns are computed; the table's certificate attribute (the bound method
CostCache.certificate, None on NetworkCosts) adds functional pruning to
PELT's; _attach gives the final intervals their models from one
models(los, his, lam) call. CV runs both steps per fold and scores with
_sse, the residual rule of recompute_objective. fit_ljil uses a one-lambda
CostCache; fit_djil a NetworkCosts table, which trains each interval at
most once, at lam 0 (network costs carry no coefficient penalty), a
block's untrained intervals in one lockstep mlp_train call. Its costs are
served by segment._per_pair, the one adapter from per-pair values to the
pair contract, over its memo of trained networks.
"""

from __future__ import annotations

import numpy as np

from .core import Dataset, Interval, JilFit, Linear, _real, _whole, grid_cell
from .cost import CostCache, _check_indices, _check_pairs
from .mlp import MlpModel, TrainConfig, mlp_train
from .segment import _per_pair, pelt

__all__ = ["NetworkCosts", "fit_ljil", "fit_djil", "recompute_objective"]

# pairs one costs() call of the DP may span, so a trainer call stacks at
# most max(_BLOCK_NETWORKS, |U|) networks: a one-step lockstep epoch,
# shuffles included, costs about 57 us for one network plus 12 us per
# further one at hidden (8,) (2-vCPU Xeon, numpy 2.4). Six scenario-2 fits
# at n = 400, m = 80, (8,), 5 epochs took 0.71 s at 16, 0.52 s at 24 and
# 0.52 s at 32 (medians of 5); a (32, 32), 10-epoch fit at n = 800 took
# 0.77 s at 1, 0.58 s at 16, 0.60 s at 24 and 0.75 s at 32, where the
# networks of pruned candidates cost more
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
    result = pelt(table.costs, table.m, gamma, budget=table.budget, certificate=table.certificate)
    return _attach(table, lam, [result], [gamma])[0]


def fit_ljil(d: Dataset, m: int, lam: float, gamma: float) -> JilFit:
    """Ridge-per-segment fit on an m-cell grid with jump penalty gamma; lam
    is a finite real (core._real; the CostCache refuses a negative one).

    The fit builds a CostCache without a table, so only the intervals the
    pruned DP evaluates are factorized, each once, and memory stays O(m d^2).
    """
    lam = _real("lam", lam)
    return _fit(CostCache(d, m, lambdas=(lam,)), lam, gamma)


class NetworkCosts:
    """Per-interval networks and their costs for one dataset on one grid.

    The network counterpart of cost.CostCache, with the same interface
    over the one-lambda grid (0.0,): costs is the pair function
    segment.pelt calls under the budget _BLOCK_NETWORKS, so no network is
    trained ahead of the DP, and models(los, his, 0.0) returns the networks
    of the intervals. An interval's cost is the SSE of its network divided
    by the full sample size n, so costs add up across a partition. An
    interval without rows costs 0 and gets the all-zero network, which
    predicts 0. Each interval is trained at most once, on first use: the
    untrained nonempty intervals of one costs call, for a block of DP
    columns its pairs lo < hi, train in lockstep in one mlp_train call, so
    the DP makes at most one trainer call per block. mlp_train gives a
    network the same bits in any stack, so the DP's partitions, objectives
    and networks do not depend on the block width; the price of a wide block
    is the networks it trains for candidates the DP prunes inside it. A
    network that diverges raises NoConvergence naming its interval, whether
    or not the DP would have read its cost.
    """

    budget = _BLOCK_NETWORKS  # the pairs segment.pelt puts in one costs call
    # a trained network's cost is not a quadratic in parameters shared across
    # intervals, so no candidate can be certified dominated: the DP prunes by
    # PELT's keep test alone (ROADMAP item 5)
    certificate = None

    def __init__(self, dataset: Dataset, m: int, cfg: TrainConfig):
        self.dataset = dataset
        self.m = _whole("grid resolution", m)
        self.cfg = cfg
        self._cells = grid_cell(dataset.treatments, self.m)
        self._memo = {}
        sizes = (dataset.p,) + tuple(cfg.hidden) + (1,)
        self._zero = MlpModel(
            sizes,
            tuple(np.zeros((o, i)) for i, o in zip(sizes[:-1], sizes[1:])),
            tuple(np.zeros(o) for o in sizes[1:]),
        )

    def _train(self, los: list, his: list) -> list:
        """(network, cost) of each pair (lo, hi) of the lists los and his,
        memoized: the nonempty pairs not yet trained train first, in one
        mlp_train call, in the given order."""
        d, new, pairs = self.dataset, [], list(zip(los, his))
        for lo, hi in dict.fromkeys(pairs):
            if (lo, hi) in self._memo:
                continue
            rows = np.flatnonzero((self._cells >= lo) & (self._cells < hi))
            if rows.size == 0:
                self._memo[lo, hi] = (self._zero, 0.0)
            else:
                new.append((lo, hi, rows))
        if new:
            nets = mlp_train(d, tuple(Interval(lo, hi, self.m) for lo, hi, _ in new), self.cfg)
            for (lo, hi, rows), net in zip(new, nets):
                resid = d.outcomes[rows] - net.predict_batch(d.covariates[rows])
                self._memo[lo, hi] = (net, float(np.dot(resid, resid) / d.n))
        return [self._memo[pair] for pair in pairs]

    def costs(self, los, his) -> np.ndarray:
        """Costs (1,) + S of [lo/m, hi/m) for the int64 index arrays los and
        his broadcast to shape S, exactly 0 where lo >= hi: the pair
        contract of segment.pelt, an index outside [0, m] a ValueError,
        served by segment._per_pair, so the untrained pairs lo < hi train in
        one mlp_train call, in row-major order."""
        _check_indices(np.asarray(los), np.asarray(his), self.m)
        return _per_pair(lambda *live: [cost for _, cost in self._train(*live)])(los, his)

    def models(self, los: np.ndarray, his: np.ndarray, lam: float) -> tuple:
        """One network per interval [lo/m, hi/m); lam must be 0 (a real
        number, by core._real)."""
        if _real("lam", lam) != 0.0:
            raise ValueError(f"network costs carry no penalty; lam must be 0, got {lam}")
        los, his = np.asarray(los), np.asarray(his)
        _check_pairs(los, his, self.m)
        return tuple(net for net, _ in self._train(los.tolist(), his.tolist()))


def fit_djil(d: Dataset, m: int, gamma: float, cfg: TrainConfig) -> JilFit:
    """Network-per-segment fit; each interval is trained at most once, the
    untrained intervals of one block of DP columns (one NetworkCosts.costs
    call) together in one lockstep mlp_train call, and the result does not
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
