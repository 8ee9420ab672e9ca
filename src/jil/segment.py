"""Penalized dynamic-programming segmentation of the treatment grid.

Minimizes sum_I cost(I) + gamma * |P| over all grid-aligned partitions of
[0, 1]. The Bellman recursion runs over right endpoints r = 1..m with
B(0) = -gamma and

    B(r) = min_{j in R_r} { B(j) + gamma + cost([j/m, r/m)) },

where the candidate set R_r either contains every j < r (exact DP) or is
pruned in the PELT style: a predecessor j survives into R_r only while

    B(j) + cost([j/m, (r-1)/m)) <= B(r-1).

Zero-slack pruning is exact when splitting an interval never increases total
cost (true for least-squares costs); the prune switch makes any divergence
on other cost structures observable against dp_no_prune.

The DP runs column by column: step r asks for the costs of all of R_r at
once and takes the first minimum of B(j) + gamma + cost([j/m, r/m)) over
R_r, so ties keep the smallest j. The prune test at step r reuses the costs
of step r-1, so pruning costs no further lookups.

The cost function argument is a callable over grid index pairs
0 <= lo < hi <= m, in one of two forms. By default it is scalar,
(lo, hi) -> float, and the DP calls it once per candidate pair in ascending
lo within each column. With batched=True it is a column function, (R, r)
-> costs, called once per column with R an ascending int64 array; it is
never called with a scalar. Either way the DP asks for each cost once and
calls the costfn for nothing else: it keeps the cost of the interval it
picks at each column, and the reported objective sums the kept costs of the
backtracked partition from left to right. So pelt, dp_no_prune and any
reference search that sums interval costs in the same order return
bit-identical numbers whenever their partitions agree. The DP tables
themselves are not returned; a column costfn sees every candidate set as
its (R_r, r) arguments.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .core import Partition
from .errors import InvalidPenalty

__all__ = ["dp_no_prune", "pelt"]


def _check_gamma(gamma):
    ok = (
        isinstance(gamma, numbers.Real)
        and not isinstance(gamma, bool)
        and math.isfinite(gamma)
        and gamma >= 0
    )
    if not ok:
        raise InvalidPenalty(f"gamma must be finite and >= 0, got {gamma!r}")


def _per_pair(costfn):
    """Column form (R, r) -> costs of a scalar costfn, one call per pair in R."""

    def column(R, r):
        return np.array([costfn(j, r) for j in R.tolist()], dtype=float)

    return column


def pelt(costfn, m: int, gamma: float, prune: bool = True, *, batched: bool = False):
    """Penalized segmentation with (optionally pruned) DP.

    Returns (Partition, objective) where objective = sum of interval costs
    plus gamma per interval.
    """
    _check_gamma(gamma)
    if m < 1:
        raise ValueError(f"grid resolution must be >= 1, got {m}")
    gamma = float(gamma)
    column = costfn if batched else _per_pair(costfn)
    B = np.empty(m + 1)
    B[0] = -gamma
    pred = np.zeros(m + 1, dtype=np.int64)
    cost = np.empty(m + 1)  # cost[r]: cost of the interval picked at column r
    R = np.zeros(1, dtype=np.int64)
    c = None
    for r in range(1, m + 1):
        if not prune:
            R = np.arange(r, dtype=np.int64)
        elif r > 1:
            # c holds column r-1's costs of R_{r-1}; j = r-1 always survives
            R = np.append(R[B[R] + c <= B[r - 1]], r - 1)
        c = column(R, r)
        v = B[R] + gamma + c
        k = int(np.argmin(v))  # first minimum: ties keep the smallest j
        B[r] = v[k]
        pred[r] = R[k]
        cost[r] = c[k]
    edges = [m]
    while edges[-1] > 0:
        edges.append(int(pred[edges[-1]]))
    edges.reverse()
    objective = 0.0
    for hi in edges[1:]:
        objective += float(cost[hi])
    return Partition.from_edges(edges, m), objective + gamma * (len(edges) - 1)


def dp_no_prune(costfn, m: int, gamma: float, *, batched: bool = False):
    """Exact DP over all predecessors (reference implementation)."""
    return pelt(costfn, m, gamma, prune=False, batched=batched)

