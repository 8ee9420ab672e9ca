"""Penalized dynamic-programming segmentation of the treatment grid.

Minimizes sum_I cost(I) + gamma * |P| over all grid-aligned partitions of
[0, 1]. The Bellman recursion runs over right endpoints r = 1..m with
B(0) = -gamma and

    B(r) = min_{j in R_r} { B(j) + gamma + cost([j/m, r/m)) },

where R_r holds r-1 and each j of R_{r-1} that passes the PELT keep test

    B(j) + cost([j/m, (r-1)/m)) <= B(r-1).

The exact DP (dp_no_prune) forces the test true, so R_r holds every j < r.
Zero-slack pruning is exact when splitting an interval never increases total
cost (true for least-squares costs); the prune switch makes any divergence
on other cost structures observable against dp_no_prune.

The DP runs column by column: step r asks for the costs of all of R_r at
once and takes the first minimum of B(j) + gamma + cost([j/m, r/m)) over
R_r, so ties keep the smallest j. The prune test at step r reuses the costs
of step r-1, so pruning costs no further lookups.

The cost function argument is a callable over grid index pairs
0 <= lo < hi <= m, in one of two forms. By default it is scalar, (lo, hi) ->
float, and the DP calls it once per candidate pair in ascending lo within
each column (CostCache.costfn reads a precompute=True table in this form).
With batched=True, the form the library's fits use, it is a column function,
(R, r) -> costs, called once per column with R an ascending int64 array; it
is never called with a scalar, and returns (H, |R|) costs, one row per cost
function (a 1-D array is one row); with a scalar gamma, H > 1 raises
ValueError. Either way the DP asks for each cost once and calls the costfn
for nothing else: it keeps the cost of the interval it picks at each column,
and the reported objective sums the kept costs of the backtracked partition
from left to right. So pelt, dp_no_prune and any reference search that sums
interval costs in the same order return bit-identical numbers whenever their
partitions agree. The DP tables themselves are not returned; a column costfn
sees every candidate set as its (R_r, r) arguments.

Grid form. With a 1-D sequence of J penalties in place of gamma, one call
runs a whole grid of DPs in lockstep, one per (cost row, penalty) pair. The
column function then returns an (H, |U|) array: row h holds the costs of
[j/m, r/m) for j in U under the h-th of H cost functions (one per ridge
lambda, say), and U, the union of the candidate sets of all H*J DPs, is what
each column is asked for. Every DP reads its own cost row, keeps its own
survivors and ties as above, so each returns bit for bit what a separate
call with that row's costs and its penalty returns. The result is a list
over the H cost rows, each a list over the J penalties of (Partition,
objective). Column r's candidates are decided from column r-1 alone, so the
state is O(H J m) whatever the grid. Costs must be finite: a candidate a DP
has pruned but another still holds sits at +inf in that DP's row.
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


def _backtrack(pred: np.ndarray, cost: np.ndarray, gamma: float, m: int):
    """(Partition, objective) of one DP from its predecessors and the costs
    it kept, summed from left to right."""
    edges = [m]
    while edges[-1] > 0:
        edges.append(int(pred[edges[-1]]))
    edges.reverse()
    objective = 0.0
    for hi in edges[1:]:
        objective += float(cost[hi])
    return Partition.from_edges(edges, m), objective + gamma * (len(edges) - 1)


def _single(column, m: int, gamma: float, prune: bool):
    """One DP over 1-D state, on the column's one cost row. The lockstep
    would run it too, but a lone fit_ljil at n = 4000, m = 800 spent 29-30 ms
    on its (G, |U|) bookkeeping against 13-14 ms here, and ran a fifth slower
    (0.116 s against 0.095 s, best of 7 on a shared 2-vCPU machine)."""
    B = np.empty(m + 1)
    B[0] = -gamma
    pred = np.zeros(m + 1, dtype=np.int64)
    cost = np.empty(m + 1)  # cost[r]: cost of the interval picked at column r
    R = np.zeros(1, dtype=np.int64)
    c = None
    for r in range(1, m + 1):
        if r > 1:
            # c holds column r-1's costs of R_{r-1}; j = r-1 always survives
            R = np.append(R[B[R] + c <= B[r - 1]] if prune else R, r - 1)  # exact: keep all
        c = column(R, r)
        if c.ndim == 2 and c.shape[0] != 1:
            raise ValueError(f"a scalar gamma takes one cost row, got {c.shape[0]}")
        c = c.reshape(R.size)
        v = B[R] + gamma + c
        k = int(np.argmin(v))  # first minimum: ties keep the smallest j
        B[r] = v[k]
        pred[r] = R[k]
        cost[r] = c[k]
    return _backtrack(pred, cost, gamma, m)


def _lockstep(column, m: int, gammas, prune: bool):
    """The DPs of every (cost row h, penalty j) pair in one pass over the
    columns, as rows g = h*J + j of (G, .) arrays; returns [h][j] ->
    (Partition, objective)."""
    gam = np.asarray(gammas, dtype=float)
    U = np.zeros(1, dtype=np.int64)
    c = np.atleast_2d(column(U, 1))  # (H, |U|)
    H, J = c.shape[0], gam.size
    G = H * J
    gam_g = np.tile(gam, H)[:, None]
    dps = np.arange(G)
    cost_row = np.repeat(np.arange(H), J)
    B = np.empty((G, m + 1))
    B[:, 0] = -gam_g[:, 0]
    pred = np.zeros((G, m + 1), dtype=np.int64)
    cost = np.empty((G, m + 1))  # cost[g, r]: cost of the interval picked at column r
    BU = B[:, :1].copy()  # B at U; +inf where the row has pruned j
    for r in range(1, m + 1):
        if r > 1:
            # c holds column r-1's costs of U; a pruned j fails at +inf, j = r-1
            # always survives, and the exact DP's bound is +inf, so it keeps every j
            bound = B[:, r - 1 : r] if prune else np.inf
            keep = (BU.reshape(H, J, -1) + c[:, None, :]).reshape(G, -1) <= bound
            cols = np.flatnonzero(keep.any(axis=0))
            U = np.append(U[cols], r - 1)
            BU = np.concatenate([np.where(keep, BU, np.inf)[:, cols], B[:, r - 1 : r]], axis=1)
            c = np.atleast_2d(column(U, r))
        v = ((BU + gam_g).reshape(H, J, -1) + c[:, None, :]).reshape(G, -1)
        k = np.argmin(v, axis=1)  # first minimum: ties keep the smallest j
        B[:, r] = v[dps, k]
        pred[:, r] = U[k]
        cost[:, r] = c[cost_row, k]
    return [
        [_backtrack(pred[h * J + j], cost[h * J + j], float(gam[j]), m) for j in range(J)]
        for h in range(H)
    ]


def pelt(costfn, m: int, gamma, prune: bool = True, *, batched: bool = False):
    """Penalized segmentation with (optionally pruned) DP.

    Returns (Partition, objective) where objective = sum of interval costs
    plus gamma per interval; given a 1-D sequence of penalties, runs the
    grid form and returns its [h][j] -> (Partition, objective) lists.
    """
    grid = np.ndim(gamma) > 0
    if grid and len(gamma) == 0:
        raise InvalidPenalty("the grid form needs at least one gamma")
    for g in gamma if grid else (gamma,):
        _check_gamma(g)
    if m < 1:
        raise ValueError(f"grid resolution must be >= 1, got {m}")
    column = costfn if batched else _per_pair(costfn)
    if grid:
        return _lockstep(column, m, [float(g) for g in gamma], prune)
    return _single(column, m, float(gamma), prune)


def dp_no_prune(costfn, m: int, gamma, *, batched: bool = False):
    """Exact DP over all predecessors (reference implementation)."""
    return pelt(costfn, m, gamma, prune=False, batched=batched)
