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

The DP runs column by column: step r takes the first minimum of
B(j) + gamma + cost([j/m, r/m)) over R_r, so ties keep the smallest j. The
prune test at step r reuses the costs of step r-1, so pruning costs no
further lookups.

The cost function argument is a callable over grid index pairs
0 <= lo < hi <= m, in one of two forms. By default it is scalar, (lo, hi) ->
float, and the DP calls it once per candidate pair in ascending lo within
each column (CostCache.costfn reads a precompute=True table in this form).
With batched=True, the form the library's fits use, it is a column function
(U, r) -> block, called with U an ascending int64 array, never with a
scalar. The block contract:

- a call returns (H, b, |U|+b-1) costs, one row per cost function, with
  1 <= b <= m+1-r: over V = U followed by r, ..., r+b-2, entry [h, t, k] is
  the cost of [V[k]/m, (r+t)/m) under the h-th cost function;
- the DP runs columns r, ..., r+b-1 from the block, holding B at V with
  +inf for a candidate it has pruned, and column r+t reads only the live
  prefix V[:|U|+t] (entries past it, where V[k] >= r+t, are never read);
- the DP calls again at r+b with the candidates that survive, so it calls
  at r = 1 and after each block's last column, and U at a call is R_r
  (in the grid form below, the union of the DPs' R_r).

fit.NetworkCosts and the scalar form's adapter return blocks of one column,
(1, 1, |U|). With a scalar gamma, H > 1 raises ValueError; a return of any
other shape raises ValueError. Either way the DP asks for each cost once and
calls the costfn for nothing else: it keeps the cost of the interval it picks
at each column, and the reported objective sums the kept costs of the
backtracked partition from left to right. So pelt, dp_no_prune and any
reference search that sums interval costs in the same order return
bit-identical numbers whenever their partitions agree, whatever the block
widths. The DP tables themselves are not returned.

Grid form. With a 1-D sequence of J penalties in place of gamma, one call
runs a whole grid of DPs in lockstep, one per (cost row, penalty) pair. The
column function then returns H cost rows: row h holds the costs under the
h-th of H cost functions (one per ridge lambda, say), and U, the union of
the candidate sets of all H*J DPs at r, is what each call is asked for.
Every DP reads its own cost row, keeps its own survivors and ties as above,
so each returns bit for bit what a separate call with that row's costs and
its penalty returns. The result is a list over the H cost rows, each a list
over the J penalties of (Partition, objective). Column r's candidates are
decided from column r-1 alone, so the state is O(H J m) whatever the grid.
Costs must be finite: a candidate a DP has pruned but another still holds
sits at +inf in that DP's row.
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
        return np.array([costfn(j, r) for j in R.tolist()], dtype=float).reshape(1, 1, -1)

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


def _block(costs, U: np.ndarray, r: int, m: int) -> np.ndarray:
    """A column function's return for the call (U, r), checked to be a
    block (H, b, |U|+b-1)."""
    c = np.asarray(costs)
    if c.ndim != 3 or not 1 <= c.shape[1] <= m + 1 - r or c.shape[2] != U.size + c.shape[1] - 1:
        raise ValueError(f"column ({U}, {r}) returned costs of shape {np.shape(costs)}")
    return c


def _single(column, m: int, gamma: float, prune: bool):
    """One DP over 1-D state, on the column's one cost row. The lockstep
    would run it too, but on the same memoized blocks of a lone fit_ljil
    (scenario 1, p = 4, best of 15, six runs on a shared 2-vCPU machine) its
    (G, |U|) bookkeeping at G = 1 took 10.8-18.4 ms against 5.9-10.0 ms here
    at n = 4000, m = 800, and 0.79-0.85 ms against 0.45-0.49 ms at n = 400."""
    B = np.empty(m + 1)
    B[0] = -gamma
    pred = np.zeros(m + 1, dtype=np.int64)
    cost = np.empty(m + 1)  # cost[r]: cost of the interval picked at column r
    U = np.zeros(1, dtype=np.int64)
    r = 1
    while r <= m:
        C = _block(column(U, r), U, r, m)
        if C.shape[0] != 1:
            raise ValueError(f"a scalar gamma takes one cost row, got {C.shape[0]}")
        u, b = U.size, C.shape[1]
        V = np.concatenate([U, np.arange(r, r + b - 1, dtype=np.int64)])
        BV = np.empty(V.size)  # B at V; +inf once pruned
        BV[:u] = B[U]
        for t in range(b):  # column r+t reads the live prefix V[:u+t]
            live = u + t
            if t:
                BV[live - 1] = B[r + t - 1]
            c, bv = C[0, t, :live], BV[:live]
            v = bv + gamma + c
            k = int(np.argmin(v))  # first minimum: ties keep the smallest j
            B[r + t] = v[k]
            pred[r + t] = V[k]
            cost[r + t] = c[k]
            if prune:  # the keep test for column r+t+1; j = r+t always survives
                bv[bv + c > B[r + t]] = np.inf
        r += b
        U = np.append(V[BV < np.inf], r - 1)
    return _backtrack(pred, cost, gamma, m)


def _lockstep(column, m: int, gammas, prune: bool):
    """The DPs of every (cost row h, penalty j) pair in one pass over the
    columns, as rows g = h*J + j of (G, .) arrays; returns [h][j] ->
    (Partition, objective)."""
    gam = np.asarray(gammas, dtype=float)
    U = np.zeros(1, dtype=np.int64)
    C = _block(column(U, 1), U, 1, m)
    H, J = C.shape[0], gam.size
    G = H * J
    gam_g = np.tile(gam, H)[:, None]
    dps = np.arange(G)
    B = np.empty((G, m + 1))
    B[:, 0] = -gam_g[:, 0]
    pred = np.zeros((G, m + 1), dtype=np.int64)
    cost = np.empty((G, m + 1))  # cost[g, r]: cost of the interval picked at column r
    BU = B[:, :1].copy()  # B at U; +inf where the row has pruned j
    r = 1
    while True:
        C = np.repeat(C, J, axis=0)  # row g = h*J + j reads cost row h
        u, b = U.size, C.shape[1]
        V = np.concatenate([U, np.arange(r, r + b - 1, dtype=np.int64)])
        BV = np.empty((G, V.size))
        BV[:, :u] = BU
        for t in range(b):  # column r+t reads the live prefix V[:u+t]
            live = u + t
            if t:
                BV[:, live - 1] = B[:, r + t - 1]
            c, bv = C[:, t, :live], BV[:, :live]
            v = bv + gam_g + c
            k = np.argmin(v, axis=1)  # first minimum: ties keep the smallest j
            B[:, r + t] = v[dps, k]
            pred[:, r + t] = V[k]
            cost[:, r + t] = c[dps, k]
            if prune:  # a pruned j stays at +inf, and j = r+t always survives
                bv[bv + c > B[:, r + t, None]] = np.inf
        r += b
        if r > m:
            break
        cols = np.flatnonzero((BV < np.inf).any(axis=0))
        U = np.append(V[cols], r - 1)
        BU = np.concatenate([BV[:, cols], B[:, r - 1 : r]], axis=1)
        C = _block(column(U, r), U, r, m)
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
