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

CostCache and fit.NetworkCosts size their blocks by one width rule,
cost._block_width, each under its own budget; the scalar form's adapter
returns blocks of one column, (1, 1, |U|). With a scalar gamma, H != 1
raises ValueError, and so does a grid call whose H differs from the first
call's; a return of any other shape raises ValueError. Either way the DP
asks for each cost once and calls the costfn for nothing else: it keeps the
cost of the interval it picks at each column, and the reported objective
sums the kept costs of the backtracked partition from left to right. So
pelt, dp_no_prune and any reference search that sums interval costs in the
same order return bit-identical numbers whenever their partitions agree,
whatever the block widths. The DP tables themselves are not returned.

Grid form. With a 1-D sequence of J penalties in place of gamma, one call
runs a whole grid of DPs together, one per (cost row, penalty) pair. The
column function then returns H cost rows: row h holds the costs under the
h-th of H cost functions (one per ridge lambda, say), and U, the union of
the candidate sets of all H*J DPs at r, is what each call is asked for.
Every DP reads its own cost row, keeps its own survivors and ties as above,
so each returns bit for bit what a separate call with that row's costs and
its penalty returns. The result is a list over the H cost rows, each a list
over the J penalties of (Partition, objective). Column r's candidates are
decided from column r-1 alone, so the state is O(H J m) whatever the grid.
Costs must be finite: a candidate a DP has pruned but another still holds
sits at +inf in that DP's entry.

One DP body (_dp) serves both forms. Its state is indexed [column or
candidate, DP], with the DP axis last: a scalar gamma has no DP axis, and a
grid has one of length G = H*J, DP g = h*J + j. So the same lines run a lone
fit over 1-D arrays and a grid over (., G) arrays, and a one-element gamma
list is a grid of G = H DPs.
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


def _dp(column, m: int, gamma, prune: bool):
    """The one DP body: every DP of the call in one pass over the columns.

    State is indexed [column or candidate, DP], the DP axis last. A float
    gamma has no DP axis: B, pred and cost are (m+1,) and a column's
    candidates are 1-D, so the lines below index them with plain integers,
    and it returns (Partition, objective). An ndarray of J penalties over H
    cost rows adds a trailing axis of G = H*J DPs, DP g = h*J + j reading
    cost row h at penalty j, and returns [h][j] -> (Partition, objective).
    Each block is expanded once to [t, k] or [t, k, g]; each column records
    its first argmins K[t], and pred and the kept costs are gathered from V
    and the block once per block.
    """
    grid = isinstance(gamma, np.ndarray)
    U = np.zeros(1, dtype=np.int64)
    C = _block(column(U, 1), U, 1, m)
    H, J = (C.shape[0], gamma.size) if grid else (1, 1)
    gam = np.tile(gamma, H) if grid else gamma
    # index tails: v[(k,) + dps] is each DP's entry at its argmin, and
    # C[(ts[:b], K) + dps] each kept cost of a block
    dps = (np.arange(gam.size),) if grid else ()
    ts = np.arange(m + 1)[:, None] if grid else np.arange(m + 1)
    B = np.empty((m + 1,) + np.shape(gam))
    B[0] = -gam
    pred = np.zeros(B.shape, dtype=np.int64)
    cost = np.empty(B.shape)  # cost[r]: cost of the interval picked at column r
    BU = B[:1].copy()  # B at U; +inf where a DP has pruned j
    r = 1
    while True:
        if C.shape[0] != H:  # a float gamma reads one cost row, a grid the same H
            raise ValueError(f"column ({U}, {r}) returned {C.shape[0]} cost rows, expected {H}")
        C = C.transpose(1, 2, 0).repeat(J, axis=-1) if grid else C[0]  # [t, k(, g)]
        u, b = U.size, C.shape[0]
        V = np.concatenate([U, np.arange(r, r + b - 1, dtype=np.int64)])
        BV = np.empty((V.size,) + B.shape[1:])
        BV[:u] = BU
        K = np.empty((b,) + B.shape[1:], dtype=np.int64)
        for t in range(b):  # column r+t reads the live prefix V[:u+t]
            live = u + t
            if t:
                BV[live - 1] = B[r + t - 1]
            c, bv = C[t, :live], BV[:live]
            v = bv + gam + c
            k = K[t] = v.argmin(axis=0)  # first minimum: ties keep the smallest j
            B[r + t] = v[(k,) + dps]
            if prune:  # a pruned j stays at +inf, and j = r+t always survives
                bv[bv + c > B[r + t]] = np.inf
        pred[r : r + b] = V[K]
        cost[r : r + b] = C[(ts[:b], K) + dps]
        r += b
        if r > m:
            break
        keep = BV < np.inf
        if grid:  # a candidate survives while one DP holds it
            keep = keep.any(axis=1)
        U = np.append(V[keep], r - 1)
        BU = np.concatenate([BV[keep], B[r - 1 : r]])
        C = _block(column(U, r), U, r, m)
    if not grid:
        return _backtrack(pred, cost, gamma, m)
    return [
        [_backtrack(pred[:, h * J + j], cost[:, h * J + j], float(gamma[j]), m) for j in range(J)]
        for h in range(H)
    ]


def pelt(costfn, m: int, gamma, prune: bool = True, *, batched: bool = False):
    """Penalized segmentation with (optionally pruned) DP.

    Returns (Partition, objective) where objective = sum of interval costs
    plus gamma per interval; given a 1-D sequence of penalties, runs the
    grid form and returns its [h][j] -> (Partition, objective) lists. Both
    run the one DP body, _dp: a scalar gamma over 1-D state, a sequence
    over state with a trailing axis of one DP per (cost row, penalty).
    """
    grid = np.ndim(gamma) > 0
    if grid and len(gamma) == 0:
        raise InvalidPenalty("the grid form needs at least one gamma")
    for g in gamma if grid else (gamma,):
        _check_gamma(g)
    if m < 1:
        raise ValueError(f"grid resolution must be >= 1, got {m}")
    column = costfn if batched else _per_pair(costfn)
    return _dp(column, m, np.array(gamma, dtype=float) if grid else float(gamma), prune)


def dp_no_prune(costfn, m: int, gamma, *, batched: bool = False):
    """Exact DP over all predecessors (reference implementation)."""
    return pelt(costfn, m, gamma, prune=False, batched=batched)
