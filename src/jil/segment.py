"""Penalized dynamic-programming segmentation of the treatment grid.

Minimizes sum_I cost(I) + gamma * |P| over all grid-aligned partitions of
[0, 1]. The Bellman recursion runs over right endpoints r = 1..m with
B(0) = -gamma and

    B(r) = min_{j in R_r} { B(j) + gamma + cost([j/m, r/m)) },

where R_r holds r-1 and each j of R_{r-1} that passes the PELT keep test

    B(j) + cost([j/m, (r-1)/m)) <= B(r-1).

pelt always runs the keep test. The exact DP, dp_no_prune, is the one way to
skip it: it forces the test true, so R_r holds every j < r. Zero-slack
pruning is exact when splitting an interval never increases total cost (true
for least-squares costs); dp_no_prune makes any divergence on other cost
structures observable. Both check their arguments and run _dp through one
private step, _solve.

The DP runs column by column: step r takes the first minimum of
B(j) + gamma + cost([j/m, r/m)) over R_r, so ties keep the smallest j. The
prune test at step r reuses the costs of step r-1, so pruning costs no
further lookups.

The cost function argument is a callable over grid index pairs, in one of
two forms. By default it is scalar, (lo, hi) -> float for 0 <= lo < hi <= m,
and the DP calls it once per candidate pair in ascending lo within each
column (CostCache.costfn reads a precompute=True table in this form). Given
a block budget (budget=, an integer >= 0), the form the library's fits use,
it is a pair function, the one contract every cost table serves:

- costs(los, his) takes int64 index arrays in [0, m] that broadcast to a
  shape S and returns (H,) + S costs, one row per cost function: entry
  [h, ...] is the cost of [lo/m, hi/m) under the h-th, and exactly 0 where
  lo >= hi. It is elementwise, so a cost has the same bits in any call. An
  index outside [0, m] raises ValueError.
- This module alone sizes the blocks. At column r, over the candidates U,
  _block_width gives the widest b <= m+1-r whose rectangle of pairs
  (V[k], r+t), V = U followed by r, ..., r+b-2, holds at most budget pairs
  per cost row (b = 1 when none fits), and the DP makes one call,
  costs(V[None, :], arange(r, r+b)[:, None]) -> (H, b, |U|+b-1).
- The DP runs columns r, ..., r+b-1 from the block, holding B at V with
  +inf for a candidate it has pruned, and column r+t reads only the live
  prefix V[:|U|+t] (the pairs past it have lo >= hi and are never read).
  It calls again at r+b with the candidates that survive, so U at a call
  is within R_r: R_r itself, less any candidate a certificate (below) has
  dropped (in the grid form below, the union of the DPs' sets). The
  candidate sets only shrink apart from the newest candidate (R_{r+t} is
  within R_r + {r, ..., r+t-1}), so no cost is asked for twice.

The scalar form runs through the same path: _per_pair, the one adapter from
per-pair values to the pair contract (fit.NetworkCosts.costs is served by
it too), turns it into a pair function, and its budget is 0, so each block
is one column. With a scalar gamma, H != 1 raises ValueError, and so does
a grid call whose H differs from the first call's; a return of any other
shape raises ValueError.
Either way the DP asks for each cost once and calls the costfn for nothing
else: it keeps the cost of the interval it picks at each column, and the
reported objective sums the kept costs of the backtracked partition from
left to right. So pelt, dp_no_prune and any reference search that sums
interval costs in the same order return bit-identical numbers whenever
their partitions agree, whatever the budget. The DP tables themselves are
not returned.

Grid form. With a 1-D sequence of J penalties in place of gamma, one call
runs a whole grid of DPs together, one per (cost row, penalty) pair. The
pair function then returns H cost rows: row h holds the costs under the
h-th of H cost functions (one per ridge lambda, say), and U, the union of
the candidate sets of all H*J DPs at r, is what each call is asked for.
Every DP reads its own cost row, keeps its own survivors and ties as above,
so each returns bit for bit what a separate call with that row's costs and
its penalty returns. The result is a list over the H cost rows, each a list
over the J penalties of (Partition, objective). Column r's candidates are
decided from column r-1 alone, so the state is O(H J m) whatever the grid.
Costs must be finite: a candidate a DP has pruned but another still holds
sits at +inf in that DP's entry.

Functional pruning. PELT never drops a candidate inside the current
segment: with j' < j the last change point of column r's optimum,
B(j) + cost([j, r)) - B(r) is at most
cost([j', j)) + cost([j, r)) - cost([j', r)) <= 0. So sum |R_r| stays near
a third of m(m+1)/2. A table whose costs are quadratics in shared
coefficients can hand pelt a certificate by keyword
(certificate=table.certificate, the bound method CostCache.certificate;
dp_no_prune takes none) that drops such candidates for good, as FPOP does
(Maidstone, Hocking, Rigaill & Fearnhead 2017, Stat. Comput. 27). After
column s, candidate j's value at any later column r is min over theta of
q_j(theta) + g_r(theta), with q_j(theta) = B(j) + gamma + (j's cost of
[j, s) at theta) and g_r >= 0 the same for every candidate; the newest
candidate s has the constant
q_s = F = B(s) + gamma. So if q_j >= min(q_i, F) + eps everywhere for some
competitor i and eps > 0, j never again attains a column's minimum. By the
S-lemma (Polik & Terlaky 2007, SIAM Rev. 49(3)) it suffices that

    cert = min over theta of [(1+mu) q_j - q_i] - mu F > margin

for some mu >= 0, since then q_j >= min(q_i, F) + margin/(1+mu). At a block
boundary with s = r-1 the DP takes i = pred[s], tries mu in _MUS and asks
the table (cost.py) for the quadratic part's minimum, -inf where it is
unbounded or flat. The margin is _MARGIN = 1e-9 times the sum of the
sizes of cert's terms (each >= 0) and of the quadratic's outcome entries,
far above the rounding of any cost the DP compares: so a dropped candidate
is never a column's first minimum, ties come out as in plain PELT, and a
certified DP returns plain PELT's and the exact DP's bits. A check costs
about one kernel call, so it runs only where it pays, after _CERTIFY_EVERY
columns since the last and while |U| times the columns left reaches
_CERTIFY_WORK; no fit with m <= 220 checks at all. In the grid form each
DP certifies with its own competitor, B and gamma, the (competitor, cost
row) stacks are formed once across the DPs, and j leaves U only when
every DP has pruned or certified it. fit.NetworkCosts.certificate is
None, a class attribute: a trained network's cost is not a quadratic in
coefficients shared across intervals, so its DP prunes by PELT's keep test
alone (and that is not exact either; see fit.fit_djil). A scalar costfn
has no certificate either. A block whose B values are not finite raises
ValueError naming the first such column, so no NaN objective is returned
and the certificate never reads a non-finite B.

One DP body (_dp) serves both forms. Its state is indexed [column or
candidate, DP], with the DP axis last: a scalar gamma has no DP axis, and a
grid has one of length G = H*J, DP g = h*J + j. So the same lines run a lone
fit over 1-D arrays and a grid over (., G) arrays, and a one-element gamma
list is a grid of G = H DPs.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Partition, _real, _whole
from .errors import InvalidPenalty

__all__ = ["dp_no_prune", "pelt"]

# functional pruning: the S-lemma multipliers mu, and the margin a
# certificate must clear, relative to the size of its terms
_MUS = np.array([1.0, 4.0, 16.0])
_MARGIN = 1e-9
# a certificate costs about one kernel call (about 0.2 ms at |U| = 280,
# 2-vCPU Xeon, numpy 2.4), so it runs at a block boundary only after
# _CERTIFY_EVERY columns since the last, and while |U| times the columns
# left reaches _CERTIFY_WORK pairs, 8 blocks of cost._BLOCK_PAIRS. Lone fits
# (scenario 1, seed 7, medians of 21 interleaved runs at n = 4000, 9 at
# 8000): 23.6 ms with no check, 20.8 / 19.7 / 19.5 / 20.3 ms every 16 / 32
# / 48 / 64 columns at n = 4000, and 99.8 against 56.5 ms at 8000 (every
# 32); halving or doubling _CERTIFY_WORK moved neither beyond noise. Without
# the work gate a fit at m = 80 took 1.8 ms instead of 1.5 ms (medians of 41)
_CERTIFY_EVERY = 32
_CERTIFY_WORK = 8 * 1536


def _per_pair(values):
    """The pair function over per-pair values: costs(los, his) broadcasts
    the index arrays, hands values(lo_list, hi_list) the live pairs lo < hi
    as two lists of ints in row-major order, and returns the costs values
    gives them as one cost row, 0 for a pair lo >= hi. It serves the scalar
    form and fit.NetworkCosts."""

    def costs(los, his):
        los, his = np.broadcast_arrays(los, his)
        live = los < his
        out = np.zeros((1,) + los.shape)
        out[0, live] = values(los[live].tolist(), his[live].tolist())
        return out

    return costs


def _block_width(u: int, left: int, budget: int) -> int:
    """Largest b with b*(u+b-1) <= budget, at most left, at least 1: the
    width of a block of columns over u candidates, whose rectangle of pairs
    (V[k], r+t) holds b*(u+b-1) of them, with left columns still to run."""
    k = u - 1  # the bound is (2b + k)^2 <= k^2 + 4 * budget
    return max(1, min((math.isqrt(k * k + 4 * budget) - k) // 2, left))


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


def _block(costs, U: np.ndarray, r: int, m: int, budget: int):
    """(V, C): the block at column r over the candidates U, V = U followed by
    r, ..., r+b-2 with b = _block_width's, and its costs C, one costs call
    over the rectangle of pairs (V[k], r+t), checked to be (H, b, |V|)."""
    b = _block_width(U.size, m + 1 - r, budget)
    V = np.concatenate([U, np.arange(r, r + b - 1, dtype=np.int64)])
    C = np.asarray(costs(V[None, :], np.arange(r, r + b)[:, None]))
    if C.ndim != 3 or C.shape[1:] != (b, V.size):
        raise ValueError(f"block ({U}, {r}) of width {b} returned costs of shape {C.shape}")
    return V, C


def _held(BV: np.ndarray) -> np.ndarray:
    """Mask of the candidates some DP still holds (B below +inf)."""
    held = BV < np.inf
    return held.any(axis=1) if held.ndim > 1 else held


def _dominated(certify, U, BU, B, pred, gam, J: int, s: int) -> np.ndarray:
    """Mask of BU, True where the S-lemma certificate drops candidate j of
    U for good in that DP at column s. The competitor is i = pred[s] and
    the newest candidate's value F = B(s) + gamma; j goes when, for some mu
    of _MUS, (1+mu)(B(j) + gamma) - (B(i) + gamma) - mu F plus certify's
    low exceeds _MARGIN times the sum of those terms' sizes and its scale
    (every term is >= 0). The (competitor, cost row) pairs are deduplicated
    across the DPs of a grid."""
    i, F = pred[s], B[s] + gam
    if BU.ndim == 1:  # one DP, one pair
        qi = B[i] + gam
        low, scale = (x[:, 0] for x in certify(U, s, np.array([[i, 0]]), _MUS))
    else:  # DP g reads cost row g // J
        qi = B[i, np.arange(i.size)] + gam
        keys = list(zip(i.tolist(), (np.arange(i.size) // J).tolist()))
        index = {key: p for p, key in enumerate(dict.fromkeys(keys))}
        low, scale = (x[:, [index[key] for key in keys]].swapaxes(1, 2)
                      for x in certify(U, s, np.array(list(index)), _MUS))
    mu = _MUS.reshape((-1,) + (1,) * BU.ndim)
    with np.errstate(invalid="ignore"):  # inf - inf where a DP has pruned j
        qj = BU + gam
        cert = (1.0 + mu) * qj - qi - mu * F + low
        return (cert > _MARGIN * ((1.0 + mu) * qj + qi + mu * F + scale)).any(axis=0)


def _dp(costs, m: int, gamma, prune: bool, certify, budget: int):
    """The one DP body: every DP of the call in one pass over the columns.

    State is indexed [column or candidate, DP], the DP axis last. A float
    gamma has no DP axis: B, pred and cost are (m+1,) and a column's
    candidates are 1-D, so the lines below index them with plain integers,
    and it returns (Partition, objective). An ndarray of J penalties over H
    cost rows adds a trailing axis of G = H*J DPs, DP g = h*J + j reading
    cost row h at penalty j, and returns [h][j] -> (Partition, objective).
    Each block (one costs call, by _block) is expanded once to [t, k] or
    [t, k, g]; each column records its first argmins K[t], and pred and the
    kept costs are gathered from V and the block once per block.
    """
    grid = isinstance(gamma, np.ndarray)
    U = np.zeros(1, dtype=np.int64)
    V, C = _block(costs, U, 1, m, budget)
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
    r = checked = 1
    while True:
        if C.shape[0] != H:  # a float gamma reads one cost row, a grid the same H
            raise ValueError(f"block ({U}, {r}) returned {C.shape[0]} cost rows, expected {H}")
        C = C.transpose(1, 2, 0).repeat(J, axis=-1) if grid else C[0]  # [t, k(, g)]
        u, b = U.size, C.shape[0]
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
        if not np.isfinite(B[r : r + b]).all():
            t = int(np.flatnonzero(~np.isfinite(B[r : r + b].reshape(b, -1)).all(axis=1))[0])
            raise ValueError(
                f"column {r + t}: DP value {B[r + t]} is not finite; costs must be finite")
        pred[r : r + b] = V[K]
        cost[r : r + b] = C[(ts[:b], K) + dps]
        r += b
        if r > m:
            break
        keep = _held(BV)
        U = np.append(V[keep], r - 1)
        BU = np.concatenate([BV[keep], B[r - 1 : r]])
        work = U.size * (m + 1 - r)
        if certify is not None and r - checked >= _CERTIFY_EVERY and work >= _CERTIFY_WORK:
            checked = r
            BU[_dominated(certify, U, BU, B, pred, gam, J, r - 1)] = np.inf
            keep = _held(BU)
            U, BU = U[keep], BU[keep]
        V, C = _block(costs, U, r, m, budget)
    if not grid:
        return _backtrack(pred, cost, gamma, m)
    return [
        [_backtrack(pred[:, h * J + j], cost[:, h * J + j], float(gamma[j]), m) for j in range(J)]
        for h in range(H)
    ]


def _solve(costfn, m, gamma, budget, prune: bool, certify):
    """Check the arguments of pelt or dp_no_prune and run _dp: gamma a
    finite real >= 0 or a non-empty sequence of them (InvalidPenalty), m an
    integer >= 1 and a budget an integer >= 0 (ValueError). Without a
    budget the scalar costfn runs through _per_pair under budget 0."""
    grid = np.ndim(gamma) > 0
    if grid and len(gamma) == 0:
        raise InvalidPenalty("the grid form needs at least one gamma")
    for g in gamma if grid else (gamma,):
        if _real("gamma", g, InvalidPenalty) < 0:
            raise InvalidPenalty(f"gamma must be >= 0, got {g!r}")
    m = _whole("grid resolution", m)
    if budget is None:  # one costfn call per live pair, in one-column blocks
        costs, budget = _per_pair(lambda los, his: list(map(costfn, los, his))), 0
    else:
        costs, budget = costfn, _whole("block budget", budget, least=0)
    gamma = np.array(gamma, dtype=float) if grid else float(gamma)
    return _dp(costs, m, gamma, prune, certify, budget)


def pelt(costfn, m: int, gamma, *, budget=None, certificate=None):
    """Penalized segmentation by the pruned DP (PELT's keep test).

    Returns (Partition, objective) where objective = sum of interval costs
    plus gamma per interval; given a 1-D sequence of penalties, runs the
    grid form and returns its [h][j] -> (Partition, objective) lists. Both
    run the one DP body, _dp: a scalar gamma over 1-D state, a sequence
    over state with a trailing axis of one DP per (cost row, penalty).
    Without a budget costfn is scalar, (lo, hi) -> float; with one, an
    integer >= 0 of pairs per cost row a block may hold (a cost table's
    budget), it is a pair function costs(los, his) (the table's costs).
    certificate, a cost table's dominance bound (its certificate
    attribute: CostCache.certificate, None for fit.NetworkCosts), adds
    functional pruning to PELT's keep test.
    """
    return _solve(costfn, m, gamma, budget, True, certificate)


def dp_no_prune(costfn, m: int, gamma, *, budget=None):
    """Exact DP over all predecessors (reference implementation): pelt's
    arguments and forms, with neither the keep test nor a certificate."""
    return _solve(costfn, m, gamma, budget, False, None)
