"""Penalized DP segmentation: Bellman recursion, PELT pruning, enumeration."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from conftest import block_columns, cost_oracle, enumerate_partitions, reference_calls, reference_pelt
from jil.core import Dataset, Interval, Partition
from jil.cost import CostCache
from jil.errors import InvalidPenalty
from jil.segment import dp_no_prune, pelt


def table_costfn(table):
    return lambda lo, hi: table[lo, hi]


def recording_costfn(table):
    """Column costfn over a table, returning one-column blocks (1, 1, |R_r|),
    that records each DP column call (R_r, r)."""
    columns = []

    def fn(lo, hi):
        assert isinstance(lo, np.ndarray)  # the column DP makes no scalar call
        columns.append((lo.copy(), hi))
        return table[lo, hi][None, None]

    return fn, columns


def replay(columns, table, gamma):
    """B(0..m) and pred rebuilt in the test from recorded candidate sets."""
    m = len(columns)
    B = np.empty(m + 1)
    B[0] = -gamma
    pred = np.zeros(m + 1, dtype=np.int64)
    for R, r in columns:
        v = B[R] + gamma + table[R, r]
        k = int(np.argmin(v))
        B[r], pred[r] = v[k], R[k]
    return B, pred


def random_cost_table(rng, m):
    """Arbitrary non-negative cost table (no structure)."""
    t = rng.uniform(0.0, 2.0, size=(m + 1, m + 1))
    return np.triu(t, k=1)


def sse_cost_table(rng, m, n=None):
    """Least-squares (intercept-only) cost table from random data.

    These costs satisfy cost(A) + cost(B) <= cost(A u B) for abutting
    intervals, the condition under which zero-slack pruning is exact.
    Built with the independent conftest oracle.
    """
    n = n or 3 * m
    A = rng.random(n)
    Y = rng.standard_normal(n) + 2.0 * (A > rng.random())
    X = np.zeros((n, 0))
    table = np.zeros((m + 1, m + 1))
    for lo in range(m):
        for hi in range(lo + 1, m + 1):
            table[lo, hi] = cost_oracle(X, A, Y, lo, hi, m, 0.0)
    return table


def brute_force_best(table, m, gamma):
    """In-test exhaustive minimizer with the stated tie-break.

    Independent of conftest's enumerate_partitions: iterates boundary
    subsets via itertools.combinations.
    """
    best = None
    for k in range(m):
        for cuts in combinations(range(1, m), k):
            edges = (0,) + cuts + (m,)
            obj = 0.0
            for lo, hi in zip(edges[:-1], edges[1:]):
                obj += table[lo, hi]
            obj += gamma * (len(edges) - 1)
            key = (obj, len(edges) - 1, cuts)
            if best is None or key < best:
                best = key
    return best


# --------------------------------------------------------------- examples


def test_zero_costs_single_interval():
    m = 7
    part, obj = pelt(lambda lo, hi: 0.0, m, 0.9)
    assert part.size == 1
    assert part.intervals[0] == Interval(0, m, m)
    assert obj == 0.9


def test_m_equals_one():
    part, obj = dp_no_prune(lambda lo, hi: 5.0, 1, 0.3)
    assert part.size == 1
    assert obj == 5.3


def test_enumerate_hand_arithmetic_split():
    # costs: halves cost 1 each, full interval 3; gamma 0.5 favors the split
    table = np.zeros((3, 3))
    table[0, 1] = table[1, 2] = 1.0
    table[0, 2] = 3.0
    part, obj = enumerate_partitions(table_costfn(table), 2, 0.5)
    assert part.size == 2
    assert obj == 1.0 + 1.0 + 2 * 0.5


def test_enumerate_hand_arithmetic_merge():
    table = np.zeros((3, 3))
    table[0, 1] = table[1, 2] = 1.0
    table[0, 2] = 3.0
    part, obj = enumerate_partitions(table_costfn(table), 2, 2.0)
    assert part.size == 1
    assert obj == 3.0 + 2.0


def test_exact_tie_prefers_fewer_intervals():
    # split and merge tie exactly: cost 1+1 vs 2, gamma 0
    table = np.zeros((3, 3))
    table[0, 1] = table[1, 2] = 1.0
    table[0, 2] = 2.0
    for solver in (enumerate_partitions, dp_no_prune, pelt):
        part, obj = solver(table_costfn(table), 2, 0.0)
        assert part.size == 1, solver.__name__
        assert obj == 2.0


def test_step_data_change_point_recovered(rng):
    # intercept-only data with a jump at a = 0.5
    m = 10
    n = 80
    A = (np.arange(n) + 0.5) / n
    Y = np.where(A < 0.5, 0.0, 10.0) + 0.01 * rng.standard_normal(n)
    X = np.zeros((n, 0))
    table = np.zeros((m + 1, m + 1))
    for lo in range(m):
        for hi in range(lo + 1, m + 1):
            table[lo, hi] = cost_oracle(X, A, Y, lo, hi, m, 0.0)
    gamma = 0.05
    part, obj = pelt(table_costfn(table), m, gamma)
    assert part.edges() == [0, 5, 10]
    # cross-check against the independent exhaustive search
    obj_b, k_b, cuts_b = brute_force_best(table, m, gamma)
    assert cuts_b == (5,)
    assert obj == pytest.approx(obj_b, abs=1e-12)


def test_gamma_zero_subadditive_finest(rng):
    # strictly subadditive costs: splitting always pays, finest wins
    m = 8
    table = np.zeros((m + 1, m + 1))
    for lo in range(m):
        for hi in range(lo + 1, m + 1):
            table[lo, hi] = ((hi - lo) / m) ** 2
    for solver in (enumerate_partitions, dp_no_prune, pelt):
        part, _ = solver(table_costfn(table), m, 0.0)
        assert part.size == m, solver.__name__


# ----------------------------------------------------------------- errors


def test_invalid_penalty():
    for bad in (-0.1, np.nan, np.inf):
        with pytest.raises(InvalidPenalty):
            pelt(lambda lo, hi: 0.0, 4, bad)
        with pytest.raises(InvalidPenalty):
            dp_no_prune(lambda lo, hi: 0.0, 4, bad)


@pytest.mark.parametrize("gamma", [0.1, [0.1, 0.2]], ids=["scalar", "grid"])
def test_pelt_rejects_empty_grid(gamma):
    with pytest.raises(ValueError, match="grid resolution must be >= 1"):
        pelt(lambda lo, hi: 0.0, 0, gamma)


def test_penalty_accepts_numpy_integer():
    fn = lambda lo, hi: float(hi - lo) ** 2
    assert pelt(fn, 5, np.int64(1)) == pelt(fn, 5, 1.0)
    assert dp_no_prune(fn, 5, np.int64(0)) == dp_no_prune(fn, 5, 0.0)
    assert pelt(fn, 5, np.int32(2)) == enumerate_partitions(fn, 5, 2.0)


def test_penalty_rejects_bool():
    for bad in (True, False, np.bool_(True)):
        for solver in (pelt, dp_no_prune):
            with pytest.raises(InvalidPenalty):
                solver(lambda lo, hi: 0.0, 4, bad)


# ------------------------------------------------------- oracle agreement


def test_triple_agreement_on_least_squares_tables(rng):
    for trial in range(50):
        m = int(rng.integers(2, 13))
        table = sse_cost_table(rng, m)
        gamma = float(rng.uniform(0.0, 1.0))
        fn = table_costfn(table)
        p1, o1 = enumerate_partitions(fn, m, gamma)
        p2, o2 = dp_no_prune(fn, m, gamma)
        p3, o3 = pelt(fn, m, gamma)
        assert o1 == o2 == o3
        assert p1 == p2 == p3


def test_unpruned_dp_matches_enumeration_on_arbitrary_tables(rng):
    # arbitrary tables can defeat zero-slack pruning, but the unpruned DP
    # and the exhaustive search must still agree exactly
    for trial in range(30):
        m = int(rng.integers(2, 11))
        table = random_cost_table(rng, m)
        gamma = float(rng.uniform(0.0, 1.5))
        fn = table_costfn(table)
        p1, o1 = enumerate_partitions(fn, m, gamma)
        p2, o2 = dp_no_prune(fn, m, gamma)
        assert o1 == o2
        assert p1 == p2
        obj_b, _, cuts_b = brute_force_best(table, m, gamma)
        assert o1 == pytest.approx(obj_b, abs=1e-12)
        assert tuple(e for e in p1.edges()[1:-1]) == cuts_b


def test_pelt_unpruned_switch_matches_dp(rng):
    for trial in range(10):
        m = int(rng.integers(2, 11))
        table = random_cost_table(rng, m)
        fn = table_costfn(table)
        p1, o1 = pelt(fn, m, 0.4, prune=False)
        p2, o2 = dp_no_prune(fn, m, 0.4)
        assert o1 == o2 and p1 == p2


# ------------------------------------------------------------- properties


def test_penalty_monotonicity(rng):
    for trial in range(10):
        m = 10
        table = sse_cost_table(rng, m)
        fn = table_costfn(table)
        sizes = []
        for gamma in (0.0, 0.01, 0.05, 0.2, 1.0, 5.0):
            part, _ = pelt(fn, m, gamma)
            sizes.append(part.size)
        for a, b in zip(sizes, sizes[1:]):
            assert b <= a


def test_objective_is_recomputable(rng):
    m = 9
    table = sse_cost_table(rng, m)
    fn = table_costfn(table)
    gamma = 0.07
    part, obj = pelt(fn, m, gamma)
    # the kept costs summed left to right: the same bits as a fresh sum
    recomputed = sum(fn(iv.lo, iv.hi) for iv in part.intervals) + gamma * part.size
    assert float(obj).hex() == float(recomputed).hex()
    assert type(obj) is float
    assert isinstance(part, Partition)


def test_bellman_state_invariants(rng):
    m = 8
    table = sse_cost_table(rng, m)
    fn, columns = recording_costfn(table)
    gamma = 0.1
    part, _ = pelt(fn, m, gamma, batched=True)
    assert [r for _, r in columns] == list(range(1, m + 1))
    R = {r: cands for cands, r in columns}
    B, pred = replay(columns, table, gamma)
    # the partition backtracks through the rebuilt predecessors
    edges = [m]
    while edges[-1] > 0:
        edges.append(int(pred[edges[-1]]))
    assert part.edges() == edges[::-1]
    for r in range(1, m + 1):
        assert R[r].dtype == np.int64
        assert np.all(np.diff(R[r]) > 0) and R[r][-1] == r - 1
        assert B[r] == pytest.approx(B[pred[r]] + gamma + table[pred[r], r], abs=1e-12)
    # pruning rule recheck: R_r built from R_{r-1} u {r-1}
    for r in range(2, m + 1):
        allowed = set(R[r - 1].tolist()) | {r - 1}
        assert set(R[r].tolist()) <= allowed
        for j in R[r].tolist():
            c = table[j, r - 1] if j < r - 1 else 0.0
            assert B[j] + c <= B[r - 1] + 1e-12


# ------------------------------------------------------ batched column form


def seeded_tables(rng):
    """Arbitrary, tie-rich, all-zero and least-squares cost tables."""
    for m in (1, 2, 7, 25):
        yield np.triu(rng.uniform(0.0, 2.0, size=(m + 1, m + 1)), k=1)
        yield np.triu(0.5 * rng.integers(0, 3, size=(m + 1, m + 1)), k=1)
        yield np.zeros((m + 1, m + 1))
    yield sse_cost_table(rng, 12)


@pytest.mark.parametrize("prune", [True, False])
def test_batched_matches_per_pair_bitwise(rng, prune):
    solver = pelt if prune else dp_no_prune
    for table in seeded_tables(rng):
        m = table.shape[0] - 1
        for gamma in (0.0, 0.5, 1.0):
            pairs = []

            def scalar(lo, hi):
                pairs.append((lo, hi))
                return table[lo, hi]

            fn, columns = recording_costfn(table)
            part, obj = solver(scalar, m, gamma)
            part_b, obj_b = solver(fn, m, gamma, batched=True)
            assert part_b == part
            assert float(obj_b).hex() == float(obj).hex()
            # the per-pair DP asked for the same candidates, column by column,
            # and for nothing else
            assert pairs == [(j, r) for R, r in columns for j in R.tolist()]
            if not prune:
                assert all(np.array_equal(R, np.arange(r)) for R, r in columns)


def test_column_calls_and_candidate_arrays(rng):
    m = 10
    table = sse_cost_table(rng, m)
    pairs = []

    def scalar(lo, hi):
        pairs.append((lo, hi))
        return table[lo, hi]

    column, columns = recording_costfn(table)
    part, _ = pelt(scalar, m, 0.1)
    assert pelt(column, m, 0.1, batched=True)[0] == part
    # one scalar call per candidate, none repeated by the prune test and
    # none after the last column: the objective sums the costs the DP kept
    assert pairs == [(j, r) for R, r in columns for j in R.tolist()]
    assert len(columns) == m
    for r, (lo, hi) in enumerate(columns, start=1):
        assert hi == r and lo.dtype == np.int64


# ------------------------------------------------------------ block form


@pytest.mark.parametrize("prune", [True, False])
def test_block_dp_matches_column_reference(rng, prune):
    # fed blocks of every width 1..m, the DP returns the reference
    # column-form PELT's partitions and objective bits, for scalar gammas,
    # for one-element gamma lists (a grid of one DP) and for a grid over two
    # cost rows, and opens each block with the reference's candidate set at
    # its first column (the union over the grid); entries past a column's
    # live prefix are NaN, so reading one would show in the objective
    solver = pelt if prune else dp_no_prune
    gammas = (0.0, 0.5, 1.0)
    tables = list(seeded_tables(rng))
    for k, table in enumerate(tables):
        m = table.shape[0] - 1
        other = tables[k - 1] if tables[k - 1].shape == table.shape else table[::-1, ::-1].T
        stack = np.stack([table, other])
        refs = [[reference_pelt(lambda R, r, t=t: t[R, r], m, g, prune) for g in gammas] for t in stack]
        union = {r: U for U, r in reference_calls(stack, gammas, prune)}
        for width in range(1, m + 1):
            starts = list(range(1, m + 1, width))
            for j, gamma in enumerate(gammas):
                R = {r: R for R, r in refs[0][j][2]}
                for gam in (gamma, [gamma]):
                    column = block_columns(stack[:1], width)
                    got = solver(column, m, gam, batched=True)
                    part, obj = got if gam is gamma else got[0][0]
                    assert part == refs[0][j][0]
                    assert float(obj).hex() == float(refs[0][j][1]).hex()
                    assert [r for _, r, _ in column.calls] == starts
                    assert all(np.array_equal(U, R[r]) for U, r, _ in column.calls)
            column = block_columns(stack, width)
            grid = solver(column, m, list(gammas), batched=True)
            for h in range(2):
                for j in range(len(gammas)):
                    assert grid[h][j][0] == refs[h][j][0]
                    assert float(grid[h][j][1]).hex() == float(refs[h][j][1]).hex()
            assert [r for _, r, _ in column.calls] == starts
            assert all(np.array_equal(U, union[r]) for U, r, _ in column.calls)


def test_block_of_a_bad_shape_raises():
    # a block wider than the columns left, one whose candidate axis is not
    # |U| + b - 1 long, or a return that is not 3-D, even one that would hold
    # the column's costs, is refused
    m = 4
    for shape in ((1, 5, 5), (1, 2, 1), (1, 2, 3), (1, 1, 2, 1), (), (1,), (1, 1)):
        for gamma in (0.1, [0.1, 0.2]):
            with pytest.raises(ValueError, match="returned costs of shape"):
                pelt(lambda U, r: np.zeros(shape), m, gamma, batched=True)
    # a scalar gamma reads one cost row, and a grid the same rows at every call
    with pytest.raises(ValueError, match="returned 2 cost rows, expected 1"):
        pelt(lambda U, r: np.zeros((2, 1, U.size)), m, 0.1, batched=True)
    with pytest.raises(ValueError, match="returned 1 cost rows, expected 2"):
        pelt(lambda U, r: np.zeros((2 if r == 1 else 1, 1, U.size)), m, [0.1], batched=True)


# ------------------------------------------------------------- grid form


def recording_columns(tables):
    """Grid column function over stacked tables (H, m+1, m+1), returning
    one-column blocks (H, 1, |U|), that records each call (U, r)."""
    calls = []

    def fn(U, r):
        calls.append((U.copy(), r))
        return tables[:, U, r][:, None]

    return fn, calls


def assert_grid_matches_separate_runs(tables, gammas, prune):
    """The grid form returns, bit for bit, what one run per (cost row,
    penalty) returns, and asks each column for the union of those runs'
    candidate sets."""
    H, m = tables.shape[0], tables.shape[1] - 1
    solver = pelt if prune else dp_no_prune
    column, calls = recording_columns(tables)
    grid = solver(column, m, gammas, batched=True)
    assert len(grid) == H and all(len(row) == len(gammas) for row in grid)
    union = {r: set() for r in range(1, m + 1)}
    for h in range(H):
        for j, gamma in enumerate(gammas):
            fn, columns = recording_costfn(tables[h])
            part, obj = solver(fn, m, gamma, batched=True)
            assert grid[h][j][0] == part
            assert float(grid[h][j][1]).hex() == float(obj).hex()
            for R, r in columns:
                union[r] |= set(R.tolist())
    assert [r for _, r in calls] == list(range(1, m + 1))
    for U, r in calls:
        assert U.dtype == np.int64 and np.all(np.diff(U) > 0)
        assert U.tolist() == sorted(union[r])


@pytest.mark.parametrize("prune", [True, False])
def test_grid_matches_separate_runs_on_tables(rng, prune):
    # arbitrary, tie-heavy (costs from {0, 0.5, 1}), all-zero and
    # least-squares rows: ties must go to the smallest j row by row
    tables = list(seeded_tables(rng))
    for H in (1, 3):
        for k in range(0, len(tables) - H + 1):
            stack = tables[k : k + H]
            if len({t.shape for t in stack}) > 1:
                continue
            gammas = (0.0, 0.25, 0.5, 1.0, 2.0)
            assert_grid_matches_separate_runs(np.stack(stack), gammas, prune)


@pytest.mark.parametrize("prune", [True, False])
def test_grid_matches_separate_runs_on_ridge_costs(rng, prune):
    lambdas = (0.0, 1e-3, 1e-2)
    for trial in range(6):
        n, p, m = int(rng.integers(30, 160)), int(rng.integers(0, 4)), int(rng.integers(1, 25))
        X = rng.uniform(-1, 1, (n, p))
        A = rng.random(n)
        Y = np.where(A < 0.4, 1.0, -1.0) + X.sum(axis=1) + rng.standard_normal(n)
        d = Dataset(X, A, Y)
        gammas = tuple(float(g) for g in np.sort(rng.uniform(0.0, 0.2, 4)))
        solver = pelt if prune else dp_no_prune
        grid = solver(CostCache(d, m, lambdas=lambdas).columns(), m, gammas, batched=True)
        for h, lam in enumerate(lambdas):
            # a lone fit's DP: a scalar gamma over a one-lambda cache's one cost row
            column = CostCache(d, m, lambdas=(lam,)).columns()
            for j, gamma in enumerate(gammas):
                part, obj = solver(column, m, gamma, batched=True)
                assert grid[h][j][0] == part
                assert float(grid[h][j][1]).hex() == float(obj).hex()


def test_exact_grid_keeps_every_candidate_where_pruning_drops_some(rng):
    # concave costs in the interval length: splitting raises cost, so the
    # zero-slack keep test fails for some j. The exact DP forces it true,
    # asks every column for all j < r, and matches the exhaustive search
    m = 9
    lengths = np.subtract.outer(np.arange(m + 1), np.arange(m + 1)).T / m
    tables = np.stack(
        [np.triu(np.sqrt(np.abs(lengths)) + 0.05 * rng.random((m + 1, m + 1)), k=1) for _ in range(2)]
    )
    gammas = (0.0, 0.05, 0.3)
    column, calls = recording_columns(tables)
    grid = dp_no_prune(column, m, gammas, batched=True)
    assert [(U.tolist(), r) for U, r in calls] == [(list(range(r)), r) for r in range(1, m + 1)]
    for h in range(2):
        for j, gamma in enumerate(gammas):
            want = enumerate_partitions(table_costfn(tables[h]), m, gamma)
            assert grid[h][j][0] == want[0]
            assert float(grid[h][j][1]).hex() == float(want[1]).hex()
    column, calls = recording_columns(tables)
    pelt(column, m, gammas, batched=True)
    assert any(U.size < r for U, r in calls)  # the keep test does prune here


def test_grid_one_row_takes_scalar_and_one_row_columns(rng):
    m = 9
    table = sse_cost_table(rng, m)
    gammas = (0.05, 0.3)
    want = [[pelt(table_costfn(table), m, g) for g in gammas]]
    assert pelt(table_costfn(table), m, gammas) == want
    column, _ = recording_costfn(table)
    assert pelt(column, m, list(gammas), batched=True) == want


def test_scalar_gamma_rejects_a_column_of_several_rows(rng):
    d = Dataset(rng.uniform(-1, 1, (40, 1)), rng.random(40), rng.standard_normal(40))
    column = CostCache(d, 5, lambdas=(0.0, 0.1)).columns()
    for solver in (pelt, dp_no_prune):
        with pytest.raises(ValueError):
            solver(column, 5, 0.1, batched=True)


def test_grid_rejects_bad_penalties():
    for bad in ((), (0.1, -0.1), (np.nan,), (True,)):
        with pytest.raises(InvalidPenalty):
            pelt(lambda lo, hi: 0.0, 4, bad)
