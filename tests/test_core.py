"""Core domain types: grid construction, intervals, partitions, validation."""

from __future__ import annotations

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jil.core import (
    Dataset,
    Interval,
    JilFit,
    Linear,
    Partition,
    grid_cell,
    make_grid,
    normalize_treatment,
)
from jil.errors import DegenerateTreatment, DimensionMismatch, InvalidData
from jil.mlp import MlpModel

from conftest import cell_of


# ---------------------------------------------------------------- make_grid


def test_make_grid_examples():
    assert make_grid(800, 10) == 80
    assert make_grid(200, 5) == 40
    assert make_grid(3, 10) == 1


@given(n=st.integers(1, 10**6), c=st.floats(0.01, 1e4, allow_nan=False))
def test_make_grid_formula(n, c):
    m = make_grid(n, c)
    assert m == max(1, int(np.floor(n / c)))
    assert m >= 1


def test_make_grid_rejects_bad_args():
    with pytest.raises(ValueError):
        make_grid(0, 5)
    with pytest.raises(ValueError):
        make_grid(10, 0.0)
    with pytest.raises(ValueError):
        make_grid(10, -1.0)
    # c is a finite real: inf gave m = 1, True m = 10, and "5" a TypeError
    for bad in (np.inf, np.nan, True, "5", None):
        with pytest.raises(ValueError, match="c must be"):
            make_grid(10, bad)
    assert make_grid(10, np.float32(2.5)) == make_grid(10, 2.5) == 4


# ---------------------------------------------------- normalize_treatment


def test_normalize_examples():
    np.testing.assert_allclose(normalize_treatment([2, 4, 6]), [0, 0.5, 1])
    np.testing.assert_allclose(normalize_treatment([0, 1]), [0, 1])


def test_normalize_degenerate():
    with pytest.raises(DegenerateTreatment):
        normalize_treatment([10, 10, 10])
    with pytest.raises(DegenerateTreatment):
        normalize_treatment([1.0, np.nan, 2.0])
    with pytest.raises(DegenerateTreatment):
        normalize_treatment([1.0, np.inf])


@given(
    raw=st.lists(
        st.floats(-1e8, 1e8, allow_nan=False, allow_infinity=False),
        min_size=2,
        max_size=40,
    )
)
def test_normalize_affine_property(raw):
    arr = np.asarray(raw, dtype=float)
    if arr.max() == arr.min():
        with pytest.raises(DegenerateTreatment):
            normalize_treatment(arr)
        return
    out = normalize_treatment(arr)
    lo, hi = arr.min(), arr.max()
    # independent elementwise oracle
    expect = [(v - lo) / (hi - lo) for v in raw]
    np.testing.assert_allclose(out, expect, rtol=0, atol=0)
    assert out.min() == 0.0 and out.max() == 1.0
    assert np.all((out >= 0) & (out <= 1))


# ------------------------------------------------------------- Interval


def test_interval_basic():
    iv = Interval(2, 4, 10)
    assert iv.lo_frac == 0.2
    assert iv.hi_frac == 0.4
    assert iv.length == pytest.approx(0.2)
    assert "0.2" in str(iv) and "0.4" in str(iv)


def test_interval_str_prints_bounds_as_repr():
    assert str(Interval(2, 4, 10)) == "[0.2, 0.4)"
    assert str(Interval(0, 3, 40)) == "[0.0, 0.075)"
    assert str(Interval(1, 3, 3)) == "[0.3333333333333333, 1.0]"


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(4, 4, 10)
    with pytest.raises(ValueError):
        Interval(-1, 3, 10)
    with pytest.raises(ValueError):
        Interval(0, 11, 10)
    with pytest.raises(ValueError):
        Interval(0, 1, 0)
    iv = Interval(np.int64(1), np.int32(3), np.int64(4))  # numpy integers are integers
    assert iv == Interval(1, 3, 4) and {type(iv.lo), type(iv.hi), type(iv.m)} == {int}


@pytest.mark.parametrize("build, field", [
    (lambda: Interval(0, 1, 2.5), "m"),
    (lambda: Interval(0, 1, True), "m"),
    (lambda: Interval(0.0, 1, 2), "lo"),
    (lambda: Interval(0, np.float64(2.0), 2), "hi"),
    (lambda: Interval(False, 1, 2), "lo"),
    (lambda: make_grid(2.5, 1.0), "n"),
    (lambda: make_grid(400.0, 5.0), "n"),
    (lambda: make_grid(True, 1.0), "n"),
], ids=["m-float", "m-bool", "lo-float", "hi-numpy-float", "lo-bool", "n-float", "n-whole-float",
        "n-bool"])
def test_integer_arguments_are_checked_not_truncated(build, field):
    # a float or a bool would build a wrong interval or grid silently
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        build()


def contains(iv, a):
    """Membership as the library defines it: lo <= grid_cell(a) < hi."""
    return iv.lo <= grid_cell(a, iv.m) < iv.hi


def test_interval_membership_half_open_dyadic():
    # m = 8 makes every boundary exactly representable, so the half-open
    # convention is checked without rounding ambiguity
    iv = Interval(2, 4, 8)
    assert contains(iv, 0.25)
    assert contains(iv, 0.25 + 1e-9)
    assert contains(iv, 0.5 - 1e-9)
    assert not contains(iv, 0.5)
    assert not contains(iv, 0.25 - 1e-9)


def test_interval_right_closure_at_one():
    last = Interval(6, 8, 8)
    assert contains(last, 1.0)
    inner = Interval(0, 8, 8)
    assert contains(inner, 1.0)


@given(m=st.integers(1, 64), data=st.data())
def test_grid_round_trip_exact(m, data):
    lo = data.draw(st.integers(0, m - 1))
    hi = data.draw(st.integers(lo + 1, m))
    iv = Interval(lo, hi, m)
    assert Fraction(iv.lo, iv.m) == Fraction(lo, m)
    assert Fraction(iv.hi, iv.m) == Fraction(hi, m)
    assert iv.length == (hi - lo) / m


# ------------------------------------------------------------- Partition


def edges_to_partition(edges, m):
    ivs = [Interval(a, b, m) for a, b in zip(edges[:-1], edges[1:])]
    return Partition(tuple(ivs))


def test_partition_validation():
    m = 10
    with pytest.raises(ValueError):
        Partition(())
    with pytest.raises(ValueError):  # gap
        Partition((Interval(0, 3, m), Interval(4, 10, m)))
    with pytest.raises(ValueError):  # does not start at 0
        Partition((Interval(1, 10, m),))
    with pytest.raises(ValueError):  # does not end at m
        Partition((Interval(0, 9, m),))
    with pytest.raises(ValueError):  # mixed grids
        Partition((Interval(0, 5, 10), Interval(5, 12, 12)))


@given(m=st.integers(1, 48), data=st.data())
@settings(max_examples=200)
def test_partition_membership_determinism(m, data):
    k = data.draw(st.integers(0, min(m - 1, 6)))
    cuts = sorted(data.draw(st.sets(st.integers(1, m - 1), min_size=k, max_size=k))) if m > 1 else []
    part = edges_to_partition([0] + cuts + [m], m)
    # integer-exact total length
    assert sum(Fraction(iv.hi - iv.lo, m) for iv in part.intervals) == 1
    a = data.draw(st.floats(0.0, 1.0, allow_nan=False))
    hits = [iv for iv in part.intervals if iv.lo <= cell_of(a, m) < iv.hi]
    assert len(hits) == 1
    # locate finds the unique containing interval, for an array and a scalar
    assert part.intervals[part.locate(np.array([a]))[0]] is hits[0]
    assert part.intervals[part.locate(a)] is hits[0]


def test_partition_boundaries():
    part = edges_to_partition([0, 4, 7, 10], 10)
    assert part.size == 3
    assert part.m == 10
    np.testing.assert_allclose(part.boundaries(), [0.4, 0.7])
    assert part.edges() == [0, 4, 7, 10]


def test_grid_cell_edges():
    assert grid_cell(0.0, 10) == 0
    assert grid_cell(1.0, 10) == 9  # right closure folds into last cell
    assert grid_cell(0.35, 160) == 56
    cells = grid_cell(np.array([0.0, 0.5, 1.0]), 4)
    np.testing.assert_array_equal(cells, [0, 2, 3])


# ------------------------------------------------------------ Dataset


def make_ds(n=5, p=2, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(
        covariates=rng.normal(size=(n, p)),
        treatments=rng.random(n),
        outcomes=rng.normal(size=n),
    )


def test_validate_ok():
    d = make_ds()  # must not raise
    assert d.n == 5


def test_validate_treatment_out_of_range():
    d = make_ds()
    t = d.treatments.copy()
    t[2] = 1.5
    with pytest.raises(InvalidData) as exc:
        Dataset(d.covariates, t, d.outcomes)
    assert exc.value.field == "treatments"
    assert exc.value.row == 2
    assert str(exc.value) == "treatment outside [0, 1] at row 2"


def test_validate_length_mismatch():
    d = make_ds()
    with pytest.raises(InvalidData) as exc:
        Dataset(d.covariates, d.treatments, d.outcomes[:-1])
    assert exc.value.field == "outcomes"
    assert exc.value.row is None
    assert str(exc.value) == "outcomes length differs from covariates"


def test_validate_nonfinite_covariate():
    d = make_ds()
    c = d.covariates.copy()
    c[3, 1] = np.nan
    with pytest.raises(InvalidData) as exc:
        Dataset(c, d.treatments, d.outcomes)
    assert exc.value.field == "covariates"
    assert exc.value.row == 3


def test_validate_empty():
    with pytest.raises(InvalidData) as exc:
        Dataset(np.zeros((0, 2)), np.zeros(0), np.zeros(0))
    assert (exc.value.field, exc.value.row) == ("covariates", None)
    assert str(exc.value) == "dataset has no rows"


def _nan_cov(c, t, y):
    c[1, 0] = np.inf
    return c, t, y


def _nan_dose(c, t, y):
    t[3] = np.nan
    return c, t, y


def _low_dose(c, t, y):
    t[1] = -0.4
    return c, t, y


def _high_dose(c, t, y):
    t[4] = 1.7
    return c, t, y


def _short_doses(c, t, y):
    return c, t[:-1], y


def _nan_outcome(c, t, y):
    y[2] = np.nan
    return c, t, y


def _long_outcomes(c, t, y):
    return c, t, np.append(y, 0.0)


@pytest.mark.parametrize(
    "corrupt, field, row, message",
    [
        (_nan_cov, "covariates", 1, "non-finite covariate at row 1"),
        (_nan_dose, "treatments", 3, "treatment outside [0, 1] at row 3"),
        (_low_dose, "treatments", 1, "treatment outside [0, 1] at row 1"),
        (_high_dose, "treatments", 4, "treatment outside [0, 1] at row 4"),
        (_short_doses, "treatments", None, "treatments length differs from covariates"),
        (_nan_outcome, "outcomes", 2, "non-finite outcome at row 2"),
        (_long_outcomes, "outcomes", None, "outcomes length differs from covariates"),
    ],
)
def test_dataset_rejects_at_construction(corrupt, field, row, message):
    d = make_ds()
    args = corrupt(d.covariates.copy(), d.treatments.copy(), d.outcomes.copy())
    with pytest.raises(InvalidData) as exc:
        Dataset(*args)
    assert (exc.value.field, exc.value.row, str(exc.value)) == (field, row, message)


def test_dataset_reports_first_offending_field_and_row():
    # covariates are checked before treatments, treatments before outcomes,
    # and within a field the first bad row is named
    c = np.zeros((6, 2))
    t = np.full(6, 0.5)
    y = np.zeros(6)
    c[4, 1] = c[2, 0] = np.nan
    t[0] = 2.0
    y[0] = np.nan
    with pytest.raises(InvalidData) as exc:
        Dataset(c, t, y)
    assert (exc.value.field, exc.value.row) == ("covariates", 2)
    with pytest.raises(InvalidData) as exc:
        Dataset(np.zeros((6, 2)), t, y)
    assert (exc.value.field, exc.value.row) == ("treatments", 0)


def test_dataset_subset_is_validated():
    d = make_ds()
    assert d.subset(np.array([4, 0])).n == 2
    with pytest.raises(InvalidData, match="dataset has no rows"):
        d.subset(np.zeros(0, dtype=np.int64))


def test_dataset_subset_copies_rows_once():
    d = make_ds(n=20000, p=4)
    idx = np.arange(16000)
    tracemalloc.start()
    try:
        sub = d.subset(idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sub.covariates.nbytes + sub.treatments.nbytes + sub.outcomes.nbytes
    assert peak <= 1.2 * kept
    for name in ("covariates", "treatments", "outcomes"):
        got, full = getattr(sub, name), getattr(d, name)
        assert not got.flags.writeable
        assert not np.shares_memory(got, full)
        np.testing.assert_array_equal(got, full[idx])


def test_dataset_keeps_no_caller_array():
    X, A, Y = np.zeros((3, 2)), np.array([0.1, 0.5, 0.9]), np.zeros(3)
    d = Dataset(X, A, Y)
    X[0, 0], A[0], Y[0] = 7.0, 0.7, 7.0
    assert d.covariates[0, 0] == 0.0 and d.treatments[0] == 0.1 and d.outcomes[0] == 0.0


def test_dataset_shape_and_immutability():
    d = make_ds(n=7, p=3)
    assert d.n == 7 and d.p == 3
    with pytest.raises(ValueError):
        d.covariates[0, 0] = 99.0


def test_dataset_intercept_only():
    d = Dataset(np.zeros((4, 0)), np.linspace(0, 1, 4), np.arange(4.0))
    assert (d.n, d.p) == (4, 0)


# ------------------------------------------------------- segment models


def test_linear_predict_matches_hand_oracle():
    theta = np.array([1.0, 2.0, -1.0])
    model = Linear(theta)
    X = np.array([[0.5, 0.25], [0.0, 0.0]])
    # hand oracle: 1 + 2*0.5 - 1*0.25 = 1.75 ; intercept only = 1
    np.testing.assert_allclose(model.predict_batch(X), [1.75, 1.0])


def test_linear_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Linear(np.array([1.0, 2.0])).predict_batch(np.zeros((3, 4)))


# ------------------------------------------------------------- JilFit


def test_jilfit_alignment_checked():
    part = edges_to_partition([0, 5, 10], 10)
    good = JilFit(
        partition=part,
        models=(Linear(np.zeros(3)), Linear(np.zeros(3))),
        m=10,
        lam=0.0,
        gamma=0.1,
        objective=1.0,
    )
    assert good.partition.size == 2
    with pytest.raises(ValueError):
        JilFit(part, (Linear(np.zeros(3)),), 10, 0.0, 0.1, 1.0)
    with pytest.raises(ValueError):
        JilFit(part, (Linear(np.zeros(3)), Linear(np.zeros(3))), 12, 0.0, 0.1, 1.0)


def test_jilfit_method_follows_models():
    part = edges_to_partition([0, 5, 10], 10)
    linear = JilFit(part, (Linear(np.zeros(3)),) * 2, 10, 0.0, 0.1, 1.0)
    net = MlpModel((2, 1), (np.zeros((1, 2)),), (np.zeros(1),))
    network = JilFit(part, (net, net), 10, 0.0, 0.1, 1.0)
    assert (linear.method, network.method) == ("ljil", "djil")
    # the family is not a field a caller can set against the models
    with pytest.raises(TypeError):
        JilFit(part, (net, net), 10, 0.0, 0.1, 1.0, method="ljil")
