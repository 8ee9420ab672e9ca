"""Domain types shared by every other module.

The treatment domain [0, 1] is discretized into m grid cells. Intervals and
partitions are stored as integer grid indices so that partition validity,
total length, and membership are exact integer arithmetic. An interval
(lo, hi, m) denotes [lo/m, hi/m), except that hi == m closes the right
endpoint so the final interval is [lo/m, 1].

Membership of a treatment value is defined through its grid cell,
cell(a) = min(floor(a*m), m-1): interval (lo, hi) contains a iff
lo <= cell(a) < hi. Fitting, prediction, propensity estimation, and
cross-validation all share this one rule, so a given observation belongs to
exactly one interval of any valid partition; Partition.locate applies it to
treatment values, and no other module hands grid cells to a partition.

A Dataset is validated when it is built: every instance has at least one
row, equal field lengths, finite values and treatments in [0, 1], so no
consumer checks it again. Likewise a JilFit's method ("ljil" or "djil")
follows from its models rather than being stored beside them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateTreatment, DimensionMismatch, InvalidData

__all__ = [
    "Dataset",
    "Interval",
    "Partition",
    "Linear",
    "JilFit",
    "grid_cell",
    "make_grid",
    "make_xbar",
    "normalize_treatment",
]


def _whole(name: str, value, least=1) -> int:
    """value as an int: an integer >= least (any integer if least is None),
    never a bool, else ValueError naming it, so a float or a bool is refused
    rather than truncated. A plain int skips the abstract-class check (about
    1 us), which every interval of a DP's partitions would pay three times."""
    if type(value) is not int and (isinstance(value, bool)
                                   or not isinstance(value, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")
    return int(value)


def _real(name: str, value, error=ValueError) -> float:
    """value as a float: a finite real number, never a bool or a string,
    else error (ValueError by default) naming it, so a "0.5" or a True is
    refused rather than converted. A plain float skips the abstract-class
    check, as a plain int does in _whole."""
    if type(value) is not float and (isinstance(value, bool)
                                     or not isinstance(value, numbers.Real)):
        raise error(f"{name} must be a real number, got {value!r}")
    if not math.isfinite(value):
        raise error(f"{name} must be finite, got {value!r}")
    return float(value)


def make_grid(n: int, c: float) -> int:
    """Grid resolution m = max(1, floor(n / c)); n an integer >= 1 and c a
    finite real > 0 (ValueError naming it)."""
    n, c = _whole("n", n), _real("c", c)
    if not c > 0:
        raise ValueError(f"c must be > 0, got {c}")
    return max(1, int(np.floor(n / c)))


def check_grid(name: str, values) -> np.ndarray:
    """A non-empty ascending grid of finite reals >= 0, each checked by
    _real (a lone value is a grid of one, and an array's entries are read
    as Python numbers), as a float array."""
    if isinstance(values, np.ndarray):
        values = values.ravel().tolist()
    arr = np.array([_real(f"{name} grid", v) for v in (values if np.ndim(values) else [values])])
    if arr.size == 0:
        raise ValueError(f"{name} grid must be non-empty")
    if not np.all(arr >= 0):
        raise ValueError(f"{name} values must be >= 0")
    if np.any(np.diff(arr) < 0):
        raise ValueError(f"{name} grid must be sorted ascending")
    return arr


def grid_cell(a, m: int):
    """Grid cell index of treatment value(s): min(floor(a*m), m-1).

    Values of exactly 1.0 fold into the last cell, implementing the
    right-closed final interval.
    """
    cells = np.minimum(np.floor(np.asarray(a) * m).astype(np.int64), m - 1)
    if np.ndim(a) == 0:
        return int(cells)
    return cells


def _rows(X, width, what: str) -> np.ndarray:
    """X as a float matrix, one row per observation, with width columns
    (any number if width is None), else DimensionMismatch naming what
    expects it: the shape it got for anything but a matrix, the column
    count for a matrix of the wrong width. The one shape rule of every
    batch entry point (Linear and MlpModel.predict_batch, and through them
    recommend_batch; propensity_probs; floor_probabilities)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatch(f"{what} expects a matrix, one row per observation, "
                                f"got shape {X.shape}")
    if width is not None and X.shape[1] != width:
        raise DimensionMismatch(f"{what} expects {width} covariates, got {X.shape[1]}")
    return X


def make_xbar(X: np.ndarray) -> np.ndarray:
    """Design matrix xbar = (1, x^T)^T stacked over rows."""
    X = np.asarray(X, dtype=float)
    return np.hstack([np.ones((X.shape[0], 1)), X])


def normalize_treatment(raw) -> np.ndarray:
    """Min-max normalize a raw treatment vector onto [0, 1]."""
    arr = np.asarray(raw, dtype=float)
    if arr.size < 2 or not np.all(np.isfinite(arr)):
        raise DegenerateTreatment("treatments must be >= 2 finite values")
    lo, hi = arr.min(), arr.max()
    if hi == lo:
        raise DegenerateTreatment("treatment range is zero; cannot normalize")
    return (arr - lo) / (hi - lo)


@dataclass(frozen=True)
class Dataset:
    """n >= 1 observations of (covariates in R^p, treatment in [0,1], outcome
    in R), all finite. Construction raises InvalidData naming the field and
    the first offending row (None for a structural fault)."""

    covariates: np.ndarray
    treatments: np.ndarray
    outcomes: np.ndarray

    def __post_init__(self):
        # np.array copies, so a caller's later writes cannot reach the dataset
        self._own(
            np.atleast_2d(np.array(self.covariates, dtype=float)),
            np.array(self.treatments, dtype=float).ravel(),
            np.array(self.outcomes, dtype=float).ravel(),
        )

    def _own(self, cov, tr, out):
        """Validate arrays no caller holds, then keep them read-only as they
        are, without a further copy."""
        n = cov.shape[0]
        if n < 1:
            raise InvalidData("covariates", None, "dataset has no rows")
        if not np.isfinite(cov).all():
            row = int(np.argwhere(~np.isfinite(cov))[0, 0])
            raise InvalidData("covariates", row, f"non-finite covariate at row {row}")
        if tr.shape[0] != n:
            raise InvalidData("treatments", None, "treatments length differs from covariates")
        bad = ~np.isfinite(tr)
        bad |= tr < 0.0
        bad |= tr > 1.0
        if bad.any():
            row = int(np.argmax(bad))
            raise InvalidData("treatments", row, f"treatment outside [0, 1] at row {row}")
        if out.shape[0] != n:
            raise InvalidData("outcomes", None, "outcomes length differs from covariates")
        bad = ~np.isfinite(out)
        if bad.any():
            row = int(np.argmax(bad))
            raise InvalidData("outcomes", row, f"non-finite outcome at row {row}")
        for name, arr in (("covariates", cov), ("treatments", tr), ("outcomes", out)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.covariates.shape[0]

    @property
    def p(self) -> int:
        return self.covariates.shape[1]

    def subset(self, idx) -> "Dataset":
        """Row subset (used by cross-validation), validated as any dataset.

        Indexing copies the rows (a slice views this dataset's read-only
        rows), so they are kept as they are, without a second copy.
        """
        d = object.__new__(Dataset)
        d._own(
            np.atleast_2d(self.covariates[idx]),
            np.asarray(self.treatments[idx]).ravel(),
            np.asarray(self.outcomes[idx]).ravel(),
        )
        return d


@dataclass(frozen=True)
class Interval:
    """Grid-aligned treatment interval [lo/m, hi/m), right-closed when hi == m;
    lo, hi and m are integers, checked when built (ValueError naming the field)."""

    lo: int
    hi: int
    m: int

    def __post_init__(self):
        for name, least in (("lo", 0), ("hi", 1), ("m", 1)):
            object.__setattr__(self, name, _whole(name, getattr(self, name), least))
        if not (self.lo < self.hi <= self.m):
            raise ValueError(f"need 0 <= lo < hi <= m, got ({self.lo}, {self.hi}, {self.m})")

    @property
    def lo_frac(self) -> float:
        return self.lo / self.m

    @property
    def hi_frac(self) -> float:
        return self.hi / self.m

    @property
    def length(self) -> float:
        return (self.hi - self.lo) / self.m

    def __str__(self) -> str:
        closing = "]" if self.hi == self.m else ")"
        return f"[{self.lo_frac!r}, {self.hi_frac!r}{closing}"


@dataclass(frozen=True)
class Partition:
    """Ordered, abutting intervals covering [0, 1] on a common grid."""

    intervals: tuple

    def __post_init__(self):
        ivs = tuple(self.intervals)
        object.__setattr__(self, "intervals", ivs)
        if not ivs:
            raise ValueError("partition must contain at least one interval")
        m = ivs[0].m
        if any(iv.m != m for iv in ivs):
            raise ValueError("all intervals must share one grid resolution")
        if ivs[0].lo != 0 or ivs[-1].hi != m:
            raise ValueError("partition must span [0, 1]")
        for prev, nxt in zip(ivs, ivs[1:]):
            if prev.hi != nxt.lo:
                raise ValueError(f"intervals must abut: {prev} then {nxt}")
        object.__setattr__(self, "_his", tuple(iv.hi for iv in ivs))

    @classmethod
    def from_edges(cls, edges, m: int) -> "Partition":
        """Build from integer edges [0, b_1, ..., m]."""
        return cls(tuple(Interval(a, b, m) for a, b in zip(edges[:-1], edges[1:])))

    @property
    def m(self) -> int:
        return self.intervals[0].m

    @property
    def size(self) -> int:
        return len(self.intervals)

    def edges(self) -> list:
        return [0] + list(self._his)

    def boundaries(self) -> list:
        """Interior change points as fractions of [0, 1]."""
        return [hi / self.m for hi in self._his[:-1]]

    def locate(self, a) -> np.ndarray:
        """Index of the interval that contains each treatment value in a,
        by the grid-cell membership rule of this module."""
        return np.searchsorted(np.asarray(self._his), grid_cell(a, self.m), side="right")


@dataclass(frozen=True)
class Linear:
    """Per-interval linear outcome model q(x) = theta[0] + x . theta[1:]."""

    theta: np.ndarray

    def __post_init__(self):
        th = np.asarray(self.theta, dtype=float).copy()
        if th.ndim != 1 or not th.size:
            raise ValueError(f"theta must be a non-empty vector, got shape {th.shape}")
        th.flags.writeable = False
        object.__setattr__(self, "theta", th)

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        X = _rows(X, self.theta.shape[0] - 1, "model")
        return self.theta[0] + X @ self.theta[1:]


@dataclass(frozen=True)
class JilFit:
    """A fitted segmentation: partition, per-interval models, hyperparameters.

    objective is the penalized least-squares value of the stored components:
    sum over intervals of (residual SSE / n + lam * |I| * ||theta||^2), plus
    gamma * |P|.
    """

    partition: Partition
    models: tuple
    m: int
    lam: float
    gamma: float
    objective: float

    def __post_init__(self):
        object.__setattr__(self, "models", tuple(self.models))
        if len(self.models) != self.partition.size:
            raise ValueError("one model per partition interval required")
        if self.m != self.partition.m:
            raise ValueError("fit grid must match the partition grid")

    @property
    def method(self) -> str:
        """Model family: "ljil" for linear segment models, else "djil"."""
        return "ljil" if isinstance(self.models[0], Linear) else "djil"
