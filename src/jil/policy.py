"""Interval-valued decision rules and doubly-robust value estimation.

The rule recommends, for covariates x, the partition interval whose fitted
outcome model predicts the largest mean outcome; near-ties (within 1e-12)
resolve to the interval with the smaller left endpoint. The value of the
rule is estimated by augmented inverse-propensity weighting,

    V_hat = (1/n) sum_i [ 1{A_i in d(X_i)} / e(d(X_i)|X_i) * {Y_i - max_I q_I(X_i)}
                          + max_I q_I(X_i) ],

with a Wald interval V_hat +/- z_{alpha/2} * sigma_hat / sqrt(n), where
sigma_hat is the per-observation standard deviation of the bracketed terms
and z_{alpha/2} the standard normal quantile of statistics.NormalDist.

The generalized propensity e(I|x) is a softmax-linear model, fitted by
damped Newton to its penalized maximum-likelihood solution; predicted
probabilities are floored at 0.01 by an exact water-filling adjustment
(never plain clipping, which would break the simplex constraint).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .core import Dataset, Interval, JilFit, Partition, make_xbar
from .errors import DimensionMismatch, InsufficientData, NoConvergence

__all__ = [
    "I2dr",
    "PropensityModel",
    "ValueReport",
    "MinDose",
    "MaxDose",
    "MidPoint",
    "UniformRandom",
    "recommend",
    "recommend_batch",
    "fit_propensity",
    "propensity_probs",
    "floor_probabilities",
    "estimate_value",
    "select_dose",
]

_TIE_TOL = 1e-12

# Softmax propensity: log-loss / n + _L2 * ||W||^2, minimized by damped
# Newton until the Newton decrement g'H^-1g is at most _NEWTON_TOL.
_L2 = 1e-4
_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 50
_ARMIJO = 0.25
_MAX_HALVINGS = 50

# Lower bound on every predicted interval probability; keeps AIPW weights <= 100.
_FLOOR = 0.01


@dataclass(frozen=True)
class I2dr:
    """Interval-valued decision rule wrapping a fitted segmentation."""

    fit: JilFit

    def recommend(self, x: np.ndarray) -> Interval:
        return recommend(self, x)


def _predictions(fit: JilFit, X: np.ndarray) -> np.ndarray:
    """Per-interval predictions, shape (n, |P|)."""
    return np.stack([mod.predict_batch(X) for mod in fit.models], axis=1)


def _recommend(fit: JilFit, X: np.ndarray):
    """(rec, qmax): per row of X, the first interval whose prediction is
    within _TIE_TOL of the row maximum, and that maximum."""
    Q = _predictions(fit, X)
    qmax = Q.max(axis=1)
    return np.argmax(Q >= qmax[:, None] - _TIE_TOL, axis=1), qmax


def recommend_batch(rule: I2dr, X: np.ndarray) -> np.ndarray:
    """Index of the recommended interval per row of X."""
    return _recommend(rule.fit, np.asarray(X, dtype=float))[0]


def recommend(rule: I2dr, x: np.ndarray) -> Interval:
    """The partition interval with the largest predicted outcome at x."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DimensionMismatch(f"expected a covariate vector, got shape {x.shape}")
    idx = recommend_batch(rule, x[None, :])[0]
    return rule.fit.partition.intervals[idx]


# --------------------------------------------------------------- propensity


@dataclass(frozen=True)
class PropensityModel:
    """Generalized propensity over partition intervals: softmax-linear
    weights of shape (|P|, p+1). Predicted probabilities are floored at the
    class constant `floor` (0.01, the same for every model) and kept on the
    simplex by floor_probabilities."""

    floor: ClassVar[float] = _FLOOR
    partition: Partition
    weights: np.ndarray

    def __post_init__(self):
        if self.weights.ndim != 2 or self.weights.shape[0] != self.partition.size:
            raise ValueError("propensity weights must be a matrix with one row per interval")


def floor_probabilities(probs: np.ndarray) -> np.ndarray:
    """Raise every probability to >= _FLOOR while keeping rows on the simplex.

    Each row is replaced by f + (1 - K*f) * s / sum(s) with
    f = min(_FLOOR, 1/K) and s = max(p - f, 0): mass above the floor is
    rescaled to fill the remaining budget, which is exact, unlike
    clip-and-renormalize.
    """
    probs = np.asarray(probs, dtype=float)
    k = probs.shape[1]
    f = min(_FLOOR, 1.0 / k)
    s = np.maximum(probs - f, 0.0)
    tot = s.sum(axis=1, keepdims=True)
    share = np.where(tot > 0.0, s / np.where(tot > 0.0, tot, 1.0), 1.0 / k)
    return f + (1.0 - k * f) * share


def _softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _softmax_objective(W: np.ndarray, Xb: np.ndarray, labels: np.ndarray) -> float:
    z = Xb @ W.T
    top = z.max(axis=1)
    lse = top + np.log(np.exp(z - top[:, None]).sum(axis=1))
    loss = np.mean(lse - z[np.arange(len(labels)), labels])
    return float(loss + _L2 * np.sum(W * W))


def _fit_softmax(Xb: np.ndarray, labels: np.ndarray, K: int) -> np.ndarray:
    """Penalized multinomial MLE by damped Newton from W = 0.

    The objective is strictly convex (curvature >= 2 * _L2), so the minimizer
    is unique. Each iteration solves H s = -g and backtracks on the objective
    until the Armijo condition holds. Once the Newton decrement g'H^-1g (an
    affine-invariant estimate of twice the suboptimality) is at most
    _NEWTON_TOL, the full step is taken and the loop stops; the decrement is
    not driven further because objective differences below it are rounding.
    """
    n, d = Xb.shape
    onehot = np.zeros((n, K))
    onehot[np.arange(n), labels] = 1.0
    W = np.zeros((K, d))
    f = _softmax_objective(W, Xb, labels)
    diag = np.arange(K)
    for _ in range(_NEWTON_MAX_ITER):
        P = _softmax(Xb @ W.T)
        g = ((P - onehot).T @ Xb / n + 2.0 * _L2 * W).ravel()
        PX = P[:, :, None] * Xb[:, None, :]
        A = PX.reshape(n, K * d)
        H = -(A.T @ A)
        H.reshape(K, d, K, d)[diag, :, diag, :] += np.matmul(PX.transpose(1, 2, 0), Xb)
        H /= n
        H[np.diag_indices_from(H)] += 2.0 * _L2
        step = np.linalg.solve(H, -g).reshape(K, d)
        dec = -float(g @ step.ravel())
        if dec <= _NEWTON_TOL:
            return W + step
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            f_new = _softmax_objective(W + t * step, Xb, labels)
            if f_new <= f - _ARMIJO * t * dec:
                break
            t *= 0.5
        else:
            raise NoConvergence(
                dec, f"propensity line search found no decrease (Newton decrement {dec:.3e})"
            )
        W, f = W + t * step, f_new
    raise NoConvergence(
        dec, f"propensity not converged in {_NEWTON_MAX_ITER} Newton steps (decrement {dec:.3e})"
    )


def fit_propensity(d: Dataset, partition: Partition) -> PropensityModel:
    """Estimate e(I | x) for every interval of the partition.

    The fit is the unique minimizer of the softmax log-loss / n plus
    1e-4 ||W||^2, found by damped Newton from W = 0 (see _fit_softmax); it
    raises NoConvergence rather than return a non-converged W.
    """
    K = partition.size
    if d.n < K:
        raise InsufficientData(f"need n >= |P| = {K} observations, got {d.n}")
    labels = partition.locate(d.treatments)
    W = _fit_softmax(make_xbar(d.covariates), labels, K)
    return PropensityModel(partition=partition, weights=W)


def propensity_probs(prop: PropensityModel, X: np.ndarray) -> np.ndarray:
    """Floored interval probabilities per row of X, shape (n, |P|)."""
    X = np.asarray(X, dtype=float)
    if X.shape[1] + 1 != prop.weights.shape[1]:
        raise DimensionMismatch(
            f"propensity expects {prop.weights.shape[1] - 1} covariates, got {X.shape[1]}"
        )
    return floor_probabilities(_softmax(make_xbar(X) @ prop.weights.T))


# ------------------------------------------------------------------- value


@dataclass(frozen=True)
class ValueReport:
    """Doubly-robust value estimate with its Wald confidence interval."""

    v_hat: float
    sigma_hat: float
    ci_lo: float
    ci_hi: float
    alpha: float


def _alpha_ok(alpha: float) -> bool:
    """Whether alpha lies in (0, 1) and 1 - alpha/2 stays below 1 in floating
    point (alpha > 2**-53, about 1.1e-16), so the Wald quantile is finite."""
    return 0.0 < alpha < 1.0 and 1.0 - alpha / 2.0 < 1.0


def _scaled(x: np.ndarray):
    """(x * 2^-k, k) for the k that brings max |x| into [1/2, 1)."""
    k = math.frexp(float(np.max(np.abs(x))))[1]
    return np.ldexp(x, -k), k


def estimate_value(d: Dataset, rule: I2dr, prop: PropensityModel, alpha: float) -> ValueReport:
    """Augmented inverse-propensity estimate of the rule's value on d."""
    if d.n < 2:
        raise InsufficientData("value estimation needs at least 2 observations")
    if not _alpha_ok(alpha):
        raise ValueError(f"alpha must lie in (0, 1) and 1 - alpha/2 must round below 1, got {alpha}")
    if prop.partition != rule.fit.partition:
        raise ValueError("propensity and rule were fit on different partitions")
    fit = rule.fit
    rec, qmax = _recommend(fit, d.covariates)
    seg = fit.partition.locate(d.treatments)
    ind = (seg == rec).astype(float)
    e = propensity_probs(prop, d.covariates)[np.arange(d.n), rec]
    terms = ind / e * (d.outcomes - qmax) + qmax
    # both sums are correctly rounded (math.fsum), so the report does not
    # depend on the order of the rows. Each sum's terms are scaled by a power
    # of two first, which is exact, so fsum cannot overflow, and the scaled
    # sum is divided by n before it is scaled back: v_hat is infinite only
    # where the mean overflows, and sigma_hat only where it does itself.
    # Dividing by n commutes with the scale outside the subnormal and
    # overflow ranges. An infinite term (an overflowed product) keeps the
    # IEEE sum, as fsum refuses inf - inf
    t, k = _scaled(terms)
    total = math.fsum(t) if np.isfinite(t).all() else float(np.sum(t))
    v_hat = float(np.ldexp(total / d.n, k))
    dev, k = _scaled(terms - v_hat)
    sigma_hat = float(np.ldexp(math.sqrt(math.fsum(dev * dev) / (d.n - 1)), k))
    z = float(statistics.NormalDist().inv_cdf(1.0 - alpha / 2.0))
    half = z * sigma_hat / math.sqrt(d.n)
    return ValueReport(v_hat, sigma_hat, v_hat - half, v_hat + half, float(alpha))


# -------------------------------------------------------------- preferences


@dataclass(frozen=True)
class MinDose:
    """Take the interval's left endpoint."""


@dataclass(frozen=True)
class MaxDose:
    """Take the interval's right endpoint."""


@dataclass(frozen=True)
class MidPoint:
    """Take the interval's midpoint."""


@dataclass
class UniformRandom:
    """Draw uniformly inside the interval; one seeded stream per instance."""

    seed: int

    def __post_init__(self):
        self._rng = np.random.default_rng(self.seed)


def _doses(lo: np.ndarray, hi: np.ndarray, m: int, pref) -> np.ndarray:
    """Concrete treatments inside the grid intervals [lo/m, hi/m), one per
    entry of the integer index arrays lo and hi. UniformRandom draws its
    doses from its stream in entry order."""
    if isinstance(pref, MinDose):
        return lo / m
    if isinstance(pref, MaxDose):
        return hi / m
    if isinstance(pref, MidPoint):
        return (lo + hi) / (2.0 * m)
    if isinstance(pref, UniformRandom):
        return lo / m + pref._rng.random(len(lo)) * ((hi - lo) / m)
    raise TypeError(f"unknown preference {pref!r}")


def select_dose(interval: Interval, pref) -> float:
    """Concrete treatment inside a recommended interval."""
    lo, hi = np.array([interval.lo]), np.array([interval.hi])
    return float(_doses(lo, hi, interval.m, pref)[0])
