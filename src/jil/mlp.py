"""Small feedforward ReLU regressors used as per-interval outcome models.

A network maps covariates x in R^p to a scalar prediction through ReLU
hidden layers and an identity output. Training minimizes the unpenalized
minibatch objective mean((pred - y)^2) by plain SGD with a fixed learning
rate; the shuffle order and initial weights come from one seeded generator
so a fit is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, Interval, grid_cell
from .errors import DimensionMismatch, EmptySegment, NoConvergence

__all__ = [
    "MlpModel",
    "TrainConfig",
    "init_model",
    "mlp_train",
]


@dataclass(frozen=True)
class MlpModel:
    """Weights and biases of a feedforward ReLU network with scalar output.

    layer_sizes = (p, h_1, ..., h_L, 1); weights[k] has shape
    (layer_sizes[k+1], layer_sizes[k]) and biases[k] shape (layer_sizes[k+1],).
    """

    layer_sizes: tuple
    weights: tuple
    biases: tuple

    def __post_init__(self):
        shapes = list(zip(self.layer_sizes[1:], self.layer_sizes[:-1]))
        got = [np.shape(W) for W in self.weights], [np.shape(b) for b in self.biases]
        if got != (shapes, [s[:1] for s in shapes]):
            raise ValueError(f"weights and biases must match layer_sizes {self.layer_sizes}")

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_inputs:
            raise DimensionMismatch(
                f"network expects {self.n_inputs} covariates, got shape {X.shape}"
            )
        return _forward(self.weights, self.biases, X)[0][-1].ravel()


@dataclass(frozen=True)
class TrainConfig:
    """SGD hyperparameters for one per-interval network fit."""

    hidden: tuple = (32, 32)
    epochs: int = 500
    learning_rate: float = 1e-2
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not (self.learning_rate > 0):
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")


def init_model(p: int, hidden: tuple, rng: np.random.Generator) -> MlpModel:
    """Glorot-uniform weights, zero biases, drawn layer by layer from rng."""
    sizes = (p,) + tuple(hidden) + (1,)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, (fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(sizes, tuple(weights), tuple(biases))


def _forward(weights, biases, X: np.ndarray):
    """Activations and pre-activations per layer of the network with these
    weight and bias sequences; X is (n, p).

    Returns (acts, pres) where acts[0] = X, acts[k+1] = activation after
    layer k, pres[k] = pre-activation of layer k. The last layer is linear.
    """
    acts = [X]
    pres = []
    h = X
    last = len(weights) - 1
    for k, (w, b) in enumerate(zip(weights, biases)):
        z = h @ w.T + b
        pres.append(z)
        h = z if k == last else np.maximum(z, 0.0)
        acts.append(h)
    return acts, pres


def _batch_gradients(weights, biases, X: np.ndarray, y: np.ndarray):
    """Mean gradient of (pred - y)^2 over the batch, per weight and bias."""
    nb = X.shape[0]
    acts, pres = _forward(weights, biases, X)
    # d mean loss / d pred
    delta = 2.0 * (acts[-1] - y[:, None]) / nb
    dws = [None] * len(weights)
    dbs = [None] * len(biases)
    for k in range(len(weights) - 1, -1, -1):
        dws[k] = delta.T @ acts[k]
        dbs[k] = delta.sum(axis=0)
        if k > 0:
            delta = (delta @ weights[k]) * (pres[k - 1] > 0.0)
    return dws, dbs


def mlp_train(d: Dataset, interval: Interval, cfg: TrainConfig) -> MlpModel:
    """Fit a network to the observations whose treatment lies in the interval.

    Raises EmptySegment when no observation falls in the interval. Rows are
    shuffled once per epoch; each minibatch applies one SGD step
    W <- W - lr * grad to every weight matrix and bias vector. A weight
    that overflows stays non-finite through every later step, so one check
    after the last epoch catches a diverging run: it raises NoConvergence
    naming the interval instead of returning a network that predicts NaN.
    """
    cells = grid_cell(d.treatments, interval.m)
    rows = np.flatnonzero((cells >= interval.lo) & (cells < interval.hi))
    if rows.size == 0:
        raise EmptySegment(f"no observations in {interval}")
    X = d.covariates[rows]
    y = d.outcomes[rows]
    rng = np.random.default_rng(cfg.seed)
    model = init_model(d.p, cfg.hidden, rng)
    weights, biases = list(model.weights), list(model.biases)
    lr = cfg.learning_rate
    nr = rows.size
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            order = rng.permutation(nr)
            for start in range(0, nr, cfg.batch_size):
                take = order[start : start + cfg.batch_size]
                dws, dbs = _batch_gradients(weights, biases, X[take], y[take])
                for k in range(len(weights)):
                    weights[k] = weights[k] - lr * dws[k]
                    biases[k] = biases[k] - lr * dbs[k]
    if not all(np.isfinite(w).all() for w in weights + biases):
        raise NoConvergence(
            None, f"network training on {interval} diverged: its weights left the finite range"
        )
    return MlpModel(model.layer_sizes, tuple(weights), tuple(biases))

