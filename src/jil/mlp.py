"""Small feedforward ReLU regressors used as per-interval outcome models.

A network maps covariates x in R^p to a scalar prediction through ReLU
hidden layers and an identity output. Training minimizes the minibatch
objective mean((pred - y)^2) + l2 * sum ||W||^2 (weights only, biases
unpenalized) by plain SGD with a fixed learning rate; the shuffle order and
initial weights come from one seeded generator so a fit is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, Interval, grid_cell
from .errors import DimensionMismatch, EmptySegment

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
        if len(self.weights) != len(self.layer_sizes) - 1:
            raise ValueError("one weight matrix per layer transition required")
        if len(self.biases) != len(self.weights):
            raise ValueError("one bias vector per weight matrix required")

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_inputs:
            raise DimensionMismatch(
                f"network expects {self.n_inputs} covariates, got shape {X.shape}"
            )
        return _forward(self, X)[0][-1].ravel()


@dataclass(frozen=True)
class TrainConfig:
    """SGD hyperparameters for one per-interval network fit."""

    hidden: tuple = (32, 32)
    epochs: int = 500
    learning_rate: float = 1e-2
    batch_size: int = 32
    seed: int = 0
    l2: float = 0.0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not (self.learning_rate > 0):
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.l2 < 0:
            raise ValueError(f"l2 must be >= 0, got {self.l2}")


def init_model(p: int, hidden: tuple, rng: np.random.Generator) -> MlpModel:
    """Glorot-uniform weights, zero biases, drawn layer by layer from rng."""
    sizes = (p,) + tuple(hidden) + (1,)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, (fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(sizes, tuple(weights), tuple(biases))


def _forward(model: MlpModel, X: np.ndarray):
    """Activations and pre-activations per layer; X is (n, p).

    Returns (acts, pres) where acts[0] = X, acts[k+1] = activation after
    layer k, pres[k] = pre-activation of layer k. The last layer is linear.
    """
    acts = [X]
    pres = []
    h = X
    last = len(model.weights) - 1
    for k, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ w.T + b
        pres.append(z)
        h = z if k == last else np.maximum(z, 0.0)
        acts.append(h)
    return acts, pres


def _batch_gradients(model: MlpModel, X: np.ndarray, y: np.ndarray):
    """Mean gradient of (pred - y)^2 over the batch, per weight and bias."""
    nb = X.shape[0]
    acts, pres = _forward(model, X)
    # d mean loss / d pred
    delta = 2.0 * (acts[-1] - y[:, None]) / nb
    dws = [None] * len(model.weights)
    dbs = [None] * len(model.biases)
    for k in range(len(model.weights) - 1, -1, -1):
        dws[k] = delta.T @ acts[k]
        dbs[k] = delta.sum(axis=0)
        if k > 0:
            delta = (delta @ model.weights[k]) * (pres[k - 1] > 0.0)
    return dws, dbs


def mlp_train(d: Dataset, interval: Interval, cfg: TrainConfig) -> MlpModel:
    """Fit a network to the observations whose treatment lies in the interval.

    Raises EmptySegment when no observation falls in the interval. Rows are
    shuffled once per epoch; each minibatch applies one SGD step
    W -= lr * (grad + 2 * l2 * W), biases without the penalty term.
    """
    cells = grid_cell(d.treatments, interval.m)
    rows = np.flatnonzero((cells >= interval.lo) & (cells < interval.hi))
    if rows.size == 0:
        raise EmptySegment(f"no observations in {interval}")
    X = d.covariates[rows]
    y = d.outcomes[rows]
    rng = np.random.default_rng(cfg.seed)
    model = init_model(d.p, cfg.hidden, rng)
    weights = [w.copy() for w in model.weights]
    biases = [b.copy() for b in model.biases]
    lr = cfg.learning_rate
    nr = rows.size
    for _ in range(cfg.epochs):
        order = rng.permutation(nr)
        for start in range(0, nr, cfg.batch_size):
            take = order[start : start + cfg.batch_size]
            cur = MlpModel(model.layer_sizes, tuple(weights), tuple(biases))
            dws, dbs = _batch_gradients(cur, X[take], y[take])
            for k in range(len(weights)):
                weights[k] = weights[k] - lr * (dws[k] + 2.0 * cfg.l2 * weights[k])
                biases[k] = biases[k] - lr * dbs[k]
    return MlpModel(model.layer_sizes, tuple(weights), tuple(biases))

