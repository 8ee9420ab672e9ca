"""Small feedforward ReLU regressors used as per-interval outcome models.

A network maps covariates x in R^p to a scalar prediction through ReLU
hidden layers and an identity output. Training minimizes the unpenalized
minibatch objective mean((pred - y)^2) by plain SGD with a fixed learning
rate; the initial weights and each network's shuffle order come from a
generator seeded with cfg.seed, so a fit is reproducible.

mlp_train trains any number of networks in lockstep, one per interval, over
stacked weights (K, out, in): each SGD step is one batched matmul program
over the minibatches of every network still training. A network's batches
are padded to batch_size with slots of weight 0, whether it trains alone or
in a stack, and matmul computes each network's slice on its own, so a
network gets the same bits in any stack, alone included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, Interval, _real, _rows, _whole, grid_cell
from .errors import EmptySegment, NoConvergence

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
        X = _rows(X, self.n_inputs, "network")
        return _forward(self.weights, self.biases, X)[0][-1].ravel()


@dataclass(frozen=True)
class TrainConfig:
    """SGD hyperparameters for the per-interval network fits.

    epochs, batch_size and every hidden width are integers >= 1; hidden = ()
    gives a linear network. learning_rate is a finite real > 0 and seed an
    integer >= 0. Each is checked at construction, so a bad setting raises
    ValueError naming its field before any network trains; a bool is none
    of them.
    """

    hidden: tuple = (32, 32)
    epochs: int = 500
    learning_rate: float = 1e-2
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "epochs", _whole("epochs", self.epochs))
        object.__setattr__(self, "batch_size", _whole("batch_size", self.batch_size))
        object.__setattr__(self, "hidden", tuple(_whole("hidden", h) for h in self.hidden))
        object.__setattr__(self, "seed", _whole("seed", self.seed, least=0))
        lr = _real("learning_rate", self.learning_rate)
        if not lr > 0:
            raise ValueError(f"learning_rate must be > 0, got {lr!r}")
        object.__setattr__(self, "learning_rate", lr)


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
    weight and bias sequences: one network, weights (out, in), biases (out,)
    and X (n, p), or a stack, weights (K, out, in), biases (K, 1, out) and
    X (K, n, p).

    Returns (acts, pres) where acts[0] = X, acts[k+1] = activation after
    layer k, pres[k] = pre-activation of layer k. The last layer is linear.
    """
    acts = [X]
    pres = []
    h = X
    last = len(weights) - 1
    for k, (w, b) in enumerate(zip(weights, biases)):
        z = h @ np.swapaxes(w, -1, -2) + b
        pres.append(z)
        h = z if k == last else np.maximum(z, 0.0)
        acts.append(h)
    return acts, pres


def _batch_gradients(weights, biases, X: np.ndarray, y: np.ndarray, div: np.ndarray,
                     dws, dbs) -> None:
    """Gradient of sum((pred - y)^2 / div) over each network's batch, into
    dws (K, out, in) and dbs (K, 1, out) per weight and bias of a stack;
    X is (K, B, p) and y, div are (K, B, 1). A real slot's div is its
    batch's row count, so the loss is the batch mean; a padding slot's div
    is inf, weight 0."""
    acts, pres = _forward(weights, biases, X)
    # d loss / d pred
    delta = 2.0 * (acts[-1] - y) / div
    for k in range(len(weights) - 1, -1, -1):
        np.matmul(np.swapaxes(delta, 1, 2), acts[k], out=dws[k])
        delta.sum(axis=1, keepdims=True, out=dbs[k])
        if k > 0:
            delta = (delta @ weights[k]) * (pres[k - 1] > 0.0)


def _layers(flat: np.ndarray, sizes: tuple):
    """Weight (K, out, in) and bias (K, 1, out) views of the rows of
    flat (K, P), layer by layer, each weight followed by its bias."""
    K, weights, biases, off = flat.shape[0], [], [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[:, off : off + fan_out * fan_in].reshape(K, fan_out, fan_in))
        off += fan_out * fan_in
        biases.append(flat[:, off : off + fan_out].reshape(K, 1, fan_out))
        off += fan_out
    return weights, biases


def _lockstep(X: np.ndarray, y: np.ndarray, rows: list, cfg: TrainConfig):
    """Parameters (K, P) of one network per row set, trained by SGD in
    lockstep, with their _layers views (weights, biases).

    Every network starts from the same init_model draw of
    default_rng(cfg.seed) and continues that generator on its own: each
    epoch it shuffles its n_k rows by permutation(n_k) and cuts them into
    ceil(n_k / batch_size) minibatches. Step j of an epoch takes batch j of
    every network that has one; rows must come sorted by size, largest
    first, so the networks still training are a prefix of the stack. An
    epoch's gathers are (K, max batches * batch_size, p).
    """
    K, bs, lr = len(rows), cfg.batch_size, cfg.learning_rate
    ns = np.array([r.size for r in rows])
    nb = -(-ns // bs)
    seeds = np.random.SeedSequence(cfg.seed)  # as default_rng(cfg.seed) seeds
    rngs = [np.random.Generator(np.random.PCG64(seeds))]
    init = init_model(X.shape[1], cfg.hidden, rngs[0])
    for _ in rows[1:]:
        bits = np.random.PCG64(seeds)
        bits.state = rngs[0].bit_generator.state
        rngs.append(np.random.Generator(bits))
    theta = np.zeros((K, sum(w.size + w.shape[0] for w in init.weights)))
    grad = np.empty_like(theta)
    weights, biases = _layers(theta, init.layer_sizes)
    for w, w0 in zip(weights, init.weights):
        w[:] = w0
    dws, dbs = _layers(grad, init.layer_sizes)
    # the slots of batch j hold min(n_k - j * bs, bs) rows; a padding slot
    # repeats the first row of its batch, so it is finite whenever the
    # batch is, and divides its loss by inf
    slot = np.arange(int(nb[0]) * bs)
    div = np.where(slot < ns[:, None], np.minimum(ns[:, None] - slot // bs * bs, bs), np.inf)
    steps = []
    for j in range(int(nb[0])):
        ka = int(np.count_nonzero(nb > j))
        cols = slice(j * bs, (j + 1) * bs)
        steps.append((ka, cols, div[:ka, cols, None], [w[:ka] for w in weights],
                      [b[:ka] for b in biases], [dw[:ka] for dw in dws], [db[:ka] for db in dbs]))
    idx = np.zeros((K, slot.size), dtype=np.intp)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            for k, (g, r) in enumerate(zip(rngs, rows)):
                order = r[g.permutation(r.size)]
                idx[k, : r.size] = order
                idx[k, r.size : nb[k] * bs] = order[(nb[k] - 1) * bs]
            Xe, ye = X[idx], y[idx][..., None]
            for ka, cols, dv, w, b, dw, db in steps:
                _batch_gradients(w, b, Xe[:ka, cols], ye[:ka, cols], dv, dw, db)
                theta[:ka] -= lr * grad[:ka]
    return theta, weights, biases


def mlp_train(d: Dataset, intervals, cfg: TrainConfig):
    """Fit a network to the observations whose treatment lies in each interval.

    intervals is one Interval, which returns one MlpModel, or a sequence of
    them, which returns a tuple of models in the same order, all trained in
    lockstep by one SGD program (_lockstep). Raises EmptySegment naming an
    interval without observations. Each minibatch applies one SGD step
    W <- W - lr * grad to every weight matrix and bias vector. A weight
    that overflows stays non-finite through every later step, so one check
    after the last epoch catches a diverging run: it raises NoConvergence
    naming the first diverging interval instead of returning a network that
    predicts NaN.
    """
    lone = isinstance(intervals, Interval)
    intervals = (intervals,) if lone else tuple(intervals)
    cells, rows = {}, []
    for iv in intervals:
        if iv.m not in cells:
            cells[iv.m] = grid_cell(d.treatments, iv.m)
        rows.append(np.flatnonzero((cells[iv.m] >= iv.lo) & (cells[iv.m] < iv.hi)))
        if rows[-1].size == 0:
            raise EmptySegment(f"no observations in {iv}")
    if not intervals:
        return ()
    order = np.argsort(-np.array([r.size for r in rows]), kind="stable")
    theta, weights, biases = _lockstep(d.covariates, d.outcomes, [rows[k] for k in order], cfg)
    finite = np.isfinite(theta).all(axis=1)
    if not finite.all():
        bad = intervals[order[~finite].min()]
        raise NoConvergence(
            None, f"network training on {bad} diverged: its weights left the finite range"
        )
    sizes = (d.p,) + cfg.hidden + (1,)
    models = [None] * len(intervals)
    for s, k in enumerate(order.tolist()):
        models[k] = MlpModel(sizes, tuple(w[s] for w in weights), tuple(b[s, 0] for b in biases))
    return models[0] if lone else tuple(models)
