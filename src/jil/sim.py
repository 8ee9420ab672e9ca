"""Simulation scenarios, ground-truth values, and replication drivers.

Five generative models share the frame X ~ Unif[-1,1]^p, A ~ Unif[0,1],
Y | X, A ~ N(Q(X, A), 1). Scenarios 1-3 are piecewise constant in the
treatment (jumps at known change points); scenario 4 is tent-shaped in a
and scenario 5 quadratic in a with an interior per-x maximizer.

Each scenario is one record: minimum p, Q, sup_a Q, and for scenarios 1-3
the cut points. A piecewise scenario is declared as its cuts plus one
function of X per piece; its Q, sup_a Q, change points and theta_0 all
derive from that declaration, so they agree on where each jump is.

Gaussian noise comes from an in-repo Box-Muller transform over the
generator's uniform stream, so datasets are reproducible bit for bit from
a seed across platforms. Replications run one after another in one
process, each on its own seed derived from (seed, rep index), so a
replication's record does not depend on how many others run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, _whole, make_grid
from .errors import BadSpec, MissingTruth
from .fit import fit_djil, fit_ljil
from .mlp import TrainConfig
from .policy import I2dr, _doses, estimate_value, fit_propensity, recommend_batch
from .tuning import default_gamma

__all__ = [
    "ScenarioSpec",
    "TruthOracle",
    "gauss",
    "gen_scenario",
    "true_optimal_value",
    "policy_value_mc",
    "integrated_l2_loss",
    "theta_path",
    "replicate_table1",
]


@dataclass(frozen=True)
class ScenarioSpec:
    """One generative setting: scenario id 1-5, sample size, dimension, seed;
    each an integer, never a bool, checked when built (BadSpec naming it)."""

    id: int
    n: int
    p: int
    seed: int

    def __post_init__(self):
        for name, least in (("id", None), ("n", 1), ("p", None), ("seed", 0)):
            try:
                object.__setattr__(self, name, _whole(name, getattr(self, name), least))
            except ValueError as e:
                raise BadSpec(str(e)) from None
        if self.id not in _SCENARIOS:
            raise BadSpec(f"scenario id must be 1..5, got {self.id}")
        min_p = _SCENARIOS[self.id].min_p
        if self.p < min_p:
            raise BadSpec(f"scenario {self.id} needs p >= {min_p}, got {self.p}")


@dataclass(frozen=True)
class TruthOracle:
    """Ground truth for a scenario: Q, jump locations, coefficient path.

    q(x, a) evaluates the outcome regression for one row or a batch.
    true_change_points / true_theta are None when the scenario has no jumps
    or no linear-in-x representation.
    """

    scenario: ScenarioSpec
    q: object
    true_change_points: object = None
    true_theta: object = None


def gauss(rng: np.random.Generator, size: int) -> np.ndarray:
    """Standard normal draws via Box-Muller over the generator's uniforms."""
    u1 = rng.random(size)
    u2 = rng.random(size)
    return np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)


# ------------------------------------------------------------- scenarios


@dataclass(frozen=True)
class _Scenario:
    """One scenario's truth: the minimum p, Q(X, A), sup_a Q(X), and for
    the piecewise-constant scenarios the cuts and, when Q is linear in
    (1, x1, x2) on every piece, the coefficient rows of theta_0."""

    min_p: int
    q: object
    sup: object
    cuts: tuple = None
    theta: tuple = None

    def oracle(self, spec: ScenarioSpec) -> TruthOracle:
        def q(x, a):
            out = self.q(np.asarray(x, dtype=float), np.asarray(a, dtype=float))
            return float(out) if np.ndim(out) == 0 else out

        theta0 = None
        if self.theta is not None:
            th = np.zeros((len(self.theta), spec.p + 1))
            th[:, :3] = self.theta

            def theta0(a):
                return th[np.searchsorted(self.cuts, a, side="right")]

        cuts = None if self.cuts is None else list(self.cuts)
        return TruthOracle(spec, q, cuts, theta0)


def _piecewise(cuts, *pieces, theta=None) -> _Scenario:
    """A scenario whose Q is pieces[k](X) on the k-th dose interval of
    [0, 1] cut at cuts, each interval closed on the left. The pieces read
    x1 and x2, so p >= 2."""

    def q(X, A):
        out = pieces[-1](X)
        for c, piece in zip(cuts[::-1], pieces[-2::-1]):
            out = np.where(A < c, piece(X), out)
        return out

    def sup(X):
        out = pieces[0](X)
        for piece in pieces[1:]:
            out = np.maximum(out, piece(X))
        return out

    return _Scenario(2, q, sup, cuts, theta)


def _s4_slope(X):
    return 1.0 + 2.0 * X[..., 0] - 2.0 * X[..., 1]


def _q_s4(X, A):
    return 2.0 * np.abs(A - 0.5) * _s4_slope(X)


def _sup_s4(X):
    # 2|a - 0.5| peaks at either endpoint; a = 0.5 gives 0 when the slope
    # is negative
    return np.maximum(_s4_slope(X), 0.0)


def _sup_s5(X):
    # the maximizer a = 0.5 + 0.25 (x1 + x2) always lies inside [0, 1]
    return 8.0 + 4.0 * X[..., 0] - 2.0 * X[..., 1] - 2.0 * X[..., 2]


def _q_s5(X, A):
    g = 1.0 + 0.5 * X[..., 0] + 0.5 * X[..., 1] - 2.0 * A
    return _sup_s5(X) - 10.0 * g * g


_SCENARIOS = {
    1: _piecewise(
        (0.35, 0.65),
        lambda X: 1.0 + X[..., 0],
        lambda X: X[..., 0] - X[..., 1],
        lambda X: 1.0 - X[..., 1],
        theta=((1.0, 1.0, 0.0), (0.0, 1.0, -1.0), (1.0, 0.0, -1.0)),
    ),
    2: _piecewise(
        (0.35, 0.65),
        lambda X: 1.0 + X[..., 0] ** 3,
        lambda X: X[..., 0] - np.log(1.5 + X[..., 1]),
        lambda X: 1.0 - np.sin(0.5 * np.pi * X[..., 1]),
    ),
    3: _piecewise(
        (0.25, 0.5, 0.75),
        lambda X: np.sqrt(X[..., 0] / 2.0 + 0.5),
        lambda X: np.sin(2.0 * np.pi * X[..., 1]),
        lambda X: 0.5 - (X[..., 0] + X[..., 1] - 0.75) ** 2,
        lambda X: 0.5,
    ),
    4: _Scenario(2, _q_s4, _sup_s4),
    5: _Scenario(3, _q_s5, _sup_s5),
}


def gen_scenario(spec: ScenarioSpec):
    """Draw one dataset from the scenario; returns (Dataset, TruthOracle).

    Draw order from the seeded generator: covariates, treatments, noise.
    """
    rng = np.random.default_rng(spec.seed)
    X = rng.uniform(-1.0, 1.0, (spec.n, spec.p))
    A = rng.random(spec.n)
    eps = gauss(rng, spec.n)
    scenario = _SCENARIOS[spec.id]
    return Dataset(X, A, scenario.q(X, A) + eps), scenario.oracle(spec)


def true_optimal_value(spec: ScenarioSpec, n_mc: int, seed: int) -> float:
    """Monte-Carlo E[sup_a Q(X, a)] using the exact per-x supremum; n_mc an
    integer >= 1000 and seed one >= 0 (ValueError naming it)."""
    n_mc, seed = _whole("n_mc", n_mc, least=1000), _whole("seed", seed, least=0)
    X = np.random.default_rng(seed).uniform(-1.0, 1.0, (n_mc, spec.p))
    return float(np.mean(_SCENARIOS[spec.id].sup(X)))


def policy_value_mc(rule: I2dr, pref, spec: ScenarioSpec, n_mc: int, seed: int) -> float:
    """Value of a fitted rule under a dose preference, by fresh-draw MC.

    Uses the scenario's exact Q with no outcome noise; n_mc is an integer
    >= 1 and seed one >= 0 (ValueError naming it).
    """
    n_mc, seed = _whole("n_mc", n_mc), _whole("seed", seed, least=0)
    X = np.random.default_rng(seed).uniform(-1.0, 1.0, (n_mc, spec.p))
    idx = recommend_batch(rule, X)
    edges = np.array(rule.fit.partition.edges())
    doses = _doses(edges[idx], edges[idx + 1], rule.fit.m, pref)
    return float(np.mean(_SCENARIOS[spec.id].q(X, doses)))


def theta_path(fit, a: np.ndarray) -> np.ndarray:
    """Piecewise coefficient path theta_hat(a), one row per value of a."""
    if fit.method != "ljil":
        raise ValueError("coefficient paths are defined for linear fits only")
    thetas = np.stack([mod.theta for mod in fit.models])
    return thetas[fit.partition.locate(np.asarray(a, dtype=float))]


def integrated_l2_loss(fit, oracle: TruthOracle) -> float:
    """Integral of ||theta_hat(a) - theta_0(a)||^2 over [0, 1], exact: both
    paths are constant between the fit's edges k/m and the true change
    points, so it sums each such piece's length times the squared distance
    at the piece's midpoint."""
    if oracle.true_theta is None:
        raise MissingTruth(f"scenario {oracle.scenario.id} has no linear coefficient truth")
    knots = np.union1d(np.asarray(fit.partition.edges()) / fit.m, oracle.true_change_points)
    mids = 0.5 * (knots[:-1] + knots[1:])
    diff = theta_path(fit, mids) - oracle.true_theta(mids)
    return float(np.sum(np.diff(knots) * np.sum(diff * diff, axis=1)))


# ------------------------------------------------------------ replication


def _rep_seed(seed: int, rep: int) -> int:
    return int(np.random.SeedSequence((seed, rep)).generate_state(1, np.uint64)[0])


def _table1_rep(method: str, spec: ScenarioSpec, m: int, gamma: float) -> dict:
    d, oracle = gen_scenario(spec)
    if method == "ljil":
        fit = fit_ljil(d, m, 0.0, gamma)
    else:
        fit = fit_djil(d, m, gamma, TrainConfig(seed=spec.seed))
    rule = I2dr(fit)
    prop = fit_propensity(d, fit.partition)
    rep_value = estimate_value(d, rule, prop, 0.05)
    has_theta = method == "ljil" and oracle.true_theta is not None
    l2 = integrated_l2_loss(fit, oracle) if has_theta else None
    return {
        "v_hat": rep_value.v_hat,
        "sigma_hat": rep_value.sigma_hat,
        "ci_lo": rep_value.ci_lo,
        "ci_hi": rep_value.ci_hi,
        "n_segments": fit.partition.size,
        "boundaries": fit.partition.boundaries(),
        "l2": l2,
    }


def replicate_table1(
    reps: int,
    n: int,
    seed: int,
    scenario: int = 1,
    p: int = 4,
    c: float = 5.0,
    v_opt: float = None,
    method: str = "ljil",
) -> dict:
    """Full-pipeline replications: generate, fit, estimate value, aggregate.

    Every replication fits the headline simulation's setting: m = n/c,
    jump penalty gamma = default_gamma(n) = 4 log(n)/n, and a 95% Wald
    interval (alpha = 0.05). method "ljil" fits ridge segments at
    lambda = 0; "djil" fits networks with the default TrainConfig seeded by
    the replication's data seed and reports l2 = None. Coverage counts
    replications whose CI contains v_opt (estimated by a 10^6-draw MC when
    not supplied). reps must be an integer >= 1, not a bool (ValueError).
    """
    if method not in ("ljil", "djil"):
        raise ValueError(f"method must be 'ljil' or 'djil', got {method!r}")
    reps = _whole("reps", reps)
    # every argument is checked before the Monte-Carlo v_opt run
    spec = ScenarioSpec(scenario, n, p, seed)
    m = make_grid(n, c)
    gamma = default_gamma(n)
    if v_opt is None:
        v_opt = true_optimal_value(spec, 10**6, seed)
    records = [
        _table1_rep(method, ScenarioSpec(scenario, n, p, _rep_seed(seed, r)), m, gamma)
        for r in range(reps)
    ]
    for r in records:
        r["covered"] = bool(r["ci_lo"] <= v_opt <= r["ci_hi"])
    l2s = [r["l2"] for r in records if r["l2"] is not None]
    return {
        "mean_v_hat": float(np.mean([r["v_hat"] for r in records])),
        "mean_sigma_hat": float(np.mean([r["sigma_hat"] for r in records])),
        "coverage_pct": 100.0 * float(np.mean([r["covered"] for r in records])),
        "mean_segments": float(np.mean([r["n_segments"] for r in records])),
        "mean_l2": float(np.mean(l2s)) if l2s else None,
        "v_opt": float(v_opt),
        "records": records,
    }
