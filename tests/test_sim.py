"""Scenario generators, ground-truth values, and replication drivers."""

from __future__ import annotations

import numpy as np
import pytest

import jil.sim
from jil.core import Interval, JilFit, Linear, Partition, make_grid
from jil.errors import BadSpec, InsufficientData, MissingTruth
from jil.fit import fit_djil
from jil.mlp import MlpModel, TrainConfig
from jil.policy import I2dr, MaxDose, MidPoint, UniformRandom, estimate_value, fit_propensity
from jil.sim import (
    ScenarioSpec,
    _rep_seed,
    gauss,
    gen_scenario,
    integrated_l2_loss,
    policy_value_mc,
    replicate_table1,
    theta_path,
    true_optimal_value,
)
from jil.tuning import default_gamma


# -------------------------------------------------------- scenario spec


def test_scenario_spec_validation():
    ScenarioSpec(1, 50, 2, 0)
    ScenarioSpec(5, 50, 3, 0)
    with pytest.raises(BadSpec):
        ScenarioSpec(0, 50, 2, 0)
    with pytest.raises(BadSpec):
        ScenarioSpec(6, 50, 2, 0)
    with pytest.raises(BadSpec):
        ScenarioSpec(1, 0, 2, 0)
    with pytest.raises(BadSpec):
        ScenarioSpec(1, 50, 1, 0)
    with pytest.raises(BadSpec):
        ScenarioSpec(5, 50, 2, 0)
    spec = ScenarioSpec(np.int64(1), np.int32(50), np.int64(2), np.uint64(3))
    assert spec == ScenarioSpec(1, 50, 2, 3) and {type(v) for v in vars(spec).values()} == {int}


@pytest.mark.parametrize("args, message", [
    ((1, 400.5, 4, 0), "n must be an integer"),
    ((1, True, 4, 0), "n must be an integer"),
    ((1, 400, 4.0, 0), "p must be an integer"),
    ((1, 400, 4, 1.5), "seed must be an integer"),
    ((1, 400, 4, -1), "seed must be >= 0"),
    ((1.0, 400, 4, 0), "id must be an integer"),
    ((True, 400, 4, 0), "id must be an integer"),
])
def test_scenario_spec_checks_its_integers(args, message):
    # unchecked, a float size would build a spec that gen_scenario fails on
    with pytest.raises(BadSpec, match=message):
        ScenarioSpec(*args)


# ------------------------------------------------------------ generation


def test_gen_deterministic_and_seed_sensitive():
    spec = ScenarioSpec(1, 100, 4, 42)
    d1, _ = gen_scenario(spec)
    d2, _ = gen_scenario(spec)
    d3, _ = gen_scenario(ScenarioSpec(1, 100, 4, 43))
    np.testing.assert_array_equal(d1.covariates, d2.covariates)
    np.testing.assert_array_equal(d1.treatments, d2.treatments)
    np.testing.assert_array_equal(d1.outcomes, d2.outcomes)
    assert not np.array_equal(d1.outcomes, d3.outcomes)


def test_gen_distributional_sanity():
    n = 4000
    d, _ = gen_scenario(ScenarioSpec(1, n, 3, 7))
    assert d.n == n and d.p == 3
    assert np.all(np.abs(d.covariates.mean(axis=0)) <= 4.0 / np.sqrt(n) * np.sqrt(1 / 3))
    assert abs(d.treatments.mean() - 0.5) <= 4.0 / np.sqrt(12.0) / np.sqrt(n)
    assert d.treatments.min() >= 0.0 and d.treatments.max() <= 1.0
    assert np.all(np.abs(d.covariates) <= 1.0)


def test_gen_outcome_equals_truth_plus_unit_noise():
    n = 20000
    d, oracle = gen_scenario(ScenarioSpec(2, n, 2, 11))
    eps = d.outcomes - oracle.q(d.covariates, d.treatments)
    assert abs(eps.mean()) <= 4.0 / np.sqrt(n)
    assert abs(eps.var() - 1.0) <= 4.0 * np.sqrt(2.0 / n)


def test_q_hand_values():
    _, o1 = gen_scenario(ScenarioSpec(1, 10, 4, 0))
    x = np.array([0.5, 0.0, 0.0, 0.0])
    assert float(o1.q(x, 0.1)) == pytest.approx(1.5, rel=1e-15)
    assert float(o1.q(x, 0.5)) == pytest.approx(0.5 - 0.0, rel=1e-15)
    assert float(o1.q(np.array([0.0, 0.3, 0.0, 0.0]), 0.9)) == pytest.approx(0.7, rel=1e-15)

    _, o4 = gen_scenario(ScenarioSpec(4, 10, 2, 0))
    assert float(o4.q(np.array([0.7, -0.3]), 0.5)) == 0.0

    _, o5 = gen_scenario(ScenarioSpec(5, 10, 3, 0))
    assert float(o5.q(np.zeros(3), 0.25)) == pytest.approx(5.5, rel=1e-15)


def test_truth_constant_in_a_within_segments():
    for sid, cuts in ((1, [0.35, 0.65]), (2, [0.35, 0.65]), (3, [0.25, 0.5, 0.75])):
        _, oracle = gen_scenario(ScenarioSpec(sid, 10, 3, 1))
        assert oracle.true_change_points == cuts
        edges = [0.0] + cuts + [1.0]
        rng = np.random.default_rng(3)
        for lo, hi in zip(edges[:-1], edges[1:]):
            agrid = np.linspace(lo + 1e-9, hi - 1e-9, 50)
            for x in rng.uniform(-1, 1, (5, 3)):
                vals = np.array([float(oracle.q(x, a)) for a in agrid])
                assert np.all(vals == vals[0])


@pytest.mark.parametrize("sid", [1, 2, 3])
def test_truth_switches_pieces_exactly_at_change_points(sid):
    # Q, the change points and (scenario 1) theta_0 must agree on where each
    # piece starts: just below a cut is the left piece, the cut itself the right
    _, oracle = gen_scenario(ScenarioSpec(sid, 10, 3, 1))
    cuts = oracle.true_change_points
    assert isinstance(cuts, list)
    edges = [0.0] + cuts + [1.0]
    X = np.random.default_rng(4).uniform(-1, 1, (50, 3))
    for k, c in enumerate(cuts):
        left, right = (edges[k] + c) / 2.0, (c + edges[k + 2]) / 2.0
        below = np.nextafter(c, 0.0)
        np.testing.assert_array_equal(oracle.q(X, below), oracle.q(X, left))
        np.testing.assert_array_equal(oracle.q(X, c), oracle.q(X, right))
        if sid == 1:
            theta = oracle.true_theta
            np.testing.assert_array_equal(theta(below), theta(left))
            np.testing.assert_array_equal(theta(c), theta(right))
            assert not np.array_equal(theta(below), theta(c))


def test_s4_s5_have_no_jumps():
    _, o4 = gen_scenario(ScenarioSpec(4, 10, 2, 0))
    _, o5 = gen_scenario(ScenarioSpec(5, 10, 3, 0))
    assert o4.true_change_points is None and o4.true_theta is None
    assert o5.true_change_points is None and o5.true_theta is None


# ------------------------------------------------------------- gaussian


def test_gauss_deterministic():
    a = gauss(np.random.default_rng(5), 100)
    b = gauss(np.random.default_rng(5), 100)
    np.testing.assert_array_equal(a, b)


def test_gauss_standard_normal_moments():
    z = gauss(np.random.default_rng(17), 200_000)
    n = z.size
    assert abs(z.mean()) <= 4.0 / np.sqrt(n)
    assert abs(z.var() - 1.0) <= 4.0 * np.sqrt(2.0 / n)
    skew = np.mean(z**3)
    assert abs(skew) <= 4.0 * np.sqrt(6.0 / n) + 0.01
    inside = np.mean(np.abs(z) < 1.0)
    assert abs(inside - 0.6826894921370859) <= 0.005


# ------------------------------------------------------- optimal values


def test_true_optimal_values_match_published():
    targets = {1: 1.34, 2: 1.35, 3: 0.76, 4: 1.28, 5: 8.00}
    for sid, v in targets.items():
        p = 3 if sid == 5 else 2
        got = true_optimal_value(ScenarioSpec(sid, 10, p, 0), 100_000, seed=99)
        assert got == pytest.approx(v, abs=0.03), f"scenario {sid}"


@pytest.mark.parametrize("sid", [1, 2, 3])
def test_true_optimal_value_piecewise_is_dense_grid_max(sid):
    # Q is constant in a between its change points, so the supremum over a
    # is the maximum of the true Q over a dense dose grid
    spec = ScenarioSpec(sid, 10, 2, 0)
    _, oracle = gen_scenario(spec)
    X = np.random.default_rng(6).uniform(-1.0, 1.0, (2000, 2))
    dense = np.max([oracle.q(X, a) for a in np.linspace(0.0, 1.0, 801)], axis=0)
    assert true_optimal_value(spec, 2000, seed=6) == float(np.mean(dense))


def test_true_optimal_value_rejects_few_draws():
    with pytest.raises(ValueError, match="n_mc must be >= 1000"):
        true_optimal_value(ScenarioSpec(1, 10, 4, 0), 999, seed=0)


def test_monte_carlo_values_take_integer_draws_and_seeds():
    # a float draw count failed inside numpy with an unrelated TypeError
    spec, rule = ScenarioSpec(1, 10, 2, 0), s1_oracle_rule()
    for n_mc, seed, field in ((1000.5, 0, "n_mc"), (2000.0, 0, "n_mc"), (True, 0, "n_mc"),
                              (2000, 1.5, "seed"), (2000, -1, "seed"), (2000, "3", "seed")):
        with pytest.raises(ValueError, match=f"{field} must be"):
            true_optimal_value(spec, n_mc, seed)
        with pytest.raises(ValueError, match=f"{field} must be"):
            policy_value_mc(rule, MidPoint(), spec, n_mc, seed)
    for n_mc in (2.5, 5.0, np.float64(5.0)):
        with pytest.raises(ValueError, match="n_mc must be an integer"):
            policy_value_mc(rule, MidPoint(), spec, n_mc, 0)
    assert true_optimal_value(spec, np.int64(2000), np.int32(1)) == true_optimal_value(spec, 2000, 1)


def test_true_optimal_value_deterministic():
    spec = ScenarioSpec(3, 10, 2, 0)
    assert true_optimal_value(spec, 10_000, seed=4) == true_optimal_value(spec, 10_000, seed=4)


# ------------------------------------------------------------- mc value


def s1_oracle_rule(p=2):
    part = Partition.from_edges([0, 7, 13, 20], 20)
    th = np.zeros((3, p + 1))
    th[0, 0], th[0, 1] = 1.0, 1.0
    th[1, 1], th[1, 2] = 1.0, -1.0
    th[2, 0], th[2, 2] = 1.0, -1.0
    models = tuple(Linear(t) for t in th)
    return I2dr(JilFit(part, models, 20, 0.0, 0.1, 0.0))


def test_policy_value_midpoint_s4_zero():
    rule = I2dr(
        JilFit(
            Partition.from_edges([0, 4], 4),
            (Linear(np.zeros(3)),),
            4, 0.0, 0.1, 0.0,
        )
    )
    v = policy_value_mc(rule, MidPoint(), ScenarioSpec(4, 10, 2, 0), 20_000, seed=3)
    assert v == pytest.approx(0.0, abs=1e-15)


def test_policy_value_oracle_rule_near_published():
    v = policy_value_mc(s1_oracle_rule(), MidPoint(), ScenarioSpec(1, 10, 2, 0), 100_000, seed=8)
    assert v == pytest.approx(1.34, abs=0.02)


def test_policy_value_dominated_by_oracle(rng):
    spec = ScenarioSpec(1, 10, 2, 0)
    v_star = policy_value_mc(s1_oracle_rule(), MidPoint(), spec, 50_000, seed=21)
    part = Partition.from_edges([0, 7, 13, 20], 20)
    models = tuple(Linear(t) for t in rng.standard_normal((3, 3)))
    rand_rule = I2dr(JilFit(part, models, 20, 0.0, 0.1, 0.0))
    v_rand = policy_value_mc(rand_rule, MidPoint(), spec, 50_000, seed=21)
    assert v_rand <= v_star + 1e-9


def test_policy_value_uniform_preference_runs():
    spec = ScenarioSpec(1, 10, 2, 0)
    v = policy_value_mc(s1_oracle_rule(), UniformRandom(seed=2), spec, 20_000, seed=5)
    # doses inside each piecewise-constant segment give the segment value,
    # so the uniform preference can only lose mass near segment boundaries
    assert v == pytest.approx(1.34, abs=0.05)
    v2 = policy_value_mc(s1_oracle_rule(), MaxDose(), spec, 20_000, seed=5)
    assert np.isfinite(v2)


def test_policy_value_rejects_empty_mc():
    # an empty Monte-Carlo mean is NaN; it must fail, not return
    for n_mc in (0, -1):
        with pytest.raises(ValueError, match=f"n_mc must be >= 1, got {n_mc}"):
            policy_value_mc(s1_oracle_rule(), MidPoint(), ScenarioSpec(1, 10, 2, 0), n_mc, seed=1)


# -------------------------------------------------------------- l2 loss


def s1_true_fit(p=4, m=20, edges=(0, 7, 13, 20)):
    part = Partition.from_edges(list(edges), m)
    th = np.zeros((3, p + 1))
    th[0, 0], th[0, 1] = 1.0, 1.0
    th[1, 1], th[1, 2] = 1.0, -1.0
    th[2, 0], th[2, 2] = 1.0, -1.0
    return JilFit(part, tuple(Linear(t) for t in th), m, 0.0, 0.1, 0.0), th


def test_l2_loss_zero_for_truth():
    fit, _ = s1_true_fit()
    _, oracle = gen_scenario(ScenarioSpec(1, 10, 4, 0))
    assert integrated_l2_loss(fit, oracle) == 0.0


def test_l2_loss_constant_offset():
    fit, th = s1_true_fit()
    delta = np.array([0.1, -0.2, 0.3, 0.0, 0.05])
    shifted = JilFit(
        fit.partition,
        tuple(Linear(t + delta) for t in th),
        fit.m, 0.0, 0.1, 0.0,
    )
    _, oracle = gen_scenario(ScenarioSpec(1, 10, 4, 0))
    want = float(np.dot(delta, delta))
    assert integrated_l2_loss(shifted, oracle) == pytest.approx(want, rel=1e-12)


def test_l2_loss_exact_where_an_edge_misses_a_cut():
    # edge 57/160 = 0.35625 lies on no fixed quadrature node grid; on
    # [0.35, 0.35625) the fit holds the first piece's row where the truth
    # holds the second, ||(1, 0, 1, 0, 0)||^2 = 2
    fit, _ = s1_true_fit(m=160, edges=(0, 57, 104, 160))
    _, oracle = gen_scenario(ScenarioSpec(1, 10, 4, 0))
    assert integrated_l2_loss(fit, oracle) == pytest.approx(2 * (57 / 160 - 0.35), rel=1e-12)


def test_l2_loss_missing_truth():
    fit, _ = s1_true_fit(p=2)
    _, oracle = gen_scenario(ScenarioSpec(4, 10, 2, 0))
    with pytest.raises(MissingTruth):
        integrated_l2_loss(fit, oracle)


def test_l2_loss_rejects_network_fit():
    fit, _ = s1_true_fit()
    net = MlpModel((4, 1), (np.zeros((1, 4)),), (np.zeros(1),))
    bad = JilFit(fit.partition, (net,) * fit.partition.size, fit.m, 0.0, 0.1, 0.0)
    assert bad.method == "djil"
    _, oracle = gen_scenario(ScenarioSpec(1, 10, 4, 0))
    with pytest.raises(ValueError):
        integrated_l2_loss(bad, oracle)


def test_theta_path_right_continuous():
    fit, th = s1_true_fit()
    eps = 1e-9
    at_cut = theta_path(fit, np.array([0.35, 0.35 - eps, 0.65, 0.65 - eps]))
    np.testing.assert_array_equal(at_cut[0], th[1])
    np.testing.assert_array_equal(at_cut[1], th[0])
    np.testing.assert_array_equal(at_cut[2], th[2])
    np.testing.assert_array_equal(at_cut[3], th[1])


# ----------------------------------------------------------- replication


def test_replicate_table1_smoke_and_determinism():
    s1 = replicate_table1(3, 120, seed=5)
    s2 = replicate_table1(3, 120, seed=5)
    assert s1["mean_v_hat"] == s2["mean_v_hat"]
    assert s1["mean_sigma_hat"] == s2["mean_sigma_hat"]
    assert s1["coverage_pct"] == s2["coverage_pct"]
    assert [r["v_hat"] for r in s1["records"]] == [r["v_hat"] for r in s2["records"]]
    assert 0.0 <= s1["coverage_pct"] <= 100.0
    assert s1["mean_segments"] >= 1.0
    assert s1["mean_l2"] >= 0.0
    assert len(s1["records"]) == 3


def test_replicate_table1_records_do_not_depend_on_rep_count():
    # each replication draws from its own (seed, rep) seed, so the first
    # replications of a longer run are the records of a shorter one
    a = replicate_table1(2, 100, seed=9, v_opt=1.34)
    b = replicate_table1(3, 100, seed=9, v_opt=1.34)
    assert b["records"][:2] == a["records"]


def test_replicate_table1_explicit_v_opt_changes_coverage_only():
    a = replicate_table1(2, 100, seed=3, v_opt=1.34)
    b = replicate_table1(2, 100, seed=3, v_opt=-100.0)
    assert [r["v_hat"] for r in a["records"]] == [r["v_hat"] for r in b["records"]]
    assert b["coverage_pct"] == 0.0


def test_replicate_table1_djil_matches_direct_fits():
    res = replicate_table1(2, 40, seed=3, c=10.0, method="djil", v_opt=1.34)
    m = make_grid(40, 10.0)
    for rep, rec in enumerate(res["records"]):
        spec = ScenarioSpec(1, 40, 4, _rep_seed(3, rep))
        d, _ = gen_scenario(spec)
        fit = fit_djil(d, m, default_gamma(40), TrainConfig(seed=spec.seed))
        value = estimate_value(d, I2dr(fit), fit_propensity(d, fit.partition), 0.05)
        assert rec["v_hat"] == value.v_hat
        assert rec["sigma_hat"] == value.sigma_hat
        assert rec["boundaries"] == fit.partition.boundaries()
        assert rec["l2"] is None
    assert res["mean_l2"] is None


def test_replicate_table1_rejects_unknown_method():
    with pytest.raises(ValueError, match="method"):
        replicate_table1(1, 40, seed=0, method="mlp", v_opt=1.34)


def test_replicate_table1_checks_sample_size_before_v_opt(monkeypatch):
    # the 10^6-draw v_opt run must not precede the sample-size check
    def boom(*args):
        raise AssertionError("v_opt computed before the sample-size check")

    monkeypatch.setattr(jil.sim, "true_optimal_value", boom)
    with pytest.raises(InsufficientData):
        replicate_table1(1, 1, 0)


def test_replicate_table1_rejects_no_reps():
    # zero replications would aggregate to NaN means
    for reps in (0, -2):
        with pytest.raises(ValueError, match=f"reps must be >= 1, got {reps}"):
            replicate_table1(reps, 40, seed=0, v_opt=1.34)
    # a float or a bool is refused before any replication runs, not truncated
    for reps in (2.5, 2.0, True):
        with pytest.raises(ValueError, match="reps must be an integer"):
            replicate_table1(reps, 40, seed=0, v_opt=1.34)
