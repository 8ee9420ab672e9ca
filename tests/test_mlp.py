"""Feedforward ReLU regressor: forward pass, backprop, lockstep training, cost."""

from __future__ import annotations

import re
import warnings

import numpy as np
import pytest

from jil.core import Dataset, Interval, normalize_treatment
from jil.errors import DimensionMismatch, EmptySegment, NoConvergence
import jil.fit as fit_mod
from jil.fit import NetworkCosts
from jil.segment import _block_width
from jil.sim import ScenarioSpec, gen_scenario
from jil.mlp import MlpModel, TrainConfig, init_model, mlp_train

from conftest import diverging_sgd_rows, gradient_check, reference_mlp_train, stack_gradients


def predict_one(model, x):
    """The network's prediction at one covariate vector, through predict_batch."""
    return float(model.predict_batch(np.asarray(x, dtype=float)[None, :])[0])


def hand_model(layer_sizes, weights, biases):
    return MlpModel(
        layer_sizes=tuple(layer_sizes),
        weights=tuple(np.asarray(w, dtype=float) for w in weights),
        biases=tuple(np.asarray(b, dtype=float) for b in biases),
    )


# ---------------------------------------------------------------- predict


def test_predict_zero_network():
    model = hand_model([3, 2, 1], [np.zeros((2, 3)), np.zeros((1, 2))], [np.zeros(2), np.zeros(1)])
    assert predict_one(model, np.array([1.0, -2.0, 0.5])) == 0.0


def test_predict_single_hidden_unit_hand_eval():
    # ReLU(1*2 - 1) * 1 + 0 = 1
    model = hand_model([1, 1, 1], [np.array([[1.0]]), np.array([[1.0]])],
                       [np.array([-1.0]), np.array([0.0])])
    assert predict_one(model, np.array([2.0])) == 1.0


def test_predict_relu_clips_negative_preactivation():
    model = hand_model([1, 1, 1], [np.array([[-2.0]]), np.array([[1.0]])],
                       [np.array([0.0]), np.array([0.7])])
    # preactivation -1 clips to 0, output equals the output bias
    assert predict_one(model, np.array([0.5])) == 0.7


def test_predict_dimension_mismatch():
    model = hand_model([2, 1], [np.zeros((1, 2))], [np.zeros(1)])
    for X in (np.array([[1.0, 2.0, 3.0]]), np.array([1.0, 2.0])):
        with pytest.raises(DimensionMismatch):
            model.predict_batch(X)


# ---------------------------------------------------------------- training


def full_interval(n):
    return Interval(0, 1, 1)


def test_train_constant_target(rng):
    n = 60
    d = Dataset(rng.uniform(-1, 1, (n, 2)), rng.random(n), np.full(n, 3.0))
    cfg = TrainConfig(hidden=(8,), epochs=200, learning_rate=0.05, batch_size=16, seed=1)
    model = mlp_train(d, full_interval(n), cfg)
    preds = model.predict_batch(d.covariates)
    assert np.all(np.abs(preds - 3.0) < 0.1)


def test_train_no_hidden_matches_least_squares(rng):
    # a linear "network" trained by full-batch gradient descent converges to
    # the least-squares solution on a well-conditioned instance
    n = 100
    X = rng.uniform(-1, 1, (n, 2))
    Y = 1.0 + 2.0 * X[:, 0] - X[:, 1] + 0.05 * rng.standard_normal(n)
    d = Dataset(X, rng.random(n), Y)
    cfg = TrainConfig(hidden=(), epochs=2000, learning_rate=0.3, batch_size=n, seed=3)
    model = mlp_train(d, full_interval(n), cfg)
    Xb = np.hstack([np.ones((n, 1)), X])
    theta, *_ = np.linalg.lstsq(Xb, Y, rcond=None)
    got = np.concatenate([model.biases[0], model.weights[0].ravel()])
    np.testing.assert_allclose(got, theta, atol=1e-3)


def test_train_deterministic_given_seed(rng):
    n = 50
    d = Dataset(rng.uniform(-1, 1, (n, 2)), rng.random(n), rng.standard_normal(n))
    cfg = TrainConfig(hidden=(6, 4), epochs=30, learning_rate=0.01, batch_size=8, seed=42)
    m1 = mlp_train(d, full_interval(n), cfg)
    m2 = mlp_train(d, full_interval(n), cfg)
    for w1, w2 in zip(m1.weights, m2.weights):
        np.testing.assert_array_equal(w1, w2)
    for b1, b2 in zip(m1.biases, m2.biases):
        np.testing.assert_array_equal(b1, b2)


def test_train_empty_segment_raises(rng):
    d = Dataset(rng.uniform(-1, 1, (10, 2)), np.full(10, 0.05), rng.standard_normal(10))
    cfg = TrainConfig(hidden=(4,), epochs=5, learning_rate=0.01, batch_size=4, seed=0)
    with pytest.raises(EmptySegment):
        mlp_train(d, Interval(5, 10, 10), cfg)


def test_train_diverging_sgd_raises_naming_the_interval():
    # outcomes near 1e7 overflow SGD at the default rate: the run must fail,
    # not return a network that predicts NaN, and warn about nothing on the way
    y, a, X = diverging_sgd_rows()
    d = Dataset(X, normalize_treatment(a), y)
    iv = Interval(5, 8, 12)
    with pytest.raises(NoConvergence, match=re.escape(f"network training on {iv} diverged")) as info:
        mlp_train(d, iv, TrainConfig())
    assert info.value.decrement is None


def cells_dataset(counts, p=2, seed=0):
    """Rows whose doses put counts[k] of them in cell k of a len(counts)-cell grid."""
    r = np.random.default_rng(seed)
    m = len(counts)
    A = np.repeat((np.arange(m) + 0.5) / m, counts)
    X = r.uniform(-1, 1, (A.size, p))
    return Dataset(X, A, np.sin(3 * X[:, 0]) + 0.3 * r.standard_normal(A.size)), m


def model_bytes(model):
    return [a.tobytes() for a in model.weights + model.biases]


@pytest.mark.parametrize("hidden", [(8,), (4, 3), ()])
def test_network_gets_the_same_bits_in_any_stack(hidden):
    # row counts around the batch size: one row, a short batch, a full one,
    # one row over, and a short last batch after three full ones; a network
    # with fewer batches idles while the others still step
    bs = 6
    d, m = cells_dataset([1, bs - 1, bs, bs + 1, 3 * bs + 5])
    cfg = TrainConfig(hidden=hidden, epochs=3, learning_rate=0.05, batch_size=bs, seed=4)
    ivs = tuple(Interval(k, k + 1, m) for k in range(m))
    alone = [model_bytes(mlp_train(d, iv, cfg)) for iv in ivs]
    stacked = mlp_train(d, ivs, cfg)
    assert isinstance(stacked, tuple) and len(stacked) == m
    assert [model_bytes(net) for net in stacked] == alone
    dup = (ivs[3], ivs[4], ivs[0], ivs[3])
    assert [model_bytes(net) for net in mlp_train(d, dup, cfg)] == [alone[3], alone[4], alone[0], alone[3]]
    assert mlp_train(d, (), cfg) == ()


def test_stack_names_an_empty_interval(rng):
    d, m = cells_dataset([4, 0, 3])
    cfg = TrainConfig(hidden=(2,), epochs=1)
    with pytest.raises(EmptySegment, match=re.escape(str(Interval(1, 2, m)))):
        mlp_train(d, (Interval(0, 1, m), Interval(1, 2, m), Interval(2, 3, m)), cfg)


def test_stack_with_a_diverging_network_names_it_and_warns_nothing():
    # the rows of test_train_diverging_sgd_raises_naming_the_interval with
    # their doses moved into [0.5, 1], so its diverging interval
    # [5/12, 8/12) becomes [17/24, 20/24); well-scaled rows fill [0, 0.5)
    y, a, X = diverging_sgd_rows()
    r = np.random.default_rng(1)
    d = Dataset(np.vstack([X, r.uniform(-1, 1, (40, 2))]),
                np.concatenate([0.5 + 0.5 * normalize_treatment(a), r.uniform(0.0, 0.5, 40)]),
                np.concatenate([y, r.standard_normal(40)]))
    finite, diverging = Interval(0, 12, 24), Interval(17, 20, 24)
    cfg = TrainConfig()
    assert np.isfinite(mlp_train(d, finite, cfg).weights[0]).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoConvergence,
                           match=re.escape(f"network training on {diverging} diverged")):
            mlp_train(d, (finite, diverging, finite), cfg)


@pytest.mark.parametrize("hidden, epochs", [((8,), 5), ((32, 32), 50)])
def test_lockstep_matches_reference_sgd_loop(hidden, epochs):
    # padding slots change the order of the gradient sums, so the weights
    # agree up to rounding, not bit for bit
    d, _ = gen_scenario(ScenarioSpec(2, 200, 4, 3))
    m = 20
    cfg = TrainConfig(hidden=hidden, epochs=epochs, seed=2)
    ivs = tuple(Interval(lo, hi, m) for lo, hi in ((0, 20), (0, 5), (3, 9), (10, 11), (12, 20)))
    for iv, net in zip(ivs, mlp_train(d, ivs, cfg)):
        want = reference_mlp_train(d, iv, cfg)
        for got, ref in zip(net.weights + net.biases, want.weights + want.biases):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize(
    "field, value",
    [("epochs", 0), ("batch_size", 0), ("learning_rate", 0.0), ("learning_rate", -0.1),
     ("learning_rate", float("nan")), ("epochs", 2.5), ("epochs", True), ("epochs", -1),
     ("batch_size", 1.5), ("batch_size", False), ("hidden", (2.5,)), ("hidden", (-3,)),
     ("hidden", (0,)), ("hidden", (4, 0)), ("hidden", (True,)), ("seed", -1), ("seed", 2.5),
     ("seed", True), ("seed", "3"), ("seed", None), ("learning_rate", float("inf")),
     ("learning_rate", -float("inf")), ("learning_rate", True), ("learning_rate", "0.1"),
     ("learning_rate", None)],
)
def test_train_config_rejects_bad_settings(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})


def test_train_config_takes_integer_settings():
    cfg = TrainConfig(hidden=[np.int64(3), 2], epochs=np.int64(2), batch_size=1)
    assert cfg.hidden == (3, 2) and type(cfg.hidden[0]) is int and type(cfg.epochs) is int
    assert TrainConfig(hidden=()).hidden == ()  # a linear network
    cfg = TrainConfig(seed=np.int64(3), learning_rate=1)
    assert cfg.seed == 3 and type(cfg.seed) is int
    assert cfg.learning_rate == 1.0 and type(cfg.learning_rate) is float
    assert TrainConfig(seed=0, learning_rate=np.float32(0.5)).learning_rate == 0.5


def test_train_full_batch_row_permutation_invariance(rng):
    n = 40
    d = Dataset(rng.uniform(-1, 1, (n, 2)), rng.random(n), rng.standard_normal(n))
    perm = rng.permutation(n)
    dp = Dataset(d.covariates[perm], d.treatments[perm], d.outcomes[perm])
    cfg = TrainConfig(hidden=(5,), epochs=40, learning_rate=0.02, batch_size=n, seed=7)
    m1 = mlp_train(d, full_interval(n), cfg)
    m2 = mlp_train(dp, full_interval(n), cfg)
    for w1, w2 in zip(m1.weights, m2.weights):
        np.testing.assert_allclose(w1, w2, rtol=1e-8, atol=1e-10)


def test_train_loss_not_increased(rng):
    n = 80
    X = rng.uniform(-1, 1, (n, 2))
    Y = np.sin(2 * X[:, 0]) + 0.1 * rng.standard_normal(n)
    d = Dataset(X, rng.random(n), Y)
    cfg = TrainConfig(hidden=(8,), epochs=100, learning_rate=0.02, batch_size=16, seed=5)
    init = init_model(2, cfg.hidden, np.random.default_rng(cfg.seed))
    mse0 = np.mean((init.predict_batch(X) - Y) ** 2)
    model = mlp_train(d, full_interval(n), cfg)
    mse1 = np.mean((model.predict_batch(X) - Y) ** 2)
    assert mse1 <= mse0


def test_init_glorot_bounds(rng):
    model = init_model(4, (16, 8), rng)
    for w, (fan_out, fan_in) in zip(model.weights, [(16, 4), (8, 16), (1, 8)]):
        assert w.shape == (fan_out, fan_in)
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(w) <= bound)
    for b in model.biases:
        np.testing.assert_array_equal(b, np.zeros_like(b))


# ------------------------------------------------- network interval costs


def test_mlp_cost_empty_interval_zero(rng):
    d = Dataset(rng.uniform(-1, 1, (10, 2)), np.full(10, 0.05), rng.standard_normal(10))
    cfg = TrainConfig(hidden=(4,), epochs=5, learning_rate=0.01, batch_size=4, seed=0)
    table = NetworkCosts(d, 10, cfg)
    assert table.costs(np.array([5]), 10).tolist() == [[0.0]]
    (zero,) = table.models(np.array([5]), np.array([10]), 0.0)
    assert zero.layer_sizes == (2, 4, 1)
    assert not any(w.any() for w in zero.weights + zero.biases)
    np.testing.assert_array_equal(zero.predict_batch(d.covariates), np.zeros(10))


def test_mlp_cost_constant_data_small(rng):
    n = 50
    d = Dataset(rng.uniform(-1, 1, (n, 1)), rng.random(n), np.full(n, 2.0))
    cfg = TrainConfig(hidden=(4,), epochs=300, learning_rate=0.05, batch_size=16, seed=2)
    assert NetworkCosts(d, 1, cfg).costs(0, 1)[0] <= 1e-2


def test_mlp_cost_uses_full_n_denominator(rng):
    # half the rows fall in the interval; cost divides by the full n
    n = 40
    A = np.concatenate([np.full(20, 0.2), np.full(20, 0.8)])
    d = Dataset(rng.uniform(-1, 1, (n, 1)), A, rng.standard_normal(n))
    cfg = TrainConfig(hidden=(), epochs=400, learning_rate=0.3, batch_size=20, seed=4)
    iv = Interval(0, 1, 2)
    table = NetworkCosts(d, iv.m, cfg)
    # at m = 2 the DP's one block holds both columns: V = (0, 1), and
    # [0, 1) is entry [0, 0, 0]
    block = table.costs(np.array([[0, 1]]), np.array([[1], [2]]))
    assert block.shape == (1, 2, 2) and block[0, 0, 1] == 0.0  # [1, 1) is never read
    c = block[0, 0, 0]
    model = mlp_train(d, iv, cfg)
    (net,) = table.models(np.array([iv.lo]), np.array([iv.hi]), 0.0)
    for w1, w2 in zip(net.weights, model.weights):
        np.testing.assert_array_equal(w1, w2)
    mask = A < 0.5
    sse = np.sum((d.outcomes[mask] - model.predict_batch(d.covariates[mask])) ** 2)
    assert c == pytest.approx(sse / n, rel=1e-12)


def test_network_columns_match_single_interval_calls_bitwise(rng):
    n = 60
    d = Dataset(rng.uniform(-1, 1, (n, 2)), rng.random(n), rng.standard_normal(n))
    cfg = TrainConfig(hidden=(4,), epochs=3, learning_rate=0.05, batch_size=16, seed=5)
    m = 6
    # one interval per call, as the per-pair DP asks, against whole blocks
    single = NetworkCosts(d, m, cfg)

    def one(lo, hi):
        cost = single.costs(lo, hi)
        assert cost.shape == (1,)  # one pair
        return cost[0]

    table = NetworkCosts(d, m, cfg)  # a fresh table trains anew
    for hi in range(1, m + 1):
        # the DP's block over every candidate lo < hi
        b = _block_width(hi, m + 1 - hi, NetworkCosts.budget)
        got = table.costs(np.arange(hi + b - 1)[None, :], np.arange(hi, hi + b)[:, None])
        assert got.dtype == np.float64 and got.shape == (1, b, hi + b - 1)  # one cost row
        # every entry the DP reads, [lo, hi + t) for lo < hi + t, has a
        # one-interval call's bits; the rest are 0
        for t in range(b):
            want = np.array([one(lo, hi + t) for lo in range(hi + t)])
            assert got[0, t, : hi + t].tobytes() == want.tobytes()
            assert not got[0, t, hi + t :].any()
    b = _block_width(0, m - 2, NetworkCosts.budget)
    assert table.costs(np.arange(3, b + 2)[None, :], np.arange(3, 3 + b)[:, None]).shape \
        == (1, b, b - 1)


def test_network_table_rejects_lambda_and_bad_indices(rng):
    d = Dataset(rng.uniform(-1, 1, (20, 1)), rng.random(20), rng.standard_normal(20))
    table = NetworkCosts(d, 5, TrainConfig(hidden=(2,), epochs=1, seed=0))
    for lam in (0.1, 1e-3, "0", False, None):
        with pytest.raises(ValueError):
            table.models(np.array([0]), np.array([5]), lam)
    for lo, hi in ((-1, 2), (2, -1), (7, 3), (0, 6)):
        with pytest.raises(ValueError):
            table.costs(np.array([lo], dtype=np.int64), hi)
    for lo in ([-1, 2], [2, 7], [0, 6]):
        with pytest.raises(ValueError):
            table.costs(np.array(lo, dtype=np.int64), 5)
    for los, his in (([0, 2], [2]), ([0, 3], [2, 3]), ([1, 2], [3, 6])):
        with pytest.raises(ValueError):
            table.models(np.array(los), np.array(his), 0.0)
    # pairs lo >= hi cost 0 and train nothing
    assert table.costs(np.array([[2], [3], [5]]), np.array([2, 1])).tolist() == [[[0.0] * 2] * 3]
    assert table._memo == {}  # nothing was trained for a rejected call


def test_network_costs_train_the_live_pairs_in_row_major_order(rng, monkeypatch):
    # one trainer call per costs call, over its untrained pairs lo < hi in
    # row-major order: the order the DP's block reads them, column by column
    d = Dataset(rng.uniform(-1, 1, (60, 1)), rng.random(60), rng.standard_normal(60))
    table = NetworkCosts(d, 6, TrainConfig(hidden=(2,), epochs=1, seed=0))
    trained, real = [], fit_mod.mlp_train

    def recording(data, intervals, cfg):
        trained.append([(iv.lo, iv.hi) for iv in intervals])
        return real(data, intervals, cfg)

    monkeypatch.setattr(fit_mod, "mlp_train", recording)
    table.costs(np.array([[4, 0, 2, 5]]), np.array([[5], [3], [2]]))
    assert trained == [[(4, 5), (0, 5), (2, 5), (0, 3), (2, 3), (0, 2)]]
    table.costs(np.array([1, 0, 6]), 5)  # [0, 5) is trained, [6, 5) costs 0
    assert trained[1:] == [[(1, 5)]]


def test_mlp_beats_linear_on_nonlinear_segment(rng):
    # a wave in one covariate: linear fit is badly biased, the network is not
    n = 300
    X = rng.uniform(-1, 1, (n, 2))
    Y = np.sin(2 * np.pi * X[:, 1]) + 0.1 * rng.standard_normal(n)
    d = Dataset(X, rng.random(n), Y)
    cfg = TrainConfig(hidden=(32, 32), epochs=500, learning_rate=0.01, batch_size=32, seed=11)
    model = mlp_train(d, full_interval(n), cfg)
    mlp_mse = np.mean((model.predict_batch(X) - Y) ** 2)
    Xb = np.hstack([np.ones((n, 1)), X])
    theta, *_ = np.linalg.lstsq(Xb, Y, rcond=None)
    lin_mse = np.mean((Xb @ theta - Y) ** 2)
    assert mlp_mse < lin_mse


# ---------------------------------------------------------- gradient check


def test_gradient_zero_network_exact():
    model = hand_model([2, 2, 1], [np.zeros((2, 2)), np.zeros((1, 2))], [np.zeros(2), np.zeros(1)])
    assert gradient_check(model, np.array([0.3, -0.7]), 0.0, 1e-5) == 0.0


def test_gradient_linear_net_closed_form(rng):
    w = rng.uniform(-1, 1, (1, 3))
    b = rng.uniform(-1, 1, 1)
    model = hand_model([3, 1], [w], [b])
    x = rng.uniform(-1, 1, 3)
    y = 0.4
    dws, dbs = stack_gradients(model, x[None, :], np.array([y]))
    pred = predict_one(model, x)
    np.testing.assert_array_equal(dws[0], 2.0 * (pred - y) * x[None, :])
    np.testing.assert_array_equal(dbs[0], np.array([2.0 * (pred - y)]))


def test_gradient_check_dimension_mismatch():
    model = hand_model([2, 1], [np.zeros((1, 2))], [np.zeros(1)])
    for x in (np.zeros(3), np.zeros((1, 2))):
        with pytest.raises(DimensionMismatch):
            gradient_check(model, x, 0.0)


def test_gradient_check_random_networks(rng):
    checked = 0
    while checked < 10:
        sizes = [int(rng.integers(1, 5)), int(rng.integers(2, 7)), int(rng.integers(2, 7))]
        model = init_model(sizes[0], tuple(sizes[1:]), rng)
        x = rng.uniform(-1, 1, sizes[0])
        # keep away from ReLU kinks where finite differences are invalid
        if _near_kink(model, x, 1e-4):
            continue
        y = float(rng.standard_normal())
        assert gradient_check(model, x, y, 1e-5) < 1e-4
        checked += 1


def _near_kink(model, x, tol):
    h = np.asarray(x, dtype=float)
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        z = w @ h + b
        if np.any(np.abs(z) < tol):
            return True
        h = np.maximum(z, 0.0)
    return False
