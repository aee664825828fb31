import numpy as np
import pytest

import fairthresh as ft
from fairthresh import gaussian as ga
from fairthresh import scores as sc


def toy_data(rng, n=60, d=2):
    x = rng.normal(size=(n, d))
    group = rng.integers(0, 2, n)
    group[:2] = [0, 1]
    label = rng.integers(0, 2, n)
    return ft.Dataset(x, group, label)


# --------------------------------------------------------------- predict_proba


def test_predict_zero_weights_is_half():
    model = sc.LogisticModel(
        kind="joint", n_groups=2, dim=2,
        feat_mean=np.zeros(2), feat_scale=np.ones(2),
        weights=np.zeros(4), bias=np.zeros(1), loss_history=(),
    )
    assert sc.predict_proba(model, np.array([3.0, -1.0]), 1) == 0.5


def test_predict_saturates_with_large_bias():
    model = sc.LogisticModel(
        kind="joint", n_groups=2, dim=1,
        feat_mean=np.zeros(1), feat_scale=np.ones(1),
        weights=np.zeros(3), bias=np.array([40.0]), loss_history=(),
    )
    assert sc.predict_proba(model, np.array([0.0]), 0) == pytest.approx(1.0, abs=1e-15)


def test_predict_matches_hand_sigmoid():
    w, b = 1.75, -0.4
    model = sc.LogisticModel(
        kind="per-group", n_groups=2, dim=1,
        feat_mean=np.zeros(1), feat_scale=np.ones(1),
        weights=np.array([[w], [0.0]]), bias=np.array([b, 0.0]), loss_history=(),
    )
    for x in (-2.0, 0.0, 0.3, 4.0):
        expect = 1.0 / (1.0 + np.exp(-(w * x + b)))
        assert sc.predict_proba(model, np.array([x]), 0) == pytest.approx(expect, abs=1e-12)


def test_predict_monotone_in_linear_score():
    rng = np.random.default_rng(0)
    data = toy_data(rng)
    model = ft.fit_logistic(data, ft.TrainConfig(epochs=50))
    xs = np.linspace(-3, 3, 21)[:, None] * np.ones((1, data.dim))
    probs = sc.predict_proba(model, xs, np.zeros(21, dtype=int))
    z = (xs - model.feat_mean) / model.feat_scale @ model.weights[: data.dim]
    order = np.argsort(z)
    assert np.all(np.diff(probs[order]) >= -1e-12)


def test_predict_dimension_mismatch():
    rng = np.random.default_rng(1)
    model = ft.fit_logistic(toy_data(rng), ft.TrainConfig(epochs=5))
    with pytest.raises(ValueError, match="dimension"):
        sc.predict_proba(model, np.zeros(5), 0)


# ------------------------------------------------------------------------ fit


def test_fit_separable_reaches_perfect_training_accuracy():
    x = np.concatenate([np.linspace(-2, -1, 20), np.linspace(1, 2, 20)])[:, None]
    label = (x[:, 0] > 0).astype(int)
    group = np.tile([0, 1], 20)
    data = ft.Dataset(x, group, label)
    model = ft.fit_logistic(data, ft.TrainConfig(epochs=4000, learning_rate=2.0))
    preds = sc.score_dataset(model, data) > 0.5
    assert np.array_equal(preds, label.astype(bool))


def test_fit_constant_labels_pushes_probabilities_to_one():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(50, 2))
    data = ft.Dataset(x, rng.integers(0, 2, 50), np.ones(50, dtype=int))
    lo = ft.fit_logistic(data, ft.TrainConfig(epochs=50))
    hi = ft.fit_logistic(data, ft.TrainConfig(epochs=3000))
    s_lo = sc.score_dataset(lo, data)
    s_hi = sc.score_dataset(hi, data)
    assert s_hi.min() > s_lo.min()
    assert s_hi.min() > 0.95


def test_fit_loss_history_non_increasing_full_batch():
    rng = np.random.default_rng(3)
    data = toy_data(rng, n=200, d=4)
    model = ft.fit_logistic(data, ft.TrainConfig(epochs=300, learning_rate=4.0))
    hist = np.array(model.loss_history)
    assert np.all(np.diff(hist) <= 1e-12)


def test_fit_gaussian_synthetic_recovers_posterior():
    """Group-wise fits on the benchmark population track the exact posterior."""
    pop = ft.draw_population(ft.SynthSpec.binary(seed=42))
    train = ft.sample(pop, 20000, seed=1)
    held = ft.sample(pop, 5000, seed=2)
    model = ft.fit_logistic(train, ft.TrainConfig(per_group=True, epochs=500, learning_rate=1.0))
    err = 0.0
    for a in (0, 1):
        mask = held.group == a
        err += np.sum(np.abs(
            sc.predict_proba(model, held.features[mask], a) - ga.eta(pop, held.features[mask], a)
        ))
    assert err / held.n < 0.05


def test_fit_validation_errors():
    rng = np.random.default_rng(4)
    data = toy_data(rng)
    with pytest.raises(ValueError):
        ft.fit_logistic(data, ft.TrainConfig(epochs=0))
    with pytest.raises(ValueError):
        ft.TrainConfig(learning_rate=0.0)


def test_fit_counter():
    sc.reset_fit_count()
    rng = np.random.default_rng(6)
    data = toy_data(rng)
    ft.fit_logistic(data, ft.TrainConfig(epochs=2))
    ft.fit_logistic(data, ft.TrainConfig(epochs=2, per_group=True))
    assert sc.fit_count() == 2


# ------------------------------------------------------------------- gradient


def test_gradient_matches_central_finite_differences():
    rng = np.random.default_rng(7)
    design = np.hstack([rng.normal(size=(40, 3)), np.ones((40, 1))])
    y = rng.integers(0, 2, 40).astype(float)
    for _ in range(5):
        theta = rng.normal(scale=0.8, size=4)
        _, grad = sc.loss_and_grad(theta, design, y)
        for j in range(4):
            e = np.zeros(4)
            e[j] = 1e-6
            lp, _ = sc.loss_and_grad(theta + e, design, y)
            lm, _ = sc.loss_and_grad(theta - e, design, y)
            fd = (lp - lm) / 2e-6
            assert abs(grad[j] - fd) <= 1e-5 * max(1.0, abs(fd))


# ---------------------------------------------------------------- persistence


@pytest.mark.parametrize("per_group", [False, True])
def test_save_load_round_trip(tmp_path, per_group):
    rng = np.random.default_rng(8)
    data = toy_data(rng)
    model = ft.fit_logistic(data, ft.TrainConfig(epochs=40, per_group=per_group))
    path = tmp_path / "model.txt"
    sc.save_model(model, path)
    loaded = sc.load_model(path)
    assert loaded.kind == model.kind
    assert np.array_equal(loaded.weights, model.weights)
    assert np.array_equal(loaded.bias, model.bias)
    assert np.array_equal(loaded.feat_mean, model.feat_mean)
    x = rng.normal(size=(10, data.dim))
    a = rng.integers(0, 2, 10)
    assert np.array_equal(sc.predict_proba(model, x, a), sc.predict_proba(loaded, x, a))
