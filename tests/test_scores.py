import decimal
import itertools
import math
import mmap
import os
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairthresh as ft
from fairthresh import cli, core
from fairthresh import scores as sc
from fairthresh.synth import SynthSpec, draw_population, sample
from _posterior import eta


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
        weights=np.zeros(4), bias=np.zeros(1), iterations=(), final_loss=(),
    )
    assert sc.predict_proba(model, np.array([3.0, -1.0]), 1) == 0.5


def test_predict_saturates_with_large_bias():
    model = sc.LogisticModel(
        kind="joint", n_groups=2, dim=1,
        feat_mean=np.zeros(1), feat_scale=np.ones(1),
        weights=np.zeros(3), bias=np.array([40.0]), iterations=(), final_loss=(),
    )
    assert sc.predict_proba(model, np.array([0.0]), 0) == pytest.approx(1.0, abs=1e-15)


def test_predict_matches_hand_sigmoid():
    w, b = 1.75, -0.4
    model = sc.LogisticModel(
        kind="per-group", n_groups=2, dim=1,
        feat_mean=np.zeros(1), feat_scale=np.ones(1),
        weights=np.array([[w], [0.0]]), bias=np.array([b, 0.0]), iterations=(), final_loss=(),
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
    # a fit of e epochs is the first e epochs of a longer one, so the final
    # losses over e = 0..300 are the loss history
    rng = np.random.default_rng(3)
    data = toy_data(rng, n=200, d=4)
    hist = [np.log(2.0)] + [
        ft.fit_logistic(data, ft.TrainConfig(epochs=e, learning_rate=4.0)).final_loss[0]
        for e in range(1, 301)
    ]
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
            sc.predict_proba(model, held.features[mask], a) - eta(pop, held.features[mask], a)
        ))
    assert err / held.n < 0.05


def test_fit_validation_errors():
    rng = np.random.default_rng(4)
    data = toy_data(rng)
    with pytest.raises(ValueError):
        ft.fit_logistic(data, ft.TrainConfig(epochs=0))
    with pytest.raises(ValueError):
        ft.TrainConfig(learning_rate=0.0)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="learning rate must be positive and finite"):
            ft.TrainConfig(learning_rate=bad)
    for bad in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="l2 must be >= 0 and finite"):
            ft.TrainConfig(l2=bad)


@pytest.mark.parametrize("per_group", [False, True])
def test_fitted_model_arrays_are_read_only(per_group):
    # a fitted model may be shared by several runner calls
    model = ft.fit_logistic(toy_data(np.random.default_rng(8)), ft.TrainConfig(epochs=2, per_group=per_group))
    for name in ("weights", "bias", "feat_mean", "feat_scale"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(model, name)[0] = 1.0


@pytest.mark.parametrize("per_group", [False, True])
def test_a_fit_leaves_the_module_as_it_was(per_group):
    # fit_logistic holds no state: its callers count their own fits
    before = dict(vars(sc))
    ft.fit_logistic(toy_data(np.random.default_rng(6)), ft.TrainConfig(epochs=2, per_group=per_group))
    after = vars(sc)
    assert after.keys() == before.keys() and all(after[k] is before[k] for k in before)


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


# ------------------------------------------------ fit kernel and fixed point
#
# Restated below: the sigmoid, the loss and gradient built on it, and gradient
# descent run for every epoch.  The fit must match them bit for bit.


def _plain_sigmoid(z):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def _plain_loss_and_grad(theta, design, y, l2=0.0):
    z = design @ theta
    loss = float(np.mean(np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z))) - y * z))
    grad = design.T @ (_plain_sigmoid(z) - y) / design.shape[0]
    if l2:
        loss += 0.5 * l2 * float(theta @ theta)
        grad = grad + l2 * theta
    return loss, grad


def _every_epoch_descend(design, y, config):
    """Descent that evaluates the loss on every epoch; returns ``(theta,
    iterations, final_loss)`` as ``_descend`` does, with ``iterations`` the
    first epoch whose first candidate is ``theta`` itself (loss not nan)."""
    theta = np.zeros(design.shape[1])
    lr = config.learning_rate
    loss, grad = _plain_loss_and_grad(theta, design, y, config.l2)
    iterations = config.epochs
    for epoch in range(config.epochs):
        if (theta - lr * grad).tobytes() == theta.tobytes() and not np.isnan(loss):
            iterations = min(iterations, epoch)
        for _ in range(60):
            cand = theta - lr * grad
            new_loss, new_grad = _plain_loss_and_grad(cand, design, y, config.l2)
            if new_loss <= loss + 1e-12:
                break
            lr *= 0.5
        theta, loss, grad = cand, new_loss, new_grad
    return theta, iterations, loss


def assert_same_bits(a, b):
    """Equal float arrays, zero signs included; nan matches nan of any sign."""
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    b = np.atleast_1d(np.asarray(b, dtype=np.float64))
    assert a.shape == b.shape
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    assert np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64))


# ±0, ±inf, nan, exp underflow (|z| > 745), subnormals and values near 0 and 1
_SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 745.2, -745.2, 746.0, -746.0, 1e308,
            -1e308, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 36.7, -36.7, 1e-16, -1e-16]
_logits = st.lists(
    st.one_of(st.sampled_from(_SPECIAL),
              st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
              st.floats(-800.0, 800.0)),
    min_size=1, max_size=40,
).map(lambda v: np.array(v, dtype=np.float64))


@settings(max_examples=200, deadline=None)
@given(z=_logits)
def test_sigmoid_equals_its_restatement_bit_for_bit(z):
    with np.errstate(all="ignore"):
        assert_same_bits(sc._sigmoid(z), _plain_sigmoid(z))


def _two_branch_sigmoid(z):
    """The sigmoid as ``max(e, z >= 0) / (1 + e)`` with ``e = exp(-|z|)``."""
    e = np.exp(-np.abs(z))
    return np.maximum(e, z >= 0) / (1.0 + e)


def _exact_sigmoid(z):
    """``1 / (1 + exp(-z))`` to 60 significant digits."""
    with decimal.localcontext(decimal.Context(prec=60)):
        return 1 / (1 + (-decimal.Decimal(float(z))).exp())


def test_sigmoid_is_within_2_ulp_of_an_exact_reference():
    rng = np.random.default_rng(0)
    # the result is a normal float above z = log(2^-1022) = -708.396...
    z = np.concatenate([rng.uniform(-708.39, 745.0, 3000), rng.normal(0.0, 4.0, 3000),
                        rng.uniform(-40.0, 0.0, 2000), [0.0, -0.0, 1e-300, -1e-300, 36.7, -36.7]])
    p = sc._sigmoid(z)
    ulps = [abs(decimal.Decimal(float(got)) - want) / decimal.Decimal(math.ulp(float(want)))
            for got, want in zip(p, map(_exact_sigmoid, z))]
    assert max(ulps) <= 2
    # for z >= 0 both formulas compute 1 / (1 + exp(-z))
    pos = np.concatenate([z[z >= 0], [0.0, -0.0, 5e-324, 745.2, 800.0, 1e308, np.inf]])
    assert_same_bits(sc._sigmoid(pos), _two_branch_sigmoid(pos))
    # exp(-z) overflows below z = -709.78: 0, where the two-branch form gave a subnormal
    below = np.array([-709.79, -745.0, -745.2, -800.0, -1e308, -np.inf])
    assert_same_bits(sc._sigmoid(below), np.zeros(below.size))
    assert _two_branch_sigmoid(np.array([-709.79]))[0] > 0
    assert np.isnan(sc._sigmoid(np.array([np.nan]))).all()


@settings(max_examples=200, deadline=None)
@given(z=_logits, data=st.data(), l2=st.sampled_from([0.0, 0.3]))
def test_loss_and_grad_equal_their_restatement_bit_for_bit(z, data, l2):
    y = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=z.size,
                                    max_size=z.size)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # one column is z itself; the other two mix it with finite features
    design = np.column_stack([z, rng.normal(size=z.size), np.ones(z.size)])
    theta = np.array([1.0, data.draw(st.floats(-3.0, 3.0)), data.draw(st.floats(-3.0, 3.0))])
    with np.errstate(all="ignore"):
        loss, grad = sc.loss_and_grad(theta, design, y, l2)
        ref_loss, ref_grad = _plain_loss_and_grad(theta, design, y, l2)
    assert_same_bits(loss, ref_loss)
    assert_same_bits(grad, ref_grad)
    # the gradient-only step of a certified epoch, from the negated logits
    with np.errstate(all="ignore"):
        assert_same_bits(sc._grad(theta, design, y, l2, design @ -theta), ref_grad)


def _fixed_point_data():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(200, 2))
    y = (rng.random(200) < 1.0 / (1.0 + np.exp(-x[:, 0]))).astype(int)
    return ft.Dataset(x, rng.integers(0, 2, 200), y)


# (config, whether every fit reaches the fixed point before its last epoch).
# Learning rates 4 and 16 are outside the certificate on this data, so every
# step is checked; at 16 the first epoch halves the rate to 8.
_FIXED_POINT_CASES = [
    (ft.TrainConfig(learning_rate=1.0, epochs=400), True),
    (ft.TrainConfig(learning_rate=1.0, epochs=400, per_group=True), True),
    (ft.TrainConfig(learning_rate=1.0, epochs=50), False),
    (ft.TrainConfig(learning_rate=1.0, epochs=60, per_group=True, l2=0.1), False),
    (ft.TrainConfig(learning_rate=4.0, epochs=400), False),
    (ft.TrainConfig(learning_rate=4.0, epochs=400, per_group=True), False),
    (ft.TrainConfig(learning_rate=16.0, epochs=400), False),
    (ft.TrainConfig(learning_rate=16.0, epochs=400, per_group=True), False),
]


def _fit_and_referee(data, config):
    model = ft.fit_logistic(data, config)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sc, "_descend", _every_epoch_descend)
        return model, ft.fit_logistic(data, config)


def _assert_fits_equal(model, ref):
    assert_same_bits(model.weights, ref.weights)
    assert_same_bits(model.bias, ref.bias)
    assert_same_bits(model.final_loss, ref.final_loss)
    assert model.iterations == ref.iterations


@pytest.mark.parametrize("config, converges", _FIXED_POINT_CASES)
def test_fit_equals_every_epoch_descent(config, converges):
    model, ref = _fit_and_referee(_fixed_point_data(), config)
    _assert_fits_equal(model, ref)
    assert all((it < config.epochs) == converges for it in model.iterations)


def test_a_checked_step_takes_over_once_the_weights_outgrow_the_certificate(monkeypatch):
    # separable: the weights grow until the rounding bound leaves the 1e-12
    # slack; from there every epoch evaluates the loss
    rng = np.random.default_rng(0)
    x1 = rng.uniform(-1, 1, 40)
    y = np.arange(40) % 2
    data = ft.Dataset(np.column_stack([x1, x1 + 0.03 * (2 * y - 1)]), np.zeros(40, dtype=int), y)
    config = ft.TrainConfig(learning_rate=1.0, epochs=3000)
    calls = []
    loss_and_grad, grad = sc.loss_and_grad, sc._grad
    monkeypatch.setattr(sc, "loss_and_grad", lambda *args: calls.append("L") or loss_and_grad(*args))
    monkeypatch.setattr(sc, "_grad", lambda *args: calls.append("g") or grad(*args))
    model, ref = _fit_and_referee(data, config)
    _assert_fits_equal(model, ref)
    # loss_and_grad calls _grad too: "Lg" is one loss evaluation, a lone "g" a certified step
    steps = "".join(calls).replace("Lg", "L")
    assert re.fullmatch(r"Lg{100,}L{100,}", steps)


_designs = st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2), min_size=n, max_size=n),
    st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n),
))


@settings(max_examples=150, deadline=None)
@given(design_y=_designs, lr=st.sampled_from([0.5, 1.0, 4.0, 16.0]), l2=st.sampled_from([0.0, 0.1]))
def test_descent_equals_every_epoch_descent_on_small_designs(design_y, lr, l2):
    rows, y = design_y
    design = np.column_stack([np.array(rows), np.ones(len(rows))])
    config = ft.TrainConfig(learning_rate=lr, epochs=40, l2=l2)
    theta, iterations, final_loss = sc._descend(design, np.array(y), config)
    ref_theta, ref_iterations, ref_loss = _every_epoch_descend(design, np.array(y), config)
    assert_same_bits(theta, ref_theta)
    assert iterations == ref_iterations
    assert_same_bits(final_loss, ref_loss)


def test_a_benchmark_fit_evaluates_the_loss_twice_per_group(monkeypatch):
    # at zero, and once at the returned weights: every epoch is certified;
    # on one CPU, so that every call is made, and counted, in this process
    _cpus(monkeypatch, 1)
    calls = []
    loss_and_grad = sc.loss_and_grad
    monkeypatch.setattr(sc, "loss_and_grad", lambda *args: calls.append(1) or loss_and_grad(*args))
    pop = ft.draw_population(ft.SynthSpec.binary(seed=3))
    model = ft.fit_logistic(ft.sample(pop, 20000, seed=4),
                            ft.TrainConfig(learning_rate=1.0, epochs=500, per_group=True))
    assert len(calls) == 2 * 2
    assert len(model.iterations) == len(model.final_loss) == 2


def test_a_per_group_fit_rejects_a_group_without_training_rows():
    rng = np.random.default_rng(5)
    data = ft.Dataset(rng.normal(size=(30, 2)), np.tile([0, 2], 15), rng.integers(0, 2, 30), n_groups=3)
    with pytest.raises(ValueError, match="group 1 has no training rows"):
        ft.fit_logistic(data, ft.TrainConfig(epochs=50, per_group=True))
    with pytest.raises(ValueError, match="group 1 has no training rows"):  # the joint fit too
        ft.fit_logistic(data, ft.TrainConfig(epochs=50))


def test_a_non_finite_design_gets_no_certificate():
    # a nan in G certifies no step, however small: every step is checked
    design = np.ones((30, 3))
    design[4, 1] = np.nan
    certified = sc._certificate(design, 0.0)
    assert not certified(np.zeros(3), np.full(3, 1e-9), 0.5)


@pytest.mark.parametrize("per_group", [False, True])
def test_features_too_large_to_standardize_are_rejected_before_any_fit(monkeypatch, per_group):
    # finite features near the float64 maximum: the column mean overflows,
    # and standardization would turn the column into nan
    rng = np.random.default_rng(6)
    x = np.column_stack([rng.normal(size=30), rng.uniform(1e308, 1.7e308, size=30)])
    data = ft.Dataset(x, np.tile([0, 1], 15), rng.integers(0, 2, 30))
    monkeypatch.setattr(sc, "_descend", lambda *args: pytest.fail("descent started"))
    monkeypatch.setattr(sc, "fork_map", lambda *args: pytest.fail("group fits started"))
    with np.errstate(all="ignore"), pytest.raises(
            ValueError, match="feature column 1 is too large to standardize"):
        ft.fit_logistic(data, ft.TrainConfig(epochs=3, per_group=per_group))


def test_the_overflow_message_names_the_first_bad_column():
    # column 2's squared deviations overflow (its mean does not), column 4's mean overflows
    rng = np.random.default_rng(7)
    x = rng.normal(size=(40, 5))
    x[:, 2] = np.tile([1e308, -1e308], 20)
    x[:, 4] = rng.uniform(1e308, 1.7e308, size=40)
    data = ft.Dataset(x, np.tile([0, 1], 20), rng.integers(0, 2, 40))
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="^feature column 2 is too large"):
        ft.fit_logistic(data, ft.TrainConfig(epochs=3))


# huge, tiny, subnormal and ordinary values, and the float64 extremes
_MAX = np.finfo(np.float64).max
_feature_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    st.floats(-1e-300, 1e-300, allow_subnormal=True),
    st.floats(-10.0, 10.0),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.5e-154, 1e154, 1e307,
                     _MAX, -_MAX, _MAX / 2, -_MAX / 2]),
)


@settings(max_examples=400, deadline=None)
@given(rows=st.integers(1, 4).flatmap(lambda d: st.lists(
    st.lists(_feature_values, min_size=d, max_size=d), min_size=1, max_size=40)))
def test_finite_column_statistics_standardize_every_value_finitely(rows):
    # fit_logistic rejects a column only on a non-finite mean or standard
    # deviation; every other column's standardized design is finite
    x = np.array(rows, dtype=np.float64)
    with np.errstate(all="ignore"):
        mean, std = sc._column_stats(x)
        scale = np.where(std > 0, std, 1.0)
        design = sc._design(x, mean, scale, 0)
    finite = np.isfinite(mean) & np.isfinite(scale)
    assert np.isfinite(design[:, finite]).all()


def test_an_epoch_of_sixty_failed_halvings_takes_the_last_step_tried(monkeypatch):
    # every step off zero raises the loss: the epoch keeps the 60th candidate,
    # made with lr * 2**-59, although lr is halved once more after it; lr = 4
    # is outside the certificate (L = 1/2 here), so the step is checked
    monkeypatch.setattr(sc, "loss_and_grad", lambda theta, design, y, l2: (1.0 + np.any(theta), np.ones(2)))
    config = ft.TrainConfig(learning_rate=4.0, epochs=1)
    theta, iterations, final_loss = sc._descend(np.ones((3, 2)), np.ones(3), config)
    assert_same_bits(theta, np.full(2, -4.0 * 2.0 ** -59))
    assert (iterations, final_loss) == (1, 2.0)


# ---------------------------------------------------------- group fit processes
#
# Five groups of unequal size (so a design's row count names its group); with
# 300 epochs the fits of groups 0, 2 and 4 reach GD's fixed point, the others
# not.  These fits save far fewer row-epochs than _FORK_SAVING, so a test that
# wants forked children sets it to 1: a child then costs one row-epoch.

_GROUP_SIZES = (60, 90, 130, 180, 240)
_GROUP_CONFIG = ft.TrainConfig(learning_rate=1.0, epochs=300, per_group=True)


def _five_group_data():
    rng = np.random.default_rng(0)
    group = np.repeat(np.arange(5), _GROUP_SIZES)
    x = rng.normal(size=(group.size, 2))
    slope = np.array([0.3, 3.0, 0.6, 6.0, 1.0])[group]
    y = (rng.random(group.size) < 1.0 / (1.0 + np.exp(-slope * x[:, 0]))).astype(int)
    perm = rng.permutation(group.size)
    return ft.Dataset(x[perm], group[perm], y[perm])


def _sequential_group_fits(data, config):
    """The per-group fit as one loop over ``_descend`` in this process."""
    xs = (data.features - data.features.mean(axis=0)) / data.features.std(axis=0)
    y = data.label.astype(np.float64)
    fits = []
    for a in range(data.n_groups):
        in_a = data.group == a
        design = np.asfortranarray(np.hstack([xs[in_a], np.ones((int(in_a.sum()), 1))]))
        fits.append(sc._descend(design, y[in_a], config))
    thetas, iterations, final_loss = zip(*fits)
    return np.array(thetas), iterations, final_loss


@pytest.mark.parametrize("per_group", [False, True])
def test_descent_receives_column_major_designs(monkeypatch, per_group):
    # both layouts hand _descend an F-ordered [features, intercepts] design
    data = _five_group_data()
    descend, designs = sc._descend, []
    monkeypatch.setattr(sc, "_descend", lambda design, y, config: designs.append(design)
                        or descend(design, y, config))
    ft.fit_logistic(data, ft.TrainConfig(epochs=5, per_group=per_group))
    xs = (data.features - data.features.mean(axis=0)) / data.features.std(axis=0)
    if per_group:
        expected = [np.hstack([xs[data.group == a], np.ones((n, 1))]) for a, n in enumerate(_GROUP_SIZES)]
    else:
        expected = [np.hstack([xs, np.eye(5)[data.group]])]
    assert len(designs) == len(expected)
    for design, want in zip(designs, expected):
        assert design.flags.f_contiguous and not design.flags.c_contiguous
        assert_same_bits(design, want)


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _forking_always_pays(monkeypatch):
    monkeypatch.setattr(sc, "_FORK_SAVING", 1)


def _pid_recording_descend(monkeypatch):
    """Wrap ``_descend`` so that each fit's ``iterations`` becomes
    ``(group size, pid of the process that fitted it)``: a child's memory
    is its own, so the record travels back through the result."""
    descend = sc._descend

    def recording(design, y, config):
        theta, _, final_loss = descend(design, y, config)
        return theta, (design.shape[0], os.getpid()), final_loss

    monkeypatch.setattr(sc, "_descend", recording)


def _group_bins(n_cpus):
    """The five groups' bins on ``n_cpus`` CPUs, this process's first."""
    costs = [n * _GROUP_CONFIG.epochs for n in _GROUP_SIZES]
    return core._bins(costs, min(n_cpus, 5)) if n_cpus > 1 else [list(range(5))]


def _no_fork(monkeypatch):
    def refuse():
        raise AssertionError("a process was forked")

    monkeypatch.setattr(os, "fork", refuse)


def _no_child_left() -> bool:
    """Whether this process has no child process, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_five_group_data_mixes_converged_and_unconverged_fits():
    model = ft.fit_logistic(_five_group_data(), _GROUP_CONFIG)
    converged = {n for n, it in zip(_GROUP_SIZES, model.iterations) if it < _GROUP_CONFIG.epochs}
    assert converged == {60, 130, 240}


@pytest.mark.parametrize("n_cpus", [1, 2, 4, 8])
def test_concurrent_group_fits_equal_a_sequential_loop_bit_for_bit(monkeypatch, n_cpus, forks):
    data = _five_group_data()
    thetas, iterations, final_loss = _sequential_group_fits(data, _GROUP_CONFIG)
    _cpus(monkeypatch, n_cpus)
    _forking_always_pays(monkeypatch)
    model = ft.fit_logistic(data, _GROUP_CONFIG)
    assert_same_bits(model.weights, thetas[:, :-1])
    assert_same_bits(model.bias, thetas[:, -1])
    assert model.iterations == iterations
    assert_same_bits(model.final_loss, final_loss)
    assert len(forks) == len(_group_bins(n_cpus)) - 1
    assert _no_child_left()


@pytest.mark.parametrize("n_cpus", [2, 8])
def test_a_worker_process_fits_each_group(monkeypatch, n_cpus):
    # one process fits each bin of groups: this one the costliest bin, and a
    # forked child of its own each other bin
    _cpus(monkeypatch, n_cpus)
    _forking_always_pays(monkeypatch)
    _pid_recording_descend(monkeypatch)
    before = threading.active_count()
    model = ft.fit_logistic(_five_group_data(), _GROUP_CONFIG)
    assert [n for n, _ in model.iterations] == list(_GROUP_SIZES)
    pids = [pid for _, pid in model.iterations]
    bins = _group_bins(n_cpus)
    assert len(bins) > 1
    assert {pids[a] for a in bins[0]} == {os.getpid()}
    children = [{pids[a] for a in tasks} for tasks in bins[1:]]
    assert all(len(child) == 1 for child in children)
    assert len(set.union(*children) - {os.getpid()}) == len(children)
    assert _no_child_left()
    assert threading.active_count() == before


def test_one_cpu_starts_no_worker_process(monkeypatch):
    # nor a thread: one CPU fits every group in this process
    _cpus(monkeypatch, 1)
    _forking_always_pays(monkeypatch)
    _no_fork(monkeypatch)
    _pid_recording_descend(monkeypatch)
    before = threading.active_count()
    model = ft.fit_logistic(_five_group_data(), _GROUP_CONFIG)
    assert model.iterations == tuple((n, os.getpid()) for n in _GROUP_SIZES)
    assert threading.active_count() == before


@pytest.mark.parametrize("n_cpus", [1, 2, 8])
def test_a_failed_group_fit_is_re_raised_after_every_helper_stopped(monkeypatch, n_cpus):
    _cpus(monkeypatch, n_cpus)
    _forking_always_pays(monkeypatch)
    descend = sc._descend

    def failing(design, y, config):
        if design.shape[0] == _GROUP_SIZES[3]:
            raise FloatingPointError(f"group 3 diverged in process {os.getpid()}")
        return descend(design, y, config)

    monkeypatch.setattr(sc, "_descend", failing)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match=r"^group 3 diverged in process \d+$") as caught:
        ft.fit_logistic(_five_group_data(), _GROUP_CONFIG)
    # with more than one CPU group 3 lies in a child's bin: the fit failed
    # there, and the child's traceback came along
    in_child = f"in process {os.getpid()}" not in str(caught.value)
    assert in_child == (n_cpus > 1) == (3 not in _group_bins(n_cpus)[0])
    cause = caught.value.__cause__
    assert in_child == isinstance(cause, core._RemoteTraceback)
    if in_child:
        assert re.search(r"in failing\n.*\nFloatingPointError: group 3 diverged in process \d+\n$",
                         str(cause))
    assert _no_child_left()
    assert threading.active_count() == before


def test_a_failure_in_the_callers_share_kills_the_children_first(monkeypatch):
    # the child would sleep for a minute; the caller's failure ends it at once
    _cpus(monkeypatch, 2)
    caller = os.getpid()

    def task(i):
        if os.getpid() == caller:
            raise KeyError(f"task {i}")
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(KeyError, match="task 0"):
        core.fork_map(task, 2, 2)
    assert time.monotonic() - start < 30
    assert _no_child_left()


def test_fork_map_runs_every_task_once_under_fast_switching(monkeypatch):
    # more processes than cores, and threads in this process switch every
    # microsecond: a lost or doubled task would show in the counts, which
    # every process writes in one shared mapping, a misplaced result in the
    # order, and a task run outside its bin in the pids
    _cpus(monkeypatch, 16)
    costs = [(a * 37) % 64 + 1 for a in range(64)]  # unequal, and not in index order
    bins = core._bins(costs, 16)
    assert len(bins) == 16
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            counts = np.frombuffer(mmap.mmap(-1, 64 * 8), dtype=np.int64)

            def fit(a):
                counts[a] += 1
                return a * a, os.getpid()

            before = threading.active_count()
            out = core.fork_map(fit, 64, 16, costs)
            assert counts.tolist() == [1] * 64
            assert [square for square, _ in out] == [a * a for a in range(64)]
            pids = [{out[a][1] for a in tasks} for tasks in bins]
            assert pids[0] == {os.getpid()}
            assert all(len(p) == 1 for p in pids) and len(set.union(*pids)) == 16
            assert _no_child_left()
            assert threading.active_count() == before
    finally:
        sys.setswitchinterval(interval)


_costs = st.integers(2, 4).flatmap(lambda k: st.tuples(
    st.just(k), st.lists(st.integers(0, 60), min_size=1, max_size={2: 8, 3: 5, 4: 4}[k])))


@settings(max_examples=300, deadline=None)
@given(k_costs=_costs)
def test_bins_reach_the_least_largest_bin_of_every_assignment(k_costs):
    k, costs = k_costs
    bins = core._bins(costs, k)
    assert sorted(a for tasks in bins for a in tasks) == list(range(len(costs)))
    assert 1 <= len(bins) <= k and all(tasks and tasks == sorted(tasks) for tasks in bins)
    loads = [sum(costs[a] for a in tasks) for tasks in bins]
    assert loads == sorted(loads, reverse=True)
    # brute force: every map of the tasks onto k bins
    best = min(max(sum(cost for cost, b in zip(costs, assign) if b == j) for j in range(k))
               for assign in itertools.product(range(k), repeat=len(costs)))
    assert loads[0] == best


@settings(max_examples=100, deadline=None)
@given(k=st.integers(2, 16), costs=st.lists(st.integers(0, 10**7), min_size=1, max_size=40))
def test_bins_beyond_the_search_are_longest_first_greedy(k, costs):
    # outside the exhaustive search, a partition within Graham's list-scheduling bound
    bins = core._bins(costs, k)
    assert sorted(a for tasks in bins for a in tasks) == list(range(len(costs)))
    assert 1 <= len(bins) <= k and all(tasks for tasks in bins)
    loads = [sum(costs[a] for a in tasks) for tasks in bins]
    assert loads == sorted(loads, reverse=True)
    assert loads[0] <= sum(costs) / k + max(costs)


class _Deadline:
    """Raise ``TimeoutError`` in this thread if the block runs longer than ``seconds``."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {self.seconds} s")

        self.previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(self.seconds)

    def __exit__(self, *exc):
        signal.alarm(0)
        signal.signal(signal.SIGALRM, self.previous)


@pytest.mark.parametrize("rows", [1, 10_000, 400_000])
def test_a_result_larger_than_the_pipe_buffer_comes_back_whole(monkeypatch, rows):
    # 8 bytes to 3.2 MB per task, against a 64 KiB pipe buffer: the child
    # blocks until the caller reads, which it does to the end
    _cpus(monkeypatch, 2)
    with _Deadline(60):
        out = core.fork_map(lambda a: np.arange(a, a + rows, dtype=np.float64), 2, 2)
    for a, values in enumerate(out):
        assert_same_bits(values, np.arange(a, a + rows, dtype=np.float64))
    assert _no_child_left()


def test_no_child_or_thread_outlives_a_call(monkeypatch):
    _cpus(monkeypatch, 4)
    before = threading.active_count()

    def fails_in_a_child(a):
        if a == 3:
            raise ValueError("task 3")
        return a

    assert core.fork_map(lambda a: a, 4, 4) == [0, 1, 2, 3]
    assert core.fork_map(lambda a: a, 4, 1) == [0, 1, 2, 3]
    assert core.fork_map(lambda a: a, 4, 4, [5, 0, 0, 0]) == [0, 1, 2, 3]
    with pytest.raises(ValueError, match="task 3"):
        core.fork_map(fails_in_a_child, 4, 4, [4, 3, 2, 1])
    with pytest.raises(ChildProcessError, match="ended without returning its results"):
        core.fork_map(lambda a: (lambda: a), 4, 4)  # a child cannot pickle a function made in it
    assert core.fork_map(lambda a: a, 0, 4) == []
    assert _no_child_left()
    assert threading.active_count() == before


# ------------------------------------------------------- when forking pays

def _benchmark_train(kind, **sizes):
    """Seed 0's training sample of a CLI run at its default sizes, as the
    benchmark runs them: 20,000 rows, or 20,000 per group for multiclass."""
    n_groups = 5 if kind == "multiclass" else 2
    return cli._data(cli.ExperimentConfig(kind=kind, n_groups=n_groups, seed=0, **sizes), 0)[1]


def test_a_multiclass_benchmark_plan_clears_the_gate(monkeypatch, forks):
    # five groups of 12k-27k rows, 500 epochs: the balanced bins hold 50,615
    # and 49,385 rows (largest first gave 55.4k and 44.6k) and save about
    # 2.5e7 row-epochs, 25 times _FORK_SAVING; at 10 epochs 4.9e5 do not pay
    _cpus(monkeypatch, 2)
    rows = np.bincount(_benchmark_train("multiclass").group)
    assert rows.tolist() == [11895, 16833, 20657, 23873, 26742]
    for epochs, children in ((500, 1), (10, 0)):
        costs = rows * epochs / sc._FORK_SAVING  # the costs fit_logistic passes
        bins = core._bins(costs, 2)
        assert [rows[tasks].sum() for tasks in bins] == [50615, 49385]
        assert (costs.sum() - costs[bins[0]].sum() >= 1) == (children == 1)
        forks.clear()
        assert core.fork_map(lambda a: a, 5, 5, costs) == list(range(5))
        assert len(forks) == children


@pytest.mark.parametrize("n_cpus", [2, 8])
@pytest.mark.parametrize("kind, sizes, children", [
    ("synth", {}, 1),  # the synth benchmark's fit: groups of 6k and 14k rows, saving 3e6 row-epochs
    ("multiclass", {"n_train": 400, "epochs": 5}, 0),  # the benchmark's warm-up
], ids=["synth", "warm-up"])
def test_small_fits_construct_no_pool(monkeypatch, n_cpus, kind, sizes, children, forks):
    # no pool at all: the synth fit forks one child, which pays, and the
    # warm-up none
    data = _benchmark_train(kind, **sizes)
    _cpus(monkeypatch, n_cpus)
    ft.fit_logistic(data, ft.TrainConfig(learning_rate=1.0, epochs=sizes.get("epochs", 500),
                                         per_group=True))
    assert len(forks) == children
    assert _no_child_left()


def test_the_column_major_design_moves_benchmark_weights_by_under_1e_12(monkeypatch):
    # the benchmark's synth seed-0 fit on the column-major design against the
    # same fit on a row-major copy: the products sum in another order only
    data = _benchmark_train("synth")
    config = ft.TrainConfig(learning_rate=1.0, epochs=500, per_group=True)
    model = ft.fit_logistic(data, config)
    descend = sc._descend
    monkeypatch.setattr(sc, "_descend", lambda design, y, config:
                        descend(np.ascontiguousarray(design), y, config))
    row_major = ft.fit_logistic(data, config)
    assert np.max(np.abs(model.weights - row_major.weights)) <= 1e-12
    assert np.max(np.abs(model.bias - row_major.bias)) <= 1e-12


def test_a_fit_inside_a_jobs_worker_constructs_no_pool(monkeypatch, forks):
    # two --jobs shares, this process's and a forked child's: each fits all
    # five groups in its own process, although forking would pay, as the
    # shares fill the CPUs already; the patches reach the child through the fork
    _cpus(monkeypatch, 8)
    _forking_always_pays(monkeypatch)
    expected = ft.fit_logistic(_five_group_data(), _GROUP_CONFIG)
    forks.clear()
    _pid_recording_descend(monkeypatch)
    models = core.fork_map(lambda rep: ft.fit_logistic(_five_group_data(), _GROUP_CONFIG), 2, 2)
    assert forks == [os.getpid()]  # the jobs child; this process's share forked nothing
    pids = [{pid for _, pid in model.iterations} for model in models]
    assert pids[0] == {os.getpid()}
    assert len(pids[1]) == 1 and pids[1] != pids[0]
    for model in models:
        assert_same_bits(model.weights, expected.weights)
        assert_same_bits(model.bias, expected.bias)
    assert _no_child_left()


# A process that runs one of the two forking layers on two usable CPUs,
# whatever the host has: the group fits of one per-group fit (layer
# "groups", five groups, forking made to pay) or the repetitions of
# `synth --jobs 2` (layer "jobs", four repetitions).  Each task records the
# pid of its process, this one's or its child's, and then runs on for a
# minute, so the child is alive when the process is killed.
_KILLED_RUN = """
import os, sys, time
import numpy as np
import fairthresh as ft
from fairthresh import cli
from fairthresh import scores as sc

pid_file, layer = sys.argv[1:]
os.sched_getaffinity = lambda pid: {0, 1}

def recording(fn):
    def slowed(*args):
        with open(pid_file, "a") as f:
            f.write(f"{os.getpid()}\\n")
        time.sleep(60)
        return fn(*args)
    return slowed

if layer == "groups":
    sc._FORK_SAVING = 1
    sc._descend = recording(sc._descend)
    rng = np.random.default_rng(0)
    group = np.repeat(np.arange(5), 20)
    ft.fit_logistic(ft.Dataset(rng.normal(size=(100, 2)), group, rng.integers(0, 2, 100)),
                    ft.TrainConfig(epochs=5, per_group=True))
else:
    sc.fit_logistic = recording(sc.fit_logistic)
    cli.main(["synth", "--jobs", "2", "--reps", "4", "--n-train", "300", "--n-test", "200",
              "--epochs", "5"])
"""


def _start_time(pid):
    """The kernel's start time of a live, unreaped process, or None: a zombie
    counts as gone, and the start time tells a reused pid apart."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            state, *fields = f.read().rsplit(")", 1)[1].split()
    except FileNotFoundError:
        return None
    return None if state == "Z" else fields[18]


@pytest.mark.skipif(not hasattr(os, "fork") or not os.path.isdir("/proc/self"), reason="needs fork and /proc")
@pytest.mark.parametrize("layer", ["groups", "jobs"])
def test_pool_workers_exit_when_their_parent_is_killed(tmp_path, layer):
    # the process is killed inside its own share; its forked child must follow
    pid_file = tmp_path / "pids"
    src = os.path.dirname(os.path.dirname(ft.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, "-c", _KILLED_RUN, str(pid_file), layer], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    children, pids = {}, set()
    try:
        deadline = time.monotonic() + 60
        while (proc.pid not in pids or not children) and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
            pids = {int(p) for p in pid_file.read_text().split()} if pid_file.exists() else set()
            children = {pid: _start_time(pid) for pid in pids - {proc.pid}}
        assert proc.pid in pids and len(children) == 1 and proc.poll() is None
        proc.send_signal(signal.SIGTERM)
        proc.wait(10)
        deadline = time.monotonic() + 10
        alive = set(children)
        while alive and time.monotonic() < deadline:
            time.sleep(0.05)
            alive = {pid for pid in alive if _start_time(pid) == children[pid]}
        assert not alive, f"children {sorted(alive)} outlived their killed parent"
    finally:
        for pid, start in children.items():
            if start is not None and _start_time(pid) == start:
                os.kill(pid, signal.SIGKILL)
        if proc.poll() is None:
            proc.kill()
            proc.wait()


# ------------------------------------------------ one copy of the features


@pytest.mark.parametrize("n", [1, 8191, 8192, 8193, 100003])
@pytest.mark.parametrize("d", [1, 2, 5])
def test_chunked_column_stats_equal_numpys_bit_for_bit(n, d):
    # magnitudes over seven decades, so that another summation order (numpy's
    # pairwise sum, say, should it reduce axis 0 in another way) moves the last bits
    rng = np.random.default_rng(n + d)
    x = rng.normal(3.0, 1.0, size=(n, d)) * 10.0 ** rng.integers(-3, 4, size=(n, d))
    mean, std = sc._column_stats(x)
    assert_same_bits(mean, x.mean(axis=0))
    assert_same_bits(std, x.std(axis=0))


@pytest.mark.parametrize("kind", ["joint", "per-group"])
@pytest.mark.parametrize("n", [257, 513, 3 * 256 + 77])  # a lone row after one and two chunks; a part
def test_chunked_scores_equal_the_whole_batch_expression_bit_for_bit(monkeypatch, kind, n):
    # 256-row chunks keep every whole-batch product below the size at which
    # OpenBLAS splits it over threads, so the reference is the same on every
    # host; the logits are compared, as the sigmoid can round a last-bit
    # difference away, and it acts on each element alone
    monkeypatch.setattr(core, "_CHUNK", 256)
    monkeypatch.setattr(sc, "_sigmoid", lambda z: z)
    rng = np.random.default_rng(n)
    d, k = 9, 3
    model = sc.LogisticModel(
        kind=kind, n_groups=k, dim=d, feat_mean=rng.normal(size=d), feat_scale=rng.uniform(0.5, 2.0, d),
        weights=rng.normal(size=d + k if kind == "joint" else (k, d)),
        bias=rng.normal(size=1 if kind == "joint" else k), iterations=(), final_loss=())
    x, g = rng.normal(size=(n, d)), rng.integers(0, k, n)
    std = (x - model.feat_mean) / model.feat_scale
    if kind == "joint":
        z = np.hstack([std, np.eye(k)[g]]) @ model.weights + model.bias[0]
    else:
        z = np.einsum("ij,ij->i", std, model.weights[g]) + model.bias[g]
    assert_same_bits(sc.predict_proba(model, x, g), z)


def _traced_peak(fn):
    """``fn()`` and the peak of the memory it allocated above what was allocated before, in bytes."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_sample_fit_and_score_hold_one_copy_of_the_features():
    # 100,000 rows of the five-group benchmark population (3.8 MiB of
    # features); 5 epochs keep the group fits in this process.  Temporaries
    # of the whole matrix give peaks of 2.9, 2.2 and 2.2 times the features
    # and 2.1 times the joint design
    pop = draw_population(SynthSpec.multiclass(5, sigma=1.0, seed=0))
    data, sampled = _traced_peak(lambda: sample(pop, 100_000, 1))
    features = data.features.nbytes
    model, per_group = _traced_peak(lambda: ft.fit_logistic(data, ft.TrainConfig(epochs=5, per_group=True)))
    _, scored = _traced_peak(lambda: sc.score_dataset(model, data))
    _, joint = _traced_peak(lambda: ft.fit_logistic(data, ft.TrainConfig(epochs=5)))
    design = data.n * (data.dim + data.n_groups) * 8
    assert sampled < 1.6 * features
    assert per_group < 1.0 * features
    assert scored < 0.75 * features
    assert joint < 1.6 * design
    # Each row chunk is standardized in place.  A temporary for each of the
    # subtraction and the division gives scoring a peak of 0.48 times the
    # features here (0.40 in place), and at the synth benchmark's sizes, where
    # a chunk of 8,192 rows is 0.4 of the 20,000 x 10 features, peaks of 2.1
    # times the features for the per-group fit (1.33 in place) and 1.4 for
    # scoring (1.0)
    assert scored < 0.44 * features
    data = sample(draw_population(SynthSpec.binary(seed=0)), 20_000, 1)
    features = data.features.nbytes
    model, per_group = _traced_peak(lambda: ft.fit_logistic(data, ft.TrainConfig(epochs=5, per_group=True)))
    _, scored = _traced_peak(lambda: sc.score_dataset(model, data))
    assert per_group < 1.7 * features
    assert scored < 1.2 * features
