"""Posterior score estimation: logistic regression trained by gradient descent.

The estimator targets P(Y=1 | A=a, X=x).  Two layouts are supported: a joint
model over the features with a one-hot group encoding appended (one weight
vector, group-specific intercepts), and per-group models with independent
weights, which is the right layout when the groups' score directions differ.
Features are standardized inside ``fit_logistic`` using statistics of the
training data only.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .core import Dataset

_fit_calls = 0


def fit_count() -> int:
    """Number of fit_logistic calls since the last reset (for audit tests)."""
    return _fit_calls


def reset_fit_count() -> None:
    global _fit_calls
    _fit_calls = 0


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.5
    epochs: int = 400
    per_group: bool = False
    l2: float = 0.0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not self.learning_rate > 0:
            raise ValueError("learning rate must be positive")
        if self.l2 < 0:
            raise ValueError("l2 must be >= 0")


@dataclass(frozen=True)
class LogisticModel:
    """Fitted weights plus the standardization applied to incoming features.

    ``fit_logistic`` returns every array read-only, so one fitted model can
    be shared by several callers.
    """

    kind: str  # "joint" | "per-group"
    n_groups: int
    dim: int
    feat_mean: np.ndarray
    feat_scale: np.ndarray
    weights: np.ndarray  # joint: (dim + n_groups,); per-group: (n_groups, dim)
    bias: np.ndarray  # joint: (1,); per-group: (n_groups,)
    loss_history: tuple


def _sigmoid(z):
    e = np.exp(-np.abs(z))  # never overflows: 1 / (1 + e) for z >= 0, e / (1 + e) below
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def loss_and_grad(theta: np.ndarray, design: np.ndarray, y: np.ndarray, l2: float = 0.0):
    """Mean cross-entropy of a linear logit (bias folded into the design).

    Returns (loss, gradient).  The loss uses the softplus form, stable for
    any logit magnitude.  The temporaries are reused in place; every value is
    the one ``_sigmoid`` and the plain softplus expression give, bit for bit.
    """
    z = design @ theta
    e = np.copysign(z, -1.0)  # -|z|
    np.exp(e, out=e)
    # softplus(z) - y z = -log p(y | z)
    terms = np.maximum(z, 0.0)
    terms += np.log1p(e)
    terms -= y * z
    loss = float(np.mean(terms))
    p = np.maximum(e, z >= 0)  # _sigmoid's numerator: 1 where z >= 0 (e <= 1 there), else e
    e += 1.0
    p /= e
    p -= y
    grad = design.T @ p / design.shape[0]
    if l2:
        loss += 0.5 * l2 * float(theta @ theta)
        grad = grad + l2 * theta
    return loss, grad


def _descend(design, y, config: TrainConfig) -> tuple:
    """Full-batch gradient descent with halving on loss increase; returns (theta, history).

    Epochs never increase the recorded loss: a step that would is retried
    with a halved rate.  Once ``theta - lr * grad`` rounds back to ``theta``
    bit for bit (and the loss is not nan), the next epoch would evaluate the
    same ``theta``, accept its equal loss without halving and leave ``(theta,
    loss, grad, lr)`` as it was, and so would every later one; descent stops
    there and repeats the loss to fill ``history`` to ``epochs + 1`` entries.
    That step is computed once per epoch: it is both the fixed-point test and
    the first candidate.  Reads only ``design`` and ``y``, so fits of
    different groups may run on different threads.
    """
    theta = np.zeros(design.shape[1])
    lr = config.learning_rate
    loss, grad = loss_and_grad(theta, design, y, config.l2)
    history = [loss]
    for epoch in range(config.epochs):
        cand = theta - lr * grad
        if not np.isnan(loss) and cand.tobytes() == theta.tobytes():
            history.extend([loss] * (config.epochs - epoch))
            break
        for attempt in range(60):
            if attempt:
                cand = theta - lr * grad
            new_loss, new_grad = loss_and_grad(cand, design, y, config.l2)
            if new_loss <= loss + 1e-12:
                break
            lr *= 0.5
        theta, loss, grad = cand, new_loss, new_grad
        history.append(loss)
    return theta, tuple(history)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map_groups(fit_group, n_groups: int) -> list:
    """``[fit_group(a) for a in range(n_groups)]``, run on up to one thread per usable CPU.

    The calling thread works alongside ``min(n_groups, CPUs) - 1`` helper
    threads; each takes the next group index in turn.  Every helper is
    joined before this returns or raises, so no thread outlives the call,
    and the first exception recorded is re-raised in the caller.
    """
    results = [None] * n_groups
    groups = iter(range(n_groups))
    lock = threading.Lock()
    failed = []

    def work():
        try:
            while not failed:
                with lock:
                    a = next(groups, None)
                if a is None:
                    return
                results[a] = fit_group(a)
        except BaseException as exc:  # re-raised by the caller after the join
            failed.append(exc)

    helpers = []
    try:
        for _ in range(min(n_groups, _usable_cpus()) - 1):
            helper = threading.Thread(target=work)
            helper.start()
            helpers.append(helper)
        work()
    finally:
        for t in helpers:
            t.join()
    if failed:
        raise failed[0]
    return results


def fit_logistic(data: Dataset, config: TrainConfig = TrainConfig()) -> LogisticModel:
    """Train the score model on a dataset; increments the fit counter.

    With ``per_group`` the groups' fits are independent, so they run
    concurrently (see ``_map_groups``): on the calling thread plus one helper
    thread per further usable CPU, up to one thread per group.  Each fit
    reads only its own group's rows, and a BLAS call's reduction order does
    not depend on the thread that makes it, so the model is the same bits at
    any CPU count.  The joint model is one fit on the calling thread.
    """
    global _fit_calls
    _fit_calls += 1

    x = data.features
    y = data.label.astype(np.float64)
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    scale = np.where(std > 0, std, 1.0)
    xs = (x - mean) / scale

    if config.per_group:

        def fit_group(a):
            in_a = data.group == a
            design = np.hstack([xs[in_a], np.ones((int(in_a.sum()), 1))])
            return _descend(design, y[in_a], config)

        thetas, histories = zip(*_map_groups(fit_group, data.n_groups))
        weights = np.array([theta[:-1] for theta in thetas])
        bias = np.array([theta[-1] for theta in thetas])
        # keep the first group's trace as the representative history
        history = histories[0]
        kind = "per-group"
    else:
        onehot = np.eye(data.n_groups)[data.group]
        design = np.hstack([xs, onehot])
        theta, history = _descend(design, y, config)
        weights = theta
        bias = np.zeros(1)
        kind = "joint"

    if not np.all(np.isfinite(weights)) or not np.all(np.isfinite(bias)):
        raise ValueError("training diverged to non-finite weights")
    for arr in (mean, scale, weights, bias):
        arr.setflags(write=False)
    return LogisticModel(
        kind=kind,
        n_groups=data.n_groups,
        dim=data.dim,
        feat_mean=mean,
        feat_scale=scale,
        weights=weights,
        bias=bias,
        loss_history=history,
    )


def predict_proba(model: LogisticModel, x, a):
    """Estimated P(Y=1 | A=a, X=x); accepts single rows or batches."""
    xs = np.asarray(x, dtype=np.float64)
    single = xs.ndim == 1
    if single:
        xs = xs[None, :]
    if xs.shape[1] != model.dim:
        raise ValueError("dimension mismatch")
    groups = np.broadcast_to(np.asarray(a, dtype=np.int64), (xs.shape[0],))
    if groups.size and (groups.min() < 0 or groups.max() >= model.n_groups):
        raise ValueError("group label out of range")
    std = (xs - model.feat_mean) / model.feat_scale
    if model.kind == "joint":
        onehot = np.eye(model.n_groups)[groups]
        z = np.hstack([std, onehot]) @ model.weights + model.bias[0]
    else:
        z = np.einsum("ij,ij->i", std, model.weights[groups]) + model.bias[groups]
    out = _sigmoid(z)
    return float(out[0]) if single else out


def score_dataset(model: LogisticModel, data: Dataset) -> np.ndarray:
    return predict_proba(model, data.features, data.group)
