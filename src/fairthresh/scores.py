"""Posterior score estimation: logistic regression trained by gradient descent.

The estimator targets P(Y=1 | A=a, X=x).  Two layouts are supported: a joint
model over the features with a one-hot group encoding appended (one weight
vector, group-specific intercepts), and per-group models with independent
weights, which is the right layout when the groups' score directions differ.
Features are standardized inside ``fit_logistic`` using statistics of the
training data only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, _row_chunks, fork_map

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
        if not 0 < self.learning_rate < math.inf:  # also rejects nan
            raise ValueError("learning rate must be positive and finite")
        if not 0 <= self.l2 < math.inf:
            raise ValueError("l2 must be >= 0 and finite")


@dataclass(frozen=True)
class LogisticModel:
    """Fitted weights plus the standardization applied to incoming features.

    ``iterations`` and ``final_loss`` hold one entry per fit, in group order
    for the per-group layout: the epochs run before gradient descent reached
    its fixed point (``epochs`` if it never did), and the training loss at
    the returned weights.  ``fit_logistic`` returns every array read-only, so
    one fitted model can be shared by several callers.
    """

    kind: str  # "joint" | "per-group"
    n_groups: int
    dim: int
    feat_mean: np.ndarray
    feat_scale: np.ndarray
    weights: np.ndarray  # joint: (dim + n_groups,); per-group: (n_groups, dim)
    bias: np.ndarray  # joint: (1,); per-group: (n_groups,)
    iterations: tuple
    final_loss: tuple


def _sigmoid(z):
    """The logistic function as ``1 / (1 + exp(-z))``, computed in one new
    buffer.

    ``exp(-z)`` overflows to inf below ``z = -709.78``, where the result is
    then 0 (the true value is below 2e-308); nan stays nan.  Against an
    exact reference the result is within 2 ulp wherever it is a normal float.
    """
    return _sigmoid_of_negated(np.negative(z))


def _sigmoid_of_negated(nz):
    """``_sigmoid(-nz)``, written over ``nz``."""
    with np.errstate(over="ignore"):
        np.exp(nz, out=nz)
    nz += 1.0
    return np.reciprocal(nz, out=nz)


def _grad(theta, design, y, l2, nz):
    """``loss_and_grad``'s gradient from the negated logits ``nz = design @
    -theta``, without the loss; overwrites ``nz``.  IEEE rounding is
    symmetric in sign, so ``design @ -theta`` is ``-(design @ theta)`` but
    for the sign of an exact zero, which ``exp`` maps to 1 either way."""
    p = _sigmoid_of_negated(nz)
    p -= y
    grad = design.T @ p / design.shape[0]
    return grad + l2 * theta if l2 else grad


def loss_and_grad(theta: np.ndarray, design: np.ndarray, y: np.ndarray, l2: float = 0.0):
    """Mean cross-entropy of a linear logit (bias folded into the design).

    Returns (loss, gradient); the softplus form is stable for any logit magnitude.
    """
    z = design @ theta
    # softplus(z) - y z = -log p(y | z), as max(z, 0) + log1p(exp(-|z|)) - y z
    terms = np.abs(z)
    np.negative(terms, out=terms)
    np.exp(terms, out=terms)
    np.log1p(terms, out=terms)
    scratch = np.maximum(z, 0.0)
    np.add(scratch, terms, out=terms)
    np.multiply(y, z, out=scratch)
    terms -= scratch
    loss = float(np.mean(terms))
    if l2:
        loss += 0.5 * l2 * float(theta @ theta)
    return loss, _grad(theta, design, y, l2, np.negative(z, out=z))


_SLACK = 1e-12  # a step is accepted when its loss is at most this above the current loss
_U = 2.0**-53  # unit roundoff of float64


def _certificate(design, l2):
    """``certified(theta, cand, lr)``: whether the step from ``theta`` to
    ``cand = theta - lr * grad`` provably passes ``_descend``'s acceptance
    test ``new_loss <= loss + 1e-12`` on the computed losses, so that neither
    need be computed.  Built from ``G = D'D / n`` alone (``D`` the ``n x k``
    design, ``g`` the exact gradient, ``ghat`` the computed one).

    *Exact descent.*  The mean cross-entropy's Hessian is ``D'WD / n`` with
    ``W = diag(p (1 - p)) <= 1/4``, so the loss ``f`` is ``L``-smooth with
    ``L = max eig(G) / 4 + l2``, and ``f(theta + d) <= f(theta) + g'd +
    L |d|^2 / 2`` for any step ``d`` (the descent lemma; Nesterov 2004,
    *Introductory Lectures on Convex Optimization*, 1.2.3).

    *Rounding.*  Take ``u = 2^-53``, round to nearest, numpy's ``exp`` and
    ``log1p`` within 4 ulp (relative error ``8u``), underflow aside, and dot
    products of length ``l`` in any order, off by at most ``l u`` times the
    sum of their absolute terms (all to first order).  Let
    ``r_j = sqrt(G_jj)`` and ``m = sum_j r_j |theta_j|``.  By Cauchy-Schwarz
    ``mean_i |D_ij| <= r_j``, so ``m`` bounds ``mean_i a_i`` with
    ``a_i = sum_j |D_ij theta_j| >= |z_i|``.

    1. Loss.  Logit ``z_i`` is off by ``k u a_i``, and the row's term
       ``softplus(z) - y z`` is 1-Lipschitz in ``z``.  Computing the term
       costs ``10u`` in ``exp`` and ``log1p`` and two roundings of values
       below ``a_i + 1``.  ``np.mean`` sums pairwise: blocks of at most 128
       terms in 8 partial sums (25 additions deep), then one addition per
       halving, and numpy may add the sums of 8192-term buffers one after
       another, so a term passes at most ``S = 26 + log2 n + n / 8192``
       additions, each off by ``u`` times a sum of terms below ``a_i + 1``;
       the division by ``n`` adds one rounding.  The ``l2`` term adds
       ``(k + 4) u`` of ``l2 theta'theta / 2``.  In all the computed loss is
       within ``u (k + S + 14) (1 + m + l2 theta'theta)`` of ``f(theta)``;
       ``E(theta)`` is twice that, for the higher orders and the rounding of
       the bound itself.
    2. Gradient.  Each ``p_i - y_i`` is off by ``k u a_i / 4 + 11u``: the
       sigmoid is 1/4-Lipschitz in ``z``, and ``_sigmoid``'s
       ``1 / (1 + v)`` with ``v = exp(-z)`` costs ``8u`` relative in ``v``,
       which moves the result by at most ``8u`` since ``v / (1 + v) <= 1``,
       then ``u`` in the sum and ``u`` in the reciprocal of a value at most
       1, and the subtraction of ``y`` one more ``u``; where ``v`` overflows
       (``z < -709.78``) the computed 0 is off by less than ``2.3e-308``.
       Each length-``n`` product of ``D'(p - y)`` is off by ``n u r_j``, so
       ``|ghat - g|`` is below ``e = 2u (sqrt(tr G) (n + k m + 20) + l2 |theta|)``.
    3. Step.  The computed ``cand`` is ``theta - lr ghat + q`` with
       ``|q| <= u (lr |ghat| + |cand|)``.  In the descent lemma, with
       ``g = ghat + (g - ghat)`` and ``lr L <= 1`` (1.5 would do, so the
       rounding of ``L`` does not matter), the terms in ``|ghat|`` form a
       concave quadratic whose peak gives
       ``f(cand) <= f(theta) + 4 b^2 / lr`` with ``b = u |cand| + 2 lr e``.

    So ``new_loss <= f(cand) + E(cand) <= loss + E(theta) + E(cand) +
    4 b^2 / lr`` in exact arithmetic, and rounding is monotone, so the
    computed test passes whenever ``lr L <= 1`` and that sum is at most
    ``1e-12``: the certificate.  A certified loss is also finite, since
    ``|z_i| <= sqrt(n) m``.  With standardized features ``r_j`` is about 1;
    at 20,000 rows and ``k = 11`` the certificate holds while ``m`` is
    below about 30.
    """
    n, k = design.shape
    gram = design.T @ design / n
    if not np.all(np.isfinite(gram)):  # no certificate: every step is checked
        return lambda theta, cand, lr: False
    smooth = np.linalg.eigvalsh(gram)[-1] / 4 + l2
    root = np.sqrt(np.diag(gram))
    root_trace = float(np.sqrt(np.trace(gram)))
    depth = k + 26 + math.log2(n) + n / 8192 + 14  # k + S + 14

    last = None, 0.0, 0.0  # the last candidate, with its m and squared norm

    def certified(theta, cand, lr):
        nonlocal last
        if lr * smooth > 1:
            return False
        # descent passes the accepted candidate back as theta: its norms are known
        m, sq = last[1:] if theta is last[0] else (float(np.abs(theta) @ root), float(theta @ theta))
        m_cand, sq_cand = float(np.abs(cand) @ root), float(cand @ cand)
        last = cand, m_cand, sq_cand
        loss_errors = 2 * _U * depth * (2 + m + m_cand + l2 * (sq + sq_cand))  # E(theta) + E(cand)
        grad_error = 2 * _U * (root_trace * (n + k * m + 20) + l2 * math.sqrt(sq))
        b = _U * math.sqrt(sq_cand) + 2 * lr * grad_error
        return loss_errors + 4 * b * b / lr <= _SLACK

    return certified


def _descend(design, y, config: TrainConfig) -> tuple:
    """Full-batch gradient descent with halving on loss increase; returns
    ``(theta, iterations, final_loss)``.

    Epochs never increase the loss by more than ``1e-12``: a step that
    would is retried with a halved rate, up to 60 times, after which the
    last candidate is kept.  A step that ``_certificate`` proves to pass that
    test on the first try is taken without computing a loss: only the
    gradient at the new ``theta``.  Every other step is checked, after one
    loss evaluation at the current ``theta`` when the previous step was
    certified; that evaluation has the bits the previous epoch's would have
    had, as it is the same call on the same input.  So ``theta``, the rate
    and the gradient follow, bit for bit, descent that evaluates the loss
    every epoch.

    Once ``theta - lr * grad`` rounds back to ``theta`` bit for bit (and the
    loss is not nan), the next epoch would evaluate the same ``theta``, accept
    its equal loss without halving and leave ``(theta, loss, grad, lr)`` as it
    was, and so would every later one; descent stops there, and
    ``iterations`` is the number of epochs run before it.  ``final_loss`` is
    the loss at the returned ``theta``.  Reads only ``design`` and ``y``, so
    fits of different groups may run in different processes.
    """
    certified = _certificate(design, config.l2)
    theta = np.zeros(design.shape[1])
    lr = config.learning_rate
    loss, grad = loss_and_grad(theta, design, y, config.l2)
    iterations = config.epochs
    for epoch in range(config.epochs):
        cand = theta - lr * grad
        # loss is None only after a certified step, and a certified loss is finite
        if cand.tobytes() == theta.tobytes() and (loss is None or not np.isnan(loss)):
            iterations = epoch
            break
        if certified(theta, cand, lr):
            theta, loss, grad = cand, None, _grad(cand, design, y, config.l2, design @ -cand)
            continue
        if loss is None:
            loss, grad = loss_and_grad(theta, design, y, config.l2)
        for attempt in range(60):
            if attempt:
                cand = theta - lr * grad
            new_loss, new_grad = loss_and_grad(cand, design, y, config.l2)
            if new_loss <= loss + _SLACK:
                break
            lr *= 0.5
        theta, loss, grad = cand, new_loss, new_grad
    if loss is None:
        loss, _ = loss_and_grad(theta, design, y, config.l2)
    return theta, iterations, loss


# Row-epochs (rows x epochs) that one forked child costs, the unit of the
# group fits' fork_map costs.  One serial row-epoch of a fit on a
# column-major design costs about 7 ns at k = 6 (5e7 row-epochs in 330-380 ms
# on a shared 2-vCPU Xeon, one BLAS thread).  A child costs a few
# milliseconds: the fork itself, the copy-on-write faults and cold caches in
# it, and the pipe that brings its results back; the caller fits its own
# share meanwhile.  In a process with a 40 MiB heap a child with nothing to
# do costs 4 ms, and forking the synth fit's smaller group already pays at
# 1.5e5 saved row-epochs (21 ms serial, 16 ms forked, 500 epochs), as each
# epoch also costs some 20 us of calls; at 1.2e6 it saves 9 of 36 ms.  This
# sits above both, since a fit that reaches its fixed point early saves fewer
# row-epochs than it is charged.
_FORK_SAVING = 1e6


def _column_stats(x):
    """``(x.mean(axis=0), x.std(axis=0))`` bit for bit, making temporaries of
    one row chunk, not of the whole matrix.

    The mean's axis-0 sum makes no temporary; the standard deviation's
    squared deviations would make one of the whole matrix.  numpy sums axis 0
    of a C-ordered matrix of two or more columns one row after another,
    starting from 0, so each chunk of squared deviations is summed with the
    running sum as its first row.  It sums a single column pairwise, as one
    vector, and that is reduced whole.
    """
    mean = x.mean(axis=0)
    if x.shape[1] == 1:
        return mean, x.std(axis=0)
    total = np.zeros(x.shape[1])
    for rows in _row_chunks(x.shape[0]):
        total = np.vstack([total, np.square(x[rows] - mean)]).sum(axis=0)
    return mean, np.sqrt(total / x.shape[0])


def _design(x, mean, scale, extra, index=None):
    """``np.hstack([(x[index] - mean) / scale, <extra columns>])`` in
    column-major (Fortran) order, where ``design @ theta`` and
    ``design.T @ p`` take about half the time at the benchmark's sizes; their
    sums run in another order than on a row-major design, so the logits
    differ from its logits in the last bits.  Each chunk of rows is
    standardized in place; the caller fills the ``extra`` columns.
    """
    n, d = x.shape[0] if index is None else index.size, x.shape[1]
    design = np.empty((n, d + extra), order="F")
    for rows in _row_chunks(n):
        part = np.subtract(x[rows] if index is None else x[index[rows]], mean, out=design[rows, :d])
        part /= scale
    return design


def fit_logistic(data: Dataset, config: TrainConfig = TrainConfig()) -> LogisticModel:
    """Train the score model on a dataset; increments the fit counter.

    Each fit is ``_descend``: gradient descent that evaluates the loss only
    on the steps its smoothness certificate does not accept in advance, with
    the weights of descent that evaluates it every epoch, bit for bit.

    Every group needs training rows.  With ``per_group`` the groups' fits
    are independent, so :func:`~fairthresh.core.fork_map` splits them into
    bins of balanced row-epochs, each group costing its row-epochs over
    ``_FORK_SAVING``: it fits the costliest bin on the calling thread and
    each other bin in a forked child where the bins save at least one
    child's cost, and else fits them one after another on the calling thread.
    Each fit reads only its own group's rows, and a BLAS call's reduction
    order does not depend on the process that makes it, so the model is the
    same bits either way.  The joint model is one fit on the calling thread.
    Features whose standardization overflows are rejected before any fit.

    The features are held once: the squared deviations of the column
    statistics are summed a row chunk at a time, and each fit standardizes
    its own rows into its design (in its own process, when the fits fork).
    """
    global _fit_calls
    rows = np.bincount(data.group, minlength=data.n_groups)
    if not rows.all():
        raise ValueError(f"group {np.flatnonzero(rows == 0)[0]} has no training rows; "
                         "the score model needs rows of every group")

    x = data.features
    mean, std = _column_stats(x)
    scale = np.where(std > 0, std, 1.0)
    # every standardized value is then finite too: a deviation x - mean that
    # overflows makes its square, and so std, inf; a finite one is at most
    # sqrt(n) std, or below 1.5e-154 where its square underflows, while a
    # positive std is at least sqrt(5e-324 / n)
    finite = np.isfinite(mean) & np.isfinite(scale)
    if not finite.all():
        raise ValueError(f"feature column {np.flatnonzero(~finite)[0]} is too large to "
                         "standardize: its mean or standard deviation overflows float64")
    _fit_calls += 1

    if config.per_group:

        def fit_group(a):
            in_a = np.flatnonzero(data.group == a)
            design = _design(x, mean, scale, 1, in_a)
            design[:, -1] = 1.0
            return _descend(design, data.label[in_a].astype(np.float64), config)

        # Threads would not do: an epoch is about a dozen numpy calls of 5-40 us
        # each at 20,000 rows, and a thread retakes the interpreter lock between
        # them, so two threads fit five groups only 10-20% faster than one.
        costs = rows * config.epochs / _FORK_SAVING
        thetas, iterations, final_loss = zip(*fork_map(fit_group, data.n_groups, data.n_groups, costs))
        weights = np.array([theta[:-1] for theta in thetas])
        bias = np.array([theta[-1] for theta in thetas])
        kind = "per-group"
    else:
        design = _design(x, mean, scale, data.n_groups)
        design[:, data.dim:] = 0.0
        design[np.arange(data.n), data.dim + data.group] = 1.0
        weights, iterations, final_loss = _descend(design, data.label.astype(np.float64), config)
        iterations, final_loss = (iterations,), (final_loss,)
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
        iterations=iterations,
        final_loss=final_loss,
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
    out = np.empty(xs.shape[0])
    for rows in _row_chunks(xs.shape[0]):
        std = np.subtract(xs[rows], model.feat_mean)
        std /= model.feat_scale
        g = groups[rows]
        if model.kind == "joint":
            z = np.hstack([std, np.eye(model.n_groups)[g]]) @ model.weights + model.bias[0]
        else:
            z = np.einsum("ij,ij->i", std, model.weights[g]) + model.bias[g]
        out[rows] = _sigmoid(z)
    return float(out[0]) if single else out


def score_dataset(model: LogisticModel, data: Dataset) -> np.ndarray:
    return predict_proba(model, data.features, data.group)
