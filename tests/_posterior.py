"""The exact posterior of a Gaussian population, which fitted scores and Monte Carlo rates are checked against."""

import numpy as np


def eta(pop, x, a: int):
    """P(Y=1 | A=a, X=x) under ``pop``: the logistic function of group ``a``'s
    score law ``weight @ x + bias``; a single row gives a float."""
    xs = np.asarray(x, dtype=np.float64)
    single = xs.ndim == 1
    if single:
        xs = xs[None, :]
    if xs.shape[1] != pop.dim:
        raise ValueError("dimension mismatch")
    law = pop.score_law(a)
    z = xs @ law.weight + law.bias
    out = 1.0 / (1.0 + np.exp(-z))
    return float(out[0]) if single else out
