"""Exact population computations for the isotropic Gaussian mixture model.

Features are drawn per (group, label) stratum from N(mu[a, y], sigma^2 I).
Because the covariances are equal and isotropic, the posterior positive
probability within a group is a logistic function of a one-dimensional linear
score whose stratum laws are Gaussian with a shared variance, so every tail
probability needed by the threshold theory reduces to a normal CDF; no
d-dimensional integration is performed.  The normal CDF ``_ndtr`` is built on
``math.erf`` and ``math.erfc`` (absolute error below 1e-15), and every
oracle root search, ``t_star``'s and the multiclass oracle's, uses the
bracketing ``_root``, so the module needs numpy and the standard library
only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .core import DELTA_SLACK, ThresholdRule, _frozen_array
from .metrics import ThresholdCurve, evaluate

_SQRT_HALF = math.sqrt(0.5)


def _logit(q: float) -> float:
    return math.log(q) - math.log1p(-q)


def _ndtr(x: float) -> float:
    """Standard normal CDF: erf near 0, and erfc in the tails, where it keeps full relative accuracy."""
    z = x * _SQRT_HALF
    if abs(x) < 1.0:
        return 0.5 + 0.5 * math.erf(z)
    tail = 0.5 * math.erfc(abs(z))
    return 1.0 - tail if x > 0 else tail


def _root(f, lo: float, hi: float, xtol: float) -> float:
    """A root of the continuous ``f`` on [lo, hi], located to within ``xtol``.

    Regula falsi with the Illinois modification (Dowell & Jarratt 1971, BIT
    11): when one end of the bracket is kept twice in a row, the weight of its
    value is halved, which pulls the next secant point toward it.  Each point
    is kept at least ``xtol / 2`` inside the bracket, so an end already at the
    root closes the bracket in one more step; a point that is still not
    strictly inside (a non-finite secant) is replaced by the midpoint.
    Returns the end of the final bracket with the smaller ``|f|``; an exact
    zero is returned at once.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError(f"f does not change sign on the bracket [{lo!r}, {hi!r}]")
    wlo = whi = 1.0  # Illinois weights of the two end values
    side = 0  # -1 after lo moved, +1 after hi moved
    step = 0.5 * xtol
    while hi - lo > xtol:
        glo, ghi = wlo * flo, whi * fhi
        x = min(max(hi - ghi * (hi - lo) / (ghi - glo), lo + step), hi - step)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:  # adjacent floats: the bracket cannot shrink
                break
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (flo > 0.0):
            lo, flo, wlo = x, fx, 1.0
            if side < 0:
                whi *= 0.5
            side = -1
        else:
            hi, fhi, whi = x, fx, 1.0
            if side > 0:
                wlo *= 0.5
            side = 1
    return lo if abs(flo) < abs(fhi) else hi


@dataclass(frozen=True)
class GaussianPopulation:
    """Generative parameters: group weights, positive rates, stratum means."""

    p_a: np.ndarray
    p_ya: np.ndarray
    mu: np.ndarray  # shape (n_groups, 2, dim); mu[a, y]
    sigma: float

    def __post_init__(self):
        p_a = _frozen_array(self.p_a, np.float64)
        p_ya = _frozen_array(self.p_ya, np.float64)
        mu = _frozen_array(self.mu, np.float64)
        if p_a.ndim != 1 or p_a.size < 1:
            raise ValueError("p_a must be a non-empty vector")
        if not math.isclose(float(p_a.sum()), 1.0, abs_tol=1e-9) or np.any(p_a <= 0):
            raise ValueError("group probabilities must be positive and sum to 1")
        if p_ya.shape != p_a.shape or np.any(p_ya <= 0) or np.any(p_ya >= 1):
            raise ValueError("positive rates must lie strictly in (0, 1)")
        if mu.ndim != 3 or mu.shape[0] != p_a.size or mu.shape[1] != 2:
            raise ValueError("mu must have shape (n_groups, 2, dim)")
        if not np.all(np.isfinite(mu)):
            raise ValueError("means must be finite")
        if not 0 < self.sigma < math.inf:
            raise ValueError("sigma must be positive and finite")
        object.__setattr__(self, "p_a", p_a)
        object.__setattr__(self, "p_ya", p_ya)
        object.__setattr__(self, "mu", mu)

    @property
    def n_groups(self) -> int:
        return self.p_a.size

    @property
    def dim(self) -> int:
        return self.mu.shape[2]

    def rate(self, a: int, y: Optional[int], q: float, tau: float = 0.0) -> float:
        """P(predict 1) in stratum (a, y) for the cutoff q on eta, with tie probability tau.

        ``y`` = None is the group marginal, the label-weighted mix of the two
        strata.  Ties, P(eta = q), have positive probability only under the
        degenerate point-mass law, where eta is the constant ``p_ya[a]``.
        """
        if q <= 0.0:
            return 1.0
        if q >= 1.0:
            return 0.0
        law = self.score_law(a)
        py = float(self.p_ya[a])
        if law.sd == 0.0:
            above = 1.0 if py > q else 0.0
            if y is None:  # the mix of two equal strata, rounded as any mix is
                above = py * above + (1.0 - py) * above
        else:  # a stratum's rate is the normal tail of its score above the cutoff's logit
            cut = _logit(q)
            if y is None:
                above = py * _ndtr((law.mean[1] - cut) / law.sd) + (1.0 - py) * _ndtr((law.mean[0] - cut) / law.sd)
            else:
                above = _ndtr((law.mean[y] - cut) / law.sd)
        # the atom counts once: a cutoff below p_ya already counts its mass as above
        if tau and law.sd == 0.0 and q >= py and math.isclose(py, q, rel_tol=0.0, abs_tol=1e-15):
            return above + tau  # the atom term last, after the mix of the strata
        return above

    def score_law(self, a: int) -> "ScoreLaw":
        """Law of the log-odds score within group a, per label stratum."""
        return self._score_laws[a]

    @cached_property
    def _score_laws(self) -> tuple:
        # computed once: the oracle's root searches read a law on every tail rate
        return tuple(self._score_law(a) for a in range(self.n_groups))

    def _score_law(self, a: int) -> "ScoreLaw":
        mu1 = self.mu[a, 1]
        mu0 = self.mu[a, 0]
        var = self.sigma**2
        w = (mu1 - mu0) / var
        prior = math.log(self.p_ya[a]) - math.log1p(-self.p_ya[a])
        b = prior + (float(mu0 @ mu0) - float(mu1 @ mu1)) / (2.0 * var)
        gap = float((mu1 - mu0) @ (mu1 - mu0)) / var  # Mahalanobis-squared gap
        return ScoreLaw(
            mean=(prior - 0.5 * gap, prior + 0.5 * gap),
            sd=math.sqrt(gap),
            weight=_frozen_array(w, np.float64),
            bias=b,
        )


@dataclass(frozen=True)
class ScoreLaw:
    """Gaussian law of the linear log-odds score weight @ x + bias.

    ``mean[y]`` is the stratum mean under label y; the standard deviation is
    shared across strata.  sd == 0 marks the degenerate point-mass case of
    coincident stratum means.
    """

    mean: tuple
    sd: float
    weight: np.ndarray
    bias: float


def eta(pop: GaussianPopulation, x, a: int):
    """Posterior positive probability P(Y=1 | A=a, X=x), in log space."""
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


# ---------------------------------------------------------------------------
# The optimal shift per tolerance
# ---------------------------------------------------------------------------


# A stratum rate Phi((m - cut) / sd) moves by up to ulp(cut) / (sqrt(2 pi) sd)
# between adjacent float cutoffs; it stays within DELTA_SLACK where
# sd > _NARROWEST * max(1, |cut|), cutoffs near the law's means being the steepest.
_NARROWEST = math.ulp(1.0) / (math.sqrt(2.0 * math.pi) * DELTA_SLACK)


def _require_continuous(pop: GaussianPopulation) -> None:
    """Raise unless every group's rates are continuous in the cutoff at float
    resolution, as root searches need: a point mass (``sd == 0``) or a law so
    narrow that a rate steps by more than ``DELTA_SLACK`` between adjacent
    float cutoffs is degenerate."""
    for a in range(pop.n_groups):
        law = pop.score_law(a)
        if law.sd <= _NARROWEST * max(1.0, abs(law.mean[0]), abs(law.mean[1])):
            raise ValueError(f"degenerate score law in group {a}")


def t_star(pop: GaussianPopulation, measure: str, delta: float, cost: float = 0.5) -> float:
    """Shift at which the population disparity reaches the signed tolerance.

    As in :func:`~fairthresh.solve.solve`, a disparity within ``DELTA_SLACK``
    of the tolerance reaches it: 0 is returned when the unconstrained rule's
    disparity does, and otherwise the shift nearest 0 on its side at which
    the disparity equals the tolerance plus the slack.  The disparity is
    continuous and strictly decreasing in the searched direction for
    non-degenerate score laws (a search on a point mass, or on a law that
    is one at float resolution, raises: :func:`_require_continuous`), so
    ``_root`` locates that crossing to 1e-13.
    """
    if not delta >= 0:
        raise ValueError("delta must be >= 0")
    curve = ThresholdCurve(measure, pop.p_a, pop.p_ya, cost)
    star = curve.disparity(pop, 0.0)
    bound = delta + DELTA_SLACK
    if abs(star) <= bound:
        return 0.0
    _require_continuous(pop)
    lo, hi = curve.bracket()
    sign, end = (1.0, hi) if star > 0 else (-1.0, -lo)
    over = lambda u: sign * curve.disparity(pop, sign * u) - bound  # noqa: E731
    if over(end) > 0:
        pinned = "".join(f"; group {a}'s cutoff is pinned at the cost" for a in curve.pinned)
        raise ValueError(f"bracket failure in shift search: the {measure} family at cost {cost} cannot "
                         f"reach tolerance {float(delta)!r}{pinned}")
    return sign * _root(over, 0.0, end, 1e-13)


# ---------------------------------------------------------------------------
# Exact performance of a rule
# ---------------------------------------------------------------------------


def fair_accuracy(pop: GaussianPopulation, rule: ThresholdRule) -> float:
    """Exact accuracy of a (possibly tie-randomized) group-thresholding rule."""
    return evaluate(rule, pop).accuracy


# ---------------------------------------------------------------------------
# Multi-class perfect demographic parity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MulticlassOracle:
    """Zero-sum shifts equalizing every group's positive rate exactly."""

    t_a: np.ndarray
    common_rate: float
    rule: ThresholdRule
    accuracy: float
    sum_residual: float


def oracle_multiclass_dp(pop: GaussianPopulation) -> MulticlassOracle:
    """Solve sum_a t_a = 0 with all marginal rates equal, by a root search on the common rate.

    A degenerate score law in any group raises, as in :func:`t_star`.  Each
    evaluation of the sum finds every group's cutoff by an inner root search.
    """
    _require_continuous(pop)
    curve = ThresholdCurve("dp", pop.p_a, pop.p_ya)

    def cutoff(a: int, s: float) -> float:
        """Group a's cutoff at which its marginal positive rate equals s."""
        return _root(lambda q: pop.rate(a, None, q) - s, 1e-15, 1.0 - 1e-15, 1e-15)

    def shifts(s: float) -> list:
        """Each group's shift of the dp curve at which its marginal positive rate equals s."""
        return [curve.shift(cutoff(a, s), a) for a in range(pop.n_groups)]

    s_star = _root(lambda s: sum(shifts(s)), 1e-12, 1.0 - 1e-12, 1e-15)
    t_a = np.array(shifts(s_star))
    rule = ThresholdRule(curve.cutoffs(t_a))
    return MulticlassOracle(
        t_a=t_a,
        common_rate=float(s_star),
        rule=rule,
        accuracy=evaluate(rule, pop).accuracy,
        sum_residual=float(t_a.sum()),
    )
