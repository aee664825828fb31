"""Empirical disparity functions and classifier evaluation.

The four group-fairness measures handled here compare, between the two
protected groups, the positive rate (dp), the true-positive rate (eo), the
false-positive rate (pe), and TPR - FPR (oa): the oa statistic is
(TPR_1 - FPR_1) - (TPR_0 - FPR_0), not a gap in per-group accuracy.  Each
measure induces a one-parameter family of group-wise threshold pairs; the
:class:`ThresholdCurve` below maps the scalar family parameter ``t`` to the
pair of score cutoffs, and its ``disparity`` method evaluates the disparity
of the resulting rule from any source of stratum rates: a sample
(:class:`GroupedScores`) or the exact Gaussian population.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .core import MEASURES, Dataset, EvalReport, ThresholdRule, _frozen_array


class ThresholdRangeError(ValueError):
    """Raised when a family parameter t leaves the valid bracket."""


@dataclass(frozen=True)
class GroupedScores:
    """Scores stratified by (group, label), each stratum sorted ascending.

    ``by_group[a]`` holds every score of group ``a``; ``by_group_label[a][y]``
    the scores of rows with group ``a`` and label ``y``.  The arrays are
    read-only, so runner calls that share one instance cannot change it;
    what is derived from them is cached on first use.
    The counts and plug-in rates are read off the strata sizes:
    ``n_ay[a, y]`` rows have group ``a`` and label ``y``,
    ``p_hat_a[a] = n_a / n`` and ``p_hat_ya[a] = n_{a,1} / n_a``.
    """

    by_group: tuple
    by_group_label: tuple

    @classmethod
    def from_arrays(cls, scores, group, label, n_groups: int = 0) -> "GroupedScores":
        """Stratify the scores; ``n_groups`` = 0 takes the largest group code plus one.

        Raises if the input is empty, a label is not 0 or 1, a group code lies
        outside {0, ..., n_groups - 1}, or a group has no row: every threshold
        formula divides by the group count.
        """
        s = np.asarray(scores, dtype=np.float64)
        g = np.asarray(group, dtype=np.int64)
        y = np.asarray(label, dtype=np.int64)
        if s.ndim != 1 or s.shape != g.shape or s.shape != y.shape:
            raise ValueError("scores, group and label must be equal-length vectors")
        if not np.all(np.isfinite(s)):
            raise ValueError("scores must be finite (found NaN or infinite values)")
        if s.size and (s.min() < 0.0 or s.max() > 1.0):
            raise ValueError("scores must lie in [0, 1]")
        if s.size == 0:
            raise ValueError("dataset is empty")
        if not np.all((y == 0) | (y == 1)):
            raise ValueError("labels must be 0 or 1")
        k = n_groups if n_groups else int(g.max()) + 1
        bad = g[(g < 0) | (g >= k)]
        if bad.size:
            raise ValueError(f"group code {int(bad[0])} is outside 0..{k - 1}")
        by_group = []
        by_group_label = []
        for a in range(k):
            in_a = g == a
            if not in_a.any():
                raise ValueError(f"empty protected group {a}")
            strata = np.sort(s[in_a]), np.sort(s[in_a & (y == 0)]), np.sort(s[in_a & (y == 1)])
            for arr in strata:
                arr.setflags(write=False)
            by_group.append(strata[0])
            by_group_label.append(strata[1:])
        return cls(tuple(by_group), tuple(by_group_label))

    @classmethod
    def from_dataset(cls, data: Dataset, scores) -> "GroupedScores":
        return cls.from_arrays(scores, data.group, data.label, data.n_groups)

    @property
    def n_groups(self) -> int:
        return len(self.by_group)

    @cached_property
    def n_ay(self) -> np.ndarray:
        return _frozen_array([[s.size for s in pair] for pair in self.by_group_label], np.int64)

    @cached_property
    def n_a(self) -> np.ndarray:
        return _frozen_array(self.n_ay.sum(axis=1), np.int64)

    @cached_property
    def n(self) -> int:
        return int(self.n_a.sum())

    @cached_property
    def p_hat_a(self) -> np.ndarray:
        return _frozen_array(self.n_a / self.n, np.float64)

    @cached_property
    def p_hat_ya(self) -> np.ndarray:
        return _frozen_array(self.n_ay[:, 1] / self.n_a, np.float64)

    @cached_property
    def scans(self) -> dict:
        """The binary solver's tolerance-free scans of this sample, keyed by
        (measure, cost); filled by ``solve._scan``."""
        return {}

    def stratum(self, a: int, y: Optional[int]) -> np.ndarray:
        """Sorted scores of group ``a``, optionally restricted to label ``y``."""
        if y is None:
            return self.by_group[a]
        return self.by_group_label[a][y]

    def rate(self, a: int, y: Optional[int], q, tau: float = 0.0):
        """Fraction of stratum (a, y) above the cutoff(s) q, plus tau weight on ties."""
        s = self.stratum(a, y)
        above, ties = _counts(s, q, bool(tau))
        if tau:
            return (above + tau * ties) / s.size
        return above / s.size


def _counts(sorted_scores: np.ndarray, q, with_ties: bool = False) -> tuple:
    """(above, ties): scores strictly above the cutoff q, and scores equal to it.

    ``q`` may be one cutoff or an array of them.  ``ties`` is None unless
    ``with_ties``, which costs a second search.
    """
    hi = np.searchsorted(sorted_scores, q, side="right")
    above = sorted_scores.size - hi
    if not with_ties:
        return above, None
    return above, hi - np.searchsorted(sorted_scores, q, side="left")


# ---------------------------------------------------------------------------
# One-parameter threshold families (binary protected attribute)
# ---------------------------------------------------------------------------

_EPS = 1e-12


def _clamp(x, lo: float, hi: float):
    return np.minimum(np.maximum(x, lo), hi)


@lru_cache(maxsize=1024)
def _group_slopes(measure: str, py: float, cost: float) -> tuple:
    """(A, B, k, pinned) of a group with positive rate py, for the signs s_y of the
    measure's row: A = s_None + s_0 / (1 - py), B = s_1 / py - s_0 / (1 - py), k = A + c B.

    Summed exactly and rounded once, so the band |k| <= 1e-12 |c B| that pins the cutoff
    does not move with rounding (for oa at c = 1/2: |1 - 2 py| <= 1e-12); cached, as
    exact sums take tens of microseconds.
    """
    c, py = Fraction(cost), Fraction(py)
    w = {None: lambda e: 1, 1: lambda e: e / py, 0: lambda e: (1 - e) / (1 - py)}  # rate_y = E[Yhat w_y(eta)]
    A, A_B, k = (sum(Fraction(sgn) * w[y](e) for y, sgn in MEASURES[measure]) for e in (0, 1, c))
    return float(A), float(A_B - A), float(k), abs(k) <= Fraction(_EPS) * abs(c * (A_B - A))


@dataclass(frozen=True)
class ThresholdCurve:
    """Threshold pair as a function of the disparity-control parameter t.

    The one family for sample and population: the plug-in method builds it
    from a sample's ``p_hat_a`` and ``p_hat_ya``, the oracle from the
    population's ``p_a`` and ``p_ya``; only these, the cost c and the
    measure's ``MEASURES`` row enter the maps, and the disparity reads
    stratum rates from any object with a ``rate(a, y, q, tau)`` method.
    Group a's signed stratum sum is g_a = E[Yhat (A_a + B_a eta) | a], and
    the cost-c risk plus s g_a is least at q_a(s) = c + s k_a / (p_a - s B_a)
    (FairBayes' Neyman-Pearson cutoff; see :func:`_group_slopes`); group 1
    takes s = t / scale, group 0 s = -t / scale, with ``scale`` 2 at c = 1/2
    and 1 otherwise (a power of two: the same cutoffs).  For dp, A = 1 and
    B = 0 give c +- t / p_a.  Where k_a vanishes the cutoff is pinned at c.

    t = 0 always yields the cutoffs (c, c); as t grows each cutoff moves
    monotonically, shrinking g_1 and growing g_0.  ``thresholds``,
    ``inverse`` and, on a sample, ``disparity`` take a scalar or an array,
    and an array gives elementwise the same bits as scalar calls.
    """

    measure: str
    p_a: tuple
    p_ya: tuple
    cost: float = 0.5

    def __post_init__(self):
        if self.measure not in MEASURES:
            raise ValueError(f"unknown measure {self.measure!r}")
        if len(self.p_a) != 2 or len(self.p_ya) != 2:
            raise ValueError("binary measures require exactly two groups")
        p_a = tuple(float(p) for p in self.p_a)
        p_ya = tuple(float(p) for p in self.p_ya)
        # a positive rate of 0 (1) leaves no label-1 (label-0) row: exact for a
        # sample's n_a1 / n_a, never met by a population's rate in (0, 1)
        for y, _ in MEASURES[self.measure]:
            for a in (0, 1):
                if y is not None and p_ya[a] == 1.0 - y:
                    raise ValueError(f"empty stratum (group {a}, label {y})")
        object.__setattr__(self, "p_a", p_a)
        object.__setattr__(self, "p_ya", p_ya)

    @property
    def scale(self) -> float:
        return 2.0 if self.cost == 0.5 else 1.0

    @cached_property
    def _slopes(self) -> tuple:
        return tuple(_group_slopes(self.measure, py, self.cost) for py in self.p_ya)

    @property
    def pinned(self) -> tuple:
        """The groups whose cutoff stays at the cost for every t."""
        return tuple(a for a in (0, 1) if self._slopes[a][3])

    def bracket(self) -> tuple:
        lo, hi = self._bracket
        return lo * self.scale, hi * self.scale

    @cached_property
    def _bracket(self) -> tuple:
        """(lo, hi) in t / scale: on each side of 0 the nearest parameter at which some
        group's cutoff reaches 0 or 1, or its map's pole p_a - s B_a = 0."""
        with np.errstate(divide="ignore"):
            poles = [sgn * self.p_a[a] / np.float64(self._slopes[a][1]) for a, sgn in ((1, 1.0), (0, -1.0))]
        ends = np.concatenate([self.inverse([0.0, 1.0], a) / self.scale for a in (1, 0)] + [poles])
        # a zero end closes both sides; + 0.0 gives it the sign of its side
        nearest = lambda u: np.min(u, where=u >= 0.0, initial=np.inf) + 0.0  # noqa: E731
        return float(-nearest(-ends)), float(nearest(ends))

    def thresholds(self, t) -> tuple:
        """(q_0, q_1) at parameter t; raises if any t is outside the bracket."""
        t = t / self.scale
        lo, hi = self._bracket
        span = max(hi - lo, 1.0)
        if np.any((t < lo - _EPS * span) | (t > hi + _EPS * span)):
            raise ThresholdRangeError("threshold out of range")
        t = _clamp(t, lo, hi)
        return tuple(_clamp(self._cutoff(t, a), 0.0, 1.0) for a in (0, 1))

    def _cutoff(self, t, a: int):
        """Group a's unclamped cutoff at t / scale: group 1's map, which group 0 takes at -t."""
        s = t if a == 1 else -t
        _, B, k, pinned = self._slopes[a]
        if pinned:
            return np.full(np.shape(t), self.cost)
        den = self.p_a[a] - s * B
        if (den <= 0.0).any():
            raise ThresholdRangeError("threshold out of range")
        return self.cost + s * k / den

    def inverse(self, q, a: int):
        """Parameter t at which group a's threshold passes the score q, s = p_a (q - c) /
        (A_a + q B_a) at t / scale; nan, or a value outside the bracket, where none does."""
        A, B, _, pinned = self._slopes[a]
        q = np.asarray(q, dtype=np.float64)
        with np.errstate(all="ignore"):
            s = np.full(q.shape, np.nan) if pinned else self.p_a[a] * (q - self.cost) / (A + q * B)
        return ((1.0 if a == 1 else -1.0) * s * self.scale)[()]

    def breakpoints(self, gs: GroupedScores) -> np.ndarray:
        """All t values, inside the bracket, where some indicator can flip.

        Every stratum of a group is a subset of the group, and accuracy reads
        every score, so the group's distinct scores give all the flips.
        """
        lo, hi = self.bracket()
        pts = [np.array([lo, hi, 0.0])]
        for a in (0, 1):
            t = self.inverse(np.unique(gs.by_group[a]), a)
            pts.append(t[(t >= lo) & (t <= hi)])  # nan compares false
        return np.unique(np.concatenate(pts))

    def disparity(self, rates, t):
        """Disparity of the rule at parameter t, on the stratum rates of ``rates``."""
        return self.disparity_at(rates, self.thresholds(t))

    def disparity_at(self, rates, thresholds, tie_prob=(0.0, 0.0)):
        """Disparity g_1 - g_0 at the cutoffs (q_0, q_1), each a scalar or an array;
        g_a is the signed sum of group a's stratum rates that ``MEASURES`` lists."""
        g1, g0 = (
            sum(sgn * rates.rate(a, y, thresholds[a], tie_prob[a]) for y, sgn in MEASURES[self.measure])
            for a in (1, 0)
        )
        return g1 - g0

    def tie_effect(self, gs: GroupedScores, thresholds, a: int) -> float:
        """d(disparity)/d(tie_prob[a]) at the given threshold pair: g_a's sum over tie counts."""
        q = thresholds[a]
        strata = ((gs.stratum(a, y), sgn) for y, sgn in MEASURES[self.measure])
        return (1.0 if a == 1 else -1.0) * sum(sgn * _counts(s, q, True)[1] / s.size for s, sgn in strata)


# ---------------------------------------------------------------------------
# Multi-group demographic-parity shifts
# ---------------------------------------------------------------------------


def dp_cutoffs(t, p_a):
    """Cutoffs q_a = 1/2 + t_a / (2 p_a) of the shifts t_a, clipped into [0, 1]."""
    return np.clip(0.5 + t / (2.0 * p_a), 0.0, 1.0)


def dp_shifts(q, p_a):
    """Shifts t_a = 2 p_a (q_a - 1/2) that put the cutoffs at q_a; inverse of :func:`dp_cutoffs`."""
    return 2.0 * p_a * (q - 0.5)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def evaluate(rule: ThresholdRule, gs: GroupedScores, cost: float = 0.5) -> EvalReport:
    """Expected metrics of a (possibly tie-randomized) rule on one sample."""
    k = gs.n_groups
    if rule.n_groups != k:
        raise ValueError("rule and sample disagree on the number of groups")
    pos_mass = np.zeros((k, 2))  # expected positives per (group, label)
    for a in range(k):
        q = float(rule.thresholds[a])
        tau = float(rule.tie_prob[a])
        for y in (0, 1):
            s = gs.stratum(a, y)
            if s.size:
                pos_mass[a, y] = gs.rate(a, y, q, tau) * s.size
    n_ay = gs.n_ay
    with np.errstate(invalid="ignore", divide="ignore"):
        tpr = np.where(n_ay[:, 1] > 0, pos_mass[:, 1] / n_ay[:, 1], np.nan)
        fpr = np.where(n_ay[:, 0] > 0, pos_mass[:, 0] / n_ay[:, 0], np.nan)
    rate_a = pos_mass.sum(axis=1) / gs.n_a

    fp = pos_mass[:, 0].sum()
    fn = (n_ay[:, 1] - pos_mass[:, 1]).sum()
    accuracy = 1.0 - (fp + fn) / gs.n
    cost_risk = (cost * fp + (1.0 - cost) * fn) / gs.n

    overall = pos_mass.sum() / gs.n
    rate_gap_sum = float(np.abs(rate_a - overall).sum())
    if k == 2:
        ddp = float(rate_a[1] - rate_a[0])
        deo = float(tpr[1] - tpr[0])
        dpe = float(fpr[1] - fpr[0])
        doa = float((tpr[1] - fpr[1]) - (tpr[0] - fpr[0]))
    else:
        ddp = rate_gap_sum
        deo = dpe = doa = math.nan

    return EvalReport(
        accuracy=float(accuracy),
        cost_risk=float(cost_risk),
        cost=cost,
        ddp=ddp,
        rate_gap_sum=rate_gap_sum,
        deo=deo,
        dpe=dpe,
        doa=doa,
        positive_rate_a=rate_a,
        tpr_a=tpr,
        fpr_a=fpr,
    )
