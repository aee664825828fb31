"""Disparity functions and classifier evaluation on any source of stratum rates.

The four group-fairness measures handled here compare, between the two
protected groups, the positive rate (dp), the true-positive rate (eo), the
false-positive rate (pe), and TPR - FPR (oa): the oa statistic is
(TPR_1 - FPR_1) - (TPR_0 - FPR_0), not a gap in per-group accuracy.  Each
measure gives every group a cutoff map of its own shift; the
:class:`ThresholdCurve` below holds these maps, the binary family that
shifts two groups by (-t, t), and the disparity of its rules; it and
:func:`evaluate` read any source of ``rate(a, y, q, tau)`` and weights
``p_a``, ``p_ya``: a sample (:class:`GroupedScores`) or the population.
"""

from __future__ import annotations

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
    ``p_a[a] = n_a / n`` and ``p_ya[a] = n_{a,1} / n_a``.
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
    def p_a(self) -> np.ndarray:
        return _frozen_array(self.n_a / self.n, np.float64)

    @cached_property
    def p_ya(self) -> np.ndarray:
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


def _distinct(values) -> np.ndarray:
    """``np.unique(values)`` of a float vector without NaN, bit for bit: its sort, then the first of
    each run of equal values (-0.0 equals 0.0).  numpy's own loads ``numpy.ma`` on first use."""
    s = np.sort(values)
    return s[np.append(True, s[1:] != s[:-1])] if s.size else s


# ---------------------------------------------------------------------------
# Per-group cutoff maps and the binary threshold family
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
    """Each group's cutoff as a function of its own shift, for two or K groups.

    The one family for sample and population: the plug-in method builds it
    from a sample's group weights ``p_a`` and positive rates ``p_ya``, the
    oracle from the population's; only these, the cost c and the measure's
    ``MEASURES`` row enter the maps.  Group a's signed stratum sum
    is g_a = E[Yhat (A_a + B_a eta) | a], and the cost-c risk plus s g_a is
    least at q_a(s) = c + s k_a / (p_a - s B_a) (FairBayes' Neyman-Pearson
    cutoff; see :func:`_group_slopes`), with s = t_a / scale at the group's
    shift t_a and ``scale`` 2 at c = 1/2, else 1 (a power of two: the same
    cutoffs).  For dp, A = 1 and B = 0 give c + t_a / (scale p_a).  Where
    k_a vanishes the cutoff is pinned at c.  :meth:`cutoffs` is this map and
    :meth:`shift` its inverse; the K-group dp rule picks shifts summing to 0.

    The binary methods need two groups and shift them by (-t, t): t = 0
    yields (c, c), and as t grows g_1 shrinks and g_0 grows.  The disparity
    reads stratum rates from any object with a ``rate(a, y, q, tau)`` method.
    ``thresholds``, ``inverse`` and, on a sample, ``disparity`` take a scalar
    or an array, and an array gives elementwise the same bits as scalar calls.
    """

    measure: str
    p_a: tuple
    p_ya: tuple
    cost: float = 0.5

    def __post_init__(self):
        if self.measure not in MEASURES:
            raise ValueError(f"unknown measure {self.measure!r}")
        if not 0.0 <= self.cost <= 1.0:  # also rejects nan
            raise ValueError("cost must lie in [0, 1]")
        p_a = tuple(float(p) for p in self.p_a)
        p_ya = tuple(float(p) for p in self.p_ya)
        # a positive rate of 0 (1) leaves no label-1 (label-0) row: exact for a
        # sample's n_a1 / n_a, never met by a population's rate in (0, 1)
        for y, _ in MEASURES[self.measure]:
            for a, py in enumerate(p_ya):
                if y is not None and py == 1.0 - y:
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
        """The groups whose cutoff stays at the cost for every shift."""
        return tuple(a for a, slopes in enumerate(self._slopes) if slopes[3])

    def cutoffs(self, shifts) -> tuple:
        """Every group's cutoff at its own shift t_a, clamped into [0, 1]."""
        return tuple(self._cutoff(s, a) for a, s in enumerate(np.asarray(shifts, dtype=np.float64) / self.scale))

    def _cutoff(self, s, a: int):
        """Group a's cutoff at s = t_a / scale, clamped into [0, 1]."""
        _, B, k, pinned = self._slopes[a]
        den = self.p_a[a] - s * B
        if not pinned and (den <= 0.0).any():
            raise ThresholdRangeError("threshold out of range")
        return _clamp(np.full(np.shape(s), self.cost) if pinned else self.cost + s * k / den, 0.0, 1.0)

    def shift(self, q, a: int):
        """Shift t_a at which group a's cutoff passes the score q, s = p_a (q - c) /
        (A_a + q B_a) at t_a / scale; nan where none does (a pinned cutoff)."""
        A, B, _, pinned = self._slopes[a]
        q = np.asarray(q, dtype=np.float64)
        with np.errstate(all="ignore"):  # near the pole A + q B = 0 the shift overflows
            s = np.full(q.shape, np.nan) if pinned else self.p_a[a] * (q - self.cost) / (A + q * B)
            return (s * self.scale)[()]

    @property
    def _signs(self) -> tuple:
        """The binary family's orientation: group 0 takes the shift -t, group 1 t."""
        if len(self.p_a) != 2:
            raise ValueError("binary measures require exactly two groups")
        return (-1.0, 1.0)

    def bracket(self) -> tuple:
        (lo, hi), _ = self._bracket
        return lo * self.scale, hi * self.scale

    @cached_property
    def _bracket(self) -> tuple:
        """((lo, hi), roots) in t / scale: on each side of 0 the nearest parameter at which
        some group's cutoff reaches 0 or 1, or its map's pole p_a - s B_a = 0; ``roots``
        lists each (end, group, cutoff) at which a group's cutoff reaches 0 or 1."""
        with np.errstate(divide="ignore"):
            poles = [sgn * p / np.float64(B) for sgn, p, (_, B, _, _) in zip(self._signs, self.p_a, self._slopes)]
        roots = [self.inverse([0.0, 1.0], a) / self.scale for a in (0, 1)]
        ends = np.concatenate(roots + [poles])
        # a zero end closes both sides; + 0.0 gives it the sign of its side
        nearest = lambda u: np.min(u, where=u >= 0.0, initial=np.inf) + 0.0  # noqa: E731
        lo, hi = float(-nearest(-ends)), float(nearest(ends))
        at = ((e, a, q) for e in (lo, hi) for a in (0, 1) for q, r in zip((0.0, 1.0), roots[a]) if r == e)
        return (lo, hi), tuple(at)

    def thresholds(self, t) -> tuple:
        """(q_0, q_1) at parameter t, the cutoffs at shifts (-t, t); raises if any t is
        outside the bracket.  At a bracket end the cutoff that sets it is exactly 0 or 1."""
        s = t / self.scale
        (lo, hi), roots = self._bracket
        span = max(hi - lo, 1.0)
        if np.any((s < lo - _EPS * span) | (s > hi + _EPS * span)):
            raise ThresholdRangeError("threshold out of range")
        s = _clamp(s, lo, hi)
        q = [self._cutoff(sgn * s, a) for a, sgn in enumerate(self._signs)]
        for end, a, root in roots:
            q[a] = np.where(s == end, root, q[a])[()]
        return tuple(q)

    def inverse(self, q, a: int):
        """Parameter t at which group a's threshold passes the score q; nan, or a value
        outside the bracket, where none does."""
        return self._signs[a] * self.shift(q, a)

    def breakpoints(self, gs: GroupedScores) -> np.ndarray:
        """All t values, inside the bracket, where some indicator can flip.

        Every stratum of a group is a subset of the group, and accuracy reads
        every score, so the group's distinct scores give all the flips.
        """
        lo, hi = self.bracket()
        pts = [np.array([lo, hi, 0.0])]
        for a in (0, 1):
            t = self.inverse(_distinct(gs.by_group[a]), a)
            pts.append(t[(t >= lo) & (t <= hi)])  # nan compares false
        return _distinct(np.concatenate(pts))

    def disparity(self, rates, t):
        """Disparity of the rule at parameter t, on the stratum rates of ``rates``."""
        return self.disparity_at(rates, self.thresholds(t))

    def disparity_at(self, rates, thresholds, tie_prob=(0.0, 0.0)):
        """Disparity g_1 - g_0 at the cutoffs (q_0, q_1), each a scalar or an array;
        g_a is the signed sum of group a's stratum rates that ``MEASURES`` lists."""
        g0, g1 = (
            sum(sgn * rates.rate(a, y, thresholds[a], tie_prob[a]) for y, sgn in MEASURES[self.measure])
            for a in range(len(self._signs))
        )
        return g1 - g0

    def tie_effect(self, gs: GroupedScores, thresholds, a: int) -> float:
        """d(disparity)/d(tie_prob[a]) at the given threshold pair: g_a's sum over tie counts."""
        q = thresholds[a]
        strata = ((gs.stratum(a, y), sgn) for y, sgn in MEASURES[self.measure])
        return self._signs[a] * sum(sgn * _counts(s, q, True)[1] / s.size for s, sgn in strata)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def evaluate(rule: ThresholdRule, source, cost: float = 0.5) -> EvalReport:
    """Expected metrics of a (possibly tie-randomized) rule on a sample or a population.

    TPR and FPR are the label-1 and label-0 rates of ``source``, nan on a
    sample's empty stratum; every other metric sums the strata's masses.
    """
    if rule.n_groups != len(source.p_a):
        raise ValueError("rule and source disagree on the number of groups")
    if not 0.0 <= cost <= 1.0:  # also rejects nan
        raise ValueError("cost must lie in [0, 1]")
    w = np.stack([1.0 - source.p_ya, source.p_ya], axis=1)  # P(Y = y | A = a), 0 on an empty stratum
    cuts = enumerate(zip(rule.thresholds.tolist(), rule.tie_prob.tolist()))
    r = np.array([[source.rate(a, y, q, tau) if w[a, y] else 0.0 for y in (0, 1)] for a, (q, tau) in cuts])
    pos, neg = w * r, w * (1.0 - r)  # P(Yhat = 1, Y = y | A = a) and P(Yhat = 0, Y = y | A = a)
    rate_a = pos[:, 1] + pos[:, 0]
    per_group = np.stack([pos[:, 1] + neg[:, 0], cost * pos[:, 0] + (1.0 - cost) * neg[:, 1], rate_a], axis=1)
    # summed over the groups in order, as a loop does (np.sum pairs the terms of longer arrays)
    accuracy, cost_risk, overall = np.add.accumulate(source.p_a[:, None] * per_group)[-1]
    fpr, tpr = np.where(w > 0.0, r, np.nan).T
    return EvalReport(
        accuracy=float(accuracy),
        cost_risk=float(cost_risk),
        cost=cost,
        rate_gap_sum=float(np.abs(rate_a - overall).sum()),
        positive_rate_a=rate_a,
        tpr_a=tpr,
        fpr_a=fpr,
    )
