"""Threshold calibration: pick the disparity-control parameter for a sample.

Each binary-measure solver searches the one-parameter threshold family of its
measure, on the side of ``t = 0`` that the sign of the initial disparity
dictates, for the parameter closest to 0 at which the empirical disparity
reaches the signed tolerance.  The empirical disparity is a step function
whose breakpoints are known exactly (images of the observed scores under the
inverse threshold maps), so the search scans the finite candidate set instead
of bisecting.  Crossing rules: the upper branch (positive initial disparity,
``t >= 0``) stops at the smallest candidate, a breakpoint or the left end of
the interval after one, where the disparity is ``<= delta``; the lower branch
(negative initial disparity, ``t <= 0``) mirrors it and stops at the largest
one, a breakpoint or the right end of the interval before one, where the
disparity is ``>= -delta``.  Every comparison against
the tolerance allows the stated slack ``DELTA_SLACK`` (1e-12), so a disparity
that equals the tolerance in exact arithmetic but rounds a few ulps past it
still counts as reaching it.  Along each half of the family the plug-in
accuracy can only fall as ``|t|`` grows, so the first crossing is the most
accurate rule of that half-family (for the cost-sensitive family: the one
with the least plug-in cost risk).

With ``randomize=True`` the rule also randomizes predictions for scores on a
group's cutoff: group 0's tie probability first, clamped to [0, 1], then
group 1's for what is left, so an unsaturated solve meets the signed
tolerance exactly.  The deterministic rule can instead overshoot by up to
one score atom.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .core import DELTA_SLACK, FairnessConstraint, ThresholdRule
from .metrics import GroupedScores, ThresholdCurve, _counts, _distinct


class SolverError(ValueError):
    pass


@dataclass(frozen=True)
class SolveResult:
    """A calibrated rule plus how it was found.

    ``achieved_disparity`` is the expected disparity of ``rule`` on the
    solving sample (the signed tolerance when randomization is on and the
    solve is not saturated).  ``plugin_accuracy`` and ``plugin_cost_risk`` treat
    each score as the true positive probability of its row, which is the
    objective the threshold family optimizes.

    ``saturated`` means no candidate on the searched side of ``t = 0``
    brings the disparity within the tolerance (up to ``DELTA_SLACK``): the
    half-family holds no feasible rule, and the rule returned is taken at
    the end of the bracket on that side and does not meet the tolerance.
    """

    t_hat: float
    rule: ThresholdRule
    achieved_disparity: float
    constraint: FairnessConstraint
    disparity_at_zero: float
    branch: str
    bracket: tuple
    n_candidates: int
    saturated: bool
    randomized: bool
    plugin_accuracy: float
    plugin_cost_risk: float


def _snap_to_scores(q: float, sorted_scores: np.ndarray, atol: float = 1e-9) -> float:
    """Snap a threshold onto the nearest observed score, if it lies within atol.

    Candidate parameters are breakpoint images, so the intended cutoff is an
    exact score value; this undoes the inverse-then-forward float round trip.
    Saturated scores can sit closer together than atol, so of the two
    neighbours the nearer is taken (the lower on a tie), not the first in reach.
    """
    i = int(np.searchsorted(sorted_scores, q))
    near = sorted_scores[max(i - 1, 0) : i + 1]
    dist = np.abs(near - q)
    return float(near[np.argmin(dist)]) if near.size and dist.min() <= atol else q


def _plugin_metrics(gs: GroupedScores, rule: ThresholdRule, cost: float) -> tuple:
    acc = 0.0
    risk = 0.0
    for a in range(gs.n_groups):
        s = gs.by_group[a]
        pi = rule.predict_prob(s, a)
        acc += float(np.sum(pi * s + (1.0 - pi) * (1.0 - s)))
        risk += float(np.sum(cost * (1.0 - s) * pi + (1.0 - cost) * s * (1.0 - pi)))
    return acc / gs.n, risk / gs.n


# Each sample's scans, keyed by (measure, cost); an entry goes with its sample.
_scans = weakref.WeakKeyDictionary()


def _scan(gs: GroupedScores, curve: ThresholdCurve, sign: float, end: float) -> tuple:
    """``(us, falls, n_candidates)`` of the side ``sign`` of t = 0, once per sample, measure and cost.

    In u = sign * t and sign * disparity both sides are one search (negation
    is exact).  ``us`` holds the breakpoints u in [0, sign * end], ascending;
    ``falls[i]`` is minus the least signed disparity at some ``us[j]``, j <= i,
    or at the midpoint after it, which stands for that interval's step.  It
    never decreases, so a tolerance's first crossing is one ``searchsorted``.
    """
    scans, key = _scans.setdefault(gs, {}), (curve.measure, curve.cost)
    if key not in scans:
        cands = curve.breakpoints(gs)
        us = sign * cands[::int(sign)]  # ascending, as the breakpoints are distinct and ascending
        us = us[(us >= 0.0) & (us <= sign * end)]
        at = sign * curve.disparity(gs, sign * us)
        mid = sign * curve.disparity(gs, sign * (0.5 * (us[:-1] + us[1:])))
        least = np.minimum(at, np.append(mid, np.inf))
        scans[key] = (us, -np.minimum.accumulate(least), int(cands.size))
    return scans[key]


def solve(gs: GroupedScores, constraint: FairnessConstraint, randomize: bool = False) -> SolveResult:
    """Calibrate the threshold family of the constraint's measure and cost.

    The family is :class:`ThresholdCurve`'s, centered at (c, c) for the cost
    c of every measure; the rule found has the least plug-in cost risk of
    its half-family.  The oa disparity (TPR_1 - FPR_1) - (TPR_0 - FPR_0) has a
    sample estimate that is not monotone in t: it ticks upward when a cutoff
    passes a label-0 score, so it can cross the signed tolerance more than
    once.  The scan keeps the first crossing; the side of t = 0 opposite the
    initial disparity is not searched.  Every tolerance solved on one ``gs``
    reads the same scan (see :func:`_scan`) and adds only the rule's tail.
    """
    curve = ThresholdCurve(constraint.measure, gs.p_a, gs.p_ya, constraint.cost)
    delta = constraint.delta
    d0 = curve.disparity(gs, 0.0)
    lo, hi = curve.bracket()
    t_hat = 0.0
    saturated = False
    n_candidates = 0
    bound = delta + DELTA_SLACK

    if abs(d0) <= bound:
        branch = "within-tolerance"
        target = d0
    else:
        # -delta - slack equals -(delta + slack), so a plateau lying exactly
        # on the tolerance is entered at its near end from either side
        sign = 1.0 if d0 > 0 else -1.0
        branch = "upper" if d0 > 0 else "lower"
        target = sign * delta
        end = hi if d0 > 0 else lo
        us, falls, n_candidates = _scan(gs, curve, sign, end)
        i = int(np.searchsorted(falls, -bound))
        saturated = i == us.size
        t_hat = end if saturated else sign * us[i]

    q0, q1 = curve.thresholds(t_hat)
    q0 = _snap_to_scores(q0, gs.by_group[0])
    q1 = _snap_to_scores(q1, gs.by_group[1])
    thresholds = (q0, q1)
    achieved = curve.disparity_at(gs, thresholds)

    tie = [0.0, 0.0]
    if randomize and branch != "within-tolerance":
        needed = target - achieved
        for a in (0, 1):  # group 0's tie first; group 1's takes what is left
            eff = curve.tie_effect(gs, thresholds, a)
            if eff != 0.0:
                tau = needed / eff
                tie[a] = min(max(0.0, tau), 1.0)  # 0.0 first: a tau of -0.0 gives the tie +0.0
                needed = (tau - tie[a]) * eff

    rule = ThresholdRule(np.array(thresholds), np.array(tie))
    randomized = bool(tie[0] or tie[1])
    if randomized:
        achieved = curve.disparity_at(gs, thresholds, tuple(tie))
    acc, risk = _plugin_metrics(gs, rule, constraint.cost)
    return SolveResult(
        t_hat=float(t_hat),
        rule=rule,
        achieved_disparity=float(achieved),
        constraint=constraint,
        disparity_at_zero=float(d0),
        branch=branch,
        bracket=(float(lo), float(hi)),
        n_candidates=n_candidates,
        saturated=saturated,
        randomized=randomized,
        plugin_accuracy=acc,
        plugin_cost_risk=risk,
    )


# ---------------------------------------------------------------------------
# Multi-class protected attribute, perfect demographic parity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MulticlassSolveResult:
    """Per-group shifts equalizing positive rates across all groups.

    ``sum_t`` is the (near-zero) sum of the shifts; ``sum_gap`` its distance
    from zero when the step functions cannot balance exactly.
    """

    t_hats: np.ndarray
    rule: ThresholdRule
    rates: np.ndarray
    max_rate_gap: float
    sum_t: float
    sum_gap: float
    plugin_accuracy: float


def _count_intervals(sorted_scores: np.ndarray, curve: ThresholdCurve, a: int):
    """Achievable positive counts of group a and their cutoff and shift intervals.

    For each achievable count c (positives under cutoff q with strict >),
    returns the half-open cutoff interval [q_lo, q_hi) realizing it and its
    image [t_lo, t_hi) under the curve's shift map; the last interval is the
    single point [1, 1] when a score equals 1.  Counts are listed in
    decreasing order; the arrays are (counts, t_lo, t_hi, q_lo, q_hi).
    """
    u = _distinct(sorted_scores)
    cs, _ = _counts(sorted_scores, u)
    q_lo = u
    q_hi = np.concatenate([u[1:], [1.0]])
    if u[0] > 0.0:
        cs = np.concatenate([[sorted_scores.size], cs])
        q_lo = np.concatenate([[0.0], q_lo])
        q_hi = np.concatenate([u[:1], q_hi])
    return np.asarray(cs, dtype=np.int64), curve.shift(q_lo, a), curve.shift(q_hi, a), q_lo, q_hi


def _kept_gap(gaps: np.ndarray) -> tuple:
    """(index, gap) kept of the multiclass gaps: the first, replaced by a later
    one only if it is lower by more than 1e-15, up to the first zero gap."""
    i_best, best_gap = 0, float(gaps[0])
    for i, gap in enumerate(gaps.tolist()):
        if gap < best_gap - 1e-15:
            i_best, best_gap = i, gap
        if gap == 0.0:
            break
    return i_best, best_gap


def solve_multiclass_dp(gs: GroupedScores) -> MulticlassSolveResult:
    """Equalize positive rates across all groups with zero-sum shifts.

    Group 0 is the reference: its achievable rates are scanned; every other
    group is matched to the closest achievable rate, and the shifts are
    placed inside their feasible intervals so they sum to zero.  When no
    reference rate admits a zero sum the nearest interval is used and the
    residual is reported in ``sum_gap``.  Each cutoff lies in the cutoff
    interval ``[q_lo, q_hi)`` of its group's matched count, so the rule
    realizes exactly the matched counts: it is ``q_lo`` when the shift sits
    at its interval's lower end (or the interval is the point ``[1, 1]``),
    else the image of the shift, kept below ``q_hi``.

    Each other group matches every reference rate ``s`` in one array pass,
    by a ``searchsorted`` of ``s * n_a`` into its decreasing counts, taking
    the count just above (``idx - 1``) unless the one at ``idx`` is closer by
    more than 1e-15.  The interval ends are summed in group order from 0,
    giving each reference count's ``gap``: 0 when the summed interval holds
    zero, else its distance from zero.  The kept count is :func:`_kept_gap`'s,
    a plain loop over the gaps that stops at the first zero.
    """
    k = gs.n_groups
    if k < 2:
        raise SolverError("multi-class solving requires at least two groups")
    curve = ThresholdCurve("dp", gs.p_a, gs.p_ya)
    tables = [_count_intervals(gs.by_group[a], curve, a) for a in range(k)]

    ref_cs, ref_lo, ref_hi = tables[0][:3]
    s = ref_cs / int(gs.n_a[0])
    picks = []
    lo_acc = np.zeros(ref_cs.size)
    hi_acc = np.zeros(ref_cs.size)
    for a in range(1, k):
        cs, t_lo, t_hi = tables[a][:3]
        n_a = int(gs.n_a[a])
        # cs is decreasing; idx is the first index with count <= s * n_a
        idx = np.searchsorted(-cs, -s * n_a)
        above = np.maximum(idx - 1, 0)
        below = np.minimum(idx, cs.size - 1)
        d_above = np.abs(cs[above] / n_a - s)
        d_below = np.abs(cs[below] / n_a - s)
        j = np.where((idx == 0) | ((idx < cs.size) & (d_below < d_above - 1e-15)), below, above)
        picks.append(j)
        lo_acc = lo_acc + t_lo[j]
        hi_acc = hi_acc + t_hi[j]
    lo_sums = ref_lo + lo_acc
    hi_sums = ref_hi + hi_acc
    gaps = np.where(
        (lo_sums <= 0.0) & (0.0 <= hi_sums), 0.0, np.minimum(np.abs(lo_sums), np.abs(hi_sums))
    )
    i_best, best_gap = _kept_gap(gaps)
    js = [i_best] + [int(j[i_best]) for j in picks]
    lo_sum, hi_sum = lo_sums[i_best], hi_sums[i_best]
    if lo_sum <= 0.0 <= hi_sum:
        frac = 0.0 if hi_sum == lo_sum else -lo_sum / (hi_sum - lo_sum)
        frac = min(frac, 1.0 - 1e-12)  # keep every shift inside its half-open interval
    else:
        frac = 0.0 if abs(lo_sum) <= abs(hi_sum) else 1.0 - 1e-12
    t_lo, t_hi, q_lo, q_hi = (np.array([tables[a][i][js[a]] for a in range(k)]) for i in (1, 2, 3, 4))
    t_hats = t_lo + frac * (t_hi - t_lo)
    thresholds = np.where(
        (frac == 0.0) | (q_lo == q_hi),
        q_lo,
        np.clip(curve.cutoffs(t_hats), q_lo, np.nextafter(q_hi, 0.0)),
    )
    rule = ThresholdRule(thresholds)
    rates = np.array([gs.rate(a, None, thresholds[a]) for a in range(k)])
    gap = float(rates.max() - rates.min())
    acc, _ = _plugin_metrics(gs, rule, 0.5)
    return MulticlassSolveResult(
        t_hats=t_hats,
        rule=rule,
        rates=rates,
        max_rate_gap=gap,
        sum_t=float(t_hats.sum()),
        sum_gap=best_gap,
        plugin_accuracy=acc,
    )
