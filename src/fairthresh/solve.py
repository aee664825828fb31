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

With ``randomize=True`` the returned rule additionally randomizes predictions
for scores sitting exactly on a group's cutoff, choosing the tie probability
so the achieved disparity equals the signed tolerance exactly.  The
deterministic rule can instead overshoot by up to one score atom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FairnessConstraint, ThresholdRule
from .metrics import GroupedScores, _counts, _rate, curve_from_stats, dp_cutoffs, dp_shifts


# Slack allowed in every comparison of a disparity against the tolerance.
DELTA_SLACK = 1e-12


class SolverError(ValueError):
    pass


@dataclass(frozen=True)
class SolveResult:
    """A calibrated rule plus how it was found.

    ``achieved_disparity`` is the expected disparity of ``rule`` on the
    solving sample (exactly the signed tolerance when randomization is on and
    a crossing exists).  ``plugin_accuracy`` and ``plugin_cost_risk`` treat
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
        q = float(rule.thresholds[a])
        tau = float(rule.tie_prob[a])
        pi = (s > q).astype(np.float64)
        if tau:
            pi = np.where(s == q, tau, pi)
        acc += float(np.sum(pi * s + (1.0 - pi) * (1.0 - s)))
        risk += float(np.sum(cost * (1.0 - s) * pi + (1.0 - cost) * s * (1.0 - pi)))
    n = gs.stats.n
    return acc / n, risk / n


def _solve_binary(
    gs: GroupedScores,
    curve,
    constraint: FairnessConstraint,
    randomize: bool,
) -> SolveResult:
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
        # Walk outward from t = 0 on the side the initial disparity dictates
        # and stop at the first parameter where the disparity reaches the
        # signed tolerance.  In u = sign * t and sign * disparity both sides
        # are one search: negation is exact and -delta - slack equals
        # -(delta + slack), so a plateau lying exactly on the tolerance is
        # entered at its near end from either side.  The first crossing is
        # also well-posed for the oa statistic (TPR_1 - FPR_1) -
        # (TPR_0 - FPR_0), whose empirical steps are not monotone.
        sign = 1.0 if d0 > 0 else -1.0
        branch = "upper" if d0 > 0 else "lower"
        target = sign * delta
        end = hi if d0 > 0 else lo
        cands = curve.breakpoints(gs)
        n_candidates = int(cands.size)
        us = sign * cands
        us = np.unique(np.concatenate([[0.0], us[(us >= 0.0) & (us <= sign * end)], [sign * end]]))
        ok_mid = sign * curve.disparity(gs, sign * (0.5 * (us[:-1] + us[1:]))) <= bound
        ok_at = sign * curve.disparity(gs, sign * us) <= bound
        hits = np.concatenate([us[:-1][ok_mid], us[ok_at]])
        saturated = not hits.size
        t_hat = end if saturated else sign * hits.min()

    q0, q1 = curve.thresholds(t_hat)
    q0 = _snap_to_scores(q0, gs.by_group[0])
    q1 = _snap_to_scores(q1, gs.by_group[1])
    thresholds = (q0, q1)
    achieved = curve.disparity_at(gs, thresholds)

    tie = [0.0, 0.0]
    if randomize and branch != "within-tolerance":
        needed = target - achieved
        if needed != 0.0:
            for a in (0, 1):  # group 0's tie first; group 1's if group 0's cannot carry it
                eff = curve.tie_effect(gs, thresholds, a)
                if eff != 0.0:
                    tau = needed / eff
                    if -1e-9 <= tau <= 1.0 + 1e-9:
                        tie[a] = min(max(tau, 0.0), 1.0)
                        break

    rule = ThresholdRule(np.array(thresholds), np.array(tie))
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
        randomized=bool(tie[0] or tie[1]),
        plugin_accuracy=acc,
        plugin_cost_risk=risk,
    )


def solve(gs: GroupedScores, constraint: FairnessConstraint, randomize: bool = False) -> SolveResult:
    """Calibrate the threshold family of the constraint's measure (and cost).

    The dp family's cutoffs are c +- t / p_a at cost c, and 1/2 +- t / (2 p_a)
    at c = 1/2.  The oa disparity (TPR_1 - FPR_1) - (TPR_0 - FPR_0) has a
    sample estimate that is not monotone in t: it ticks upward when a cutoff
    passes a label-0 score, so it can cross the signed tolerance more than
    once.  The scan keeps the first crossing; the side of t = 0 opposite the
    initial disparity is not searched.
    """
    curve = curve_from_stats(constraint.measure, gs.stats, constraint.cost)
    return _solve_binary(gs, curve, constraint, randomize)


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


def _count_intervals(sorted_scores: np.ndarray, p_a: float):
    """Achievable positive counts and their threshold-shift intervals.

    For each achievable count c (positives under cutoff q with strict >),
    returns the half-open shift interval [t_lo, t_hi) realizing it, where
    q = 1/2 + t / (2 p_a).  Counts are listed in decreasing order.
    """
    u = np.unique(sorted_scores)
    n = sorted_scores.size
    counts, _ = _counts(sorted_scores, u)
    q_lo = list(u)
    q_hi = list(u[1:]) + [1.0]
    cs = list(counts)
    if u[0] > 0.0:
        cs.insert(0, n)
        q_lo.insert(0, 0.0)
        q_hi.insert(0, float(u[0]))
    t_lo = dp_shifts(np.asarray(q_lo), p_a)
    t_hi = dp_shifts(np.asarray(q_hi), p_a)
    return np.asarray(cs, dtype=np.int64), t_lo, t_hi


def solve_multiclass_dp(gs: GroupedScores) -> MulticlassSolveResult:
    """Equalize positive rates across all groups with zero-sum shifts.

    Group 0 is the reference: its achievable rates are scanned; every other
    group is matched to the closest achievable rate, and the shifts are
    placed inside their feasible intervals so they sum to zero.  When no
    reference rate admits a zero sum the nearest interval is used and the
    residual is reported in ``sum_gap``.
    """
    k = gs.n_groups
    if k < 2:
        raise SolverError("multi-class solving requires at least two groups")
    stats = gs.stats
    tables = [
        _count_intervals(gs.by_group[a], float(stats.p_hat_a[a])) for a in range(k)
    ]

    def match(a: int, s: float):
        cs, t_lo, t_hi = tables[a]
        n_a = int(stats.n_a[a])
        # cs is decreasing; pick the achievable count with rate closest to s
        idx = np.searchsorted(-cs, -s * n_a)  # first index with count <= s*n_a
        best_j, best_d = None, math.inf
        for j in (idx - 1, idx):
            if 0 <= j < cs.size:
                d = abs(cs[j] / n_a - s)
                if d < best_d - 1e-15:
                    best_j, best_d = j, d
        return best_j

    ref_cs, ref_lo, ref_hi = tables[0]
    n_ref = int(stats.n_a[0])
    best = None  # (sum_gap, c_index_per_group, S_lo, S_hi)
    for i in range(ref_cs.size):
        s = ref_cs[i] / n_ref
        js = [i] + [match(a, s) for a in range(1, k)]
        lo_sum = ref_lo[i] + sum(tables[a][1][js[a]] for a in range(1, k))
        hi_sum = ref_hi[i] + sum(tables[a][2][js[a]] for a in range(1, k))
        if lo_sum <= 0.0 <= hi_sum:
            gap = 0.0
        else:
            gap = min(abs(lo_sum), abs(hi_sum))
        if best is None or gap < best[0] - 1e-15:
            best = (gap, js, lo_sum, hi_sum)
        if gap == 0.0:
            break

    sum_gap, js, lo_sum, hi_sum = best
    if lo_sum <= 0.0 <= hi_sum:
        frac = 0.0 if hi_sum == lo_sum else -lo_sum / (hi_sum - lo_sum)
        frac = min(frac, 1.0 - 1e-12)  # keep every shift inside its half-open interval
    else:
        frac = 0.0 if abs(lo_sum) <= abs(hi_sum) else 1.0 - 1e-12
    t_hats = np.array(
        [
            tables[a][1][js[a]] + frac * (tables[a][2][js[a]] - tables[a][1][js[a]])
            for a in range(k)
        ]
    )
    thresholds = dp_cutoffs(t_hats, stats.p_hat_a)
    for a in range(k):
        thresholds[a] = _snap_to_scores(float(thresholds[a]), gs.by_group[a])
    rule = ThresholdRule(thresholds)
    rates = np.array([_rate(gs.by_group[a], thresholds[a]) for a in range(k)])
    gap = float(rates.max() - rates.min())
    acc, _ = _plugin_metrics(gs, rule, 0.5)
    return MulticlassSolveResult(
        t_hats=t_hats,
        rule=rule,
        rates=rates,
        max_rate_gap=gap,
        sum_t=float(t_hats.sum()),
        sum_gap=float(sum_gap),
        plugin_accuracy=acc,
    )
