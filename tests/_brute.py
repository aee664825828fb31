"""Exhaustive oracles over per-group breakpoint threshold rules.

Used by the solver tests.  ``brute_force_best`` enumerates every threshold
pair drawn from the observed score values (plus the all-positive cutoff 0),
optionally with a single boundary-atom randomization pinning the disparity to
+-delta, and maximizes the plug-in objective subject to |disparity| <= delta.
``brute_force_family_best`` runs the same search over only the pairs that
the measure's one-parameter family produces on one side of t = 0.  Both are
independent implementation paths from the solvers: plain loops over rule
space; the family search restates the closed-form cutoff maps instead of
using the threshold-curve machinery.  ``swap_groups`` relabels group 0 as
group 1 and back, for symmetry checks.  ``multiclass_dp_loop`` restates the
multi-class dp solver as a plain loop over the reference group's counts, the
referee of the array scan in ``solve_multiclass_dp``; ``multiclass_matched_counts``
gives the per-group counts that loop matches, which the solver's rule must
realize.
"""

import math

import numpy as np

from fairthresh.core import ThresholdRule
from fairthresh.metrics import GroupedScores
from fairthresh.solve import MulticlassSolveResult

TOL = 1e-12  # feasibility slack on |disparity| <= delta and on tau in [0, 1]


def _rate(scores, q, tau=0.0):
    if scores.size == 0:
        return 0.0
    above = float(np.sum(scores > q))
    ties = float(np.sum(scores == q))
    return (above + tau * ties) / scores.size


def _disparity(measure, gs, q0, q1, tau0=0.0, tau1=0.0):
    if measure == "oa":
        return (
            _rate(gs.stratum(1, 1), q1, tau1)
            - _rate(gs.stratum(1, 0), q1, tau1)
            - _rate(gs.stratum(0, 1), q0, tau0)
            + _rate(gs.stratum(0, 0), q0, tau0)
        )
    y = {"dp": None, "eo": 1, "pe": 0}[measure]
    return _rate(gs.stratum(1, y), q1, tau1) - _rate(gs.stratum(0, y), q0, tau0)


def _tie_effect(measure, gs, a, q):
    sgn = 1.0 if a == 1 else -1.0
    if measure == "oa":
        s1, s0 = gs.stratum(a, 1), gs.stratum(a, 0)
        return sgn * (
            float(np.sum(s1 == q)) / s1.size - float(np.sum(s0 == q)) / s0.size
        )
    y = {"dp": None, "eo": 1, "pe": 0}[measure]
    s = gs.stratum(a, y)
    return sgn * float(np.sum(s == q)) / s.size


def _objective(gs, q0, q1, tau0, tau1, cost):
    """Plug-in objective: accuracy for cost=0.5 shape, else cost risk (negated)."""
    total = 0.0
    n = gs.n
    for a, q, tau in ((0, q0, tau0), (1, q1, tau1)):
        s = gs.by_group[a]
        pi = (s > q).astype(float)
        pi = np.where(s == q, tau, pi)
        if cost is None:
            total += float(np.sum(pi * s + (1.0 - pi) * (1.0 - s)))
        else:
            total -= float(
                np.sum(cost * (1.0 - s) * pi + (1.0 - cost) * s * (1.0 - pi))
            )
    return total / n


def _options(measure, gs, q0, q1, delta, randomize):
    """Feasible (tau0, tau1) choices at one threshold pair, within TOL."""
    d = _disparity(measure, gs, q0, q1)
    options = []
    if abs(d) <= delta + TOL:
        options.append((0.0, 0.0))
    if randomize:
        for a, q in ((0, q0), (1, q1)):
            eff = _tie_effect(measure, gs, a, q)
            if eff == 0.0:
                continue
            for target in (delta, -delta):
                tau = (target - d) / eff
                if -TOL <= tau <= 1.0 + TOL:
                    tau = min(max(tau, 0.0), 1.0)
                    options.append((tau, 0.0) if a == 0 else (0.0, tau))
    return options


def _best_over(gs, measure, delta, cost, randomize, pairs):
    best = None
    best_desc = None
    for q0, q1 in pairs:
        for tau0, tau1 in _options(measure, gs, q0, q1, delta, randomize):
            val = _objective(gs, q0, q1, tau0, tau1, cost)
            if best is None or val > best + 1e-15:
                best = val
                best_desc = (float(q0), float(q1), tau0, tau1)
    return best, best_desc


def brute_force_best(gs, measure, delta, cost=None, randomize=True):
    """Best feasible plug-in objective over all breakpoint threshold rules.

    Returns (objective, rule_description).  With ``randomize`` the search adds,
    for each pair and each group, the tie probability that pins the disparity
    to +delta or -delta exactly (the vertex rules of the constrained program).
    """
    cands = [np.concatenate([[0.0], np.unique(gs.by_group[a])]) for a in (0, 1)]
    pairs = [(q0, q1) for q0 in cands[0] for q1 in cands[1]]
    return _best_over(gs, measure, delta, cost, randomize, pairs)


# ---------------------------------------------------------------------------
# One-parameter families (eo, pe, oa), restated in closed form.  sgn is +1
# for group 1 and -1 for group 0; every cutoff is 1/2 at t = 0.
# ---------------------------------------------------------------------------


def _cutoff(measure, p, py, sgn, t):
    if measure == "eo":
        m = p * py
        q = m / (2.0 * m - sgn * t)
    elif measure == "pe":
        v = p * (1.0 - py)
        q = (v + sgn * t) / (2.0 * v + sgn * t)
    elif abs(1.0 - 2.0 * py) < 1e-12:
        q = 0.5
    else:
        u = py * (1.0 - py)
        q = (p * u - sgn * py * t) / (2.0 * p * u - sgn * t)
    return min(max(q, 0.0), 1.0)


def _preimage(measure, p, py, sgn, q):
    """t at which the group's cutoff equals the score q (nan if none)."""
    if measure == "eo":
        return sgn * p * py * (2.0 * q - 1.0) / q if q > 0.0 else np.nan
    if measure == "pe":
        return sgn * p * (1.0 - py) * (2.0 * q - 1.0) / (1.0 - q) if q < 1.0 else np.nan
    if abs(q - py) < 1e-12 or abs(1.0 - 2.0 * py) < 1e-12:
        return np.nan
    return sgn * p * py * (1.0 - py) * (2.0 * q - 1.0) / (q - py)


def _half_bracket_end(measure, p_a, p_ya, upper):
    """End of the family's t range on the given side of 0."""
    (p0, p1), (py0, py1) = p_a, p_ya
    if measure == "eo":
        return p1 * py1 if upper else -p0 * py0
    if measure == "pe":
        return p0 * (1.0 - py0) if upper else -p1 * (1.0 - py1)
    return p1 * min(py1, 1.0 - py1) if upper else -p0 * min(py0, 1.0 - py0)


def _snap(q, scores):
    """The observed score nearest to q (the first on a tie) if within 1e-9, else q itself."""
    dist = np.abs(scores - q)
    if not dist.size or dist.min() > 1e-9:
        return q
    return float(scores[np.argmin(dist)])


def brute_force_family_best(gs, measure, delta, randomize=True):
    """Best feasible plug-in accuracy over the measure's half-family.

    The half-family is every threshold pair that the one-parameter family of
    ``measure`` ("eo", "pe" or "oa") produces for t between 0 and the end of
    its range on the side that the sign of the disparity at t = 0 dictates.
    Each pair is taken at every preimage of an observed score, at the two
    ends, and between consecutive ones; cutoffs within 1e-9 of a score are
    put on it.  Randomization and feasibility are as in ``brute_force_best``.
    Returns (accuracy, rule_description), or (None, None) when the
    half-family holds no feasible rule.
    """
    p = tuple(float(v) for v in gs.p_a)
    py = tuple(float(v) for v in gs.p_ya)
    upper = _disparity(measure, gs, 0.5, 0.5) > 0.0
    end = _half_bracket_end(measure, p, py, upper)
    ts = [0.0, end]
    for a, sgn in ((0, -1.0), (1, 1.0)):
        for s in np.unique(gs.by_group[a]):
            t = _preimage(measure, p[a], py[a], sgn, float(s))
            if min(0.0, end) <= t <= max(0.0, end):
                ts.append(t)
    ts = np.unique(ts)
    ts = np.concatenate([ts, 0.5 * (ts[:-1] + ts[1:])])
    pairs = [
        (
            _snap(_cutoff(measure, p[0], py[0], -1.0, t), gs.by_group[0]),
            _snap(_cutoff(measure, p[1], py[1], 1.0, t), gs.by_group[1]),
        )
        for t in ts
    ]
    return _best_over(gs, measure, delta, None, randomize, pairs)


def swap_groups(gs):
    """The same sample with the two group labels exchanged."""
    return GroupedScores(
        by_group=(gs.by_group[1], gs.by_group[0]),
        by_group_label=(gs.by_group_label[1], gs.by_group_label[0]),
    )


def _count_intervals_loop(sorted_scores, p_a):
    u = np.unique(sorted_scores)
    n = sorted_scores.size
    cs = [int(np.sum(sorted_scores > q)) for q in u]
    q_lo = list(u)
    q_hi = list(u[1:]) + [1.0]
    if u[0] > 0.0:
        cs.insert(0, n)
        q_lo.insert(0, 0.0)
        q_hi.insert(0, float(u[0]))
    # the dp shift map at cost 1/2, written out: t = 2 p_a (q - 1/2)
    t_lo = 2.0 * p_a * (np.asarray(q_lo) - 0.5)
    t_hi = 2.0 * p_a * (np.asarray(q_hi) - 0.5)
    return np.asarray(cs, dtype=np.int64), t_lo, t_hi, q_lo, q_hi


def _multiclass_loop_pick(gs):
    """The count tables and the kept (gap, matched indices, lo_sum, hi_sum).

    Each reference count is matched group by group, its interval ends are
    summed with ``sum``, and a gap replaces the kept one only if it is below
    it by more than 1e-15; the loop stops at the first zero gap.
    """
    k = gs.n_groups
    tables = [_count_intervals_loop(gs.by_group[a], float(gs.p_a[a])) for a in range(k)]

    def match(a, s):
        cs, t_lo, t_hi = tables[a][:3]
        n_a = int(gs.n_a[a])
        idx = np.searchsorted(-cs, -s * n_a)
        best_j, best_d = None, math.inf
        for j in (idx - 1, idx):
            if 0 <= j < cs.size:
                d = abs(cs[j] / n_a - s)
                if d < best_d - 1e-15:
                    best_j, best_d = j, d
        return best_j

    ref_cs, ref_lo, ref_hi = tables[0][:3]
    n_ref = int(gs.n_a[0])
    best = None
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
    return tables, best


def multiclass_matched_counts(gs):
    """Each group's positive count at the reference rate the loop keeps."""
    tables, (_, js, _, _) = _multiclass_loop_pick(gs)
    return [int(tables[a][0][j]) for a, j in enumerate(js)]


def multiclass_dp_loop(gs):
    """``solve_multiclass_dp`` as one Python loop over the reference counts.

    The shift and cutoff placement after the loop is the solver's, one group
    at a time.
    """
    k = gs.n_groups
    tables, (sum_gap, js, lo_sum, hi_sum) = _multiclass_loop_pick(gs)
    if lo_sum <= 0.0 <= hi_sum:
        frac = 0.0 if hi_sum == lo_sum else -lo_sum / (hi_sum - lo_sum)
        frac = min(frac, 1.0 - 1e-12)
    else:
        frac = 0.0 if abs(lo_sum) <= abs(hi_sum) else 1.0 - 1e-12
    t_hats = np.array(
        [
            tables[a][1][js[a]] + frac * (tables[a][2][js[a]] - tables[a][1][js[a]])
            for a in range(k)
        ]
    )
    thresholds = np.clip(0.5 + t_hats / (2.0 * gs.p_a), 0.0, 1.0)  # the cutoff map, clipped
    for a in range(k):
        q_lo, q_hi = tables[a][3][js[a]], tables[a][4][js[a]]
        if frac == 0.0 or q_lo == q_hi:
            thresholds[a] = q_lo  # the shift sits at t_lo, or the interval is [1, 1]
        else:  # inside the half-open [q_lo, q_hi)
            thresholds[a] = min(max(thresholds[a], q_lo), np.nextafter(q_hi, 0.0))
    rule = ThresholdRule(thresholds)
    rates = np.array([_rate(gs.by_group[a], thresholds[a]) for a in range(k)])
    # plug-in accuracy: a row scoring s counts s when predicted positive, else 1 - s
    acc = sum(float(np.sum(np.where(s > q, s, 1.0 - s))) for s, q in zip(gs.by_group, thresholds)) / gs.n
    return MulticlassSolveResult(
        t_hats=t_hats,
        rule=rule,
        rates=rates,
        max_rate_gap=float(rates.max() - rates.min()),
        sum_t=float(t_hats.sum()),
        sum_gap=float(sum_gap),
        plugin_accuracy=acc,
    )
