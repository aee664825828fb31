import numpy as np
import pytest

import fairthresh as ft
from fairthresh.metrics import (
    GroupedScores,
    ThresholdRangeError,
    curve_from_stats,
    disparity_bracket,
    positive_rate,
)

from _brute import swap_groups


def make_gs(scores, group, label):
    return GroupedScores.from_arrays(
        np.asarray(scores, float), np.asarray(group), np.asarray(label)
    )


HAND = make_gs(
    [0.9, 0.6, 0.4, 0.8, 0.3],
    [1, 1, 1, 0, 0],
    [1, 0, 1, 1, 0],
)


# ---------------------------------------------------------------- positive_rate


def test_positive_rate_enumeration():
    assert positive_rate(np.array([0.2, 0.5, 0.9]), 0.5) == pytest.approx(1 / 3)


def test_positive_rate_all_pass():
    assert positive_rate(np.array([0.1, 0.2]), 0.0) == 1.0


def test_positive_rate_pure_tie():
    assert positive_rate(np.array([0.5, 0.5]), 0.5, tau=0.5) == 0.5


def test_positive_rate_empty_errors():
    with pytest.raises(ValueError):
        positive_rate(np.array([]), 0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_grouped_scores_reject_non_finite_scores(bad):
    with pytest.raises(ValueError, match="finite"):
        make_gs([0.2, bad, 0.6, 0.7], [0, 0, 1, 1], [0, 1, 0, 1])


# ------------------------------------------------------------------- ddp_hat


def test_ddp_hat_hand_value():
    # group 1 above 1/2: {0.9, 0.6} of 3; group 0: {0.8} of 2
    assert ft.ddp_hat(HAND, 0.0) == pytest.approx(2 / 3 - 1 / 2)


def test_ddp_hat_symmetry_zero():
    gs = make_gs([0.2, 0.7, 0.2, 0.7], [0, 0, 1, 1], [0, 1, 0, 1])
    assert ft.ddp_hat(gs, 0.0) == 0.0


def test_ddp_hat_saturation_clamps():
    # far enough out both cutoffs clamp: rate_1 = 0, rate_0 = all above zero
    val = ft.ddp_hat(HAND, 10.0)
    assert val == pytest.approx(0.0 - 1.0)


# ------------------------------------------------- stratified disparity curves


def test_t_zero_reduces_to_half_cutoffs():
    for fn, y in ((ft.deo_hat, 1), (ft.dpe_hat, 0)):
        got = fn(HAND, 0.0)
        s1 = HAND.stratum(1, y)
        s0 = HAND.stratum(0, y)
        expect = positive_rate(s1, 0.5) - positive_rate(s0, 0.5)
        assert got == pytest.approx(expect)
    doa0 = ft.doa_hat(HAND, 0.0)
    expect = (
        positive_rate(HAND.stratum(1, 1), 0.5)
        - positive_rate(HAND.stratum(1, 0), 0.5)
        - positive_rate(HAND.stratum(0, 1), 0.5)
        + positive_rate(HAND.stratum(0, 0), 0.5)
    )
    assert doa0 == pytest.approx(expect)


def test_deo_symmetric_groups_zero():
    gs = make_gs(
        [0.3, 0.8, 0.3, 0.8, 0.1, 0.1],
        [0, 0, 1, 1, 0, 1],
        [1, 1, 1, 1, 0, 0],
    )
    assert ft.deo_hat(gs, 0.0) == 0.0


def _enumerate_disparity(gs, measure, t):
    """Direct re-derivation from raw indicator sums (independent oracle)."""
    curve = curve_from_stats(measure, gs.stats)
    q0, q1 = curve.thresholds(t)
    def rate(a, y, q):
        s = gs.stratum(a, y)
        return float(np.sum(s > q)) / s.size
    if measure == "eo":
        return rate(1, 1, q1) - rate(0, 1, q0)
    if measure == "pe":
        return rate(1, 0, q1) - rate(0, 0, q0)
    return rate(1, 1, q1) - rate(1, 0, q1) - rate(0, 1, q0) + rate(0, 0, q0)


def test_six_point_enumeration():
    gs = make_gs(
        [0.15, 0.65, 0.85, 0.35, 0.55, 0.95],
        [0, 0, 0, 1, 1, 1],
        [0, 1, 1, 0, 1, 1],
    )
    for measure, fn in (("eo", ft.deo_hat), ("pe", ft.dpe_hat), ("oa", ft.doa_hat)):
        lo, hi = disparity_bracket(gs, measure)
        for t in np.linspace(lo, hi, 23):
            assert fn(gs, float(t)) == pytest.approx(
                _enumerate_disparity(gs, measure, float(t))
            )


def test_bracket_errors():
    lo, hi = disparity_bracket(HAND, "eo")
    with pytest.raises(ThresholdRangeError, match="threshold out of range"):
        ft.deo_hat(HAND, hi * 1.5)
    with pytest.raises(ThresholdRangeError):
        ft.dpe_hat(HAND, disparity_bracket(HAND, "pe")[0] * 1.5)


@pytest.mark.parametrize("measure", ["dp", "eo", "pe", "oa"])
def test_disparity_at_array_cutoffs_match_scalar_calls(measure):
    rng = np.random.default_rng(4)
    gs = _random_gs(rng)
    curve = curve_from_stats(measure, gs.stats)
    q0s, q1s = rng.random(25), rng.random(25)
    q0s[:5], q1s[:5] = gs.by_group[0][:5], gs.by_group[1][:5]  # cutoffs on scores
    got = curve.disparity_at(gs, (q0s, q1s))
    want = [curve.disparity_at(gs, (q0, q1)) for q0, q1 in zip(q0s, q1s)]
    assert got.tolist() == want


def test_dp_scale_follows_cost():
    half = curve_from_stats("dp", HAND.stats, cost=0.5)
    cost = curve_from_stats("dp", HAND.stats, cost=0.3)
    assert (half.scale, cost.scale) == (2.0, 1.0)
    p0, p1 = half.p_a
    t = 0.1
    # 1/2 +- t/(2 p_a) at c = 1/2, c +- t/p_a otherwise; a factor of 2 keeps every bit
    assert half.thresholds(t) == (0.5 - t / (2.0 * p0), 0.5 + t / (2.0 * p1))
    assert cost.thresholds(t) == (0.3 - t / p0, 0.3 + t / p1)
    assert half.inverse(half.thresholds(t)[1], 1) == pytest.approx(t)
    assert half.bracket() == (max(-p1, -p0), min(p1, p0))


def test_empty_stratum_errors():
    gs = make_gs([0.2, 0.8, 0.5, 0.6], [0, 0, 1, 1], [0, 1, 1, 1])
    with pytest.raises(ValueError, match="empty stratum"):
        ft.dpe_hat(gs, 0.0)  # group 1 has no label-0 rows


# ------------------------------------------------------------------ monotonicity


def _random_gs(rng, n_lo=12, n_hi=40):
    n0 = int(rng.integers(n_lo, n_hi))
    n1 = int(rng.integers(n_lo, n_hi))
    scores = rng.random(n0 + n1)
    group = np.array([0] * n0 + [1] * n1)
    label = rng.integers(0, 2, n0 + n1)
    label[:2] = [0, 1]
    label[n0 : n0 + 2] = [0, 1]
    return make_gs(scores, group, label)


@pytest.mark.parametrize("measure", ["dp", "eo", "pe"])
def test_disparity_monotone_nonincreasing(measure):
    rng = np.random.default_rng(5)
    for _ in range(40):
        gs = _random_gs(rng)
        curve = curve_from_stats(measure, gs.stats)
        lo, hi = curve.bracket()
        grid = np.linspace(lo, hi, 301)
        vals = [curve.disparity(gs, float(t)) for t in grid]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_oa_disparity_not_monotone_in_general():
    """The accuracy-gap step function can tick upward when a cutoff passes a
    label-0 score, so exact monotonicity fails; this pins the counterexample."""
    gs = make_gs(
        [0.55, 0.7, 0.2, 0.1, 0.3, 0.6, 0.4],
        [1, 1, 1, 0, 0, 0, 0],
        [1, 0, 0, 0, 1, 1, 0],
    )
    curve = curve_from_stats("oa", gs.stats)
    lo, hi = curve.bracket()
    grid = np.linspace(lo, hi, 1001)
    vals = np.array([curve.disparity(gs, float(t)) for t in grid])
    assert np.any(np.diff(vals) > 1e-12)


def test_ddp_antisymmetric_under_group_swap():
    rng = np.random.default_rng(11)
    for _ in range(20):
        gs = _random_gs(rng)
        swapped = swap_groups(gs)
        for t in np.linspace(-0.2, 0.2, 9):
            assert ft.ddp_hat(gs, float(t)) == pytest.approx(
                -ft.ddp_hat(swapped, float(-t))
            )


# -------------------------------------------------------------------- evaluate


def test_evaluate_perfect_scores():
    scores = np.array([0.9, 0.8, 0.1, 0.95, 0.2, 0.15])
    label = (scores > 0.5).astype(int)
    group = np.array([0, 0, 0, 1, 1, 1])
    gs = make_gs(scores, group, label)
    rep = ft.evaluate(ft.ThresholdRule(np.array([0.5, 0.5])), gs)
    assert rep.accuracy == 1.0
    assert rep.ddp == pytest.approx(1 / 3 - 2 / 3)


def test_evaluate_constant_classifier():
    gs = make_gs([0.9, 0.1, 0.6, 0.2], [0, 0, 1, 1], [1, 0, 1, 0])
    rule = ft.ThresholdRule(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    rep = ft.evaluate(rule, gs)
    assert rep.ddp == 0.0
    assert rep.deo == 0.0
    assert rep.dpe == 0.0
    assert rep.accuracy == pytest.approx(0.5)  # base positive rate


def test_evaluate_cost_identity_at_half():
    rng = np.random.default_rng(3)
    gs = _random_gs(rng)
    rule = ft.ThresholdRule(np.array([0.4, 0.6]))
    rep = ft.evaluate(rule, gs, cost=0.5)
    assert rep.cost_risk == pytest.approx((1.0 - rep.accuracy) / 2)


def test_evaluate_ddp_matches_positive_rate():
    rng = np.random.default_rng(8)
    for _ in range(10):
        gs = _random_gs(rng)
        rule = ft.ThresholdRule(rng.random(2), rng.random(2))
        rep = ft.evaluate(rule, gs)
        r1 = positive_rate(gs.by_group[1], rule.thresholds[1], rule.tie_prob[1])
        r0 = positive_rate(gs.by_group[0], rule.thresholds[0], rule.tie_prob[0])
        assert rep.ddp == pytest.approx(r1 - r0)
        assert rep.positive_rate_a[1] == pytest.approx(r1)


def test_evaluate_multiclass_summed_gap():
    scores = np.array([0.9, 0.1, 0.8, 0.2, 0.7, 0.3])
    group = np.array([0, 0, 1, 1, 2, 2])
    label = np.array([1, 0, 1, 0, 1, 0])
    gs = make_gs(scores, group, label)
    rep = ft.evaluate(ft.ThresholdRule(np.array([0.5, 0.5, 0.5])), gs)
    assert rep.ddp == pytest.approx(0.0)  # all groups at rate 1/2
    assert np.isnan(rep.deo)
