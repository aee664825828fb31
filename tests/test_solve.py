import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairthresh as ft
from _brute import (
    _snap,
    brute_force_best,
    brute_force_family_best,
    multiclass_dp_loop,
    multiclass_matched_counts,
    swap_groups,
)
from _posterior import eta
from fairthresh.solve import DELTA_SLACK, _kept_gap, _snap_to_scores


def make_gs(scores, group, label):
    return ft.GroupedScores.from_arrays(
        np.asarray(scores, float), np.asarray(group), np.asarray(label)
    )


MEASURES = ("dp", "eo", "pe", "oa")


def solve(gs, measure, delta, randomize=False, cost=0.5):
    return ft.solve(gs, ft.FairnessConstraint(measure, delta, cost), randomize)


HAND = make_gs(
    [0.9, 0.6, 0.4, 0.8, 0.3],
    [1, 1, 1, 0, 0],
    [1, 0, 1, 1, 0],
)


def _random_gs(rng, n_lo=8, n_hi=26, distinct=False):
    n0 = int(rng.integers(n_lo, n_hi))
    n1 = int(rng.integers(n_lo, n_hi))
    n = n0 + n1
    if distinct:
        scores = rng.choice(np.linspace(0.005, 0.995, 4000), size=n, replace=False)
    else:
        scores = rng.random(n)
    group = np.array([0] * n0 + [1] * n1)
    label = rng.integers(0, 2, n)
    label[:2] = [0, 1]
    label[n0 : n0 + 2] = [0, 1]
    return make_gs(scores, group, label)


# ------------------------------------------------------------------ snapping


@pytest.mark.parametrize("lo, hi", [(0.5, 0.5 + 4e-10), (1 - 3e-10, 1 - 1e-10)])
def test_snap_takes_the_nearest_score_within_atol(lo, hi):
    # both scores lie within atol = 1e-9 of a cutoff one ulp below hi
    scores = np.array([lo, hi])
    q = float(np.nextafter(hi, 0.0))
    assert _snap_to_scores(q, scores) == hi
    assert _snap_to_scores(float(np.nextafter(lo, 1.0)), scores) == lo
    assert _snap(q, scores) == hi


def test_snap_tie_outside_and_empty():
    scores = np.array([0.25, 0.25 + 2.0**-32, 0.75])
    assert _snap_to_scores(0.25 + 2.0**-33, scores) == 0.25  # equidistant: the lower
    assert _snap(0.25 + 2.0**-33, scores) == 0.25
    assert _snap_to_scores(0.5, scores) == 0.5  # nothing within atol
    assert _snap_to_scores(0.75 + 1e-10, scores) == 0.75  # past the last score
    assert _snap_to_scores(0.5, np.array([])) == 0.5


# ------------------------------------------------------------------------- dp


def test_solve_dp_within_tolerance():
    res = solve(HAND, "dp", 0.2)
    assert res.t_hat == 0.0
    assert res.branch == "within-tolerance"
    assert res.rule.thresholds.tolist() == [0.5, 0.5]


def test_solve_dp_exact_candidate():
    # disparity starts at 1/6; the crossing is the group-1 score 0.6, whose
    # breakpoint sits at t = 2 * p1 * (0.6 - 1/2) = 0.12
    res = solve(HAND, "dp", 0.0)
    assert res.t_hat == pytest.approx(0.12, abs=1e-14)
    assert res.rule.thresholds[1] == pytest.approx(0.6, abs=1e-12)
    # deterministic rule overshoots within one atom of group 1
    assert abs(res.achieved_disparity) <= 0.0 + 1 / 3 + 1e-12


def test_solve_dp_vacuous_delta():
    res = solve(HAND, "dp", 0.9)
    assert res.t_hat == 0.0


def test_solve_dp_randomized_exact():
    res = solve(HAND, "dp", 0.0, randomize=True)
    assert res.achieved_disparity == pytest.approx(0.0, abs=1e-12)
    assert res.rule.tie_prob[1] == pytest.approx(0.5)
    assert res.plugin_accuracy == pytest.approx(0.7)


def test_both_groups_ties_carry_the_step_to_the_tolerance():
    # both groups hold an atom on their cutoff 0.5 at t = 0, and neither tie alone reaches delta 0
    gs = make_gs([0.6, 0.5, 0.75, 0.4, 0.5, 0.6, 0.75, 0.6, 0.8],
                 [0, 0, 0, 0, 1, 1, 1, 1, 1],
                 [0, 1, 0, 0, 0, 1, 0, 1, 1])
    res = solve(gs, "oa", 0.0, randomize=True)
    assert (res.branch, res.saturated, res.randomized) == ("upper", False, True)
    assert res.rule.thresholds.tolist() == [0.5, 0.5]
    assert res.rule.tie_prob.tolist() == pytest.approx([1.0, 1 / 3])
    assert abs(res.achieved_disparity) <= DELTA_SLACK


def test_randomized_solves_on_tied_scores_hit_the_signed_tolerance():
    # scores drawn with replacement from a few values put atoms on both
    # groups' cutoffs at once; a sample that lacks a (group, label) stratum is
    # skipped, and so is a saturated solve, which is flagged as missing the tolerance
    values = (0.1, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6, 0.7, 0.75, 0.8, 0.9)
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(500):
        n = int(rng.integers(8, 25))
        scores = rng.choice(values, size=n)
        group, label = rng.integers(0, 2, n), rng.integers(0, 2, n)
        if len(set(zip(group.tolist(), label.tolist()))) < 4:
            continue
        gs = make_gs(scores, group, label)
        for measure in MEASURES:
            for delta in (0.0, 0.05, 0.1):
                res = solve(gs, measure, delta, randomize=True)
                if res.branch == "within-tolerance" or res.saturated:
                    continue
                target = delta if res.branch == "upper" else -delta
                assert abs(res.achieved_disparity - target) <= DELTA_SLACK, (measure, delta, scores, group, label)
                checked += 1
    assert checked >= 3900


def test_solve_dp_validation():
    with pytest.raises(ValueError, match="delta"):
        solve(HAND, "dp", -0.1)
    gs3 = make_gs([0.1, 0.9, 0.5], [0, 1, 2], [0, 1, 1])
    with pytest.raises(ValueError, match="two groups"):
        solve(gs3, "dp", 0.1)


# ------------------------------------------------------------- other measures


def test_symmetric_groups_solve_to_zero_shift():
    scores = [0.1, 0.4, 0.6, 0.9] * 2
    group = [0] * 4 + [1] * 4
    label = [0, 0, 1, 1] * 2
    gs = make_gs(scores, group, label)
    for measure in ("eo", "pe", "oa"):
        res = solve(gs, measure, 0.0)
        assert res.t_hat == 0.0
        assert res.achieved_disparity == 0.0


def test_solve_eo_eight_point_matches_grid():
    gs = make_gs(
        [0.95, 0.7, 0.45, 0.2, 0.85, 0.65, 0.35, 0.1],
        [1, 1, 1, 1, 0, 0, 0, 0],
        [1, 1, 0, 0, 1, 1, 1, 0],
    )
    res = solve(gs, "eo", 0.0, randomize=True)
    best, _ = brute_force_best(gs, "eo", 0.0, randomize=True)
    assert res.plugin_accuracy == pytest.approx(best, abs=1e-12)
    assert abs(res.achieved_disparity) <= 1e-12


def test_solve_oa_shift_sign_follows_initial_gap():
    # group 1 fully correct at 1/2, group 0 not: positive initial gap
    gs = make_gs(
        [0.9, 0.2, 0.8, 0.3, 0.4, 0.7],
        [1, 1, 0, 0, 0, 0],
        [1, 0, 0, 1, 1, 0],
    )
    d0 = ft.ThresholdCurve("oa", gs.p_a, gs.p_ya).disparity(gs, 0.0)
    res = solve(gs, "oa", 0.0)
    assert d0 > 0
    assert res.t_hat > 0


@pytest.mark.parametrize("randomize", [False, True])
def test_group_swap_gives_same_accuracy(randomize):
    # Exchanging the group labels mirrors the family (t -> -t) and turns an
    # upper-branch problem into a lower-branch one; both branches must pick
    # the same classifier, including on plateaus lying exactly on -delta.
    rng = np.random.default_rng(29)
    for _ in range(100):
        gs = _random_gs(rng)
        swapped = swap_groups(gs)
        delta = float(rng.choice([0.0, 0.05, 0.1, 0.2]))
        for measure in MEASURES:
            res = solve(gs, measure, delta, randomize)
            res_sw = solve(swapped, measure, delta, randomize)
            assert res_sw.plugin_accuracy == pytest.approx(res.plugin_accuracy, abs=1e-12)
            assert res_sw.t_hat == pytest.approx(-res.t_hat, abs=1e-12)


def test_solve_eo_stops_at_tolerance_reached_up_to_rounding():
    # Five positives per group: at t = 0 the true-positive rates are 5/5 and
    # 3/5.  When the group-1 cutoff passes 0.55 the gap is 4/5 - 3/5, which
    # equals delta = 0.2 exactly but rounds to 0.20000000000000007; the
    # solver must stop there rather than walk on to the group-1 score 0.7.
    gs = make_gs(
        [0.55, 0.7, 0.8, 0.9, 0.95, 0.2, 0.3, 0.6, 0.7, 0.8, 0.1, 0.15, 0.3, 0.4],
        [1] * 7 + [0] * 7,
        [1, 1, 1, 1, 1, 0, 0, 1, 1, 1, 1, 1, 0, 0],
    )
    assert 4 / 5 - 3 / 5 > 0.2
    for randomize in (False, True):
        res = solve(gs, "eo", 0.2, randomize)
        assert res.branch == "upper" and not res.saturated
        assert res.rule.thresholds[1] == 0.55
        assert res.achieved_disparity == 4 / 5 - 3 / 5
        best, _ = brute_force_family_best(gs, "eo", 0.2, randomize)
        assert res.plugin_accuracy == pytest.approx(best, abs=1e-12)


# ---------------------------------------------------------------- cost solver


def test_cost_half_same_classifier_as_dp():
    rng = np.random.default_rng(2)
    for _ in range(20):
        gs = _random_gs(rng)
        delta = float(rng.choice([0.0, 0.1, 0.25]))
        r_dp = solve(gs, "dp", delta)
        r_c = solve(gs, "dp", delta, cost=0.5)
        # the same family on the same parameter scale: identical results
        assert r_c.t_hat == r_dp.t_hat
        for a in (0, 1):
            s = gs.by_group[a]
            assert np.array_equal(s > r_dp.rule.thresholds[a], s > r_c.rule.thresholds[a])


def test_cost_zero_degenerate():
    res = solve(HAND, "dp", 0.1, cost=0.0)
    assert res.t_hat == 0.0
    assert res.rule.thresholds.tolist() == [0.0, 0.0]
    # every score above zero predicted positive
    assert ft.evaluate(res.rule, HAND).positive_rate_a.tolist() == [1.0, 1.0]


def test_cost_hand_dataset_matches_enumeration():
    res = solve(HAND, "dp", 0.0, randomize=True, cost=0.3)
    best, _ = brute_force_best(HAND, "dp", 0.0, cost=0.3, randomize=True)
    assert -res.plugin_cost_risk == pytest.approx(best, abs=1e-12)
    assert abs(res.achieved_disparity) <= 1e-12


# ------------------------------------------------------ constraint satisfaction


@pytest.mark.parametrize("measure", ["dp", "eo", "pe", "oa"])
def test_constraint_satisfaction_random(measure):
    rng = np.random.default_rng(13)
    for _ in range(60):
        gs = _random_gs(rng)
        delta = float(rng.choice([0.0, 0.05, 0.15]))
        res = solve(gs, measure, delta, randomize=True)
        if not res.saturated:
            assert abs(res.achieved_disparity) <= delta + 1e-9
        det = solve(gs, measure, delta)
        if det.saturated:
            # the family never reaches the band inside its bracket (possible
            # only for the accuracy-gap measure); the end of the bracket is
            # returned with the saturation diagnostic set
            assert measure == "oa"
            continue
        # deterministic mode: within one step of the relevant rate functions
        strata = {"dp": (None,), "eo": (1,), "pe": (0,), "oa": (0, 1)}[measure]
        slack = max(
            1.0 / gs.stratum(a, y).size for a in (0, 1) for y in strata
        )
        if measure == "oa":
            slack *= 2  # both strata can sit on the same cutoff
        assert abs(det.achieved_disparity) <= delta + slack + 1e-9


def test_exact_optimality_dp_and_cost_vs_brute_force():
    """The parity solvers match an exhaustive search over all breakpoint
    threshold pairs with boundary randomization, for the plug-in objective."""
    rng = np.random.default_rng(17)
    for trial in range(60):
        gs = _random_gs(rng, distinct=True)
        delta = float(rng.choice([0.0, 0.05, 0.1, 0.3]))
        res = solve(gs, "dp", delta, randomize=True)
        best, _ = brute_force_best(gs, "dp", delta, randomize=True)
        assert res.plugin_accuracy == pytest.approx(best, abs=1e-9)
        cost = float(rng.choice([0.3, 0.7]))
        res_c = solve(gs, "dp", delta, randomize=True, cost=cost)
        best_c, _ = brute_force_best(gs, "dp", delta, cost=cost, randomize=True)
        assert -res_c.plugin_cost_risk == pytest.approx(best_c, abs=1e-9)


def test_plugin_accuracy_monotone_in_delta():
    rng = np.random.default_rng(19)
    deltas = np.linspace(0.0, 0.5, 11)
    for _ in range(25):
        gs = _random_gs(rng)
        for measure in MEASURES:
            accs = [solve(gs, measure, float(d), randomize=True).plugin_accuracy for d in deltas]
            assert all(b >= a - 1e-12 for a, b in zip(accs, accs[1:]))


# ------------------------------------------------------------------ multiclass


def test_multiclass_identical_groups():
    scores = [0.1, 0.4, 0.6, 0.9] * 3
    group = sum(([a] * 4 for a in range(3)), [])
    label = [0, 0, 1, 1] * 3
    gs = make_gs(scores, group, label)
    res = ft.solve_multiclass_dp(gs)
    assert np.allclose(res.t_hats, 0.0, atol=1e-9)
    assert res.max_rate_gap == 0.0


def test_multiclass_binary_crosscheck():
    rng = np.random.default_rng(23)
    for _ in range(20):
        gs = _random_gs(rng, n_lo=15, n_hi=60)
        mc = ft.solve_multiclass_dp(gs)
        dp = solve(gs, "dp", 0.0)
        # same rule family; representatives may differ by tie handling at
        # score atoms, so compare the achieved per-group positive rates
        atom = 2.0 / gs.n_a.min()
        dp_rates = ft.evaluate(dp.rule, gs).positive_rate_a
        for a in (0, 1):
            assert abs(mc.rates[a] - dp_rates[a]) <= atom + 1e-12
        # zero-sum up to one breakpoint gap (the step functions may leave a
        # hole around zero, in which case the nearest endpoint is used)
        widest = max(
            2.0 * gs.p_a[a] * np.diff(
                np.concatenate([[0.0], np.unique(gs.by_group[a]), [1.0]])
            ).max()
            for a in (0, 1)
        )
        assert abs(mc.sum_t) <= widest + 1e-12
        assert mc.sum_gap == pytest.approx(abs(mc.sum_t), abs=1e-9)


def test_multiclass_rate_gap_bound():
    spec = ft.SynthSpec.multiclass(3, sigma=2.0, seed=31)
    pop = ft.draw_population(spec)
    data = ft.sample(pop, 900, seed=32)
    scores = np.empty(data.n)
    for a in range(3):
        mask = data.group == a
        scores[mask] = eta(pop, data.features[mask], a)
    gs = ft.GroupedScores.from_dataset(data, scores)
    res = ft.solve_multiclass_dp(gs)
    assert res.max_rate_gap <= 2.0 / gs.n_a.min()
    assert abs(res.sum_t) <= 1e-9


def test_multiclass_single_valued_group_degrades_gracefully():
    scores = [0.8] * 5 + [0.1, 0.2, 0.6, 0.9, 0.7]
    group = [0] * 5 + [1] * 5
    label = [1, 0, 1, 0, 1, 0, 0, 1, 1, 1]
    gs = make_gs(scores, group, label)
    res = ft.solve_multiclass_dp(gs)  # no exception
    # group 0 only offers rates {0, 1}; report the best achievable gap
    assert res.max_rate_gap <= 1.0


def assert_same_multiclass(res, ref):
    for field in ("t_hats", "rates"):
        a, b = getattr(res, field), getattr(ref, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
    assert res.rule.thresholds.tobytes() == ref.rule.thresholds.tobytes()
    assert res.rule.tie_prob.tobytes() == ref.rule.tie_prob.tobytes()
    for field in ("sum_t", "sum_gap", "max_rate_gap", "plugin_accuracy"):
        assert repr(getattr(res, field)) == repr(getattr(ref, field)), field


@st.composite
def multiclass_samples(draw):
    """k = 2-6 groups of 1-40 scores: lattice, continuous or single-valued."""
    k = draw(st.integers(2, 6))
    scores, group = [], []
    for a in range(k):
        n = draw(st.integers(1, 40))
        kind = draw(st.sampled_from(("lattice", "continuous", "single")))
        if kind == "lattice":
            levels = draw(st.integers(1, 12))
            s = [i / levels for i in draw(st.lists(st.integers(0, levels), min_size=n, max_size=n))]
        elif kind == "continuous":
            s = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
        else:
            s = [draw(st.sampled_from((0.0, 0.25, 0.5, 0.7, 1.0)))] * n
        scores += s
        group += [a] * n
    label = draw(st.lists(st.integers(0, 1), min_size=len(scores), max_size=len(scores)))
    return make_gs(scores, group, label)


@given(multiclass_samples())
@settings(max_examples=300, deadline=None)
def test_multiclass_scan_equals_loop_bit_for_bit(gs):
    assert_same_multiclass(ft.solve_multiclass_dp(gs), multiclass_dp_loop(gs))


@st.composite
def tie_heavy_multiclass_samples(draw):
    """k = 2-5 groups of 1-30 scores drawn from a few values: exact 0 and 1,
    a few base values, and near-duplicates 1e-12 to 1e-9 above each."""
    base = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    near = [min(b + draw(st.sampled_from((1e-12, 1e-10, 5e-10, 1e-9))), 1.0) for b in base]
    values = [0.0, 1.0, *base, *near]
    scores, group = [], []
    for a in range(draw(st.integers(2, 5))):
        s = draw(st.lists(st.sampled_from(values), min_size=1, max_size=30))
        scores += s
        group += [a] * len(s)
    label = draw(st.lists(st.integers(0, 1), min_size=len(scores), max_size=len(scores)))
    return make_gs(scores, group, label)


@given(tie_heavy_multiclass_samples())
@settings(max_examples=300, deadline=None)
def test_multiclass_rule_realizes_the_matched_counts(gs):
    res = ft.solve_multiclass_dp(gs)
    realized = [int(np.sum(s > q)) for s, q in zip(gs.by_group, res.rule.thresholds)]
    assert realized == multiclass_matched_counts(gs)
    assert np.array_equal(res.rates, np.array(realized) / gs.n_a)


def test_multiclass_scan_equals_loop_on_large_groups():
    spec = ft.SynthSpec.multiclass(5, sigma=2.0, seed=3)
    pop = ft.draw_population(spec)
    data = ft.sample(pop, 20000, seed=4)
    scores = np.empty(data.n)
    for a in range(5):
        mask = data.group == a
        scores[mask] = eta(pop, data.features[mask], a)
    gs = ft.GroupedScores.from_dataset(data, scores)
    assert_same_multiclass(ft.solve_multiclass_dp(gs), multiclass_dp_loop(gs))


def test_multiclass_scan_without_a_zero_gap_equals_loop():
    # group 0 offers three rates, and at none of them do the matched shift
    # intervals hold a zero sum, so every reference count is scanned
    gs = make_gs(
        [0.25, 1.0] + [0.25, 0.0, 0.25, 1.0, 0.0], [0] * 2 + [1] * 5, [0, 0, 1, 1, 1, 0, 1]
    )
    res = ft.solve_multiclass_dp(gs)
    assert res.sum_gap > 0.0
    assert_same_multiclass(res, multiclass_dp_loop(gs))


def test_multiclass_scan_keeps_a_tiny_gap_before_a_zero():
    # one score per group: the first reference count leaves a gap of one
    # rounding error (5.6e-17), the next a zero gap, which is not below it
    # by more than 1e-15; the scan keeps the first and stops
    gs = make_gs([2 / 3, 1 / 3], [0, 1], [0, 1])
    res = ft.solve_multiclass_dp(gs)
    assert 0.0 < res.sum_gap <= 1e-15
    assert_same_multiclass(res, multiclass_dp_loop(gs))


def test_kept_gap_record_rule():
    # a later gap within 1e-15 of the kept one is not taken
    assert _kept_gap(np.array([0.4, 0.3, 0.3 - 5e-16, 0.35])) == (1, 0.3)
    # ... but one below it by more than 1e-15 is
    assert _kept_gap(np.array([0.4, 0.3, 0.3 - 2e-15])) == (2, 0.3 - 2e-15)
    # with the kept gap <= 1e-15 an exact zero is not taken
    assert _kept_gap(np.array([0.2, 8e-16, 0.0, 1e-300])) == (1, 8e-16)
    # the first exact zero is taken when the kept gap exceeds 1e-15
    assert _kept_gap(np.array([0.2, 0.1, 0.0, 0.0])) == (2, 0.0)
    # no zero gap: the whole array is scanned, up to its last entry
    assert _kept_gap(np.array([0.5, 0.6, 0.4, 0.45, 0.1])) == (4, 0.1)
    assert _kept_gap(np.array([0.5])) == (0, 0.5)
    # equal gaps keep the first
    assert _kept_gap(np.array([0.5, 0.2, 0.2, 0.2])) == (1, 0.2)


# ------------------------------------------------------------------ dispatcher


def test_solve_dispatch():
    res = ft.solve(HAND, ft.FairnessConstraint("eo", 0.1))
    assert res.constraint.measure == "eo"
    res = ft.solve(HAND, ft.FairnessConstraint("dp", 0.1, cost=0.3))
    assert res.constraint.cost == 0.3


@pytest.mark.parametrize("measure", ["eo", "pe", "oa"])
def test_solve_keeps_the_constraint_it_is_given(measure):
    constraint = ft.FairnessConstraint(measure, 0.0, cost=0.3)
    res = ft.solve(HAND, constraint)
    assert res.constraint == constraint
    # the cost moves the family: at t = 0 both cutoffs sit at the cost, not at 1/2
    curve = ft.ThresholdCurve(measure, HAND.p_a, HAND.p_ya, 0.3)
    assert curve.thresholds(0.0) == (0.3, 0.3)
    plain = ft.solve(HAND, ft.FairnessConstraint(measure, 0.0))
    assert not np.array_equal(res.rule.thresholds, plain.rule.thresholds)
    s = np.concatenate(HAND.by_group)
    q = np.concatenate([np.full(g.size, res.rule.thresholds[a]) for a, g in enumerate(HAND.by_group)])
    pi = (s > q).astype(float)
    want = np.mean(0.3 * (1 - s) * pi + 0.7 * s * (1 - pi))
    assert res.plugin_cost_risk == pytest.approx(want, abs=1e-12)


# ------------------------------------------------------ one scan per sample


def assert_same_result(res, ref):
    for field in ("t_hat", "achieved_disparity", "disparity_at_zero", "plugin_accuracy",
                  "plugin_cost_risk"):
        assert repr(getattr(res, field)) == repr(getattr(ref, field)), field
    for field in ("constraint", "branch", "bracket", "n_candidates", "saturated", "randomized"):
        assert getattr(res, field) == getattr(ref, field), field
    assert res.rule.thresholds.tobytes() == ref.rule.thresholds.tobytes()
    assert res.rule.tie_prob.tobytes() == ref.rule.tie_prob.tobytes()


def first_crossing(gs, measure, delta, cost):
    """(t_hat, saturated) by walking the searched candidates one at a time,
    each checked at itself and at the midpoint of the interval after it."""
    curve = ft.ThresholdCurve(measure, gs.p_a, gs.p_ya, cost)
    d0 = curve.disparity(gs, 0.0)
    bound = delta + DELTA_SLACK
    if abs(d0) <= bound:
        return 0.0, False
    sign = 1.0 if d0 > 0 else -1.0
    end = curve.bracket()[1 if d0 > 0 else 0]
    inside = [u for u in (sign * curve.breakpoints(gs)).tolist() if 0.0 <= u <= sign * end]
    us = sorted({0.0, sign * end, *inside})
    for u, after in zip(us, us[1:] + [None]):
        if sign * curve.disparity(gs, sign * u) <= bound:
            return sign * u, False
        if after is not None and sign * curve.disparity(gs, sign * (0.5 * (u + after))) <= bound:
            return sign * u, False
    return end, True


@st.composite
def scanned_samples(draw):
    """(scores, group, label) of two groups of 2-30 rows: lattice scores
    including 0 and 1, continuous scores, or one value per group, which
    leaves a tolerance below the initial disparity out of reach."""
    scores, group, label = [], [], []
    for a in (0, 1):
        n = draw(st.integers(2, 30))
        kind = draw(st.sampled_from(("lattice", "continuous", "single")))
        if kind == "lattice":
            levels = draw(st.integers(1, 8))
            s = [i / levels for i in draw(st.lists(st.integers(0, levels), min_size=n, max_size=n))]
        elif kind == "continuous":
            s = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
        else:
            s = [draw(st.sampled_from((0.0, 0.3, 0.5, 1.0)))] * n
        y = [0, 1] + draw(st.lists(st.integers(0, 1), min_size=n - 2, max_size=n - 2))
        scores += s
        group += [a] * n
        label += y
    return scores, group, label


# (measure, cost) pairs, several on one sample; dp at 0 and 1 has a one-point bracket
FAMILIES = [("dp", 0.5), ("dp", 0.0), ("dp", 0.3), ("dp", 1.0)] + [
    (m, c) for m in ("eo", "pe", "oa") for c in (0.3, 0.5, 0.7)
]


@given(scanned_samples(),
       st.lists(st.sampled_from(FAMILIES), min_size=1, max_size=3),
       st.lists(st.sampled_from((0.0, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0)), min_size=1, max_size=8),
       st.booleans())
@settings(max_examples=200, deadline=None)
def test_one_scan_serves_a_shuffled_grid_as_fresh_samples_would(sample, families, deltas, randomize):
    # the tolerances repeat and come in any order; every solve reads the shared sample's scans
    shared = make_gs(*sample)
    for measure, cost in families:
        for delta in deltas:
            res = ft.solve(shared, ft.FairnessConstraint(measure, delta, cost), randomize)
            assert_same_result(res, ft.solve(make_gs(*sample), res.constraint, randomize))
            assert (res.t_hat, res.saturated) == first_crossing(shared, measure, delta, cost)


@given(scanned_samples(),
       st.sampled_from(FAMILIES),
       st.lists(st.sampled_from((0.0, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0)), min_size=1, max_size=4),
       st.booleans())
@settings(max_examples=200, deadline=None)
def test_evaluate_reads_the_disparity_the_solver_achieved(sample, family, deltas, randomize):
    # two rate paths: the solver's scan of the curve, and evaluate's per-stratum
    # expected positives under the returned (possibly tie-randomized) rule
    gs = make_gs(*sample)
    measure, cost = family
    for delta in deltas:
        res = ft.solve(gs, ft.FairnessConstraint(measure, delta, cost), randomize)
        report = ft.evaluate(res.rule, gs, cost)
        assert abs(report.disparity(measure) - res.achieved_disparity) <= 1e-12


def test_scans_are_kept_per_cost():
    rng = np.random.default_rng(3)
    gs = _random_gs(rng)
    at_half = solve(gs, "dp", 0.0, cost=0.5)
    at_03 = solve(gs, "dp", 0.0, cost=0.3)
    fresh = solve(_random_gs(np.random.default_rng(3)), "dp", 0.0, cost=0.3)
    assert_same_result(at_03, fresh)
    assert at_03.t_hat != at_half.t_hat
    assert set(gs.scans) == {("dp", 0.5), ("dp", 0.3)}
