import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairthresh
from fairthresh import Dataset, FairnessConstraint, GroupedScores, SynthSpec, ThresholdCurve, ThresholdRule
from fairthresh import draw_population, evaluate, t_star


def test_public_names_resolve():
    assert len(set(fairthresh.__all__)) == len(fairthresh.__all__)
    missing = [name for name in fairthresh.__all__ if not hasattr(fairthresh, name)]
    assert missing == []
    namespace = {}
    exec("from fairthresh import *", namespace)
    assert set(fairthresh.__all__) <= set(namespace)


def test_group_stats_hand_counts():
    gs = GroupedScores.from_arrays(np.zeros(4), np.array([1, 1, 0, 0]), np.array([1, 0, 1, 1]))
    assert gs.n == 4
    assert gs.n_a.tolist() == [2, 2]
    assert gs.p_a[1] == 0.5
    assert gs.p_ya[1] == 0.5
    assert gs.p_ya[0] == 1.0
    assert gs.n_ay.tolist() == [[0, 2], [1, 1]]
    with pytest.raises(ValueError, match="read-only"):
        gs.n_a[0] = 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        gs.n = 5


def test_group_stats_single_group_degenerate():
    gs = GroupedScores.from_arrays(np.full(3, 0.5), np.zeros(3, dtype=int), np.ones(3, dtype=int))
    assert gs.p_a[0] == 1.0
    assert gs.p_ya[0] == 1.0


def test_group_stats_empty_inputs():
    with pytest.raises(ValueError, match="dataset is empty"):
        GroupedScores.from_arrays(np.array([]), np.array([], dtype=int), np.array([], dtype=int))
    with pytest.raises(ValueError, match="empty protected group 0"):
        GroupedScores.from_arrays(np.array([0.2, 0.4]), np.array([1, 1]), np.array([0, 1]), n_groups=2)
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        GroupedScores.from_arrays(np.array([0.2, 0.4]), np.array([0, 1]), np.array([0, 2]))


@pytest.mark.parametrize("group, n_groups, code", [
    ([-1, 0, 0, 1, 1], 0, -1),  # once counted in the last group, yet in no stratum
    ([0, 0, 1, 1, 2], 2, 2),  # once a bare IndexError
])
def test_out_of_range_group_codes_are_rejected(group, n_groups, code):
    with pytest.raises(ValueError, match=f"group code {code} is outside 0..1"):
        GroupedScores.from_arrays([0.2, 0.4, 0.6, 0.8, 0.3], group, [1, 0, 1, 0, 1], n_groups)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(features=np.zeros((2, 1)), group=np.array([0, 1]), label=np.array([0, 2]))
    with pytest.raises(ValueError):
        Dataset(features=np.full((2, 1), np.nan), group=np.array([0, 1]), label=np.array([0, 1]))
    with pytest.raises(ValueError):
        Dataset(features=np.zeros((2, 1)), group=np.array([0, 5]), label=np.array([0, 1]), n_groups=2)


def test_dataset_arrays_read_only():
    data = Dataset(np.zeros((2, 2)), np.array([0, 1]), np.array([0, 1]))
    with pytest.raises(ValueError):
        data.features[0, 0] = 1.0


def _random_sample(seed, k=3):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(k + 1, 40))
    group = rng.integers(0, k, n)
    group[:k] = np.arange(k)
    return rng, rng.random(n), group, rng.integers(0, 2, n)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_group_stats_permutation_invariant(seed):
    rng, scores, group, label = _random_sample(seed)
    base = GroupedScores.from_arrays(scores, group, label)
    perm = rng.permutation(scores.size)
    shuffled = GroupedScores.from_arrays(scores[perm], group[perm], label[perm])
    assert np.array_equal(base.n_ay, shuffled.n_ay)
    # total count is recoverable from the stratified table
    assert base.n_ay.sum() == base.n == shuffled.n


@given(st.integers(0, 2**32 - 1), st.integers(1, 5))
@settings(max_examples=50, deadline=None)
def test_counts_from_the_strata_match_a_direct_count(seed, k):
    _, scores, group, label = _random_sample(seed, k)
    gs = GroupedScores.from_arrays(scores, group, label)
    n_ay = np.zeros((k, 2), dtype=np.int64)
    np.add.at(n_ay, (group, label), 1)
    n_a = n_ay.sum(axis=1)
    assert gs.n_ay.tolist() == n_ay.tolist() and gs.n_a.tolist() == n_a.tolist()
    assert gs.n == scores.size
    assert gs.p_a.tobytes() == (n_a / int(n_a.sum())).tobytes()
    assert gs.p_ya.tobytes() == (n_ay[:, 1] / n_a).tobytes()


def test_fairness_constraint_validation():
    FairnessConstraint("dp", 0.1)
    for delta in (-0.1, np.nan):
        with pytest.raises(ValueError, match="delta must be >= 0"):
            FairnessConstraint("dp", delta)
    with pytest.raises(ValueError, match="unknown measure"):
        FairnessConstraint("xx", 0.1)
    pop = draw_population(SynthSpec.binary(seed=0))
    gs = GroupedScores.from_arrays(np.array([0.2, 0.8]), np.array([0, 1]), np.array([0, 1]))
    for cost in (1.5, -0.5, np.nan):
        # the constraint, the threshold family, t_star through it, and evaluate
        for check in (lambda: FairnessConstraint("dp", 0.1, cost=cost),
                      lambda: ThresholdCurve("dp", (0.5, 0.5), (0.5, 0.5), cost),
                      lambda: t_star(pop, "dp", 0.05, cost=cost),
                      lambda: evaluate(ThresholdRule(np.array([0.5, 0.5])), gs, cost),
                      lambda: evaluate(ThresholdRule(np.array([0.5, 0.5])), pop, cost)):
            with pytest.raises(ValueError, match=r"cost must lie in \[0, 1\]"):
                check()


def test_threshold_rule_validation_and_prediction():
    rule = ThresholdRule(np.array([0.5, 0.7]), np.array([0.0, 0.25]))
    probs = rule.predict_prob([0.6, 0.7, 0.71], [0, 1, 1])
    assert probs.tolist() == [1.0, 0.25, 1.0]
    for bad in ([1.2], [np.nan, 0.5], [0.5, np.inf]):
        with pytest.raises(ValueError, match=r"thresholds must lie in \[0, 1\]"):
            ThresholdRule(np.array(bad))
    for bad in ([-0.1], [np.nan]):
        with pytest.raises(ValueError, match=r"tie probabilities must lie in \[0, 1\]"):
            ThresholdRule(np.array([0.5]), np.array(bad))
