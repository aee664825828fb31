import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairthresh
from fairthresh import Dataset, FairnessConstraint, GroupedScores, SynthSpec, ThresholdCurve, ThresholdRule
from fairthresh import draw_population, evaluate, t_star
from fairthresh.core import _bins, fork_map


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


def test_dataset_copies_what_others_can_write_and_adopts_a_frozen_array():
    x = np.arange(12.0).reshape(6, 2).copy()  # owns its data, unlike the reshaped view
    group, label = np.array([0, 1, 0, 1, 0, 1]), np.array([0, 1, 1, 0, 1, 0])
    assert not np.shares_memory(Dataset(x, group, label).features, x)  # writable
    view = x[::2]
    view.setflags(write=False)
    assert not np.shares_memory(Dataset(view, group[:3], label[:3]).features, x)  # a view of writable data
    for arr in (x, group, label):
        arr.setflags(write=False)
    data = Dataset(x, group, label)
    assert data.features is x and data.group is group and data.label is label
    column_major = np.asfortranarray(np.arange(12.0).reshape(6, 2))
    column_major.setflags(write=False)
    features = Dataset(column_major, group, label).features
    assert features.flags.c_contiguous and not features.flags.writeable
    assert features.tolist() == column_major.tolist()


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


# ------------------------------------------------------------ the fork gate
#
# fork_map's costs are in units of one forked child: it forks where its bins
# save at least 1, the summed cost less the costliest bin's.

def _pid_map(n, workers, costs=None):
    """``fork_map`` of tasks that return ``(index, pid of their process)``."""
    out = fork_map(lambda i: (i, os.getpid()), n, workers, costs)
    assert [i for i, _ in out] == list(range(n))
    with pytest.raises(ChildProcessError):  # every child reaped
        os.waitpid(-1, os.WNOHANG)
    return {pid for _, pid in out}


@pytest.mark.parametrize("costs", [[0.4, 0.4], [0.99, 0.99], [5, 0, 0, 0], [0.3, 0.3, 0.3, 0.3]])
def test_bins_that_save_less_than_one_child_fork_nothing(monkeypatch, forks, costs):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    assert _pid_map(len(costs), len(costs), costs) == {os.getpid()}
    assert forks == []


@pytest.mark.parametrize("costs, bins", [
    ([1, 1], 2),  # saves exactly 1
    ([0.5, 0.5, 0.5], 3),
    ([3, 1, 1, 1], 2),  # bins {0} and {1, 2, 3}
    ([2, 2, 2, 2], 4),
])
def test_bins_that_save_a_child_fork_one_per_extra_bin(monkeypatch, forks, costs, bins):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    assert len(_pid_map(len(costs), bins, costs)) == bins
    assert forks == [os.getpid()] * (bins - 1)


@pytest.mark.parametrize("n_cpus", [1, 2, 4])
def test_default_costs_fork_one_child_per_share_past_the_first(monkeypatch, forks, n_cpus):
    # as --jobs does: any split of two or more tasks saves at least one
    # child, so every bin past the caller's forks
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cpus)))
    for n in range(1, 7):
        for workers in range(1, 5):
            forks.clear()
            k = min(n, workers, n_cpus)
            shares = len(_bins([1] * n, k)) if k > 1 else 1
            assert len(_pid_map(n, workers)) == shares
            assert len(forks) == shares - 1
    forks.clear()
    assert fork_map(lambda i: i, 0, 4) == [] and forks == []
