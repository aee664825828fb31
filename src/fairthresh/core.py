"""Shared domain types: datasets, constraints, rules, reports; the one worker pool."""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

# Each measure's disparity is g_1 - g_0, where g_a sums the rates of group a's
# strata (a label, or None for the group marginal) with these signs.
MEASURES = {"dp": ((None, 1.0),), "eo": ((1, 1.0),), "pe": ((0, 1.0),), "oa": ((1, 1.0), (0, -1.0))}

# Slack allowed in every comparison of a disparity against the tolerance, by the
# sample solver and the population oracle alike.
DELTA_SLACK = 1e-12


# Rows per chunk of the passes over a feature matrix that would otherwise
# make temporaries of the whole matrix: sampling, standardizing and scoring.
_CHUNK = 8192


def _row_chunks(n: int):
    """Slices of consecutive rows that cover ``range(n)``, ``_CHUNK`` rows
    each but the last, which has up to ``_CHUNK + 1``: a lone last row joins
    the chunk before it, because numpy computes a one-row matrix-vector
    product as a dot product, whose sum runs in another order."""
    start = 0
    while start < n:
        stop = n if n - start <= _CHUNK + 1 else start + _CHUNK
        yield slice(start, stop)
        start = stop


def _frozen_array(values, dtype) -> np.ndarray:
    """``values`` as a read-only, C-ordered array of ``dtype`` that nothing else writes.

    A read-only array that owns its data and needs no conversion is adopted
    as it is: whoever froze it hands it over and must not thaw it.  A
    writable array or a view (whose base may still be written) is copied,
    and anything else is converted into a new array.
    """
    arr = np.asarray(values, dtype=dtype, order="C")
    if arr.base is not None or (arr is values and arr.flags.writeable):
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Dataset:
    """Feature rows with an integer protected-group code and a binary label.

    ``features`` is an (n, d) float matrix, ``group`` an (n,) integer array
    with values in {0, ..., n_groups - 1}, ``label`` an (n,) array in {0, 1}.
    All arrays are read-only and C-ordered after construction.  Each is
    copied unless it is a read-only array that owns its data, which is
    adopted (``_frozen_array``), so a caller that freezes its arrays hands
    them over without a second copy.
    """

    features: np.ndarray
    group: np.ndarray
    label: np.ndarray
    n_groups: int = 0

    def __post_init__(self):
        feats = _frozen_array(self.features, np.float64)
        grp = _frozen_array(self.group, np.int64)
        lab = _frozen_array(self.label, np.int64)
        if feats.ndim != 2:
            raise ValueError("features must be a 2-d matrix")
        n = feats.shape[0]
        if n < 1:
            raise ValueError("dataset is empty")
        if grp.shape != (n,) or lab.shape != (n,):
            raise ValueError("features, group and label must have equal row counts")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features contain non-finite values")
        if grp.min() < 0:
            raise ValueError("group labels must be non-negative")
        n_groups = self.n_groups if self.n_groups else int(grp.max()) + 1
        if grp.max() >= n_groups:
            raise ValueError("group label out of range")
        if not np.all((lab == 0) | (lab == 1)):
            raise ValueError("labels must be 0 or 1")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "group", grp)
        object.__setattr__(self, "label", lab)
        object.__setattr__(self, "n_groups", n_groups)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class FairnessConstraint:
    """A fairness measure with a disparity tolerance.

    ``measure`` is a key of ``MEASURES``. ``cost`` is the
    false-positive cost c of the risk c FP + (1 - c) FN that the rule
    minimizes, for every measure; 0.5 recovers the plain 0-1 risk.
    """

    measure: str
    delta: float
    cost: float = 0.5

    def __post_init__(self):
        if self.measure not in MEASURES:
            raise ValueError(f"unknown measure {self.measure!r}")
        if not self.delta >= 0:  # also rejects nan
            raise ValueError("delta must be >= 0")
        if not 0.0 <= self.cost <= 1.0:
            raise ValueError("cost must lie in [0, 1]")


@dataclass(frozen=True)
class ThresholdRule:
    """Per-group decision rule: predict 1 when score > thresholds[a].

    ``tie_prob[a]`` is the probability of predicting 1 when the score equals
    the threshold exactly; 0 gives the plain deterministic rule.
    """

    thresholds: np.ndarray
    tie_prob: np.ndarray = None

    def __post_init__(self):
        thr = _frozen_array(self.thresholds, np.float64)
        if thr.ndim != 1 or thr.size < 1:
            raise ValueError("thresholds must be a non-empty vector")
        if not np.all((thr >= 0.0) & (thr <= 1.0)):  # also rejects nan
            raise ValueError("thresholds must lie in [0, 1]")
        if self.tie_prob is None:
            tie = np.zeros_like(thr)
        else:
            tie = _frozen_array(self.tie_prob, np.float64)
        if tie.shape != thr.shape or not np.all((tie >= 0.0) & (tie <= 1.0)):
            raise ValueError("tie probabilities must lie in [0, 1]")
        tie.setflags(write=False)
        object.__setattr__(self, "thresholds", thr)
        object.__setattr__(self, "tie_prob", tie)

    @property
    def n_groups(self) -> int:
        return self.thresholds.shape[0]

    def predict_prob(self, scores, group) -> np.ndarray:
        """Probability of predicting 1 for each (score, group) pair."""
        s = np.asarray(scores, dtype=np.float64)
        g = np.asarray(group, dtype=np.int64)
        q = self.thresholds[g]
        p = (s > q).astype(np.float64)
        tie = s == q
        if np.any(tie):
            p = np.where(tie, self.tie_prob[g], p)
        return p


@dataclass(frozen=True)
class EvalReport:
    """Classifier evaluation on a sample or a population: accuracy, risk and disparities.

    Rates are expectations under the tie-randomized rule, nan in ``tpr_a`` and
    ``fpr_a`` on a sample's empty stratum. ``rate_gap_sum`` sums each group's
    absolute gap from the overall positive rate, for any number of groups;
    :meth:`disparity` is a measure's signed gap between two groups.
    """

    accuracy: float
    cost_risk: float
    cost: float
    rate_gap_sum: float
    positive_rate_a: np.ndarray
    tpr_a: np.ndarray
    fpr_a: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "positive_rate_a", _frozen_array(self.positive_rate_a, np.float64))
        object.__setattr__(self, "tpr_a", _frozen_array(self.tpr_a, np.float64))
        object.__setattr__(self, "fpr_a", _frozen_array(self.fpr_a, np.float64))

    def disparity(self, measure: str) -> float:
        """g_1 - g_0, g_a summing group a's signed rates of the strata that ``MEASURES[measure]``
        lists; nan where a read stratum is empty.  Two groups only: ``rate_gap_sum`` covers K."""
        if measure not in MEASURES:
            raise ValueError(f"unknown measure {measure!r}")
        if self.positive_rate_a.size != 2:
            raise ValueError("binary measures require exactly two groups")
        rates = {None: self.positive_rate_a, 1: self.tpr_a, 0: self.fpr_a}
        g0, g1 = (sum(sgn * rates[y][a] for y, sgn in MEASURES[measure]) for a in (0, 1))
        return float(g1 - g0)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_task = None  # a worker's fn, set by _start_worker in the worker only


def _start_worker(fn, parent: int) -> None:
    """Pool initializer: keep ``fn`` for :func:`_run`, and start a thread that
    ends the worker once ``parent`` has died, as the worker then waits on a
    queue that nothing will write to again."""
    global _task
    _task = fn

    def watch():
        while os.getppid() == parent:
            time.sleep(0.2)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _run(i):
    return _task(i)


def fork_map(fn, n: int, workers: int, order=None) -> list:
    """``[fn(i) for i in range(n)]``, in at most ``min(workers, n, usable CPUs)``
    forked worker processes, submitted in ``order`` (default ``range(n)``).

    Runs on the calling thread instead when that cap is 1, where ``fork`` does
    not exist, or inside a worker of another pool, whose tasks fill the CPUs
    already.  Workers are forked, so they inherit ``fn`` (through the pool
    initializer) and everything it reads; only ``i`` and the result are
    pickled.  ``fork`` copies only the calling thread, which is safe because
    fairthresh starts no other thread that could hold a lock across it.  The
    results come back in index order; an exception in a worker is raised
    here, and the pool joins every worker before this returns or raises.  If
    this process is killed instead, :func:`_start_worker`'s thread ends each
    worker within about 0.2 s, so no process outlives the call.
    """
    workers = min(workers, n, _usable_cpus())
    if (workers < 2 or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.parent_process() is not None):
        return [fn(i) for i in range(n)]
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_start_worker, initargs=(fn, os.getpid())) as pool:
        futures = {i: pool.submit(_run, i) for i in (range(n) if order is None else order)}
        return [futures[i].result() for i in range(n)]
