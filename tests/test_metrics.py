import functools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fairthresh as ft
from fairthresh import gaussian as ga
from fairthresh.core import MEASURES
from fairthresh.metrics import (
    GroupedScores,
    ThresholdCurve,
    ThresholdRangeError,
    _distinct,
)

from _brute import swap_groups


def make_gs(scores, group, label):
    return GroupedScores.from_arrays(
        np.asarray(scores, float), np.asarray(group), np.asarray(label)
    )


def curve_of(gs, measure, cost=0.5):
    """The measure's threshold family with the sample's plug-in rates."""
    return ThresholdCurve(measure, gs.p_a, gs.p_ya, cost)


def disparity(gs, measure, t):
    """Plug-in disparity of the measure's threshold family at parameter t."""
    return curve_of(gs, measure).disparity(gs, t)


HAND = make_gs(
    [0.9, 0.6, 0.4, 0.8, 0.3],
    [1, 1, 1, 0, 0],
    [1, 0, 1, 1, 0],
)


# ---------------------------------------------------------------- stratum rates


def test_positive_rate_enumeration():
    gs = make_gs([0.2, 0.5, 0.9, 0.4], [0, 0, 0, 1], [0, 1, 1, 0])
    assert gs.rate(0, None, 0.5) == pytest.approx(1 / 3)
    assert gs.rate(0, 1, 0.5) == 0.5


def test_positive_rate_all_pass():
    assert make_gs([0.1, 0.2], [0, 1], [0, 1]).rate(1, None, 0.0) == 1.0


def test_positive_rate_pure_tie():
    assert make_gs([0.5, 0.5, 0.1], [0, 0, 1], [0, 1, 0]).rate(0, None, 0.5, tau=0.5) == 0.5


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_grouped_scores_reject_non_finite_scores(bad):
    with pytest.raises(ValueError, match="finite"):
        make_gs([0.2, bad, 0.6, 0.7], [0, 0, 1, 1], [0, 1, 0, 1])


# ------------------------------------------------------------ dp disparity


def test_ddp_hat_hand_value():
    # group 1 above 1/2: {0.9, 0.6} of 3; group 0: {0.8} of 2
    assert disparity(HAND, "dp", 0.0) == pytest.approx(2 / 3 - 1 / 2)


def test_ddp_hat_symmetry_zero():
    gs = make_gs([0.2, 0.7, 0.2, 0.7], [0, 0, 1, 1], [0, 1, 0, 1])
    assert disparity(gs, "dp", 0.0) == 0.0


# ------------------------------------------------- stratified disparity curves


def test_t_zero_reduces_to_half_cutoffs():
    for measure, y in (("eo", 1), ("pe", 0)):
        got = disparity(HAND, measure, 0.0)
        expect = HAND.rate(1, y, 0.5) - HAND.rate(0, y, 0.5)
        assert got == pytest.approx(expect)
    doa0 = disparity(HAND, "oa", 0.0)
    expect = (
        HAND.rate(1, 1, 0.5)
        - HAND.rate(1, 0, 0.5)
        - HAND.rate(0, 1, 0.5)
        + HAND.rate(0, 0, 0.5)
    )
    assert doa0 == pytest.approx(expect)


def test_deo_symmetric_groups_zero():
    gs = make_gs(
        [0.3, 0.8, 0.3, 0.8, 0.1, 0.1],
        [0, 0, 1, 1, 0, 1],
        [1, 1, 1, 1, 0, 0],
    )
    assert disparity(gs, "eo", 0.0) == 0.0


def _enumerate_disparity(gs, measure, t):
    """Direct re-derivation from raw indicator sums (independent oracle)."""
    curve = curve_of(gs, measure)
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
    for measure in ("eo", "pe", "oa"):
        lo, hi = curve_of(gs, measure).bracket()
        for t in np.linspace(lo, hi, 23):
            assert disparity(gs, measure, float(t)) == pytest.approx(
                _enumerate_disparity(gs, measure, float(t))
            )


def test_bracket_errors():
    lo, hi = curve_of(HAND, "eo").bracket()
    with pytest.raises(ThresholdRangeError, match="threshold out of range"):
        disparity(HAND, "eo", hi * 1.5)
    with pytest.raises(ThresholdRangeError):
        disparity(HAND, "pe", curve_of(HAND, "pe").bracket()[0] * 1.5)


@pytest.mark.parametrize("measure", ["dp", "eo", "pe", "oa"])
def test_disparity_at_array_cutoffs_match_scalar_calls(measure):
    rng = np.random.default_rng(4)
    gs = _random_gs(rng)
    curve = curve_of(gs, measure)
    q0s, q1s = rng.random(25), rng.random(25)
    q0s[:5], q1s[:5] = gs.by_group[0][:5], gs.by_group[1][:5]  # cutoffs on scores
    got = curve.disparity_at(gs, (q0s, q1s))
    want = [curve.disparity_at(gs, (q0, q1)) for q0, q1 in zip(q0s, q1s)]
    assert got.tolist() == want


def test_dp_scale_follows_cost():
    half = curve_of(HAND, "dp", cost=0.5)
    cost = curve_of(HAND, "dp", cost=0.3)
    assert (half.scale, cost.scale) == (2.0, 1.0)
    p0, p1 = half.p_a
    t = 0.1
    # 1/2 +- t/(2 p_a) at c = 1/2, c +- t/p_a otherwise; a factor of 2 keeps every bit
    assert half.thresholds(t) == (0.5 - t / (2.0 * p0), 0.5 + t / (2.0 * p1))
    assert cost.thresholds(t) == (0.3 - t / p0, 0.3 + t / p1)
    assert half.inverse(half.thresholds(t)[1], 1) == pytest.approx(t)
    assert half.bracket() == (max(-p1, -p0), min(p1, p0))


@pytest.mark.parametrize("measure, y", [("eo", 1), ("pe", 0), ("oa", 0), ("oa", 1)])
@pytest.mark.parametrize("a", [0, 1])
def test_curve_rejects_a_rate_that_empties_a_read_stratum(measure, y, a):
    p_ya = [0.5, 0.5]
    p_ya[a] = 1.0 - y  # no row of group a has label y
    with pytest.raises(ValueError, match=rf"^empty stratum \(group {a}, label {y}\)$"):
        ThresholdCurve(measure, (0.4, 0.6), tuple(p_ya))


@pytest.mark.parametrize("measure, p", [("dp", 0.0), ("dp", 1.0), ("eo", 1.0), ("pe", 0.0)])
def test_curve_accepts_a_rate_that_empties_an_unread_stratum(measure, p):
    curve = ThresholdCurve(measure, np.array([0.4, 0.6]), np.array([p, 0.5]))
    assert curve.p_a == (0.4, 0.6) and curve.p_ya == (p, 0.5)
    assert all(type(v) is float for v in curve.p_a + curve.p_ya)


def test_empty_stratum_errors():
    gs = make_gs([0.2, 0.8, 0.5, 0.6], [0, 0, 1, 1], [0, 1, 1, 1])
    with pytest.raises(ValueError, match="empty stratum"):
        disparity(gs, "pe", 0.0)  # group 1 has no label-0 rows


# ------------------------------------------------------- array-valued curve maps

# name -> (measure, cost, balance group 0's labels so that p_ya[0] = 1/2)
ARRAY_CASES = {
    "dp": ("dp", 0.5, False),
    "dp_cost_0.3": ("dp", 0.3, False),
    "eo": ("eo", 0.5, False),
    "pe": ("pe", 0.5, False),
    "oa": ("oa", 0.5, False),
    "oa_pinned_group": ("oa", 0.5, True),
    **{f"{m}_cost_{c}": (m, c, False) for m in ("eo", "pe", "oa") for c in (0.3, 0.7)},
}

# tie-heavy: most draws come from a few values, the ends of [0, 1] included
SCORES = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0))


@st.composite
def _tied_samples(draw, balanced):
    rows = []
    for a in (0, 1):
        n_pos = draw(st.integers(1, 5))
        for y in (0, 1):
            n = n_pos if balanced and a == 0 else draw(st.integers(1, 5))
            rows += [(s, a, y) for s in draw(st.lists(SCORES, min_size=n, max_size=n))]
    scores, group, label = zip(*rows)
    return make_gs(scores, group, label)


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("case", sorted(ARRAY_CASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_array_curve_maps_equal_scalar_calls_bit_for_bit(case, data):
    measure, cost, balanced = ARRAY_CASES[case]
    gs = data.draw(_tied_samples(balanced))
    curve = curve_of(gs, measure, cost)
    if balanced:
        assert curve.p_ya[0] == 0.5
    lo, hi = curve.bracket()
    ts = np.array(data.draw(st.lists(st.floats(lo, hi), min_size=1, max_size=6)) + [lo, 0.0, hi])
    qs = np.array(data.draw(st.lists(SCORES, min_size=1, max_size=6)) + list(curve.p_ya))

    for a in (0, 1):
        want = [curve.inverse(float(q), a) for q in qs]
        assert _bits(curve.inverse(qs, a)).tolist() == _bits(want).tolist()
    # the binary family is the per-group map at shifts (-t, t); -1 * keeps a nan's bits
    assert _bits(-1.0 * curve.shift(qs, 0)).tolist() == _bits(curve.inverse(qs, 0)).tolist()
    assert _bits(curve.shift(qs, 1)).tolist() == _bits(curve.inverse(qs, 1)).tolist()

    outside = ts.copy()
    outside[data.draw(st.integers(0, ts.size - 1))] = data.draw(st.sampled_from([lo - 1.0, hi + 1.0]))
    with pytest.raises(ThresholdRangeError):
        curve.thresholds(outside)
    with pytest.raises(ThresholdRangeError):
        curve.disparity(gs, outside)

    try:
        want = [curve.thresholds(float(t)) for t in ts]
    except ThresholdRangeError:  # an oa cutoff map has no image at some t inside the bracket
        with pytest.raises(ThresholdRangeError):
            curve.thresholds(ts)
        return
    q0s, q1s = curve.thresholds(ts)
    assert _bits(q0s).tolist() == _bits([q0 for q0, _ in want]).tolist()
    assert _bits(q1s).tolist() == _bits([q1 for _, q1 in want]).tolist()
    # the same bits as the per-group map at shifts (-t, t), but where thresholds
    # puts the cutoff that sets a bracket end exactly on 0 or 1
    at_end = (ts == lo) | (ts == hi)
    for got, per_group in zip((q0s, q1s), curve.cutoffs((-ts, ts))):
        assert np.all((_bits(got) == _bits(per_group)) | (at_end & ((got == 0.0) | (got == 1.0))))
    want = [curve.disparity(gs, float(t)) for t in ts]
    assert _bits(curve.disparity(gs, ts)).tolist() == _bits(want).tolist()


@pytest.mark.parametrize("measure, p_ya, cost, a, root", [
    ("eo", (0.4, 0.7), 0.3, 0, 1.0),  # group 0's cutoff was 1 - 4.4e-16
    ("pe", (0.4, 0.7), 0.7, 1, 0.0),  # group 1's was 1.1e-16
])
def test_the_cutoff_that_sets_a_bracket_end_lands_on_it_exactly(measure, p_ya, cost, a, root):
    curve = ThresholdCurve(measure, (0.3, 0.7), p_ya, cost)
    lo, _ = curve.bracket()
    assert curve.thresholds(lo)[a] == root
    assert curve.thresholds(np.array([lo, 0.0]))[a].tolist() == [root, cost]
    assert abs(curve.cutoffs((-lo, lo))[a] - root) < 1e-15  # the map alone lands a few ulps off


@pytest.mark.parametrize("measure, cost", [(m, c) for m in ("dp", "eo", "pe", "oa") for c in (0.3, 0.5, 0.7)])
@settings(max_examples=100, deadline=None)
@given(p0=st.floats(0.01, 0.99), p_ya=st.tuples(st.floats(0.01, 0.99), st.floats(0.01, 0.99)))
def test_every_bracket_end_puts_a_cutoff_on_0_or_1(measure, cost, p0, p_ya):
    # with no cutoff pinned, each end is where some group's cutoff reaches 0 or 1
    curve = ThresholdCurve(measure, (p0, 1.0 - p0), p_ya, cost)
    assume(not curve.pinned)
    for end in curve.bracket():
        assert {0.0, 1.0} & {float(q) for q in curve.thresholds(end)}
        assert {0.0, 1.0} & {float(q[0]) for q in curve.thresholds(np.array([end]))}


# ---------------------------------- the family written out measure by measure

# The cutoff maps, the disparity and the tie effect written out per measure,
# as they were before the signed-strata table, at any cost c.  The maps take
# s = +-t / scale (2 at c = 1/2, else 1); at c = 1/2 the eo, pe and oa forms
# are the cost-free ones at t = 2 s, m / (2 m - t) and so on.


def _scale_per_measure(curve):
    return 2.0 if curve.cost == 0.5 else 1.0


def _bracket_per_measure(curve):
    """(lo, hi) in s = t / scale."""
    (p0, p1), (py0, py1), c = curve.p_a, curve.p_ya, curve.cost
    if curve.measure == "dp":
        return max(-c * p1, -(1.0 - c) * p0), min((1.0 - c) * p1, c * p0)
    if curve.measure == "eo":
        return -p0 * py0 * (1.0 - c), p1 * py1 * (1.0 - c)
    if curve.measure == "pe":
        return -c * p1 * (1.0 - py1), c * p0 * (1.0 - py0)
    return -p0 * min(c * (1.0 - py0), py0 * (1.0 - c)), p1 * min(c * (1.0 - py1), py1 * (1.0 - c))


def _oa_pinned(curve, a):
    return abs(curve.cost - curve.p_ya[a]) <= 1e-12 * curve.cost


def _thresholds_per_measure(curve, t):
    t = t / _scale_per_measure(curve)
    lo, hi = _bracket_per_measure(curve)
    span = max(hi - lo, 1.0)
    if np.any((t < lo - 1e-12 * span) | (t > hi + 1e-12 * span)):
        raise ThresholdRangeError("threshold out of range")
    t = np.minimum(np.maximum(t, lo), hi)
    q = [np.minimum(np.maximum(_cutoff_per_measure(curve, s, a), 0.0), 1.0) for a, s in ((0, -t), (1, t))]
    # at a bracket end, the group whose cutoff reaches 0 or 1 there lands on it exactly
    for a, sign in ((0, -1.0), (1, 1.0)):
        for root, s in _roots_per_measure(curve, a).items():
            for end in (lo, hi):
                if sign * s == end:
                    q[a] = np.where(t == end, root, q[a])[()]
    return tuple(q)


def _roots_per_measure(curve, a):
    """{cutoff: s} for the cutoffs 0 and 1 that group a's map reaches, at its own s."""
    p, py, c = curve.p_a[a], curve.p_ya[a], curve.cost
    if curve.measure == "oa" and _oa_pinned(curve, a):
        return {}
    return {
        "dp": {0.0: -c * p, 1.0: (1.0 - c) * p},
        "eo": {1.0: p * py * (1.0 - c)},
        "pe": {0.0: -c * p * (1.0 - py)},
        "oa": {0.0: c * p * (1.0 - py), 1.0: p * py * (1.0 - c)},
    }[curve.measure]


def _cutoff_per_measure(curve, s, a):
    p, py, c = curve.p_a[a], curve.p_ya[a], curve.cost
    if curve.measure == "dp":
        return c + s / p
    if curve.measure == "eo":
        m = p * py
        return c * m / (m - s)
    if curve.measure == "pe":
        v = p * (1.0 - py)
        return (c * v + s) / (v + s)
    if _oa_pinned(curve, a):
        return np.full(np.shape(s), c)
    u = p * py * (1.0 - py)
    if np.any(u - s <= 0.0):
        raise ThresholdRangeError("threshold out of range")
    return (c * u - py * s) / (u - s)


def _param_per_measure(curve, q, a):
    """The t at which group a's cutoff is q: the inverse of the map above."""
    p, py, c = curve.p_a[a], curve.p_ya[a], curve.cost
    with np.errstate(all="ignore"):
        if curve.measure == "eo":
            s = p * py * (q - c) / q
        elif curve.measure == "pe":
            s = p * (1.0 - py) * (q - c) / (1.0 - q)
        else:
            s = p * py * (1.0 - py) * (q - c) / (q - py)
    return (1.0 if a == 1 else -1.0) * s * _scale_per_measure(curve)


# eo, pe and oa against the forms above: each cutoff within 1e-12 of its form,
# or, where the map is steep (an oa rate just outside the pinning band, near the
# bracket end), taken at a parameter within 1e-12 * span of t
MAP_TOL = 1e-12


def _assert_close_outcome(curve, t):
    try:
        want = _thresholds_per_measure(curve, t)
    except ThresholdRangeError:
        with pytest.raises(ThresholdRangeError):
            curve.thresholds(t)
        return
    got = curve.thresholds(t)
    lo, hi = curve.bracket()
    for a in (0, 1):
        assert type(got[a]) is type(want[a]) and np.shape(got[a]) == np.shape(want[a])
        if curve.measure == "oa" and _oa_pinned(curve, a):
            assert np.all(got[a] == curve.cost)
            continue
        near_q = np.abs(got[a] - want[a]) <= MAP_TOL
        near_t = np.abs(_param_per_measure(curve, got[a], a) - np.clip(t, lo, hi)) <= MAP_TOL * max(hi - lo, 1.0)
        assert np.all(near_q | near_t), (a, got[a], want[a])


def _disparity_at_per_measure(curve, rates, thresholds, tie_prob=(0.0, 0.0)):
    q0, q1 = thresholds
    if curve.measure == "oa":
        g1 = rates.rate(1, 1, q1, tie_prob[1]) - rates.rate(1, 0, q1, tie_prob[1])
        g0 = rates.rate(0, 1, q0, tie_prob[0]) - rates.rate(0, 0, q0, tie_prob[0])
        return g1 - g0
    y = {"dp": None, "eo": 1, "pe": 0}[curve.measure]
    return rates.rate(1, y, q1, tie_prob[1]) - rates.rate(0, y, q0, tie_prob[0])


def _tie_effect_per_measure(curve, gs, thresholds, a):
    q = thresholds[a]
    sgn = 1.0 if a == 1 else -1.0

    def ties(s):
        return np.searchsorted(s, q, side="right") - np.searchsorted(s, q, side="left")

    if curve.measure == "oa":
        s1 = gs.stratum(a, 1)
        s0 = gs.stratum(a, 0)
        return sgn * (ties(s1) / s1.size - ties(s0) / s0.size)
    s = gs.stratum(a, {"dp": None, "eo": 1, "pe": 0}[curve.measure])
    return sgn * ties(s) / s.size


def _assert_same(got, want):
    """Equal Python type, dtype, shape and bytes; a tuple element by element."""
    assert type(got) is type(want)
    if isinstance(want, tuple):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same(g, w)
        return
    g, w = np.asarray(got), np.asarray(want)
    assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())


def _assert_same_outcome(got, want, *args):
    """``got(*args)`` returns what ``want(*args)`` returns, or both raise ThresholdRangeError."""
    try:
        expected = want(*args)
    except ThresholdRangeError:
        with pytest.raises(ThresholdRangeError):
            got(*args)
        return
    _assert_same(got(*args), expected)


FAMILIES = [("dp", 0.0), ("dp", 0.3), ("dp", 0.5), ("dp", 1.0)] + [
    (m, c) for m in ("eo", "pe", "oa") for c in (0.3, 0.5, 0.7)
]
# exactly 1/2, within 1e-12 of it (the oa family pins a cutoff inside that band), an n/50 lattice, any
RATES = st.one_of(
    st.just(0.5),
    st.floats(-1e-12, 1e-12).map(lambda e: 0.5 + e),
    st.integers(1, 49).map(lambda n: n / 50),
    st.floats(0.001, 0.999),
)
TIES = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


def _family_cutoffs(curve, t):
    """The cutoffs written per measure for dp; for eo, pe and oa, which match
    their forms within ``MAP_TOL`` only, the family's own."""
    return _thresholds_per_measure(curve, t) if curve.measure == "dp" else curve.thresholds(t)


@pytest.mark.parametrize("measure, cost", FAMILIES)
@settings(max_examples=150, deadline=None)
@given(p0=RATES, p_ya=st.tuples(RATES, RATES), data=st.data())
def test_cutoff_maps_equal_the_maps_written_per_measure(measure, cost, p0, p_ya, data):
    curve = ThresholdCurve(measure, (p0, 1.0 - p0), p_ya, cost)
    lo, hi = curve.bracket()
    # the bracket ends, the next floats past them (inside the tolerance) and values beyond it
    ends = [lo, 0.0, hi, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf), lo - 1e-9, hi + 1e-9]
    inside = st.floats(lo, hi) if lo < hi else st.just(lo)
    ts = data.draw(st.lists(st.one_of(inside, st.sampled_from(ends)), min_size=1, max_size=8))
    if measure == "dp":  # bit for bit
        check = functools.partial(_assert_same_outcome, curve.thresholds, functools.partial(_thresholds_per_measure, curve))
    else:
        check = functools.partial(_assert_close_outcome, curve)
    for t in ts:
        check(float(t))
        check(np.float64(t))
    check(np.array(ts))
    check(np.clip(ts, lo, hi))


@pytest.mark.parametrize("measure, cost", FAMILIES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sample_disparity_and_tie_effect_equal_the_formulas_per_measure(measure, cost, data):
    gs = data.draw(_tied_samples(data.draw(st.booleans())))
    curve = curve_of(gs, measure, cost)
    cutoff = [st.one_of(SCORES, st.sampled_from(gs.by_group[a].tolist())) for a in (0, 1)]
    pairs = data.draw(st.lists(st.tuples(*cutoff), min_size=1, max_size=6)) + [curve.thresholds(0.0)]
    for q in pairs:
        tie = data.draw(st.tuples(TIES, TIES))
        _assert_same(curve.disparity_at(gs, q), _disparity_at_per_measure(curve, gs, q))
        _assert_same(curve.disparity_at(gs, q, tie), _disparity_at_per_measure(curve, gs, q, tie))
        for a in (0, 1):
            _assert_same(curve.tie_effect(gs, q, a), _tie_effect_per_measure(curve, gs, q, a))
    arrays = tuple(np.array(v, dtype=np.float64) for v in zip(*pairs))
    _assert_same(curve.disparity_at(gs, arrays, tie), _disparity_at_per_measure(curve, gs, arrays, tie))
    for t in (0.0, *curve.bracket()):
        want = _disparity_at_per_measure(curve, gs, _family_cutoffs(curve, t))
        _assert_same(curve.disparity(gs, t), want)


@pytest.mark.parametrize("measure, cost", FAMILIES)
@settings(max_examples=40, deadline=None)
@given(p0=RATES, p_ya=st.tuples(RATES, RATES), data=st.data())
def test_population_disparity_equals_the_formulas_per_measure(measure, cost, p0, p_ya, data):
    mu = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=8, max_size=8))).reshape(2, 2, 2)
    for a in (0, 1):
        if data.draw(st.booleans()):  # coincident means: eta is the constant p_ya[a], an atom
            mu[a, 1] = mu[a, 0]
    pop = ga.GaussianPopulation(p_a=np.array([p0, 1.0 - p0]), p_ya=np.array(p_ya), mu=mu, sigma=1.0)
    curve = ThresholdCurve(measure, pop.p_a, pop.p_ya, cost)
    cutoff = [st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, p_ya[a]])) for a in (0, 1)]
    for q in data.draw(st.lists(st.tuples(*cutoff), min_size=1, max_size=4)):
        tie = data.draw(st.tuples(TIES, TIES))
        _assert_same(curve.disparity_at(pop, q), _disparity_at_per_measure(curve, pop, q))
        _assert_same(curve.disparity_at(pop, q, tie), _disparity_at_per_measure(curve, pop, q, tie))
    lo, hi = curve.bracket()
    for t in (lo, 0.0, hi, data.draw(st.floats(lo, hi) if lo < hi else st.just(lo))):
        try:
            want = _disparity_at_per_measure(curve, pop, _family_cutoffs(curve, t))
        except ThresholdRangeError:  # an oa cutoff map has no image at some t inside the bracket
            with pytest.raises(ThresholdRangeError):
                curve.disparity(pop, t)
            continue
        _assert_same(curve.disparity(pop, t), want)


def _breakpoints_restated(curve, gs):
    """Every stratum's and group's distinct scores, mapped one by one and kept in the bracket."""
    lo, hi = curve.bracket()
    pts = {lo, hi, 0.0}
    for a in (0, 1):
        scores = set(gs.by_group[a].tolist())
        for y in (0, 1):
            scores.update(gs.stratum(a, y).tolist())
        for s in scores:
            t = float(curve.inverse(s, a))
            if lo <= t <= hi:
                pts.add(t)
    return np.array(sorted(pts))


@pytest.mark.parametrize("case", sorted(ARRAY_CASES))
@pytest.mark.parametrize("kind", ["tied", "saturated"])
def test_breakpoints_equal_scalar_restatement(case, kind):
    measure, cost, balanced = ARRAY_CASES[case]
    rng = np.random.default_rng(31)
    for _ in range(30):
        n = 2 * int(rng.integers(2, 12))
        if kind == "tied":
            scores = rng.choice([0.0, 0.2, 0.3, 0.5, 0.7, 1.0], size=2 * n)
        else:  # within 1e-12 of 0 or 1, the exact ends included
            near = rng.choice([0.0, 1e-15, 1e-13, 1e-12], size=2 * n) * rng.random(2 * n)
            scores = np.where(rng.random(2 * n) < 0.5, near, 1.0 - near)
        group = np.repeat([0, 1], n)
        label = rng.integers(0, 2, 2 * n)
        label[:2] = [0, 1]
        label[n : n + 2] = [0, 1]
        if balanced:
            label[:n] = np.arange(n) % 2
        gs = make_gs(scores, group, label)
        curve = curve_of(gs, measure, cost)
        got = curve.breakpoints(gs)
        assert got.tolist() == _breakpoints_restated(curve, gs).tolist()


def test_distinct_equals_numpy_unique_bit_for_bit():
    # ties, both signed zeros in either order, infinities, subnormals, and the empty vector
    rng = np.random.default_rng(8)
    atoms = np.array([0.0, -0.0, 0.25, -1.5, 5e-324, -5e-324, 1e300, np.inf, -np.inf])
    for n in [0, 1, 2, *rng.integers(3, 300, 200)]:
        values = np.where(rng.random(n) < 0.6, rng.choice(atoms, n), rng.normal(size=n))
        values.setflags(write=False)  # a stratum is read-only
        want = np.unique(values)
        got = _distinct(values)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), values


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
        curve = curve_of(gs, measure)
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
    curve = curve_of(gs, "oa")
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
            assert disparity(gs, "dp", float(t)) == pytest.approx(
                -disparity(swapped, "dp", float(-t))
            )


# ------------------------------------------------------- multi-group dp shifts


def test_dp_shift_map_and_its_inverse():
    # a three-group dp curve at cost 1/2 is the K-group rule's per-group map
    p_a = (0.2, 0.3, 0.5)
    curve = ThresholdCurve("dp", p_a, (0.4, 0.5, 0.6))
    t = np.array([-0.04, 0.01, 0.03])
    q = curve.cutoffs(t)
    # the operation order of q = 1/2 + t / (2 p_a) and t = 2 p_a (q - 1/2)
    assert _bits(q).tolist() == _bits([0.5 + t[a] / (2.0 * p_a[a]) for a in range(3)]).tolist()
    shifts = [curve.shift(q[a], a) for a in range(3)]
    assert _bits(shifts).tolist() == _bits([2.0 * p_a[a] * (q[a] - 0.5) for a in range(3)]).tolist()
    assert np.allclose(shifts, t, rtol=0.0, atol=1e-15)
    # cutoffs clip into [0, 1]; shifts map arrays too
    assert curve.cutoffs(np.array([-1.0, 0.0, 1.0])) == (0.0, 0.5, 1.0)
    qs = np.array([0.0, 0.25, 0.75, 1.0])
    assert _bits(curve.shift(qs, 1)).tolist() == _bits(2.0 * 0.3 * (qs - 0.5)).tolist()


@pytest.mark.parametrize("call", ["thresholds", "inverse", "bracket", "breakpoints", "disparity", "tie_effect"])
def test_binary_methods_of_a_three_group_curve_raise(call):
    gs = make_gs([0.2, 0.8, 0.5, 0.6, 0.3, 0.9], [0, 0, 1, 1, 2, 2], [0, 1, 0, 1, 0, 1])
    curve = curve_of(gs, "eo")
    assert curve.cutoffs((0.0, 0.0, 0.0)) == (0.5, 0.5, 0.5)
    args = {"thresholds": (0.0,), "inverse": (0.5, 0), "bracket": (), "breakpoints": (gs,),
            "disparity": (gs, 0.0), "tie_effect": (gs, (0.5, 0.5, 0.5), 0)}[call]
    with pytest.raises(ValueError, match="^binary measures require exactly two groups$"):
        getattr(curve, call)(*args)


# -------------------------------------------------------------------- evaluate


def test_evaluate_perfect_scores():
    scores = np.array([0.9, 0.8, 0.1, 0.95, 0.2, 0.15])
    label = (scores > 0.5).astype(int)
    group = np.array([0, 0, 0, 1, 1, 1])
    gs = make_gs(scores, group, label)
    rep = ft.evaluate(ft.ThresholdRule(np.array([0.5, 0.5])), gs)
    assert rep.accuracy == 1.0
    assert rep.disparity("dp") == pytest.approx(1 / 3 - 2 / 3)


def test_evaluate_constant_classifier():
    gs = make_gs([0.9, 0.1, 0.6, 0.2], [0, 0, 1, 1], [1, 0, 1, 0])
    rule = ft.ThresholdRule(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    rep = ft.evaluate(rule, gs)
    assert rep.disparity("dp") == 0.0
    assert rep.disparity("eo") == 0.0
    assert rep.disparity("pe") == 0.0
    assert rep.accuracy == pytest.approx(0.5)  # base positive rate


def test_evaluate_cost_identity_at_half():
    rng = np.random.default_rng(3)
    gs = _random_gs(rng)
    pop = ga.GaussianPopulation(p_a=np.array([0.3, 0.7]), p_ya=np.array([0.4, 0.7]),
                                mu=rng.normal(size=(2, 2, 3)), sigma=1.0)
    rule = ft.ThresholdRule(np.array([0.4, 0.6]))
    for source in (gs, pop):
        rep = ft.evaluate(rule, source, cost=0.5)
        assert rep.cost_risk == pytest.approx((1.0 - rep.accuracy) / 2)


def _row_metrics(rule, scores, group, label, cost):
    """(accuracy, cost risk, positive rates, TPRs, FPRs) of the rule, averaged over the rows
    from each row's probability of a positive prediction; nan for a stratum without a row."""
    pi = rule.predict_prob(scores, group)
    accuracy = np.mean(label * pi + (1 - label) * (1.0 - pi))
    cost_risk = np.mean(cost * (1 - label) * pi + (1.0 - cost) * label * (1.0 - pi))
    groups = range(rule.n_groups)
    mean = lambda rows: pi[rows].mean() if rows.any() else np.nan  # noqa: E731
    positive = [mean(group == a) for a in groups]
    tpr, fpr = ([mean((group == a) & (label == y)) for a in groups] for y in (1, 0))
    return accuracy, cost_risk, positive, tpr, fpr


def _assert_matches_the_rows(rule, scores, group, label, cost):
    rep = ft.evaluate(rule, make_gs(scores, group, label), cost)
    got = rep.accuracy, rep.cost_risk, rep.positive_rate_a, rep.tpr_a, rep.fpr_a
    for value, want in zip(got, _row_metrics(rule, scores, group, label, cost)):
        assert np.allclose(value, want, rtol=0.0, atol=1e-14, equal_nan=True)


def test_evaluate_matches_the_row_average_of_the_rule():
    # scores on a grid of 8 values, and cutoffs among them, so that many rows tie
    rng = np.random.default_rng(26)
    for _ in range(300):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(k, 60))
        scores = rng.integers(0, 8, n) / 7
        group = rng.permutation(np.arange(n) % k)
        label = rng.integers(0, 2, n)
        rule = ft.ThresholdRule(rng.integers(0, 8, k) / 7, rng.random(k) * (rng.random() < 0.8))
        _assert_matches_the_rows(rule, scores, group, label, float(rng.random()))


def test_evaluate_on_a_group_without_a_positive_row():
    scores = np.array([0.2, 0.5, 0.5, 0.9, 0.5, 0.7, 0.1])
    group = np.array([0, 0, 0, 0, 1, 1, 1])
    label = np.array([0, 1, 0, 1, 0, 0, 0])
    rule = ft.ThresholdRule(np.array([0.5, 0.5]), np.array([0.3, 0.6]))
    rep = ft.evaluate(rule, make_gs(scores, group, label), 0.3)
    assert np.isnan(rep.tpr_a[1]) and np.isnan(rep.disparity("eo")) and np.isnan(rep.disparity("oa"))
    assert rep.fpr_a[1] == pytest.approx(1.6 / 3)
    # expected errors at the ties: group 0 has 0.3 false positives and 0.7 false negatives,
    # group 1 has 0.6 + 1 false positives
    assert rep.accuracy == pytest.approx(1.0 - (0.3 + 0.7 + 1.6) / 7)
    assert rep.cost_risk == pytest.approx((0.3 * (0.3 + 1.6) + 0.7 * 0.7) / 7)
    _assert_matches_the_rows(rule, scores, group, label, 0.3)


def test_evaluate_ddp_matches_positive_rate():
    rng = np.random.default_rng(8)
    for _ in range(10):
        gs = _random_gs(rng)
        rule = ft.ThresholdRule(rng.random(2), rng.random(2))
        rep = ft.evaluate(rule, gs)
        r1 = gs.rate(1, None, rule.thresholds[1], rule.tie_prob[1])
        r0 = gs.rate(0, None, rule.thresholds[0], rule.tie_prob[0])
        assert rep.disparity("dp") == pytest.approx(r1 - r0)
        assert rep.positive_rate_a[1] == pytest.approx(r1)


def test_rate_gap_sum_two_groups_is_swap_invariant_and_nonnegative():
    rng = np.random.default_rng(29)
    for _ in range(30):
        gs = _random_gs(rng)
        rule = ft.ThresholdRule(rng.random(2), rng.random(2) * (rng.random() < 0.5))
        rep = ft.evaluate(rule, gs)
        flipped = ft.ThresholdRule(rule.thresholds[::-1], rule.tie_prob[::-1])
        swapped = ft.evaluate(flipped, swap_groups(gs))
        assert rep.rate_gap_sum >= 0.0
        assert swapped.rate_gap_sum == pytest.approx(rep.rate_gap_sum, abs=1e-15)
        assert swapped.disparity("dp") == pytest.approx(-rep.disparity("dp"), abs=1e-15)
        # |r0 - r| + |r1 - r| = |r1 - r0| when r is the pooled rate
        assert rep.rate_gap_sum == pytest.approx(abs(rep.disparity("dp")), abs=1e-15)


def test_evaluate_multiclass_summed_gap():
    scores = np.array([0.9, 0.1, 0.8, 0.2, 0.7, 0.3])
    group = np.array([0, 0, 1, 1, 2, 2])
    label = np.array([1, 0, 1, 0, 1, 0])
    gs = make_gs(scores, group, label)
    rep = ft.evaluate(ft.ThresholdRule(np.array([0.5, 0.5, 0.5])), gs)
    assert rep.rate_gap_sum == pytest.approx(0.0)  # all groups at rate 1/2
    for measure in MEASURES:  # the signed measures compare two groups
        with pytest.raises(ValueError, match="^binary measures require exactly two groups$"):
            rep.disparity(measure)


def test_disparity_of_each_measure():
    # group 0 at cutoff 0.3: rate 2/3, TPR 1, FPR 0; group 1 at cutoff 0.6: rate, TPR and FPR 1/2
    gs = make_gs([0.9, 0.1, 0.4, 0.8, 0.2, 0.7, 0.5], [0, 0, 0, 1, 1, 1, 1], [1, 0, 1, 1, 0, 0, 1])
    rep = ft.evaluate(ft.ThresholdRule(np.array([0.3, 0.6])), gs)
    want = {"dp": 1 / 2 - 2 / 3, "eo": 1 / 2 - 1, "pe": 1 / 2 - 0, "oa": (1 / 2 - 1 / 2) - (1 - 0)}
    assert {m: rep.disparity(m) for m in MEASURES} == pytest.approx(want)
    with pytest.raises(ValueError, match="^unknown measure 'xx'$"):
        rep.disparity("xx")
