import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri
from scipy.stats import norm

import fairthresh as ft
from fairthresh import gaussian as ga
from fairthresh.core import DELTA_SLACK, MEASURES
from fairthresh.synth import SynthSpec, draw_population
from _posterior import eta


def make_pop(rng, dim=3, p1=0.55, sigma=1.0):
    return ga.GaussianPopulation(
        p_a=np.array([1 - p1, p1]),
        p_ya=rng.uniform(0.2, 0.8, size=2),
        mu=rng.normal(0.0, 1.0, size=(2, 2, dim)),
        sigma=sigma,
    )


POP = make_pop(np.random.default_rng(1))


def curve_of(pop, measure, cost=0.5):
    """The measure's threshold family with the population's rates."""
    return ft.ThresholdCurve(measure, pop.p_a, pop.p_ya, cost)


def unconstrained(pop, measure, cost=0.5):
    """Population disparity of the unconstrained rule (t = 0)."""
    return curve_of(pop, measure, cost).disparity(pop, 0.0)


# ------------------------------------------------------------------------ eta


def test_eta_equidistant_point_is_half():
    rng = np.random.default_rng(2)
    mu = rng.normal(size=(2, 2, 4))
    pop = ga.GaussianPopulation(
        p_a=np.array([0.5, 0.5]), p_ya=np.array([0.5, 0.5]), mu=mu, sigma=1.0
    )
    x = 0.5 * (mu[0, 0] + mu[0, 1])
    assert eta(pop, x, 0) == pytest.approx(0.5, abs=1e-12)


def test_eta_uninformative_features():
    mu = np.zeros((2, 2, 3))
    pop = ga.GaussianPopulation(
        p_a=np.array([0.4, 0.6]), p_ya=np.array([0.3, 0.7]), mu=mu, sigma=1.0
    )
    x = np.random.default_rng(3).normal(size=3)
    assert eta(pop, x, 0) == pytest.approx(0.3, abs=1e-14)
    assert eta(pop, x, 1) == pytest.approx(0.7, abs=1e-14)


def test_eta_matches_density_ratio():
    rng = np.random.default_rng(4)
    pop = make_pop(rng)
    for _ in range(25):
        x = rng.normal(size=pop.dim)
        a = int(rng.integers(0, 2))
        py = pop.p_ya[a]
        num = py * np.prod(norm.pdf(x, pop.mu[a, 1], pop.sigma))
        den = num + (1 - py) * np.prod(norm.pdf(x, pop.mu[a, 0], pop.sigma))
        assert eta(pop, x, a) == pytest.approx(num / den, abs=1e-12)


def test_eta_dimension_mismatch():
    with pytest.raises(ValueError):
        eta(POP, np.zeros(POP.dim + 1), 0)


# ------------------------------------------------------------------ tail rates


def test_tail_rate_monte_carlo_half():
    rng = np.random.default_rng(5)
    pop = make_pop(rng)
    n = 200_000
    mc = np.random.default_rng(6)
    for a in (0, 1):
        x = pop.mu[a, 1] + pop.sigma * mc.standard_normal((n, pop.dim))
        est = float(np.mean(eta(pop, x, a) > 0.5))
        exact = pop.rate(a, 1, 0.5)
        se = max(np.sqrt(exact * (1 - exact) / n), 1e-9)
        assert abs(est - exact) <= 4 * se


def test_tail_rate_saturation():
    for y in (None, 0, 1):
        assert POP.rate(0, y, 0.0) == POP.rate(0, y, 0.0, tau=0.5) == 1.0
        assert POP.rate(0, y, 1.0) == POP.rate(0, y, 1.0, tau=0.5) == 0.0


def test_tail_rate_point_mass():
    mu = np.zeros((2, 2, 2))
    pop = ga.GaussianPopulation(
        p_a=np.array([0.5, 0.5]), p_ya=np.array([0.6, 0.6]), mu=mu, sigma=1.0
    )
    assert pop.rate(0, None, 0.5) == 1.0  # eta constant at 0.6 > 0.5
    assert pop.rate(0, None, 0.7) == 0.0
    # the atom P(eta = 0.6) = 1, read through the tie probability
    assert pop.rate(0, None, 0.6) == 0.0
    assert pop.rate(0, None, 0.6, tau=1.0) == 1.0


def test_the_marginal_rate_is_the_label_mix_of_the_stratum_rates():
    # group 0 has a normal score law, group 1 the point mass at p_ya[1] = 0.45
    mu = np.array([[[0.0, 0.3], [1.2, -0.4]], [[0.5, 0.5], [0.5, 0.5]]])
    pop = ga.GaussianPopulation(p_a=np.array([0.4, 0.6]), p_ya=np.array([0.3, 0.45]), mu=mu, sigma=1.3)
    assert pop.score_law(0).sd > 0.0 and pop.score_law(1).sd == 0.0
    for a in (0, 1):
        py = float(pop.p_ya[a])
        for q in (1e-12, 0.1, 0.3, np.nextafter(0.45, 0.0), 0.45, np.nextafter(0.45, 1.0), 0.8, 1.0 - 1e-12):
            mix = py * pop.rate(a, 1, q) + (1.0 - py) * pop.rate(a, 0, q)
            assert pop.rate(a, None, q) == mix
            # the tie probability adds the point mass's atom once, after the mix
            atom = a == 1 and py <= q <= py + 1e-15
            assert pop.rate(a, None, q, tau=0.3) == (mix + 0.3 if atom else mix)


def test_score_law_shape():
    law = POP.score_law(1)
    gap = np.linalg.norm(POP.mu[1, 1] - POP.mu[1, 0]) / POP.sigma
    assert law.sd == pytest.approx(gap)
    assert law.mean[1] - law.mean[0] == pytest.approx(gap**2)


# ------------------------------------------------- normal CDF and root finder


def test_ndtr_matches_scipy_on_both_sides_of_the_erf_switch():
    grid = np.concatenate([np.linspace(-37.0, 37.0, 20_001), np.nextafter(1.0, [0.0, 2.0]),
                           np.nextafter(-1.0, [-2.0, 0.0]), [-1.0, 1.0, -0.0, 0.0]])
    ours = np.array([ga._ndtr(float(x)) for x in grid])
    ref = ndtr(grid)
    assert np.max(np.abs(ours - ref)) <= 4.5e-16
    assert np.max(np.abs(ours - ref) / ref) <= 1e-12
    assert ga._ndtr(0.0) == ga._ndtr(-0.0) == 0.5


@pytest.mark.parametrize("f, lo, hi, root", [
    (lambda x: math.tanh(200.0 * (x - 0.3)), 0.0, 1.0, 0.3),  # steep
    (lambda x: 1e-6 - ndtr(-30.0 * (x - 0.8)), 0.0, 1.0, 0.8 - ndtri(1e-6) / 30.0),  # flat tails
    (lambda x: 0.7 - x**3, -1.0, 2.0, 0.7 ** (1.0 / 3.0)),  # decreasing
])
@pytest.mark.parametrize("xtol", [1e-12, 1e-15])
def test_root_lies_within_xtol(f, lo, hi, root, xtol):
    calls = []
    found = ga._root(lambda x: calls.append(x) or f(x), lo, hi, xtol)
    assert abs(found - root) <= xtol + 4e-16
    assert len(calls) <= 40  # bisection needs 40 to 52 steps on these brackets


def test_root_returns_an_exact_zero_at_once():
    calls = []

    def f(x):
        calls.append(x)
        return x - 0.5

    assert ga._root(f, 0.5, 2.0, 1e-12) == 0.5
    assert calls == [0.5, 2.0]
    calls.clear()
    assert ga._root(f, 0.0, 1.0, 1e-12) == 0.5  # the first secant point is the root
    assert calls == [0.0, 1.0, 0.5]


def test_root_names_the_bracket_when_f_keeps_one_sign():
    with pytest.raises(ValueError, match=re.escape("[0.25, 0.75]")):
        ga._root(lambda x: x + 1.0, 0.25, 0.75, 1e-12)


# ------------------------------------------------------------ star disparities


def test_stars_identical_groups_zero():
    rng = np.random.default_rng(8)
    mu_one = rng.normal(size=(1, 2, 3))
    pop = ga.GaussianPopulation(
        p_a=np.array([0.5, 0.5]),
        p_ya=np.array([0.4, 0.4]),
        mu=np.concatenate([mu_one, mu_one]),
        sigma=1.0,
    )
    for measure in ("dp", "eo", "pe", "oa"):
        assert unconstrained(pop, measure) == pytest.approx(0.0, abs=1e-14)


def test_d_star_is_marginal_tail_difference():
    assert unconstrained(POP, "dp") == pytest.approx(
        POP.rate(1, None, 0.5) - POP.rate(0, None, 0.5)
    )


def test_d_star_sign_flips_under_group_swap():
    swapped = ga.GaussianPopulation(
        p_a=POP.p_a[::-1].copy(),
        p_ya=POP.p_ya[::-1].copy(),
        mu=POP.mu[::-1].copy(),
        sigma=POP.sigma,
    )
    d_star = unconstrained(POP, "dp")
    assert unconstrained(swapped, "dp") == pytest.approx(-d_star)


# --------------------------------------------------------------------- t_star


def test_t_star_zero_when_tolerance_vacuous():
    assert ga.t_star(POP, "dp", abs(unconstrained(POP, "dp")) + 0.01) == 0.0


@pytest.mark.parametrize("delta", [-0.1, np.nan])
def test_t_star_rejects_negative_or_nan_delta(delta):
    with pytest.raises(ValueError, match="delta must be >= 0"):
        ga.t_star(POP, "dp", delta)


def test_t_star_symmetric_population():
    base = np.random.default_rng(9).normal(size=(2, 3))
    mu = np.stack([base, base[::-1]])  # mirrored strata across groups
    pop = ga.GaussianPopulation(
        p_a=np.array([0.5, 0.5]), p_ya=np.array([0.5, 0.5]), mu=mu, sigma=1.0
    )
    assert abs(unconstrained(pop, "dp")) < 1e-12
    assert ga.t_star(pop, "dp", 0.0) == 0.0


@pytest.mark.parametrize("measure", ["dp", "eo", "pe", "oa"])
def test_t_star_self_consistency(measure):
    rng = np.random.default_rng(10)
    checked = 0
    while checked < 12:
        pop = make_pop(rng)
        star = unconstrained(pop, measure)
        if abs(star) < 0.05:
            continue
        delta = abs(star) / 2
        t = ga.t_star(pop, measure, delta)
        curve = curve_of(pop, measure)
        achieved = curve.disparity(pop, t)
        assert abs(achieved - np.sign(star) * delta) <= 1e-9
        checked += 1


def test_t_star_cost_family():
    rng = np.random.default_rng(30)
    pop = make_pop(rng)
    star = unconstrained(pop, "dp", cost=0.3)
    delta = abs(star) / 3
    t = ga.t_star(pop, "dp", delta, cost=0.3)
    curve = curve_of(pop, "dp", cost=0.3)
    achieved = curve.disparity(pop, t)
    assert abs(achieved - np.sign(star) * delta) <= 1e-9
    q0, q1 = curve.thresholds(0.0)
    assert (q0, q1) == (0.3, 0.3)


def _measure_disparity(pop, measure, t, cost):
    """The measure's disparity of the family's rule at t, read from :func:`ft.evaluate`."""
    rule = ft.ThresholdRule(np.array(curve_of(pop, measure, cost).thresholds(t)))
    return ft.evaluate(rule, pop, cost).disparity(measure)


@pytest.mark.parametrize("measure", ["dp", "eo", "pe", "oa"])
@pytest.mark.parametrize("cost", [0.5, 0.3])
def test_the_rule_at_t_star_meets_the_tolerance_through_evaluate(measure, cost):
    # _root locates the shift to 1e-13, which the disparity's slope maps to its excess over
    # delta: on seeds 0-39, 1,238 searched cases lay in [-2.2e-13, 1.44e-12] of delta
    for seed in range(10):
        pop = draw_population(SynthSpec.binary(seed=seed))
        d0 = _measure_disparity(pop, measure, 0.0, cost)
        for delta in (0.0, 0.02, 0.05, 0.1):
            t = ga.t_star(pop, measure, delta, cost)
            d = _measure_disparity(pop, measure, t, cost)
            if t == 0.0:
                assert abs(d) <= delta + DELTA_SLACK
            else:
                assert delta - DELTA_SLACK <= abs(d) <= delta + 2 * DELTA_SLACK
                assert np.sign(d) == np.sign(d0)


# group 0's stratum means coincide, so its eta is the constant p_ya[0] = 0.4, a point mass
DEGENERATE = ga.GaussianPopulation(p_a=np.array([0.3, 0.7]), p_ya=np.array([0.4, 0.7]),
                                   mu=np.array([[[0.0], [0.0]], [[0.0], [1.5]]]), sigma=1.0)


@pytest.mark.parametrize("measure", ["dp", "eo", "pe", "oa"])
def test_t_star_rejects_a_degenerate_law_when_it_must_search(measure):
    # without the check, dp, eo and pe stop at t = 0.06, where group 0's cutoff crosses its
    # atom and the disparity jumps past the tolerance: to -0.266, -0.110 and +0.362
    assert abs(unconstrained(DEGENERATE, measure)) > 0.4
    for delta in (0.0, 0.05):
        with pytest.raises(ValueError, match="^degenerate score law in group 0$"):
            ga.t_star(DEGENERATE, measure, delta)


def test_t_star_on_a_degenerate_law_returns_0_when_the_tolerance_is_met():
    assert unconstrained(DEGENERATE, "dp") == pytest.approx(0.762, abs=1e-3)
    assert ga.t_star(DEGENERATE, "dp", 0.8) == 0.0


def _two_group_population(gap, mu1, p_ya, p0):
    """Group 0's stratum means ``gap`` apart on the first axis, group 1's at 0 and ``mu1``."""
    return ga.GaussianPopulation(p_a=np.array([p0, 1.0 - p0]), p_ya=np.array(p_ya),
                                 mu=np.array([[[0.0, 0.0], [gap, 0.0]], [[0.0, 0.0], list(mu1)]]), sigma=1.0)


# Populations whose group-0 score law is a point mass (coincident stratum
# means) or nearly one (means 1e-15 to 1e-2 apart), beside an ordinary group 1
_near_degenerate = st.builds(
    _two_group_population,
    gap=st.just(0.0) | st.builds(lambda e, s: s * 10.0 ** e, st.floats(-15.0, -2.0), st.sampled_from([-1.0, 1.0])),
    mu1=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    p_ya=st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)),
    p0=st.floats(0.1, 0.9),
)


def _narrow(pop):
    """Whether some group's law is a point mass at float resolution (``_require_continuous``)."""
    laws = (pop.score_law(a) for a in range(pop.n_groups))
    return any(law.sd <= ga._NARROWEST * max(1.0, *map(abs, law.mean)) for law in laws)


@given(pop=_near_degenerate, measure=st.sampled_from(sorted(MEASURES)), cost=st.sampled_from([0.5, 0.3]),
       delta=st.sampled_from([0.0, 0.01, 0.05, 0.2]))
# oa families that cannot reach the tolerance: both cutoffs pinned at cost 1/2, and group 1's at 0.3
@example(pop=_two_group_population(0.01, (1.0, -0.5), (0.5, 0.5), 0.5), measure="oa", cost=0.5, delta=0.0)
@example(pop=_two_group_population(0.01, (1.0, -0.5), (0.5, 0.3), 0.5), measure="oa", cost=0.3, delta=0.05)
@settings(max_examples=300, deadline=None)
def test_t_star_on_point_mass_and_near_degenerate_laws(pop, measure, cost, delta):
    # t_star raises "degenerate score law" exactly when it must search a law whose rates step
    # by more than DELTA_SLACK between adjacent cutoffs (a point mass among them; searched, a
    # law of sd 1e-15 gives a shift whose rule misses the tolerance by up to 0.49), and a
    # bracket failure when the rule at the searched end of the bracket, read through
    # evaluate, still misses the tolerance (a cutoff pinned at the cost keeps an oa family
    # from reaching it).  Otherwise the rule's disparity, read back through evaluate, is
    # within DELTA_SLACK of t_star's target delta + DELTA_SLACK, give or take what it moves
    # within the 1e-13 to which the shift is located (near a cutoff of 0 or 1 that can reach
    # 1e-3), or inside the tolerance at t = 0
    star = curve_of(pop, measure, cost).disparity(pop, 0.0)
    searched = abs(star) > delta + DELTA_SLACK
    if searched and _narrow(pop):
        with pytest.raises(ValueError, match="^degenerate score law in group [01]$"):
            ga.t_star(pop, measure, delta, cost)
        return
    lo, hi = curve_of(pop, measure, cost).bracket()
    end = hi if star > 0 else lo
    if searched and np.sign(star) * _measure_disparity(pop, measure, end, cost) > delta + DELTA_SLACK:
        failure = re.escape(f"bracket failure in shift search: the {measure} family at cost {cost} "
                            f"cannot reach tolerance {delta!r}")
        with pytest.raises(ValueError, match=f"^{failure}(; group [01]'s cutoff is pinned at the cost)+$"):
            ga.t_star(pop, measure, delta, cost)
        return
    t = ga.t_star(pop, measure, delta, cost)
    d = _measure_disparity(pop, measure, t, cost)
    if not searched:
        assert t == 0.0 and abs(d) <= delta + DELTA_SLACK
        return
    window = [_measure_disparity(pop, measure, min(max(t + e, lo), hi), cost) for e in (-1e-13, 1e-13)]
    assert abs(np.sign(star) * d - (delta + DELTA_SLACK)) <= DELTA_SLACK + abs(window[1] - window[0])


def bisect_one(pop, measure, delta, cost):
    """Referee for one tolerance: plain bisection of the disparity against the tolerance plus
    DELTA_SLACK, stopped at width 1e-13 or 200 steps."""
    curve = curve_of(pop, measure, cost)
    star = curve.disparity(pop, 0.0)
    bound = delta + DELTA_SLACK
    if abs(star) <= bound:
        return 0.0
    target = bound if star > 0 else -bound
    a, b = (0.0, curve.bracket()[1]) if star > 0 else (curve.bracket()[0], 0.0)
    fa = curve.disparity(pop, a) - target
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = curve.disparity(pop, mid) - target
        if fa * fm > 0:
            a, fa = mid, fm
        else:
            b = mid
        if b - a <= 1e-13:
            break
    return 0.5 * (a + b)


class _Counted:
    """A population whose stratum-rate reads are counted."""

    def __init__(self, pop):
        self.pop, self.p_a, self.p_ya, self.reads = pop, pop.p_a, pop.p_ya, 0

    def rate(self, a, y, q, tau=0.0):
        self.reads += 1
        return self.pop.rate(a, y, q, tau)

    def __getattr__(self, name):  # the rest of the population, such as its score laws
        return getattr(self.pop, name)


REFEREE_CASES = [("dp", 0.5), ("dp", 0.3), ("eo", 0.5), ("pe", 0.5), ("oa", 0.5), ("eo", 0.3), ("pe", 0.7), ("oa", 0.3)]


def referee_grid(measure, cost):
    """12 populations, each with unsorted, repeated and vacuous (at or above |star|) tolerances."""
    rng = np.random.default_rng(17)
    for _ in range(12):
        pop = make_pop(rng, p1=rng.uniform(0.2, 0.8), sigma=rng.uniform(0.5, 2.0))
        star = abs(unconstrained(pop, measure, cost))
        yield pop, [star / 2, 0.0, star * 0.9, star / 2, star, star + 0.1, star * 0.1]


@pytest.mark.parametrize("measure, cost", REFEREE_CASES)
def test_t_star_matches_the_bisection_referee(measure, cost):
    for pop, grid in referee_grid(measure, cost):
        ts = [ga.t_star(pop, measure, delta, cost) for delta in grid]
        assert ts[4] == ts[5] == 0.0
        for delta, t in zip(grid, ts):
            assert abs(t - bisect_one(pop, measure, delta, cost)) <= 2e-13


@pytest.mark.parametrize("measure, cost", REFEREE_CASES)
def test_t_star_reads_at_most_32_disparities_per_tolerance(measure, cost):
    reads_per_disparity = 2 * len(MEASURES[measure])
    for pop, grid in referee_grid(measure, cost):
        for delta in grid:
            counted = _Counted(pop)
            ga.t_star(counted, measure, delta, cost)
            assert counted.reads % reads_per_disparity == 0
            assert counted.reads // reads_per_disparity <= 32


class _FlatPopulation(ga.GaussianPopulation):
    """Group 1's rates sit 0.8 above group 0's at every cutoff."""

    def rate(self, a, y, q, tau=0.0):
        return 0.9 if a == 1 else 0.1


def test_t_star_grid_raises_the_scalar_bracket_failure():
    pop = _FlatPopulation(p_a=POP.p_a, p_ya=POP.p_ya, mu=POP.mu, sigma=1.0)
    for delta in (0.1, 0.0):
        with pytest.raises(ValueError, match="bracket failure in shift search"):
            ga.t_star(pop, "dp", delta)
    counted = _Counted(pop)
    assert ga.t_star(counted, "dp", 0.9) == ga.t_star(pop, "dp", 1.0) == 0.0
    assert counted.reads == 2  # the disparity at t = 0 only: a vacuous tolerance never searches the bracket


T0, SLOPE = 0.05, 1e-3


class _FlickerPopulation(ga.GaussianPopulation):
    """dp disparity SLOPE * (T0 - t) + 1e-13 up to t = T0, then rounding-level noise
    (+-5e-17, its sign flickering with t) up to the end of the bracket."""

    def rate(self, a, y, q, tau=0.0):
        if a == 0:
            return 1e-16
        t = float(curve_of(self, "dp").shift(q, 1))  # group 1's shift is the family parameter
        if t <= T0:
            return 1e-16 + SLOPE * (T0 - t) + 1e-13
        return 1e-16 + (5e-17 if math.sin(1e7 * t) < 0 else -5e-17)


def test_t_star_allows_the_solver_slack_and_ignores_rounding_noise():
    pop = _FlickerPopulation(p_a=POP.p_a, p_ya=POP.p_ya, mu=POP.mu, sigma=1.0)
    curve = curve_of(pop, "dp")
    assert T0 < 0.5 * curve.bracket()[1]
    assert curve.disparity(pop, T0) == pytest.approx(1e-13, rel=1e-3)
    noise = [curve.disparity(pop, t) for t in np.linspace(T0 * 1.01, curve.bracket()[1], 101)]
    assert max(map(abs, noise)) < 1e-16 and min(noise) < 0 < max(noise)
    at_slack = T0 - (DELTA_SLACK - 1e-13) / SLOPE  # where the disparity equals DELTA_SLACK
    assert abs(ga.t_star(pop, "dp", 0.0) - at_slack) <= 1e-12


def test_a_pinned_cutoff_is_named_in_the_bracket_failure():
    # p_ya[1] = 0.7 is the cost: group 1's slope k_1 vanishes and its cutoff stays at 0.7
    pop = draw_population(SynthSpec.binary(dim=3, seed=1))
    assert curve_of(pop, "oa", 0.7).pinned == (1,)
    message = ("bracket failure in shift search: the oa family at cost 0.7 cannot reach tolerance 0.0; "
               "group 1's cutoff is pinned at the cost")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ga.t_star(pop, "oa", 0.0, 0.7)


def _group_risk(pop, a, tails, cost):
    """Group a's share of the exact cost-c risk at each cutoff's (FPR, TPR)."""
    p, py = float(pop.p_a[a]), float(pop.p_ya[a])
    return p * (cost * (1.0 - py) * tails[..., 0] + (1.0 - cost) * py * (1.0 - tails[..., 1]))


def _tails(pop, a, qs):
    """(FPR, TPR) of group a at each cutoff, from the population's exact normal tails."""
    return np.array([[pop.rate(a, 0, q), pop.rate(a, 1, q)] for q in qs])


def _signed_sum(pop, a, tails, measure):
    py = float(pop.p_ya[a])
    rate = {0: tails[..., 0], 1: tails[..., 1], None: py * tails[..., 1] + (1.0 - py) * tails[..., 0]}
    return sum(sgn * rate[y] for y, sgn in MEASURES[measure])


def test_cost_sensitive_families_beat_every_feasible_pair_of_a_cutoff_grid():
    """Referee: no threshold pair of a 1,500-point grid per group with |disparity| <= delta
    has a lower exact cost risk than t_star's rule, for every measure and cost."""
    grid = np.linspace(0.0, 1.0, 1500)
    pinned = 0
    for seed in range(6):
        pop = draw_population(SynthSpec.binary(dim=3, seed=seed))
        tails = [_tails(pop, a, grid) for a in (0, 1)]
        for measure, cost in itertools.product(("dp", "eo", "pe", "oa"), (0.3, 0.5, 0.7)):
            curve = curve_of(pop, measure, cost)
            r0, r1 = (_group_risk(pop, a, tails[a], cost) for a in (0, 1))
            g0, g1 = (_signed_sum(pop, a, tails[a], measure) for a in (0, 1))
            for delta in (0.0, 0.05):
                try:
                    t = ga.t_star(pop, measure, delta, cost)
                except ValueError as exc:
                    assert curve.pinned and "cutoff is pinned at the cost" in str(exc)
                    pinned += 1
                    continue
                q0, q1 = curve.thresholds(t)
                assert abs(curve.disparity(pop, t)) <= delta + 1e-9
                family = sum(_group_risk(pop, a, _tails(pop, a, [q])[0], cost) for a, q in ((0, q0), (1, q1)))
                feasible = np.abs(g1[None, :] - g0[:, None]) <= delta
                best = np.min(np.where(feasible, r0[:, None] + r1[None, :], np.inf))
                assert family <= best + 1e-12, (seed, measure, cost, delta, family - best)
    assert pinned > 0


def test_population_disparity_strictly_decreasing():
    rng = np.random.default_rng(12)
    pop = make_pop(rng)
    for measure in ("dp", "eo", "pe", "oa"):
        curve = curve_of(pop, measure)
        lo, hi = curve.bracket()
        grid = np.linspace(lo + 1e-9, hi - 1e-9, 201)
        vals = [curve.disparity(pop, float(t)) for t in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("measure", ["dp", "eo", "pe", "oa"])
def test_population_disparity_is_the_tail_rate_difference_bit_for_bit(measure):
    pop = make_pop(np.random.default_rng(14))
    curve = curve_of(pop, measure)
    lo, hi = curve.bracket()
    for t in np.linspace(lo, hi, 41)[1:-1].tolist():
        q0, q1 = curve.thresholds(t)
        r = {(a, y): pop.rate(a, y, q1 if a else q0) for a in (0, 1) for y in (None, 0, 1)}
        got = curve.disparity(pop, t)
        if measure == "oa":
            # the sample's association; r11 - r10 - r01 + r00 agrees to rounding
            assert got == (r[1, 1] - r[1, 0]) - (r[0, 1] - r[0, 0])
            assert got == pytest.approx(r[1, 1] - r[1, 0] - r[0, 1] + r[0, 0], rel=0.0, abs=4e-16)
        else:
            y = {"dp": None, "eo": 1, "pe": 0}[measure]
            assert got == r[1, y] - r[0, y]


def test_population_rate_puts_tau_on_the_atom_of_a_degenerate_law():
    # coincident stratum means in group 1: eta is the constant p_ya[1] = 0.3 there
    mu = np.random.default_rng(18).normal(size=(2, 2, 2))
    mu[1, 1] = mu[1, 0]
    pop = ga.GaussianPopulation(p_a=np.array([0.5, 0.5]), p_ya=np.array([0.6, 0.3]), mu=mu, sigma=1.0)
    assert pop.score_law(1).sd == 0.0
    for y in (None, 0, 1):
        assert pop.rate(1, y, 0.3) == 0.0
        assert pop.rate(1, y, 0.3, tau=0.25) == 0.25
        assert pop.rate(1, y, 0.2, tau=0.25) == 1.0
        assert pop.rate(1, y, 0.4, tau=0.25) == 0.0
        # a cutoff one ulp below the atom counts its mass as above, and never again as a tie
        assert pop.rate(1, y, np.nextafter(0.3, 0.0), tau=0.5) == 1.0
        assert pop.rate(1, y, np.nextafter(0.3, 1.0), tau=0.5) == 0.5
        assert pop.rate(1, y, 0.3 + 1e-14, tau=0.5) == 0.0
        # a non-degenerate law has no atom, so tau changes nothing
        assert pop.rate(0, y, 0.45, tau=0.25) == pop.rate(0, y, 0.45)
    # the marginal adds the atom after mixing the strata: mixing 0.3 * 0.1 + 0.7 * 0.1
    # would give 0.09999999999999999
    assert pop.rate(1, None, 0.3, tau=0.1) == 0.1
    rule = ft.ThresholdRule(np.array([0.5, 0.3]), np.array([0.0, 0.25]))
    assert ga.fair_accuracy(pop, rule) == pytest.approx(
        ga.fair_accuracy(pop, ft.ThresholdRule(np.array([0.5, 0.3]))) + 0.5 * 0.25 * (0.3 - 0.7)
    )


# ------------------------------------------------------------------- accuracy


def test_fair_accuracy_uninformative_features_both_branches():
    mu = np.zeros((2, 2, 2))
    pop = ga.GaussianPopulation(
        p_a=np.array([0.5, 0.5]), p_ya=np.array([0.6, 0.3]), mu=mu, sigma=1.0
    )
    # scores sit exactly at p_ya: group 0 (0.6 > 1/2) predicted 1, group 1 not
    rule = ft.ThresholdRule(np.array([0.5, 0.5]))
    assert ga.fair_accuracy(pop, rule) == pytest.approx(0.5 * 0.6 + 0.5 * 0.7)


def test_fair_accuracy_maximal_at_half():
    rng = np.random.default_rng(13)
    pop = make_pop(rng)
    best = ga.fair_accuracy(pop, ft.ThresholdRule(np.array([0.5, 0.5])))
    for q0 in np.linspace(0.05, 0.95, 13):
        for q1 in np.linspace(0.05, 0.95, 13):
            acc = ga.fair_accuracy(pop, ft.ThresholdRule(np.array([q0, q1])))
            assert acc <= best + 1e-12


def test_fair_accuracy_constant_negative_classifier():
    acc = ga.fair_accuracy(POP, ft.ThresholdRule(np.array([1.0, 1.0])))
    expect = float(np.sum(POP.p_a * (1.0 - POP.p_ya)))
    assert acc == pytest.approx(expect, abs=1e-12)


# ----------------------------------------------------------------- multiclass


def test_oracle_multiclass_identical_groups():
    rng = np.random.default_rng(15)
    mu_one = rng.normal(size=(1, 2, 3))
    pop = ga.GaussianPopulation(
        p_a=np.array([1 / 3, 1 / 3, 1 / 3]),
        p_ya=np.array([0.45, 0.45, 0.45]),
        mu=np.concatenate([mu_one, mu_one, mu_one]),
        sigma=1.0,
    )
    orc = ga.oracle_multiclass_dp(pop)
    assert np.allclose(orc.t_a, 0.0, atol=1e-9)
    assert orc.common_rate == pytest.approx(pop.rate(0, None, 0.5), abs=1e-9)


def test_oracle_multiclass_matches_binary_t_star():
    rng = np.random.default_rng(16)
    pop = make_pop(rng)
    orc = ga.oracle_multiclass_dp(pop)
    t_bin = ga.t_star(pop, "dp", 0.0)
    assert orc.t_a[1] == pytest.approx(t_bin, abs=1e-7)
    assert orc.t_a[0] == pytest.approx(-t_bin, abs=1e-7)


def test_oracle_multiclass_equalizes_rates():
    # seed 256 has a common rate of 0.9999984, where the shifts are steep in the rate
    for seed in (17, 256):
        spec = ft.SynthSpec.multiclass(3, sigma=2.0, seed=seed)
        pop = ft.draw_population(spec)
        orc = ga.oracle_multiclass_dp(pop)
        rates = np.array([pop.rate(a, None, q) for a, q in enumerate(orc.rule.thresholds)])
        assert rates.max() - rates.min() <= 1e-9
        assert abs(orc.sum_residual) <= 1e-9


def test_oracle_multiclass_rejects_degenerate_law():
    pop = ga.GaussianPopulation(
        p_a=np.array([0.5, 0.5]),
        p_ya=np.array([0.4, 0.6]),
        mu=np.zeros((2, 2, 2)),
        sigma=1.0,
    )
    with pytest.raises(ValueError, match="degenerate"):
        ga.oracle_multiclass_dp(pop)


# ----------------------------------------------------------------- validation


def test_population_validation():
    with pytest.raises(ValueError):
        ga.GaussianPopulation(np.array([0.5, 0.6]), np.array([0.5, 0.5]), np.zeros((2, 2, 1)), 1.0)
    with pytest.raises(ValueError):
        ga.GaussianPopulation(np.array([0.5, 0.5]), np.array([0.0, 0.5]), np.zeros((2, 2, 1)), 1.0)
    for sigma in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            ga.GaussianPopulation(np.array([0.5, 0.5]), np.array([0.5, 0.5]), np.zeros((2, 2, 1)), sigma)
