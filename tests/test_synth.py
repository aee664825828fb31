import hashlib
import re

import numpy as np
import pytest

from fairthresh import tabular as tb
from fairthresh.synth import SynthSpec, draw_population, sample

from make_golden import export_csv, export_schema


def test_binary_defaults():
    pop = draw_population(SynthSpec.binary(seed=0))
    assert pop.p_a[1] == 0.7
    assert pop.p_a[0] == pytest.approx(0.3, abs=1e-15)
    assert pop.p_ya.tolist() == [0.4, 0.7]
    assert pop.mu.shape == (2, 2, 10)
    assert np.all((pop.mu >= 0.0) & (pop.mu <= 1.0))
    assert pop.sigma == 1.0


def test_multiclass_group_weights_follow_sqrt_rule():
    p_a = draw_population(SynthSpec.multiclass(3, sigma=2.0, seed=0)).p_a
    w = np.sqrt(np.arange(1, 4))
    assert np.allclose(p_a, w / w.sum())
    # evaluated: (0.2412, 0.3411, 0.4177), summing to one
    assert np.allclose(p_a, (0.24118095, 0.34107871, 0.41774034), atol=1e-8)
    assert sum(p_a) == pytest.approx(1.0)


def test_multiclass_means_are_signed_units():
    pop = draw_population(SynthSpec.multiclass(4, sigma=2.0, seed=1))
    assert pop.sigma == 2.0
    for a in range(4):
        e = np.zeros(4)
        e[a] = 1.0
        assert np.array_equal(pop.mu[a, 1], e)
        assert np.array_equal(pop.mu[a, 0], -e)


def test_multiclass_positive_rates_drawn_per_seed():
    p1 = draw_population(SynthSpec.multiclass(3, sigma=2.0, seed=2)).p_ya
    p2 = draw_population(SynthSpec.multiclass(3, sigma=2.0, seed=3)).p_ya
    assert not np.array_equal(p1, p2)


def test_population_deterministic_per_seed():
    a = draw_population(SynthSpec.binary(seed=7))
    b = draw_population(SynthSpec.binary(seed=7))
    assert np.array_equal(a.mu, b.mu)


def test_sample_deterministic_and_reproducible():
    pop = draw_population(SynthSpec.binary(seed=7))
    d1 = sample(pop, 500, seed=9)
    d2 = sample(pop, 500, seed=9)
    assert np.array_equal(d1.features, d2.features)
    assert np.array_equal(d1.group, d2.group)
    assert np.array_equal(d1.label, d2.label)


def test_sample_single_row():
    pop = draw_population(SynthSpec.binary(seed=0))
    d = sample(pop, 1, seed=0)
    assert d.n == 1


def test_sample_group_rate_concentration():
    pop = draw_population(SynthSpec.binary(seed=3))
    d = sample(pop, 20000, seed=4)
    assert abs(d.group.mean() - 0.7) < 0.02


def test_sample_stratum_mean_concentration():
    pop = draw_population(SynthSpec.binary(dim=4, seed=5))
    d = sample(pop, 30000, seed=6)
    for a in (0, 1):
        for y in (0, 1):
            rows = d.features[(d.group == a) & (d.label == y)]
            bound = 4.0 * pop.sigma / np.sqrt(rows.shape[0])
            assert np.all(np.abs(rows.mean(axis=0) - pop.mu[a, y]) < bound)


def test_spec_validation():
    for args, message in [
        (("gamma", 2, 10, 1.0), "unknown family 'gamma'"),
        (("binary", 1, 10, 1.0), "need at least two groups"),
        (("binary", 2, 0, 1.0), "dim must be >= 1"),
        (("multiclass", 3, 2, 1.0), "signed unit vectors need dim >= n_groups"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            SynthSpec(*args)


@pytest.mark.parametrize("spec, message", [
    (SynthSpec.binary(sigma=0.0), "sigma must be positive"),
    # the binary family fixes two group weights, so a third group has none
    (SynthSpec("binary", 3, 10, 1.0), "mu must have shape (n_groups, 2, dim)"),
])
def test_population_rejects_what_the_spec_leaves_to_it(spec, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        draw_population(spec)


def _digest(make) -> str:
    h = hashlib.sha256()
    for seed in range(3):
        pop = draw_population(make(seed))
        for arr in (pop.p_a, pop.p_ya, pop.mu):
            h.update(arr.tobytes())
    return h.hexdigest()


def test_families_draw_pinned_bits():
    # SHA-256 of the p_a, p_ya and mu bytes of seeds 0-2: a changed family constant
    # or draw order moves them, and with them every synthetic report
    assert _digest(lambda s: SynthSpec.binary(seed=s)) == (
        "e961e4c3164d36afe3178a861bcd8f1903249a1f0d1e1420ffa14c05864de0ee")
    assert _digest(lambda s: SynthSpec.multiclass(5, sigma=1.0, seed=s)) == (
        "98bc9c99d0a6c266d44723513635519a7b8d54b2288f2c4a9f6f70bb86b5f29e")


def test_export_csv_round_trip(tmp_path):
    pop = draw_population(SynthSpec.binary(dim=3, seed=8))
    data = sample(pop, 64, seed=10)
    path = tmp_path / "synth.csv"
    export_csv(data, path)
    schema = export_schema(3)
    loaded, report = tb.encode_rows(tb.read_rows(path, schema), schema)
    assert report.n_dropped == 0
    assert np.array_equal(loaded.features, data.features)  # bit-exact floats
    assert np.array_equal(loaded.group, data.group)
    assert np.array_equal(loaded.label, data.label)
