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
    spec = SynthSpec.multiclass(3, seed=0)
    w = np.sqrt(np.arange(1, 4))
    assert np.allclose(spec.p_a, w / w.sum())
    # evaluated: (0.2412, 0.3411, 0.4177), summing to one
    assert np.allclose(spec.p_a, (0.24118095, 0.34107871, 0.41774034), atol=1e-8)
    assert sum(spec.p_a) == pytest.approx(1.0)


def test_multiclass_means_are_signed_units():
    pop = draw_population(SynthSpec.multiclass(4, seed=1))
    assert pop.sigma == 2.0
    for a in range(4):
        e = np.zeros(4)
        e[a] = 1.0
        assert np.array_equal(pop.mu[a, 1], e)
        assert np.array_equal(pop.mu[a, 0], -e)


def test_multiclass_positive_rates_drawn_per_seed():
    p1 = draw_population(SynthSpec.multiclass(3, seed=2)).p_ya
    p2 = draw_population(SynthSpec.multiclass(3, seed=3)).p_ya
    assert not np.array_equal(p1, p2)
    fixed = draw_population(SynthSpec.multiclass(3, p_ya=(0.2, 0.5, 0.8), seed=2)).p_ya
    assert fixed.tolist() == [0.2, 0.5, 0.8]


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
    with pytest.raises(ValueError):
        SynthSpec(n_groups=2, p_a=(0.5, 0.6))
    with pytest.raises(ValueError):
        SynthSpec(n_groups=2, sigma=0.0)
    with pytest.raises(ValueError):
        SynthSpec(n_groups=3, dim=2, p_a=(0.3, 0.3, 0.4), mean_mode="signed-unit-vectors")


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
