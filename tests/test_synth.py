"""Seeded synthetic families: determinism, parameter grids, moment sanity."""

import math

import numpy as np
import pytest

from divknn import synth
from divknn.errors import ConfigError


# ---------------------------------------------------------------------------
# Determinism.

def test_same_seed_bit_identical():
    a, _, _ = synth.gen_param_grid("ggrid", seed=3, samples_per_group=50)
    b, _, _ = synth.gen_param_grid("ggrid", seed=3, samples_per_group=50)
    for ga, gb in zip(a.groups, b.groups):
        assert ga.id == gb.id
        assert np.array_equal(ga.points, gb.points)


def test_different_seeds_differ():
    a, _, _ = synth.gen_noisy_sine(3, seed=0, samples_per_group=40)
    b, _, _ = synth.gen_noisy_sine(3, seed=1, samples_per_group=40)
    assert not np.array_equal(a.groups[0].points, b.groups[0].points)


# ---------------------------------------------------------------------------
# Parameter grids.

def test_grid_shape_and_parameters():
    ds, names, params = synth.gen_param_grid("ggrid", seed=0,
                                             samples_per_group=30)
    assert len(ds) == 100
    assert ds.dim == 1
    assert names == ("mean", "std")
    means = sorted({params[g][0] for g in ds.ids})
    stds = sorted({params[g][1] for g in ds.ids})
    assert means == pytest.approx(np.linspace(0.0, 1.0, 10).tolist())
    assert stds == pytest.approx(np.linspace(0.3, 0.7, 10).tolist())


def test_gaussian_grid_moments_within_sampling_bands():
    # deterministic at this seed; 4 standard errors leaves no flake room
    ds, _, params = synth.gen_param_grid("ggrid", seed=12)
    for g in ds.groups:
        mean, std = params[g.id]
        n = g.size
        se_mean = std / math.sqrt(n)
        assert abs(g.points.mean() - mean) < 4.0 * se_mean
        se_std = std / math.sqrt(2.0 * (n - 1))
        assert abs(g.points.std(ddof=1) - std) < 4.0 * se_std


def test_uniform_grid_support_and_moments():
    ds, _, params = synth.gen_param_grid("ugrid", seed=5)
    for g in ds.groups:
        mean, std = params[g.id]
        half = math.sqrt(3.0) * std
        assert g.points.min() >= mean - half
        assert g.points.max() <= mean + half
        assert abs(g.points.mean() - mean) < 4.0 * std / math.sqrt(g.size)


def test_beta_grid_support_and_parameters():
    ds, names, params = synth.gen_param_grid("bgrid", seed=7,
                                             samples_per_group=200)
    assert names == ("alpha", "beta")
    lo = sorted({params[g][0] for g in ds.ids})
    assert lo == pytest.approx(np.linspace(0.7, 3.0, 10).tolist())
    for g in ds.groups:
        assert g.points.min() > 0.0
        assert g.points.max() < 1.0


_GENERATOR_COUNTS = [
    ("n_groups", lambda n: synth.gen_noisy_sine(n, 0, 50)),
    ("samples_per_group", lambda n: synth.gen_noisy_sine(2, 0, n)),
    ("samples_per_group", lambda n: synth.gen_param_grid("ggrid", 0, n)),
    ("n_normal", lambda n: synth.gen_sine_anomaly_scenario(n, 1, 0, 50)),
    ("n_anom", lambda n: synth.gen_sine_anomaly_scenario(2, n, 0, 50)),
    ("n_classes", lambda n: synth.gen_gaussian_classes(0, n_classes=n)),
    ("groups_per_class", lambda n: synth.gen_gaussian_classes(0, groups_per_class=n)),
]


@pytest.mark.parametrize("name, call", _GENERATOR_COUNTS)
@pytest.mark.parametrize("count", [2.5, 2.0, np.float64(3.0), True, False, "2", None])
def test_generator_counts_must_be_integers(name, call, count):
    # a bool ran as 1 group or anomaly, a float raised a bare TypeError
    with pytest.raises(ConfigError) as info:
        call(count)
    assert str(info.value) == f"{name} must be an integer, got {count!r}"


@pytest.mark.parametrize("seed", [0.5, 1.0, True, False, -1, "0", None])
def test_generator_seeds_must_be_nonnegative_integers(seed):
    scenario = synth.gen_sine_anomaly_scenario(3, 1, 0, 20)[0]
    for call in (lambda: synth.gen_param_grid("ggrid", seed, 20),
                 lambda: synth.gen_noisy_sine(2, seed, 20),
                 lambda: synth.gen_sine_anomaly_scenario(2, 1, seed, 20),
                 lambda: synth.gen_gaussian_classes(seed, 2, 1, 20),
                 lambda: synth.split_scenario(scenario, seed)):
        with pytest.raises(ConfigError) as info:
            call()
        assert str(info.value) == f"seed must be a nonnegative integer, got {seed!r}"


def test_numpy_integer_counts_and_seeds_keep_their_bits():
    ds, _, params = synth.gen_noisy_sine(3, 4, 50)
    got, _, got_params = synth.gen_noisy_sine(np.int32(3), np.uint64(4), np.int16(50))
    assert got_params == params
    for g, h in zip(ds.groups, got.groups):
        assert g.id == h.id and np.array_equal(g.points, h.points)


def test_grid_rejects_unknown_family():
    with pytest.raises(ConfigError):
        synth.gen_param_grid("cauchy", seed=0)
    with pytest.raises(ConfigError):
        synth.gen_param_grid("ggrid", seed=0, samples_per_group=0)


# ---------------------------------------------------------------------------
# Noisy sine family.

def test_sine_layout():
    ds, names, params = synth.gen_noisy_sine(12, seed=0,
                                             samples_per_group=500)
    assert len(ds) == 12
    assert ds.dim == 2
    assert names == ("theta",)
    assert ds.ids == tuple(f"s{i:02d}" for i in range(12))
    for g in ds.ids:
        assert 2.0 <= params[g][0] <= 4.0


def test_sine_coordinate_ranges():
    ds, _, params = synth.gen_noisy_sine(6, seed=1, samples_per_group=3000)
    for g in ds.groups:
        x, y = g.points[:, 0], g.points[:, 1]
        assert x.min() >= 0.0 and x.max() <= 2.0 * math.pi
        # amplitude 1 plus 5-sigma noise tails
        assert np.abs(y).max() < 1.0 + 5.0 * synth.SINE_NOISE_STD
        # y tracks the curve: residual noise has the configured spread
        resid = y - np.sin(params[g.id][0] * x)
        assert abs(resid.std(ddof=1) - synth.SINE_NOISE_STD) < 0.02


# ---------------------------------------------------------------------------
# Anomaly scenario.

def test_anomaly_scenario_counts_and_labels():
    ds, _, params = synth.gen_sine_anomaly_scenario(7, 3, seed=2,
                                                    samples_per_group=300)
    assert len(ds) == 10
    normals = [g for g in ds.groups if g.label == "normal"]
    anoms = [g for g in ds.groups if g.label == "anomaly"]
    assert len(normals) == 7 and len(anoms) == 3
    for g in anoms:
        assert params[g.id][0] == synth.ANOMALY_THETA
    flags = synth.anomaly_flags(ds)
    assert sum(v == "1" for v in flags.values()) == 3


def test_anomalous_points_sit_inside_normal_bounding_box():
    # the anomaly is a group-level property: no individual point falls
    # outside the envelope (10% margin) of the normal population
    ds, _, _ = synth.gen_sine_anomaly_scenario(40, 10, seed=0,
                                               samples_per_group=1000)
    normal_pts = np.vstack([g.points for g in ds.groups if g.label == "normal"])
    lo, hi = normal_pts.min(axis=0), normal_pts.max(axis=0)
    margin = 0.1 * (hi - lo)
    for g in ds.groups:
        if g.label != "anomaly":
            continue
        assert (g.points >= lo - margin).all()
        assert (g.points <= hi + margin).all()


def test_split_scenario():
    ds, _, _ = synth.gen_sine_anomaly_scenario(40, 10, seed=3,
                                               samples_per_group=100)
    train, test = synth.split_scenario(ds, seed=3)
    assert len(train) == 30
    assert len(test) == 20
    assert all(g.label == "normal" for g in train.groups)
    assert sum(g.label == "anomaly" for g in test.groups) == 10
    again, _ = synth.split_scenario(ds, seed=3)
    assert again.ids == train.ids
    with pytest.raises(ConfigError):
        synth.split_scenario(ds, seed=0, train_frac=1.5)


# ---------------------------------------------------------------------------
# Labeled Gaussian classes.

def test_gaussian_classes_layout():
    ds, labels = synth.gen_gaussian_classes(seed=0, n_classes=3,
                                            groups_per_class=4,
                                            samples_per_group=500)
    assert len(ds) == 12
    assert sorted(set(labels.values())) == ["c0", "c1", "c2"]
    for g in ds.groups:
        c = int(g.label[1:])
        assert abs(g.points.mean() - c) < 4.0 * 0.5 / math.sqrt(500)


def test_gaussian_classes_validation():
    with pytest.raises(ConfigError):
        synth.gen_gaussian_classes(seed=0, n_classes=1)
    with pytest.raises(ConfigError):
        synth.gen_gaussian_classes(seed=0, groups_per_class=0)
