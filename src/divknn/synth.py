"""Seeded synthetic families: parameter grids, noisy sine curves, anomalies.

All generators draw from a counter-based Philox stream seeded by the
caller, so identical arguments give bit-identical datasets on any
platform. Group ids are zero-padded so that lexicographic dataset
order equals generation order.
"""

from __future__ import annotations

import math

import numpy as np

from .dataset import Dataset, Group
from .errors import ConfigError
from .knn import _is_count

GRID_SIDE = 10
GRID_SAMPLES = 2000
SINE_SAMPLES = 3000
SINE_NOISE_STD = 0.3
SINE_THETA_RANGE = (2.0, 4.0)
ANOMALY_THETA = 8.0

GAUSSIAN_GRID = "ggrid"
UNIFORM_GRID = "ugrid"
BETA_GRID = "bgrid"
GRID_FAMILIES = (GAUSSIAN_GRID, UNIFORM_GRID, BETA_GRID)


def _rng(seed: int) -> np.random.Generator:
    """The Philox stream of a seed, which must be a count (``knn._is_count``)
    of at least 0: every seeded draw of the generators and the tasks."""
    if not (_is_count(seed) and seed >= 0):
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")
    return np.random.Generator(np.random.Philox(seed))


def _check_count(name: str, n) -> None:
    """ConfigError unless n is a count (``knn._is_count``); the caller
    checks its range."""
    if not _is_count(n):
        raise ConfigError(f"{name} must be an integer, got {n!r}")


def _check_samples(n: int) -> None:
    _check_count("samples_per_group", n)
    if n < 1:
        raise ConfigError(f"samples_per_group must be positive, got {n}")


def gen_param_grid(family: str, seed: int,
                   samples_per_group: int = GRID_SAMPLES):
    """One hundred 1-D groups over a 10x10 parameter grid.

    Gaussian and uniform families sweep mean over [0, 1] and standard
    deviation over [0.3, 0.7]; the uniform family converts (mean, std)
    to interval endpoints mean +/- sqrt(3)*std so the stated moments
    are exact. The beta family sweeps both shape parameters over
    [0.7, 3]. Returns the dataset, the parameter column names, and an
    id -> (param1, param2) mapping.
    """
    if family not in GRID_FAMILIES:
        raise ConfigError(f"unknown grid family {family!r}; use one of {GRID_FAMILIES}")
    _check_samples(samples_per_group)
    rng = _rng(seed)
    if family == BETA_GRID:
        first = second = np.linspace(0.7, 3.0, GRID_SIDE)
        names = ("alpha", "beta")
    else:
        first = np.linspace(0.0, 1.0, GRID_SIDE)
        second = np.linspace(0.3, 0.7, GRID_SIDE)
        names = ("mean", "std")
    groups = []
    params: dict[str, tuple[float, float]] = {}
    for i, a in enumerate(first):
        for j, b in enumerate(second):
            gid = f"g{i}{j}"
            if family == GAUSSIAN_GRID:
                pts = rng.normal(a, b, samples_per_group)
            elif family == UNIFORM_GRID:
                half_width = math.sqrt(3.0) * b
                pts = rng.uniform(a - half_width, a + half_width, samples_per_group)
            else:
                pts = rng.beta(a, b, samples_per_group)
            groups.append(Group(gid, pts.reshape(-1, 1)))
            params[gid] = (float(a), float(b))
    return Dataset(tuple(groups)), names, params


def _sine_group(gid: str, theta: float, n: int, label: str | None,
                rng: np.random.Generator) -> Group:
    # Noise perturbs y only. Noise on x as well smears the phase theta*x
    # by N(0, (theta*sigma)^2), which washes out the joint structure of
    # high-frequency groups and with it the frequency anomaly signal.
    x = rng.uniform(0.0, 2.0 * math.pi, n)
    y = np.sin(theta * x) + rng.normal(0.0, SINE_NOISE_STD, n)
    return Group(gid, np.column_stack([x, y]), label)


def gen_noisy_sine(n_groups: int, seed: int,
                   samples_per_group: int = SINE_SAMPLES):
    """2-D groups sampled around sine curves of random frequency.

    Each group draws a frequency theta uniformly from [2, 4], samples x
    uniformly on [0, 2*pi], and sets y = sin(theta*x) + N(0, 0.3^2)
    noise. Returns the dataset, the parameter column names, and an
    id -> (theta,) mapping.
    """
    _check_count("n_groups", n_groups)
    if n_groups < 1:
        raise ConfigError(f"n_groups must be positive, got {n_groups}")
    _check_samples(samples_per_group)
    rng = _rng(seed)
    width = max(2, len(str(n_groups - 1)))
    groups = []
    params: dict[str, tuple[float]] = {}
    for i in range(n_groups):
        gid = f"s{i:0{width}d}"
        theta = rng.uniform(*SINE_THETA_RANGE)
        groups.append(_sine_group(gid, theta, samples_per_group, None, rng))
        params[gid] = (theta,)
    return Dataset(tuple(groups)), ("theta",), params


def gen_sine_anomaly_scenario(n_normal: int, n_anom: int, seed: int,
                              samples_per_group: int = SINE_SAMPLES):
    """Labeled sine dataset with frequency-outlier groups mixed in.

    Normal groups use random frequencies from [2, 4]; anomalous groups
    use the fixed out-of-range frequency 8. Every individual point
    still looks unremarkable (same amplitude, same x range, same
    noise), so the anomaly exists only at the group level. Labels are
    'normal' / 'anomaly'. Returns the dataset, the parameter column
    names, and an id -> (theta,) mapping.
    """
    _check_count("n_normal", n_normal)
    _check_count("n_anom", n_anom)
    if n_normal < 1 or n_anom < 1:
        raise ConfigError("need at least one normal and one anomalous group")
    _check_samples(samples_per_group)
    rng = _rng(seed)
    width = max(2, len(str(max(n_normal, n_anom) - 1)))
    groups = []
    params: dict[str, tuple[float]] = {}
    for i in range(n_normal):
        gid = f"n{i:0{width}d}"
        theta = rng.uniform(*SINE_THETA_RANGE)
        groups.append(_sine_group(gid, theta, samples_per_group, "normal", rng))
        params[gid] = (theta,)
    for i in range(n_anom):
        gid = f"a{i:0{width}d}"
        groups.append(_sine_group(gid, ANOMALY_THETA, samples_per_group, "anomaly", rng))
        params[gid] = (ANOMALY_THETA,)
    return Dataset(tuple(groups)), ("theta",), params


def gen_gaussian_classes(seed: int, n_classes: int = 4,
                         groups_per_class: int = 20,
                         samples_per_group: int = 1000,
                         std: float = 0.5):
    """Labeled 1-D Gaussian groups with class means 0, 1, ..., n_classes-1.

    Returns (dataset, labels) where labels maps group id to its class
    name c0, c1, ... Group ids interleave class and replicate indices so
    adjacent ids never imply adjacent classes.
    """
    _check_count("n_classes", n_classes)
    _check_count("groups_per_class", groups_per_class)
    if n_classes < 2:
        raise ConfigError(f"need at least 2 classes, got {n_classes}")
    if groups_per_class < 1:
        raise ConfigError(f"groups_per_class must be positive, got {groups_per_class}")
    _check_samples(samples_per_group)
    rng = _rng(seed)
    groups = []
    for c in range(n_classes):
        for r in range(groups_per_class):
            pts = rng.normal(float(c), std, size=(samples_per_group, 1))
            groups.append(Group(f"c{c}r{r:02d}", pts, label=f"c{c}"))
    ds = Dataset(tuple(groups))
    return ds, {g.id: g.label for g in ds.groups}


def anomaly_flags(ds: Dataset) -> dict[str, str]:
    """Binary flag table ('1' = anomalous) from the scenario labels."""
    return {g.id: "1" if g.label == "anomaly" else "0" for g in ds.groups}


def split_scenario(ds: Dataset, seed: int, train_frac: float = 0.75):
    """Split a labeled anomaly scenario into train and test datasets.

    The training set is a seeded random train_frac share of the normal
    groups only; the test set holds the remaining normals plus every
    anomalous group. With 40 normals and 10 anomalies at the default
    fraction the test set comes out balanced.
    """
    if not 0.0 < train_frac < 1.0:
        raise ConfigError(f"train_frac must lie in (0, 1), got {train_frac}")
    normals = [g for g in ds.groups if g.label == "normal"]
    anoms = [g for g in ds.groups if g.label == "anomaly"]
    if not normals or not anoms:
        raise ConfigError("scenario needs both 'normal' and 'anomaly' groups")
    rng = _rng(seed)
    order = rng.permutation(len(normals))
    n_train = int(round(train_frac * len(normals)))
    if not 0 < n_train < len(normals):
        raise ConfigError(
            f"train fraction {train_frac} leaves an empty split for "
            f"{len(normals)} normal groups"
        )
    train = [normals[i] for i in order[:n_train]]
    test = [normals[i] for i in order[n_train:]] + anoms
    return Dataset(tuple(train)), Dataset(tuple(test))
