"""Divergence estimators: correction factor, hand cases, invariances."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divknn import baselines
from divknn import estimators as est
from divknn.dataset import Dataset, Group
from divknn.errors import (
    ConfigError,
    ContractError,
    DegenerateDistanceError,
    NonFiniteEstimateError,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# Hand evaluation of the k=1, alpha=0.5 estimator on x = {0, 2}, y = {1}:
# both terms equal sqrt(2), the correction factor is 2/pi, so the
# estimated power integral is 2*sqrt(2)/pi.
HAND_ALPHA_INTEGRAL = 0.9003163161571062
HAND_RENYI = 0.21001823001896415

# Gamma(5)^2 / (Gamma(5.5) Gamma(4.5)), frozen from a 40-digit
# arbitrary-precision evaluation.
B_5_HALF = 0.9460660635347348


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def _pair(seed, n=400, m=400, d=1, shift=1.0):
    rng = _rng(seed)
    x = rng.normal(0.0, 1.0, size=(n, d))
    y = rng.normal(0.0, 1.0, size=(m, d)) + shift
    return x, y


# ---------------------------------------------------------------------------
# Correction factor.

def test_correction_factor_exact_rational_cell():
    # Gamma(5)^2/(Gamma(6)Gamma(4)) = 1/5 * 4!/3! * ... = (k-1)/k
    assert est.correction_factor(5, 0.0) == 0.8


def test_correction_factor_frozen_cell():
    assert math.isclose(est.correction_factor(5, 0.5), B_5_HALF, rel_tol=1e-14)


def test_correction_factor_alpha_one_is_identity():
    for k in (1, 2, 7, 31):
        assert est.correction_factor(k, 1.0) == 1.0


@settings(max_examples=80, deadline=None)
@given(
    k=st.integers(1, 60),
    alpha=st.floats(-0.5, 1.9, allow_nan=False),
)
def test_correction_factor_swap_symmetry(k, alpha):
    # B depends on alpha only through |alpha - 1|
    if k <= abs(alpha - 1.0):
        return
    a = est.correction_factor(k, alpha)
    b = est.correction_factor(k, 2.0 - alpha)
    assert math.isclose(a, b, rel_tol=1e-12)


def test_correction_factor_domain_error():
    with pytest.raises(ConfigError):
        est.correction_factor(1, -0.5)
    with pytest.raises(ConfigError):
        est.correction_factor(1, 0.0)
    with pytest.raises(ConfigError):
        est.correction_factor(0, 0.5)


# ---------------------------------------------------------------------------
# Hand-evaluated estimates.

def test_alpha_integral_hand_case():
    x = [[0.0], [2.0]]
    y = [[1.0]]
    got = est.alpha_integral(x, y, k=1, alpha=0.5)
    assert math.isclose(got, HAND_ALPHA_INTEGRAL, rel_tol=1e-14)
    assert math.isclose(got, 2.0 * math.sqrt(2.0) / math.pi, rel_tol=1e-14)


def test_renyi_hand_case():
    got = est.renyi_divergence([[0.0], [2.0]], [[1.0]], k=1, alpha=0.5)
    assert math.isclose(got, HAND_RENYI, rel_tol=1e-13)
    assert math.isclose(got, math.log(HAND_ALPHA_INTEGRAL) / (0.5 - 1.0),
                        rel_tol=1e-13)


def test_alpha_integral_is_linear_in_correction_factor():
    # the estimate is (sample mean) * B, so dividing it by B recovers
    # the plain mean of the per-point terms
    x, y = _pair(0, n=200, m=150)
    k, alpha = 6, 0.3
    val = est.alpha_integral(x, y, k, alpha)
    b = est.correction_factor(k, alpha)
    ratio = (len(y) / (len(x) - 1.0))
    terms = []
    from divknn import knn
    rho = knn.kth_nn_within(knn.build_index(x), k)
    nu = knn.kth_nn_cross(x, knn.build_index(y), k)
    terms = ((rho / nu) / ratio) ** (1.0 - alpha)
    assert math.isclose(val, float(np.mean(terms)) * b, rel_tol=1e-12)


def test_l2_hand_case_identical_spacing():
    # x = {0,2,4}, y = {1,3}, k is too small to be legal below 3
    with pytest.raises(ConfigError):
        est.l2_squared([[0.0], [2.0], [4.0]], [[1.0], [3.0]], k=2)


# ---------------------------------------------------------------------------
# Invariances.

def test_translation_invariance():
    x, y = _pair(1, d=2)
    shift = np.array([12.25, -3.5])
    a = est.renyi_divergence(x, y, 8, 0.5)
    b = est.renyi_divergence(x + shift, y + shift, 8, 0.5)
    assert math.isclose(a, b, rel_tol=1e-10)
    al = est.l2_squared(x, y, 8)
    bl = est.l2_squared(x + shift, y + shift, 8)
    assert math.isclose(al, bl, rel_tol=1e-8)


def test_renyi_joint_scaling_invariance():
    # rho/nu ratios are scale free, so the divergence estimate is too
    x, y = _pair(2, d=2)
    a = est.renyi_divergence(x, y, 8, 0.5)
    b = est.renyi_divergence(2.0 * x, 2.0 * y, 8, 0.5)
    assert math.isclose(a, b, rel_tol=1e-12)


def test_l2_scaling_law_power_of_two():
    # stretching space by s multiplies (p - q)^2 mass by s^-d; with
    # s = 2 every floating-point step scales exactly
    x, y = _pair(3, d=1)
    base = est.l2_squared(x, y, 5)
    assert est.l2_squared(2.0 * x, 2.0 * y, 5) == base / 2.0
    x2, y2 = _pair(4, d=2)
    base2 = est.l2_squared(x2, y2, 5)
    assert math.isclose(est.l2_squared(2.0 * x2, 2.0 * y2, 5),
                        base2 / 4.0, rel_tol=1e-13)


def test_alpha_integral_direction_swap_matches_alpha_flip():
    # integral of p^a q^(1-a) equals integral of q^(1-a) p^a read the
    # other way round; estimates agree only in distribution, but at
    # alpha = 0.5 the target is symmetric so both directions estimate
    # the same number
    x, y = _pair(5, n=2000, m=2000)
    fwd = est.alpha_integral(x, y, 10, 0.5)
    rev = est.alpha_integral(y, x, 10, 0.5)
    assert math.isclose(fwd, rev, rel_tol=0.1)


def test_workers_bitwise_identical():
    x, y = _pair(6, n=500, m=400, d=2)
    assert est.renyi_divergence(x, y, 7, 0.5) == est.renyi_divergence(
        x, y, 7, 0.5, workers=-1)


# ---------------------------------------------------------------------------
# Degenerate inputs.

def test_duplicate_points_within_sample_raise():
    x = [[0.0], [0.0], [5.0]]
    y = [[1.0], [2.0]]
    with pytest.raises(DegenerateDistanceError):
        est.alpha_integral(x, y, 1, 0.5)


def test_duplicate_points_cross_sample_raise():
    # the query sits exactly on a duplicated reference point: one copy
    # is excluded as the coincidence, the second still has distance 0
    x = [[1.0], [3.0]]
    y = [[1.0], [1.0]]
    with pytest.raises(DegenerateDistanceError):
        est.alpha_integral(x, y, 1, 0.5)


def _far_groups_d80(x_scale=1e3, y_scale=1e3, shift=5e3):
    # two 300-point Gaussian groups in d = 80 with means `shift` apart
    rng = _rng(80)
    x = rng.normal(0.0, x_scale, size=(300, 80))
    y = rng.normal(0.0, y_scale, size=(300, 80))
    y[:, 0] += shift
    return x, y


def test_l2_overflow_raises_not_zero():
    # rho**80 overflows float64 at this scale, so the squared estimate is
    # NaN; it must raise instead of clamping to a divergence of 0
    x, y = _far_groups_d80()
    with pytest.raises(NonFiniteEstimateError), np.errstate(all="ignore"):
        est.l2_squared(x, y, 5)
    with pytest.raises(NonFiniteEstimateError), np.errstate(all="ignore"):
        est.l2_divergence(x, y, 5)
    ds = Dataset((Group("x", x), Group("y", y)))
    with pytest.raises(NonFiniteEstimateError, match="from group 'x' to 'y'"), \
            np.errstate(all="ignore"):
        est.divergence_matrix(ds, est.EstimatorConfig("l2", k=5))


def test_renyi_underflow_raises():
    # x is a tight cluster far from y: every term of the power integral
    # underflows to 0, whose log is not finite
    x, y = _far_groups_d80(x_scale=1e-6, y_scale=1.0, shift=1e6)
    with pytest.raises(NonFiniteEstimateError):
        est.alpha_integral(x, y, 5, 0.5)
    with pytest.raises(NonFiniteEstimateError):
        est.renyi_divergence(x, y, 5, 0.5)
    ds = Dataset((Group("x", x), Group("y", y)))
    with pytest.raises(NonFiniteEstimateError, match="from group 'x' to 'y'"):
        est.cross_divergence_matrix(ds, ds, est.EstimatorConfig("renyi", 0.5, 5))


def test_dimension_mismatch():
    with pytest.raises(ContractError):
        est.alpha_integral([[0.0, 1.0]], [[1.0]], 1, 0.5)


# ---------------------------------------------------------------------------
# Config validation.

def test_config_validation():
    with pytest.raises(ConfigError):
        est.EstimatorConfig("renyi", alpha=1.0, k=20)
    with pytest.raises(ConfigError):
        est.EstimatorConfig("renyi", alpha=0.5, k=1)  # k <= 2|alpha-1|
    with pytest.raises(ConfigError):
        est.EstimatorConfig("l2", k=2)
    with pytest.raises(ConfigError):
        est.EstimatorConfig("hellinger")
    cfg = est.EstimatorConfig("renyi", alpha=0.5, k=2)
    assert cfg.k == 2


def test_op_level_k_bound():
    # single estimates enforce the looser existence bound k > |alpha-1|
    with pytest.raises(ConfigError):
        est.alpha_integral([[0.0], [2.0]], [[1.0]], k=1, alpha=2.5)


# ---------------------------------------------------------------------------
# Matrices.

def _toy_dataset(seed=0, n=120):
    rng = _rng(seed)
    groups = tuple(
        Group(f"g{i}", rng.normal(float(i), 1.0, size=(n, 1)))
        for i in range(3)
    )
    return Dataset(groups)


def test_divergence_matrix_matches_pair_calls():
    ds = _toy_dataset()
    cfg = est.EstimatorConfig("renyi", 0.5, 5, symmetrize=True)
    w = est.divergence_matrix(ds, cfg)
    assert w.ids == ds.ids
    by_id = {g.id: g.points for g in ds.groups}
    for i, gi in enumerate(w.ids):
        for j, gj in enumerate(w.ids):
            if i == j:
                assert w.values[i, j] == 0.0
                continue
            fwd = est.renyi_divergence(by_id[gi], by_id[gj], 5, 0.5)
            rev = est.renyi_divergence(by_id[gj], by_id[gi], 5, 0.5)
            assert w.values[i, j] == pytest.approx((fwd + rev) / 2.0, rel=1e-12)


def test_divergence_matrix_symmetry_is_bitwise():
    ds = _toy_dataset(1)
    cfg = est.EstimatorConfig("l2", k=4, symmetrize=True)
    w = est.divergence_matrix(ds, cfg)
    assert np.array_equal(w.values, w.values.T)


def test_divergence_matrix_directed():
    ds = _toy_dataset(2)
    cfg = est.EstimatorConfig("renyi", 0.8, 5, symmetrize=False)
    w = est.divergence_matrix(ds, cfg)
    assert not np.array_equal(w.values, w.values.T)


def test_cross_divergence_matrix_shape_and_values():
    ds_a = _toy_dataset(3)
    ds_b = Dataset((Group("h0", _rng(9).normal(0.5, 1.0, size=(100, 1))),))
    cfg = est.EstimatorConfig("renyi", 0.5, 5, symmetrize=False)
    w = est.cross_divergence_matrix(ds_a, ds_b, cfg)
    assert w.shape == (3, 1)
    g0 = ds_a.groups[0]
    want = est.renyi_divergence(g0.points, ds_b.groups[0].points, 5, 0.5)
    assert w[0, 0] == pytest.approx(want, rel=1e-12)


def test_divergence_matrix_values_read_only():
    ds = _toy_dataset(4)
    w = est.divergence_matrix(ds, est.EstimatorConfig("renyi", 0.5, 5))
    with pytest.raises(ValueError):
        w.values[0, 1] = 3.0


def test_divergence_matrix_validation():
    ids = ("a", "b")
    cfg = est.EstimatorConfig("renyi", 0.5, 5, symmetrize=True)
    with pytest.raises(ContractError):
        est.DivergenceMatrix(ids, np.array([[0.0, 1.0], [2.0, 0.0]]), cfg)
    with pytest.raises(ContractError):
        est.DivergenceMatrix(ids, np.array([[0.5, 1.0], [1.0, 0.0]]), cfg)
    with pytest.raises(ContractError):
        est.DivergenceMatrix(ids, np.full((2, 2), np.nan), cfg)
    ok = est.DivergenceMatrix(ids, np.array([[0.0, 1.0], [1.0, 0.0]]), cfg)
    assert ok.values[0, 1] == 1.0


def _pair_estimate(cfg):
    if cfg.kind == "renyi":
        return lambda x, y: est.renyi_divergence(x, y, cfg.k, cfg.alpha)
    return lambda x, y: est.l2_divergence(x, y, cfg.k)


@pytest.mark.parametrize("cfg", [est.EstimatorConfig("renyi", 0.5, 5),
                                 est.EstimatorConfig("l2", k=4)])
def test_matrix_entries_are_exact_pair_averages(cfg):
    ds_a, ds_b = _toy_dataset(5, n=80), _toy_dataset(6, n=90)
    pair = _pair_estimate(cfg)
    square = est.divergence_matrix(ds_a, cfg).values
    cross = est.cross_divergence_matrix(ds_a, ds_b, cfg)
    for i, gi in enumerate(ds_a.groups):
        for j, gj in enumerate(ds_a.groups):
            if i != j:
                want = (pair(gi.points, gj.points) + pair(gj.points, gi.points)) / 2.0
                assert square[i, j] == want
        for j, gj in enumerate(ds_b.groups):
            want = (pair(gi.points, gj.points) + pair(gj.points, gi.points)) / 2.0
            assert cross[i, j] == want


@pytest.mark.parametrize("cfg", [est.EstimatorConfig("renyi", 0.5, 5),
                                 est.EstimatorConfig("renyi", 0.8, 5, symmetrize=False),
                                 est.EstimatorConfig("l2", k=4)])
def test_cross_matrix_with_itself_is_the_square_matrix(cfg):
    # off the diagonal, both are views of the same directed table
    ds = _toy_dataset(7, n=80)
    off = ~np.eye(len(ds), dtype=bool)
    cross = est.cross_divergence_matrix(ds, ds, cfg)
    assert np.array_equal(cross[off], est.divergence_matrix(ds, cfg).values[off])


def test_symmetrized_cross_matrix_names_the_failing_reverse_direction():
    # y -> x is finite, x -> y underflows: only the reverse table fails
    x, y = _far_groups_d80(x_scale=1e-6, y_scale=1.0, shift=1e6)
    ds_from, ds_to = Dataset((Group("y", y),)), Dataset((Group("x", x),))
    forward = est.cross_divergence_matrix(
        ds_from, ds_to, est.EstimatorConfig("renyi", 0.5, 5, symmetrize=False))
    assert np.isfinite(forward).all()
    with pytest.raises(NonFiniteEstimateError, match="from group 'x' to 'y'"):
        est.cross_divergence_matrix(ds_from, ds_to, est.EstimatorConfig("renyi", 0.5, 5))


@pytest.mark.parametrize("build", [est.cross_divergence_matrix,
                                   baselines.baseline_cross_matrix])
def test_cross_builders_reject_mismatched_dimensions(build):
    one = Dataset((Group("a", _rng(0).normal(size=(30, 1))),))
    two = Dataset((Group("b", _rng(1).normal(size=(30, 2))),))
    with pytest.raises(ContractError, match="dataset dimensions differ: 1 vs 2"):
        build(one, two, est.EstimatorConfig("renyi", 0.5, 5))
