"""Single-Gaussian parametric baseline: fits and closed-form divergences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divknn import baselines as bl
from divknn.dataset import Dataset, Group
from divknn.errors import ConfigError, ContractError, InsufficientSampleError
from divknn.estimators import EstimatorConfig

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# Quadrature values for N(0,1) vs N(1,1), frozen from the oracle module
# at tolerance 1e-9 (the Renyi value is also exp(-1/8) by hand).
RENYI_SHIFTED = 0.25
L2_SHIFTED = 0.3532680201773632

# 2-D pair N(0, I) vs N((1,0), I): quadrature value of the squared L2
# distance, equal to (1/2pi)(1 - exp(-1/4)) by completing the square.
L2SQ_2D = 0.035204948782242465


def _fit(mean, cov):
    return bl.GaussianFit(np.atleast_1d(np.asarray(mean, dtype=float)),
                          np.atleast_2d(np.asarray(cov, dtype=float)))


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


# ---------------------------------------------------------------------------
# Fitting.

def test_fit_matches_numpy_moments():
    pts = _rng(0).normal(size=(50, 2))
    fit = bl.fit_gaussian(pts)
    assert np.allclose(fit.mean, pts.mean(axis=0), atol=1e-15)
    assert np.allclose(fit.covariance, np.cov(pts.T, ddof=1), atol=1e-12)


def test_fit_needs_two_points():
    with pytest.raises(InsufficientSampleError):
        bl.fit_gaussian([[1.0, 2.0]])


def test_fit_ridges_degenerate_covariance():
    # all points on a line: raw covariance is singular, the fit must
    # still be positive definite
    t = np.linspace(0.0, 1.0, 20)
    pts = np.column_stack([t, 2.0 * t])
    fit = bl.fit_gaussian(pts)
    eigs = np.linalg.eigvalsh(fit.covariance)
    assert eigs.min() > 0.0


def test_fit_rejects_identical_points():
    with pytest.raises(ConfigError):
        bl.fit_gaussian([[1.0], [1.0], [1.0]])


def test_fit_is_read_only():
    fit = bl.fit_gaussian(_rng(1).normal(size=(10, 1)))
    with pytest.raises(ValueError):
        fit.mean[0] = 0.0


def test_fit_copies_the_callers_arrays():
    # the caller's arrays stay writable, and writing to them leaves the
    # fit as it was
    mean, cov = np.array([1.0, 2.0]), np.array([[2.0, 0.5], [0.5, 1.0]])
    fit = bl.GaussianFit(mean, cov)
    assert mean.flags.writeable and cov.flags.writeable
    mean[0], cov[0, 0] = 9.0, 9.0
    assert fit.mean.tolist() == [1.0, 2.0]
    assert fit.covariance.tolist() == [[2.0, 0.5], [0.5, 1.0]]
    with pytest.raises(ValueError):
        fit.covariance[0, 0] = 3.0


# ---------------------------------------------------------------------------
# Closed forms against frozen quadrature values.

def test_renyi_closed_form_shifted_pair():
    p, q = _fit(0.0, 1.0), _fit(1.0, 1.0)
    assert math.isclose(bl.gaussian_renyi(p, q, 0.5), RENYI_SHIFTED, rel_tol=1e-12)


def test_l2_closed_form_shifted_pair():
    p, q = _fit(0.0, 1.0), _fit(1.0, 1.0)
    assert math.isclose(bl.gaussian_l2(p, q), L2_SHIFTED, rel_tol=1e-9)


def test_l2_closed_form_2d_pair():
    p = _fit([0.0, 0.0], np.eye(2))
    q = _fit([1.0, 0.0], np.eye(2))
    assert math.isclose(bl.gaussian_l2(p, q) ** 2, L2SQ_2D, rel_tol=1e-9)
    closed = (1.0 - math.exp(-0.25)) / (2.0 * math.pi)
    assert math.isclose(L2SQ_2D, closed, rel_tol=1e-12)


def test_renyi_alpha_half_is_symmetric():
    p = _fit([0.0, 1.0], [[1.0, 0.2], [0.2, 0.8]])
    q = _fit([1.5, -0.5], [[0.5, 0.0], [0.0, 2.0]])
    assert math.isclose(bl.gaussian_renyi(p, q, 0.5),
                        bl.gaussian_renyi(q, p, 0.5), rel_tol=1e-12)


def test_renyi_general_alpha_skew():
    # outside alpha = 1/2 the divergence is direction dependent
    p, q = _fit(0.0, 1.0), _fit(1.0, 4.0)
    assert not math.isclose(bl.gaussian_renyi(p, q, 0.8),
                            bl.gaussian_renyi(q, p, 0.8), rel_tol=1e-6)


def test_renyi_mixture_covariance_must_stay_pd():
    p, q = _fit(0.0, 1.0), _fit(0.0, 0.1)
    # (1-1.5)*1 + 1.5*0.1 = -0.35
    with pytest.raises(ConfigError):
        bl.gaussian_renyi(p, q, 1.5)


@pytest.mark.parametrize("divergence", [lambda p, q: bl.gaussian_renyi(p, q, 0.5),
                                        bl.gaussian_l2])
def test_fits_of_different_dimension_break_the_contract(divergence):
    # the sample-based pair estimators raise ContractError for this too
    p, q = _fit(0.0, 1.0), _fit([0.0, 0.0], np.eye(2))
    with pytest.raises(ContractError, match="dimensions differ: 1 vs 2"):
        divergence(p, q)


@settings(max_examples=40, deadline=None)
@given(
    mean=st.floats(-3, 3),
    var=st.floats(0.1, 4.0),
    alpha=st.floats(0.05, 0.95),
)
def test_self_divergence_is_zero(mean, var, alpha):
    p = _fit(mean, var)
    assert abs(bl.gaussian_renyi(p, p, alpha)) < 1e-12
    assert bl.gaussian_l2(p, p) < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    m1=st.floats(-2, 2), m2=st.floats(-2, 2),
    v1=st.floats(0.2, 3.0), v2=st.floats(0.2, 3.0),
    alpha=st.floats(0.05, 0.95),
)
def test_renyi_nonnegative_inside_unit_interval(m1, m2, v1, v2, alpha):
    val = bl.gaussian_renyi(_fit(m1, v1), _fit(m2, v2), alpha)
    assert val >= -1e-12


# ---------------------------------------------------------------------------
# Matrices over datasets.

def _ds(seed=0):
    rng = _rng(seed)
    return Dataset(tuple(
        Group(f"g{i}", rng.normal(float(i), 0.8, size=(60, 1)))
        for i in range(3)
    ))


def test_baseline_matrix_layout():
    w = bl.baseline_matrix(_ds(), EstimatorConfig("renyi", 0.5, 20, True))
    assert w.ids == ("g0", "g1", "g2")
    assert np.array_equal(w.values, w.values.T)
    assert np.all(np.diag(w.values) == 0.0)
    assert w.config is None


def test_baseline_matrix_l2_kind():
    w = bl.baseline_matrix(_ds(1), EstimatorConfig("l2", k=20))
    assert w.values[0, 1] > 0.0


def test_baseline_cross_matrix_matches_pairs():
    a, b = _ds(2), _ds(3)
    cfg = EstimatorConfig("renyi", 0.5, 20, symmetrize=False)
    w = bl.baseline_cross_matrix(a, b, cfg)
    fit0 = bl.fit_gaussian(a.groups[0].points)
    fit1 = bl.fit_gaussian(b.groups[1].points)
    want = bl.gaussian_renyi(fit0, fit1, 0.5)
    assert w[0, 1] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("points, error, message", [
    ([[1.0]], InsufficientSampleError, "group 'a': gaussian fit needs at least 2 points, got 1"),
    (np.zeros((5, 1)), ConfigError, "group 'a': all points identical"),
])
def test_baseline_fit_errors_name_the_group(points, error, message):
    ds = Dataset((Group("a", points), Group("b", _rng(1).normal(size=(30, 1)))))
    with pytest.raises(error, match=message):
        bl.baseline_cross_matrix(_ds(), ds, EstimatorConfig("renyi", 0.5, 20))


@pytest.mark.parametrize("cfg", [EstimatorConfig("renyi", 0.5, 20),
                                 EstimatorConfig("l2", k=20)])
def test_baseline_matrices_are_exact_pair_averages(cfg):
    a, b = _ds(4), _ds(5)

    def pair(p, q):
        fp, fq = bl.fit_gaussian(p.points), bl.fit_gaussian(q.points)
        if cfg.kind == "renyi":
            return bl.gaussian_renyi(fp, fq, cfg.alpha)
        return bl.gaussian_l2(fp, fq)

    square = bl.baseline_matrix(a, cfg).values
    cross = bl.baseline_cross_matrix(a, b, cfg)
    for i, gi in enumerate(a.groups):
        for j, gj in enumerate(a.groups):
            if i != j:
                assert square[i, j] == (pair(gi, gj) + pair(gj, gi)) / 2.0
        for j, gj in enumerate(b.groups):
            assert cross[i, j] == (pair(gi, gj) + pair(gj, gi)) / 2.0
    # the cross matrix of a dataset with itself is the square matrix,
    # diagonal included
    assert np.array_equal(bl.baseline_cross_matrix(a, a, cfg), square)
