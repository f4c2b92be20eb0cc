"""Divergence estimators: correction factor, hand cases, invariances."""

import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divknn import baselines, knn
from divknn import estimators as est
from divknn.dataset import Dataset, Group
from divknn.errors import (
    ConfigError,
    ContractError,
    DegenerateDistanceError,
    InsufficientSampleError,
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


def _rho_nu(x, y, k):
    """rho_k of x and nu_k of x against y, queried on the raw, unsorted points."""
    return (knn.kth_nn_within(knn.build_index(x), k),
            knn.kth_nn_cross(x, knn.build_index(y), k))


def _reference_pair(name, x, y, k, alpha=None):
    """What the pair function ``name`` estimates from x to y, computed
    apart from any divergence table: rho_k screened for zeros, nu_k, and
    the estimator's reduction of the two. rho_k is screened before nu_k
    is queried, as a table prepares x before any column, so that x's
    duplicates raise before a coincidence with too few points of y."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    rho = knn.kth_nn_within(knn.build_index(x), k)
    est._screen_rho(rho)
    nu = knn.kth_nn_cross(x, knn.build_index(y), k)
    (n, d), m = x.shape, y.shape[0]
    if name in ("alpha_integral", "renyi_divergence"):
        value = est._integral_estimate(np.log(rho), nu, n, m, d, alpha,
                                       est.correction_factor(k, alpha))
        return value if name == "alpha_integral" else math.log(value) / (alpha - 1.0)
    value = est._l2_squared_estimate(rho, nu, n, m, d, k)
    return value if name == "l2_squared" else math.sqrt(max(0.0, value))


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
    a=st.floats(1.0, 2.5, allow_nan=False),
)
def test_correction_factor_swap_symmetry(k, a):
    # B depends on alpha only through |alpha - 1|. On [1, 2.5], 2 - a and
    # both distances from 1 are exact, so a and 2 - a are exact mirrors.
    # A rounded mirror (2 - alpha for alpha < 0.5) is not, and near
    # k = |alpha - 1| B changes by more than the tolerance between them
    mirror = 2.0 - a
    assert mirror - 1.0 == -(a - 1.0)
    if k <= a - 1.0:
        return
    assert math.isclose(est.correction_factor(k, a), est.correction_factor(k, mirror),
                        rel_tol=1e-12)


def _gamma_ratio_mp(k, alpha):
    """Gamma(k)^2 / (Gamma(k - alpha + 1) Gamma(k + alpha - 1)) at 50 digits."""
    import mpmath as mp

    with mp.workdps(50):
        k, a = mp.mpf(k), mp.mpf(alpha)
        return mp.gamma(k) ** 2 / (mp.gamma(k - a + 1) * mp.gamma(k + a - 1))


def test_correction_factor_near_the_domain_edge():
    # Near k = |alpha - 1| one gamma factor sits at its pole. Below
    # alpha = 0.5, alpha - 1.0 rounds, and the rounded argument once
    # cost up to 3.6e-3 relative error on this grid (5.0e-9 at k = 1,
    # alpha = 1e-8); it is now read as a separate exact argument.
    worst = 0.0
    for k in range(1, 41):
        for gap in (1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 0.1, 0.3, 0.7):
            for alpha in (1.0 - k + gap, 1.0 + k - gap):
                if k > abs(alpha - 1.0):
                    want = _gamma_ratio_mp(k, alpha)
                    worst = max(worst, float(abs(est.correction_factor(k, alpha) - want) / want))
    assert worst <= 1e-12
    want = _gamma_ratio_mp(1, 1e-8)
    assert float(abs(est.correction_factor(1, 1e-8) - want) / want) < 1e-15


@pytest.mark.parametrize("alpha", [0.5, 0.75, 1.5, 2.0, 5.0, -1.0])
def test_correction_factor_keeps_its_bits_where_alpha_minus_one_is_exact(alpha):
    from scipy.special import poch

    for k in range(int(abs(alpha - 1.0)) + 1, 60):
        assert est.correction_factor(k, alpha) \
            == float(1.0 / (poch(k, 1.0 - alpha) * poch(k, alpha - 1.0)))


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


_PAIR_FUNCTIONS = ("alpha_integral", "renyi_divergence", "l2_squared", "l2_divergence")


def _call_pair(name, x, y, k, alpha, workers=1):
    """The pair function ``name`` from x to y; the L2 ones take no alpha."""
    args = (k, alpha) if name in ("alpha_integral", "renyi_divergence") else (k,)
    return getattr(est, name)(x, y, *args, workers=workers)


@st.composite
def _pair_cases(draw):
    """(function name, x, y, k, alpha, workers): Gaussian samples in
    d in [1, 40], at the smallest sizes the function takes or larger,
    rounded to 1 decimal or not, with some of x's points copied into y."""
    name = draw(st.sampled_from(_PAIR_FUNCTIONS))
    k = draw(st.integers(3 if name.startswith("l2") else 1, 6))
    d = draw(st.one_of(st.just(1), st.integers(1, 40)))  # the sorted line half the time
    if draw(st.booleans()):
        n, m = k + 1, k
    else:
        n, m = draw(st.integers(k + 1, 40)), draw(st.integers(k, 40))
    rng = _rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n, d))
    y = rng.normal(draw(st.floats(0.0, 2.0)), 1.0, size=(m, d))
    if draw(st.booleans()):
        x, y = np.round(x, 1), np.round(y, 1)
    shared = draw(st.integers(0, m))
    y[:shared] = x[rng.integers(0, n, size=shared)]
    return (name, x, y, k, draw(st.sampled_from([0.25, 0.5, 0.8, 1.5])),
            draw(st.sampled_from([1, 2])))


@settings(max_examples=300, deadline=None)
@given(case=_pair_cases())
def test_pair_functions_are_bitwise_the_reference(case):
    # each pair function gives the reference's bits, or raises the
    # reference's error type
    name, x, y, k, alpha, workers = case
    try:
        want = _reference_pair(name, x, y, k, alpha)
    except (DegenerateDistanceError, InsufficientSampleError, NonFiniteEstimateError) as exc:
        with pytest.raises(type(exc)) as info:
            _call_pair(name, x, y, k, alpha, workers)
        assert type(info.value) is type(exc)
        return
    got = _call_pair(name, x, y, k, alpha, workers)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("d", [1, 2, 20])
def test_pair_functions_index_the_callers_samples(monkeypatch, d):
    # a pair call views float64, C-ordered x and y and holds no copy of
    # them, nor makes the caller's arrays read-only; other inputs are
    # converted, and then give the same bits
    indexed, build = [], knn.build_index
    monkeypatch.setattr(knn, "build_index", lambda pts: indexed.append(pts) or build(pts))
    rng = _rng(23)
    x, y = rng.normal(size=(200, d)), rng.normal(0.5, 1.0, size=(150, d))
    want = est.l2_squared(x, y, 5)
    assert [np.shares_memory(a, b) for a, b in zip(indexed, (x, y))] == [True, True]
    assert x.flags.writeable and y.flags.writeable
    x32, y32 = x.astype(np.float32), y.astype(np.float32)
    assert est.l2_squared(x32, y32.tolist(), 5) == est.l2_squared(
        x32.astype(np.float64), y32.astype(np.float64), 5)
    assert est.l2_squared(x, y, 5) == want


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


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 200),
    j=st.integers(-200, 200),
    k=st.integers(1, 5),
    alpha=st.sampled_from([0.5, 0.25, 0.9, 1.5]),
    shift=st.floats(0.0, 3.0),
)
def test_renyi_is_invariant_under_power_of_two_scaling(seed, d, j, k, alpha, shift):
    # At s = 2^j every neighbor distance scales exactly, so only the logs
    # of rho and nu, which gain j log 2, can round differently. Each
    # log-ratio term may then move by a few ulps of the largest log, L,
    # times d; the estimate by that, plus a few ulps of the term mean's
    # rounding over 1 / |alpha - 1|.
    rng = _rng(seed)
    x = rng.normal(size=(40, d))
    y = rng.normal(size=(30, d)) + shift
    s = math.ldexp(1.0, j)
    eps = np.finfo(np.float64).eps
    logs = [np.abs(np.log(v)).max()
            for xs, ys in ((x, y), (s * x, s * y))
            for v in _rho_nu(xs, ys, k)]
    tol = 8 * eps * (d * max(logs) + (math.log2(len(x)) + 4) / abs(alpha - 1.0))
    a = est.renyi_divergence(x, y, k, alpha)
    b = est.renyi_divergence(s * x, s * y, k, alpha)
    assert abs(a - b) <= tol + 4 * eps * abs(a)


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


def _far_groups_d80(x_scale, y_scale, shift):
    # two 300-point Gaussian groups in d = 80 with means `shift` apart
    rng = _rng(80)
    x = rng.normal(0.0, x_scale, size=(300, 80))
    y = rng.normal(0.0, y_scale, size=(300, 80))
    y[:, 0] += shift
    return x, y


def test_l2_overflow_raises_not_zero():
    # at sigma = 1e4 in d = 80 the integral of p^2 is about 1e-364, below
    # float64 even after rescaling; the estimate must raise instead of
    # clamping to a divergence of 0
    x, y = _far_groups_d80(x_scale=1e4, y_scale=1e4, shift=5e4)
    with pytest.raises(NonFiniteEstimateError), np.errstate(all="ignore"):
        est.l2_squared(x, y, 5)
    with pytest.raises(NonFiniteEstimateError), np.errstate(all="ignore"):
        est.l2_divergence(x, y, 5)
    ds = Dataset((Group("x", x), Group("y", y)))
    # the caller's error state holds in a threaded build too
    for workers in (1, 2):
        with pytest.raises(NonFiniteEstimateError, match="from group 'x' to 'y'"), \
                np.errstate(all="ignore"):
            est.divergence_matrix(ds, est.EstimatorConfig("l2", k=5), workers=workers)


_L2_BASE = _far_groups_d80(x_scale=1.0, y_scale=1.0, shift=5.0)


@settings(max_examples=30, deadline=None)
@given(j=st.integers(-15, 10))
def test_l2_rescales_powers_that_leave_float64_range(j):
    # at d = 80, scaling both samples by 2^j scales L2^2 by exactly
    # 2^(-80 j). For j <= -9 or j >= 4 some rho^d, nu^d or nu^(2d) leaves
    # float64 range while the estimate does not (it stays a normal float
    # for -15 <= j <= 10). Before the rescale, j >= 10 and j <= -9 raised
    # and 4 <= j <= 9 silently dropped overflowed terms (off by up to
    # 1.2%); now all must give that value, without a RuntimeWarning (this
    # module turns them into errors)
    x, y = _L2_BASE
    want = math.ldexp(est.l2_squared(x, y, 5), -80 * j)
    got = est.l2_squared(math.ldexp(1.0, j) * x, math.ldexp(1.0, j) * y, 5)
    assert math.isclose(got, want, rel_tol=1e-12)
    ds = Dataset((Group("x", math.ldexp(1.0, j) * x), Group("y", math.ldexp(1.0, j) * y)))
    w = est.divergence_matrix(ds, est.EstimatorConfig("l2", k=5, symmetrize=False), workers=2)
    assert w.values[0, 1] == math.sqrt(max(0.0, got))


@pytest.mark.parametrize("j", [12, -16])
def test_l2_out_of_range_after_rescaling_still_raises(j):
    # 2^(-80 j) times the d = 80 estimate underflows to 0 at j = 12 and
    # overflows at j = -16
    x, y = _L2_BASE
    with pytest.raises(NonFiniteEstimateError, match="out of float64 range"):
        est.l2_squared(math.ldexp(1.0, j) * x, math.ldexp(1.0, j) * y, 5)


@settings(max_examples=80, deadline=None)
@given(d=st.sampled_from([1, 2, 3, 80]), exponent=st.integers(-1000, 1000))
# j = -520 and -530 at d = 1, and j = -262 at d = 2
@example(d=1, exponent=516)
@example(d=1, exponent=526)
@example(d=2, exponent=519)
def test_l2_estimate_scales_exactly_where_its_powers_turn_subnormal(d, exponent):
    # Scaling rho_k and nu_k by 2^j scales L2^2 by exactly 2^(-d j), for
    # every j that keeps the estimate a normal float: j is drawn so that
    # the scaled estimate's binary exponent is within 1000 of 0. Where u,
    # v or v^2 is subnormal (1-D: j below about -513) the estimate is
    # rescaled as where they overflow; before, it kept the subnormal
    # values and lost up to 1.2e-7 relative (d = 1, j = -530) without a
    # flag. The distances are scaled exactly here: the neighbor queries
    # themselves square them, and below about 1e-154 those squares are
    # subnormal too.
    rng = _rng(5)
    x, y = rng.normal(size=(300, d)), rng.normal(0.5, 1.0, size=(300, d))
    rho, nu = _rho_nu(x, y, 5)
    base = est._l2_squared_estimate(rho, nu, 300, 300, d, 5)
    j = (math.frexp(base)[1] - exponent) // d
    got = est._l2_squared_estimate(np.ldexp(rho, j), np.ldexp(nu, j), 300, 300, d, 5)
    assert math.isclose(got, math.ldexp(base, -d * j), rel_tol=1e-12)


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


@pytest.mark.parametrize("k", [2.5, 20.0, np.float64(5.0), True, False, "20"])
def test_a_k_that_is_no_count_is_a_config_error(k):
    for kind in (est.RENYI, est.L2):
        with pytest.raises(ConfigError) as info:
            est.EstimatorConfig(kind, 0.5, k)
        assert str(info.value) == f"k must be a positive integer, got {k!r}"


@pytest.mark.parametrize("d", [1, 2, 20])
@pytest.mark.parametrize("name", _PAIR_FUNCTIONS)
@pytest.mark.parametrize("k", [2.5, 20.0, True])
def test_pair_functions_reject_a_k_that_is_no_count(d, name, k):
    # a fractional k was truncated by the neighbor queries but not by the
    # correction factor, or raised a bare TypeError on some routes
    x, y = _pair(d, n=200, m=200, d=d, shift=0.5)
    with pytest.raises(ConfigError) as info:
        _call_pair(name, x, y, k, 0.5)
    assert str(info.value) == f"k must be a positive integer, got {k!r}"


@pytest.mark.parametrize("d", [1, 2, 20])
def test_a_numpy_integer_k_keeps_the_int_bits(d):
    x, y = _pair(d, n=200, m=200, d=d, shift=0.5)
    for name in _PAIR_FUNCTIONS:
        want = _call_pair(name, x, y, 4, 0.5)
        for kind in (np.int8, np.uint8, np.int32, np.int64, np.uint64):
            assert _call_pair(name, x, y, kind(4), 0.5) == want
    ds = Dataset(tuple(Group(f"g{i}", _pair(i, n=60, m=1, d=d)[0]) for i in range(3)))
    for kind in (est.RENYI, est.L2):
        w = est.divergence_matrix(ds, est.EstimatorConfig(kind, 0.5, 5)).values
        assert np.array_equal(est.divergence_matrix(
            ds, est.EstimatorConfig(kind, 0.5, np.int64(5))).values, w)


@pytest.mark.parametrize("value", ["no", "", 1, 0, None, np.array(True)])
def test_symmetrize_must_be_a_bool(value):
    for kind in (est.RENYI, est.L2):
        with pytest.raises(ConfigError) as info:
            est.EstimatorConfig(kind, 0.5, 5, symmetrize=value)
        assert str(info.value) == f"symmetrize must be a bool, got {value!r}"


def test_a_numpy_bool_symmetrize_is_the_bool():
    ds = Dataset(tuple(Group(f"g{i}", _pair(i, n=100, m=1, d=1)[0]) for i in range(3)))
    for flag in (True, False):
        want = est.divergence_matrix(ds, est.EstimatorConfig("renyi", 0.5, 5, flag)).values
        got = est.divergence_matrix(ds, est.EstimatorConfig("renyi", 0.5, 5, np.bool_(flag)))
        assert np.array_equal(got.values, want)


@pytest.mark.parametrize("alpha", ["0.5", math.nan, math.inf, -math.inf, np.float64(math.nan),
                                   True, np.bool_(False), None, 0.5j])
def test_renyi_alpha_must_be_a_finite_real(alpha):
    with pytest.raises(ConfigError) as info:
        est.EstimatorConfig("renyi", alpha, 20)
    assert str(info.value) == (
        f"alpha must be a finite real number for the renyi estimator, got {alpha!r}")
    # the L2 estimator takes no alpha and keeps ignoring it
    assert est.EstimatorConfig("l2", alpha, 20).k == 20


@pytest.mark.parametrize("alpha", [0.5, np.float64(0.5), np.float32(0.25), 2, np.int64(3),
                                   -1.5])
def test_a_finite_real_alpha_is_accepted(alpha):
    assert est.EstimatorConfig("renyi", alpha, 20).alpha == alpha


_BAD_K = [0, -1, 2.5, True, "3"]
_BAD_ALPHA = ["0.5", None, math.nan, math.inf, True, 1, 1.0]


def _config_error(kind, k, alpha):
    with pytest.raises(ConfigError) as info:
        est.EstimatorConfig(kind, alpha, k)
    return str(info.value)


def _assert_pair_error_is_the_configs(name, kind, k, alpha):
    x, y = _pair(1, n=40, m=30)
    with pytest.raises(ConfigError) as info:
        _call_pair(name, x, y, k, alpha)
    assert str(info.value) == _config_error(kind, k, alpha)


# Every case fails a rule that EstimatorConfig and the pair functions
# share; none fails only the matrix bound k > 2|alpha - 1|.
@pytest.mark.parametrize("name", ["alpha_integral", "renyi_divergence"])
@pytest.mark.parametrize("k, alpha", [(k, alpha) for k in _BAD_K for alpha in _BAD_ALPHA + [0.5]]
                         + [(20, alpha) for alpha in _BAD_ALPHA], ids=repr)
def test_renyi_pair_functions_take_the_config_rules(name, k, alpha):
    _assert_pair_error_is_the_configs(name, est.RENYI, k, alpha)


@pytest.mark.parametrize("name", ["l2_squared", "l2_divergence"])
@pytest.mark.parametrize("k", _BAD_K + [1, 2], ids=repr)
def test_l2_pair_functions_take_the_config_rules(name, k):
    _assert_pair_error_is_the_configs(name, est.L2, k, 0.5)


@pytest.mark.parametrize("alpha", _BAD_ALPHA, ids=repr)
def test_gaussian_renyi_takes_the_alpha_rule(alpha):
    p = baselines.GaussianFit([0.0], [[1.0]])
    q = baselines.GaussianFit([0.5], [[2.0]])
    with pytest.raises(ConfigError) as info:
        baselines.gaussian_renyi(p, q, alpha)
    assert str(info.value) == _config_error(est.RENYI, 20, alpha)


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
    with pytest.raises(ContractError, match=r"matrix shape \(2, 3\) does not match 2 ids"):
        est.DivergenceMatrix(ids, np.zeros((2, 3)), cfg)
    ok = est.DivergenceMatrix(ids, np.array([[0.0, 1.0], [1.0, 0.0]]), cfg)
    assert ok.values[0, 1] == 1.0


def _pair_estimate(cfg):
    """The reference directed value of cfg's matrices, from x to y."""
    name = "renyi_divergence" if cfg.kind == "renyi" else "l2_divergence"
    return lambda x, y: _reference_pair(name, x, y, cfg.k, cfg.alpha)


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
    # both are views of the same directed table; a group is never paired
    # with itself, so the diagonal reads 0 in both
    ds = _toy_dataset(7, n=80)
    cross = est.cross_divergence_matrix(ds, ds, cfg)
    assert np.array_equal(cross, est.divergence_matrix(ds, cfg).values)


def _baseline_pair(cfg):
    def pair(x, y):
        p, q = baselines.fit_gaussian(x), baselines.fit_gaussian(y)
        if cfg.kind == "renyi":
            return baselines.gaussian_renyi(p, q, cfg.alpha)
        return baselines.gaussian_l2(p, q)
    return pair


@pytest.mark.parametrize("route", ["sample", "baseline"])
@pytest.mark.parametrize("cfg", [est.EstimatorConfig("renyi", 0.5, 5),
                                 est.EstimatorConfig("renyi", 0.8, 5, symmetrize=False),
                                 est.EstimatorConfig("l2", k=4)])
def test_cross_matrix_of_overlapping_datasets(monkeypatch, route, cfg):
    # test holds copies of the training groups g1 and g3, a group that
    # reuses the id g2 with other points, and a new group h0
    rng = _rng(12)
    train = Dataset(tuple(Group(f"g{i}", rng.normal(float(i), 1.0, size=(70, 1)))
                          for i in range(4)))
    test = Dataset((Group("g1", train.groups[1].points.copy()),
                    Group("g2", rng.normal(2.0, 1.0, size=(70, 1))),
                    Group("g3", train.groups[3].points.copy()),
                    Group("h0", rng.normal(0.5, 1.0, size=(75, 1)))))
    if route == "sample":
        build, pair = est.cross_divergence_matrix, _pair_estimate(cfg)
        module, prepare = knn, "build_index"
    else:
        build, pair = baselines.baseline_cross_matrix, _baseline_pair(cfg)
        module, prepare = baselines, "fit_gaussian"
    calls = []
    real = getattr(module, prepare)
    monkeypatch.setattr(module, prepare, lambda points: calls.append(1) or real(points))
    w = build(test, train, cfg)
    monkeypatch.undo()
    assert len(calls) == 6  # once per distinct group: g0-g3, the other g2 and h0
    same = {(0, 1), (2, 3)}
    for i, gi in enumerate(test.groups):
        for j, gj in enumerate(train.groups):
            if (i, j) in same:
                assert w[i, j] == 0.0
                continue
            want = pair(gi.points, gj.points)
            if cfg.symmetrize:
                want = (want + pair(gj.points, gi.points)) / 2.0
            assert w[i, j] == want
    assert w[1, 2] != 0.0  # the reused id g2 names another group


def test_symmetrized_cross_matrix_names_the_failing_reverse_direction():
    # y -> x is finite, x -> y underflows: only the reverse table fails
    x, y = _far_groups_d80(x_scale=1e-6, y_scale=1.0, shift=1e6)
    ds_from, ds_to = Dataset((Group("y", y),)), Dataset((Group("x", x),))
    forward = est.cross_divergence_matrix(
        ds_from, ds_to, est.EstimatorConfig("renyi", 0.5, 5, symmetrize=False))
    assert np.isfinite(forward).all()
    with pytest.raises(NonFiniteEstimateError, match="from group 'x' to 'y'"):
        est.cross_divergence_matrix(ds_from, ds_to, est.EstimatorConfig("renyi", 0.5, 5))


def _three_clusters_d80():
    # a is a tight cluster, b a tighter one 1e-2 away, c a unit cloud 1e6
    # away. a -> c and b -> a underflow, a -> b does not
    rng = _rng(81)
    a = rng.normal(0.0, 1e-6, size=(200, 80))
    b = rng.normal(0.0, 1e-12, size=(200, 80))
    b[:, 0] += 1e-2
    c = rng.normal(0.0, 1.0, size=(200, 80))
    c[:, 0] += 1e6
    assert math.isfinite(est.renyi_divergence(a, b, 5, 0.5))
    for x, y in ((a, c), (b, a)):
        with pytest.raises(NonFiniteEstimateError):
            est.renyi_divergence(x, y, 5, 0.5)
    return Group("a", a), Group("b", b), Group("c", c)


def _crossed_gaussians():
    """Groups a ~ N(0, I), b ~ N(0, diag(1, 900)) and c ~ N(0, diag(900, 1))
    of 50 points in d = 2. At alpha = 1.5 the mixed covariance
    -0.5 Cov_p + 1.5 Cov_q of their fits is not positive definite from b
    to a and c and from c to a and b, so the closed form fails there."""
    rng = _rng(83)
    groups = tuple(Group(g, rng.normal(size=(50, 2)) * scale)
                   for g, scale in (("a", (1.0, 1.0)), ("b", (1.0, 30.0)), ("c", (30.0, 1.0))))
    fits = {g.id: baselines.fit_gaussian(g.points) for g in groups}
    for p in fits:
        for q in fits:
            if p != q and p != "a":
                with pytest.raises(ConfigError, match="mixed covariance is not positive"):
                    baselines.gaussian_renyi(fits[p], fits[q], 1.5)
            elif p != q:
                assert math.isfinite(baselines.gaussian_renyi(fits[p], fits[q], 1.5))
    return groups


@pytest.mark.parametrize("workers", [1, 2])
def test_square_matrix_raises_the_first_failing_pair_in_row_major_order(workers):
    # a -> c (row 0, column 2) and b -> a (row 1, column 0) both underflow;
    # row-major order meets a -> c first, a column-by-column fill meets
    # b -> a first
    ds = Dataset(_three_clusters_d80())
    with pytest.raises(NonFiniteEstimateError, match="from group 'a' to 'c'"):
        est.divergence_matrix(ds, est.EstimatorConfig("renyi", 0.5, 5, symmetrize=False),
                              workers=workers)
    # the baseline route pairs and names its groups the same way: b -> a
    # (row 1, column 0) is the first of its four failing pairs
    with pytest.raises(ConfigError) as info:
        _with_workers(baselines.baseline_matrix, workers)(
            Dataset(_crossed_gaussians()), est.EstimatorConfig("renyi", 1.5, 5))
    assert str(info.value) == "from group 'b' to 'a': mixed covariance is not positive definite"


@pytest.mark.parametrize("workers", [1, 2])
def test_overlapping_cross_matrix_raises_the_first_failing_reverse_pair(workers):
    # rows a, c and columns a, b share a: every forward pair is finite.
    # The reverse table (rows a, b; columns a, c) fails at a -> c (row 0,
    # column 1) and b -> a (row 1, column 0), and row-major order meets
    # a -> c first
    a, b, c = _three_clusters_d80()
    ds_from, ds_to = Dataset((a, c)), Dataset((a, b))
    forward = est.cross_divergence_matrix(
        ds_from, ds_to, est.EstimatorConfig("renyi", 0.5, 5, symmetrize=False))
    assert np.isfinite(forward).all() and forward[0, 0] == 0.0
    with pytest.raises(NonFiniteEstimateError, match="from group 'a' to 'c'"):
        est.cross_divergence_matrix(ds_from, ds_to, est.EstimatorConfig("renyi", 0.5, 5),
                                    workers=workers)
    # on the baseline route, rows a and columns a, b, c share a: the
    # forward pairs a -> b and a -> c are finite, and the reverse table's
    # column a fails at b -> a (row 1) and c -> a (row 2)
    a, b, c = _crossed_gaussians()
    build = _with_workers(baselines.baseline_cross_matrix, workers)
    forward = build(Dataset((a,)), Dataset((a, b, c)), est.EstimatorConfig("renyi", 1.5, 5,
                                                                          symmetrize=False))
    assert np.isfinite(forward).all() and forward[0, 0] == 0.0
    with pytest.raises(ConfigError) as info:
        build(Dataset((a,)), Dataset((a, b, c)), est.EstimatorConfig("renyi", 1.5, 5))
    assert str(info.value) == "from group 'b' to 'a': mixed covariance is not positive definite"


def _with_workers(build, workers):
    """build at the given workers. The baseline builders always run on
    one thread, so they are made to pass workers to the table builder."""
    if build not in (baselines.baseline_matrix, baselines.baseline_cross_matrix):
        return lambda *args: build(*args, workers=workers)

    def run(*args):
        real = est._divergence_table
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(baselines, "_divergence_table", lambda *a: real(*a[:-1], workers))
            return build(*args)
    return run


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("build, to_points, error", [
    # both groups are too small: for k = 5, or for a Gaussian fit
    (est.cross_divergence_matrix, np.arange(3.0)[:, None],
     "group 'z': within-sample k-NN with k=5 needs at least 6 points, got 1"),
    (baselines.baseline_cross_matrix, [[1.0]], "group 'z': gaussian fit needs at least 2"),
])
def test_row_group_preparation_errors_raise_first(build, to_points, error, workers):
    ds_from = Dataset((Group("z", [[0.0]]), Group("z2", np.arange(40.0)[:, None])))
    ds_to = Dataset((Group("a", to_points), Group("a2", np.arange(40.0)[:, None] + 0.5)))
    with pytest.raises(InsufficientSampleError, match=error):
        _with_workers(build, workers)(ds_from, ds_to, est.EstimatorConfig("renyi", 0.5, 5))


def _underflow_duplicates():
    """Groups a (40 points), b (30) and y (20) in d = 1. y holds two points
    1.5e-162 either side of 0, where b's point 3 sits: both squared
    distances underflow to 0, so b's point 3 has a zero nu_1 against y,
    while y's own points stay 3e-162 apart. Sorted, b's point 3 is not
    b's fourth point."""
    rng = _rng(82)
    a = rng.normal(size=(40, 1))
    b = rng.normal(size=(30, 1))
    b[3] = 0.0
    y = rng.normal(size=(20, 1)) + 5.0
    y[:2, 0] = (-1.5e-162, 1.5e-162)
    assert knn.build_index(b).order[3] != 3
    return Group("a", a), Group("b", b), Group("y", y)


def test_degenerate_nu_names_the_point_within_its_own_group():
    # the column of y stacks a's 40 points before b's
    ds = Dataset(_underflow_duplicates())
    with pytest.raises(DegenerateDistanceError,
                       match="from group 'b' to 'y': query point 3 has a zero"):
        est.divergence_matrix(ds, est.EstimatorConfig("renyi", 0.75, 1))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("rows", [("b",), ("a", "b")])
def test_degenerate_nu_on_the_line_names_the_point_in_its_group_order(rows, workers):
    # a 1-D column queries with each row group's sorted points; the error
    # still names b's point by its index in b, with one paired group and
    # with several, on one thread and on two
    a, b, y = _underflow_duplicates()
    groups = {"a": a, "b": b}
    ds_from = Dataset(tuple(groups[r] for r in rows))
    message = ("from group 'b' to 'y': query point 3 has a zero k-th neighbor "
               "distance: the indexed sample contains duplicate points at that location")
    for symmetrize in (False, True):
        cfg = est.EstimatorConfig("renyi", 0.75, 1, symmetrize=symmetrize)
        with pytest.raises(DegenerateDistanceError) as info:
            est.cross_divergence_matrix(ds_from, Dataset((y,)), cfg, workers=workers)
        assert str(info.value) == message


def test_duplicate_rho_on_the_line_names_the_point_in_its_group_order():
    # the within-sample query runs on the sorted points and is put back
    # in point order, so the first zero rho is point 7's, as in brute force
    x = np.arange(30.0)[:, None]
    x[7] = x[12] = 20.5
    ds = Dataset((Group("x", x), Group("z", np.arange(30.0)[:, None] + 0.25)))
    assert knn.build_index(x).order[7] != 7
    with pytest.raises(DegenerateDistanceError,
                       match="group 'x': point 7 has a zero within-sample"):
        est.divergence_matrix(ds, est.EstimatorConfig("renyi", 0.75, 1))


@pytest.mark.parametrize("build", [est.cross_divergence_matrix,
                                   baselines.baseline_cross_matrix])
def test_cross_builders_reject_mismatched_dimensions(build):
    one = Dataset((Group("a", _rng(0).normal(size=(30, 1))),))
    two = Dataset((Group("b", _rng(1).normal(size=(30, 2))),))
    with pytest.raises(ContractError, match="dataset dimensions differ: 1 vs 2"):
        build(one, two, est.EstimatorConfig("renyi", 0.5, 5))


def _column_only_case(d):
    """Row groups r0 and r1 and reference groups for k = 5 in dimension d:
    'exact' of 5 points, 'dup', whose six copies of one point (a zero
    rho_5) lie far from every row point, and 'few' of 4 points; and
    exact's third point."""
    rng = _rng(150 + d)
    rows = [rng.normal(0.3 * i, 1.0, size=(30, d)) for i in range(2)]
    exact = rng.normal(size=(5, d))
    dup = np.concatenate([rng.normal(size=(20, d)), np.full((6, d), 50.0)])
    return ({"r0": rows[0], "r1": rows[1]},
            {"exact": exact, "dup": dup, "few": rng.normal(size=(4, d))}, exact[2])


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("cfg", [est.EstimatorConfig("renyi", 0.5, 5, symmetrize=False),
                                 est.EstimatorConfig("l2", k=5, symmetrize=False)])
@pytest.mark.parametrize("d", [1, 2, 20])  # sorted line, kd-tree, screened brute force
def test_column_only_groups_are_only_indexed(d, cfg, workers):
    # a reference group of a non-symmetrized cross matrix is never a row,
    # so it needs no rho_k: k points and duplicates no query meets are
    # enough, as they are for a pair function's y
    rows, refs, _ = _column_only_case(d)
    ds_from = Dataset(tuple(Group(g, p) for g, p in rows.items()))
    ds_to = Dataset((Group("exact", refs["exact"]), Group("dup", refs["dup"])))
    w = est.cross_divergence_matrix(ds_from, ds_to, cfg, workers=workers)
    _assert_pair_values(w, ds_from, ds_to, _pair_estimate(cfg), cfg)
    # symmetrized, each is a row too and needs its rho_k
    sym = est.EstimatorConfig(cfg.kind, cfg.alpha, cfg.k)
    for ref, error, message in (
            ("exact", InsufficientSampleError,
             "group 'exact': within-sample k-NN with k=5 needs at least 6 points, got 5"),
            ("dup", DegenerateDistanceError, "group 'dup': point 20 has a zero within-sample")):
        with pytest.raises(error, match=message):
            est.cross_divergence_matrix(ds_from, Dataset((Group(ref, refs[ref]),)), sym,
                                        workers=workers)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("d", [1, 2, 20])
def test_column_only_query_errors_name_their_pair(d, workers):
    # a reference group of fewer than k points, or of exactly k points one
    # of which is a row point, fails every query against it or that one,
    # and the error names the pair and the query point in its group
    rows, refs, shared = _column_only_case(d)
    rows["r1"][7] = shared
    ds_from = Dataset(tuple(Group(g, p) for g, p in rows.items()))
    cfg = est.EstimatorConfig("renyi", 0.5, 5, symmetrize=False)
    for ref, message in (
            ("few", "from group 'r0' to 'few': cross-sample k-NN with k=5 needs at least "
                    "5 indexed points, got 4"),
            ("exact", "from group 'r1' to 'exact': query point 7 coincides with an indexed "
                      "point; k=5 then needs at least 6 indexed points, got 5")):
        with pytest.raises(InsufficientSampleError) as info:
            est.cross_divergence_matrix(ds_from, Dataset((Group(ref, refs[ref]),)), cfg,
                                        workers=workers)
        assert str(info.value) == message


@pytest.mark.parametrize("build", [est.divergence_matrix, baselines.baseline_matrix])
@pytest.mark.parametrize("cfg", [est.EstimatorConfig("renyi", 0.5, 5),
                                 est.EstimatorConfig("l2", k=5, symmetrize=False)])
def test_one_group_matrix_is_zero(build, cfg):
    # the one group is paired with nothing, so its column makes no query
    ds = Dataset((Group("a", _rng(0).normal(size=(30, 2))),))
    W = build(ds, cfg)
    assert W.ids == ("a",)
    assert np.array_equal(W.values, [[0.0]])


# ---------------------------------------------------------------------------
# Threaded matrix builds.

def _assert_pair_values(w, ds_from, ds_to, pair, cfg):
    """Each cell of w is the pair API's value, 0 where both name one group."""
    for i, gi in enumerate(ds_from.groups):
        for j, gj in enumerate(ds_to.groups):
            if gi.id == gj.id and np.array_equal(gi.points, gj.points):
                assert w[i, j] == 0.0
                continue
            want = pair(gi.points, gj.points)
            if cfg.symmetrize:
                want = (want + pair(gj.points, gi.points)) / 2.0
            assert w[i, j] == want


@pytest.mark.parametrize("workers", [1, 2, -1])
@pytest.mark.parametrize("cfg", [est.EstimatorConfig("renyi", 0.5, 5),
                                 est.EstimatorConfig("l2", k=4, symmetrize=False)])
@pytest.mark.parametrize("d", [1, 2, 20])  # sorted window, kd-tree, brute force
def test_threaded_matrices_equal_the_pair_api(d, cfg, workers):
    rng = _rng(90 + d)
    train = Dataset(tuple(Group(f"g{i}", rng.normal(0.3 * i, 1.0, size=(50 + 5 * i, d)))
                          for i in range(4)))
    other = Dataset(tuple(Group(f"h{i}", rng.normal(0.5 - 0.2 * i, 1.0, size=(45, d)))
                          for i in range(3)))
    # shares g1 with train, and reuses the id g2 with other points
    overlap = Dataset((Group("g1", train.groups[1].points.copy()),
                       Group("g2", rng.normal(0.0, 1.0, size=(55, d))),
                       other.groups[0]))
    pair, fit_pair = _pair_estimate(cfg), _baseline_pair(cfg)
    square = _with_workers(est.divergence_matrix, workers)(train, cfg)
    _assert_pair_values(square.values, train, train, pair, cfg)
    for ds in (other, overlap):
        _assert_pair_values(_with_workers(est.cross_divergence_matrix, workers)(ds, train, cfg),
                            ds, train, pair, cfg)
        _assert_pair_values(_with_workers(baselines.baseline_cross_matrix, workers)(ds, train, cfg),
                            ds, train, fit_pair, cfg)


@pytest.mark.parametrize("workers", [1, -1])
@pytest.mark.parametrize("cfg", [est.EstimatorConfig("renyi", 0.5, 5),
                                 est.EstimatorConfig("l2", k=4, symmetrize=False)])
def test_line_batches_equal_the_pair_api(monkeypatch, cfg, workers):
    # A d = 1 build sorts each direction's row groups' points once and
    # each column queries them less its own group, then puts nu_k back in
    # each group's point order. Groups of unequal sizes hold 15 points of
    # one shared set each, so that queries coincide with a column's
    # points and take rank k + 1, and every cell must still be the pair
    # API's value bit for bit, in the square matrix and in cross
    # matrices with and without a shared group.
    rng = _rng(140)
    shared = np.unique(np.round(rng.normal(size=80), 2))
    groups = tuple(
        Group(f"g{i}", rng.permutation(np.concatenate([
            rng.choice(shared, 15, replace=False),
            rng.normal(0.3 * i, 1.0 + 0.2 * i, size=20 + 9 * i)]))[:, None])
        for i in range(5))
    train = Dataset(groups)
    other = Dataset((Group("g1", groups[1].points.copy()),
                     Group("h", rng.permutation(np.concatenate([
                         shared[:30], rng.normal(size=12)]))[:, None])))
    coincident = []
    real = knn._line_rank_distances

    def recorded(q, line, ranks):
        # a within-sample query reads rank k + 1 too, on the line itself
        if ranks == (cfg.k + 1,) and not np.shares_memory(q, line):
            coincident.append(len(q))
        return real(q, line, ranks)

    monkeypatch.setattr(knn, "_line_rank_distances", recorded)
    pair = _pair_estimate(cfg)
    _assert_pair_values(est.divergence_matrix(train, cfg, workers=workers).values,
                        train, train, pair, cfg)
    assert coincident
    for ds_from, ds_to in ((other, train), (train, other), (Dataset(groups[:2]), other)):
        _assert_pair_values(est.cross_divergence_matrix(ds_from, ds_to, cfg, workers=workers),
                            ds_from, ds_to, pair, cfg)


def test_threads_keep_their_own_line_workspaces():
    # A 1-D column writes its sorted queries and their permutation into
    # its thread's knn workspace. With more threads than cores and a
    # switch interval of a microsecond, threads interleave inside their
    # columns, so a workspace shared between threads would mix their nu_k;
    # then a build on this thread reuses its own workspace. Every cell
    # must equal the pair API's.
    rng = _rng(141)
    ds = Dataset(tuple(Group(f"g{i}", rng.normal(0.2 * i, 1.0, size=(300 + 40 * i, 1)))
                       for i in range(8)))
    cfg = est.EstimatorConfig("renyi", 0.5, 5)
    pair = _pair_estimate(cfg)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = est.divergence_matrix(ds, cfg, workers=8).values
    finally:
        sys.setswitchinterval(interval)
    _assert_pair_values(threaded, ds, ds, pair, cfg)
    assert np.array_equal(est.divergence_matrix(ds, cfg).values, threaded)


def test_one_item_steps_pass_the_resolved_thread_count(monkeypatch):
    # workers=-1 counts the CPUs of the affinity mask; a step that runs
    # outside the pool passes that count to its queries, not -1, which
    # cKDTree would resolve as os.cpu_count()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    seen, real = [], knn.NeighborIndex._rank_distances

    def recorded(self, queries, ranks, workers):
        seen.append(workers)
        return real(self, queries, ranks, workers)

    monkeypatch.setattr(knn.NeighborIndex, "_rank_distances", recorded)
    rng = _rng(142)
    x, y = rng.normal(size=(60, 2)), rng.normal(0.5, 1.0, size=(50, 2))
    cfg = est.EstimatorConfig("renyi", 0.5, 5)
    want = est.renyi_divergence(x, y, 5, 0.5)
    seen.clear()
    assert est.renyi_divergence(x, y, 5, 0.5, workers=-1) == want
    assert seen and set(seen) == {1}
    one = Dataset((Group("x", x),))
    ds = Dataset(tuple(Group(f"g{i}", rng.normal(0.3 * i, 1.0, size=(40, 2))) for i in range(3)))
    want = est.cross_divergence_matrix(one, ds, cfg)
    seen.clear()
    assert np.array_equal(est.cross_divergence_matrix(one, ds, cfg, workers=-1), want)
    assert seen and set(seen) == {1}


def test_pool_has_at_most_one_thread_per_group(monkeypatch):
    sizes = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(est, "ThreadPoolExecutor", RecordingPool)
    ds, one = _toy_dataset(10, n=40), Dataset((Group("h", _rng(11).normal(size=(40, 1))),))
    cfg = est.EstimatorConfig("renyi", 0.5, 5)
    want = est.divergence_matrix(ds, cfg).values
    cpus = est._thread_count(-1)
    for workers, size in ((1, 1), (2, 2), (10**9, 3), (-1, min(cpus, 3))):
        sizes.clear()
        assert np.array_equal(est.divergence_matrix(ds, cfg, workers=workers).values, want)
        assert sizes == ([size] if size > 1 else [])
    # a cross matrix takes the larger of its two group counts
    sizes.clear()
    est.cross_divergence_matrix(one, ds, cfg, workers=10**9)
    assert sizes == [3]
    # two one-group datasets need no pool
    sizes.clear()
    est.cross_divergence_matrix(one, Dataset((ds.groups[0],)), cfg, workers=10**9)
    assert sizes == []


def test_all_workers_counts_the_cpus_the_process_may_run_on(monkeypatch):
    # a process pinned to fewer CPUs than the machine has (taskset, a
    # container cpuset) starts one thread per CPU it may run on, and no
    # more than the matrix has groups
    sizes = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(est, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    ds = _toy_dataset(10, n=40)
    cfg = est.EstimatorConfig("renyi", 0.5, 5)
    want = est.divergence_matrix(ds, cfg).values
    for affinity, size in (({3}, None), ({0, 5}, 2), (set(range(8)), 3)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=affinity: set(cpus),
                            raising=False)
        assert est._thread_count(-1) == len(affinity)
        sizes.clear()
        assert np.array_equal(est.divergence_matrix(ds, cfg, workers=-1).values, want)
        assert sizes == ([size] if size else [])
    # where the platform has no affinity mask, every CPU counts
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert est._thread_count(-1) == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert est._thread_count(-1) == 1
    assert est._thread_count(3) == 3


def test_queries_in_the_pool_run_on_one_thread(monkeypatch):
    # two column threads must not each start workers kd-tree threads; a
    # build with nothing to spread passes its queries the thread count
    # that workers stands for
    seen = []
    for name in ("kth_nn_within", "kth_nn_cross"):
        real = getattr(knn, name)
        monkeypatch.setattr(knn, name, lambda *a, _real=real, **kw:
                            seen.append(kw["workers"]) or _real(*a, **kw))
    ds = Dataset(tuple(Group(f"g{i}", _rng(i).normal(size=(40, 2))) for i in range(3)))
    cfg = est.EstimatorConfig("renyi", 0.5, 5)
    est.divergence_matrix(ds, cfg, workers=-1)
    assert len(seen) == 6 and set(seen) == {1}
    seen.clear()
    est.cross_divergence_matrix(Dataset(ds.groups[:1]), Dataset(ds.groups[1:2]), cfg, workers=-1)
    assert seen == [est._thread_count(-1)] * 4


def _pair_build(name):
    """The pair function ``name`` from the first group of ds to its second."""
    return lambda ds, cfg, workers: _call_pair(name, ds.groups[0].points, ds.groups[1].points,
                                               cfg.k, cfg.alpha, workers)


@pytest.mark.parametrize("workers", [0, -2, 1.5, None, "2"])
@pytest.mark.parametrize("build", [est.divergence_matrix,
                                   lambda ds, cfg, workers: est.cross_divergence_matrix(
                                       ds, ds, cfg, workers=workers)]
                         + [pytest.param(_pair_build(name), id=name) for name in _PAIR_FUNCTIONS])
def test_bad_workers_rejected_before_any_preparation(monkeypatch, build, workers):
    calls = []
    monkeypatch.setattr(knn, "build_index", lambda points: calls.append(1))
    with pytest.raises(ConfigError, match="workers must be -1 or a positive integer"):
        build(_toy_dataset(13, n=40), est.EstimatorConfig("renyi", 0.5, 5), workers=workers)
    assert calls == []


@pytest.mark.parametrize("d", [1, 2, 20])  # sorted line, kd-tree, screened brute force
@pytest.mark.parametrize("workers", [True, False, np.True_])
def test_a_bool_is_no_thread_count(d, workers):
    # True is an int to Python, but no thread count: the queries, the
    # matrix build and the pair estimators all reject it, on every route
    rng = _rng(17)
    x, y = rng.normal(size=(30, d)), rng.normal(size=(25, d))
    idx = knn.build_index(x)
    ds = Dataset((Group("a", x), Group("b", y)))
    calls = [lambda: knn.kth_nn_within(idx, 3, workers=workers),
             lambda: knn.kth_nn_cross(y, idx, 3, workers=workers),
             lambda: est.divergence_matrix(ds, est.EstimatorConfig("renyi", 0.5, 3),
                                           workers=workers),
             lambda: est.renyi_divergence(x, y, 3, 0.5, workers=workers)]
    for call in calls:
        with pytest.raises(ConfigError, match="workers must be -1 or a positive integer"):
            call()


@settings(max_examples=10, deadline=None)
@given(order=st.permutations(range(5)))
@pytest.mark.parametrize("cfg", [est.EstimatorConfig("renyi", 0.5, 5),
                                 est.EstimatorConfig("l2", k=4, symmetrize=False)])
@pytest.mark.parametrize("d", [1, 2, 20])  # sorted window, kd-tree, screened brute force
def test_matrix_is_equivariant_in_group_order(d, cfg, order):
    # renaming the groups so that the dataset's sort permutes them
    # permutes the matrix, bit for bit: each nu_k is a per-row value,
    # whatever rows are stacked into one query beside it
    rng = _rng(120 + d)
    groups = [Group(f"g{i}", rng.normal(0.4 * i, 1.0 + 0.1 * i, size=(40 + 7 * i, d)))
              for i in range(5)]
    ds = Dataset(tuple(groups))
    renamed = Dataset(tuple(Group(f"r{order[i]}", g.points) for i, g in enumerate(groups)))
    position = [renamed.ids.index(f"r{order[i]}") for i in range(5)]
    # other ids, same order: no row is the column group itself
    copies = Dataset(tuple(Group(f"s{i}", g.points) for i, g in enumerate(groups)))
    for workers in (1, -1):
        w = est.divergence_matrix(ds, cfg, workers=workers).values
        w_renamed = est.divergence_matrix(renamed, cfg, workers=workers).values
        assert np.array_equal(w_renamed[np.ix_(position, position)], w)
        cross = est.cross_divergence_matrix(copies, ds, cfg, workers=workers)
        cross_renamed = est.cross_divergence_matrix(renamed, ds, cfg, workers=workers)
        assert np.array_equal(cross_renamed[position], cross)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@pytest.mark.parametrize("d", [1, 2, 20])  # sorted line, kd-tree, screened brute force
def test_point_order_within_groups(d, seed):
    # permuting a group's points permutes its rho_k and every pair's nu_k
    # bit for bit: each is a per-point value, whatever the order of the
    # sample or of the queries. Matrix entries are means of per-point
    # terms, so only their summation order changes
    k, rng = 5, _rng(seed)
    # rounded, so that distances tie
    groups = [Group(f"g{i}", np.round(_rng(130 + d + i).normal(0.4 * i, 1.0, (40 + 7 * i, d)), 3))
              for i in range(4)]
    perms = [rng.permutation(g.points.shape[0]) for g in groups]
    shuffled = [Group(g.id, g.points[p]) for g, p in zip(groups, perms)]
    for g, s, p in zip(groups, shuffled, perms):
        assert np.array_equal(knn.kth_nn_within(knn.build_index(s.points), k),
                              knn.kth_nn_within(knn.build_index(g.points), k)[p])
        for h, t in zip(groups, shuffled):
            if h is not g:
                assert np.array_equal(
                    knn.kth_nn_cross(s.points, knn.build_index(t.points), k),
                    knn.kth_nn_cross(g.points, knn.build_index(h.points), k)[p])
    for cfg in (est.EstimatorConfig("renyi", 0.5, k), est.EstimatorConfig("l2", k=k)):
        for workers in (1, 2):
            w = est.divergence_matrix(Dataset(tuple(groups)), cfg, workers=workers).values
            got = est.divergence_matrix(Dataset(tuple(shuffled)), cfg, workers=workers).values
            np.testing.assert_allclose(got, w, rtol=1e-12, atol=0.0)
