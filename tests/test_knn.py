"""Neighbor-distance queries: each route vs brute force, edge semantics, volumes."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from divknn import estimators, knn
from divknn.dataset import Dataset, Group
from divknn.errors import DegenerateDistanceError, DivknnError, InsufficientSampleError


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


# ---------------------------------------------------------------------------
# Hand cases.

def test_within_two_points_on_a_line():
    idx = knn.build_index([[0.0], [2.0]])
    assert knn.kth_nn_within(idx, 1).tolist() == [2.0, 2.0]


def test_cross_hand_case():
    # queries {0, 2} against the single reference point {1}
    idx = knn.build_index([[1.0]])
    got = knn.kth_nn_cross([[0.0], [2.0]], idx, 1)
    assert got.tolist() == [1.0, 1.0]


def test_within_unequal_gaps():
    # gaps 1 and 3: nearest-other distances are 1, 1, 3
    idx = knn.build_index([[0.0], [1.0], [4.0]])
    assert knn.kth_nn_within(idx, 1).tolist() == [1.0, 1.0, 3.0]
    assert knn.kth_nn_within(idx, 2).tolist() == [4.0, 3.0, 4.0]


def test_cross_excludes_single_coincidence():
    # the query at 1.0 sits exactly on an indexed point, which must not
    # count as its own neighbor
    idx = knn.build_index([[0.0], [1.0], [3.0]])
    got = knn.kth_nn_cross([[1.0]], idx, 1)
    assert got.tolist() == [1.0]
    got = knn.kth_nn_cross([[1.0]], idx, 2)
    assert got.tolist() == [2.0]


def test_cross_duplicate_reference_raises():
    idx = knn.build_index([[1.0], [1.0], [3.0]])
    with pytest.raises(DegenerateDistanceError):
        knn.kth_nn_cross([[1.0]], idx, 1)


def test_cross_coincidence_needs_one_extra_point():
    idx = knn.build_index([[1.0], [2.0]])
    with pytest.raises(InsufficientSampleError):
        knn.kth_nn_cross([[1.0]], idx, 2)


def test_within_insufficient_sample():
    idx = knn.build_index([[0.0], [1.0]])
    with pytest.raises(InsufficientSampleError):
        knn.kth_nn_within(idx, 2)


def test_cross_k_larger_than_reference():
    idx = knn.build_index([[0.0], [1.0]])
    with pytest.raises(InsufficientSampleError):
        knn.kth_nn_cross([[5.0]], idx, 3)


def test_bad_inputs_rejected():
    with pytest.raises(ValueError):
        knn.build_index(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        knn.build_index([[np.nan]])
    with pytest.raises(ValueError):
        knn.build_index([1.0, 2.0])
    idx = knn.build_index([[0.0, 0.0]])
    with pytest.raises(ValueError):
        knn.kth_nn_cross([[1.0]], idx, 1)
    with pytest.raises(ValueError):
        knn.kth_nn_within(idx, 0)


# ---------------------------------------------------------------------------
# Every route must equal the brute-force route bit for bit, except the
# kd-tree from d = 8 on: cKDTree then sums a squared distance in another
# order than numpy's brute force, so its distances may differ in the last
# bits and are checked to 1e-13 relative.

_TREE_BITWISE_DIM = 7


def _outcome(query):
    """The query's distances, or the type and message of the error it raised."""
    try:
        return query()
    except DivknnError as exc:
        return type(exc), str(exc)


def _assert_same_outcome(got, want, rtol=0.0):
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray)
        if rtol:
            np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0)
        else:
            assert np.array_equal(got, want)
    else:
        assert got == want


def _route_rtol(d):
    """Tolerance of the index's route against brute force at dimension d."""
    return 1e-13 if _TREE_BITWISE_DIM < d <= knn.BRUTE_FORCE_DIM else 0.0


def _rounded_normal(rng, shape, decimals):
    # rounding makes distance ties and duplicate points
    return np.round(rng.normal(size=shape) * 3.0, decimals)


def _blocked_vs_one_block(monkeypatch, block_bytes, routed, brute):
    """Outcome of routed() with blocks of block_bytes, and of brute() in one block."""
    monkeypatch.setattr(knn, "_BLOCK_BYTES", 2**40)
    want = _outcome(brute)
    monkeypatch.setattr(knn, "_BLOCK_BYTES", block_bytes)
    return _outcome(routed), want


# The budgets range from one query row per block to a few dozen, so the
# queries cross several block edges on the window and brute-force routes.
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(5, 60),
    d=st.integers(1, knn.BRUTE_FORCE_DIM + 1),
    k=st.integers(1, 4),
    decimals=st.integers(0, 4),
    block_bytes=st.integers(1, 2**11),
)
def test_tree_matches_brute_within(monkeypatch, seed, n, d, k, decimals, block_bytes):
    pts = _rounded_normal(_rng(seed), (n, d), decimals)
    _assert_same_outcome(*_blocked_vs_one_block(
        monkeypatch, block_bytes,
        lambda: knn.kth_nn_within(knn.build_index(pts), k),
        lambda: knn.brute_kth_nn_within(pts, k)), rtol=_route_rtol(d))


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 60),
    m=st.integers(1, 40),
    d=st.integers(1, knn.BRUTE_FORCE_DIM + 1),
    k=st.integers(1, 4),
    decimals=st.integers(0, 4),
    coincide=st.booleans(),
    block_bytes=st.integers(1, 2**11),
)
def test_tree_matches_brute_cross(monkeypatch, seed, n, m, d, k, decimals, coincide, block_bytes):
    rng = _rng(seed)
    queries = _rounded_normal(rng, (n, d), decimals)
    pts = _rounded_normal(rng, (m, d), decimals)
    if coincide:
        queries[::2] = pts[rng.integers(0, m, size=len(queries[::2]))]
    _assert_same_outcome(*_blocked_vs_one_block(
        monkeypatch, block_bytes,
        lambda: knn.kth_nn_cross(queries, knn.build_index(pts), k),
        lambda: knn.brute_kth_nn_cross(queries, pts, k)), rtol=_route_rtol(d))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 6),
    extra=st.integers(0, 2**16),
    n=st.integers(1, 30),
    decimals=st.integers(0, 3),
    scale_exp=st.floats(-6.0, 6.0),
    coincide=st.booleans(),
)
def test_sorted_window_matches_brute(seed, k, extra, n, decimals, scale_exp, coincide):
    # m runs from k to 3(k+1), so windows clipped to the whole sample
    # (m < 2kq), exactly filling it (m = 2kq) and interior ones all occur;
    # rounding makes ties and duplicates
    m = k + extra % (2 * k + 4)
    rng = _rng(seed)
    scale = 10.0 ** scale_exp
    pts = np.round(rng.normal(size=(m, 1)) * 3.0, decimals) * scale
    queries = np.round(rng.normal(size=(n, 1)) * 3.0, decimals) * scale
    if coincide:
        queries[::2] = pts[rng.integers(0, m, size=len(queries[::2]))]
    idx = knn.build_index(pts)
    assert isinstance(idx.tree, np.ndarray)  # the sorted-window route
    ranks = tuple(range(1, min(k + 1, m) + 1))  # the whole sorted table
    assert np.array_equal(idx._rank_distances(queries, ranks, 1),
                          knn._brute_rank_distances(queries, pts, ranks))
    _assert_same_outcome(_outcome(lambda: knn.kth_nn_cross(queries, idx, k)),
                         _outcome(lambda: knn.brute_kth_nn_cross(queries, pts, k)))
    _assert_same_outcome(_outcome(lambda: knn.kth_nn_within(idx, k)),
                         _outcome(lambda: knn.brute_kth_nn_within(pts, k)))


def test_brute_memory_stays_within_budget(monkeypatch):
    # unblocked, the brute-force case's broadcast difference is 96 MB and
    # each of the sorted-window case's temporaries 64 MB; both take many
    # blocks at the default budget too
    rng = _rng(6)
    brute = rng.normal(size=(300, 40)), rng.normal(size=(1000, 40)), 5
    window = rng.normal(size=(20000, 1)), rng.normal(size=(5000, 1)), 200
    budget = 2**20
    for queries, pts, k in (brute, window):
        idx = knn.build_index(pts)
        want = knn.brute_kth_nn_cross(queries, pts, k), knn.brute_kth_nn_within(pts, k)
        monkeypatch.setattr(knn, "_BLOCK_BYTES", budget)
        tracemalloc.start()
        try:
            got = knn.kth_nn_cross(queries, idx, k), knn.kth_nn_within(idx, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            monkeypatch.undo()
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert peak <= 4 * budget


def test_threaded_matrix_memory_stays_within_twice_the_budget(monkeypatch):
    # a matrix build at workers=2 queries two columns at a time, so it may
    # hold twice one query's temporaries and no more. Unblocked, a column's
    # brute-force difference would be 230 MB and each sorted-window
    # temporary 32 MB
    rng = _rng(7)
    budget = 2**20
    for d, n, k in ((40, 600, 5), (1, 5000, 200)):
        ds = Dataset(tuple(Group(f"g{i}", rng.normal(0.2 * i, 1.0, size=(n, d)))
                           for i in range(3)))
        cfg = estimators.EstimatorConfig("renyi", 0.5, k)
        want = estimators.divergence_matrix(ds, cfg).values
        monkeypatch.setattr(knn, "_BLOCK_BYTES", budget)
        tracemalloc.start()
        try:
            got = estimators.divergence_matrix(ds, cfg, workers=2).values
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            monkeypatch.undo()
        assert np.array_equal(got, want)
        assert peak <= 2 * 4 * budget


def test_high_dim_falls_back_to_brute():
    pts = _rng(3).normal(size=(30, knn.BRUTE_FORCE_DIM + 1))
    idx = knn.build_index(pts)
    assert idx.tree is None
    got = knn.kth_nn_within(idx, 2)
    assert np.array_equal(got, knn.brute_kth_nn_within(pts, 2))


def test_workers_do_not_change_results():
    pts = _rng(4).normal(size=(200, 2))
    idx = knn.build_index(pts)
    a = knn.kth_nn_within(idx, 5, workers=1)
    b = knn.kth_nn_within(idx, 5, workers=-1)
    assert np.array_equal(a, b)


def test_queries_are_deterministic():
    pts = _rng(5).normal(size=(100, 3))
    a = knn.kth_nn_within(knn.build_index(pts), 4)
    b = knn.kth_nn_within(knn.build_index(pts.copy()), 4)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Unit-ball volumes.

def test_unit_ball_volume_known_dimensions():
    assert knn.unit_ball_volume(1) == 2.0
    assert math.isclose(knn.unit_ball_volume(2), math.pi, rel_tol=1e-15)
    assert math.isclose(knn.unit_ball_volume(3), 4.0 * math.pi / 3.0, rel_tol=1e-15)
    # even dimensions: pi^m / m!
    assert math.isclose(knn.unit_ball_volume(4), math.pi**2 / 2.0, rel_tol=1e-14)
    assert math.isclose(knn.unit_ball_volume(6), math.pi**3 / 6.0, rel_tol=1e-14)


def test_unit_ball_volume_recurrence():
    # c_d = c_{d-2} * 2*pi/d
    for d in range(3, 20):
        assert math.isclose(
            knn.unit_ball_volume(d),
            knn.unit_ball_volume(d - 2) * 2.0 * math.pi / d,
            rel_tol=1e-13,
        )


def test_unit_ball_volume_rejects_bad_dimension():
    with pytest.raises(ValueError):
        knn.unit_ball_volume(0)
    with pytest.raises(ValueError):
        knn.unit_ball_volume(2.5)
