"""Neighbor-distance queries: each route vs brute force, edge semantics, volumes."""

import math
import tracemalloc
import warnings

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
# bits and are checked to 1e-13 relative. Half the dimensions drawn take
# the kd-tree or sorted-window route, half the d > 15 screen.

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


_ROUTE_DIMS = st.one_of(st.integers(1, knn.BRUTE_FORCE_DIM + 1),
                        st.integers(knn.BRUTE_FORCE_DIM + 1, 64))


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
# Half the draws go to d > 15, so each test runs 160 examples, about 80
# of them at d <= 16 as when it drew d from [1, 16] only.
@settings(max_examples=160, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(5, 60),
    d=_ROUTE_DIMS,
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


@settings(max_examples=160, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 60),
    m=st.integers(1, 40),
    d=_ROUTE_DIMS,
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


def _count_brute_rows(monkeypatch):
    """Swap in a _brute_rank_distances that counts the query rows it answers;
    the count is the returned list's one item."""
    brute, rows = knn._brute_rank_distances, [0]

    def counted(queries, points, ranks):
        rows[0] += queries.shape[0]
        return brute(queries, points, ranks)

    monkeypatch.setattr(knn, "_brute_rank_distances", counted)
    return rows


def test_screened_route_matches_brute(monkeypatch):
    # The d > 15 route screens with a matrix product and recomputes its
    # candidates; rows it cannot certify go to _brute_rank_distances, which
    # is counted here. A row falls back when its candidates tie with the
    # next point within the rounding margin, as a sample of few distinct
    # points makes them; the screen is centered, so large offsets alone
    # do not make rows fall back.
    seen = {"certified": 0, "fallback": 0}

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(knn.BRUTE_FORCE_DIM + 1, 200),
        n=st.integers(1, 40),
        k=st.integers(1, 5),
        extra=st.integers(-6, 40),
        decimals=st.integers(0, 4),
        scale_exp=st.floats(-150.0, 150.0),
        offset=st.sampled_from([0.0, 1e2, 1e5, 1e6, 1e8, 1e12]),
        distinct=st.integers(1, 60),
        coincide=st.booleans(),
        within=st.booleans(),
        block_bytes=st.integers(1, 2**16),
    )
    def check(seed, d, n, k, extra, decimals, scale_exp, offset, distinct, coincide,
              within, block_bytes):
        # m runs from below kq + _SCREEN_EXTRA, where nothing is screened,
        # to well above it
        m = max(1, k + knn._SCREEN_EXTRA + extra)
        rng = _rng(seed)
        scale = 10.0 ** scale_exp
        pts = (_rounded_normal(rng, (m, d), decimals) + offset) * scale
        queries = (_rounded_normal(rng, (n, d), decimals) + offset) * scale
        if distinct < m:
            pts = pts[rng.integers(0, distinct, size=m)]
        if coincide:
            queries[::2] = pts[rng.integers(0, m, size=len(queries[::2]))]
        # the ranks that kth_nn_within and kth_nn_cross ask for
        if within:
            queries, ranks = pts, (min(k + 1, m),)
        else:
            ranks = tuple(sorted({1, min(k, m), min(k + 1, m)}))
        want = knn._brute_rank_distances(queries, pts, ranks)
        monkeypatch.setattr(knn, "_BLOCK_BYTES", block_bytes)
        fell = _count_brute_rows(monkeypatch)
        try:
            got = knn._screened_rank_distances(queries, pts, knn._Screen(pts), ranks)
        finally:
            monkeypatch.undo()
        assert np.array_equal(got, want)
        if m > ranks[-1] + knn._SCREEN_EXTRA:
            seen["fallback"] += fell[0]
            seen["certified"] += len(queries) - fell[0]
        else:
            assert fell[0] == len(queries)

    check()
    assert seen["certified"] > 0 and seen["fallback"] > 0


def test_brute_memory_stays_within_budget(monkeypatch):
    # Unblocked, the d = 40 brute-force difference is 96 MB and each of the
    # sorted-window case's temporaries 64 MB. The d > 15 screen holds N
    # values and N partition indices per row: 320 KB a row in the wide
    # case, whose brute-force difference would be 512 MB. Against 1000
    # copies of one point every row ties and falls back to brute force.
    # Each case takes many blocks at the default budget too; the wide
    # case's within-sample query is skipped, its brute-force reference
    # being too slow.
    rng = _rng(6)
    queries, pts = rng.normal(size=(300, 40)), rng.normal(size=(1000, 40))
    cases = [  # queries, points, k, within-sample too, rows that fall back
        (queries, pts, 5, True, 0),
        (queries, np.repeat(pts[:1], 1000, axis=0), 5, True, 1300),
        (rng.normal(size=(200, 16)), rng.normal(size=(20000, 16)), 5, False, 0),
        (rng.normal(size=(20000, 1)), rng.normal(size=(5000, 1)), 200, True, 0),
    ]
    budget = 2**20
    for queries, pts, k, within, fallback in cases:
        idx = knn.build_index(pts)
        want = [knn.brute_kth_nn_cross(queries, pts, k)]
        if within:
            want.append(knn.brute_kth_nn_within(pts, k))
        monkeypatch.setattr(knn, "_BLOCK_BYTES", budget)
        fell = _count_brute_rows(monkeypatch)
        tracemalloc.start()
        try:
            got = [knn.kth_nn_cross(queries, idx, k)]
            if within:
                got.append(knn.kth_nn_within(idx, k))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            monkeypatch.undo()
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert fell[0] == fallback
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


def test_brute_oracle_does_not_use_the_screen(monkeypatch):
    # brute_kth_nn_* are the reference that these tests and divbench's
    # spot checks hold the d > 15 route to, so they must not run it
    rng = _rng(8)
    pts, queries = rng.normal(size=(60, 30)), rng.normal(size=(20, 30))
    idx = knn.build_index(pts)
    assert idx.tree is None  # divbench's tracer labels the route from it
    want = knn.kth_nn_within(idx, 3), knn.kth_nn_cross(queries, idx, 3)

    def refuse(*args):
        raise AssertionError("screened route called")

    monkeypatch.setattr(knn, "_screened_rank_distances", refuse)
    monkeypatch.setattr(knn, "_certified_candidates", refuse)
    assert np.array_equal(knn.brute_kth_nn_within(pts, 3), want[0])
    assert np.array_equal(knn.brute_kth_nn_cross(queries, pts, 3), want[1])
    with pytest.raises(AssertionError, match="screened route"):
        knn.kth_nn_within(idx, 3)


def test_screen_overflow_falls_back_without_warnings(monkeypatch):
    # Brute force warns of nothing on these points, so the screen must not
    # either. At d = 80 and 1.5e153, ||q||^2 and ||p||^2 overflow while
    # (q - p)^2, about 1e290, does not; centered, the norms do not, and
    # every row is certified. A coordinate of 1e307 that all points share
    # makes the screen's center overflow, and every row falls back.
    rng = _rng(9)
    far = (1.5e153 + 1e145 * rng.normal(size=(100, 80)),
           1.5e153 + 1e145 * rng.normal(size=(30, 80)))
    shared = rng.normal(size=(100, 20)), rng.normal(size=(30, 20))
    for a in shared:
        a[:, 0] = 1e307
    for (pts, queries), fallback in ((far, 0), (shared, 30)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = knn.brute_kth_nn_cross(queries, pts, 4)
            fell = _count_brute_rows(monkeypatch)
            got = knn.kth_nn_cross(queries, knn.build_index(pts), 4)
        monkeypatch.undo()
        assert np.array_equal(got, want)
        assert fell[0] == fallback


def test_screen_products_stay_on_one_blas_thread(monkeypatch):
    # OpenBLAS threads a product of 2**19 multiply-adds or more, and a
    # threaded product of a few rows waits for a second core; so each
    # block of the screen has fewer than 2**19 / (N d) rows, or one row
    rows, certify = [], knn._certified_candidates

    def spy(qb, *args):
        rows.append(len(qb))
        return certify(qb, *args)

    monkeypatch.setattr(knn, "_certified_candidates", spy)
    rng = _rng(10)
    for n, d, most in ((400, 20, 39), (2000, 64, 4), (20000, 40, 1)):
        rows.clear()
        knn.kth_nn_cross(rng.normal(size=(100, d)), knn.build_index(rng.normal(size=(n, d))), 5)
        assert max(rows) == most
        assert most == 1 or most * n * d < knn._ONE_THREAD_PRODUCT


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
