"""Neighbor-distance queries: each route vs brute force, edge semantics, volumes."""

import math
import os
import platform
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from divknn import estimators, knn
from divknn.dataset import Dataset, Group
from divknn.errors import (
    ConfigError,
    DegenerateDistanceError,
    DivknnError,
    InsufficientSampleError,
)


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
    with pytest.raises(ValueError, match="k must be >= 1, got 0"):
        knn.kth_nn_cross([[0.5, 0.5]], idx, 0)
    with pytest.raises(ValueError, match="query/point dimensions differ"):
        knn.brute_kth_nn_cross(np.zeros((2, 3)), np.ones((4, 2)), 1)


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
    assert idx.route == "line"  # the sorted-window route
    ranks = tuple(range(1, min(k + 1, m) + 1))  # the whole sorted table
    assert np.array_equal(idx._rank_distances(queries, ranks, 1),
                          knn._brute_rank_distances(queries, pts, ranks))
    _assert_same_outcome(_outcome(lambda: knn.kth_nn_cross(queries, idx, k)),
                         _outcome(lambda: knn.brute_kth_nn_cross(queries, pts, k)))
    _assert_same_outcome(_outcome(lambda: knn.kth_nn_within(idx, k)),
                         _outcome(lambda: knn.brute_kth_nn_within(pts, k)))


def _count_rows(monkeypatch, name):
    """Swap in a knn.<name> that counts the query rows, its first
    argument, that it answers; the count is the returned list's one item."""
    real, rows = getattr(knn, name), [0]

    def counted(queries, *args):
        rows[0] += queries.shape[0]
        return real(queries, *args)

    monkeypatch.setattr(knn, name, counted)
    return rows


def _line_queries(rng, values, arrangement):
    """values as an n x 1 query array: in random order, sorted, in sorted
    runs of random length, or pooled as a matrix build pools its row
    groups: a knn.QueryBatch of several groups, less one of them at
    random, whose split must give back each other group's points."""
    values = rng.permutation(values)
    if arrangement == "sorted":
        values = np.sort(values)
    elif arrangement == "runs":
        cuts = np.sort(rng.integers(0, len(values) + 1, size=rng.integers(1, 5)))
        values = np.concatenate([np.sort(run) for run in np.split(values, cuts)])
    elif arrangement == "pooled":
        cuts = np.sort(rng.integers(1, len(values), size=rng.integers(0, 4))) \
            if len(values) > 1 else []
        groups = np.split(values, np.unique(cuts))
        skip = int(rng.integers(0, len(groups))) if len(groups) > 1 else None
        batch = knn.QueryBatch([knn.build_index(g[:, None]) for g in groups])
        queries, split = batch.query(skip)
        values = queries[:, 0]
        assert (np.diff(values) >= 0).all()
        back = split(values.copy())
        rest = [g for i, g in enumerate(groups) if i != skip]
        assert len(back) == len(rest)
        assert all(np.array_equal(b, g) for b, g in zip(back, rest))
    return values[:, None]


def test_line_route_matches_brute(monkeypatch):
    # The d = 1 route finds each rank's run by one search among midpoints
    # and certifies it from the run's outer neighbours; rows it cannot
    # certify go to the sorted-window code, counted here. Rounded
    # coordinates make ties, duplicates and coincident queries, which the
    # certificate must tolerate; queries on the decimal midpoint of two
    # points make the binary midpoint round across q, and such rows fall
    # back. Scales near 1e-160 make squares underflow and near 1e154
    # overflow; below 1e-306 the points themselves are subnormal, and
    # halving them rounds. Offsets to 1e15 leave few bits of spread.
    seen = {"certified": 0, "fallback": 0}

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kq=st.integers(1, 6),
        extra=st.integers(0, 2**16),
        n=st.integers(1, 40),
        which=st.sampled_from(["cross", "rank", "all", "within"]),
        decimals=st.sampled_from([None, 0, 1, 2, 3]),
        scale_exp=st.one_of(st.floats(-6.0, 6.0), st.floats(-163.0, -157.0),
                            st.floats(152.0, 155.0), st.floats(-318.0, -306.0)),
        offset=st.sampled_from([0.0, 0.0, 1.0, 1e3, 1e8, 1e12, 1e15]),
        on=st.sampled_from(["nothing", "points", "midpoints"]),
        arrangement=st.sampled_from(["random", "sorted", "runs", "pooled"]),
    )
    # a draw known to send rows to the fallback, whatever else is drawn
    @example(seed=1, kq=2, extra=6, n=40, which="cross", decimals=1, scale_exp=0.0,
             offset=0.0, on="midpoints", arrangement="runs")
    def check(seed, kq, extra, n, which, decimals, scale_exp, offset, on, arrangement):
        # m runs from kq, where the one run is the whole sample, to 3(kq + 1)
        m = kq + extra % (2 * kq + 4)
        rng = _rng(seed)

        def rounded(x):
            return x if decimals is None else np.round(x, decimals)

        grid = rounded(rng.normal(size=m) * 3.0)
        values = rounded(rng.normal(size=n) * 3.0)
        pick = rng.integers(0, m, size=(2, len(values[::2])))
        if on == "points":
            values[::2] = grid[pick[0]]
        elif on == "midpoints":
            values[::2] = rounded((grid[pick[0]] + grid[pick[1]]) / 2.0)
        scale = 10.0 ** scale_exp
        pts = ((grid + offset) * scale)[:, None]
        queries = _line_queries(rng, (values + offset) * scale, arrangement)
        ranks = {"cross": tuple(sorted({1, kq})), "rank": (kq,),
                 "all": tuple(range(1, kq + 1)), "within": (kq,)}[which]
        if which == "within":
            queries = pts
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            want = knn._brute_rank_distances(queries, pts, ranks)
        fell = _count_rows(monkeypatch, "_window_rank_distances")
        try:
            with warnings.catch_warnings():
                # where the oracle overflows, the route may warn as well
                warnings.simplefilter("ignore" if caught else "error")
                got = knn._line_rank_distances(queries[:, 0], knn.build_index(pts).line, ranks)
        finally:
            monkeypatch.undo()
        assert np.array_equal(got, want)
        seen["fallback"] += fell[0]
        seen["certified"] += len(queries) - fell[0]
        if which != "within":
            with warnings.catch_warnings():
                warnings.simplefilter("ignore" if caught else "error")
                _assert_same_outcome(
                    _outcome(lambda: knn.kth_nn_cross(queries, knn.build_index(pts), kq)),
                    _outcome(lambda: knn.brute_kth_nn_cross(queries, pts, kq)))

    check()
    assert seen["certified"] > 0 and seen["fallback"] > 0


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 60),
    n=st.integers(1, 80),
    r=st.integers(1, 8),
    decimals=st.sampled_from([None, 0, 1, 2]),
    scale_exp=st.one_of(st.floats(-6.0, 6.0), st.floats(-163.0, -157.0),
                        st.floats(152.0, 155.0)),
    on=st.sampled_from(["nothing", "points", "midpoints"]),
    step=st.integers(1, 90),
)
def test_merged_run_starts_equal_one_search_per_query(seed, m, n, r, decimals, scale_exp,
                                                      on, step):
    # The d = 1 route counts, for each of the sorted queries, the
    # midpoints below it by merging: one search per midpoint for pos_t,
    # the queries at or below it, then the midpoint numbers between the
    # pos_t of each block of rows, as segments of rows with one run start
    # each. Repeated over their rows, the segments' run starts must be
    # np.searchsorted(mid, q) exactly: with duplicate points and queries,
    # queries on a point or on the decimal midpoint of two, midpoints that
    # round, the scales where the route's squares underflow or overflow,
    # and blocks of any size.
    rng = _rng(seed)
    r = min(r, m)

    def rounded(x):
        return x if decimals is None else np.round(x, decimals)

    scale = 10.0 ** scale_exp
    line = np.sort(rounded(rng.normal(size=m) * 3.0)) * scale
    q = rounded(rng.normal(size=n) * 3.0) * scale
    pick = rng.integers(0, m, size=(2, len(q[::2])))
    if on == "points":
        q[::2] = line[pick[0]]
    elif on == "midpoints":
        q[::2] = rounded((line[pick[0]] + line[pick[1]]) / (2.0 * scale)) * scale
    q.sort()
    half = line * 0.5
    mid = half[:m - r] + half[r:]
    pos = np.searchsorted(q, mid, "right")
    segments = [knn._run_segments(pos, start, min(start + step, n))
                for start in range(0, n, step)]
    assert all((np.diff(runs) > 0).all() and (counts >= 1).all() for runs, counts in segments)
    got = np.concatenate([np.repeat(runs, counts) for runs, counts in segments])
    assert got.dtype.kind == "i"
    assert np.array_equal(got, np.searchsorted(mid, q))


@pytest.mark.parametrize("decimals, ranks, fallback", [
    (1, (1, 5), 187), (1, (6,), 191), (2, (1, 5), 39), (2, (6,), 37)])
def test_line_route_sends_as_many_rows_to_the_window_as_a_search_per_query(
        monkeypatch, decimals, ranks, fallback):
    # The merge finds the same run starts as one search per query did, so
    # the certificate fails on the same rows. The counts are those of the
    # search per query at the ranks other than 1, on rounded data whose
    # ties send rows to the window: rank 1 is taken from the two points
    # around each query and never falls back. Stacked sorted runs and the
    # pooled sort of the same points send the same rows.
    rng = _rng(13)
    groups = [np.round(rng.normal(0.3 * g, 1.0 + 0.1 * g, size=400) * 3.0, decimals)
              for g in range(6)]
    line = knn.build_index(groups[0][:, None]).line
    rest = [knn.build_index(g[:, None]) for g in groups[1:]]
    runs = np.concatenate([ix.line for ix in rest])
    pooled = knn.QueryBatch(rest).query()[0][:, 0]
    want = knn._brute_rank_distances(runs[:, None], line[:, None], ranks)
    for queries in (runs, pooled):
        fell = _count_rows(monkeypatch, "_window_rank_distances")
        try:
            got = knn._line_rank_distances(queries, line, ranks)
        finally:
            monkeypatch.undo()
        assert fell[0] == fallback
        order = np.argsort(queries, kind="stable")
        assert np.array_equal(got[order], want[np.argsort(runs, kind="stable")])


def _per_row_fallback(q, line, ranks):
    """The sorted queries q that a check of every row sends to the window:
    those whose run at some rank r >= 2, starting after the midpoints
    below q, has an outer neighbour on q's side or nearer than the run's
    farther end (an infinitely far one where the sample ends)."""
    m, half = len(line), line * 0.5
    padded = np.concatenate(([-np.inf], line, [np.inf]))
    fails = np.zeros(len(q), dtype=bool)
    for r in ranks:
        if r == 1:
            continue
        i0 = np.searchsorted(half[:m - r] + half[r:], q)
        v = np.maximum((q - line[i0]) ** 2, (q - line[i0 + r - 1]) ** 2)
        below, above = padded[i0], padded[i0 + r + 1]
        fails |= ~((below <= q) & ((q - below) ** 2 >= v)
                   & (above >= q) & ((q - above) ** 2 >= v))
    return q[fails]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=st.integers(0, 2**32 - 1),
    kq=st.integers(2, 40),
    extra=st.integers(0, 2**16),
    n=st.integers(1, 200),
    with_one=st.booleans(),
    decimals=st.sampled_from([None, 0, 1, 2, 3]),
    scale_exp=st.one_of(st.floats(-6.0, 6.0), st.floats(-163.0, -157.0),
                        st.floats(152.0, 155.0), st.floats(-318.0, -306.0)),
    on=st.sampled_from(["nothing", "points", "midpoints"]),
    block_bytes=st.one_of(st.integers(1, 2**14), st.just(2**20)),
)
def test_segment_end_checks_send_the_rows_a_check_of_every_row_sends(
        monkeypatch, seed, kq, extra, n, with_one, decimals, scale_exp, on, block_bytes):
    # The line route checks a run segment, the sorted rows of a block that
    # share a run start, at its first and last row, and row by row only
    # where an end fails. The rows it sends to the window must be the rows
    # a check of every row sends, and its values the oracle's, bit for
    # bit: on rounded data, which makes ties and duplicate points, with
    # queries on points and on decimal midpoints, at scales where squares
    # underflow or overflow or the points are subnormal, and with blocks
    # that cut segments anywhere.
    m = kq + extra % (2 * kq + 4)
    rng = _rng(seed)

    def rounded(x):
        return x if decimals is None else np.round(x, decimals)

    grid = rounded(rng.normal(size=m) * 3.0)
    q = rounded(rng.normal(size=n) * 3.0)
    pick = rng.integers(0, m, size=(2, len(q[::2])))
    if on == "points":
        q[::2] = grid[pick[0]]
    elif on == "midpoints":
        q[::2] = rounded((grid[pick[0]] + grid[pick[1]]) / 2.0)
    scale = 10.0 ** scale_exp
    line, q = np.sort(grid * scale), np.sort(q * scale)
    ranks = (1, kq) if with_one else (kq,)
    sent = []
    real = knn._window_rank_distances

    def recorded(queries, *args):
        sent.append(queries.copy())
        return real(queries, *args)

    monkeypatch.setattr(knn, "_BLOCK_BYTES", block_bytes)
    monkeypatch.setattr(knn, "_window_rank_distances", recorded)
    fell = _count_rows(monkeypatch, "_window_rank_distances")
    with warnings.catch_warnings():
        # squares near 1e154 overflow in the route and the oracle alike
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            got = knn._line_rank_distances(q, line, ranks)
        finally:
            monkeypatch.undo()
        want = knn._brute_rank_distances(q[:, None], line[:, None], ranks)
        reference = _per_row_fallback(q, line, ranks)
    assert fell[0] == len(reference)
    assert np.array_equal(np.concatenate(sent) if sent else q[:0], reference)
    assert np.array_equal(got, want)


def test_line_route_falls_back_where_a_midpoint_rounds_across_q(monkeypatch):
    # At rank 2, fl(0.1/2 + 0.3/2) is 0.2, q itself, so the search keeps
    # the run {0.1, 0.18}; yet 0.3 - 0.2 rounds below 0.2 - 0.1, so 0.3 is
    # nearer and the certificate rejects the row. Rank 1 takes the nearer
    # of the two points around q, with no certificate: q = 0.2 between
    # 0.1 and 0.3 gets 0.3 without the window.
    pts = np.array([0.1, 0.18, 0.3])
    fell = _count_rows(monkeypatch, "_window_rank_distances")
    got = knn._line_rank_distances(np.array([0.2]), pts, (2,))
    assert fell[0] == 1
    assert np.array_equal(got, knn._brute_rank_distances(np.array([[0.2]]), pts[:, None], (2,)))
    assert got[0, 0] == 0.3 - 0.2
    got = knn._line_rank_distances(np.array([0.2]), np.array([0.1, 0.3]), (1,))
    assert fell[0] == 1
    assert np.array_equal(got, knn._brute_rank_distances(np.array([[0.2]]),
                                                         np.array([[0.1], [0.3]]), (1,)))
    assert got[0, 0] == 0.3 - 0.2


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 40),
    n=st.integers(1, 60),
    decimals=st.sampled_from([None, 0, 1, 2]),
    scale_exp=st.one_of(st.floats(-6.0, 6.0), st.floats(-163.0, -157.0),
                        st.floats(152.0, 155.0), st.floats(-320.0, -306.0),
                        st.floats(290.0, 300.0)),
    on=st.sampled_from(["nothing", "points", "midpoints"]),
    sort=st.booleans(),
)
def test_line_rank_one_is_the_nearer_of_the_two_points_around_q(
        monkeypatch, seed, m, n, decimals, scale_exp, on, sort):
    # Rank 1 on the line is the smaller square of the last point below q
    # and the first at or above it, exact under rounding because the
    # squares never rise towards q: bitwise the oracle's, and no row goes
    # to the window. Rounded draws make duplicate points and queries on
    # a point or on the decimal midpoint of two; scales from subnormal
    # (below 1e-308) to 1e300 make squares underflow and overflow.
    rng = _rng(seed)

    def rounded(x):
        return x if decimals is None else np.round(x, decimals)

    scale = 10.0 ** scale_exp
    line = np.sort(rounded(rng.normal(size=m) * 3.0)) * scale
    q = rounded(rng.normal(size=n) * 3.0)
    pick = rng.integers(0, m, size=(2, len(q[::2])))
    if on == "points":
        q[::2] = line[pick[0]] / scale
    elif on == "midpoints":
        q[::2] = rounded((line[pick[0]] + line[pick[1]]) / (2.0 * scale))
    q *= scale
    if sort:
        q.sort()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        want = knn._brute_rank_distances(q[:, None], line[:, None], (1,))
    fell = _count_rows(monkeypatch, "_window_rank_distances")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore" if caught else "error")
            got = knn._line_rank_distances(q, line, (1,))
    finally:
        monkeypatch.undo()
    assert fell[0] == 0
    assert np.array_equal(got, want)


@pytest.mark.parametrize("exp", [-600, -560, -537, -300, -30, 0, 10])
@pytest.mark.parametrize("sort", [False, True])
def test_coincidences_at_the_underflow_edge(exp, sort):
    # A query coincides with a point when their squared difference is 0,
    # and that square underflows to 0 from |q - c| < 2**-537.5: 2**-538
    # away is a coincidence, 2**-537 and 2**-536 are not. The line finds
    # candidates within 2**-536 of each point by a search and takes rank 1
    # on them alone; every value, and every error with its message (too
    # few points once a coincidence is excluded, or a duplicate point at
    # the query), must be the oracle's, for points at magnitudes from
    # 2**-600 to 2**10, of either sign, among points of unit spread, with
    # and without a duplicate point, sorted or not.
    rng = _rng(exp + 1000)
    edge = np.ldexp(np.array([1.0, 1.25, 1.75]) * rng.choice([-1.0, 1.0]), exp)
    pts = np.concatenate((edge, np.round(rng.normal(size=9) * 3.0, 1)))
    duplicated = pts.copy()
    duplicated[4] = duplicated[8]
    picks = rng.integers(0, len(pts), size=30)
    for offset in (0.0, 2.0**-538, -2.0**-538, 2.0**-537, -2.0**-537, 2.0**-536, -2.0**-536):
        # each point's nearest queries are the offset away, or nearer
        queries = np.concatenate((pts + offset, pts[picks] + offset))
        if sort:
            queries.sort()
        for sample in (pts, duplicated):
            idx = knn.build_index(sample[:, None])
            for k in (1, 2, 5, len(sample) - 1, len(sample)):
                _assert_same_outcome(
                    _outcome(lambda: knn.kth_nn_cross(queries[:, None], idx, k)),
                    _outcome(lambda: knn.brute_kth_nn_cross(queries[:, None], sample[:, None],
                                                            k)))


def test_line_index_keeps_the_sorting_order():
    # line is the sorted line (the route reads it), order the stable
    # argsort, so that line[i] is point order[i]; other routes have none
    pts = np.array([[3.0], [-1.0], [3.0], [0.5], [-1.0]])
    idx = knn.build_index(pts)
    assert idx.order.tolist() == [1, 4, 3, 0, 2]
    assert np.array_equal(idx.line, pts[idx.order, 0])
    assert knn.build_index(_rng(0).normal(size=(4, 2))).order is None
    assert knn.build_index(_rng(0).normal(size=(4, 20))).order is None


def _record_rank_queries(monkeypatch):
    """Swap in a NeighborIndex._rank_distances that records, per call, the
    query rows it gets and the ranks it is asked for."""
    real, calls = knn.NeighborIndex._rank_distances, []

    def recorded(self, queries, ranks, workers):
        calls.append((queries.copy(), ranks))
        return real(self, queries, ranks, workers)

    monkeypatch.setattr(knn.NeighborIndex, "_rank_distances", recorded)
    return calls


@pytest.mark.parametrize("d", [1, 2, 20])  # sorted line, kd-tree, screened brute force
@pytest.mark.parametrize("k", [1, 4])
def test_cross_asks_for_rank_k_plus_one_only_at_coincidences(monkeypatch, d, k):
    rng = _rng(11)
    pts = rng.normal(size=(50, d))
    queries = rng.normal(size=(30, d)) + 10.0  # far from every point
    idx = knn.build_index(pts)
    calls = _record_rank_queries(monkeypatch)
    want = knn.brute_kth_nn_cross(queries, pts, k)
    assert np.array_equal(knn.kth_nn_cross(queries, idx, k), want)
    # the line asks for rank k alone and finds coincidences by a search
    first = (k,) if d == 1 and k > 1 else (1, k) if k > 1 else (1,)
    assert [(len(q), r) for q, r in calls] == [(30, first)]
    calls.clear()
    hits = [2, 3, 17, 29]
    queries[hits] = pts[[0, 40, 7, 0]]
    want = knn.brute_kth_nn_cross(queries, pts, k)
    assert np.array_equal(knn.kth_nn_cross(queries, idx, k), want)
    assert [r for _, r in calls] == [first, (k + 1,)]
    assert np.array_equal(calls[1][0], queries[hits])


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
        fell = _count_rows(monkeypatch, "_brute_rank_distances")
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
        fell = _count_rows(monkeypatch, "_brute_rank_distances")
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


def test_line_column_query_holds_its_output_and_two_blocks():
    # A matrix column on the line queries with a batch's sorted points.
    # Its run starts are made one block of rows at a time, so beyond the
    # two-column rank table, the result and two n-byte masks it holds at
    # most two blocks' worth: the line's midpoints and their pos_t
    # (2000 points) and one block's temporaries. Run starts made for the
    # whole column at once would add 8 bytes a query, 1.6 MB here.
    rng = _rng(8)
    idx = knn.build_index(rng.normal(size=(2000, 1)))
    queries = np.sort(rng.normal(size=200_000))[:, None]
    n, budget = len(queries), 2 * knn._BLOCK_BYTES
    tracemalloc.start()
    try:
        nu = knn.kth_nn_cross(queries, idx, 20)
        _, column_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        table = knn._line_rank_distances(queries[:, 0], idx.line, (1, 20))
        _, route_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(nu, table[:, 1])
    assert route_peak <= nu.nbytes + table.nbytes + n + budget
    assert column_peak <= table.nbytes + nu.nbytes + 2 * n + budget


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


def test_block_size_never_changes_a_matrix(monkeypatch):
    # Rows are answered independently of the block they fall in, on the
    # line, the d > 15 screen and the oracle its uncertified rows fall
    # back to. So Renyi and L2 matrices keep their bits from one query row
    # a block to a single block, at any worker count. The d = 1 columns
    # span two blocks at 256 KiB and the d > 15 ones three or more at
    # 1 MiB. The lattice points tie at the 5th neighbour, and some of
    # their rows fall back
    rng = _rng(17)
    datasets = {
        1: [rng.normal(0.1 * i, 1.0, size=(2500, 1)) for i in range(3)],
        20: [rng.normal(0.1 * i, 1.0, size=(300, 20)) for i in range(3)],
        40: [rng.normal(0.1 * i, 1.0, size=(300, 40)) for i in range(3)],
        "tied": [rng.integers(0, 3, size=(300, 20)).astype(float) for _ in range(3)],
    }
    fell = _count_rows(monkeypatch, "_brute_rank_distances")
    for name, groups in datasets.items():
        ds = Dataset(tuple(Group(f"g{i}", pts) for i, pts in enumerate(groups)))
        for kind in ("renyi", "l2"):
            cfg = estimators.EstimatorConfig(kind, 0.5, 5)
            matrices = []
            for budget in (1, 2**18, 2**20, 2**40):
                monkeypatch.setattr(knn, "_BLOCK_BYTES", budget)
                matrices += [estimators.divergence_matrix(ds, cfg, workers=w).values.tobytes()
                             for w in (1, 2)]
            assert len(set(matrices)) == 1, (name, kind)
        assert (fell[0] > 0) == (name == "tied"), name
        fell[0] = 0


def test_a_thread_keeps_one_line_workspace():
    # a thread's columns reuse one workspace across batches of no more
    # points; a one-group batch never compresses its line and makes none
    rng = _rng(16)
    indexes = [knn.build_index(rng.normal(size=(60, 1))) for _ in range(3)]
    target = rng.normal(size=(50, 1))
    index = knn.build_index(target)
    pooled, fewer, one = (knn.QueryBatch(indexes), knn.QueryBatch(indexes[:2]),
                          knn.QueryBatch(indexes[:1]))

    made = []

    def one_group_column():
        one.kth_nn_cross(None, index, 3)
        made.append(getattr(knn._Workspace._threads, "workspace", None))

    thread = threading.Thread(target=one_group_column)
    thread.start()
    thread.join()
    assert made == [None]
    pooled.kth_nn_cross(0, index, 3)
    workspace = knn._Workspace._threads.workspace
    for batch, skip in ((one, None), (pooled, 2), (fewer, 1), (one, None), (pooled, 0)):
        got = batch.kth_nn_cross(skip, index, 3)
        assert knn._Workspace._threads.workspace is workspace
        rest = [g for i, g in enumerate(batch.groups) if i != skip]
        assert all(np.array_equal(nu, knn.brute_kth_nn_cross(g, target, 3))
                   for nu, g in zip(got, rest))


def test_a_columns_results_survive_the_threads_next_column():
    rng = _rng(17)
    indexes = [knn.build_index(rng.normal(size=(40 + 10 * i, 1))) for i in range(3)]
    target = rng.normal(size=(30, 1))
    index = knn.build_index(target)
    batch = knn.QueryBatch(indexes)
    first = batch.kth_nn_cross(0, index, 3)
    kept = [nu.copy() for nu in first]
    batch.kth_nn_cross(1, index, 3)
    batch.kth_nn_cross(2, index, 4)
    assert all(np.array_equal(nu, want) for nu, want in zip(first, kept))
    assert all(np.array_equal(nu, knn.brute_kth_nn_cross(ix.points, target, 3))
               for nu, ix in zip(first, indexes[1:]))


_CHURN = textwrap.dedent("""
    import resource
    import numpy as np
    from divknn import estimators
    from divknn.dataset import Dataset, Group

    rng = np.random.Generator(np.random.Philox(15))
    ds = Dataset(tuple(Group(f"g{i}", rng.normal(0.1 * i, 0.5 + 0.02 * i, size=(2000, 1)))
                       for i in range(25)))
    cfg = estimators.EstimatorConfig("renyi", 0.5, 20)
    faults = []
    for _ in range(5):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        estimators.divergence_matrix(ds, cfg, workers=1)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    print(*faults)
""")


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="counts minor page faults under glibc's heap trimming")
def test_line_matrix_builds_do_not_regrow_the_heap():
    # A 1-D matrix column's sorted queries and their permutation are the
    # thread's workspace, kept from one build to the next. Freed and
    # allocated again per column, they leave glibc a free block at the top
    # of its heap to give back and take again, and such a process took
    # 9,100-13,500 minor page faults a warm build (25 columns of 48,000
    # queries); with the workspace it takes about 350, and 9,500-9,900 in
    # its first build. The bound was measured on glibc 2.36; another
    # allocator trims by other rules. A fresh interpreter without malloc
    # settings.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env["PYTHONPATH"] = str(Path(knn.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", _CHURN], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    faults = [int(f) for f in proc.stdout.split()]
    assert sum(faults[2:]) <= 3000, faults


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
    # tree stays None above d = 15: divbench's tracer labels the route
    # brute from it, and so labels the d = 1 line brute too
    assert idx.tree is None
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
            fell = _count_rows(monkeypatch, "_brute_rank_distances")
            got = knn.kth_nn_cross(queries, knn.build_index(pts), 4)
        monkeypatch.undo()
        assert np.array_equal(got, want)
        assert fell[0] == fallback


def test_screen_products_stay_on_one_blas_thread(monkeypatch):
    # OpenBLAS threads a product of 2**19 multiply-adds or more, and a
    # threaded product of a few rows waits for a second core; so each of
    # the screen's products has fewer than 2**19 / (N d) rows, or one row.
    # A block of query rows fills its screen values with as many such
    # products as it takes
    products, blocks = [], []
    matmul, certify = np.matmul, knn._certified_candidates

    def product(a, b, **kwargs):
        products.append(len(a))
        return matmul(a, b, **kwargs)

    def block(qb, *args):
        blocks.append((len(qb), products[:]))
        products.clear()
        return certify(qb, *args)

    monkeypatch.setattr(np, "matmul", product)
    monkeypatch.setattr(knn, "_certified_candidates", block)
    rng = _rng(10)
    for n, d, most in ((400, 20, 65), (2000, 64, 4), (20000, 40, 1)):
        blocks.clear()
        knn.kth_nn_cross(rng.normal(size=(400, d)), knn.build_index(rng.normal(size=(n, d))), 5)
        assert max(max(spans) for _, spans in blocks) == most
        assert most == 1 or most * n * d < knn._ONE_THREAD_PRODUCT
        assert all(sum(spans) == rows for rows, spans in blocks)
        if (n, d) == (400, 20):
            assert min(len(spans) for _, spans in blocks) > 1


def test_workers_do_not_change_results():
    pts = _rng(4).normal(size=(200, 2))
    idx = knn.build_index(pts)
    a = knn.kth_nn_within(idx, 5, workers=1)
    b = knn.kth_nn_within(idx, 5, workers=-1)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("d", [1, 2, 20])  # sorted line, kd-tree, screened brute force
@pytest.mark.parametrize("workers", [0, -2, 1.5, None, "2"])
def test_queries_reject_a_bad_thread_count(d, workers):
    # every route checks workers, not only the kd-tree, which scipy checks
    # in its own way (or not at all, for None)
    pts = _rng(7).normal(size=(30, d))
    idx = knn.build_index(pts)
    with pytest.raises(ConfigError, match="workers must be -1 or a positive integer"):
        knn.kth_nn_within(idx, 3, workers=workers)
    with pytest.raises(ConfigError, match="workers must be -1 or a positive integer"):
        knn.kth_nn_cross(pts[:5] + 0.5, idx, 3, workers=workers)


def test_queries_pass_the_resolved_thread_count(monkeypatch):
    # -1 counts the CPUs of the affinity mask, which cKDTree, resolving -1
    # as os.cpu_count(), would not
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    seen, real = [], knn.NeighborIndex._rank_distances

    def recorded(self, queries, ranks, workers):
        seen.append(workers)
        return real(self, queries, ranks, workers)

    monkeypatch.setattr(knn.NeighborIndex, "_rank_distances", recorded)
    pts = _rng(8).normal(size=(60, 2))
    idx = knn.build_index(pts)
    want = knn.brute_kth_nn_cross(pts[:20] + 0.25, pts, 4)
    assert np.array_equal(knn.kth_nn_cross(pts[:20] + 0.25, idx, 4, workers=-1), want)
    assert np.array_equal(knn.kth_nn_within(idx, 4, workers=-1), knn.brute_kth_nn_within(pts, 4))
    assert seen and set(seen) == {1}


def test_every_brute_force_distance_comes_from_one_kernel(monkeypatch):
    # the oracle, the d > 15 screen's recompute and the 1-D window form
    # their squared distances in _smallest_squares alone, which is what
    # keeps the routes bitwise the oracle
    routes = ("_certified_candidates", "_window_rank_distances", "_brute_rank_distances")
    callers, real = [], knn._smallest_squares

    def recorded(diff, kq):
        frame = sys._getframe(1)
        while frame.f_code.co_name not in routes:
            frame = frame.f_back
        callers.append(frame.f_code.co_name)
        return real(diff, kq)

    monkeypatch.setattr(knn, "_smallest_squares", recorded)
    rng = _rng(9)
    pts, queries = rng.normal(size=(300, 20)), rng.normal(size=(40, 20))
    want = knn.brute_kth_nn_cross(queries, pts, 5)
    assert callers and set(callers) == {"_brute_rank_distances"}
    callers.clear()
    assert np.array_equal(knn.kth_nn_cross(queries, knn.build_index(pts), 5), want)
    assert callers and set(callers) == {"_certified_candidates"}
    line = np.sort(rng.normal(size=50))
    q = rng.normal(size=30)
    callers.clear()
    got = knn._window_rank_distances(q, line, (1, 4))
    assert callers == ["_window_rank_distances"]
    assert np.array_equal(got, knn._brute_rank_distances(q[:, None], line[:, None], (1, 4)))


def test_queries_are_deterministic():
    pts = _rng(5).normal(size=(100, 3))
    a = knn.kth_nn_within(knn.build_index(pts), 4)
    b = knn.kth_nn_within(knn.build_index(pts.copy()), 4)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# One route per index, chosen by _route_for alone: forcing each route that
# can answer d on the same data must give the oracle's values or errors.

_ROUTES = ("line", "tree", "screen")


def _routes_for_dim(d):
    """The routes that can answer queries at dimension d: the line only at d = 1."""
    return _ROUTES if d == 1 else _ROUTES[1:]


def _any_outcome(query):
    """The query's distances, or the type and message of the DivknnError or
    ValueError (a bad k or shape) it raised."""
    try:
        return query()
    except (DivknnError, ValueError) as exc:
        return type(exc), str(exc)


def _forced_outcomes(monkeypatch, route, pts, queries, k):
    """kth_nn_within and kth_nn_cross outcomes on an index of pts built
    with _route_for forced to route."""
    with monkeypatch.context() as mp:
        mp.setattr(knn, "_route_for", lambda points: route)
        idx = knn.build_index(pts)
        assert idx.route == route
        return (_any_outcome(lambda: knn.kth_nn_within(idx, k)),
                _any_outcome(lambda: knn.kth_nn_cross(queries, idx, k)))


def _oracle_outcomes(pts, queries, k):
    return (_any_outcome(lambda: knn.brute_kth_nn_within(pts, k)),
            _any_outcome(lambda: knn.brute_kth_nn_cross(queries, pts, k)))


def _route_draw(seed, n, m, d, decimals, coincide, duplicate):
    """Rounded queries and points, with duplicate points and queries on
    points on request."""
    rng = _rng(seed)
    pts = _rounded_normal(rng, (m, d), decimals)
    queries = _rounded_normal(rng, (n, d), decimals)
    if duplicate and m > 1:
        pts[rng.integers(1, m)] = pts[0]
    if coincide:
        queries[::2] = pts[rng.integers(0, m, size=len(queries[::2]))]
    return pts, queries


def test_route_for_picks_the_route_by_dimension():
    from scipy.spatial import cKDTree

    for d, route in ((1, "line"), (2, "tree"), (15, "tree"), (16, "screen")):
        pts = _rng(d).normal(size=(20, d))
        assert knn._route_for(pts) == route
        idx = knn.build_index(pts)
        assert idx.route == route
        slots = {name for name in ("line", "order", "tree", "screen")
                 if getattr(idx, name) is not None}
        assert slots == {"line": {"line", "order"}, "tree": {"tree"},
                         "screen": {"screen"}}[route]
        assert idx.tree is None or isinstance(idx.tree, cKDTree)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 30),
    m=st.integers(1, 40),
    d=st.integers(1, _TREE_BITWISE_DIM),
    k=st.integers(1, 12),
    decimals=st.integers(0, 3),
    coincide=st.booleans(),
    duplicate=st.booleans(),
)
def test_every_route_forced_on_the_same_data_is_the_oracle(
        monkeypatch, seed, n, m, d, k, decimals, coincide, duplicate):
    # the screen at d <= 15 and the line's peers at d = 1 never run
    # unforced; to d = 7 every route is bitwise the oracle
    pts, queries = _route_draw(seed, n, m, d, decimals, coincide, duplicate)
    want = _oracle_outcomes(pts, queries, k)
    for route in _routes_for_dim(d):
        for got, w in zip(_forced_outcomes(monkeypatch, route, pts, queries, k), want):
            _assert_same_outcome(got, w)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 30),
    m=st.integers(1, 40),
    d=st.integers(_TREE_BITWISE_DIM + 1, knn.BRUTE_FORCE_DIM),
    k=st.integers(1, 12),
    decimals=st.integers(0, 3),
    coincide=st.booleans(),
    duplicate=st.booleans(),
)
def test_the_screen_forced_below_its_dimensions_is_the_oracle(
        monkeypatch, seed, n, m, d, k, decimals, coincide, duplicate):
    # from d = 8 the kd-tree may differ in the last bits; the screen may not
    pts, queries = _route_draw(seed, n, m, d, decimals, coincide, duplicate)
    want = _oracle_outcomes(pts, queries, k)
    for route in ("tree", "screen"):
        rtol = _route_rtol(d) if route == "tree" else 0.0
        for got, w in zip(_forced_outcomes(monkeypatch, route, pts, queries, k), want):
            _assert_same_outcome(got, w, rtol)


@pytest.mark.parametrize("d", [1, 2])
def test_the_matrix_has_the_same_bytes_on_every_forced_route(monkeypatch, d):
    rng = _rng(40 + d)
    ds = Dataset(tuple(Group(f"g{i}", np.round(rng.normal(0.3 * i, 1.0, size=(300, d)), 3))
                       for i in range(4)))
    digests = set()
    for route in _routes_for_dim(d):
        with monkeypatch.context() as mp:
            mp.setattr(knn, "_route_for", lambda points: route)
            for cfg in (estimators.EstimatorConfig("renyi", 0.5, 5),
                        estimators.EstimatorConfig("l2", k=5, symmetrize=False)):
                for workers in (1, 2):
                    w = estimators.divergence_matrix(ds, cfg, workers=workers)
                    digests.add((cfg, workers, w.values.tobytes()))
    assert len(digests) == 4  # one matrix per config and thread count


# ---------------------------------------------------------------------------
# k is a count on every route and the oracle: never a float, even an
# integral one, nor a bool.

@pytest.mark.parametrize("d", [1, 2, 20])
@pytest.mark.parametrize("k", [2.5, 3.0, np.float64(2.0), True, False, "3"])
def test_a_k_that_is_no_count_raises_on_every_route(d, k):
    rng = _rng(d)
    pts, queries = rng.normal(size=(40, d)), rng.normal(size=(10, d))
    idx = knn.build_index(pts)
    for call in (lambda: knn.kth_nn_within(idx, k), lambda: knn.kth_nn_cross(queries, idx, k),
                 lambda: knn.brute_kth_nn_within(pts, k),
                 lambda: knn.brute_kth_nn_cross(queries, pts, k)):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == f"k must be an integer, got {k!r}"


@pytest.mark.parametrize("d", [1, 2, 20])
def test_a_numpy_integer_k_gives_the_int_bits(d):
    rng = _rng(d)
    pts, queries = rng.normal(size=(400, d)), rng.normal(size=(10, d))
    queries[0] = pts[3]
    idx = knn.build_index(pts)
    # small and unsigned types too: k is taken as an int before any index
    # arithmetic, which would overflow an int8 at 400 points
    for kind in (np.int8, np.uint8, np.int32, np.int64, np.uint64):
        for k in (1, 4):
            assert np.array_equal(knn.kth_nn_within(idx, kind(k)), knn.kth_nn_within(idx, k))
            assert np.array_equal(knn.kth_nn_cross(queries, idx, kind(k)),
                                  knn.kth_nn_cross(queries, idx, k))


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


def test_unit_ball_volume_takes_a_count_and_no_bool():
    # True is an int to Python, but no dimension
    for d in (True, False, 2.0):
        with pytest.raises(ValueError):
            knn.unit_ball_volume(d)
    assert knn.unit_ball_volume(np.int64(3)) == knn.unit_ball_volume(3)
