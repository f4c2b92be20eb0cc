"""Exact k-th nearest-neighbor (Euclidean) distance queries.

Two query modes back the divergence estimators:

* within-sample: distance from each point to its k-th nearest *other*
  point in the same sample (the point itself never counts);
* cross-sample: distance from each query point to its k-th nearest
  point of an indexed sample, excluding an exact coordinate coincidence
  with the query point if there is one.

Three routes answer them, chosen by ``_route_for`` when the index is
built, from the dimension d alone:

* ``"line"``, d = 1, the sorted line: on a line a query's squared
  distances to the sorted sample fall and then rise, rounding included.
  So its nearest point is the nearer of the two around it, the last
  point below it and the first at or above it, which needs no check. Its
  r nearest points are a run of r consecutive sorted points, and the
  r-th smallest distance is the larger of the run's two end values. The
  run starts after the midpoints of points r apart that lie below the
  query. With the queries sorted, one search per point or midpoint and
  rank over the sorted queries places every query's bracket or run, and
  a check of a run's two outer neighbours proves it, ties included.
  Sorted queries that share a run form a segment, on which each
  neighbour's check holds on a prefix or a suffix of the rows, so it is
  made at the segment's first and last row, and row by row only in a
  segment that fails at an end; the few rows that fail it take a
  2kq-wide sorted window (kq the largest rank asked for). Queries that
  arrive unsorted are sorted first and their rows put back. The
  within-sample query and a matrix build (through a ``QueryBatch``) pass
  theirs sorted already;
* ``"tree"``, 2 <= d <= 15, the kd-tree: a balanced
  ``scipy.spatial.cKDTree``, imported when the first such index is
  built, so that 1-D and d > 15 runs never load ``scipy.spatial``;
* ``"screen"``, d > 15, brute force, screened: with the points centered
  on their mean c, ||p - c||^2 - 2 (q - c).(p - c), one small matrix
  product per block of query rows, picks the kq + 8 most promising
  points per row. Their squared distances are then recomputed exactly as
  the brute-force oracle computes them. A row keeps them when the
  screen's next value, plus ||q - c||^2 and less a margin that bounds
  the rounding of the centering, of the screen and of the oracle, is at
  least the recomputed kq-th value: no other point can then be nearer as
  the oracle computes it. Every other row, such as one whose candidates
  tie with the next point within the margin or whose centered norms
  overflow, is answered by the oracle itself. So the route is bitwise
  the oracle, which ``brute_kth_nn_within`` and ``brute_kth_nn_cross``
  still run unscreened.

A route returns only the neighbor ranks its caller reads, not the whole
sorted table of the nearest distances: the within-sample query reads
rank k + 1 (the self match takes rank 1), the cross-sample query rank
k, and rank k + 1 only for the rows that coincide with an indexed point,
at a rank-1 distance of 0. On the kd-tree and the d > 15 route, where
rank 1 comes with rank k at little cost, the cross-sample query asks for
ranks 1 and k and finds the coincidences on rank 1. On the line, where
rank 1 for every row would cost most of what rank k does, it asks for
rank k alone: a square underflows to 0 only for a difference below
2**-537.5, so one search of the points into the sorted queries finds the
few queries within 2**-536 of a point, and rank 1 is taken for those
alone. The kd-tree route passes the ranks to ``cKDTree.query``; the
brute-force route sorts a row's candidates and keeps those columns.

The sorted-line and brute-force routes work through their queries in
blocks of rows whose temporaries stay within one byte budget,
``_BLOCK_BYTES``, 1 MiB. It is small because glibc serves large
allocations with fresh ``mmap`` pages, and every page of such a
temporary faults when it is first written, while blocks of a few
hundred KiB to a MiB are reused from the heap. It is not smaller
because each block costs a dozen or so numpy calls, and threads that
run many small blocks wait on the interpreter's lock instead of running
array loops: with 256 KiB blocks, the Renyi matrix of 100
one-dimensional groups of 2000 points took longer on two threads than
on one (1.53 s against 1.17 s). With 1 MiB blocks it took 0.93 s on two
threads and 1.06 s on one, and the d = 20 screen's matrix of 10 groups
of 400 points 0.25 s in place of 0.33 s. On the d = 20 matrix, 512 KiB
blocks gained about half as much, and 2 MiB blocks raised the process's
peak RSS by 4.5-6% (three runs each). The budget holds per query:
threads that query at the same time, as a threaded divergence matrix
does, hold up to threads x ``_BLOCK_BYTES`` of temporaries.

A 1-D column of a matrix build also makes arrays of its own size. Freed
after each column, they let glibc trim the top of its heap after a
column and grow it again in the next. Two of them are kept instead: the
column's sorted queries, the batch's line less the column's group, and
their permutation are the thread's ``_Workspace``, kept from column to
column and from build to build. The divergence matrix of 25
one-dimensional groups of 2000 points then takes about 350 minor page
faults a warm build and 9,500-9,900 its first (``workers=1``; 2-core
Xeon, glibc 2.36). With no workspace a warm build took 9,100-13,500,
and divbench's ``ggrid`` workload, that matrix and its tasks, 20-25%
more time. Keeping the column's rank table, nu_k and split arrays too
saved no time and about 110 faults a warm build, and cost 5,000 more
in the first, so those are allocated per column.

Squared distances are used internally; square roots are taken once at
the boundary. All results are exact. The sorted-line route, the d > 15
route and the kd-tree route up to d = 7 match the brute-force route bit
for bit, whatever the order of the queries. One kernel,
``_smallest_squares``, forms every squared distance that the oracle,
the d > 15 recompute and the 1-D window take, so those three agree by
construction. From d = 8 cKDTree sums a squared distance in four
interleaved partial sums and numpy's brute force in eight, so there the
two may differ in the last bits.

``workers``, -1 for every CPU this process may run on or a positive
thread count, is resolved here, by ``_thread_count``, on every route of
``kth_nn_within`` and ``kth_nn_cross``; any other value raises
ConfigError. Only the kd-tree's query uses the count. A divergence
matrix build sizes its thread pool with the same function.
"""

from __future__ import annotations

import math
import os
import threading
from itertools import accumulate

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import gammaln

from .errors import ConfigError, DegenerateDistanceError, InsufficientSampleError

# kd-trees stop paying off in high dimensions: above this d, _route_for
# picks the screened brute force.
BRUTE_FORCE_DIM = 15
LEAF_SIZE = 16

# Byte budget for the temporaries of one block of query rows on the
# sorted-line and brute-force routes; the rows per block follow from
# each route's temporary per row. 1 MiB is the measured best between
# page faults, memory and per-block overhead (module docstring).
_BLOCK_BYTES = 2**20

# Candidates the d > 15 screen keeps beyond the largest rank asked for.
_SCREEN_EXTRA = 8

# OpenBLAS runs an M x K by K x N matrix product on MNK / 2**18 threads,
# rounded down: on one thread while MNK < 2**19. The screen's products
# stay below that.
_ONE_THREAD_PRODUCT = 2**19


def _as_points(points, name: str = "points") -> np.ndarray:
    arr = np.ascontiguousarray(points, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D (N x d) array, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name} must be non-empty, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


class NeighborIndex:
    """Immutable exact-NN search structure over the rows of an N x d matrix.

    ``points`` holds the indexed rows, float64 and C-ordered.

    ``route`` names the route that answers every query, set when the
    index is built by ``_route_for`` alone: ``"line"``, ``"tree"`` or
    ``"screen"``. Each route keeps its structure in its own slot, and
    every slot of another route is None.

    ``line`` and ``order``, on the ``"line"`` route: the sorted
    coordinates, a 1-D array searched as a sorted line, and the stable
    argsort that sorts them, so ``line[i]`` is point ``order[i]``.

    ``tree``, on the ``"tree"`` route: a balanced ``cKDTree`` (median
    split on the widest-spread coordinate, leaf size 16).

    ``screen``, on the ``"screen"`` route: the points centered on their
    mean, a second N x d array (``_Screen``). Queries run brute force: a
    matrix-product screen per block, an exact recompute of its
    candidates, and the unscreened oracle for each row whose candidates
    a rounding margin cannot certify, so the distances are bitwise the
    oracle's.

    A query asks for a few neighbor ranks and gets one column per rank;
    the line and screen routes answer it in blocks of rows within
    ``_BLOCK_BYTES`` of temporaries. Safe for concurrent queries.
    """

    __slots__ = ("points", "route", "line", "order", "tree", "screen")

    def __init__(self, points):
        pts = _as_points(points)
        self.points, self.route = pts, _route_for(pts)
        self.line = self.order = self.tree = self.screen = None
        if self.route == "line":
            self.order = np.argsort(pts[:, 0], kind="stable")
            self.line = pts[self.order, 0]
        elif self.route == "screen":
            self.screen = _Screen(pts)
        else:
            # imported on first use: 1-D and d > 15 runs never load
            # scipy.spatial, nor the scipy.linalg and scipy.sparse it brings
            from scipy.spatial import cKDTree
            self.tree = cKDTree(pts, leafsize=LEAF_SIZE, balanced_tree=True)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def _rank_distances(self, queries: np.ndarray, ranks: tuple, workers: int) -> np.ndarray:
        """Distances to the indexed points of the given 1-based neighbor
        ranks (ascending, at most the index size), one column per rank."""
        if self.route == "line":
            return _line_rank_distances(queries[:, 0], self.line, ranks)
        if self.route == "screen":
            return _screened_rank_distances(queries, self.points, self.screen, ranks)
        return self.tree.query(queries, k=list(ranks), workers=workers)[0]


def _route_for(points: np.ndarray) -> str:
    """The route of an index of points, by their dimension d alone: the
    sorted line at d = 1, the kd-tree up to BRUTE_FORCE_DIM, and the
    screened brute force above it."""
    return ("line" if points.shape[1] == 1
            else "tree" if points.shape[1] <= BRUTE_FORCE_DIM else "screen")


def _in_blocks(n: int, row_bytes: int, ncols: int, block) -> np.ndarray:
    """The n x ncols table filled by ``block(rows)``, one slice of rows at
    a time: as many as keep row_bytes per row within _BLOCK_BYTES, and at
    least one."""
    step = max(1, _BLOCK_BYTES // row_bytes)
    out = np.empty((n, ncols))
    for start in range(0, n, step):
        rows = slice(start, start + step)
        out[rows] = block(rows)
    return out


def _line_rank_distances(q: np.ndarray, line: np.ndarray, ranks: tuple) -> np.ndarray:
    """Route for d = 1 against ``line``, the sorted sample c_0 <= ... <=
    c_(m-1): one binary search per point or midpoint and rank over the
    sorted queries; bitwise equal to _brute_rank_distances.

    The squared distances a_j = (q - c_j)**2, formed as brute force forms
    them, never rise over the points c_j <= q and never fall over the
    points c_j >= q, rounding included: fl(q - c) is monotone in q and in
    c, and rounding a square monotone in |x|.

    Rank 1 is therefore the smaller of the squares of the two points
    around q: c_(p-1), the last point below q, and c_p, the first at or
    above it, with p the number of points below q. It needs no check.

    For r >= 2 the r-th smallest is the least over runs i..i+r-1 of
    max(a_i, a_(i+r-1)), and the run that gives it starts at i0, the
    number of midpoints c_i/2 + c_(i+r)/2 below q (halves, so that the
    sum cannot overflow). v = max(a_i0, a_(i0+r-1)) is then the r-th
    smallest if no point outside the run is nearer. That holds, ties
    included, when the run's outer neighbours lie beyond q and are at
    least v: c_(i0-1) <= q and a_(i0-1) >= v (the left check), and
    c_(i0+r) >= q and a_(i0+r) >= v (the right check), a missing
    neighbour counting as infinitely far. Rounding moves a run only where
    a midpoint rounds up onto or past q: the right-hand check then fails
    (and either may on subnormal points, whose halves round). The rows
    that fail a check are answered by _window_rank_distances.

    The checks are made on segments, not rows. The sorted rows of a block
    that share a run start i0 form a segment, and on a segment the left
    check holds on a suffix of the rows and the right check on a prefix.
    For the left check take rows q <= q' of a segment, c = c_(i0-1) and e
    either end of the run, so c <= e. Let the check hold at q: c <= q and
    (q - c)**2 >= v(q). Then c <= q', and (q' - c)**2 >= (q - c)**2 by the
    monotonicity above. Where e >= q', 0 <= e - q' <= e - q, so the square
    of e at q' is at most its square at q, at most v(q) <= (q' - c)**2;
    where e < q', 0 < q' - e <= q' - c, so it is at most (q' - c)**2
    directly. So v(q') <= (q' - c)**2 and the check holds at q'. The right
    check mirrors this with q' <= q. So a segment whose first row passes
    the left check and whose last row passes the right check passes on
    every row, and only the rows of a segment that fails at an end are
    checked one by one: the rows sent to the window are exactly those a
    check of every row sends. The run's two end values and the outer
    neighbours are taken once per segment and repeated over its rows.

    p and i0 come from a merge of the points or midpoints into the
    queries, taken in sorted order (argsorted first only if they are
    not, and their rows put back afterwards). With pos_t the number of
    queries at or below value t, one search per value, value t lies
    below query i exactly when pos_t <= i; so a block's segments are the
    value numbers between the pos_t that fall inside it, the same run
    starts that a search per query would find (_run_segments).

    A block's row holds its results and either the two squares a result
    is formed from or, in a segment checked one by one, its row number,
    query, v and one outer neighbour, with a few masks.
    """
    n, m = q.shape[0], line.shape[0]
    by = None
    if (q[1:] < q[:-1]).any():
        by = np.argsort(q, kind="stable")
        q = q[by]
    half = line * 0.5
    pos = [np.searchsorted(q, line if r == 1 else half[:m - r] + half[r:], "right")
           for r in ranks]
    # the line between two infinitely far points, so that every run has
    # outer neighbours
    padded = np.concatenate(([-np.inf], line, [np.inf]))
    exact = np.ones(n, dtype=bool)

    def block(rows):
        qb, ok = q[rows], exact[rows]
        table = np.empty((len(qb), len(ranks)))
        for j, (r, p) in enumerate(zip(ranks, pos)):
            runs, counts = _run_segments(p, rows.start, rows.start + len(qb))
            # rank 1: c_p and c_(p-1), the points around q, are padded[p + 1]
            # and padded[p]; else the run's ends c_i0 and c_(i0+r-1)
            v = table[:, j]
            (np.minimum if r == 1 else np.maximum)(
                _repeated_squares(qb, padded[1:].take(runs), counts),
                _repeated_squares(qb, padded[r if r > 1 else 0:].take(runs), counts), out=v)
            if r > 1:
                lasts = np.cumsum(counts) - 1
                firsts = lasts - (counts - 1)
                # c_(i0-1) and c_(i0+r), the run's outer neighbours, at i0
                left, right = padded, padded[r + 1:]
                sure = (_beyond(qb[firsts], v[firsts], left.take(runs), np.less_equal)
                        & _beyond(qb[lasts], v[lasts], right.take(runs), np.greater_equal))
                if not sure.all():
                    # the segments that fail at an end, row by row
                    unsure = np.flatnonzero(~sure)
                    runs, counts = runs[unsure], counts[unsure]
                    at = _ranges(firsts[unsure], counts)
                    qe, ve = qb.take(at), v.take(at)
                    ok[at] &= (
                        _beyond(qe, ve, np.repeat(left.take(runs), counts), np.less_equal)
                        & _beyond(qe, ve, np.repeat(right.take(runs), counts), np.greater_equal))
        return np.sqrt(table, out=table)

    out = _in_blocks(n, (5 + len(ranks)) * 8, len(ranks), block)
    redo = np.flatnonzero(~exact)
    if redo.size:
        out[redo] = _window_rank_distances(q[redo], line, ranks)
    if by is not None:
        out[by] = out.copy()
    return out


def _run_segments(pos: np.ndarray, start: int, stop: int) -> tuple:
    """The run starts of sorted query rows start..stop-1 as segments: the
    run starts, ascending, and the number of rows of each, at least one.
    Row i's run start is the number of values t (points or midpoints)
    with pos[t] <= i, where pos[t] (ascending) is the number of queries at
    or below value t: the value numbers change at the pos[t] inside the
    rows."""
    lo, hi = int(pos.searchsorted(start, "right")), int(pos.searchsorted(stop - 1, "right"))
    edges = np.empty(hi - lo + 2, pos.dtype)
    edges[0], edges[1:-1], edges[-1] = start, pos[lo:hi], stop
    counts = edges[1:] - edges[:-1]
    runs = np.flatnonzero(counts)
    return runs + lo, counts.take(runs)


def _repeated_squares(q: np.ndarray, values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """(q - c)**2 for each query row, c the value of its segment (values
    repeated by counts), formed in one buffer."""
    out = np.repeat(values, counts)
    np.subtract(q, out, out=out)
    return np.square(out, out=out)


def _beyond(q: np.ndarray, v: np.ndarray, c: np.ndarray, side) -> np.ndarray:
    """Whether each c lies beyond q, ``side(c, q)``, at a square (q - c)**2
    of at least v; c is overwritten."""
    ok = side(c, q)
    np.subtract(q, c, out=c)
    ok &= np.square(c, out=c) >= v
    return ok


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The integers starts[j] .. starts[j] + counts[j] - 1, for each j in turn."""
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(counts.sum())


# 2**-536, a float above 2**-537.5: a difference x with fl(x**2) = 0 has
# |x| < 2**-537.5, and so |fl(q - c)| < _COINCIDENT implies |q - c| < _COINCIDENT
_COINCIDENT = 2.0**-536


def _line_kth_and_coincident(queries: np.ndarray, line: np.ndarray, k: int,
                             rank_distances) -> tuple:
    """What _kth_cross reads from ranks (1, k) for d = 1 queries against
    ``line``, the sorted sample, without rank 1 for every row: the rank-k
    distances (``rank_distances(qs, (k,))``) and the rows, ascending,
    whose rank-1 distance is 0.

    A rank-1 distance is 0 when the square of some fl(q - c) underflows to
    0, |fl(q - c)| < 2**-537.5. Rounding is monotone and 2**-536 is a
    float, so |q - c| >= 2**-536 would give |fl(q - c)| >= 2**-536:
    such a q lies within 2**-536 of c, and is at least fl(c - 2**-536) and
    at most fl(c + 2**-536). One search of the points into the sorted
    queries gives each point's nearest query at or below it and above it.
    A query farther on the same side has an |fl(q - c)| at least as large,
    so only a point one of whose two queries has |fl(q - c)| < 2**-536
    can meet such a q.
    Two searches of those few points' intervals bracket the candidate
    rows, which take the rank-1 formula of _line_rank_distances: the rows
    found are the rows whose rank-1 distance is 0. Queries that arrive
    unsorted are sorted once for both parts and their rows put back.
    """
    q = queries[:, 0]
    by = None
    if (q[1:] < q[:-1]).any():
        by = np.argsort(q, kind="stable")
        q = q[by]
    out = rank_distances(q[:, None], (k,))[:, 0]
    pos = np.searchsorted(q, line, "right")
    # a point with no query on one side compares with the other side's twice
    near = ((np.abs(line - q.take(pos - 1, mode="clip")) < _COINCIDENT)
            | (np.abs(q.take(pos, mode="clip") - line) < _COINCIDENT))
    rows = np.empty(0, np.intp)
    if near.any():
        c = line[near]
        lo = np.searchsorted(q, c - _COINCIDENT, "left")
        rows = np.unique(_ranges(lo, np.searchsorted(q, c + _COINCIDENT, "right") - lo))
        rows = rows[_line_rank_distances(q[rows], line, (1,))[:, 0] == 0.0]
    if by is not None:
        out[by] = out.copy()
        rows = np.sort(by[rows])
    return out, rows


def _window_rank_distances(q: np.ndarray, line: np.ndarray, ranks: tuple) -> np.ndarray:
    """Sorted-window answer for d = 1 against ``line``, the sorted sample,
    for the rows that _line_rank_distances cannot certify.

    With kq the largest rank, the kq nearest points of q lie among the
    kq sorted points on either side of its insertion point. The window
    [pos - kq, pos + kq), shifted to fit inside the sample (the whole
    sample when it has fewer than 2 kq points), therefore holds them.
    Distances are formed by _smallest_squares, as the brute-force route
    forms them, so the two agree bit for bit, ties and underflow included.
    """
    m, kq = line.shape[0], ranks[-1]
    w = min(2 * kq, m)
    windows = sliding_window_view(line, w)
    cols = np.subtract(ranks, 1)

    def block(rows):
        qb = q[rows]
        start = np.clip(np.searchsorted(line, qb) - kq, 0, m - w)
        d2 = _smallest_squares((qb[:, None] - windows[start])[:, :, None], kq)
        return np.sqrt(d2[:, cols])

    return _in_blocks(q.shape[0], w * 8, len(ranks), block)


class _Screen:
    """The d > 15 screen's copy of the indexed points: their mean
    ``center``, the points less it (``centered``) and those rows' squared
    norms (``norms``).

    Centering keeps the screen's rounding margin, which grows with the
    norms, on the scale of the points' spread rather than of their
    distance from the origin. Where the mean or a norm overflows, the
    margin is infinite or NaN and every row falls back to the oracle.
    """

    __slots__ = ("center", "centered", "norms")

    def __init__(self, points: np.ndarray):
        with np.errstate(over="ignore", invalid="ignore"):
            self.center = points.mean(axis=0)
            self.centered = points - self.center
            self.norms = np.einsum("ij,ij->i", self.centered, self.centered)


def _screened_rank_distances(queries: np.ndarray, points: np.ndarray, screen: _Screen,
                             ranks: tuple) -> np.ndarray:
    """Route for d > 15: a matrix-product screen, then the brute-force
    arithmetic on a few candidates; bitwise equal to _brute_rank_distances.

    With q and p centered on screen.center, ||p||^2 - 2 q.p ranks the
    points for each query row of a block, and its kq + _SCREEN_EXTRA
    smallest are the candidates (kq the largest rank). The screen's next
    value plus ||q||^2 is the row's boundary, and (4d + 16) 2**-53
    (||q||^2 + max ||p||^2) + (4d + 16) tiny, centered norms again, its
    margin. That bounds, to first order in 2**-53, the rounding of the
    centering (4), of the dot products and both norms (2d + 4), of the
    brute-force sums (2d + 4) and of boundary less margin (2), 4d + 14
    in all, for _certified_candidates. Rows it does not certify are
    answered by _brute_rank_distances, and so is a sample of at most
    kq + _SCREEN_EXTRA points, which has nothing to screen.

    A block's row holds its centered query twice (d values each), N
    screen values and N partition indices, then its candidates: an index
    and d + 2 values each. The block fills its screen values with matrix
    products of fewer than _ONE_THREAD_PRODUCT / (N d) query rows each,
    at least one, so that OpenBLAS runs each product on one thread: a
    threaded product waits for a second core, and its time swings with
    the load on the cores. On 2 shared cores, a 7 x 64 by 64 x 2000
    product took up to 8 ms threaded and 0.15 ms on one thread, and 40
    products of a whole column of queries (3600 x 20 by 20 x 400) took
    0.04-0.34 s threaded and 0.07-0.09 s on one thread. A matrix build
    already threads over its columns. Only the products are cut this
    fine; the partition, the recompute and the certificate run once per
    block. With 400 points at d = 20, a block of 156 rows takes three
    products of up to 65 rows; when each block was a single product, of
    39 rows, a matrix of 10 such groups took 0.33 s in place of 0.25 s.
    A single row against N d >= _ONE_THREAD_PRODUCT is a matrix-vector
    product, which OpenBLAS may still thread.
    """
    n, d = points.shape
    kq, cols = ranks[-1], np.subtract(ranks, 1)
    c = kq + _SCREEN_EXTRA
    if n <= c:
        return _brute_rank_distances(queries, points, ranks)
    scale = (4 * d + 16) * 2.0**-53
    with np.errstate(over="ignore", invalid="ignore"):
        margin0 = scale * screen.norms.max() + (4 * d + 16) * np.finfo(np.float64).tiny
    exact = np.empty(queries.shape[0], dtype=bool)
    product_rows = max(1, (_ONE_THREAD_PRODUCT - 1) // (n * d))

    def block(rows):
        qb = queries[rows]
        # a norm or the product may overflow where (q - p)^2 does not; the
        # margin is then infinite or NaN and the row falls back
        with np.errstate(over="ignore", invalid="ignore"):
            qc = qb - screen.center
            s = np.empty((len(qb), n))
            for a in range(0, len(qb), product_rows):
                sub = slice(a, a + product_rows)
                np.matmul(-2.0 * qc[sub], screen.centered.T, out=s[sub])
            s += screen.norms
            part = np.argpartition(s, c, axis=1)
            q2 = np.einsum("ij,ij->i", qc, qc)
            boundary = q2 + s[np.arange(len(qb)), part[:, c]]
            margin = scale * q2 + margin0
        # the row budget counts the screen and the candidates apart
        cand = part[:, :c].copy()
        del s, part, qc
        d2, exact[rows] = _certified_candidates(qb, points, cand, boundary, margin, kq)
        return np.sqrt(d2[:, cols])

    out = _in_blocks(queries.shape[0], max(2 * (n + d), (d + 3) * c) * 8, len(ranks), block)
    redo = np.flatnonzero(~exact)
    if redo.size:
        out[redo] = _brute_rank_distances(queries[redo], points, ranks)
    return out


def _certified_candidates(qb, points, cand, boundary, margin, kq):
    """The kq smallest squared distances from each row of qb to its
    candidates, the rows of points indexed by cand, in ascending order;
    and a mask of the rows where they are the kq smallest of all points.

    The distances are formed by _smallest_squares, as in
    _brute_rank_distances, so they are bitwise its values. Per row, no
    point outside the candidates may be nearer, as brute force computes
    it, than boundary less margin. A row is certified when that bound is
    finite and at least its kq-th recomputed value.
    """
    # qb[:, None, :] - points[cand], in one buffer
    diff = points[cand]
    np.subtract(qb[:, None, :], diff, out=diff)
    d2 = _smallest_squares(diff, kq)
    with np.errstate(invalid="ignore"):
        bound = boundary - margin
    return d2, np.isfinite(bound) & (bound >= d2[:, -1])


class QueryBatch:
    """The points of several indexed groups as the query rows of
    cross-sample queries, in the order that answers them fastest.

    On the line route ``line`` holds every group's points, sorted once,
    and ``order`` the permutation that sorts them: line[i] is point order[i]
    of the groups stacked in their order, in which group g holds points
    bounds[g]:bounds[g + 1]. Leaving a group out compresses the line,
    which keeps it sorted, into the calling thread's ``_Workspace``. A
    query's distances depend on its value alone, so the sort need not be
    stable; a batch of one group takes its index's sorted line and order
    as they are. On the other routes both are None and the queries are
    the groups' points stacked. Safe for concurrent queries.
    """

    __slots__ = ("groups", "bounds", "line", "order")

    def __init__(self, indexes):
        self.groups = [ix.points for ix in indexes]
        self.bounds = list(accumulate((len(p) for p in self.groups), initial=0))
        self.line = self.order = None
        if indexes[0].route == "line":
            if len(indexes) == 1:
                self.line, self.order = indexes[0].line, indexes[0].order
            else:
                pooled = np.concatenate(self.groups)[:, 0]
                self.order = np.argsort(pooled)
                self.line = pooled[self.order]

    def query(self, skip: int | None = None):
        """(queries, split) for every group but ``skip``: the query rows,
        sorted on the line route and else the groups' points stacked in
        group order, and a function that splits values, one per query
        row, into new arrays, one per group, each in its group's point
        order. On the line route with a group left out, the queries and
        split hold until the thread's next such query, which reuses its
        workspace."""
        groups = [g for g in range(len(self.groups)) if g != skip]
        if self.line is None:
            cuts = np.cumsum([len(self.groups[g]) for g in groups[:-1]])
            rest = [self.groups[g] for g in groups]
            return (rest[0] if len(rest) == 1 else np.concatenate(rest),
                    lambda values: np.split(values, cuts))
        line, order = self.line, self.order
        if skip is not None:
            workspace = _Workspace.of_thread(self.bounds[-1])
            # np.compress(..., out=) makes the same rows and took 0.48 ms
            # a 48,000-row column, against 0.14 ms
            rows = np.flatnonzero((order < self.bounds[skip]) | (order >= self.bounds[skip + 1]))
            line = line.take(rows, mode="clip", out=workspace.queries[:len(rows)])
            order = order.take(rows, mode="clip", out=workspace.order[:len(rows)])

        def split(values):
            stacked = np.empty(self.bounds[-1])
            stacked[order] = values
            return [stacked[self.bounds[g]:self.bounds[g + 1]] for g in groups]

        return line[:, None], split

    def kth_nn_cross(self, skip: int | None, index: NeighborIndex, k: int,
                     workers: int = 1) -> list:
        """kth_nn_cross of every group but ``skip`` against ``index``, one
        new array per group in its point order."""
        queries, split = self.query(skip)
        return split(kth_nn_cross(queries, index, k, workers=workers))


class _Workspace:
    """One thread's buffers for the d = 1 queries of QueryBatches of up to
    ``size`` points that leave a group out: the compressed sorted queries
    (``queries``) and their permutation (``order``), 16 bytes a point.

    A thread keeps its workspace from one column to the next and from one
    matrix build to the next, and replaces it only for a larger batch; it
    is freed with the thread, so a build's pool threads free theirs when
    the build ends. Of a column's arrays these two are the ones whose
    reuse pays (module docstring); its rank table, nu_k and split arrays
    are allocated per column.
    """

    __slots__ = ("queries", "order")
    _threads = threading.local()

    def __init__(self, size: int):
        self.queries = np.empty(size)
        self.order = np.empty(size, np.intp)

    @classmethod
    def of_thread(cls, size: int) -> "_Workspace":
        """The calling thread's workspace, made or replaced to hold size points."""
        workspace = getattr(cls._threads, "workspace", None)
        if workspace is None or len(workspace.queries) < size:
            workspace = cls._threads.workspace = cls(size)
        return workspace


def _is_count(n) -> bool:
    """Whether n is an int or numpy integer, and no bool: the one test of a
    count (k, a thread count, a dimension) in the package."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


def _thread_count(workers) -> int:
    """The threads that ``workers`` asks for: at -1 every CPU this process
    may run on (its affinity mask, where the platform has one), else workers.
    A bool is no thread count, though Python's is an int."""
    if not (_is_count(workers) and (workers == -1 or workers >= 1)):
        raise ConfigError(f"workers must be -1 or a positive integer, got {workers!r}")
    if workers != -1:
        return int(workers)
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def build_index(points) -> NeighborIndex:
    """Index the rows of an N x d matrix for exact neighbor queries."""
    return NeighborIndex(points)


def kth_nn_within(index: NeighborIndex, k: int, *, workers: int = 1) -> np.ndarray:
    """Distance from each indexed point to its k-th nearest other indexed point.

    Requires k <= N - 1. Entry n is zero only if the sample contains
    duplicate rows; callers that need strictly positive distances must
    screen for that. ``workers`` is -1 or a positive thread count
    (``_thread_count``), for the kd-tree's query. A k that is no count
    (``_is_count``) or below 1 raises ValueError.
    """
    workers = _thread_count(workers)
    queries, split = QueryBatch([index]).query()
    rho = _kth_within(index.size, k, lambda ranks: index._rank_distances(queries, ranks, workers))
    return split(rho)[0]


def kth_nn_cross(query_points, index: NeighborIndex, k: int, *, workers: int = 1) -> np.ndarray:
    """Distance from each query point to its k-th nearest indexed point.

    A zero-distance match (the query point coinciding exactly with an
    indexed point) is excluded, so the indexed sample behaves as if the
    query point itself had been removed from it. A *remaining* zero
    distance means the indexed sample holds duplicates at the query
    location and raises DegenerateDistanceError. Each query's distance
    is the same whatever the other queries and their order; on a 1-D
    index, sorted queries skip a sort. ``workers`` is as in kth_nn_within.
    """
    workers = _thread_count(workers)
    queries = _as_points(query_points, "query_points")
    if queries.shape[1] != index.dim:
        raise ValueError(
            f"query dimension {queries.shape[1]} != index dimension {index.dim}"
        )
    return _kth_cross(queries, index.size, k,
                      lambda qs, ranks: index._rank_distances(qs, ranks, workers),
                      index.line)


def _rank_count(k) -> int:
    """k as an int; ValueError unless it is a count of at least 1. Every
    route and the oracle take k from here, before any query, so that
    none can truncate a fractional k to a rank or overflow a small
    numpy integer type in its index arithmetic."""
    if not _is_count(k):
        raise ValueError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return int(k)


def _kth_within(n: int, k: int, rank_distances) -> np.ndarray:
    """k-th nearest other point of each of n points.

    ``rank_distances(ranks)`` returns every point's distances to the
    points of the given neighbor ranks in the same sample.
    """
    k = _rank_count(k)
    if k > n - 1:
        raise InsufficientSampleError(
            f"within-sample k-NN with k={k} needs at least {k + 1} points, got {n}"
        )
    # Read rank k+1: the self match (distance 0) occupies rank 1.
    return rank_distances((k + 1,))[:, 0]


def _kth_cross(queries: np.ndarray, m: int, k: int, rank_distances,
               line: np.ndarray | None = None) -> np.ndarray:
    """k-th nearest of m indexed points per query, a coincidence excluded.

    ``rank_distances(qs, ranks)`` returns the distances of the query rows
    qs to the indexed points of the given neighbor ranks. ``line``, the
    sorted points of an index on the line route, lets k > 1 ask for rank
    k alone and find the coincident rows by a search
    (_line_kth_and_coincident).
    """
    k = _rank_count(k)
    if k > m:
        raise InsufficientSampleError(
            f"cross-sample k-NN with k={k} needs at least {k} indexed points, got {m}"
        )
    # Rank 1 finds a coincidence and rank k is the answer without one;
    # rank k+1, the answer with one, is computed for the coincident rows
    # alone.
    if line is None or k == 1:
        dist = rank_distances(queries, (1, k) if k > 1 else (1,))
        out, coincident = np.ascontiguousarray(dist[:, -1]), np.flatnonzero(dist[:, 0] == 0.0)
    else:
        out, coincident = _line_kth_and_coincident(queries, line, k, rank_distances)
    if coincident.size:
        if k == m:
            raise InsufficientSampleError(
                f"query point {coincident[0]} coincides with an indexed point; k={k} then "
                f"needs at least {k + 1} indexed points, got {m}"
            )
        out[coincident] = rank_distances(queries[coincident], (k + 1,))[:, 0]
    if (out == 0.0).any():
        idx = int(np.flatnonzero(out == 0.0)[0])
        raise DegenerateDistanceError(
            f"query point {idx} has a zero k-th neighbor distance: the indexed "
            "sample contains duplicate points at that location"
        )
    return out


def unit_ball_volume(d: int) -> float:
    """Volume of the d-dimensional Euclidean unit ball, pi^(d/2) / Gamma(d/2 + 1)."""
    if not _is_count(d) or d < 1:
        raise ValueError(f"dimension must be a positive integer, got {d!r}")
    return float(math.exp(0.5 * d * math.log(math.pi) - gammaln(0.5 * d + 1.0)))


# ---------------------------------------------------------------------------
# Brute-force oracle: the independent reference the routes are verified
# against, and the d > 15 route's answer for rows its screen cannot certify.

def _smallest_squares(diff: np.ndarray, kq: int) -> np.ndarray:
    """The kq smallest squared distances of each row, in ascending order,
    from ``diff``, a rows x candidates x d block of differences, which it
    squares in place and sums over the coordinates.

    The one place that forms a brute-force squared distance: the oracle,
    the d > 15 screen's recompute and the 1-D window all call it, so
    their values are the same bits.
    """
    np.square(diff, out=diff)
    d2 = diff.sum(axis=-1)
    if kq < d2.shape[1]:
        d2 = np.partition(d2, kq - 1, axis=1)[:, :kq]
    d2.sort(axis=1)
    return d2


def _brute_rank_distances(queries: np.ndarray, points: np.ndarray, ranks: tuple) -> np.ndarray:
    """Brute-force oracle: every squared distance, the kq smallest sorted,
    then the ranks' columns (kq the largest rank).

    A block's broadcast difference holds N * d float64 values per row.
    """
    kq, cols = ranks[-1], np.subtract(ranks, 1)

    def block(rows):
        d2 = _smallest_squares(queries[rows, None, :] - points[None, :, :], kq)
        return np.sqrt(d2[:, cols])

    return _in_blocks(queries.shape[0], points.shape[0] * points.shape[1] * 8, len(ranks), block)


def brute_kth_nn_within(points, k: int) -> np.ndarray:
    """Brute-force counterpart of kth_nn_within (no tree involved)."""
    pts = _as_points(points)
    return _kth_within(pts.shape[0], k, lambda ranks: _brute_rank_distances(pts, pts, ranks))


def brute_kth_nn_cross(query_points, points, k: int) -> np.ndarray:
    """Brute-force counterpart of kth_nn_cross (no tree involved)."""
    queries = _as_points(query_points, "query_points")
    pts = _as_points(points)
    if queries.shape[1] != pts.shape[1]:
        raise ValueError("query/point dimensions differ")
    return _kth_cross(
        queries, pts.shape[0], k, lambda qs, ranks: _brute_rank_distances(qs, pts, ranks)
    )
