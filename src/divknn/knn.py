"""Exact k-th nearest-neighbor (Euclidean) distance queries.

Two query modes back the divergence estimators:

* within-sample: distance from each point to its k-th nearest *other*
  point in the same sample (the point itself never counts);
* cross-sample: distance from each query point to its k-th nearest
  point of an indexed sample, excluding an exact coordinate coincidence
  with the query point if there is one.

Three routes answer them, chosen from the dimension d when the index is
built:

* d = 1, sorted window: the k nearest points of a query on a line are a
  contiguous run of the sorted sample, so one binary search and a
  2k-wide gather find them with no tree;
* 2 <= d <= 15, kd-tree: a balanced ``scipy.spatial.cKDTree``;
* d > 15, brute force, screened: with the points centered on their
  mean c, ||p - c||^2 - 2 (q - c).(p - c), one small matrix product per
  block of query rows, picks the kq + 8 most promising points per row
  (kq the largest rank asked for). Their squared distances are then
  recomputed exactly as the brute-force oracle computes them. A row
  keeps them when the screen's next value, plus ||q - c||^2 and less a
  margin that bounds the rounding of the centering, of the screen and
  of the oracle, is at least the recomputed kq-th value: no other point
  can then be nearer as the oracle computes it. Every other row, such as
  one whose candidates tie with the next point within the margin or
  whose centered norms overflow, is answered by the oracle itself. So
  the route is bitwise the oracle, which ``brute_kth_nn_within`` and
  ``brute_kth_nn_cross`` still run unscreened.

A route returns only the neighbor ranks its caller reads, not the whole
sorted table of the nearest distances: the within-sample query reads
rank k + 1 (the self match takes rank 1), the cross-sample query ranks
1, k and k + 1, clipped to the sample size. The kd-tree route passes the ranks to
``cKDTree.query``; the other two sort a row's candidates and keep those
columns.

The sorted-window and brute-force routes work through their queries in
blocks of rows whose temporaries stay within one byte budget,
``_BLOCK_BYTES``. The budget is small on purpose: glibc serves large
allocations with fresh ``mmap`` pages, and at several MiB per block
the page faults of every new temporary cost more than the arithmetic.
Blocks of a few hundred KiB are mostly reused from the heap: a
divergence matrix of 25 one-dimensional groups of 2000 points took
about 180,000 minor page faults with unblocked temporaries, 200,000
with 4 MiB blocks and 500 with 256 KiB blocks. The budget holds per
query: threads that query at the same time, as a threaded divergence
matrix does, hold up to threads x ``_BLOCK_BYTES`` of temporaries.

Squared distances are used internally; square roots are taken once at
the boundary. All results are exact. The sorted-window route and the
kd-tree route up to d = 7 match the brute-force route bit for bit. From
d = 8 cKDTree sums a squared distance in four interleaved partial sums
and numpy's brute force in eight, so there the two may differ in the
last bits.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.spatial import cKDTree
from scipy.special import gammaln

from .errors import DegenerateDistanceError, InsufficientSampleError

# kd-trees stop paying off in high dimensions; switch to brute force there.
BRUTE_FORCE_DIM = 15
LEAF_SIZE = 16

# Byte budget for the temporaries of one block of query rows on the
# sorted-window and brute-force routes; the rows per block follow from
# each route's temporary per row.
_BLOCK_BYTES = 256 * 2**10

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

    ``tree`` holds the structure of the route chosen from d:

    * d = 1: the sorted coordinates, a 1-D array searched by sorted window;
    * 2 <= d <= 15: a balanced kd-tree (median split on the widest-spread
      coordinate, leaf size 16);
    * d > 15: None, and queries run brute force: a matrix-product screen
      per block, an exact recompute of its candidates, and the unscreened
      oracle for each row whose candidates a rounding margin cannot
      certify, so the distances are bitwise the oracle's. ``screen``
      then holds the points centered on their mean, a second N x d
      array, for the screen.

    A query asks for a few neighbor ranks and gets one column per rank;
    the sorted-window and brute-force routes answer it in blocks of rows
    within ``_BLOCK_BYTES`` of temporaries. Safe for concurrent queries.
    """

    __slots__ = ("points", "tree", "screen")

    def __init__(self, points):
        pts = _as_points(points)
        self.points = pts
        self.screen = None
        if pts.shape[1] == 1:
            self.tree = np.sort(pts[:, 0])
        elif pts.shape[1] > BRUTE_FORCE_DIM:
            self.tree = None
            self.screen = _Screen(pts)
        else:
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
        if self.tree is None:
            return _screened_rank_distances(queries, self.points, self.screen, ranks)
        if self.dim == 1:
            return _window_rank_distances(queries[:, 0], self.tree, ranks)
        return self.tree.query(queries, k=list(ranks), workers=workers)[0]


def _in_blocks(n: int, row_bytes: int, ncols: int, block,
               max_rows: int | None = None) -> np.ndarray:
    """The n x ncols table filled by ``block(rows)``, one slice of rows at
    a time: as many as keep row_bytes per row within _BLOCK_BYTES, at
    most max_rows if given, and at least one."""
    step = _BLOCK_BYTES // row_bytes
    if max_rows is not None:
        step = min(step, max_rows)
    step = max(1, step)
    out = np.empty((n, ncols))
    for start in range(0, n, step):
        rows = slice(start, start + step)
        out[rows] = block(rows)
    return out


def _window_rank_distances(q: np.ndarray, line: np.ndarray, ranks: tuple) -> np.ndarray:
    """Sorted-window route for d = 1 against ``line``, the sorted sample.

    With kq the largest rank, the kq nearest points of q lie among the
    kq sorted points on either side of its insertion point. The window
    [pos - kq, pos + kq), shifted to fit inside the sample (the whole
    sample when it has fewer than 2 kq points), therefore holds them.
    Distances are sqrt((q - c)**2), formed as the brute-force route forms
    them, so the two agree bit for bit, ties and underflow included.
    """
    m, kq = line.shape[0], ranks[-1]
    w = min(2 * kq, m)
    windows = sliding_window_view(line, w)
    cols = np.subtract(ranks, 1)

    def block(rows):
        qb = q[rows]
        start = np.clip(np.searchsorted(line, qb) - kq, 0, m - w)
        d2 = (qb[:, None] - windows[start]) ** 2
        d2.sort(axis=1)
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
    and d + 2 values each. A block also has fewer than
    _ONE_THREAD_PRODUCT / (N d) rows, at least one, so that OpenBLAS
    runs its product on one thread: a threaded product waits for a
    second core, and its time swings with the load on the cores. On 2
    shared cores, a 7 x 64 by 64 x 2000 product took up to 8 ms threaded
    and 0.15 ms on one thread, and 40 products of a whole column of
    queries (3600 x 20 by 20 x 400) took 0.04-0.34 s threaded and
    0.07-0.09 s on one thread. A matrix build already threads over its
    columns. A single row against N d >= _ONE_THREAD_PRODUCT is a
    matrix-vector product, which OpenBLAS may still thread.
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

    def block(rows):
        qb = queries[rows]
        # a norm or the product may overflow where (q - p)^2 does not; the
        # margin is then infinite or NaN and the row falls back
        with np.errstate(over="ignore", invalid="ignore"):
            qc = qb - screen.center
            s = (-2.0 * qc) @ screen.centered.T
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

    out = _in_blocks(queries.shape[0], max(2 * (n + d), (d + 3) * c) * 8, len(ranks), block,
                     (_ONE_THREAD_PRODUCT - 1) // (n * d))
    redo = np.flatnonzero(~exact)
    if redo.size:
        out[redo] = _brute_rank_distances(queries[redo], points, ranks)
    return out


def _certified_candidates(qb, points, cand, boundary, margin, kq):
    """The kq smallest squared distances from each row of qb to its
    candidates, the rows of points indexed by cand, in ascending order;
    and a mask of the rows where they are the kq smallest of all points.

    The distances are formed as _brute_rank_distances forms them, so they
    are bitwise its values. Per row, no point outside the candidates may
    be nearer, as brute force computes it, than boundary less margin. A
    row is certified when that bound is finite and at least its kq-th
    recomputed value.
    """
    # ((qb[:, None, :] - points[cand]) ** 2).sum(axis=-1), in one buffer
    diff = points[cand]
    np.subtract(qb[:, None, :], diff, out=diff)
    np.square(diff, out=diff)
    d2 = np.partition(diff.sum(axis=-1), kq - 1, axis=1)[:, :kq]
    d2.sort(axis=1)
    with np.errstate(invalid="ignore"):
        bound = boundary - margin
    return d2, np.isfinite(bound) & (bound >= d2[:, -1])


def build_index(points) -> NeighborIndex:
    """Index the rows of an N x d matrix for exact neighbor queries."""
    return NeighborIndex(points)


def kth_nn_within(index: NeighborIndex, k: int, *, workers: int = 1) -> np.ndarray:
    """Distance from each indexed point to its k-th nearest other indexed point.

    Requires k <= N - 1. Entry n is zero only if the sample contains
    duplicate rows; callers that need strictly positive distances must
    screen for that.
    """
    return _kth_within(
        index.size, k, lambda ranks: index._rank_distances(index.points, ranks, workers)
    )


def kth_nn_cross(query_points, index: NeighborIndex, k: int, *, workers: int = 1) -> np.ndarray:
    """Distance from each query point to its k-th nearest indexed point.

    A zero-distance match (the query point coinciding exactly with an
    indexed point) is excluded, so the indexed sample behaves as if the
    query point itself had been removed from it. A *remaining* zero
    distance means the indexed sample holds duplicates at the query
    location and raises DegenerateDistanceError.
    """
    queries = _as_points(query_points, "query_points")
    if queries.shape[1] != index.dim:
        raise ValueError(
            f"query dimension {queries.shape[1]} != index dimension {index.dim}"
        )
    return _kth_cross(
        index.size, k, lambda ranks: index._rank_distances(queries, ranks, workers)
    )


def _kth_within(n: int, k: int, rank_distances) -> np.ndarray:
    """k-th nearest other point of each of n points.

    ``rank_distances(ranks)`` returns every point's distances to the
    points of the given neighbor ranks in the same sample.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > n - 1:
        raise InsufficientSampleError(
            f"within-sample k-NN with k={k} needs at least {k + 1} points, got {n}"
        )
    # Read rank k+1: the self match (distance 0) occupies rank 1.
    return rank_distances((k + 1,))[:, 0]


def _kth_cross(m: int, k: int, rank_distances) -> np.ndarray:
    """k-th nearest of m indexed points per query, a coincidence excluded.

    ``rank_distances(ranks)`` returns each query's distances to the
    indexed points of the given neighbor ranks.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > m:
        raise InsufficientSampleError(
            f"cross-sample k-NN with k={k} needs at least {k} indexed points, got {m}"
        )
    # Rank 1 finds a coincidence, rank k is the answer without one and
    # rank k+1 (when the sample has it) the answer with one.
    ranks = tuple(sorted({1, k, min(k + 1, m)}))
    dist = rank_distances(ranks)
    coincident = dist[:, 0] == 0.0
    if coincident.any() and ranks[-1] == k:
        idx = int(np.flatnonzero(coincident)[0])
        raise InsufficientSampleError(
            f"query point {idx} coincides with an indexed point; k={k} then "
            f"needs at least {k + 1} indexed points, got {m}"
        )
    out = np.where(coincident, dist[:, -1], dist[:, ranks.index(k)])
    if (out == 0.0).any():
        idx = int(np.flatnonzero(out == 0.0)[0])
        raise DegenerateDistanceError(
            f"query point {idx} has a zero k-th neighbor distance: the indexed "
            "sample contains duplicate points at that location"
        )
    return out


def unit_ball_volume(d: int) -> float:
    """Volume of the d-dimensional Euclidean unit ball, pi^(d/2) / Gamma(d/2 + 1)."""
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise ValueError(f"dimension must be a positive integer, got {d!r}")
    return float(math.exp(0.5 * d * math.log(math.pi) - gammaln(0.5 * d + 1.0)))


# ---------------------------------------------------------------------------
# Brute-force oracle: the independent reference the routes are verified
# against, and the d > 15 route's answer for rows its screen cannot certify.

def _brute_rank_distances(queries: np.ndarray, points: np.ndarray, ranks: tuple) -> np.ndarray:
    """Brute-force oracle: every squared distance, the kq smallest sorted,
    then the ranks' columns (kq the largest rank).

    A block's broadcast difference holds N * d float64 values per row.
    """
    kq, cols = ranks[-1], np.subtract(ranks, 1)

    def block(rows):
        d2 = ((queries[rows, None, :] - points[None, :, :]) ** 2).sum(axis=-1)
        if kq < d2.shape[1]:
            d2 = np.partition(d2, kq - 1, axis=1)[:, :kq]
        d2.sort(axis=1)
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
        pts.shape[0], k, lambda ranks: _brute_rank_distances(queries, pts, ranks)
    )
