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
* d > 15, brute force: all pairwise distances, in row chunks whose
  temporaries stay within a fixed byte budget.

Squared distances are used internally; square roots are taken once at
the boundary. All results are exact and match the brute-force route
bit for bit.
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

# Byte budget for the broadcast difference of one brute-force chunk, which
# holds rows * N * d float64 values; the rows per chunk follow from it.
_BRUTE_BUDGET_BYTES = 32 * 2**20


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
    * d > 15: None, and queries run brute force.

    Safe for concurrent queries.
    """

    __slots__ = ("points", "tree")

    def __init__(self, points):
        pts = _as_points(points)
        self.points = pts
        if pts.shape[1] == 1:
            self.tree = np.sort(pts[:, 0])
        elif pts.shape[1] > BRUTE_FORCE_DIM:
            self.tree = None
        else:
            self.tree = cKDTree(pts, leafsize=LEAF_SIZE, balanced_tree=True)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def _sorted_distances(self, queries: np.ndarray, kq: int, workers: int) -> np.ndarray:
        """Distances to the kq nearest indexed points, ascending per row."""
        if self.tree is None:
            return _brute_sorted_distances(queries, self.points, kq)
        if self.dim == 1:
            return _window_sorted_distances(queries[:, 0], self.tree, kq)
        dist, _ = self.tree.query(queries, k=kq, workers=workers)
        if kq == 1:
            dist = dist[:, None]
        return dist


def _window_sorted_distances(q: np.ndarray, line: np.ndarray, kq: int) -> np.ndarray:
    """Sorted-window route for d = 1 against ``line``, the sorted sample.

    The kq nearest points of q lie among the kq sorted points on either
    side of its insertion point. The window [pos - kq, pos + kq), shifted
    to fit inside the sample (the whole sample when it has fewer than
    2 kq points), therefore holds them. Distances are sqrt((q - c)**2),
    formed as the brute-force route forms them, so the two agree bit for
    bit, ties and underflow included.
    """
    m = line.shape[0]
    w = min(2 * kq, m)
    start = np.clip(np.searchsorted(line, q) - kq, 0, m - w)
    d2 = (q[:, None] - sliding_window_view(line, w)[start]) ** 2
    d2.sort(axis=1)
    return np.sqrt(d2[:, :kq])


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
        index.size, k, lambda kq: index._sorted_distances(index.points, kq, workers)
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
        index.size, k, lambda kq: index._sorted_distances(queries, kq, workers)
    )


def _kth_within(n: int, k: int, sorted_distances) -> np.ndarray:
    """k-th nearest other point of each of n points.

    ``sorted_distances(kq)`` returns every point's kq nearest distances
    in the same sample, ascending per row.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > n - 1:
        raise InsufficientSampleError(
            f"within-sample k-NN with k={k} needs at least {k + 1} points, got {n}"
        )
    # Query k+1 neighbors: the self match (distance 0) occupies one slot.
    return sorted_distances(k + 1)[:, k]


def _kth_cross(m: int, k: int, sorted_distances) -> np.ndarray:
    """k-th nearest of m indexed points per query, a coincidence excluded.

    ``sorted_distances(kq)`` returns each query's kq nearest indexed
    distances, ascending per row.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > m:
        raise InsufficientSampleError(
            f"cross-sample k-NN with k={k} needs at least {k} indexed points, got {m}"
        )
    kq = min(k + 1, m)
    dist = sorted_distances(kq)
    coincident = dist[:, 0] == 0.0
    if coincident.any() and kq < k + 1:
        idx = int(np.flatnonzero(coincident)[0])
        raise InsufficientSampleError(
            f"query point {idx} coincides with an indexed point; k={k} then "
            f"needs at least {k + 1} indexed points, got {m}"
        )
    out = dist[:, k - 1].copy()
    if coincident.any():
        out[coincident] = dist[coincident, k]
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
# Brute-force route. Used automatically for d > 15 and as the independent
# oracle the other routes are verified against.

def _brute_sorted_distances(queries: np.ndarray, points: np.ndarray, kq: int) -> np.ndarray:
    rows = max(1, _BRUTE_BUDGET_BYTES // (points.shape[0] * points.shape[1] * 8))
    out = np.empty((queries.shape[0], kq))
    for start in range(0, queries.shape[0], rows):
        chunk = queries[start:start + rows]
        d2 = ((chunk[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1)
        if kq < d2.shape[1]:
            part = np.partition(d2, kq - 1, axis=1)[:, :kq]
            part.sort(axis=1)
        else:
            part = np.sort(d2, axis=1)
        out[start:start + rows] = np.sqrt(part)
    return out


def brute_kth_nn_within(points, k: int) -> np.ndarray:
    """Brute-force counterpart of kth_nn_within (no tree involved)."""
    pts = _as_points(points)
    return _kth_within(pts.shape[0], k, lambda kq: _brute_sorted_distances(pts, pts, kq))


def brute_kth_nn_cross(query_points, points, k: int) -> np.ndarray:
    """Brute-force counterpart of kth_nn_cross (no tree involved)."""
    queries = _as_points(query_points, "query_points")
    pts = _as_points(points)
    if queries.shape[1] != pts.shape[1]:
        raise ValueError("query/point dimensions differ")
    return _kth_cross(
        pts.shape[0], k, lambda kq: _brute_sorted_distances(queries, pts, kq)
    )
