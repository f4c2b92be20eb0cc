"""Machine learning in distribution space, driven by divergence matrices.

Every operation here consumes pairwise divergences rather than raw
points: embedding (classical MDS), clustering (self-tuning spectral),
nearest-neighbor classification, order-statistic anomaly scoring, and
the matching evaluation metrics (permutation-optimal trace accuracy,
rank-based AUC). All randomness flows through explicit integer seeds.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .dataset import DivergenceMatrix
from .errors import ConfigError, ContractError, FlatAffinityError, UndefinedAUCError
from .knn import _is_count
from .synth import _rng

KMEANS_RESTARTS = 10
KMEANS_MAX_ITER = 200
LOCAL_SCALE_NEIGHBOR = 7  # affinity bandwidth: distance to this neighbor


@dataclass(frozen=True)
class Embedding:
    """Low-dimensional coordinates for each group plus the MDS spectrum.

    ``eigenvalues`` holds the full double-centered spectrum in
    descending order; negative entries witness non-Euclidean
    dissimilarities and contribute nothing to the coordinates. The
    coordinates are copied and frozen at construction.
    """

    ids: tuple[str, ...]
    coords: np.ndarray
    eigenvalues: tuple[float, ...]

    def __post_init__(self):
        coords = np.array(self.coords, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[0] != len(self.ids):
            raise ContractError(f"coords shape {coords.shape} does not match "
                                f"{len(self.ids)} ids")
        if not np.isfinite(coords).all():
            raise ContractError("embedding coordinates must be finite")
        if coords.size and np.abs(coords.sum(axis=0)).max() > 1e-8:
            raise ContractError("embedding coordinates must be centered")
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "ids", tuple(self.ids))
        object.__setattr__(self, "eigenvalues", tuple(float(v) for v in self.eigenvalues))


@dataclass(frozen=True)
class ClusterAssignment:
    ids: tuple[str, ...]
    cluster: tuple[int, ...]
    n_clusters: int

    def __post_init__(self):
        if len(self.ids) != len(self.cluster):
            raise ContractError("one cluster index per id required")
        if any(not 0 <= c < self.n_clusters for c in self.cluster):
            raise ContractError(f"cluster indices must lie in [0, {self.n_clusters})")
        object.__setattr__(self, "ids", tuple(self.ids))
        object.__setattr__(self, "cluster", tuple(int(c) for c in self.cluster))


@dataclass(frozen=True)
class AnomalyScores:
    """Per-group anomaly scores; larger means more anomalous.

    Scores live on the divergence scale, so slightly negative values
    can appear when the underlying estimates are themselves noisy. The
    scores are copied and frozen at construction.
    """

    ids: tuple[str, ...]
    score: np.ndarray

    def __post_init__(self):
        score = np.array(self.score, dtype=np.float64)
        if score.shape != (len(self.ids),):
            raise ContractError("one score per id required")
        if not np.isfinite(score).all():
            raise ContractError("anomaly scores must be finite")
        score.setflags(write=False)
        object.__setattr__(self, "score", score)
        object.__setattr__(self, "ids", tuple(self.ids))


def _require_finite(w: np.ndarray) -> None:
    """A divergence table with a NaN or infinite entry raises, as a
    DivergenceMatrix does, instead of being ranked around it."""
    if not np.isfinite(w).all():
        raise ContractError("divergence table contains non-finite entries")


def _check_count(what: str, n, low: int, high: int) -> None:
    """ConfigError unless n is a count (``knn._is_count``) in [low, high]."""
    if not _is_count(n):
        raise ConfigError(f"{what} must be an integer in [{low}, {high}], got {n!r}")
    if not low <= n <= high:
        raise ConfigError(f"{what} must lie in [{low}, {high}], got {n}")


def _require_symmetric(w: DivergenceMatrix) -> np.ndarray:
    if not w.is_symmetric():
        raise ContractError("matrix must be symmetrized first")
    return w.values


# ---------------------------------------------------------------------------
# Classical (Torgerson) multidimensional scaling.

def mds_embed(w: DivergenceMatrix, m: int) -> Embedding:
    """Embed groups into m dimensions from their pairwise divergences.

    Classical MDS: double-center the squared dissimilarities,
    eigendecompose, and scale the top m eigenvectors by the square
    roots of their eigenvalues. Eigenvalues clamp at zero on the way
    into coordinates but are reported unclamped. Axis signs are fixed
    by making each column's largest-magnitude entry positive.
    """
    values = _require_symmetric(w)
    n = len(w.ids)
    _check_count("target dimension", m, 1, n - 1)
    sq = values ** 2
    centerer = np.eye(n) - np.full((n, n), 1.0 / n)
    b = -0.5 * centerer @ sq @ centerer
    b = (b + b.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(b)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    coords = eigvecs[:, :m] * np.sqrt(np.maximum(eigvals[:m], 0.0))
    for axis in range(m):
        col = coords[:, axis]
        if col[np.argmax(np.abs(col))] < 0:
            coords[:, axis] = -col
    coords = coords - coords.mean(axis=0)
    return Embedding(w.ids, coords, tuple(eigvals))


# ---------------------------------------------------------------------------
# Self-tuning spectral clustering.

def _local_scales(values: np.ndarray) -> np.ndarray:
    # sigma_i = dissimilarity to the 7th-nearest other group, falling
    # back to the farthest one when there are too few groups. Ranked on
    # magnitudes: estimated divergences can dip slightly below zero for
    # near-identical groups, and the kernel only sees w^2 anyway.
    n = values.shape[0]
    neighbor = min(LOCAL_SCALE_NEIGHBOR, n - 1)
    sigma = np.empty(n)
    for i in range(n):
        others = np.sort(np.abs(np.delete(values[i], i)))
        sigma[i] = others[neighbor - 1]
    return sigma


def _affinity(values: np.ndarray) -> np.ndarray:
    sigma = _local_scales(values)
    if (sigma <= 0.0).any():
        raise FlatAffinityError(
            "local scale is zero for some group (too many exactly-zero "
            "dissimilarities); affinity cannot be formed"
        )
    a = np.exp(-(values ** 2) / np.outer(sigma, sigma))
    np.fill_diagonal(a, 0.0)
    if a.max() == 0.0:
        raise FlatAffinityError("affinity matrix is identically zero")
    return a


def _kmeans_pp_init(points: np.ndarray, c: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((c, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for j in range(1, c):
        total = d2.sum()
        if total > 0.0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)
        centers[j] = points[idx]
        d2 = np.minimum(d2, ((points - centers[j]) ** 2).sum(axis=1))
    return centers


def _lloyd(points: np.ndarray, centers: np.ndarray):
    c = centers.shape[0]
    assign = np.full(points.shape[0], -1)
    for _ in range(KMEANS_MAX_ITER):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assign = d2.argmin(axis=1)
        for j in range(c):
            mask = new_assign == j
            if mask.any():
                centers[j] = points[mask].mean(axis=0)
            else:
                # revive an empty cluster with the worst-fit point
                worst = d2[np.arange(len(points)), new_assign].argmax()
                centers[j] = points[worst]
                new_assign[worst] = j
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    inertia = float(d2[np.arange(len(points)), assign].sum())
    return assign, inertia


def _kmeans(points: np.ndarray, c: int, rng: np.random.Generator) -> np.ndarray:
    best_assign, best_inertia = None, np.inf
    for _ in range(KMEANS_RESTARTS):
        assign, inertia = _lloyd(points, _kmeans_pp_init(points, c, rng))
        if inertia < best_inertia:
            best_assign, best_inertia = assign, inertia
    return best_assign


def spectral_cluster(w: DivergenceMatrix, n_clusters: int, seed: int) -> ClusterAssignment:
    """Cluster groups from their divergence matrix.

    Affinities use per-group local scaling (exp(-w_ij^2 / (sigma_i
    sigma_j))), the symmetric normalized Laplacian's top eigenvectors
    are row-normalized, and a seeded k-means (10 restarts, best inertia
    wins) produces the assignment.
    """
    values = _require_symmetric(w)
    n = len(w.ids)
    _check_count("cluster count", n_clusters, 2, n)
    rng = _rng(seed)
    a = _affinity(values)
    degrees = a.sum(axis=1)
    if (degrees <= 0.0).any():
        raise FlatAffinityError("some group has zero affinity to all others")
    inv_sqrt = 1.0 / np.sqrt(degrees)
    laplacian = a * np.outer(inv_sqrt, inv_sqrt)
    laplacian = (laplacian + laplacian.T) / 2.0
    _, eigvecs = np.linalg.eigh(laplacian)
    basis = eigvecs[:, -n_clusters:]
    norms = np.linalg.norm(basis, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    basis = basis / norms
    assign = _kmeans(basis, n_clusters, rng)
    return ClusterAssignment(w.ids, tuple(assign), n_clusters)


# ---------------------------------------------------------------------------
# Metrics.

def max_trace(counts) -> float:
    """Largest trace of a square matrix over column permutations.

    Solved as an assignment problem (Hungarian method on negated
    counts), so it stays polynomial in the matrix side. The solver,
    ``scipy.optimize.linear_sum_assignment``, is imported on the first
    call: only cluster-accuracy scoring needs it, so ``import divknn``
    does not load ``scipy.optimize``.
    """
    from scipy.optimize import linear_sum_assignment

    m = np.asarray(counts, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ContractError(f"confusion matrix must be square, got {m.shape}")
    rows, cols = linear_sum_assignment(-m)
    return float(m[rows, cols].sum())


def _confusion(truth, pred) -> np.ndarray:
    """Square (padded) label-by-cluster count matrix."""
    labels = sorted(set(truth))
    clusters = sorted(set(pred))
    side = max(len(labels), len(clusters))
    counts = np.zeros((side, side))
    label_pos = {v: i for i, v in enumerate(labels)}
    cluster_pos = {v: i for i, v in enumerate(clusters)}
    for t, p in zip(truth, pred):
        counts[label_pos[t], cluster_pos[p]] += 1.0
    return counts


def cluster_trace_accuracy(truth, pred) -> float:
    """Fraction of groups correctly clustered under the best relabeling.

    Builds the label-by-cluster confusion matrix, pads it square, and
    maximizes its trace over column permutations; that trace over the
    group count is the accuracy.
    """
    pred_idx = list(pred.cluster) if isinstance(pred, ClusterAssignment) else list(pred)
    truth = list(truth)
    if len(truth) != len(pred_idx):
        raise ContractError(
            f"{len(truth)} true labels vs {len(pred_idx)} predictions"
        )
    if not truth:
        raise ContractError("empty truth")
    return max_trace(_confusion(truth, pred_idx)) / len(truth)


# ---------------------------------------------------------------------------
# Nearest-neighbor classification over divergences.

def knn_classify(w_test_train: np.ndarray, train_labels, k_vote: int) -> list[str]:
    """Predict a label for each test group by neighbor vote.

    ``w_test_train[i, j]`` is the divergence from test group i to
    training group j. The k_vote nearest training groups vote; vote
    ties resolve to the label with the smallest mean divergence inside
    the neighborhood, then lexicographically. Equal divergences at the
    neighborhood boundary resolve in training order.
    """
    w = np.asarray(w_test_train, dtype=np.float64)
    if w.ndim != 2:
        raise ContractError(f"divergence table must be 2-D, got shape {w.shape}")
    labels = list(train_labels)
    if any(lab is None for lab in labels):
        raise ContractError("every training group needs a label")
    if len(labels) != w.shape[1]:
        raise ContractError(
            f"{len(labels)} training labels vs {w.shape[1]} columns"
        )
    if not (_is_count(k_vote) and 1 <= k_vote <= len(labels)):
        raise ConfigError(f"k_vote must be an integer in [1, {len(labels)}], got {k_vote!r}")
    _require_finite(w)
    out = []
    for row in w:
        nearest = np.argsort(row, kind="stable")[:k_vote]
        votes: dict[str, list[float]] = {}
        for j in nearest:
            votes.setdefault(labels[j], []).append(row[j])
        top = max(len(v) for v in votes.values())
        tied = [lab for lab, v in votes.items() if len(v) == top]
        tied.sort(key=lambda lab: (float(np.mean(votes[lab])), lab))
        out.append(tied[0])
    return out


def cross_validate_classify(w: DivergenceMatrix, labels, k_vote: int,
                            n_folds: int, seed: int) -> tuple[float, list[str]]:
    """k-fold cross-validated neighbor classification on one matrix.

    Groups are shuffled by seed and dealt into n_folds nearly equal
    folds; each fold is predicted from the remaining groups. ``labels``
    is either a sequence aligned with ``w.ids`` or a mapping from group
    id to label. Returns the overall accuracy and the per-group
    predictions in matrix order.
    """
    values = _require_symmetric(w)
    if isinstance(labels, Mapping):
        missing = [gid for gid in w.ids if gid not in labels]
        if missing:
            raise ContractError(f"no label for groups: {', '.join(missing)}")
        labels = [labels[gid] for gid in w.ids]
    else:
        labels = list(labels)
    n = len(w.ids)
    if len(labels) != n:
        raise ContractError(f"{len(labels)} labels vs {n} groups")
    if any(lab is None for lab in labels):
        raise ContractError("every group needs a label")
    _check_count("fold count", n_folds, 2, n)
    rng = _rng(seed)
    order = rng.permutation(n)
    predictions: list[str | None] = [None] * n
    for f in range(n_folds):
        test = order[f::n_folds]
        train = np.setdiff1d(order, test)
        preds = knn_classify(values[np.ix_(test, train)],
                             [labels[j] for j in train],
                             min(k_vote, len(train)))
        for idx, lab in zip(test, preds):
            predictions[idx] = lab
    hits = sum(1 for lab, pred in zip(labels, predictions) if lab == pred)
    return hits / n, predictions  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Group anomaly scoring.

def anomaly_scores(ids, w_test_train: np.ndarray, k_anom: int = 5) -> AnomalyScores:
    """Score test groups by their k_anom-th smallest divergence to training.

    A group far from even its k_anom-th nearest training group has no
    support in the training population: higher score, more anomalous.
    """
    w = np.asarray(w_test_train, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != len(tuple(ids)):
        raise ContractError(f"divergence table shape {w.shape} does not match "
                            f"{len(tuple(ids))} ids")
    if not (_is_count(k_anom) and 1 <= k_anom <= w.shape[1]):
        raise ContractError(
            f"k_anom must be an integer in [1, {w.shape[1]}], got {k_anom!r}"
        )
    _require_finite(w)
    score = np.partition(w, k_anom - 1, axis=1)[:, k_anom - 1]
    return AnomalyScores(tuple(ids), score)


def _average_ranks(vals: np.ndarray) -> np.ndarray:
    """1-based ranks, tied values sharing their mean rank (rankdata's "average").

    Ties are found with ``!=`` on the sorted values, so -0.0 ties 0.0;
    any NaN makes every rank NaN.
    """
    if np.isnan(vals).any():
        return np.full(vals.shape, np.nan)
    order = np.argsort(vals, kind="stable")
    ordered = vals[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(vals)]
    ranks = np.empty(len(vals))
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def auc(scores, truth) -> float:
    """Area under the ROC curve by the rank (Mann-Whitney) identity.

    ``truth`` flags anomalies truthily. Ties in score count half: tied
    scores share their average rank, with -0.0 equal to 0.0, as in
    ``scipy.stats.rankdata``. A NaN score makes the AUC NaN. A truth
    vector with only one class has no ROC curve and raises.
    """
    vals = np.asarray(scores.score if isinstance(scores, AnomalyScores) else scores,
                      dtype=np.float64)
    flags = np.asarray([bool(t) for t in truth])
    if vals.shape != flags.shape:
        raise ContractError(f"{vals.shape[0]} scores vs {flags.shape[0]} flags")
    n_pos = int(flags.sum())
    n_neg = int((~flags).sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedAUCError("need at least one anomalous and one normal group")
    ranks = _average_ranks(vals)
    rank_sum = float(ranks[flags].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
