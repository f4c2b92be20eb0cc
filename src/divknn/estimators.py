"""k-NN estimators of Renyi-alpha and L2 divergences between sample groups.

Given i.i.d. samples X (N x d, from density p) and Y (M x d, from q),
the estimators combine two neighbor-distance statistics per point of X:
rho_k = distance to the k-th nearest other point of X, and nu_k =
distance to the k-th nearest point of Y. Powers of the implied inverse
densities are averaged with gamma-ratio correction factors that make
each term asymptotically unbiased; no density estimate is ever formed.

Every matrix is a view of one directed table of estimates from row
groups to column groups; symmetrizing averages it with its reverse.

All estimation functions are pure given immutable inputs. The optional
``workers`` argument only parallelizes the neighbor queries and never
changes any value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.special import poch

from . import knn
from .errors import (
    ConfigError,
    ContractError,
    DegenerateDistanceError,
    InsufficientSampleError,
    NonFiniteEstimateError,
)

if TYPE_CHECKING:  # pragma: no cover
    from .dataset import Dataset


RENYI = "renyi"
L2 = "l2"


@dataclass(frozen=True)
class EstimatorConfig:
    """Which divergence to estimate and with what neighbor statistics.

    ``alpha`` is only used by the Renyi estimator. ``symmetrize`` makes
    pairwise matrices hold the average of the two directed estimates.
    """

    kind: str = RENYI
    alpha: float = 0.5
    k: int = 20
    symmetrize: bool = True

    def __post_init__(self):
        if self.kind not in (RENYI, L2):
            raise ConfigError(f"unknown estimator kind {self.kind!r}; use 'renyi' or 'l2'")
        if self.k < 1:
            raise ConfigError(f"k must be a positive integer, got {self.k}")
        if self.kind == RENYI:
            if self.alpha == 1.0:
                raise ConfigError("alpha must differ from 1 for the renyi estimator")
            if not self.k > 2.0 * abs(self.alpha - 1.0):
                raise ConfigError(
                    f"renyi estimator requires k > 2|alpha - 1| "
                    f"(got k={self.k}, alpha={self.alpha})"
                )
        elif self.k < 3:
            raise ConfigError(f"l2 estimator requires k >= 3, got k={self.k}")


@dataclass(frozen=True)
class DivergenceMatrix:
    """Pairwise divergences between the groups of a dataset.

    ``values[i, j]`` is the estimated divergence from group ``ids[i]``
    to group ``ids[j]``; the diagonal is exactly zero by convention.
    ``config`` records how the entries were produced (None for matrices
    read back from disk).
    """

    ids: tuple[str, ...]
    values: np.ndarray
    config: EstimatorConfig | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        n = len(self.ids)
        if vals.shape != (n, n):
            raise ContractError(f"matrix shape {vals.shape} does not match {n} ids")
        if not np.isfinite(vals).all():
            raise ContractError("divergence matrix contains non-finite entries")
        if (np.diag(vals) != 0.0).any():
            raise ContractError("divergence matrix diagonal must be exactly zero")
        if self.config is not None and self.config.symmetrize:
            if not np.array_equal(vals, vals.T):
                raise ContractError("symmetrized matrix must equal its transpose exactly")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "ids", tuple(self.ids))

    @property
    def size(self) -> int:
        return len(self.ids)

    def is_symmetric(self) -> bool:
        return bool(np.array_equal(self.values, self.values.T))


def correction_factor(k: int, alpha: float) -> float:
    """Gamma-ratio multiplier Gamma(k)^2 / (Gamma(k-alpha+1) Gamma(k+alpha-1)).

    Makes the plug-in power-of-inverse-density average asymptotically
    unbiased. Defined for k > |alpha - 1|; symmetric under
    alpha -> 2 - alpha. Evaluated through rising factorials (log-gamma
    backed, with an exact integer-step path).
    """
    if not k > abs(alpha - 1.0):
        raise ConfigError(
            f"correction factor requires k > |alpha - 1| (got k={k}, alpha={alpha})"
        )
    return float(1.0 / (poch(k, 1.0 - alpha) * poch(k, alpha - 1.0)))


def _screen_rho(rho: np.ndarray) -> None:
    if (rho == 0.0).any():
        idx = int(np.flatnonzero(rho == 0.0)[0])
        raise DegenerateDistanceError(
            f"point {idx} has a zero within-sample k-th neighbor distance: "
            "the sample contains duplicate points"
        )


def _pair_statistics(x, y, k: int, workers: int):
    """(rho_k, nu_k, n, m, d) for samples x (n x d) and y (m x d), validated.

    rho_k is screened for zero within-sample distances.
    """
    xa = knn._as_points(x, "x")
    ya = knn._as_points(y, "y")
    if xa.shape[1] != ya.shape[1]:
        raise ContractError(f"sample dimensions differ: {xa.shape[1]} vs {ya.shape[1]}")
    (n, d), m = xa.shape, ya.shape[0]
    if k > n - 1:
        raise InsufficientSampleError(
            f"estimator with k={k} needs at least {k + 1} points in x, got {n}"
        )
    if k > m:
        raise InsufficientSampleError(
            f"estimator with k={k} needs at least {k} points in y, got {m}"
        )
    index_x = knn.build_index(xa)
    index_y = knn.build_index(ya)
    rho = knn.kth_nn_within(index_x, k, workers=workers)
    _screen_rho(rho)
    nu = knn.kth_nn_cross(xa, index_y, k, workers=workers)
    return rho, nu, n, m, d


# ---------------------------------------------------------------------------
# Renyi-alpha family.

def _alpha_terms(rho, nu, n, m, d, alpha):
    # ((n-1) rho^d / (m nu^d))^(1-alpha), evaluated in log space so that
    # rho^d / nu^d never overflows on its own.
    oma = 1.0 - alpha
    log_ratio = d * (np.log(rho) - np.log(nu)) + math.log(n - 1) - math.log(m)
    return np.exp(oma * log_ratio)


def _integral_estimate(rho, nu, n, m, d, alpha, b) -> float:
    est = float(_alpha_terms(rho, nu, n, m, d, alpha).mean() * b)
    # A zero, infinite or NaN integral has no finite log.
    if not 0.0 < est < math.inf:
        raise NonFiniteEstimateError(
            f"Renyi integral estimate is {est!r}, so the divergence is not finite "
            f"(the neighbor-distance ratios raised to the power d={d} leave float64 range)"
        )
    return est


def alpha_integral(x, y, k: int, alpha: float, *, workers: int = 1) -> float:
    """Estimate the integral of p^alpha q^(1-alpha) from samples x ~ p, y ~ q.

    This is the quantity inside the Renyi divergence before the log
    transform; it equals 1 when p = q. Requires alpha != 1 and
    k > |alpha - 1|. Always strictly positive and finite; an estimate
    that is not raises NonFiniteEstimateError.
    """
    if alpha == 1.0:
        raise ConfigError("alpha must differ from 1")
    b = correction_factor(k, alpha)  # validates k > |alpha - 1|
    rho, nu, n, m, d = _pair_statistics(x, y, k, workers)
    return _integral_estimate(rho, nu, n, m, d, alpha, b)


def renyi_divergence(x, y, k: int, alpha: float, *, workers: int = 1) -> float:
    """Renyi-alpha divergence estimate, log(alpha_integral) / (alpha - 1).

    May come out slightly negative for samples from the same
    distribution (estimator noise); it is not clamped.
    """
    est = alpha_integral(x, y, k, alpha, workers=workers)
    return math.log(est) / (alpha - 1.0)


# ---------------------------------------------------------------------------
# L2 family.

def _l2_terms(rho, nu, n, m, d, k):
    # Bias-corrected plug-ins for the integrals of p^2, p q, and q^2,
    # assembled from the inverse-density statistics
    #   u = (n-1) c rho^d   (within sample),  v = m c nu^d  (cross sample),
    # each asymptotically Erlang with rate p(x) resp. q(x).
    c = knn.unit_ball_volume(d)
    u = (n - 1) * c * rho ** d
    v = m * c * nu ** d
    return (k - 1) / u - 2.0 * (k - 1) / v + u * ((k - 2) * (k - 1) / k) / v ** 2


def _l2_squared_estimate(rho, nu, n, m, d, k) -> float:
    est = float(_l2_terms(rho, nu, n, m, d, k).mean())
    if not math.isfinite(est):
        raise NonFiniteEstimateError(
            f"L2 squared estimate is {est!r} "
            f"(the neighbor distances raised to the power d={d} leave float64 range)"
        )
    return est


def l2_squared(x, y, k: int, *, workers: int = 1) -> float:
    """Estimate the squared L2 distance between the densities of x and y.

    The estimate targets the integral of (p - q)^2 and may be negative
    (it is an unbiased-style estimate of a nonnegative quantity); it is
    returned unclamped for diagnostic value. Requires k >= 3. An estimate
    that is not finite raises NonFiniteEstimateError.
    """
    if k < 3:
        raise ConfigError(f"l2 estimator requires k >= 3 (k - 2 > 0), got k={k}")
    rho, nu, n, m, d = _pair_statistics(x, y, k, workers)
    return _l2_squared_estimate(rho, nu, n, m, d, k)


def l2_divergence(x, y, k: int, *, workers: int = 1) -> float:
    """L2 divergence estimate: sqrt of the squared estimate clamped at 0."""
    return math.sqrt(max(0.0, l2_squared(x, y, k, workers=workers)))


def symmetrize(a: float, b: float) -> float:
    """Average of the two directed estimates (elementwise for tables)."""
    return (a + b) / 2.0


# ---------------------------------------------------------------------------
# Pairwise matrices.

def _divergence_table(rows, cols, directed, symmetric: bool, *, square: bool = False) -> np.ndarray:
    """The rows x cols table of directed(row, col), symmetrized on request.

    A square table (rows and cols are the same items) leaves its diagonal
    zero and is its own reverse; a cross table builds the cols x rows
    reverse table to average with.
    """
    table = np.zeros((len(rows), len(cols)))
    for i, row in enumerate(rows):
        for j, col in enumerate(cols):
            if not (square and i == j):
                table[i, j] = directed(row, col)
    if not symmetric:
        return table
    other = table if square else _divergence_table(cols, rows, directed, False)
    return symmetrize(table, other.T)


def _check_same_dim(ds_from: "Dataset", ds_to: "Dataset") -> None:
    if ds_from.dim != ds_to.dim:
        raise ContractError(f"dataset dimensions differ: {ds_from.dim} vs {ds_to.dim}")


def _sample_table(ds_from: "Dataset", ds_to: "Dataset", cfg: EstimatorConfig,
                  workers: int, *, square: bool = False) -> np.ndarray:
    """The table of sample-based divergences from ds_from's groups to ds_to's.

    Each group gets its index and rho_k once, ds_to's groups first; a
    square table reuses them for its rows. Each entry is the nu_k query
    from the row group to the column group, reduced as cfg asks.
    """
    k = cfg.k
    b = correction_factor(k, cfg.alpha) if cfg.kind == RENYI else math.nan

    def prepare(g):
        if g.points.shape[0] < k + 1:
            raise InsufficientSampleError(
                f"group '{g.id}' has {g.points.shape[0]} points; k={k} needs "
                f"at least {k + 1}"
            )
        index = knn.build_index(g.points)
        rho = knn.kth_nn_within(index, k, workers=workers)
        try:
            _screen_rho(rho)
        except DegenerateDistanceError as exc:
            raise DegenerateDistanceError(f"group '{g.id}': {exc}") from None
        return g, index, rho

    def directed(row, col) -> float:
        (g_from, _, rho), (g_to, index_to, _) = row, col
        try:
            nu = knn.kth_nn_cross(g_from.points, index_to, k, workers=workers)
        except DegenerateDistanceError as exc:
            raise DegenerateDistanceError(
                f"between groups '{g_from.id}' and '{g_to.id}': {exc}"
            ) from None
        n, m, d = rho.shape[0], index_to.size, index_to.dim
        try:
            if cfg.kind == RENYI:
                return math.log(_integral_estimate(rho, nu, n, m, d, cfg.alpha, b)) / (cfg.alpha - 1.0)
            return math.sqrt(max(0.0, _l2_squared_estimate(rho, nu, n, m, d, k)))
        except NonFiniteEstimateError as exc:
            raise NonFiniteEstimateError(
                f"from group '{g_from.id}' to '{g_to.id}': {exc}"
            ) from None

    to_items = [prepare(g) for g in ds_to.groups]
    from_items = to_items if square else [prepare(g) for g in ds_from.groups]
    return _divergence_table(from_items, to_items, directed, cfg.symmetrize, square=square)


def divergence_matrix(ds: "Dataset", cfg: EstimatorConfig, *, workers: int = 1) -> DivergenceMatrix:
    """All pairwise divergences between the groups of a dataset.

    Each group's within-sample distances are computed once and reused
    across every pairing. With cfg.symmetrize the two directed values
    are averaged into both cells; the diagonal is zero. Entries are
    independent of each other and of ``workers``.
    """
    return DivergenceMatrix(ds.ids, _sample_table(ds, ds, cfg, workers, square=True), cfg)


def cross_divergence_matrix(ds_from: "Dataset", ds_to: "Dataset",
                            cfg: EstimatorConfig, *, workers: int = 1) -> np.ndarray:
    """Divergences from each group of ds_from to each group of ds_to.

    Returns a len(ds_from) x len(ds_to) array ordered like the two
    datasets. With cfg.symmetrize each entry is the average of the two
    directed estimates. Feeds the anomaly-scoring and classification
    tasks, where rows are query groups and columns reference groups.
    """
    _check_same_dim(ds_from, ds_to)
    return _sample_table(ds_from, ds_to, cfg, workers)
