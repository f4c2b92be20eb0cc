"""k-NN estimators of Renyi-alpha and L2 divergences between sample groups.

Given i.i.d. samples X (N x d, from density p) and Y (M x d, from q),
the estimators combine two neighbor-distance statistics per point of X:
rho_k = distance to the k-th nearest other point of X, and nu_k =
distance to the k-th nearest point of Y. Powers of the implied inverse
densities are averaged with gamma-ratio correction factors that make
each term asymptotically unbiased; no density estimate is ever formed.

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


def _validated_pair(x, y):
    xa = knn._as_points(x, "x")
    ya = knn._as_points(y, "y")
    if xa.shape[1] != ya.shape[1]:
        raise ContractError(f"sample dimensions differ: {xa.shape[1]} vs {ya.shape[1]}")
    return xa, ya


def _pair_distances(x: np.ndarray, y: np.ndarray, k: int, workers: int):
    """(rho_k, nu_k) for a sample pair, screened for zero within-distances."""
    index_x = knn.build_index(x)
    index_y = knn.build_index(y)
    rho = knn.kth_nn_within(index_x, k, workers=workers)
    _screen_rho(rho)
    nu = knn.kth_nn_cross(x, index_y, k, workers=workers)
    return rho, nu


def _screen_rho(rho: np.ndarray) -> None:
    if (rho == 0.0).any():
        idx = int(np.flatnonzero(rho == 0.0)[0])
        raise DegenerateDistanceError(
            f"point {idx} has a zero within-sample k-th neighbor distance: "
            "the sample contains duplicate points"
        )


def _check_pair_sizes(n: int, m: int, k: int) -> None:
    if k > n - 1:
        raise InsufficientSampleError(
            f"estimator with k={k} needs at least {k + 1} points in x, got {n}"
        )
    if k > m:
        raise InsufficientSampleError(
            f"estimator with k={k} needs at least {k} points in y, got {m}"
        )


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
    xa, ya = _validated_pair(x, y)
    n, m = xa.shape[0], ya.shape[0]
    _check_pair_sizes(n, m, k)
    rho, nu = _pair_distances(xa, ya, k, workers)
    return _integral_estimate(rho, nu, n, m, xa.shape[1], alpha, b)


def renyi_divergence(x, y, k: int, alpha: float, *, workers: int = 1) -> float:
    """Renyi-alpha divergence estimate, log(alpha_integral) / (alpha - 1).

    May come out slightly negative for samples from the same
    distribution (estimator noise); it is not clamped.
    """
    est = alpha_integral(x, y, k, alpha, workers=workers)
    return math.log(est) / (alpha - 1.0)


# ---------------------------------------------------------------------------
# L2 family.

def _l2_terms(rho, nu, n, m, d, k, cross_volume: bool = True):
    # Bias-corrected plug-ins for the integrals of p^2, p q, and q^2,
    # assembled from the inverse-density statistics
    #   u = (n-1) c rho^d   (within sample),  v = m c nu^d  (cross sample),
    # each asymptotically Erlang with rate p(x) resp. q(x).
    c = knn.unit_ball_volume(d)
    u = (n - 1) * c * rho ** d
    v = m * (c if cross_volume else 1.0) * nu ** d
    return (k - 1) / u - 2.0 * (k - 1) / v + u * ((k - 2) * (k - 1) / k) / v ** 2


def _l2_squared_estimate(rho, nu, n, m, d, k, cross_volume: bool = True) -> float:
    est = float(_l2_terms(rho, nu, n, m, d, k, cross_volume).mean())
    if not math.isfinite(est):
        raise NonFiniteEstimateError(
            f"L2 squared estimate is {est!r} "
            f"(the neighbor distances raised to the power d={d} leave float64 range)"
        )
    return est


def _check_l2_k(k: int) -> None:
    if k < 3:
        raise ConfigError(f"l2 estimator requires k >= 3 (k - 2 > 0), got k={k}")


def l2_squared(x, y, k: int, *, workers: int = 1) -> float:
    """Estimate the squared L2 distance between the densities of x and y.

    The estimate targets the integral of (p - q)^2 and may be negative
    (it is an unbiased-style estimate of a nonnegative quantity); it is
    returned unclamped for diagnostic value. Requires k >= 3. An estimate
    that is not finite raises NonFiniteEstimateError.
    """
    _check_l2_k(k)
    xa, ya = _validated_pair(x, y)
    n, m = xa.shape[0], ya.shape[0]
    _check_pair_sizes(n, m, k)
    rho, nu = _pair_distances(xa, ya, k, workers)
    return _l2_squared_estimate(rho, nu, n, m, xa.shape[1], k)


def _l2_squared_unnormalized_cross(x, y, k: int, *, workers: int = 1) -> float:
    """Variant of l2_squared that omits the unit-ball volume from the
    cross-sample terms. Dimensionally inconsistent (its value depends
    on the volume constant in d > 0); kept only as a negative control
    for the volume-normalization tests. Do not use for estimation.
    """
    _check_l2_k(k)
    xa, ya = _validated_pair(x, y)
    n, m = xa.shape[0], ya.shape[0]
    _check_pair_sizes(n, m, k)
    rho, nu = _pair_distances(xa, ya, k, workers)
    return _l2_squared_estimate(rho, nu, n, m, xa.shape[1], k, cross_volume=False)


def l2_divergence(x, y, k: int, *, workers: int = 1) -> float:
    """L2 divergence estimate: sqrt of the squared estimate clamped at 0."""
    return math.sqrt(max(0.0, l2_squared(x, y, k, workers=workers)))


def symmetrize(a: float, b: float) -> float:
    """Average of the two directed estimates."""
    return (a + b) / 2.0


# ---------------------------------------------------------------------------
# Pairwise matrices.

def _directed_value(rho, nu, n, m, d, cfg: EstimatorConfig, b: float, ids) -> float:
    try:
        if cfg.kind == RENYI:
            return math.log(_integral_estimate(rho, nu, n, m, d, cfg.alpha, b)) / (cfg.alpha - 1.0)
        return math.sqrt(max(0.0, _l2_squared_estimate(rho, nu, n, m, d, cfg.k)))
    except NonFiniteEstimateError as exc:
        raise NonFiniteEstimateError(f"from group '{ids[0]}' to '{ids[1]}': {exc}") from None


def _group_indices_and_rho(groups, k: int, workers: int):
    indices = []
    rhos = []
    for g in groups:
        if g.points.shape[0] < k + 1:
            raise InsufficientSampleError(
                f"group '{g.id}' has {g.points.shape[0]} points; k={k} needs "
                f"at least {k + 1}"
            )
        idx = knn.build_index(g.points)
        rho = knn.kth_nn_within(idx, k, workers=workers)
        try:
            _screen_rho(rho)
        except DegenerateDistanceError as exc:
            raise DegenerateDistanceError(f"group '{g.id}': {exc}") from None
        indices.append(idx)
        rhos.append(rho)
    return indices, rhos


def _cross_nu(g_from, index_to, id_to: str, k: int, workers: int) -> np.ndarray:
    try:
        return knn.kth_nn_cross(g_from.points, index_to, k, workers=workers)
    except DegenerateDistanceError as exc:
        raise DegenerateDistanceError(
            f"between groups '{g_from.id}' and '{id_to}': {exc}"
        ) from None


def divergence_matrix(ds: "Dataset", cfg: EstimatorConfig, *, workers: int = 1) -> DivergenceMatrix:
    """All pairwise divergences between the groups of a dataset.

    Each group's within-sample distances are computed once and reused
    across every pairing. With cfg.symmetrize the two directed values
    are averaged into both cells; the diagonal is zero. Entries are
    independent of each other and of ``workers``.
    """
    groups = ds.groups
    count = len(groups)
    b = correction_factor(cfg.k, cfg.alpha) if cfg.kind == RENYI else math.nan
    indices, rhos = _group_indices_and_rho(groups, cfg.k, workers)
    d = ds.dim
    directed = np.zeros((count, count))
    for i in range(count):
        n = groups[i].points.shape[0]
        for j in range(count):
            if i == j:
                continue
            nu = _cross_nu(groups[i], indices[j], groups[j].id, cfg.k, workers)
            directed[i, j] = _directed_value(
                rhos[i], nu, n, indices[j].size, d, cfg, b, (groups[i].id, groups[j].id)
            )
    values = (directed + directed.T) / 2.0 if cfg.symmetrize else directed
    return DivergenceMatrix(tuple(g.id for g in groups), values, cfg)


def cross_divergence_matrix(ds_from: "Dataset", ds_to: "Dataset",
                            cfg: EstimatorConfig, *, workers: int = 1) -> np.ndarray:
    """Divergences from each group of ds_from to each group of ds_to.

    Returns a len(ds_from) x len(ds_to) array ordered like the two
    datasets. With cfg.symmetrize each entry is the average of the two
    directed estimates. Feeds the anomaly-scoring and classification
    tasks, where rows are query groups and columns reference groups.
    """
    if ds_from.dim != ds_to.dim:
        raise ContractError(
            f"dataset dimensions differ: {ds_from.dim} vs {ds_to.dim}"
        )
    b = correction_factor(cfg.k, cfg.alpha) if cfg.kind == RENYI else math.nan
    d = ds_from.dim
    to_indices, to_rhos = _group_indices_and_rho(ds_to.groups, cfg.k, workers)
    from_indices, from_rhos = _group_indices_and_rho(ds_from.groups, cfg.k, workers)
    out = np.zeros((len(ds_from.groups), len(ds_to.groups)))
    for i, gi in enumerate(ds_from.groups):
        n = gi.points.shape[0]
        for j, gj in enumerate(ds_to.groups):
            nu = _cross_nu(gi, to_indices[j], gj.id, cfg.k, workers)
            value = _directed_value(
                from_rhos[i], nu, n, to_indices[j].size, d, cfg, b, (gi.id, gj.id)
            )
            if cfg.symmetrize:
                nu_back = _cross_nu(gj, from_indices[i], gi.id, cfg.k, workers)
                back = _directed_value(
                    to_rhos[j], nu_back, gj.points.shape[0], from_indices[i].size, d, cfg, b,
                    (gj.id, gi.id),
                )
                value = symmetrize(value, back)
            out[i, j] = value
    return out
