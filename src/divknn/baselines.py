"""Parametric comparator: one Gaussian per group, divergences in closed form.

Fitting a single Gaussian to each group and computing divergences
analytically is the natural strawman against the sample-based
estimators; both closed forms below are standard results and are gated
on agreement with the quadrature oracle rather than taken on faith.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import DivergenceMatrix
from .errors import ConfigError, ContractError, InsufficientSampleError
from .estimators import RENYI, _check_alpha, _divergence_table

# Smallest covariance eigenvalue tolerated, relative to mean variance.
RIDGE_FLOOR = 1e-9


@dataclass(frozen=True)
class GaussianFit:
    """Mean vector and symmetric positive-definite covariance, both copied
    and frozen at construction."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=np.float64).reshape(-1)
        cov = np.atleast_2d(np.array(self.covariance, dtype=np.float64))
        d = mean.shape[0]
        if cov.shape != (d, d):
            raise ConfigError(f"covariance shape {cov.shape} does not match dim {d}")
        if not np.isfinite(mean).all() or not np.isfinite(cov).all():
            raise ConfigError("gaussian parameters must be finite")
        if np.abs(cov - cov.T).max() > 1e-12:
            raise ConfigError("covariance must be symmetric within 1e-12")
        if np.linalg.eigvalsh(cov).min() <= 0.0:
            raise ConfigError("covariance must be positive definite")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def fit_gaussian(points) -> GaussianFit:
    """Sample mean and covariance (denominator T-1), ridged if near-singular.

    When the smallest covariance eigenvalue falls below
    RIDGE_FLOOR * trace / d, that floor is added to the diagonal so the
    fit stays usable on collinear or constant-coordinate groups.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] < 1:
        raise ConfigError(f"points must be a 2-D array, got shape {pts.shape}")
    if pts.shape[0] < 2:
        raise InsufficientSampleError(
            f"gaussian fit needs at least 2 points, got {pts.shape[0]}"
        )
    mean = pts.mean(axis=0)
    cov = np.atleast_2d(np.cov(pts, rowvar=False, ddof=1))
    cov = (cov + cov.T) / 2.0
    d = cov.shape[0]
    floor = RIDGE_FLOOR * np.trace(cov) / d
    if floor <= 0.0:
        raise ConfigError("all points identical: covariance is zero")
    if np.linalg.eigvalsh(cov).min() < floor:
        cov = cov + floor * np.eye(d)
    return GaussianFit(mean, cov)


def _logdet_pd(m: np.ndarray, what: str) -> float:
    sign, logdet = np.linalg.slogdet(m)
    if sign <= 0:
        raise ConfigError(f"{what} is not positive definite")
    return float(logdet)


def _solve_pd(m: np.ndarray, v: np.ndarray, what: str) -> np.ndarray:
    from scipy.linalg import cho_factor, cho_solve  # on first use: import divknn skips it
    try:
        factor = cho_factor(m, lower=True)
    except np.linalg.LinAlgError:
        raise ConfigError(f"{what} is not positive definite") from None
    return cho_solve(factor, v)


def gaussian_renyi(p: GaussianFit, q: GaussianFit, alpha: float) -> float:
    """Closed-form Renyi-alpha divergence between two Gaussians.

    Defined when the mixture covariance (1-alpha) Cov_p + alpha Cov_q
    is positive definite (always true for alpha in [0, 1]). alpha must
    be a finite real number other than 1, as for the sample estimator.
    """
    if p.dim != q.dim:
        raise ContractError(f"dimensions differ: {p.dim} vs {q.dim}")
    _check_alpha(alpha)
    cov_mix = (1.0 - alpha) * p.covariance + alpha * q.covariance
    dmu = q.mean - p.mean
    quad = float(dmu @ _solve_pd(cov_mix, dmu, "mixed covariance"))
    logdet_mix = _logdet_pd(cov_mix, "mixed covariance")
    logdet_p = _logdet_pd(p.covariance, "covariance of p")
    logdet_q = _logdet_pd(q.covariance, "covariance of q")
    log_ratio = logdet_mix - (1.0 - alpha) * logdet_p - alpha * logdet_q
    return 0.5 * alpha * quad - log_ratio / (2.0 * (alpha - 1.0))


def _gaussian_density_at(dmu: np.ndarray, cov: np.ndarray, what: str) -> float:
    d = dmu.shape[0]
    quad = float(dmu @ _solve_pd(cov, dmu, what))
    logdet = _logdet_pd(cov, what)
    return math.exp(-0.5 * (d * math.log(2.0 * math.pi) + logdet + quad))


def gaussian_l2(p: GaussianFit, q: GaussianFit) -> float:
    """Closed-form L2 divergence between two Gaussians.

    The three squared-difference integrals are Gaussian product
    integrals: the integral of N_p N_q is the density of N(mu_q - mu_p)
    under covariance Cov_p + Cov_q. The radicand is clamped at 0
    against roundoff on nearly identical fits.
    """
    if p.dim != q.dim:
        raise ContractError(f"dimensions differ: {p.dim} vs {q.dim}")
    zero = np.zeros(p.dim)
    dmu = q.mean - p.mean
    pp = _gaussian_density_at(zero, 2.0 * p.covariance, "doubled covariance of p")
    qq = _gaussian_density_at(zero, 2.0 * q.covariance, "doubled covariance of q")
    pq = _gaussian_density_at(dmu, p.covariance + q.covariance, "covariance sum")
    return math.sqrt(max(0.0, pp + qq - 2.0 * pq))


# ---------------------------------------------------------------------------
# Drop-in pairwise matrices, built like the sample-based ones: a group's
# item is its fit and a pair's value its closed form. Pairing and the
# naming of a failing group or pair are ``_divergence_table``'s.

def baseline_matrix(ds, cfg):
    """Pairwise closed-form divergences between per-group Gaussian fits.

    Output has the same shape, ordering, and symmetrization convention
    as the sample-based divergence_matrix, so downstream tasks cannot
    tell the two apart. The config's k is irrelevant here and the
    matrix carries no config.
    """
    return DivergenceMatrix(ds.ids, baseline_cross_matrix(ds, ds, cfg), None)


def baseline_cross_matrix(ds_from, ds_to, cfg) -> np.ndarray:
    """Closed-form divergences from each group of ds_from to each of ds_to.

    Layout and same-group rule as cross_divergence_matrix: a group of
    ds_to with the id and bitwise-equal points of a group of ds_from is
    fitted once and its cell is exactly 0.
    """
    def value(p, q, _):
        return gaussian_renyi(p, q, cfg.alpha) if cfg.kind == RENYI else gaussian_l2(p, q)

    return _divergence_table(ds_from, ds_to, lambda g, workers, row: fit_gaussian(g.points), value,
                             cfg.symmetrize, 1)
