"""Correctness checks the benchmark applies to every pipeline output.

An operation is one pipeline call or one spot-checked matrix entry. The
ledger counts each as attempted, and as failed when it raised or its
output did not pass its check.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
from scipy.special import gamma

from divknn import knn

SPOT_RTOL = 1e-12


class Ledger:
    """Attempted and failed operation counts, with a note per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return ok


def digest(values: np.ndarray) -> str:
    """sha256 of the full-precision matrix bytes, row-major float64."""
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


def matrix_ok(values: np.ndarray, l2: bool) -> bool:
    """Finite everywhere, and for L2 not all zero (the silent-zero defect)."""
    return bool(np.isfinite(values).all()) and (not l2 or bool(values.any()))


def points_equal(loaded, generated) -> bool:
    """A loaded dataset reproduces the generated one exactly, ids and labels included."""
    return (loaded.ids == generated.ids and loaded.labels == generated.labels
            and all(np.array_equal(a.points, b.points)
                    for a, b in zip(loaded.groups, generated.groups)))


def close(a: float, b: float, rtol: float = SPOT_RTOL) -> bool:
    return math.isfinite(a) and abs(a - b) <= rtol * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# Independent estimator formulas from the paper, on brute-force distances.

class BruteDistances:
    """rho_k and nu_k from knn's brute-force route, with rho_k kept per group."""

    def __init__(self, k: int):
        self.k = k
        self._rho: dict[int, np.ndarray] = {}

    def rho(self, x: np.ndarray) -> np.ndarray:
        if id(x) not in self._rho:
            self._rho[id(x)] = knn.brute_kth_nn_within(x, self.k)
        return self._rho[id(x)]

    def nu(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return knn.brute_kth_nn_cross(x, y, self.k)


def renyi_directed(dist: BruteDistances, x, y, alpha: float) -> float:
    """D_alpha(p||q) = log(B_{k,alpha} mean(((n-1) rho^d / (m nu^d))^(1-alpha))) / (alpha-1)."""
    k = dist.k
    (n, d), m = x.shape, y.shape[0]
    b = gamma(k) ** 2 / (gamma(k - alpha + 1) * gamma(k + alpha - 1))
    ratio = (n - 1) * dist.rho(x) ** d / (m * dist.nu(x, y) ** d)
    return math.log(b * np.mean(ratio ** (1.0 - alpha))) / (alpha - 1.0)


def l2_directed(dist: BruteDistances, x, y) -> float:
    """sqrt(max(0, int p^2 - 2 int pq + int q^2)), each term a k-NN plug-in.

    With u = (n-1) V_d rho^d and v = m V_d nu^d, the plug-ins are
    (k-1)/u, (k-1)/v and (k-1)(k-2)/k * u/v^2, averaged over x.
    """
    k = dist.k
    (n, d), m = x.shape, y.shape[0]
    vol = math.pi ** (d / 2) / gamma(d / 2 + 1)
    u = (n - 1) * vol * dist.rho(x) ** d
    v = m * vol * dist.nu(x, y) ** d
    sq = np.mean((k - 1) / u - 2 * (k - 1) / v + (k - 1) * (k - 2) / k * u / v ** 2)
    return math.sqrt(max(0.0, float(sq)))


def spot_check(ledger: Ledger, values: np.ndarray, rows, cols, cfg, count: int,
               seed: int, what: str) -> None:
    """Recompute ``count`` seeded off-diagonal entries of a symmetrized matrix.

    ``rows`` and ``cols`` are the groups behind the matrix rows and
    columns; an entry is the mean of the two directed estimates.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    dist = BruteDistances(cfg.k)
    cells = [(i, j) for i in range(len(rows)) for j in range(len(cols))
             if rows[i].id != cols[j].id]
    for c in rng.choice(len(cells), size=min(count, len(cells)), replace=False):
        i, j = cells[c]
        x, y = rows[i].points, cols[j].points
        if cfg.kind == "renyi":
            ref = (renyi_directed(dist, x, y, cfg.alpha) + renyi_directed(dist, y, x, cfg.alpha)) / 2
            # D = log(I) / (alpha - 1): a relative error e in the integral
            # estimate I is an absolute error e / |alpha - 1| in D.
            scale = max(abs(ref), 1.0 / abs(cfg.alpha - 1.0))
        else:
            ref = (l2_directed(dist, x, y) + l2_directed(dist, y, x)) / 2
            scale = abs(ref)
        got = float(values[i, j])
        ledger.check(math.isfinite(got) and abs(got - ref) <= SPOT_RTOL * scale,
                     f"{what}[{rows[i].id},{cols[j].id}] = {got!r}, brute-force formula gives {ref!r}")
