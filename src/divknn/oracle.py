"""Independent verification machinery for the divergence estimators.

Known 1-D and 2-D densities with quadrature-based true divergences, and
the Erlang-moment identities behind the gamma-ratio correction factors.
Everything here is deliberately implemented through a different route
than the estimators (adaptive quadrature, tensor Gauss-Legendre, raw
exponential sums) so agreement between the two is meaningful evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, stats
from scipy.special import gammaln

from . import knn
from .errors import ConfigError, IntegrationError

# Gaussian integrands are truncated this many standard deviations out;
# the discarded tail mass (~1e-23) is far below every stated tolerance.
GAUSS_TRUNC_SIGMAS = 10.0
# Acceptable escaped probability mass outside the integration region
# before a power-divergence integral is declared infinite.
MASS_LOSS_TOL = 1e-6
_QUAD_OPTS = dict(epsabs=1e-12, epsrel=1e-10, limit=200)
_GL_NODES = 240  # per-axis Gauss-Legendre order for 2-D integrals
# Gauss-Legendre order of the 1-D sine integral: 200 nodes agree with
# 600 to 1e-13 on the seed-0 sine matrix, 100 nodes only to 6e-6.
_SINE_GL_NODES = 200


@dataclass(frozen=True)
class Gaussian1D:
    mean: float = 0.0
    std: float = 1.0

    def __post_init__(self):
        if self.std <= 0:
            raise ConfigError(f"std must be positive, got {self.std}")

    dim = 1
    support = (-math.inf, math.inf)

    @property
    def bounds(self):
        r = GAUSS_TRUNC_SIGMAS * self.std
        return (self.mean - r, self.mean + r)

    def pdf(self, x):
        # plain formula: quadrature calls this once per scalar node, and
        # the stats-module dispatch overhead dominates at that grain
        z = (np.asarray(x, dtype=np.float64) - self.mean) / self.std
        return np.exp(-0.5 * z * z) / (self.std * math.sqrt(2.0 * math.pi))

    def sample(self, rng, size):
        return rng.normal(self.mean, self.std, size)


@dataclass(frozen=True)
class Uniform1D:
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ConfigError(f"need lo < hi, got [{self.lo}, {self.hi}]")

    dim = 1

    @property
    def support(self):
        return (self.lo, self.hi)

    bounds = support

    def pdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        inside = (x >= self.lo) & (x <= self.hi)
        return np.where(inside, 1.0 / (self.hi - self.lo), 0.0)

    def sample(self, rng, size):
        return rng.uniform(self.lo, self.hi, size)


@dataclass(frozen=True)
class Beta1D:
    a: float = 1.0
    b: float = 1.0

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ConfigError(f"beta parameters must be positive, got {self.a}, {self.b}")

    dim = 1
    support = (0.0, 1.0)
    bounds = (0.0, 1.0)

    def pdf(self, x):
        return stats.beta.pdf(x, self.a, self.b)

    def sample(self, rng, size):
        return rng.beta(self.a, self.b, size)


@dataclass(frozen=True)
class Gaussian2D:
    mean: tuple[float, float] = (0.0, 0.0)
    cov: tuple[tuple[float, float], tuple[float, float]] = ((1.0, 0.0), (0.0, 1.0))
    _frozen: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.mean, dtype=np.float64)
        c = np.asarray(self.cov, dtype=np.float64)
        if m.shape != (2,):
            raise ConfigError("mean must be a 2-vector")
        if c.shape != (2, 2) or not np.allclose(c, c.T, atol=1e-12):
            raise ConfigError("cov must be a symmetric 2x2 matrix")
        if np.linalg.eigvalsh(c).min() <= 0:
            raise ConfigError("cov must be positive definite")
        object.__setattr__(self, "mean", tuple(float(v) for v in m))
        object.__setattr__(self, "cov", tuple(tuple(float(v) for v in row) for row in c))
        object.__setattr__(self, "_frozen", stats.multivariate_normal(m, c))

    dim = 2

    @property
    def bounds(self):
        sd = np.sqrt(np.diag(np.asarray(self.cov)))
        lo = np.asarray(self.mean) - GAUSS_TRUNC_SIGMAS * sd
        hi = np.asarray(self.mean) + GAUSS_TRUNC_SIGMAS * sd
        return lo, hi

    def pdf(self, x):
        return self._frozen.pdf(x)

    def sample(self, rng, size):
        return rng.multivariate_normal(np.asarray(self.mean),
                                       np.asarray(self.cov), size)


# ---------------------------------------------------------------------------
# Quadrature plumbing.

def _check_dims(p, q):
    if p.dim != q.dim:
        raise ConfigError(f"density dimensions differ: {p.dim} vs {q.dim}")
    return p.dim


def _quad(f, lo, hi) -> float:
    value, abserr = integrate.quad(f, lo, hi, **_QUAD_OPTS)
    if abserr > max(1e-8 * abs(value), 1e-9):
        raise IntegrationError(
            f"quadrature error estimate {abserr:.2e} too large for value {value:.6e}"
        )
    return value


def _overlap_1d(p, q):
    """Integration interval: support overlap clipped to both truncations."""
    lo = max(p.support[0], q.support[0], p.bounds[0], q.bounds[0])
    hi = min(p.support[1], q.support[1], p.bounds[1], q.bounds[1])
    return lo, hi


def _mass_outside_1d(p, lo, hi) -> float:
    return 1.0 - _quad(p.pdf, max(lo, p.bounds[0]), min(hi, p.bounds[1]))


def _gl_grid(lo, hi):
    """Tensor Gauss-Legendre nodes and weights over a 2-D box."""
    x, wx = np.polynomial.legendre.leggauss(_GL_NODES)
    axes, weights = [], []
    for a, b in zip(lo, hi):
        axes.append(0.5 * (b - a) * x + 0.5 * (a + b))
        weights.append(0.5 * (b - a) * wx)
    xx, yy = np.meshgrid(axes[0], axes[1], indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    w = np.outer(weights[0], weights[1]).ravel()
    return pts, w


def _box_2d(p, q):
    plo, phi = p.bounds
    qlo, qhi = q.bounds
    return np.minimum(plo, qlo), np.maximum(phi, qhi)


def _require_mass(p, q, alpha, loss_p, loss_q):
    # p mass escaping supp(q) makes the alpha > 1 integral infinite
    # (q^(1-alpha) blows up); symmetrically for alpha < 0.
    if alpha > 1.0 and loss_p > MASS_LOSS_TOL:
        raise IntegrationError(
            f"integral diverges to infinity: {loss_p:.3e} of the first "
            f"density's mass lies outside the second's support (alpha={alpha})"
        )
    if alpha < 0.0 and loss_q > MASS_LOSS_TOL:
        raise IntegrationError(
            f"integral diverges to infinity: {loss_q:.3e} of the second "
            f"density's mass lies outside the first's support (alpha={alpha})"
        )


def density_mass(p) -> float:
    """Total probability mass by quadrature; should be 1 (self-check)."""
    if p.dim == 1:
        return _quad(p.pdf, *p.bounds)
    pts, w = _gl_grid(*p.bounds)
    return float(w @ p.pdf(pts))


def true_alpha_integral(p, q, alpha: float) -> float:
    """The integral of p^alpha q^(1-alpha) by quadrature.

    Supports the four known density kinds in matching dimension.
    Disjoint supports give 0 for alpha in (0, 1) and an infinity report
    otherwise; partial support overlap is likewise flagged whenever the
    escaped mass makes the true value infinite.
    """
    d = _check_dims(p, q)
    if alpha == 1.0:
        raise ConfigError("alpha must differ from 1")

    if d == 1:
        lo, hi = _overlap_1d(p, q)
        if lo >= hi:
            _require_mass(p, q, alpha, 1.0, 1.0)
            return 0.0

        def integrand(x):
            fp = p.pdf(x)
            fq = q.pdf(x)
            if fp == 0.0 or fq == 0.0:
                return 0.0
            return math.exp(alpha * math.log(fp) + (1.0 - alpha) * math.log(fq))

        _require_mass(p, q, alpha,
                      _mass_outside_1d(p, lo, hi), _mass_outside_1d(q, lo, hi))
        return _quad(integrand, lo, hi)

    pts, w = _gl_grid(*_box_2d(p, q))
    fp = p.pdf(pts)
    fq = q.pdf(pts)
    vals = np.zeros_like(fp)
    ok = (fp > 0.0) & (fq > 0.0)
    vals[ok] = np.exp(alpha * np.log(fp[ok]) + (1.0 - alpha) * np.log(fq[ok]))
    _require_mass(p, q, alpha, 1.0 - float(w @ fp), 1.0 - float(w @ fq))
    return float(w @ vals)


def true_renyi(p, q, alpha: float) -> float:
    """True Renyi-alpha divergence, log of the power integral over alpha-1."""
    est = true_alpha_integral(p, q, alpha)
    if est == 0.0:
        return math.inf
    return math.log(est) / (alpha - 1.0)


def true_l2_squared(p, q) -> float:
    """The integral of (p - q)^2 by quadrature."""
    d = _check_dims(p, q)
    if d == 1:
        lo = min(p.support[0], q.support[0], p.bounds[0], q.bounds[0])
        hi = max(p.support[1], q.support[1], p.bounds[1], q.bounds[1])
        lo = max(lo, min(p.bounds[0], q.bounds[0]))
        hi = min(hi, max(p.bounds[1], q.bounds[1]))
        # Integrate the pieces separately: (p-q)^2 has a kink wherever a
        # bounded support starts or ends, and quadrature hates kinks.
        cuts = sorted({lo, hi, *np.clip(p.support, lo, hi), *np.clip(q.support, lo, hi)})
        total = 0.0
        for a, b in zip(cuts[:-1], cuts[1:]):
            if b > a:
                total += _quad(lambda x: (p.pdf(x) - q.pdf(x)) ** 2, a, b)
        return total
    pts, w = _gl_grid(*_box_2d(p, q))
    diff = p.pdf(pts) - q.pdf(pts)
    return float(w @ diff ** 2)


def true_l2(p, q) -> float:
    return math.sqrt(max(0.0, true_l2_squared(p, q)))


def sine_renyi_half_matrix(thetas, noise_std: float) -> np.ndarray:
    """Exact Renyi-1/2 divergences between noisy-sine groups of these
    thetas: x ~ U[0, 2 pi], y | x ~ N(sin(theta x), s^2), s = noise_std.

    The y-integral of sqrt(p q) is exp(-(a - b)^2 / (8 s^2)) for curve
    heights a, b, so D = -2 log I with I the mean of that over x: a 1-D
    integral on fixed Gauss-Legendre nodes.
    """
    nodes, weights = np.polynomial.legendre.leggauss(_SINE_GL_NODES)
    heights = np.sin(np.outer(thetas, math.pi * (nodes + 1.0)))
    gap = heights[:, None, :] - heights[None, :, :]
    exact = -2.0 * np.log(np.exp(-gap * gap / (8.0 * noise_std ** 2)) @ (weights / 2.0))
    np.fill_diagonal(exact, 0.0)
    return exact


# ---------------------------------------------------------------------------
# Erlang moments (the distributional identity behind the correction factors).

def erlang_moment(k: int, lam: float, gamma: float) -> float:
    """Analytic gamma-th moment of Erlang(k, rate lam).

    E[u^gamma] = lam^(-gamma) * Gamma(k + gamma) / Gamma(k); finite
    exactly when gamma + k > 0.
    """
    if lam <= 0:
        raise ConfigError(f"rate must be positive, got {lam}")
    if gamma + k <= 0:
        raise ConfigError(f"moment undefined: gamma + k = {gamma + k} <= 0")
    return float(lam ** -gamma * math.exp(gammaln(k + gamma) - gammaln(k)))


def empirical_erlang_moment(k: int, lam: float, gamma: float,
                            n_draws: int, seed: int) -> float:
    """Monte Carlo gamma-th moment from raw sums of k exponentials."""
    if lam <= 0:
        raise ConfigError(f"rate must be positive, got {lam}")
    if gamma + k <= 0:
        raise ConfigError(f"moment undefined: gamma + k = {gamma + k} <= 0")
    rng = np.random.Generator(np.random.Philox(seed))
    u = rng.exponential(scale=1.0 / lam, size=(n_draws, k)).sum(axis=1)
    return float(np.mean(u ** gamma))


def empirical_knn_moment(density, x: float, k: int, gamma: float,
                         n_points: int, n_reps: int, seed: int) -> float:
    """Empirical gamma-th moment of (N-1)*c*rho_k^d at a fixed point.

    Repeatedly draws N-1 fresh sample points from the density, measures
    the distance from x to its k-th nearest, and averages the gamma-th
    power of the rescaled volume statistic. For large N this matches
    erlang_moment(k, density.pdf(x), gamma): the statistic is
    asymptotically Erlang with rate equal to the density at x.
    """
    if density.dim != 1:
        raise ConfigError("the neighbor-moment check is implemented for 1-D densities")
    if k > n_points - 1:
        raise ConfigError(f"k={k} needs n_points > k, got {n_points}")
    rng = np.random.Generator(np.random.Philox(seed))
    c = knn.unit_ball_volume(1)
    total = 0.0
    done = 0
    chunk = max(1, int(2e7) // max(1, n_points))
    while done < n_reps:
        reps = min(chunk, n_reps - done)
        pts = density.sample(rng, (reps, n_points - 1))
        dist = np.abs(pts - x)
        rho = np.partition(dist, k - 1, axis=1)[:, k - 1]
        total += float(np.sum(((n_points - 1) * c * rho) ** gamma))
        done += reps
    return total / n_reps


# ---------------------------------------------------------------------------
# The standard check table behind the CLI verify subcommand.

@dataclass(frozen=True)
class OracleCheck:
    name: str
    passed: bool
    detail: str


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def standard_checks(seed: int = 0) -> list[OracleCheck]:
    """Run the oracle self-check suite; returns one record per check."""
    from . import baselines  # local import: baselines does not import oracle

    checks: list[OracleCheck] = []

    def record(name, passed, detail):
        checks.append(OracleCheck(name, bool(passed), detail))

    densities = [
        ("gauss(0,1)", Gaussian1D(0.0, 1.0)),
        ("gauss(2.5,0.5)", Gaussian1D(2.5, 0.5)),
        ("uniform(0,1)", Uniform1D(0.0, 1.0)),
        ("uniform(-1,3)", Uniform1D(-1.0, 3.0)),
        ("beta(0.7,0.7)", Beta1D(0.7, 0.7)),
        ("beta(3,2)", Beta1D(3.0, 2.0)),
        ("gauss2d(iso)", Gaussian2D()),
        ("gauss2d(corr)", Gaussian2D((0.5, -0.5), ((1.0, 0.4), (0.4, 0.8)))),
    ]
    for name, p in densities:
        mass = density_mass(p)
        record(f"normalization {name}", _close(mass, 1.0, 1e-8),
               f"mass={mass:.10f}")

    for name, p in densities:
        for alpha in (0.2, 0.5, 0.8, 1.5):
            val = true_alpha_integral(p, p, alpha)
            record(f"self power integral {name} alpha={alpha}",
                   _close(val, 1.0, 1e-8), f"value={val:.10f}")

    pairs = [
        ("power integral gauss shift", true_alpha_integral(
            Gaussian1D(0, 1), Gaussian1D(1, 1), 0.5), math.exp(-0.125), 1e-8),
        ("renyi gauss shift", true_renyi(
            Gaussian1D(0, 1), Gaussian1D(1, 1), 0.5), 0.25, 1e-8),
        ("power integral uniform half overlap", true_alpha_integral(
            Uniform1D(0, 1), Uniform1D(0.5, 1.5), 0.5), 0.5, 1e-8),
        ("l2 disjoint uniforms", true_l2(
            Uniform1D(0, 1), Uniform1D(1, 2)), math.sqrt(2.0), 1e-8),
        ("l2 identical betas", true_l2(Beta1D(2, 2), Beta1D(2, 2)), 0.0, 1e-8),
    ]
    for name, got, want, tol in pairs:
        record(name, _close(got, want, tol), f"value={got:.10f} expected={want:.10f}")

    gp = baselines.GaussianFit(np.zeros(1), np.eye(1))
    gq = baselines.GaussianFit(np.ones(1), np.eye(1))
    br = baselines.gaussian_renyi(gp, gq, 0.5)
    bl = baselines.gaussian_l2(gp, gq)
    qr = true_renyi(Gaussian1D(0, 1), Gaussian1D(1, 1), 0.5)
    ql = true_l2(Gaussian1D(0, 1), Gaussian1D(1, 1))
    record("gaussian closed-form renyi vs quadrature", _close(br, qr, 1e-6),
           f"closed={br:.10f} quad={qr:.10f}")
    record("gaussian closed-form l2 vs quadrature", _close(bl, ql, 1e-6),
           f"closed={bl:.10f} quad={ql:.10f}")

    # The 2% gate presumes a CLT-scale error, so the grid keeps only
    # cells with a finite-variance statistic: Var(u^gamma) < inf needs
    # 2*gamma + k > 0. The (k=3, gamma=-2) cell fails that (tail index
    # 3/2) and its raw mean at 1e5 draws misses 2% for most seeds.
    grid = [(k, g) for k in (3, 5, 20) for g in (-2.0, -1.0, -0.5, 0.5)
            if 2 * g + k > 0]
    for i, (k, g) in enumerate(grid):
        ana = erlang_moment(k, 2.0, g)
        emp = empirical_erlang_moment(k, 2.0, g, 100_000, seed + i)
        rel = abs(emp - ana) / abs(ana)
        record(f"erlang moment k={k} gamma={g}", rel <= 0.02,
               f"analytic={ana:.6f} empirical={emp:.6f} rel={rel:.4f}")

    return checks
