"""k-NN estimators of Renyi-alpha and L2 divergences between sample groups.

Given i.i.d. samples X (N x d, from density p) and Y (M x d, from q),
the estimators combine two neighbor-distance statistics per point of X:
rho_k = distance to the k-th nearest other point of X, and nu_k =
distance to the k-th nearest point of Y. Powers of the implied inverse
densities are averaged with gamma-ratio correction factors that make
each term asymptotically unbiased; no density estimate is ever formed.

Every matrix, sample-based or Gaussian baseline, is a view of one
directed table of estimates from row groups to column groups, paired by
``_divergence_table`` alone, whose errors name their group or pair;
symmetrizing averages it with its reverse. A matrix comes back as a
``dataset.DivergenceMatrix``, which lives with the data model. A pair
function's estimate is the one cell of the sample-based table from x,
as group 'x', to y, as group 'y', not symmetrized; the groups view x
and y where they are float64 and C-ordered, and copy them only
otherwise. A group in both
datasets is never paired with itself and its cell is 0. The
sample-based table is filled one column at a time: the column group's
index answers a single nu_k query over the points of all its row
groups, taken from one ``knn.QueryBatch`` built per direction before
any column, and the batch splits nu_k per pair in each group's point
order. How the batch orders the queries (sorted on the line) is knn's
concern alone.

All estimation functions are pure given immutable inputs. The optional
``workers`` argument, -1 (every CPU) or a positive thread count, never
changes any value; ``knn._thread_count`` checks and resolves it. A
build maps its group preparations and its columns over ``workers``
threads on every route (sorted line, kd-tree and brute force); each
query in a thread then runs on one thread. A build with one group a
side, as a pair's, has nothing to spread and passes its neighbor
queries the thread count that ``workers`` stands for.
"""

from __future__ import annotations

import contextvars
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import repeat

import numpy as np
from scipy.special import poch

from . import knn
from .dataset import Dataset, DivergenceMatrix, Group
from .errors import (
    ConfigError,
    ContractError,
    DegenerateDistanceError,
    DivknnError,
    NonFiniteEstimateError,
)
from .knn import _is_count, _thread_count

RENYI = "renyi"
L2 = "l2"


@dataclass(frozen=True)
class EstimatorConfig:
    """Which divergence to estimate and with what neighbor statistics.

    ``alpha`` is only used by the Renyi estimator, which requires it to
    be a finite real number other than 1. ``k`` must be an int or numpy
    integer, and no bool. ``symmetrize``, a bool or numpy bool, makes
    pairwise matrices hold the average of the two directed estimates.
    """

    kind: str = RENYI
    alpha: float = 0.5
    k: int = 20
    symmetrize: bool = True

    def __post_init__(self):
        if self.kind not in (RENYI, L2):
            raise ConfigError(f"unknown estimator kind {self.kind!r}; use 'renyi' or 'l2'")
        if not isinstance(self.symmetrize, (bool, np.bool_)):
            raise ConfigError(f"symmetrize must be a bool, got {self.symmetrize!r}")
        _check_parameters(self.kind, self.k, self.alpha)
        if self.kind == RENYI and not self.k > 2.0 * abs(self.alpha - 1.0):
            raise ConfigError(f"renyi estimator requires k > 2|alpha - 1| "
                              f"(got k={self.k}, alpha={self.alpha})")


def _check_parameters(kind: str, k, alpha) -> None:
    """ConfigError unless k and, for the Renyi kind, alpha suit the
    estimator: k a count (``knn._is_count``; a fractional k would be
    truncated by the neighbor queries but not by the correction factor)
    of at least 1, and of at least 3 for L2, which ignores alpha."""
    if not _is_count(k):
        raise ConfigError(f"k must be a positive integer, got {k!r}")
    if k < 1:
        raise ConfigError(f"k must be a positive integer, got {k}")
    if kind == RENYI:
        _check_alpha(alpha)
    elif k < 3:
        raise ConfigError(f"l2 estimator requires k >= 3, got k={k}")


def _check_alpha(alpha) -> None:
    """ConfigError unless alpha is a finite real number other than 1."""
    if isinstance(alpha, bool) or not isinstance(alpha, numbers.Real) or not math.isfinite(alpha):
        raise ConfigError(
            f"alpha must be a finite real number for the renyi estimator, got {alpha!r}")
    if alpha == 1.0:
        raise ConfigError("alpha must differ from 1 for the renyi estimator")


def correction_factor(k: int, alpha: float) -> float:
    """Gamma-ratio multiplier Gamma(k)^2 / (Gamma(k-alpha+1) Gamma(k+alpha-1)).

    Makes the plug-in power-of-inverse-density average asymptotically
    unbiased. Defined for k > |alpha - 1|; symmetric under
    alpha -> 2 - alpha. Evaluated through rising factorials (log-gamma
    backed, with an exact integer-step path).

    Where ``alpha - 1.0`` rounds (alpha below 0.5, by Sterbenz's lemma),
    the rounded argument would meet the pole of Gamma(k + alpha - 1) near
    k = 1 - alpha, so B is taken as poch(k - 1 + alpha, 1 - alpha) /
    poch(k, 1 - alpha) instead, whose k - 1 + alpha is exact there.
    """
    if not k > abs(alpha - 1.0):
        raise ConfigError(
            f"correction factor requires k > |alpha - 1| (got k={k}, alpha={alpha})"
        )
    if _sum_is_exact(alpha, -1.0):
        return float(1.0 / (poch(k, 1.0 - alpha) * poch(k, alpha - 1.0)))
    return float(poch(k - 1 + alpha, 1.0 - alpha) / poch(k, 1.0 - alpha))


def _sum_is_exact(a: float, b: float) -> bool:
    """True if a + b is exact in float64: Knuth's two-sum error term is 0."""
    s = a + b
    bv = s - a
    return (a - (s - bv)) + (b - bv) == 0.0


def _screen_rho(rho: np.ndarray) -> None:
    if (rho == 0.0).any():
        idx = int(np.flatnonzero(rho == 0.0)[0])
        raise DegenerateDistanceError(
            f"point {idx} has a zero within-sample k-th neighbor distance: "
            "the sample contains duplicate points"
        )


# ---------------------------------------------------------------------------
# Renyi-alpha family.

def _integral_estimate(log_rho, nu, n, m, d, alpha, b) -> float:
    # The mean of ((n-1) rho^d / (m nu^d))^(1-alpha) from log rho_k, times
    # b. The terms are taken in log space, so that rho^d / nu^d never
    # overflows on its own: exp((1 - alpha) (d (log rho - log nu) +
    # log(n-1) - log m)), each step in place in one new array; then the
    # sum and the division of .mean(), n being the number of terms.
    t = np.log(nu)
    np.subtract(log_rho, t, out=t)
    t *= d
    t += math.log(n - 1)
    t -= math.log(m)
    t *= 1.0 - alpha
    est = float(np.add.reduce(np.exp(t, out=t)) / n * b)
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
    transform; it equals 1 when p = q. Takes the k and alpha rules of
    ``EstimatorConfig`` but the looser bound k > |alpha - 1|, and raises
    ConfigError where they fail. Always strictly positive and finite; an
    estimate that is not raises NonFiniteEstimateError.
    """
    return _pair_value(x, y, k, workers, _reductions(RENYI, k, alpha)[0])


def renyi_divergence(x, y, k: int, alpha: float, *, workers: int = 1) -> float:
    """Renyi-alpha divergence estimate, log(alpha_integral) / (alpha - 1).

    May come out slightly negative for samples from the same
    distribution (estimator noise); it is not clamped.
    """
    return _pair_value(x, y, k, workers, _reductions(RENYI, k, alpha)[1])


# ---------------------------------------------------------------------------
# L2 family.

def _l2_mean(rho, nu, n, m, d, k) -> float | None:
    """The mean of the L2 terms, or None if any step overflows, divides
    by zero or makes a NaN, or if u, v or v^2 is subnormal: its value
    would be wrong, not just rounded. A subnormal divisor has lost
    digits, and so has the large term it divides."""
    # Bias-corrected plug-ins for the integrals of p^2, p q, and q^2,
    # assembled from the inverse-density statistics
    #   u = (n-1) c rho^d   (within sample),  v = m c nu^d  (cross sample),
    # each asymptotically Erlang with rate p(x) resp. q(x).
    c = knn.unit_ball_volume(d)
    try:
        with np.errstate(all="raise", under="ignore"):
            u = (n - 1) * c * rho ** d
            v = m * c * nu ** d
            v2 = v ** 2
            # v^2 is below the normal range wherever v is
            if min(u.min(), v2.min()) < np.finfo(np.float64).tiny:
                return None
            terms = (k - 1) / u - 2.0 * (k - 1) / v + u * ((k - 2) * (k - 1) / k) / v2
            return float(terms.mean())
    except FloatingPointError:
        return None


def _l2_squared_estimate(rho, nu, n, m, d, k) -> float:
    est = _l2_mean(rho, nu, n, m, d, k)
    if est is not None:
        return est
    # rho^d, nu^d or a square left float64's normal range, though the
    # estimate may not. Scaling rho and nu by a common 2^e scales every
    # term exactly by 2^(-e d); e puts the median nu at about 1, and ldexp
    # undoes the scale.
    with np.errstate(divide="ignore"):
        center = float(np.median(np.log2(nu)))
    if math.isfinite(center):
        e = -round(center)
        mean = _l2_mean(np.ldexp(rho, e), np.ldexp(nu, e), n, m, d, k)
        if mean is not None:
            try:
                est = math.ldexp(mean, e * d)
            except OverflowError:
                est = math.inf
            if math.isfinite(est) and (est != 0.0 or mean == 0.0):
                return est
    raise NonFiniteEstimateError(
        f"L2 squared estimate is out of float64 range "
        f"(the neighbor distances raised to the power d={d} overflow or underflow "
        f"even when rescaled)"
    )


def l2_squared(x, y, k: int, *, workers: int = 1) -> float:
    """Estimate the squared L2 distance between the densities of x and y.

    The estimate targets the integral of (p - q)^2 and may be negative
    (it is an unbiased-style estimate of a nonnegative quantity); it is
    returned unclamped for diagnostic value. Takes the k rules of
    ``EstimatorConfig`` (a count, at least 3) and raises ConfigError
    where they fail. Neighbor distances raised to the power d that leave
    float64 range are scaled by a power of 2 first, which scales each
    term exactly; an estimate that is still not finite, or underflows to
    0, raises NonFiniteEstimateError.
    """
    return _pair_value(x, y, k, workers, _reductions(L2, k, None)[0])


def l2_divergence(x, y, k: int, *, workers: int = 1) -> float:
    """L2 divergence estimate: sqrt of the squared estimate clamped at 0."""
    return _pair_value(x, y, k, workers, _reductions(L2, k, None)[1])


def _reductions(kind: str, k, alpha):
    """The two per-pair reductions of a kind, each ``reduce(rho, log_rho,
    nu, n, m, d)``: the raw estimate (the Renyi integral or the L2
    square) and the divergence taken from it. The parameters must pass
    ``_check_parameters`` and, for Renyi, ``correction_factor``'s
    k > |alpha - 1|."""
    _check_parameters(kind, k, alpha)
    if kind == RENYI:
        b = correction_factor(k, alpha)

        def raw(rho, log_rho, nu, n, m, d):
            return _integral_estimate(log_rho, nu, n, m, d, alpha, b)
        return raw, lambda *stats: math.log(raw(*stats)) / (alpha - 1.0)

    def raw(rho, log_rho, nu, n, m, d):
        return _l2_squared_estimate(rho, nu, n, m, d, k)
    return raw, lambda *stats: math.sqrt(max(0.0, raw(*stats)))


def symmetrize(a: float, b: float) -> float:
    """Average of the two directed estimates (elementwise for tables)."""
    return (a + b) / 2.0


# ---------------------------------------------------------------------------
# Pairwise matrices.

def _capture(fn, *args, **kwargs):
    """fn(*args, **kwargs), or the DivknnError it raises."""
    try:
        return fn(*args, **kwargs)
    except DivknnError as exc:
        return exc


def _divergence_table(ds_from: Dataset, ds_to: Dataset, prepare, value,
                      symmetric: bool, workers: int, gather=list,
                      column=lambda gathered, skip, col, workers: repeat(None)) -> np.ndarray:
    """Directed divergences from ds_from's groups to ds_to's, symmetrized on request.

    The only code that pairs groups. A route supplies ``prepare(group,
    workers, row)``, a group's item (index and rho_k, or a fit), and
    ``value(row, col, statistic)``, the directed value from a row item to
    a column item; row is False for a group that is only ever a column
    (of ds_to, not ds_from's, in a build that is not symmetric). Each
    direction's row items are gathered once by ``gather(rows)``, before
    any column, and ``column(gathered, skip, col, workers)`` gives the
    statistic of each row item but the one numbered skip (None for none)
    to col, in row order, or a DivknnError in its place; by default every
    statistic is None. ds_from's groups are prepared first. A group of
    ds_to with the id and bitwise-equal points of a group of ds_from is
    that group: prepared once, never paired with itself, its cell 0. The
    reverse table is the transpose when each column is the row at its
    position, and is built otherwise.

    A route's DivknnError keeps its type and gains the names of its
    groups: a preparation's raises as ``group '<id>': ...``. A pair's
    failing statistic or value is kept, and of several the first in
    row-major order raises, the forward table's first, as ``from group
    '<a>' to '<b>': ...``.

    Preparations and columns are mapped over one pool of at most
    ``workers`` threads and no more than the larger dataset has
    groups. Calls in the pool get workers=1, so that threads do not
    multiply inside the neighbor queries; a step with one item, or a
    build on one thread, calls with the thread count that ``workers``
    stands for (``knn._thread_count``), never -1. Results are
    used in input order, and the first exception in that order raises.
    Every call sees the caller's numpy error state.
    """
    workers = _thread_count(workers)
    threads = min(workers, max(len(ds_from.groups), len(ds_to.groups)))
    if ds_from.dim != ds_to.dim:
        raise ContractError(f"dataset dimensions differ: {ds_from.dim} vs {ds_to.dim}")
    with ThreadPoolExecutor(threads) if threads > 1 else nullcontext() as pool:

        def run(fn, *args):
            """fn(*a, w) for each a in zip(*args), in order."""
            if pool is None or len(args[0]) < 2:
                return list(map(fn, *args, repeat(workers)))
            # Each call runs in a copy of the caller's context, which
            # holds numpy's error state (np.errstate).
            context = contextvars.copy_context()
            return list(pool.map(lambda *a: context.copy().run(fn, *a), *args, repeat(1)))

        def prepared(g, w, row=True):
            try:
                return prepare(g, w, row)
            except DivknnError as exc:
                raise type(exc)(f"group '{g.id}': {exc}") from None

        from_items = run(prepared, ds_from.groups)
        shared = {g.id: (g.points.view(np.uint64), it)
                  for g, it in zip(ds_from.groups, from_items)}

        def to_item(g, w):
            bits, item = shared.get(g.id, (None, None))
            if bits is not None and np.array_equal(bits, g.points.view(np.uint64)):
                return item
            return prepared(g, w, symmetric)

        to_items = run(to_item, ds_to.groups)

        def directed(rows, cols, row_ids, col_ids):
            # the row that is each column's own group, paired with nothing;
            # a column with no other row makes no query
            own = [next((i for i, row in enumerate(rows) if row is col), None) for col in cols]
            used = [j for j, skip in enumerate(own) if len(rows) > (skip is not None)]
            gathered = gather(rows)

            def fill(skip, col, w):
                """The value or error of each row but skip to col."""
                paired = (row for i, row in enumerate(rows) if i != skip)
                return [s if isinstance(s, DivknnError) else _capture(value, row, col, s)
                        for row, s in zip(paired, column(gathered, skip, col, w))]

            values = run(fill, [own[j] for j in used], [cols[j] for j in used])
            table = np.zeros((len(rows), len(cols)))
            failures = {}
            for j, column_values in zip(used, values):
                paired = [i for i in range(len(rows)) if i != own[j]]
                for i, v in zip(paired, column_values):
                    if isinstance(v, DivknnError):
                        failures[i, j] = v
                    else:
                        table[i, j] = v
            if failures:
                i, j = min(failures)
                exc = failures[i, j]
                raise type(exc)(f"from group '{row_ids[i]}' to '{col_ids[j]}': {exc}") from None
            return table

        table = directed(from_items, to_items, ds_from.ids, ds_to.ids)
        if not symmetric:
            return table
        square = len(from_items) == len(to_items) and all(
            f is t for f, t in zip(from_items, to_items))
        back = table if square else directed(to_items, from_items, ds_to.ids, ds_from.ids)
        return symmetrize(table, back.T)


def _sample_table(ds_from: Dataset, ds_to: Dataset, k: int, reduce,
                  symmetric: bool, workers: int) -> np.ndarray:
    """The table of sample-based estimates from ds_from's groups to ds_to's.

    A group's item is its index, rho_k and log rho_k, or its index alone
    if it is only ever a column: it may then hold just k points, and
    duplicates that no query meets. Each direction gathers its row
    groups' indexes into one ``knn.QueryBatch``; on d = 1 that sorts all
    their points once. Each column group answers one nu_k query over the
    batch less its own group, and each pair reduces its own slice of
    nu_k, back in its group's point order, to ``reduce(rho, log_rho, nu,
    n, m, d)``. The batch holds at most one sorted copy of the dataset's
    points (on d = 1) per direction. A column's queries and nu_k are a
    copy of at most the whole dataset's points, one column per thread at
    a time; on d = 1 its queries are the thread's knn workspace, which
    the thread keeps for its next column and build.
    """

    def prepare(g, workers, row):
        index = knn.build_index(g.points)
        if not row:
            return index, None, None
        rho = knn.kth_nn_within(index, k, workers=workers)
        _screen_rho(rho)
        return index, rho, np.log(rho)

    def gather(rows):
        return knn.QueryBatch([index for index, _, _ in rows])

    def column(batch, skip, col, workers):
        """nu_k of each row group but skip against col's index, in the
        group's point order.

        The groups query together, from the direction's batch (sorted on
        the line). After any DivknnError every
        group queries again on its own, with its points in their order,
        so that each pair's error is its own and names the point as it
        is numbered in its group.
        """
        try:
            return batch.kth_nn_cross(skip, col[0], k, workers)
        except DivknnError:
            return [_capture(knn.kth_nn_cross, points, col[0], k, workers=workers)
                    for g, points in enumerate(batch.groups) if g != skip]

    def value(row, col, nu):
        (_, rho, log_rho), (index_to, _, _) = row, col
        return reduce(rho, log_rho, nu, rho.shape[0], index_to.size, index_to.dim)

    return _divergence_table(ds_from, ds_to, prepare, value, symmetric, workers,
                             gather, column)


def _pair_value(x, y, k: int, workers, reduce) -> float:
    """The one cell of the sample table from x to y, as one-group datasets
    'x' and 'y' and not symmetrized. The groups view x and y, which the
    call holds no copy of where they are float64 and C-ordered."""
    return float(_sample_table(Dataset((Group._over("x", x),)), Dataset((Group._over("y", y),)),
                               k, reduce, False, workers)[0, 0])


def divergence_matrix(ds: Dataset, cfg: EstimatorConfig, *, workers: int = 1) -> DivergenceMatrix:
    """All pairwise divergences between the groups of a dataset.

    The cross matrix of ds with itself: each group's index and rho_k
    are computed once and the diagonal is zero. Entries are independent
    of each other and of ``workers``, which must be -1 (every CPU) or a
    positive thread count: the groups' preparations and the matrix
    columns are spread over that many threads on every neighbor route,
    never more threads than groups.
    """
    return DivergenceMatrix(ds.ids, cross_divergence_matrix(ds, ds, cfg, workers=workers), cfg)


def cross_divergence_matrix(ds_from: Dataset, ds_to: Dataset,
                            cfg: EstimatorConfig, *, workers: int = 1) -> np.ndarray:
    """Divergences from each group of ds_from to each group of ds_to.

    Returns a len(ds_from) x len(ds_to) array ordered like the two
    datasets. With cfg.symmetrize each entry is the average of the two
    directed estimates. A group of ds_to with the id and bitwise-equal
    points of a group of ds_from is that group: prepared once, its cell
    exactly 0, so cross_divergence_matrix(ds, ds) is the divergence
    matrix of ds. A reused id with other points is another group.
    Without cfg.symmetrize, a group of ds_to that is not ds_from's is
    only a column and is only indexed: it needs k points, not k + 1, and
    its duplicate points fail only where a query meets them. Feeds
    the anomaly-scoring and classification tasks, where rows are query
    groups and columns reference groups. ``workers`` threads the build
    as in divergence_matrix.
    """
    return _sample_table(ds_from, ds_to, cfg.k, _reductions(cfg.kind, cfg.k, cfg.alpha)[1],
                         cfg.symmetrize, workers)
