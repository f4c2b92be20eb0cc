"""Distribution-space ML on divergence matrices: MDS, clustering,
classification, anomaly scores, and their metrics."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divknn import tasks
from divknn.dataset import DivergenceMatrix
from divknn.errors import (
    ConfigError,
    ContractError,
    FlatAffinityError,
    UndefinedAUCError,
)


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def _matrix(values, ids=None):
    values = np.asarray(values, dtype=float)
    ids = tuple(ids) if ids else tuple(f"g{i}" for i in range(values.shape[0]))
    return DivergenceMatrix(ids, values, None)


def _euclidean(points):
    pts = np.asarray(points, dtype=float)
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=-1))


# ---------------------------------------------------------------------------
# Classical MDS.

def test_mds_recovers_line_configuration():
    # 1, 2, 4 spacing on a line: distances are exactly embeddable in 1-D
    pts = np.array([[0.0], [1.0], [3.0], [7.0]])
    emb = tasks.mds_embed(_matrix(_euclidean(pts)), 1)
    got = _euclidean(emb.coords)
    assert np.allclose(got, _euclidean(pts), atol=1e-9)


def test_mds_recovers_planar_configuration():
    pts = _rng(0).normal(size=(12, 2))
    emb = tasks.mds_embed(_matrix(_euclidean(pts)), 2)
    assert np.allclose(_euclidean(emb.coords), _euclidean(pts), atol=1e-8)
    # coordinates centered, axes sign-fixed
    assert np.allclose(emb.coords.mean(axis=0), 0.0, atol=1e-8)
    for axis in range(2):
        col = emb.coords[:, axis]
        assert col[np.argmax(np.abs(col))] > 0


def test_mds_eigenvalues_sorted_and_reported():
    pts = _rng(1).normal(size=(8, 3))
    emb = tasks.mds_embed(_matrix(_euclidean(pts)), 2)
    ev = np.array(emb.eigenvalues)
    assert len(ev) == 8
    assert np.all(np.diff(ev) <= 1e-9)
    # a 3-D configuration has exactly 3 meaningfully positive eigenvalues
    assert ev[2] > 1e-6 and abs(ev[3]) < 1e-6


def test_mds_clamps_non_euclidean_negatives():
    # violates the triangle inequality, so double centering produces a
    # negative eigenvalue; coords must stay real and finite
    vals = np.array([
        [0.0, 1.0, 1.0, 2.9],
        [1.0, 0.0, 1.0, 1.0],
        [1.0, 1.0, 0.0, 1.0],
        [2.9, 1.0, 1.0, 0.0],
    ])
    emb = tasks.mds_embed(_matrix(vals), 3)
    assert np.isfinite(emb.coords).all()
    assert min(emb.eigenvalues) < 0.0


def test_mds_is_deterministic():
    vals = _euclidean(_rng(2).normal(size=(9, 2)))
    a = tasks.mds_embed(_matrix(vals), 2)
    b = tasks.mds_embed(_matrix(vals.copy()), 2)
    assert np.array_equal(a.coords, b.coords)


def test_value_types_copy_the_callers_array():
    # the caller's array stays writable, and writing to it leaves the
    # embedding or the scores as they were
    coords, score = np.array([[1.0], [-1.0]]), np.array([0.5, 2.0])
    made = [tasks.Embedding(("a", "b"), coords, (2.0,)),
            tasks.AnomalyScores(("a", "b"), score)]
    assert coords.flags.writeable and score.flags.writeable
    coords[0, 0], score[0] = 7.0, 7.0
    assert made[0].coords.tolist() == [[1.0], [-1.0]]
    assert made[1].score.tolist() == [0.5, 2.0]
    for values in (made[0].coords, made[1].score):
        with pytest.raises(ValueError):
            values[0] = 3.0


def test_mds_validation():
    w = _matrix(_euclidean(_rng(3).normal(size=(5, 2))))
    with pytest.raises(ConfigError):
        tasks.mds_embed(w, 0)
    with pytest.raises(ConfigError):
        tasks.mds_embed(w, 5)
    bad = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ContractError):
        tasks.mds_embed(_matrix(bad), 1)


# ---------------------------------------------------------------------------
# Spectral clustering.

def _block_matrix(sizes, near, far, jitter_seed=None):
    n = sum(sizes)
    vals = np.full((n, n), far)
    start = 0
    for s in sizes:
        vals[start:start + s, start:start + s] = near
        start += s
    np.fill_diagonal(vals, 0.0)
    if jitter_seed is not None:
        noise = _rng(jitter_seed).uniform(0, near * 0.1, size=(n, n))
        noise = (noise + noise.T) / 2.0
        np.fill_diagonal(noise, 0.0)
        vals = vals + noise
    return _matrix(vals)


def test_spectral_cluster_separates_blocks():
    w = _block_matrix([10, 10], near=0.1, far=2.0, jitter_seed=4)
    for seed in range(3):
        asn = tasks.spectral_cluster(w, 2, seed=seed)
        first = np.array(asn.cluster[:10])
        second = np.array(asn.cluster[10:])
        assert (first == first[0]).all()
        assert (second == second[0]).all()
        assert first[0] != second[0]
        assert asn.n_clusters == 2


def test_spectral_cluster_three_blocks():
    w = _block_matrix([8, 8, 8], near=0.05, far=1.5, jitter_seed=5)
    asn = tasks.spectral_cluster(w, 3, seed=0)
    truth = ["a"] * 8 + ["b"] * 8 + ["c"] * 8
    assert tasks.cluster_trace_accuracy(truth, asn) == 1.0


def test_spectral_cluster_is_seeded_deterministic():
    w = _block_matrix([6, 6], near=0.2, far=1.0, jitter_seed=6)
    a = tasks.spectral_cluster(w, 2, seed=11)
    b = tasks.spectral_cluster(w, 2, seed=11)
    assert a.cluster == b.cluster


def test_spectral_cluster_flat_matrix_raises():
    vals = np.zeros((9, 9))
    with pytest.raises(FlatAffinityError):
        tasks.spectral_cluster(_matrix(vals), 2, seed=0)


def test_lloyd_revives_an_empty_cluster_with_the_worst_fit_point():
    # no point is nearest to the third center, so it takes the point that
    # fits its own cluster worst, (0, 0.1) at the first pass
    points = np.array([[0.0, 0.0], [0.0, 0.1], [10.0, 10.0], [10.0, 10.1]])
    centers = np.array([[0.0, 0.0], [10.0, 10.0], [100.0, 100.0]])
    assign, inertia = tasks._lloyd(points, centers)
    assert assign.tolist() == [0, 2, 1, 1]
    assert inertia == pytest.approx(0.005)


def test_kmeans_on_identical_points_seeds_and_revives_uniformly():
    # every squared distance is 0, so k-means++ draws each center
    # uniformly; every center is the same point, all points go to
    # cluster 0, and the empty clusters 1 and 2 each revive point 0
    points = np.ones((5, 2))
    for seed in range(3):
        got = tasks._kmeans(points, 3, _rng(seed))
        assert got.tolist() == [2, 0, 0, 0, 0]


def test_spectral_cluster_validation():
    w = _block_matrix([4, 4], near=0.1, far=1.0)
    with pytest.raises(ConfigError):
        tasks.spectral_cluster(w, 1, seed=0)
    with pytest.raises(ConfigError):
        tasks.spectral_cluster(w, 9, seed=0)


def test_local_scales_are_magnitude_based():
    # slightly negative estimates must not zero out the kernel scale
    vals = np.full((9, 9), 0.5)
    vals[0, 1] = vals[1, 0] = -0.01
    np.fill_diagonal(vals, 0.0)
    sigma = tasks._local_scales(vals)
    assert (sigma > 0).all()


# ---------------------------------------------------------------------------
# Trace maximization and its accuracy metric.

def test_max_trace_hand_case():
    counts = np.array([[5.0, 0.0], [1.0, 4.0]])
    assert tasks.max_trace(counts) == 9.0
    swapped = counts[:, ::-1]
    assert tasks.max_trace(swapped) == 9.0


def test_max_trace_matches_brute_force(brute_force_max_trace):
    rng = _rng(7)
    for _ in range(100):
        side = int(rng.integers(1, 7))
        m = rng.uniform(0.0, 30.0, size=(side, side))
        assert tasks.max_trace(m) == pytest.approx(
            brute_force_max_trace(m), rel=1e-12)


def test_max_trace_requires_square():
    with pytest.raises(ContractError):
        tasks.max_trace(np.ones((2, 3)))


def test_brute_force_max_trace_enumerates(brute_force_max_trace):
    m = np.array([[1.0, 9.0], [9.0, 1.0]])
    best = max(m[0, p[0]] + m[1, p[1]] for p in itertools.permutations([0, 1]))
    assert brute_force_max_trace(m) == best == 18.0


def test_trace_accuracy_hand_cases():
    truth = ["a", "a", "b", "b"]
    assert tasks.cluster_trace_accuracy(truth, [0, 0, 1, 1]) == 1.0
    assert tasks.cluster_trace_accuracy(truth, [1, 1, 0, 0]) == 1.0
    assert tasks.cluster_trace_accuracy(truth, [0, 1, 0, 1]) == 0.5
    # more clusters than labels: confusion is padded square
    assert tasks.cluster_trace_accuracy(truth, [0, 1, 2, 2]) == 0.75


def test_trace_accuracy_validation():
    with pytest.raises(ContractError):
        tasks.cluster_trace_accuracy(["a"], [0, 1])
    with pytest.raises(ContractError):
        tasks.cluster_trace_accuracy([], [])


# ---------------------------------------------------------------------------
# Neighbor-vote classification.

def test_knn_classify_hand_votes():
    w = np.array([
        [0.1, 0.2, 5.0, 6.0],   # near the two "a" trainers
        [5.0, 6.0, 0.1, 0.2],   # near the two "b" trainers
    ])
    got = tasks.knn_classify(w, ["a", "a", "b", "b"], k_vote=3)
    assert got == ["a", "b"]


def test_knn_classify_tie_breaks_on_mean_divergence():
    # 2-vote tie between labels; "b" has the smaller mean divergence
    w = np.array([[0.4, 0.5, 0.1, 0.2, 9.0]])
    got = tasks.knn_classify(w, ["a", "a", "b", "b", "c"], k_vote=4)
    assert got == ["b"]


def test_knn_classify_tie_breaks_lexicographically_last():
    w = np.array([[0.3, 0.3]])
    assert tasks.knn_classify(w, ["z", "q"], k_vote=2) == ["q"]


def test_knn_classify_monotone_transform_invariance():
    # rank-based vote: squaring a nonnegative matrix changes nothing
    w = _rng(8).uniform(0.1, 3.0, size=(6, 9))
    labels = list("aabbccabc")
    base = tasks.knn_classify(w, labels, k_vote=5)
    assert tasks.knn_classify(w ** 2, labels, k_vote=5) == base
    assert tasks.knn_classify(10.0 * w, labels, k_vote=5) == base


def test_knn_classify_validation():
    w = np.ones((2, 3))
    with pytest.raises(ContractError):
        tasks.knn_classify(w, ["a", "b"], 1)
    with pytest.raises(ConfigError):
        tasks.knn_classify(w, ["a", "b", "c"], 4)
    with pytest.raises(ContractError):
        tasks.knn_classify(w, ["a", None, "c"], 1)


def test_cross_validation_perfect_blocks():
    w = _block_matrix([6, 6], near=0.1, far=3.0, jitter_seed=9)
    labels = ["a"] * 6 + ["b"] * 6
    acc, preds = tasks.cross_validate_classify(w, labels, k_vote=3,
                                               n_folds=4, seed=0)
    assert acc == 1.0
    assert preds == labels


def test_cross_validation_accepts_mapping():
    w = _block_matrix([6, 6], near=0.1, far=3.0, jitter_seed=9)
    mapping = {gid: ("a" if i < 6 else "b") for i, gid in enumerate(w.ids)}
    acc, _ = tasks.cross_validate_classify(w, mapping, k_vote=3,
                                           n_folds=4, seed=0)
    assert acc == 1.0
    with pytest.raises(ContractError):
        tasks.cross_validate_classify(w, {"g0": "a"}, k_vote=3,
                                      n_folds=4, seed=0)


def test_cross_validation_deterministic_per_seed():
    w = _block_matrix([5, 5], near=0.3, far=1.0, jitter_seed=10)
    labels = ["a"] * 5 + ["b"] * 5
    a = tasks.cross_validate_classify(w, labels, 3, 5, seed=1)
    b = tasks.cross_validate_classify(w, labels, 3, 5, seed=1)
    assert a == b


def test_cross_validation_fold_bounds():
    w = _block_matrix([3, 3], near=0.1, far=1.0)
    labels = ["a", "a", "a", "b", "b", "b"]
    with pytest.raises(ConfigError):
        tasks.cross_validate_classify(w, labels, 1, 1, seed=0)
    with pytest.raises(ConfigError):
        tasks.cross_validate_classify(w, labels, 1, 7, seed=0)


# ---------------------------------------------------------------------------
# Anomaly scores and AUC.

def test_anomaly_scores_kth_smallest():
    w = np.array([
        [3.0, 1.0, 2.0],
        [0.5, 0.6, 0.7],
    ])
    got = tasks.anomaly_scores(["t0", "t1"], w, k_anom=2)
    assert got.ids == ("t0", "t1")
    assert got.score.tolist() == [2.0, 0.6]


def test_anomaly_scores_bounds():
    w = np.ones((2, 3))
    with pytest.raises(ContractError):
        tasks.anomaly_scores(["a", "b"], w, k_anom=4)
    with pytest.raises(ContractError):
        tasks.anomaly_scores(["a"], w, k_anom=1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_tasks_reject_a_non_finite_table_entry(bad):
    # a NaN or infinite divergence is not ranked around: it raises, as a
    # DivergenceMatrix with one does
    w = np.array([[bad, 0.2, 0.4], [0.1, 0.3, 0.5]])
    with pytest.raises(ContractError, match="non-finite"):
        tasks.anomaly_scores(["a", "b"], w, 1)
    with pytest.raises(ContractError, match="non-finite"):
        tasks.knn_classify(w, ["a", "b", "b"], 1)


@pytest.mark.parametrize("k", [1.5, 2.0, True, False, np.True_, "2", None])
def test_tasks_reject_a_count_that_is_no_integer(k):
    # a fractional or bool neighbor count raises each function's range
    # error, not numpy's TypeError, and not what a bool means as an int
    w = np.array([[0.3, 0.2, 0.4], [0.1, 0.3, 0.5]])
    with pytest.raises(ContractError, match="k_anom must be an integer in"):
        tasks.anomaly_scores(["a", "b"], w, k)
    with pytest.raises(ConfigError, match="k_vote must be an integer in"):
        tasks.knn_classify(w, ["a", "b", "b"], k)


def test_tasks_take_numpy_integer_counts():
    w = np.array([[0.3, 0.2, 0.4], [0.1, 0.3, 0.5]])
    assert tasks.anomaly_scores(["a", "b"], w, np.int64(2)).score.tolist() == [0.3, 0.3]
    assert tasks.knn_classify(w, ["a", "b", "b"], np.int32(1)) == ["b", "a"]


@pytest.mark.parametrize("count", [2.5, 3.0, np.float64(2.0), True, False, "2", None])
def test_task_counts_must_be_integers(count):
    # a fractional count raised a bare TypeError and a bool ran as 0 or 1
    w = _block_matrix([3, 3], near=0.1, far=1.0, jitter_seed=2)
    labels = ["a"] * 3 + ["b"] * 3
    calls = [("target dimension", "[1, 5]", lambda: tasks.mds_embed(w, count)),
             ("cluster count", "[2, 6]", lambda: tasks.spectral_cluster(w, count, 0)),
             ("fold count", "[2, 6]",
              lambda: tasks.cross_validate_classify(w, labels, 1, count, 0))]
    for what, bounds, call in calls:
        with pytest.raises(ConfigError) as info:
            call()
        assert str(info.value) == f"{what} must be an integer in {bounds}, got {count!r}"


@pytest.mark.parametrize("seed", [0.5, 1.0, True, False, -1, "0", None])
def test_task_seeds_must_be_nonnegative_integers(seed):
    w = _block_matrix([3, 3], near=0.1, far=1.0, jitter_seed=2)
    for call in (lambda: tasks.spectral_cluster(w, 2, seed),
                 lambda: tasks.cross_validate_classify(w, ["a"] * 3 + ["b"] * 3, 1, 2, seed)):
        with pytest.raises(ConfigError) as info:
            call()
        assert str(info.value) == f"seed must be a nonnegative integer, got {seed!r}"


def test_out_of_range_task_counts_keep_their_messages():
    w = _block_matrix([3, 3], near=0.1, far=1.0, jitter_seed=2)
    with pytest.raises(ConfigError, match=r"^target dimension must lie in \[1, 5\], got 6$"):
        tasks.mds_embed(w, 6)
    with pytest.raises(ConfigError, match=r"^cluster count must lie in \[2, 6\], got 1$"):
        tasks.spectral_cluster(w, np.int64(1), 0)
    with pytest.raises(ConfigError, match=r"^fold count must lie in \[2, 6\], got 7$"):
        tasks.cross_validate_classify(w, ["a"] * 6, 1, 7, 0)


def test_numpy_integer_task_counts_and_seeds_keep_their_bits():
    w = _block_matrix([4, 4], near=0.2, far=1.0, jitter_seed=3)
    labels = ["a"] * 4 + ["b"] * 4
    emb = tasks.mds_embed(w, 2)
    assert np.array_equal(tasks.mds_embed(w, np.int8(2)).coords, emb.coords)
    want = tasks.spectral_cluster(w, 2, 5)
    assert tasks.spectral_cluster(w, np.int32(2), np.uint64(5)) == want
    want = tasks.cross_validate_classify(w, labels, 1, 3, 7)
    assert tasks.cross_validate_classify(w, labels, 1, np.int64(3), np.int16(7)) == want


def test_auc_hand_cases():
    assert tasks.auc([0.1, 0.2, 0.9, 0.8], [0, 0, 1, 1]) == 1.0
    assert tasks.auc([0.9, 0.8, 0.1, 0.2], [0, 0, 1, 1]) == 0.0
    assert tasks.auc([0.5, 0.5], [0, 1]) == 0.5
    assert tasks.auc([0.1, 0.5, 0.9], [0, 1, 0]) == 0.5
    assert tasks.auc([0.0, -0.0], [0, 1]) == 0.5  # -0.0 ties 0.0
    assert tasks.auc([-math.inf, 2.0, 2.0, math.inf], [0, 1, 0, 1]) == 0.875
    assert math.isnan(tasks.auc([0.1, math.nan, 0.9], [0, 1, 0]))


def test_auc_single_class_undefined():
    with pytest.raises(UndefinedAUCError):
        tasks.auc([0.1, 0.2], [1, 1])
    with pytest.raises(UndefinedAUCError):
        tasks.auc([0.1, 0.2], [0, 0])


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 25),
)
def test_auc_equals_pairwise_win_probability(seed, n):
    rng = _rng(seed)
    scores = rng.integers(0, 6, size=n).astype(float)  # integer ties likely
    flags = rng.integers(0, 2, size=n).astype(bool)
    if flags.all() or not flags.any():
        flags[0] = not flags[0]
    pos = scores[flags]
    neg = scores[~flags]
    wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
    want = wins / (len(pos) * len(neg))
    assert tasks.auc(scores, flags) == pytest.approx(want, rel=1e-12)


def test_auc_accepts_score_container():
    scores = tasks.anomaly_scores(["a", "b"], np.array([[1.0], [2.0]]), 1)
    assert tasks.auc(scores, [0, 1]) == 1.0


_TIE_HEAVY_SCORES = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, 5e-324, math.inf, -math.inf]) | st.floats(-3.0, 3.0)


@settings(max_examples=300, deadline=None)
@given(
    scores=st.lists(_TIE_HEAVY_SCORES, min_size=2, max_size=30),
    flag_bits=st.integers(0, 2**30 - 1),
    nan_at=st.none() | st.integers(0, 29),
)
def test_auc_matches_the_rankdata_mann_whitney_value(scores, flag_bits, nan_at):
    # tasks.auc ranks with its own numpy helper; the value must be the
    # Mann-Whitney identity over scipy's average ranks, bit for bit:
    # -0.0 ties 0.0, and a NaN score makes the AUC NaN
    from scipy.stats import rankdata

    vals = np.array(scores, dtype=float)
    if nan_at is not None and nan_at < len(vals) and nan_at % 3 == 0:
        vals[nan_at] = math.nan
    flags = np.array([(flag_bits >> i) & 1 for i in range(len(vals))], dtype=bool)
    flags[0], flags[1] = True, False
    n_pos, n_neg = int(flags.sum()), int((~flags).sum())
    want = (float(rankdata(vals)[flags].sum()) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    got = tasks.auc(vals, flags)
    assert got == want or (math.isnan(got) and math.isnan(want))
