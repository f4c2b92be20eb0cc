"""Acceptance suite: one test per shipping criterion, printed one line each.

Every expected number is either derived by hand in a comment, frozen
from the quadrature/Monte-Carlo oracles in divknn.oracle, or checked
against an independent arbitrary-precision route inside the test. Run
with -s to see the per-criterion summary lines; they also appear in
failure reports.
"""

import functools
import itertools
import math
import time

import numpy as np
import pytest
from scipy.spatial.distance import pdist
from scipy.stats import spearmanr

from divknn import baselines, cli, dataset, estimators, knn, oracle, synth, tasks
from divknn.errors import ConfigError

# Oracle values for N(0,1) vs N(1,1), alpha = 1/2:
#   power integral exp(-1/8), divergence 1/4 by hand;
#   L2 distance frozen from quadrature, equals sqrt((1-e^-0.25)/sqrt(pi)).
RENYI_1D = 0.25
L2_1D = 0.3532680201773632

# 2-D pair N(0, I) vs N((1,0), I): squared L2 distance from quadrature,
# equals (1 - e^-0.25) / (2 pi) by completing the square.
L2SQ_2D = 0.035204948782242465

RENYI_CFG = estimators.EstimatorConfig("renyi", 0.5, 20, True)


def _report(tag: str, detail: str) -> None:
    print(f"[{tag}] {detail}")


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def _shifted_pair_1d(seed, n):
    rng = _rng(seed)
    x = rng.normal(0.0, 1.0, size=(n, 1))
    y = rng.normal(1.0, 1.0, size=(n, 1))
    return x, y


def _shifted_pair_2d(seed, n, shift=(1.0, 0.0)):
    rng = _rng(seed)
    x = rng.normal(0.0, 1.0, size=(n, 2))
    y = rng.normal(0.0, 1.0, size=(n, 2)) + np.asarray(shift)
    return x, y


# ---------------------------------------------------------------------------
# 1. Correction factor against an independent 40-digit route.

def test_c01_correction_factor_grid():
    import mpmath as mp

    mp.mp.dps = 40
    t0 = time.time()
    worst = 0.0
    for k in range(1, 51):
        for alpha in (-0.5, 0.0, 0.2, 0.5, 0.8, 1.5):
            if k <= abs(alpha - 1.0):
                # outside the estimator's domain: must refuse, the
                # gamma expression itself would be negative here
                with pytest.raises(ConfigError):
                    estimators.correction_factor(k, alpha)
                continue
            want = mp.exp(2 * mp.loggamma(k) - mp.loggamma(k - alpha + 1)
                          - mp.loggamma(k + alpha - 1))
            got = estimators.correction_factor(k, alpha)
            worst = max(worst, abs(got - float(want)) / float(want))
    exact = estimators.correction_factor(5, 0.0)
    elapsed = time.time() - t0
    _report("C01", f"worst rel err {worst:.2e} (tol 1e-12), "
                   f"B(5,0)={exact!r}, {elapsed:.2f}s")
    assert worst <= 1e-12
    # Gamma(5)^2/(Gamma(6)Gamma(4)) reduces to 4/5 exactly
    assert exact == 0.8
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2./3. Estimator consistency on the shifted Gaussian pair.

def _consistency_curve(estimate, n_sizes=(500, 2000, 8000), n_seeds=20):
    med_abs = []
    for n in n_sizes:
        errs = [abs(estimate(*_shifted_pair_1d(s, n))) for s in range(n_seeds)]
        med_abs.append(float(np.median(errs)))
    return med_abs


def test_c02_renyi_consistency():
    t0 = time.time()
    vals = [estimators.renyi_divergence(*_shifted_pair_1d(s, 5000), 20, 0.5)
            for s in range(20)]
    med = float(np.median(vals))
    curve = _consistency_curve(
        lambda x, y: estimators.renyi_divergence(x, y, 20, 0.5) - RENYI_1D)
    elapsed = time.time() - t0
    _report("C02", f"median R-hat {med:.4f} (oracle {RENYI_1D}, tol 10%), "
                   f"median abs err by N: {[round(v, 4) for v in curve]}, "
                   f"{elapsed:.1f}s")
    assert abs(med - RENYI_1D) <= 0.10 * RENYI_1D
    assert curve[0] >= curve[1] >= curve[2]
    assert elapsed < 30.0


def test_c03_l2_consistency():
    t0 = time.time()
    vals = [estimators.l2_divergence(*_shifted_pair_1d(s, 5000), 20)
            for s in range(20)]
    med = float(np.median(vals))
    curve = _consistency_curve(
        lambda x, y: estimators.l2_divergence(x, y, 20) - L2_1D)
    elapsed = time.time() - t0
    _report("C03", f"median L-hat {med:.4f} (oracle {L2_1D:.5f}, tol 15%), "
                   f"median abs err by N: {[round(v, 4) for v in curve]}, "
                   f"{elapsed:.1f}s")
    assert abs(med - L2_1D) <= 0.15 * L2_1D
    assert curve[0] >= curve[1] >= curve[2]
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 4. Dimensional-consistency gate for the squared-L2 estimator.

def _l2_squared_unnormalized_cross(x, y, k):
    """l2_squared with the unit-ball volume left out of the cross-sample
    terms. Dimensionally inconsistent (its value depends on the volume
    constant in d > 0): the negative control for C04, not an estimator.
    """
    (n, d), m = x.shape, y.shape[0]
    rho = knn.kth_nn_within(knn.build_index(x), k)
    nu = knn.kth_nn_cross(x, knn.build_index(y), k)
    u = (n - 1) * knn.unit_ball_volume(d) * rho ** d
    v = m * nu ** d
    return float(((k - 1) / u - 2.0 * (k - 1) / v + u * ((k - 2) * (k - 1) / k) / v ** 2).mean())


def test_c04_l2_cross_term_volume_gate():
    corrected, printed = [], []
    for s in range(20):
        x, y = _shifted_pair_2d(s, 5000)
        corrected.append(estimators.l2_squared(x, y, 20))
        printed.append(_l2_squared_unnormalized_cross(x, y, 20))
    med_c = float(np.median(corrected))
    med_p = float(np.median(printed))
    err_c = abs(med_c - L2SQ_2D) / L2SQ_2D
    err_p = abs(med_p - L2SQ_2D) / L2SQ_2D
    _report("C04", f"corrected median {med_c:.5f} ({err_c:.1%} off oracle "
                   f"{L2SQ_2D:.5f}), volume-free cross terms {med_p:.5f} "
                   f"({err_p:.0%} off): gate separates them")
    assert err_c <= 0.15
    # the variant without the unit-ball volume in its cross terms is
    # dimensionally wrong and must fail the same gate decisively
    assert err_p > 0.15


# ---------------------------------------------------------------------------
# 5. Self-divergence near zero.

def test_c05_self_divergence():
    r_vals, l_vals = [], []
    for s in range(20):
        rng = _rng(s)
        x = rng.normal(size=(5000, 2))
        y = rng.normal(size=(5000, 2))
        r_vals.append(abs(estimators.renyi_divergence(x, y, 20, 0.5)))
        l_vals.append(estimators.l2_divergence(x, y, 20))
    med_r = float(np.median(r_vals))
    med_l = float(np.median(l_vals))
    _report("C05", f"median |R-hat| {med_r:.4f} (tol 0.05), "
                   f"median L-hat {med_l:.4f} (tol 0.1)")
    assert med_r <= 0.05
    assert med_l <= 0.10


# ---------------------------------------------------------------------------
# 6. Gaussian closed forms against quadrature.

def test_c06_gaussian_closed_forms_vs_quadrature():
    t0 = time.time()
    rng = _rng(42)
    worst = 0.0
    for i in range(50):
        if i % 2 == 0:
            mp_, mq = rng.uniform(-1, 1, 2)
            vp, vq = rng.uniform(0.3, 2.0, 2)
            p = oracle.Gaussian1D(mp_, math.sqrt(vp))
            q = oracle.Gaussian1D(mq, math.sqrt(vq))
            fp = baselines.GaussianFit(np.array([mp_]), np.array([[vp]]))
            fq = baselines.GaussianFit(np.array([mq]), np.array([[vq]]))
        else:
            mup = rng.uniform(-1, 1, 2)
            muq = rng.uniform(-1, 1, 2)
            ap = rng.uniform(-0.5, 0.5)
            aq = rng.uniform(-0.5, 0.5)
            cp = np.array([[1.0, ap], [ap, 1.0]]) * rng.uniform(0.5, 1.5)
            cq = np.array([[1.0, aq], [aq, 1.0]]) * rng.uniform(0.5, 1.5)
            p = oracle.Gaussian2D(tuple(mup), tuple(map(tuple, cp)))
            q = oracle.Gaussian2D(tuple(muq), tuple(map(tuple, cq)))
            fp = baselines.GaussianFit(mup, cp)
            fq = baselines.GaussianFit(muq, cq)
        alpha = rng.uniform(0.1, 0.9)
        worst = max(
            worst,
            abs(baselines.gaussian_renyi(fp, fq, alpha)
                - oracle.true_renyi(p, q, alpha)),
            abs(baselines.gaussian_l2(fp, fq) - oracle.true_l2(p, q)),
        )
    elapsed = time.time() - t0
    _report("C06", f"worst abs diff {worst:.2e} over 50 pairs "
                   f"(tol 1e-6), {elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 7. Parameter-grid embedding against the exact-divergence embedding.

def test_c07_gaussian_grid_embedding():
    t0 = time.time()
    ds, _, params = synth.gen_param_grid("ggrid", seed=0)
    w_est = estimators.divergence_matrix(ds, RENYI_CFG, workers=-1)

    # exact divergences of the generating Gaussians; the closed form is
    # quadrature-verified by criterion 6, so it can stand in for the
    # integral here (4950 pairs)
    fits = {gid: baselines.GaussianFit(np.array([params[gid][0]]),
                                       np.array([[params[gid][1] ** 2]]))
            for gid in ds.ids}
    n = len(ds.ids)
    exact = np.zeros((n, n))
    for i, gi in enumerate(ds.ids):
        for j in range(i + 1, n):
            val = baselines.gaussian_renyi(fits[gi], fits[ds.ids[j]], 0.5)
            exact[i, j] = exact[j, i] = val
    w_true = estimators.DivergenceMatrix(ds.ids, exact, None)

    # both matrices carry the same non-Euclidean geometry, so compare
    # like with like: distances within the 2-D embedding of each
    emb_est = tasks.mds_embed(w_est, 2)
    emb_true = tasks.mds_embed(w_true, 2)
    rho = spearmanr(pdist(emb_est.coords), pdist(emb_true.coords))[0]
    elapsed = time.time() - t0
    _report("C07", f"embedded-distance spearman {rho:.4f} vs exact-divergence "
                   f"embedding (tol 0.9), {elapsed:.0f}s")
    assert rho >= 0.9
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# 8. Sine-frequency ordering where the exact divergences carry it.

# Exact sine divergences still rise with the frequency gap below this
# (0.94 at a gap of 0.3 from theta = 2) and stay at 1.3-1.4 from a
# gap of 0.5 on, so C08 gates frequency order on closer pairs.
SINE_LOCAL_GAP = 0.3


class _SineDensity:
    """One noisy-sine group as a 2-D density divknn.oracle can integrate.

    x ~ U[0, 2 pi] and y | x ~ N(sin(theta x), sigma^2), as drawn by
    synth.gen_noisy_sine; y is truncated where the oracle truncates
    Gaussians.
    """

    dim = 2

    def __init__(self, theta):
        self.theta = theta

    @property
    def bounds(self):
        r = oracle.GAUSS_TRUNC_SIGMAS * synth.SINE_NOISE_STD
        return np.array([0.0, -1.0 - r]), np.array([2.0 * math.pi, 1.0 + r])

    def pdf(self, pts):
        pts = np.asarray(pts, dtype=np.float64)
        z = (pts[:, 1] - np.sin(self.theta * pts[:, 0])) / synth.SINE_NOISE_STD
        norm = synth.SINE_NOISE_STD * math.sqrt(2.0 * math.pi) * 2.0 * math.pi
        return np.exp(-0.5 * z * z) / norm


def _sine_order_stats(w_est, thetas):
    """C08's statistics for an estimated matrix, thetas in its id order.

    Returns the Spearman of estimate against frequency gap over pairs
    closer than SINE_LOCAL_GAP, the Spearman of embedded distances
    between the estimated and exact 2-D MDS embeddings, and the
    first-axis |Spearman| against theta of each embedding.
    """
    exact = oracle.sine_renyi_half_matrix(thetas, synth.SINE_NOISE_STD)
    w_true = estimators.DivergenceMatrix(w_est.ids, exact, None)
    upper = np.triu_indices(len(thetas), 1)
    gap = np.abs(thetas[:, None] - thetas[None, :])[upper]
    near = gap < SINE_LOCAL_GAP
    local = spearmanr(w_est.values[upper][near], gap[near])[0]
    emb_est = tasks.mds_embed(w_est, 2)
    emb_true = tasks.mds_embed(w_true, 2)
    agree = spearmanr(pdist(emb_est.coords), pdist(emb_true.coords))[0]
    axis_est, axis_true = (abs(spearmanr(e.coords[:, 0], thetas)[0])
                           for e in (emb_est, emb_true))
    return local, agree, axis_est, axis_true


def test_c08_sine_frequency_ordering():
    """Estimated divergences order the sine groups by frequency.

    The exact divergence saturates with the frequency gap: from
    theta = 2 it is 0.047, 0.18, 0.56 and 0.94 at gaps 0.05, 0.1, 0.2
    and 0.3, and 1.3-1.4 from 0.5 on. With theta over [2, 4] most
    pairs are saturated, so the exact matrix is near a simplex: its
    MDS eigenvalues are 18.9, 16.6 and 11.0 and its two axes order
    theta at only |rho| 0.26 and 0.67. No single axis can order this
    family at 0.85, whatever the estimator, so the gates are set
    where the truth carries the order: the rank of each estimate
    against the frequency gap on pairs closer than SINE_LOCAL_GAP, and
    the agreement of the estimated embedding with the exact one, as
    in C07. Seed 0 measures 0.993 and 0.994. The last assertion keeps
    the premise honest: if the family stops saturating, the exact
    first axis orders theta and the single-axis gate can return.
    """
    t0 = time.time()
    worst = 0.0
    for pair in ((2.0, 2.1), (3.0, 3.2), (2.5, 3.9)):
        want = oracle.true_renyi(_SineDensity(pair[0]), _SineDensity(pair[1]),
                                 0.5)
        got = oracle.sine_renyi_half_matrix(np.array(pair), synth.SINE_NOISE_STD)[0, 1]
        worst = max(worst, abs(got - want) / want)

    ds, _, params = synth.gen_noisy_sine(60, seed=0)
    thetas = np.array([params[gid][0] for gid in ds.ids])
    w = estimators.divergence_matrix(ds, RENYI_CFG, workers=-1)
    local, agree, axis_est, axis_true = _sine_order_stats(w, thetas)
    # negative control: with theta shuffled against the groups the
    # same gates must fail, or they would not measure frequency order
    shuffled = _rng(1).permutation(thetas)
    neg_local, neg_agree, _, _ = _sine_order_stats(w, shuffled)
    elapsed = time.time() - t0
    _report("C08", f"local spearman {local:.4f} (tol 0.85), embedded-distance "
                   f"spearman {agree:.4f} vs exact (tol 0.9), shuffled theta "
                   f"{neg_local:.4f}/{neg_agree:.4f}; first-axis |spearman| "
                   f"{axis_est:.4f} estimated, {axis_true:.4f} exact; "
                   f"1-D integral vs oracle rel err {worst:.1e}, "
                   f"{elapsed:.0f}s")
    assert worst <= 1e-10
    assert local >= 0.85
    assert agree >= 0.9
    assert neg_local < 0.85 and neg_agree < 0.9
    assert axis_true < 0.85, (
        f"exact first-axis |spearman| {axis_true:.4f} reaches 0.85: the "
        "sine divergences no longer saturate, so a single embedding axis "
        "can order theta and the first-axis gate applies again")


# ---------------------------------------------------------------------------
# 9./10. Four-class clustering and classification.

@functools.lru_cache(maxsize=1)
def _class_matrices():
    out = []
    for seed in range(5):
        ds, labels = synth.gen_gaussian_classes(seed)
        w = estimators.divergence_matrix(ds, RENYI_CFG, workers=-1)
        out.append((w, labels))
    return tuple(out)


def test_c09_four_class_clustering():
    t0 = time.time()
    accs = []
    for seed, (w, labels) in enumerate(_class_matrices()):
        asn = tasks.spectral_cluster(w, 4, seed=seed)
        truth = [labels[gid] for gid in asn.ids]
        accs.append(tasks.cluster_trace_accuracy(truth, asn))
    med = float(np.median(accs))
    _report("C09", f"trace accuracies {accs}, median {med:.3f} "
                   f"(tol 0.9), {time.time() - t0:.0f}s")
    assert med >= 0.9


def test_c10_four_class_classification():
    accs = []
    for seed, (w, labels) in enumerate(_class_matrices()):
        acc, _ = tasks.cross_validate_classify(w, labels, k_vote=11,
                                               n_folds=10, seed=seed)
        accs.append(acc)
    med = float(np.median(accs))
    _report("C10", f"10-fold cv accuracies {accs}, median {med:.3f} (tol 0.9)")
    assert med >= 0.9


# ---------------------------------------------------------------------------
# 11. Group anomaly detection, sample-based vs Gaussian baseline.

def test_c11_anomaly_auc():
    t0 = time.time()
    np_aucs, g_aucs = [], []
    for seed in range(20):
        ds, _, _ = synth.gen_sine_anomaly_scenario(40, 10, seed=seed)
        train, test = synth.split_scenario(ds, seed=seed)
        truth = [g.label == "anomaly" for g in test.groups]
        w = estimators.cross_divergence_matrix(test, train, RENYI_CFG,
                                               workers=-1)
        np_aucs.append(tasks.auc(tasks.anomaly_scores(test.ids, w, 5), truth))
        wg = baselines.baseline_cross_matrix(test, train, RENYI_CFG)
        g_aucs.append(tasks.auc(tasks.anomaly_scores(test.ids, wg, 5), truth))
    med_np = float(np.median(np_aucs))
    med_g = float(np.median(g_aucs))
    _report("C11", f"median AUC {med_np:.4f} sample-based (tol 0.95) vs "
                   f"{med_g:.4f} Gaussian baseline, {time.time() - t0:.0f}s")
    assert med_np >= 0.95
    assert med_np > med_g


# ---------------------------------------------------------------------------
# 12. Hungarian trace maximization vs exhaustive search.

def test_c12_hungarian_equals_brute_force(brute_force_max_trace):
    rng = _rng(7)
    for _ in range(200):
        side = int(rng.integers(1, 7))
        m = rng.uniform(0.0, 50.0, size=(side, side))
        if rng.uniform() < 0.3:
            m = np.floor(m)  # integer counts with likely ties
        assert tasks.max_trace(m) == brute_force_max_trace(m)
    _report("C12", "200 random confusion matrices up to 6x6: exact match")


# ---------------------------------------------------------------------------
# 13. Erlang-moment suite.

def test_c13_erlang_moment_suite():
    rows = []
    worst = 0.0
    i = 0
    for k, g in itertools.product((3, 5, 20), (-2.0, -1.0, -0.5, 0.5)):
        if 2 * g + k <= 0:
            # E[u^(2g)] is infinite here, so a mean-based 2% check has
            # no statistical footing at any draw count; skipped by the
            # same rule the oracle suite applies
            continue
        ana = oracle.erlang_moment(k, 2.0, g)
        emp = oracle.empirical_erlang_moment(k, 2.0, g, 100_000, seed=i)
        rel = abs(emp - ana) / abs(ana)
        worst = max(worst, rel)
        rows.append((k, g, rel))
        i += 1
    _report("C13", f"{len(rows)} finite-variance grid cells, worst rel err "
                   f"{worst:.4f} (tol 0.02); (k=3, gamma=-2) excluded: "
                   f"infinite-variance statistic")
    assert len(rows) == 11
    assert worst <= 0.02


# ---------------------------------------------------------------------------
# 14. CLI determinism: byte-identical reruns of every subcommand.

def test_c14_cli_determinism(tmp_path, capsys):
    def run(*argv):
        code = cli.main(list(argv))
        assert code == 0, f"{argv} exited {code}"
        return capsys.readouterr().out

    outputs = {}
    for tag in ("a", "b"):
        root = tmp_path / tag
        root.mkdir()
        data = root / "sine"
        run("synth", "--family", "sine", "--out", str(data), "--seed", "3",
            "--groups", "8", "--samples", "150")
        anom = root / "anom"
        run("synth", "--family", "sine-anom", "--out", str(anom),
            "--seed", "3", "--normal", "6", "--anom", "2", "--samples", "100")
        w = root / "w.csv"
        run("estimate", "--input", str(data), "--out", str(w), "--k", "5")
        emb, svg = root / "emb.csv", root / "emb.svg"
        run("embed", "--matrix", str(w), "--out", str(emb), "--svg", str(svg),
            "--color-by", str(data / "params.csv"))
        clus = root / "clusters.csv"
        run("cluster", "--matrix", str(w), "--clusters", "2", "--seed", "0",
            "--out", str(clus))
        preds = root / "preds.csv"
        labels = root / "labels.csv"
        dataset.save_labels(labels,
                            {gid: ("lo" if i < 4 else "hi")
                             for i, gid in enumerate(sorted(
                                 dataset.load_dataset(data).ids))})
        run("classify", "--input", str(data), "--labels", str(labels),
            "--folds", "4", "--kvote", "3", "--k", "5",
            "--out", str(preds))
        scores = root / "scores.csv"
        run("anomaly", "--train", str(anom), "--test", str(anom),
            "--k", "5", "--kanom", "2", "--out", str(scores))
        verify_out = run("verify", "--seed", "0")

        files = {}
        for p in sorted(root.rglob("*")):
            if p.is_file():
                files[str(p.relative_to(root))] = p.read_bytes()
        files["__verify_stdout__"] = verify_out.encode()
        outputs[tag] = files

    assert outputs["a"].keys() == outputs["b"].keys()
    diffs = [name for name in outputs["a"]
             if outputs["a"][name] != outputs["b"][name]]
    _report("C14", f"{len(outputs['a'])} artifacts from 8 subcommands: "
                   f"{'all byte-identical' if not diffs else diffs}")
    assert not diffs
