"""The benchmark's workloads: inputs made from a seed, then divknn's public calls.

Each workload writes its groups as a CSV directory during set-up, then
each rep runs the calls the CLI would make, in the CLI's order, from
``dataset.load_dataset`` through the last task. Every call is made
through its module attribute, so a traced run sees it.

Sizes are smaller than the paper's figures so that a rep takes a few
seconds on a 2-core machine and every run holds several reps:

* ggrid keeps the 2000-point 1-D groups of the 10x10 Gaussian grid but
  takes every second mean and every second std, 25 groups and 600
  directed pairs instead of 100 and 9,900 (the full grid takes 80 s on
  such a machine).
* anomaly keeps 3000-point 2-D sine groups, with 12 normal and 3
  anomalous groups instead of 40 and 10: 9 train and 6 test groups.
  Its threaded reps swing by up to half their time as a neighbour
  takes and frees the other core, so a run needs many short reps for a
  steady median: with 4-5 reps of 4 s, ten-run spreads of pairs_per_s
  reached 0.26; reps now take 1.5-2.5 s and a run holds 6 to 12.
* highdim keeps 10 groups in d = 20, with 400 points instead of 1200.
  At 1200 points each brute-force chunk allocates a 98 MB temporary;
  its page faults (77k per rep, a quarter of the rep's time) made rep
  times swing from 4.3 to 9.3 s between runs. The 26 MB temporaries at
  400 points are reused without faults.

anomaly and highdim query with workers=-1, as the CLI does; on highdim
the brute-force route ignores it and runs single-threaded. ggrid queries
single-threaded (workers=1): on a 2-core machine shared with other
tenants, its 600 small threaded queries made per-rep wall time range
2.4-7.4 s, against 3.1-4.9 s at workers=1, too unsteady to bound a
regression. workers never changes a value.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

from divknn import baselines, dataset, estimators, synth, tasks

import checks

WORKERS = -1  # the CLI's setting
GGRID_WORKERS = 1
RENYI = estimators.EstimatorConfig("renyi", alpha=0.5, k=20, symmetrize=True)
L2 = estimators.EstimatorConfig("l2", k=20, symmetrize=True)
K_ANOM = 5
GGRID_CLUSTERS = 4
EMBED_DIMS = 2
HIGHDIM_DIM = 20
HIGHDIM_SHIFT = 0.5  # class-1 mean offset on every coordinate
SPOT_ENTRIES = 2  # matrix entries recomputed by brute force per run


@dataclass(frozen=True)
class Size:
    grid_stride: int  # keep grid means and stds whose index is a multiple of this
    grid_samples: int
    sine_normal: int
    sine_anom: int
    sine_samples: int
    highdim_groups: int
    highdim_points: int


BENCH = Size(grid_stride=2, grid_samples=2000, sine_normal=12, sine_anom=3,
             sine_samples=3000, highdim_groups=10, highdim_points=400)


# ---------------------------------------------------------------------------
# Checks shared by the workloads. Each adds one ledger entry per call.

def _check_load(ledger, out, key, generated):
    ledger.check(key in out and checks.points_equal(out[key], generated),
                 f"load_dataset({key}) does not reproduce the generated points")


def _check_matrix(ledger, out, key, expected, l2=False):
    values = getattr(out.get(key), "values", out.get(key))  # DivergenceMatrix or array
    got = None if values is None else checks.digest(values)
    ok = got is not None and checks.matrix_ok(values, l2) and expected.setdefault(key, got) == got
    ledger.check(ok, f"matrix {key} (sha256 {got}) is non-finite, all zero or differs "
                     f"from sha256 {expected.get(key)}")


def _check_saved(ledger, out, path):
    ok = "saved" in out
    if ok:
        back = dataset.load_matrix(path)
        ok = back.ids == out["W"].ids and np.allclose(back.values, out["W"].values,
                                                      rtol=1e-8, atol=0.0)
    ledger.check(ok, "save_matrix did not round-trip to 9 significant digits")


def _check_embedding(ledger, out):
    ok = "emb" in out
    if ok:
        emb, w = out["emb"], out["W"].values
        n = w.shape[0]
        centered = np.eye(n) - 1.0 / n
        b = -0.5 * centered @ (w ** 2) @ centered
        lam = np.asarray(emb.eigenvalues)
        ok = (emb.ids == out["W"].ids and emb.coords.shape == (n, EMBED_DIMS)
              and np.isfinite(emb.coords).all() and (np.diff(lam) <= 0).all())
        for a in range(EMBED_DIMS if ok else 0):
            c = emb.coords[:, a]
            resid = np.linalg.norm(b @ c - lam[a] * c)
            ok = ok and resid <= 1e-8 * np.linalg.norm(b) * np.linalg.norm(c)
    ledger.check(ok, "mds_embed coordinates are not scaled eigenvectors of the centered matrix")


def _check_same(ledger, out, key, expected, valid, what):
    ok = key in out and valid(out[key])
    ok = ok and expected.setdefault(key, out[key]) == out[key]
    ledger.check(ok, what)


def _mann_whitney(scores, truth) -> float:
    pos = scores[truth][:, None]
    neg = scores[~truth][None, :]
    return float(((pos > neg) + 0.5 * (pos == neg)).mean())


# ---------------------------------------------------------------------------
# ggrid: the paper's Gaussian parameter grid, embedded and clustered.

def ggrid_setup(seed, workdir: Path, size: Size):
    ds, _, _ = synth.gen_param_grid("ggrid", seed, size.grid_samples)
    keep = {f"g{i}{j}" for i in range(0, 10, size.grid_stride)
            for j in range(0, 10, size.grid_stride)}
    ds = dataset.Dataset(tuple(g for g in ds.groups if g.id in keep))
    dataset.save_dataset(ds, workdir / "ggrid")
    return SimpleNamespace(ds=ds, dir=workdir / "ggrid", matrix=workdir / "ggrid.csv",
                           pairs=len(ds) * (len(ds) - 1))


def ggrid_run(inp, out, seed):
    out["ds"] = dataset.load_dataset(inp.dir)
    out["W"] = estimators.divergence_matrix(out["ds"], RENYI, workers=GGRID_WORKERS)
    dataset.save_matrix(out["W"], inp.matrix)
    out["saved"] = True
    out["emb"] = tasks.mds_embed(out["W"], EMBED_DIMS)
    out["clusters"] = tasks.spectral_cluster(out["W"], GGRID_CLUSTERS, seed).cluster


def ggrid_check(inp, out, ledger, expected):
    _check_load(ledger, out, "ds", inp.ds)
    _check_matrix(ledger, out, "W", expected)
    _check_saved(ledger, out, inp.matrix)
    _check_embedding(ledger, out)
    _check_same(ledger, out, "clusters", expected,
                lambda c: len(c) == len(inp.ds) and set(c) <= set(range(GGRID_CLUSTERS)),
                "spectral_cluster gave an invalid or changed assignment")


def ggrid_spot(inp, out, ledger, seed):
    if "W" in out:
        checks.spot_check(ledger, out["W"].values, inp.ds.groups, inp.ds.groups, RENYI,
                          SPOT_ENTRIES, seed, "W")


# ---------------------------------------------------------------------------
# anomaly: the paper's group anomaly experiment on noisy sine curves.

def anomaly_setup(seed, workdir: Path, size: Size):
    ds, _, _ = synth.gen_sine_anomaly_scenario(size.sine_normal, size.sine_anom, seed,
                                               size.sine_samples)
    train, test = synth.split_scenario(ds, seed)
    dataset.save_dataset(train, workdir / "train")
    dataset.save_dataset(test, workdir / "test")
    return SimpleNamespace(train=train, test=test, train_dir=workdir / "train",
                           test_dir=workdir / "test", pairs=2 * len(train) * len(test))


def anomaly_run(inp, out, seed):
    train = out["train"] = dataset.load_dataset(inp.train_dir)
    test = out["test"] = dataset.load_dataset(inp.test_dir)
    out["W"] = estimators.cross_divergence_matrix(test, train, RENYI, workers=WORKERS)
    out["Wg"] = baselines.baseline_cross_matrix(test, train, RENYI)
    truth = [g.label == "anomaly" for g in test.groups]
    out["scores"] = tasks.anomaly_scores(test.ids, out["W"], K_ANOM).score
    out["scores_g"] = tasks.anomaly_scores(test.ids, out["Wg"], K_ANOM).score
    out["auc"] = tasks.auc(out["scores"], truth)
    out["auc_g"] = tasks.auc(out["scores_g"], truth)


def anomaly_check(inp, out, ledger, expected):
    _check_load(ledger, out, "train", inp.train)
    _check_load(ledger, out, "test", inp.test)
    _check_matrix(ledger, out, "W", expected)
    _check_matrix(ledger, out, "Wg", expected)
    truth = np.array([g.label == "anomaly" for g in inp.test.groups])
    for w, s, a in (("W", "scores", "auc"), ("Wg", "scores_g", "auc_g")):
        ok = s in out and np.array_equal(out[s], np.sort(out[w], axis=1)[:, K_ANOM - 1])
        ledger.check(ok, f"anomaly_scores({w}) is not the {K_ANOM}-th smallest per row")
        _check_same(ledger, out, a, expected,
                    lambda v, s=s: s in out and checks.close(v, _mann_whitney(out[s], truth)),
                    f"auc({s}) differs from the Mann-Whitney count or changed")


def anomaly_spot(inp, out, ledger, seed):
    if "W" in out:
        checks.spot_check(ledger, out["W"], inp.test.groups, inp.train.groups, RENYI,
                          SPOT_ENTRIES, seed, "W")


# ---------------------------------------------------------------------------
# highdim: two Gaussian classes in d = 20, on the brute-force route.

def highdim_setup(seed, workdir: Path, size: Size):
    rng = np.random.Generator(np.random.Philox(seed))
    groups = tuple(
        dataset.Group(f"h{g:02d}",
                      rng.normal(HIGHDIM_SHIFT * (g % 2), 1.0,
                                 (size.highdim_points, HIGHDIM_DIM)))
        for g in range(size.highdim_groups))
    ds = dataset.Dataset(groups)
    dataset.save_dataset(ds, workdir / "highdim")
    return SimpleNamespace(ds=ds, dir=workdir / "highdim", matrix=workdir / "highdim.csv",
                           pairs=len(ds) * (len(ds) - 1))


def highdim_run(inp, out, seed):
    out["ds"] = dataset.load_dataset(inp.dir)
    out["W"] = estimators.divergence_matrix(out["ds"], L2, workers=WORKERS)
    dataset.save_matrix(out["W"], inp.matrix)
    out["saved"] = True
    out["emb"] = tasks.mds_embed(out["W"], EMBED_DIMS)


def highdim_check(inp, out, ledger, expected):
    _check_load(ledger, out, "ds", inp.ds)
    _check_matrix(ledger, out, "W", expected, l2=True)
    _check_saved(ledger, out, inp.matrix)
    _check_embedding(ledger, out)


def highdim_spot(inp, out, ledger, seed):
    if "W" in out:
        checks.spot_check(ledger, out["W"].values, inp.ds.groups, inp.ds.groups, L2,
                          SPOT_ENTRIES, seed, "W")


@dataclass(frozen=True)
class Workload:
    setup: Callable  # (seed, workdir, size) -> inputs, with .pairs directed estimates per rep
    run: Callable  # (inputs, out, seed) -> None; fills ``out`` as each call returns
    check: Callable  # (inputs, out, ledger, expected) -> None; one entry per call
    spot: Callable  # (inputs, out, ledger, seed) -> None; one entry per matrix entry
    parallel: bool  # whether its queries run on more than one thread


WORKLOADS = {
    "ggrid": Workload(ggrid_setup, ggrid_run, ggrid_check, ggrid_spot, False),
    "anomaly": Workload(anomaly_setup, anomaly_run, anomaly_check, anomaly_spot, True),
    "highdim": Workload(highdim_setup, highdim_run, highdim_check, highdim_spot, False),
}
