#!/usr/bin/env python3
"""Embed noisy sine-curve groups and measure frequency ordering.

Generates 2-D groups sampled around sin(theta*x) with random theta,
estimates their symmetrized Renyi-1/2 divergences, embeds in 2-D, and
prints the statistics acceptance criterion 8 gates:

* the Spearman correlation between each estimate and the frequency gap
  |theta_i - theta_j|, over pairs closer than 0.3 in theta;
* the Spearman correlation of embedded distances between the estimated
  embedding and the embedding of the exact divergences.

The exact divergences come from the 1-D reduction of the power integral
(derived in divknn.oracle.sine_renyi_half_matrix). They saturate once
frequencies are more than a small gap apart, so the embedding spreads
the groups instead of lining them up: the per-axis correlations with
theta, also printed for both embeddings, land well below 1 by the
geometry of the family, not by estimation error. The SVG colors points
red by theta for visual inspection.
"""

import argparse
from pathlib import Path

import numpy as np
from scipy.spatial.distance import pdist
from scipy.stats import spearmanr

from divknn import cli, dataset, estimators, oracle, synth, tasks

LOCAL_GAP = 0.3


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--groups", type=int, default=60)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--samples", type=int, default=synth.SINE_SAMPLES)
    ap.add_argument("--k", type=int, default=20)
    ap.add_argument("--out-dir", default="out/sine")
    args = ap.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ds, _, params = synth.gen_noisy_sine(args.groups, args.seed, args.samples)
    thetas = np.array([params[gid][0] for gid in ds.ids])
    cfg = estimators.EstimatorConfig("renyi", 0.5, args.k, True)
    print(f"estimating {len(ds)}x{len(ds)} matrix (k={args.k}) ...")
    w = estimators.divergence_matrix(ds, cfg, workers=-1)
    dataset.save_matrix(w, out / "matrix.csv")
    exact = oracle.sine_renyi_half_matrix(thetas, synth.SINE_NOISE_STD)
    w_true = estimators.DivergenceMatrix(ds.ids, exact, None)

    emb = tasks.mds_embed(w, 2)
    emb_true = tasks.mds_embed(w_true, 2)
    dataset.save_params(out / "embedding.csv", emb.ids, ("c0", "c1"),
                        [tuple(row) for row in emb.coords])
    colors = cli._param_colors(emb.ids, {gid: np.asarray(params[gid])
                                         for gid in emb.ids})
    cli.emit_svg_scatter(emb.coords, colors, out / "embedding.svg")

    upper = np.triu_indices(len(thetas), 1)
    gap = np.abs(thetas[:, None] - thetas[None, :])[upper]
    near = gap < LOCAL_GAP
    local = spearmanr(w.values[upper][near], gap[near])[0]
    agree = spearmanr(pdist(emb.coords), pdist(emb_true.coords))[0]
    print(f"estimate vs frequency gap on {near.sum()} pairs with gap < "
          f"{LOCAL_GAP}: spearman {local:+.4f}")
    print(f"embedded distances, estimated vs exact: spearman {agree:+.4f}")
    for name, e in (("estimated", emb), ("exact", emb_true)):
        print(f"{name} top eigenvalues: {np.round(e.eigenvalues[:4], 3)}")
        for axis in range(2):
            rho = spearmanr(e.coords[:, axis], thetas)[0]
            print(f"  axis {axis} vs theta: spearman {rho:+.4f}")
    print(f"wrote {out}/matrix.csv, embedding.csv, embedding.svg")


if __name__ == "__main__":
    main()
