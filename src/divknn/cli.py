"""Command-line interface: the full pipeline as one binary.

Subcommands: estimate (pairwise divergence matrix), embed (classical
MDS plus optional SVG scatter), cluster (spectral), classify (k-fold
cross-validated neighbor vote), anomaly (order-statistic scores),
synth (generate the synthetic families), verify (oracle self-checks).

Exit codes: 0 success, 1 validation problem (bad flags, malformed or
missing files, impossible configuration), 2 computational problem
(degenerate data, non-finite estimates, failed integration, undefined
metrics). Every subcommand is deterministic given its flags and --seed:
rerunning writes byte-identical output files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import baselines, dataset, estimators, oracle, synth, tasks
from .errors import (
    ConfigError,
    ContractError,
    DataFormatError,
    DegenerateDistanceError,
    FlatAffinityError,
    InsufficientSampleError,
    IntegrationError,
    NonFiniteEstimateError,
    UndefinedAUCError,
)

SVG_SIZE = 800
SVG_MARGIN = 0.05 * SVG_SIZE
SVG_RADIUS = 4
DEFAULT_GRAY = (128, 128, 128)
_BLUE_CHANNEL = 96

_VALIDATION_ERRORS = (
    DataFormatError,
    ConfigError,
    ContractError,
    InsufficientSampleError,
    OSError,
    ValueError,
)
_COMPUTATIONAL_ERRORS = (
    DegenerateDistanceError,
    FlatAffinityError,
    UndefinedAUCError,
    IntegrationError,
    NonFiniteEstimateError,
    np.linalg.LinAlgError,
    ArithmeticError,
)


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors, per the exit-code map."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")


def _add_estimator_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--estimator", choices=(estimators.RENYI, estimators.L2),
                   default=estimators.RENYI)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--k", type=int, default=20)
    p.add_argument("--symmetrize", type=_parse_bool, default=True,
                   metavar="BOOL")
    p.add_argument("--baseline", choices=("none", "gaussian"), default="none",
                   help="replace the sample-based estimator with per-group "
                        "Gaussian fits and closed-form divergences")
    p.add_argument("--dedup", action="store_true",
                   help="drop exact duplicate points within each group")


def _load_input(args, path) -> dataset.Dataset:
    """The dataset at path, with exact duplicate points dropped under --dedup."""
    ds = dataset.load_dataset(path)
    if not args.dedup:
        return ds
    return dataset.Dataset(tuple(
        dataset.Group(g.id, np.unique(g.points, axis=0), g.label)
        for g in ds.groups
    ))


def _divergences(args, ds, reference=None):
    """The matrix the estimator flags ask for: over the groups of ds, or
    from each group of ds to each group of reference."""
    cfg = estimators.EstimatorConfig(
        kind=args.estimator, alpha=args.alpha, k=args.k,
        symmetrize=args.symmetrize,
    )
    if args.baseline == "gaussian":
        if reference is None:
            return baselines.baseline_matrix(ds, cfg)
        return baselines.baseline_cross_matrix(ds, reference, cfg)
    if reference is None:
        return estimators.divergence_matrix(ds, cfg, workers=-1)
    return estimators.cross_divergence_matrix(ds, reference, cfg, workers=-1)


def _write_table(path, header, rows) -> None:
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# SVG scatter output.

def scatter_transform(coords: np.ndarray) -> np.ndarray:
    """Affine map from data coordinates to SVG pixels (y axis flipped)."""
    coords = np.asarray(coords, dtype=np.float64)
    out = np.empty_like(coords)
    usable = SVG_SIZE - 2.0 * SVG_MARGIN
    for axis in range(2):
        lo = coords[:, axis].min()
        span = coords[:, axis].max() - lo
        if span == 0.0:
            out[:, axis] = SVG_SIZE / 2.0
        else:
            out[:, axis] = SVG_MARGIN + (coords[:, axis] - lo) * (usable / span)
    out[:, 1] = SVG_SIZE - out[:, 1]
    return out


def emit_svg_scatter(coords: np.ndarray, colors, path) -> None:
    """Write a standalone scatter SVG, one radius-4 circle per row.

    ``colors`` is an optional iterable of (r, g, b) byte triples; all
    points come out mid-gray without it.
    """
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise ConfigError(f"SVG scatter needs exactly 2 columns, got {coords.shape}")
    if not np.isfinite(coords).all():
        raise ConfigError("SVG scatter needs finite coordinates")
    if colors is None:
        colors = [DEFAULT_GRAY] * coords.shape[0]
    colors = list(colors)
    if len(colors) != coords.shape[0]:
        raise ConfigError(f"{len(colors)} colors for {coords.shape[0]} points")
    pixels = scatter_transform(coords)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" '
        f'height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
        f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>',
    ]
    for (cx, cy), (r, g, b) in zip(pixels, colors):
        lines.append(
            f'<circle cx="{float(cx)!r}" cy="{float(cy)!r}" r="{SVG_RADIUS}" '
            f'fill="rgb({int(r)},{int(g)},{int(b)})"/>'
        )
    lines.append("</svg>")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _param_colors(ids, params: dict[str, np.ndarray]) -> list[tuple[int, int, int]]:
    """Linear red/green channels from the first two parameter columns."""
    missing = [gid for gid in ids if gid not in params]
    if missing:
        raise DataFormatError(f"params file lacks ids: {', '.join(missing)}")
    table = np.array([params[gid] for gid in ids], dtype=np.float64)

    def channel(col: np.ndarray) -> np.ndarray:
        span = col.max() - col.min()
        if span == 0.0:
            return np.full(len(col), 128, dtype=int)
        return np.rint(255.0 * (col - col.min()) / span).astype(int)

    red = channel(table[:, 0])
    green = (channel(table[:, 1]) if table.shape[1] > 1
             else np.full(len(ids), 128, dtype=int))
    return [(int(r), int(g), _BLUE_CHANNEL) for r, g in zip(red, green)]


# ---------------------------------------------------------------------------
# Subcommands.

def _cmd_estimate(args) -> int:
    matrix = _divergences(args, _load_input(args, args.input))
    dataset.save_matrix(matrix, args.out)
    print(f"wrote {args.out}: {len(matrix.ids)}x{len(matrix.ids)} "
          f"{args.estimator} divergence matrix")
    return 0


def _cmd_embed(args) -> int:
    matrix = dataset.load_matrix(args.matrix)
    emb = tasks.mds_embed(matrix, args.dims)
    header = ["id", *[f"c{i}" for i in range(args.dims)]]
    rows = [[gid, *[f"{v:.9g}" for v in row]]
            for gid, row in zip(emb.ids, emb.coords)]
    _write_table(args.out, header, rows)
    print(f"wrote {args.out}: {len(emb.ids)} groups in {args.dims}-D")
    if args.svg:
        if args.dims != 2:
            raise ConfigError("--svg requires --dims 2")
        colors = None
        if args.color_by:
            _, params = dataset.load_params(args.color_by)
            colors = _param_colors(emb.ids, params)
        emit_svg_scatter(emb.coords, colors, args.svg)
        print(f"wrote {args.svg}")
    return 0


def _cmd_cluster(args) -> int:
    matrix = dataset.load_matrix(args.matrix)
    assign = tasks.spectral_cluster(matrix, args.clusters, args.seed)
    _write_table(args.out, ["id", "cluster"],
                 [[gid, str(c)] for gid, c in zip(assign.ids, assign.cluster)])
    print(f"wrote {args.out}: {args.clusters} clusters over {len(assign.ids)} groups")
    if args.truth:
        labels = dataset.load_labels(args.truth)
        missing = [gid for gid in assign.ids if gid not in labels]
        if missing:
            raise DataFormatError(f"truth file lacks ids: {', '.join(missing)}")
        acc = tasks.cluster_trace_accuracy(
            [labels[gid] for gid in assign.ids], assign)
        print(f"trace accuracy: {acc:.6f}")
    return 0


def _cmd_classify(args) -> int:
    ds = _load_input(args, args.input)
    ds = dataset.with_labels(ds, dataset.load_labels(args.labels))
    labels = ds.require_labels()
    matrix = _divergences(args, ds)
    acc, preds = tasks.cross_validate_classify(
        matrix, labels, args.kvote, args.folds, args.seed)
    _write_table(args.out, ["id", "predicted"],
                 [[gid, lab] for gid, lab in zip(ds.ids, preds)])
    print(f"wrote {args.out}")
    print(f"cv accuracy: {acc:.6f}")
    return 0


def _cmd_anomaly(args) -> int:
    train = _load_input(args, args.train)
    test = _load_input(args, args.test)
    w = _divergences(args, test, train)
    scores = tasks.anomaly_scores(test.ids, w, args.kanom)
    _write_table(args.out, ["id", "score"],
                 [[gid, repr(float(s))] for gid, s in zip(scores.ids, scores.score)])
    print(f"wrote {args.out}: scores for {len(scores.ids)} test groups")
    if args.truth:
        flags = dataset.load_labels(args.truth)
        missing = [gid for gid in scores.ids if gid not in flags]
        if missing:
            raise DataFormatError(f"flags file lacks ids: {', '.join(missing)}")
        truth = [flags[gid] == "1" for gid in scores.ids]
        print(f"auc: {tasks.auc(scores, truth):.6f}")
    return 0


def _cmd_synth(args) -> int:
    out = Path(args.out)
    if args.family in ("ugrid", "ggrid", "bgrid"):
        ds, names, params = synth.gen_param_grid(
            args.family, args.seed, args.samples or synth.GRID_SAMPLES)
    elif args.family == "sine":
        ds, names, params = synth.gen_noisy_sine(
            args.groups, args.seed, args.samples or synth.SINE_SAMPLES)
    else:
        ds, names, params = synth.gen_sine_anomaly_scenario(
            args.normal, args.anom, args.seed, args.samples or synth.SINE_SAMPLES)
    dataset.save_dataset(ds, out)
    dataset.save_params(out / "params.csv", ds.ids,
                        names, [params[gid] for gid in ds.ids])
    if args.family == "sine-anom":
        dataset.save_labels(out / "flags.csv", synth.anomaly_flags(ds), "flag")
    print(f"wrote {out}: {len(ds)} groups of dimension {ds.dim}")
    return 0


def _cmd_verify(args) -> int:
    checks = oracle.standard_checks(args.seed)
    width = max(len(c.name) for c in checks)
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{status}  {c.name:<{width}}  {c.detail}")
    n_pass = sum(c.passed for c in checks)
    print(f"{n_pass}/{len(checks)} checks passed")
    return 0 if n_pass == len(checks) else 2


# ---------------------------------------------------------------------------
# Parser wiring.

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="divknn", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="pairwise divergence matrix from samples")
    p.add_argument("--input", required=True, help="dataset directory or CSV file")
    _add_estimator_flags(p)
    p.add_argument("--out", required=True, help="output matrix CSV")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("embed", help="classical MDS embedding of a matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--dims", type=int, default=2)
    p.add_argument("--out", required=True, help="output coordinates CSV")
    p.add_argument("--svg", help="also write an SVG scatter plot")
    p.add_argument("--color-by", dest="color_by",
                   help="params CSV mapped to point colors")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("cluster", help="spectral clustering of a matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--clusters", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output assignment CSV")
    p.add_argument("--truth", help="labels CSV; prints trace accuracy")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("classify", help="cross-validated neighbor classification")
    p.add_argument("--input", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--kvote", type=int, default=11)
    p.add_argument("--seed", type=int, default=0)
    _add_estimator_flags(p)
    p.add_argument("--out", required=True, help="output predictions CSV")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("anomaly", help="order-statistic anomaly scores")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--kanom", type=int, default=5)
    _add_estimator_flags(p)
    p.add_argument("--out", required=True, help="output scores CSV")
    p.add_argument("--truth", help="flags CSV (id,flag with 1=anomaly); prints AUC")
    p.set_defaults(func=_cmd_anomaly)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--family", required=True,
                   choices=("ugrid", "ggrid", "bgrid", "sine", "sine-anom"))
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=0,
                   help="points per group (0 = family default)")
    p.add_argument("--groups", type=int, default=60,
                   help="group count for the sine family")
    p.add_argument("--normal", type=int, default=40,
                   help="normal group count for sine-anom")
    p.add_argument("--anom", type=int, default=10,
                   help="anomalous group count for sine-anom")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("verify", help="run the oracle self-check suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _COMPUTATIONAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
