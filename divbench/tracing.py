"""Span recording around divknn's public functions, from outside the library.

A traced run swaps module attributes such as ``knn.kth_nn_cross`` for
wrappers that record one span per call. This reaches calls made inside
the library as well, because ``estimators`` calls ``knn.build_index``,
``knn.kth_nn_within`` and ``knn.kth_nn_cross`` through the module
attribute. Untraced runs install nothing, so they measure unwrapped code.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from divknn import baselines, dataset, estimators, knn, synth, tasks


def _route(args, kwargs, result):
    return {"route": "brute" if result.tree is None else "tree"}


def _cross_rows(args, kwargs, result):
    return {"rows": len(args[0])}


def _within_rows(args, kwargs, result):
    return {"rows": args[0].size}


def _dir_bytes(args, kwargs, result):
    with os.scandir(args[0]) as entries:
        return {"bytes": sum(e.stat().st_size for e in entries if e.is_file())}


# module -> {function name: attribute recorder or None}
TRACED = {
    knn: {"build_index": _route, "kth_nn_within": _within_rows,
          "kth_nn_cross": _cross_rows},
    estimators: {"divergence_matrix": None, "cross_divergence_matrix": None},
    dataset: {"load_dataset": _dir_bytes, "save_dataset": None, "save_matrix": None},
    baselines: {"baseline_cross_matrix": None},
    tasks: {"mds_embed": None, "spectral_cluster": None,
            "anomaly_scores": None, "auc": None},
    synth: {"gen_param_grid": None, "gen_sine_anomaly_scenario": None,
            "split_scenario": None},
}


@dataclass
class Span:
    name: str
    parent: int  # index of the enclosing span, -1 at top level
    phase: str  # "setup-<i>" or "rep-<i>": spans of one setup or rep share it
    start: float
    end: float
    cpu_s: float  # process CPU, all threads
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from the wrappers that ``installed`` puts in place."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = ""
        self._stack: list[int] = []
        self._originals = {(m, name): getattr(m, name)
                           for m, names in TRACED.items() for name in names}

    def _wrap(self, name, fn, note):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            span = Span(name, self._stack[-1] if self._stack else -1, self.phase, 0.0, 0.0, 0.0)
            self.spans.append(span)
            self._stack.append(sid)
            c0 = time.process_time()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.cpu_s = time.process_time() - c0
                self._stack.pop()
            if note is not None:
                span.attrs = note(args, kwargs, result)
            return result
        return wrapper

    @contextmanager
    def installed(self):
        """Swap every traced attribute for a wrapper; always put the originals back."""
        try:
            for m, names in TRACED.items():
                for name, note in names.items():
                    setattr(m, name, self._wrap(f"{m.__name__.rsplit('.', 1)[-1]}.{name}",
                                                 getattr(m, name), note))
            yield self
        finally:
            for (m, name), fn in self._originals.items():
                setattr(m, name, fn)

    def wrappers_removed(self) -> bool:
        return all(getattr(m, name) is fn for (m, name), fn in self._originals.items())


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.seconds
    return [s.seconds - c for s, c in zip(spans, child)]


TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# A traced run holds at least this many reps, and the tail percentile is
# chosen for this many reps' cross queries, so it is fixed per workload
# rather than following how many reps the machine fits into a run.
TAIL_REPS = 3


def tail_percentile(samples: int) -> float:
    """Highest percentile of the ladder with at least ten samples beyond it."""
    for p in TAIL_LADDER:
        if samples * (100.0 - p) >= 1000.0 - 1e-6:  # 100 - 99.9 is not exactly 0.1
            return p
    return TAIL_LADDER[-1]


def layer_metrics(rec: Recorder, reps: int, setups: int, pairs: int,
                  overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as (value, unit), averaged per rep or per setup."""
    selfs = self_times(rec.spans)
    in_reps = [s for s in rec.spans if s.phase.startswith("rep-")]
    in_setup = [s for s in rec.spans if s.phase.startswith("setup-")]

    def named(spans, *names):
        return [s for s in spans if s.name in names]

    def per_rep(spans):
        return sum(s.seconds for s in spans) / reps

    cross = np.array([s.seconds for s in named(in_reps, "knn.kth_nn_cross")])
    tail = tail_percentile(len(cross) // reps * TAIL_REPS)
    knn_spans = [s for s in in_reps if s.name.startswith("knn.")]
    knn_wall = sum(s.seconds for s in knn_spans)
    builds = named(in_reps, "knn.build_index")
    matrix_names = ("estimators.divergence_matrix", "estimators.cross_divergence_matrix")
    matrix_self = sum(selfs[i] for i, s in enumerate(rec.spans)
                      if s.phase.startswith("rep-") and s.name in matrix_names) / reps
    loads = named(in_reps, "dataset.load_dataset")
    return {
        "knn.kth_nn_cross.calls": (len(cross) / reps, "count"),
        "knn.kth_nn_cross.s": (float(cross.sum()) / reps, "s"),
        "knn.kth_nn_cross.p50_ms": (float(np.percentile(cross, 50)) * 1e3 if len(cross) else 0.0, "ms"),
        "knn.kth_nn_cross.tail_ms": (float(np.percentile(cross, tail)) * 1e3 if len(cross) else 0.0, "ms"),
        "knn.kth_nn_cross.tail_pct": (tail, "%"),
        "knn.query_points": (sum(s.attrs.get("rows", 0) for s in knn_spans) / reps, "count"),
        "knn.kth_nn_within.calls": (len(named(in_reps, "knn.kth_nn_within")) / reps, "count"),
        "knn.kth_nn_within.s": (per_rep(named(in_reps, "knn.kth_nn_within")), "s"),
        "knn.build_index.calls": (len(builds) / reps, "count"),
        "knn.build_index.s": (per_rep(builds), "s"),
        "knn.route.tree": (sum(s.attrs["route"] == "tree" for s in builds) / reps, "count"),
        "knn.route.brute": (sum(s.attrs["route"] == "brute" for s in builds) / reps, "count"),
        "knn.cpu_util": (sum(s.cpu_s for s in knn_spans) / knn_wall if knn_wall else 0.0, "ratio"),
        "estimators.matrix.s": (per_rep(named(in_reps, *matrix_names)), "s"),
        "estimators.self_s": (matrix_self, "s"),
        "estimators.self_us_per_pair": (matrix_self / pairs * 1e6, "us"),
        "dataset.load_dataset.s": (per_rep(loads), "s"),
        "dataset.load_dataset.bytes": (sum(s.attrs["bytes"] for s in loads) / reps, "B"),
        "dataset.save_matrix.s": (per_rep(named(in_reps, "dataset.save_matrix")), "s"),
        "dataset.save_dataset.s": (sum(s.seconds for s in named(in_setup, "dataset.save_dataset")) / setups, "s"),
        "baselines.baseline_cross_matrix.s": (per_rep(named(in_reps, "baselines.baseline_cross_matrix")), "s"),
        "tasks.mds_embed.s": (per_rep(named(in_reps, "tasks.mds_embed")), "s"),
        "tasks.spectral_cluster.s": (per_rep(named(in_reps, "tasks.spectral_cluster")), "s"),
        "tasks.anomaly_scores.s": (per_rep(named(in_reps, "tasks.anomaly_scores")), "s"),
        "tasks.auc.s": (per_rep(named(in_reps, "tasks.auc")), "s"),
        "synth.s": (sum(s.seconds for s in in_setup if s.name.startswith("synth.")) / setups, "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }


def self_time_table(rec: Recorder, reps: int, setups: int) -> list[str]:
    """Text table of calls, total and self seconds per span name, per rep or setup."""
    count = {"rep": reps, "setup": setups}
    rows: dict[tuple[str, str], list[float]] = {}
    for s, own in zip(rec.spans, self_times(rec.spans)):
        row = rows.setdefault((s.name, s.phase.split("-")[0]), [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s.seconds
        row[2] += own
    lines = [f"{'span':<38} {'calls':>8} {'total_s':>10} {'self_s':>10}  per"]
    for (name, kind), (calls, total, own) in sorted(
            rows.items(), key=lambda kv: -kv[1][2] / count[kv[0][1]]):
        per = count[kind]
        lines.append(f"{name:<38} {calls / per:>8.0f} {total / per:>10.4f} {own / per:>10.4f}  {kind}")
    return lines
