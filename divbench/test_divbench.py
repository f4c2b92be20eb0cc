"""Self-tests of the benchmark on a tiny configuration; they run in seconds.

    python3 -m pytest -q divbench/test_divbench.py
"""

import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run.import_divknn()

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from divknn import estimators  # noqa: E402

TINY = workloads.Size(grid_stride=3, grid_samples=60, sine_normal=8, sine_anom=4,
                      sine_samples=150, highdim_groups=4, highdim_points=60)
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def short_probes(monkeypatch):
    # The set-up's fresh-interpreter import of scipy takes over a second,
    # and the reference task runs around every set-up and rep; shorten
    # both to keep these tests short.
    monkeypatch.setattr(run, "IMPORT_PROBE", "import sys")
    monkeypatch.setattr(reference, "ROUNDS", 1)


def tiny_run(workload, trace, seed=3):
    return run.run(workload, seed, 0.0, trace, TINY, log=lambda *a: None)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_printed_with_its_unit(workload, trace):
    result = tiny_run(workload, trace)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])


def test_no_wrapper_stays_after_tracing():
    before = {(m, name): getattr(m, name) for m, names in tracing.TRACED.items() for name in names}
    tiny_run("anomaly", True)
    assert all(getattr(m, name) is fn for (m, name), fn in before.items())


def test_wrappers_are_removed_when_a_call_raises():
    rec = tracing.Recorder()
    with pytest.raises(RuntimeError):
        with rec.installed():
            raise RuntimeError("stop")
    assert rec.wrappers_removed()


def _corrupting(monkeypatch, name, corrupt):
    original = getattr(estimators, name)
    monkeypatch.setattr(estimators, name, lambda *a, **kw: corrupt(original(*a, **kw)))


def test_corrupted_matrix_raises_error_rate(monkeypatch):
    _corrupting(monkeypatch, "divergence_matrix",
                lambda w: estimators.DivergenceMatrix(w.ids, w.values * 1.001, w.config))
    result = tiny_run("ggrid", False)
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"]["success_rate"]["value"] < 1.0


def test_non_finite_cross_matrix_fails(monkeypatch):
    def corrupt(w):
        w = w.copy()
        w[0, 0] = np.nan
        return w
    _corrupting(monkeypatch, "cross_divergence_matrix", corrupt)
    assert tiny_run("anomaly", False)["failed"] > 0


def test_all_zero_l2_matrix_fails(monkeypatch):
    _corrupting(monkeypatch, "divergence_matrix",
                lambda w: estimators.DivergenceMatrix(w.ids, np.zeros_like(w.values), w.config))
    assert tiny_run("highdim", False)["failed"] > 0


def test_digest_mismatch_fails(monkeypatch):
    monkeypatch.setattr(run, "pinned_digests", lambda *a: {"W": "0" * 64})
    assert tiny_run("ggrid", False)["failed"] > 0


def test_pinned_digests_apply_only_at_the_default_seed_and_size():
    assert set(run.pinned_digests("anomaly", run.DEFAULT_SEED, workloads.BENCH,
                                  workloads.BENCH)) == {"W", "Wg"}
    assert run.pinned_digests("anomaly", run.DEFAULT_SEED + 1, workloads.BENCH,
                              workloads.BENCH) == {}
    assert run.pinned_digests("anomaly", run.DEFAULT_SEED, TINY, workloads.BENCH) == {}


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert tracing.tail_percentile(9900) == 99.0
    assert tracing.tail_percentile(10000) == 99.9
    assert tracing.tail_percentile(20) == 50.0
    assert tracing.tail_percentile(40) == 75.0


def test_tail_percentile_does_not_follow_the_rep_count():
    def recorded(reps):
        rec = tracing.Recorder()
        rec.spans = [tracing.Span("knn.kth_nn_cross", -1, f"rep-{r}", 0.0, 1e-3 * (i + 1), 0.0)
                     for r in range(reps) for i in range(300)]
        return tracing.layer_metrics(rec, reps, 1, 1, 0.0)["knn.kth_nn_cross.tail_pct"][0]
    assert recorded(tracing.TAIL_REPS) == recorded(4 * tracing.TAIL_REPS) == 95.0


def test_reference_speed_cancels_a_uniform_slowdown():
    scale = reference.Reference.scale
    assert run.scaled_median([3.0], [scale(0.2, 0.2)]) == pytest.approx(
        run.scaled_median([4.5], [scale(0.3, 0.3)]))


def test_fails_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "divbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "divbench/run.py", "--workload", "ggrid",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
