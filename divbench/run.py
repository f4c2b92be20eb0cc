#!/usr/bin/env python3
"""divknn benchmark: one workload per process, timed end to end or traced per module.

Run from the root of a checkout:

    python3 divbench/run.py --workload ggrid --seed 0 --seconds 20 --trace 0

Set-up imports divknn from ``src/`` in a fresh interpreter, makes the
workload's groups from the seed and writes them as CSV; it runs five
times and ``setup_s`` is the median. Then reps of the workload's pipeline run
until ``--seconds`` have passed (at least one rep), each timed from
load through the last task. After every rep the outputs are checked;
after the last one a seeded sample of matrix entries is recomputed by
brute force. At the default seed the matrix digests must equal the
ones pinned in ``digests.json``.

Every set-up and rep is timed between two runs of a fixed reference task
(``reference.py``), and the time metrics are medians of seconds scaled to
reference speed, so that a slowdown of the whole machine cancels. The
measured seconds are printed beside them.

With ``--trace 0`` the last line of standard output is a JSON object
holding the end-to-end metrics (medians over reps). With ``--trace 1``
the same set-up and reps run with span-recording wrappers installed
around the library's public functions, then the wrappers are removed
and as many untraced reps run again; the JSON holds the per-module
metrics, and the spans go to ``.bench_out/``. The machine is printed
beside every result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_SEED = 0
SETUPS = 5
IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import divknn, divknn.synth"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def import_divknn():
    """Import divknn from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "divknn" / "__init__.py").is_file():
        raise SystemExit(f"divbench: no divknn package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    module = importlib.import_module("divknn")
    if Path(module.__file__).resolve().parent != src / "divknn":
        raise SystemExit(f"divbench: divknn imported from {module.__file__}, not {src}")


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine() -> dict:
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {k: os.environ[k] for k in BLAS_VARS if k in os.environ},
        "loadavg_start": _loadavg(),
    }


def run_setups(wl, seed, workdir, size, ref, recorder):
    """Time SETUPS set-ups: a fresh interpreter importing divknn, then the workload's set-up.

    Returns the inputs, and each set-up's seconds with the factor that
    scales it to reference speed.
    """
    times, scales = [], []
    before = ref.time()
    for i in range(SETUPS):
        if recorder is not None:
            recorder.phase = f"setup-{i}"
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                       check=True, timeout=120)
        inputs = wl.setup(seed, workdir, size)
        times.append(time.perf_counter() - t0)
        after = ref.time()
        scales.append(ref.scale(before[0], after[0]))
        before = after
    return inputs, (times, scales)


def run_reps(wl, inputs, seed, ledger, expected, ref, seconds, min_reps=1, recorder=None):
    """Run reps until ``seconds`` have passed and at least ``min_reps`` ran.

    Outputs are checked after each rep, outside its timing. Returns the
    per-rep wall and CPU seconds, the factors that scale each to
    reference speed, and the first rep's outputs.
    """
    walls, cpus, wall_scales, cpu_scales, first = [], [], [], [], None
    deadline = time.perf_counter() + seconds
    before = ref.time()
    while True:
        if recorder is not None:
            recorder.phase = f"rep-{len(walls)}"
        out: dict = {}
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            wl.run(inputs, out, seed)
        except Exception:  # a failed call is counted by the checks below, not fatal
            traceback.print_exc()
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        after = ref.time()
        cpu_scales.append(ref.scale(before[0], after[0]))
        wall_scales.append(ref.scale(before[1], after[1]))
        before = after
        wl.check(inputs, out, ledger, expected)
        first = out if first is None else first
        if len(walls) >= min_reps and time.perf_counter() >= deadline:
            return (walls, wall_scales), (cpus, cpu_scales), first


def scaled_median(seconds, scales) -> float:
    """Median of measured seconds, each scaled to reference speed."""
    return statistics.median(t * f for t, f in zip(seconds, scales))


def pinned_digests(workload, seed, size, sizes_default) -> dict:
    if seed != DEFAULT_SEED or size != sizes_default:
        return {}
    return dict(json.loads((BENCH_DIR / "digests.json").read_text()).get(workload, {}))


def run(workload, seed, seconds, trace, size=None, log=print) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    import_divknn()
    import checks
    import reference
    import workloads
    size = size or workloads.BENCH
    wl = workloads.WORKLOADS[workload]
    info = machine()
    ledger = checks.Ledger()
    expected = pinned_digests(workload, seed, size, workloads.BENCH)
    workdir = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    ref = reference.Reference(-1 if wl.parallel else 1)
    recorder = None
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        if trace:
            import tracing
            recorder = tracing.Recorder()
            with recorder.installed():
                inputs, setups = run_setups(wl, seed, workdir, size, ref, recorder)
                walls, cpus, first = run_reps(wl, inputs, seed, ledger, expected, ref,
                                              seconds, tracing.TAIL_REPS, recorder)
            ledger.check(recorder.wrappers_removed(), "tracing wrappers still installed")
            plain, _, _ = run_reps(wl, inputs, seed, ledger, expected, ref, 0.0, len(walls[0]))
        else:
            inputs, setups = run_setups(wl, seed, workdir, size, ref, None)
            walls, cpus, first = run_reps(wl, inputs, seed, ledger, expected, ref, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wl.spot(inputs, first, ledger, seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info["loadavg_end"] = _loadavg()

    reps = len(walls[0])
    wall = scaled_median(*walls)
    if trace:
        metrics = tracing.layer_metrics(recorder, reps, SETUPS, inputs.pairs,
                                        wall - scaled_median(*plain))
        for line in tracing.self_time_table(recorder, reps, SETUPS):
            log(line)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"{workload}-seed{seed}-spans.json"
        spans_path.write_text(json.dumps({
            "workload": workload, "seed": seed, "machine": info,
            "reps": reps, "setups": SETUPS,
            "kth_nn_cross_samples": sum(s.name == "knn.kth_nn_cross" for s in recorder.spans),
            "spans": [vars(s) for s in recorder.spans]}))
        log(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = {
            "wall_s": (wall, "s"),
            "pairs_per_s": (inputs.pairs / wall, "1/s"),
            "cpu_s": (scaled_median(*cpus), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (scaled_median(*setups), "s"),
            "success_rate": (1.0 - ledger.failed / ledger.attempted, "ratio"),
        }
    log(json.dumps({"machine": info}))
    log(f"{workload} seed={seed} reps={reps} setups={SETUPS} pairs/rep={inputs.pairs} "
        f"attempted={ledger.attempted} failed={ledger.failed} "
        f"error_rate={ledger.failed / ledger.attempted:.6g}")
    for what, (measured, scales) in (("rep wall_s", walls), ("rep cpu_s", cpus),
                                     ("setup_s", setups)):
        log(f"{what}, measured: " + " ".join(f"{t:.4f}" for t in measured))
        log(f"{what}, reference speed: " + " ".join(f"{t * f:.4f}"
                                                    for t, f in zip(measured, scales)))
    for key, value in expected.items():
        if isinstance(value, str):
            log(f"matrix {key} sha256 {value}")
    for note in ledger.notes:
        log(f"FAILED: {note}")
    for name, (value, unit) in metrics.items():
        log(f"{name} = {value:.6g} {unit}")
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=("ggrid", "anomaly", "highdim"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
