#!/usr/bin/env python3
"""Interleaved parent/change runs of divbench, summarized per metric into a BENCH_*.json file.

Make an untouched copy of the parent commit, then run from the root of
the changed checkout:

    mkdir ../parent && git archive <parent-commit> | tar -x -C ../parent
    python3 scripts/bench_pairs.py --parent ../parent --out BENCH_<name>.json

For every workload, or for each one named by ``--workload NAME``
(repeatable), ten pairs each run ``divbench/run.py --workload W
--seed S --seconds T`` once in the parent copy and once in this
checkout, with a fresh seed per pair and ``T`` the ``run_seconds`` of
``BENCHMARK.json``; which side runs first alternates from pair to pair.
A workload's seeds are the same whichever workloads a run includes.
The JSON object that ``run.py`` prints on its last line is the result of
a run. A run that exits non-zero, whose last line is not a JSON object, or
that outlives ``10 T`` plus a minute of set-up is a failed run; its
``how_it_ended`` says which (``failed``, ``malformed`` or ``timed_out``).
Per end-to-end metric of ``BENCHMARK.json`` the output holds both
sides' runs, median, q1 and q3, how many pairs the change won (ties count
for neither), the change's median relative to the parent's and a
verdict. The verdict is ``"unresolved"`` when the parent's interquartile
range, relative to its median, is wider than the metric's bound and not
every change run beats every parent run; otherwise it is ``"within"`` or
``"outside"``, as the change's relative median is within the bound or
not. ``gain`` is true when the change won at least 9 in 10 of the pairs
and its median beats the parent's by more than the parent's q3 - q1:
the rule a claimed gain must meet. Then each side runs seed 0 once untraced, whose ``correct`` flag
says that the matrices match the pinned digests, and once with
``--trace 1`` for the per-layer metrics. The machine record is the one ``run.py`` prints.
Only the standard library is used, and nothing under ``divbench/`` is
changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10  # the benchmark's minimum number of pairs per workload
SETUP_S = 60.0  # allowance for a run's imports and set-up on top of its reps


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: bool,
             timeout: float | None = None) -> dict:
    """One divbench run in checkout; its result object plus the machine record it printed.

    A run that exits non-zero, prints no result object last, or is still
    going after ``timeout`` seconds (default ``10 * seconds + SETUP_S``)
    is a failed run, and ``how_it_ended`` says which of the three it was.
    """
    cmd = [sys.executable, "divbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    if timeout is None:
        timeout = 10 * seconds + SETUP_S

    def failed(how: str, returncode, stderr, **extra) -> dict:
        return {"ok": False, "how_it_ended": how, "returncode": returncode,
                "stderr": stderr[-2000:], **extra}

    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # its output is bytes even with text=True
        return failed("timed_out", None, (exc.stderr or b"").decode(errors="replace"))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return failed("failed", proc.returncode, proc.stderr)
    try:
        result = json.loads(lines[-1])
        machine = next((json.loads(line)["machine"] for line in lines
                        if line.startswith('{"machine"')), None)
    except (ValueError, KeyError, TypeError):
        result = None
    if not (isinstance(result, dict) and "metrics" in result):
        return failed("malformed", proc.returncode, proc.stderr, last_line=lines[-1][-2000:])
    return {"ok": True, "result": result, "machine": machine}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def verdict(parent: dict, change: dict, sign: float, bound: float, worse: float) -> str:
    """'unresolved' if the parent's relative IQR exceeds bound and the change does not win
    every run against every run; else 'within' or 'outside' the bound."""
    iqr = (parent["q3"] - parent["q1"]) / abs(parent["median"] or 1.0)
    beats_all = min(sign * c for c in change["runs"]) > max(sign * p for p in parent["runs"])
    if iqr > bound and not beats_all:
        return "unresolved"
    return "within" if worse <= bound else "outside"


def summarize(pairs: list[dict], declared: list[dict]) -> dict:
    """Per declared metric: both sides' spread, the change's wins, its relative median, the
    verdict against the bound and whether the change is a gain."""
    out = {}
    for m in declared:
        name, sign = m["name"], (1.0 if m["better"] == "higher" else -1.0)
        got = [(p["parent"]["result"]["metrics"][name]["value"],
                p["change"]["result"]["metrics"][name]["value"])
               for p in pairs if p["parent"]["ok"] and p["change"]["ok"]]
        if len(got) < 2:  # quartiles need two runs a side
            continue
        parent, change = spread([a for a, _ in got]), spread([b for _, b in got])
        worse = sign * (parent["median"] - change["median"]) / abs(parent["median"] or 1.0)
        wins = sum(sign * (b - a) > 0 for a, b in got)
        beats_by = sign * (change["median"] - parent["median"])
        out[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent": parent, "change": change,
            "change_wins": wins, "pairs": len(got),
            "change_worse_by": worse,
            "verdict": verdict(parent, change, sign, m["bound"], worse),
            "gain": 10 * wins >= 9 * len(got) and beats_by > parent["q3"] - parent["q1"],
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--out", required=True, type=Path, help="output BENCH_*.json path")
    ap.add_argument("--first-seed", type=int, default=1, help="seed of the first pair")
    ap.add_argument("--workload", action="append", dest="workloads", metavar="NAME",
                    help="a workload of BENCHMARK.json to run (repeatable; default all)")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [wl["name"] for wl in bench["workloads"]]
    unknown = sorted(set(args.workloads or ()) - set(names))
    if unknown:
        ap.error(f"unknown workload {', '.join(unknown)}; BENCHMARK.json has {', '.join(names)}")
    seconds = bench["run_seconds"]
    checkouts = {"parent": args.parent.resolve(), "change": ROOT}
    report = {"seconds": seconds, "pairs": PAIRS, "machine": None, "workloads": {}}
    for w, name in enumerate(names):
        if args.workloads and name not in args.workloads:
            continue
        seeds = [args.first_seed + w * PAIRS + i for i in range(PAIRS)]
        pairs, firsts = [], []
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {}
            for side in order:
                pair[side] = run_once(checkouts[side], name, seed, seconds, False)
                report["machine"] = report["machine"] or pair[side].get("machine")
            pairs.append(pair)
            firsts.append(order[0])
            print(f"{time.strftime('%H:%M:%S')} {name} seed {seed}: "
                  + " ".join(f"{s} wall_s={pair[s]['result']['metrics']['wall_s']['value']:.4f}"
                             if pair[s]["ok"] else f"{s} {pair[s]['how_it_ended']}"
                             for s in SIDES), flush=True)
        seed0 = {s: run_once(checkouts[s], name, 0, seconds, False) for s in SIDES}
        traced = {s: run_once(checkouts[s], name, 0, seconds, True) for s in SIDES}
        report["workloads"][name] = {
            "seeds": seeds,
            "first": firsts,
            "failed_runs": {s: sum(not p[s]["ok"] for p in pairs) for s in SIDES},
            "metrics": summarize(pairs, bench["end_to_end"]),
            "seed0_correct": {s: seed0[s]["ok"] and seed0[s]["result"]["correct"] for s in SIDES},
            "seed0_traced": {s: ({k: v["value"] for k, v in traced[s]["result"]["metrics"].items()}
                                 if traced[s]["ok"] else None) for s in SIDES},
        }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for name, wl in report["workloads"].items():
        for metric, m in wl["metrics"].items():
            print(f"{name} {metric}: {m['parent']['median']:.4g} -> {m['change']['median']:.4g} "
                  f"{m['unit']}, change won {m['change_wins']}/{m['pairs']}, "
                  f"{m['verdict']}, gain {m['gain']}")
        print(f"{name} seed-0 correct: {wl['seed0_correct']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
