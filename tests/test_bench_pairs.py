"""scripts/bench_pairs.py: how each run against a stub checkout ended, the
gain flag summarize gives synthetic pairs, and the workloads a run covers."""

import importlib.util
import json
import time
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stub_checkout(root: Path, body: str) -> Path:
    """A checkout whose divbench/run.py is body."""
    (root / "divbench").mkdir(parents=True)
    (root / "divbench" / "run.py").write_text(body)
    return root


def test_a_result_line_is_a_run(bench_pairs, tmp_path):
    result = {"metrics": {"wall_s": {"value": 0.5}}, "correct": True}
    body = ("import json\n"
            "print(json.dumps({'machine': {'cpus': 2}}))\n"
            f"print(json.dumps({result!r}))\n")
    got = bench_pairs.run_once(_stub_checkout(tmp_path, body), "ggrid", 0, 1.0, False)
    assert got == {"ok": True, "result": result, "machine": {"cpus": 2}}


@pytest.mark.parametrize("last", ["Traceback (most recent call last):", "[1, 2]", '{"x": 1}'])
def test_a_last_line_that_is_no_result_is_a_malformed_run(bench_pairs, tmp_path, last):
    body = f"print({json.dumps({'metrics': {}})!r})\nprint({last!r})\n"
    got = bench_pairs.run_once(_stub_checkout(tmp_path, body), "ggrid", 0, 1.0, False)
    assert got["ok"] is False
    assert got["how_it_ended"] == "malformed"
    assert got["returncode"] == 0
    assert got["last_line"] == last


def test_a_non_zero_exit_is_a_failed_run(bench_pairs, tmp_path):
    body = "import sys\nprint('{}')\nsys.exit('broken')\n"
    got = bench_pairs.run_once(_stub_checkout(tmp_path, body), "ggrid", 0, 1.0, False)
    assert (got["ok"], got["how_it_ended"], got["returncode"]) == (False, "failed", 1)
    assert "broken" in got["stderr"]


def test_a_run_past_its_timeout_is_stopped_and_recorded(bench_pairs, tmp_path):
    body = ("import sys, time\n"
            "print('starting', file=sys.stderr, flush=True)\n"
            "time.sleep(60)\n")
    start = time.perf_counter()
    got = bench_pairs.run_once(_stub_checkout(tmp_path, body), "ggrid", 0, 1.0, False,
                               timeout=2.0)
    assert time.perf_counter() - start < 30
    assert (got["ok"], got["how_it_ended"], got["returncode"]) == (False, "timed_out", None)
    assert isinstance(got["stderr"], str)


def test_the_default_timeout_is_generous(bench_pairs, tmp_path, monkeypatch):
    seen = {}

    def fake_run(cmd, **kwargs):
        seen.update(kwargs)
        raise bench_pairs.subprocess.TimeoutExpired(cmd, kwargs["timeout"])

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    got = bench_pairs.run_once(tmp_path, "ggrid", 0, 20.0, False)
    assert got["how_it_ended"] == "timed_out" and got["stderr"] == ""
    assert seen["timeout"] == 10 * 20.0 + bench_pairs.SETUP_S


# Ten parent runs 1.00 ... 1.09: median 1.045, q3 - q1 = 0.045.
_PARENT = [1.0 + i / 100 for i in range(10)]


def _pairs(parent, change, name="wall_s"):
    def side(value):
        return {"ok": True, "result": {"metrics": {name: {"value": value}}}}

    return [{"parent": side(a), "change": side(b)} for a, b in zip(parent, change)]


@pytest.mark.parametrize("better, change, wins, gain", [
    # 10/10 wins, median better by 0.2, past the parent's IQR
    ("lower", [p - 0.2 for p in _PARENT], 10, True),
    # 9/10 wins past the IQR
    ("lower", [p - 0.2 for p in _PARENT[:9]] + [_PARENT[9] + 0.01], 9, True),
    # 9/10 wins, median better by 0.01, inside the IQR
    ("lower", [p - 0.01 for p in _PARENT[:9]] + [_PARENT[9] + 0.01], 9, False),
    # 8/10 wins past the IQR
    ("lower", [p - 0.2 for p in _PARENT[:8]] + [p + 0.01 for p in _PARENT[8:]], 8, False),
    # 8 wins and 2 ties: a tie counts for neither side
    ("lower", [p - 0.2 for p in _PARENT[:8]] + _PARENT[8:], 8, False),
    # a higher-is-better metric
    ("higher", [p + 0.2 for p in _PARENT], 10, True),
    ("higher", [p - 0.2 for p in _PARENT], 0, False),
])
def test_gain_needs_nine_in_ten_wins_and_a_median_past_the_parents_iqr(
        bench_pairs, better, change, wins, gain):
    declared = [{"name": "wall_s", "unit": "s", "better": better, "bound": 0.25}]
    got = bench_pairs.summarize(_pairs(_PARENT, change), declared)["wall_s"]
    assert (got["change_wins"], got["pairs"], got["gain"]) == (wins, 10, gain)


def test_a_run_restricted_to_one_workload_writes_only_that_workload(
        bench_pairs, tmp_path, monkeypatch):
    declared = json.loads((_SCRIPT.parent.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": 1.0} for m in declared["end_to_end"]}
    ran = []

    def fake_run(checkout, workload, seed, seconds, trace, timeout=None):
        ran.append((workload, seed))
        return {"ok": True, "result": {"metrics": metrics, "correct": True}, "machine": None}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(tmp_path), "--out", str(out),
                             "--workload", "highdim"]) == 0
    report = json.loads(out.read_text())
    assert list(report["workloads"]) == ["highdim"]
    assert {w for w, _ in ran} == {"highdim"}
    # the seeds a run of every workload gives highdim
    first = 1 + [w["name"] for w in declared["workloads"]].index("highdim") * bench_pairs.PAIRS
    assert report["workloads"]["highdim"]["seeds"] == list(range(first, first + bench_pairs.PAIRS))
    with pytest.raises(SystemExit):
        bench_pairs.main(["--parent", str(tmp_path), "--out", str(out), "--workload", "nope"])
