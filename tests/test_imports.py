"""Import graph: divknn loads numpy and scipy.special, no more.

Every CLI run and every benchmark set-up starts with ``import divknn``,
so a module that only one route or subcommand needs is imported where
it is used:

* ``scipy.spatial`` (which loads ``scipy.linalg``, ``scipy.sparse`` and
  ``scipy.constants``) at the first kd-tree, built for 2 <= d <= 15;
* ``scipy.linalg`` at the Gaussian baseline's first Cholesky solve;
* ``scipy.integrate`` and ``scipy.stats`` by ``verify``, and
  ``scipy.optimize`` by cluster-accuracy scoring.

1-D and d > 15 runs load none of them. Each check runs in a fresh
interpreter, because this test process may already hold these modules.

Inside the package, no module imports another that imports it back,
at module level or in a function: the data model (``dataset``) sits
below the estimators, the baselines and the tasks.
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Loaded only by ``verify`` (scipy.integrate, scipy.stats) and by
# cluster-accuracy scoring (scipy.optimize), or by those in turn.
HEAVY = ("scipy.stats", "scipy.optimize", "scipy.integrate",
         "scipy.interpolate", "scipy.ndimage", "scipy.fft")

# Loaded only by the kd-tree route (scipy.spatial, which brings the other
# two) and the Gaussian baseline (scipy.linalg).
ROUTE_ONLY = ("scipy.spatial", "scipy.linalg", "scipy.sparse")

LOADED = "print(' '.join(sorted(m for m in sys.modules if m.startswith('scipy.'))))"

# The benchmark's call paths and the CLI's other subcommands, on tiny inputs.
CALL_PATHS = textwrap.dedent("""
    import sys, tempfile
    from pathlib import Path
    import numpy as np
    import divknn, divknn.cli, divknn.synth
    from divknn import baselines, cli, dataset, estimators, synth, tasks

    rng = np.random.Generator(np.random.Philox(0))
    renyi = estimators.EstimatorConfig("renyi", alpha=0.5, k=3)
    l2 = estimators.EstimatorConfig("l2", k=3)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for d in (1, 2, 20):
            ds = dataset.Dataset(tuple(
                dataset.Group(f"g{i}", rng.normal(1.0 * i, 1.0, size=(30, d)))
                for i in range(5)))
            dataset.save_dataset(ds, tmp / f"d{d}")
            ds = dataset.load_dataset(tmp / f"d{d}")
            for cfg in (renyi, l2):
                w = estimators.divergence_matrix(ds, cfg, workers=-1)
                dataset.save_matrix(w, tmp / f"w{d}.csv")
                dataset.load_matrix(tmp / f"w{d}.csv")
                tasks.mds_embed(w, 2)
                tasks.spectral_cluster(w, 2, 0)
                wx = estimators.cross_divergence_matrix(ds, ds, cfg, workers=-1)
                wg = baselines.baseline_cross_matrix(ds, ds, cfg)
                scores = tasks.anomaly_scores(ds.ids, wx, 2)
                tasks.auc(scores, [0, 1, 0, 1, 0])
                tasks.auc(tasks.anomaly_scores(ds.ids, wg, 2), [0, 1, 0, 1, 0])
        grid, _, _ = synth.gen_param_grid("ggrid", 0, 20)
        scenario, _, _ = synth.gen_sine_anomaly_scenario(4, 2, 0, 40)
        synth.split_scenario(scenario, 0)
        out = str(tmp / "cli")
        assert cli.main(["synth", "--family", "sine-anom", "--out", out, "--normal", "6",
                         "--anom", "2", "--samples", "40"]) == 0
        assert cli.main(["estimate", "--input", out, "--k", "3",
                         "--out", str(tmp / "m.csv")]) == 0
        assert cli.main(["embed", "--matrix", str(tmp / "m.csv"),
                         "--out", str(tmp / "e.csv"), "--svg", str(tmp / "e.svg")]) == 0
        assert cli.main(["cluster", "--matrix", str(tmp / "m.csv"), "--clusters", "2",
                         "--out", str(tmp / "c.csv")]) == 0
        assert cli.main(["classify", "--input", out, "--labels", out + "/labels.csv",
                         "--k", "3", "--folds", "2", "--kvote", "3",
                         "--out", str(tmp / "p.csv")]) == 0
        assert cli.main(["anomaly", "--train", out, "--test", out, "--k", "3",
                         "--kanom", "2", "--truth", out + "/flags.csv",
                         "--out", str(tmp / "s.csv")]) == 0
    print(" ".join(sorted(m for m in sys.modules if m.startswith("scipy."))))
""")


def _loaded_after(code: str) -> set[str]:
    """The words of the last line that code prints in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_import_loads_no_heavy_scipy_module():
    loaded = _loaded_after("import sys, divknn, divknn.cli, divknn.synth; " + LOADED)
    assert "scipy.special" in loaded
    assert not [m for m in loaded if m.startswith(HEAVY + ROUTE_ONLY)]


def _package_imports(path: Path) -> set[str]:
    """The divknn modules that the module at path imports, anywhere in it."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0:
                if base != "divknn" and not base.startswith("divknn."):
                    continue
                base = base[len("divknn"):].lstrip(".")
            names = [base] if base else [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name[len("divknn."):] for a in node.names
                     if a.name.startswith("divknn.")]
        else:
            continue
        found.update(n.split(".")[0] for n in names)
    return found


def test_package_modules_import_no_cycle():
    package = SRC / "divknn"
    modules = {p.stem for p in package.glob("*.py")} - {"__init__"}
    graph = {m: _package_imports(package / f"{m}.py") & modules for m in modules}
    assert graph["estimators"] >= {"dataset", "knn"}
    assert "estimators" not in graph["dataset"]
    done, path = set(), []

    def visit(m):
        assert m not in path, f"import cycle: {' -> '.join(path[path.index(m):] + [m])}"
        if m in done:
            return
        path.append(m)
        for n in sorted(graph[m]):
            visit(n)
        path.pop()
        done.add(m)

    for m in sorted(modules):
        visit(m)
    # the data model's matrix keeps its names in the package and estimators
    import divknn
    from divknn import dataset, estimators

    assert divknn.DivergenceMatrix is dataset.DivergenceMatrix is estimators.DivergenceMatrix


def test_line_and_high_dimensional_estimates_load_no_route_module():
    # 1-D data take the sorted line and d = 20 the screened brute force:
    # neither builds a kd-tree or fits a Gaussian
    code = textwrap.dedent("""
        import sys, tempfile
        from pathlib import Path
        import numpy as np
        from divknn import cli, dataset
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            assert cli.main(["synth", "--family", "ggrid", "--samples", "40",
                             "--out", str(tmp / "d1")]) == 0
            rng = np.random.Generator(np.random.Philox(0))
            dataset.save_dataset(dataset.Dataset(tuple(
                dataset.Group(f"g{i}", rng.normal(0.3 * i, 1.0, size=(40, 20)))
                for i in range(6))), tmp / "d20")
            for data in ("d1", "d20"):
                for kind in ("renyi", "l2"):
                    assert cli.main(["estimate", "--input", str(tmp / data), "--k", "3",
                                     "--estimator", kind, "--out", str(tmp / "m.csv")]) == 0
    """) + LOADED
    loaded = _loaded_after(code)
    assert "scipy.special" in loaded
    assert not [m for m in loaded if m.startswith(HEAVY + ROUTE_ONLY)]


def test_two_pool_threads_import_the_kd_tree_at_once():
    # the first two 2-D indexes are built by two pool threads released
    # together, so both reach the deferred import of scipy.spatial at
    # once; the matrix must be the one-thread matrix bit for bit
    code = textwrap.dedent("""
        import sys, threading
        import numpy as np
        from divknn import dataset, estimators, knn
        assert "scipy.spatial" not in sys.modules
        rng = np.random.Generator(np.random.Philox(0))
        ds = dataset.Dataset(tuple(
            dataset.Group(f"g{i}", rng.normal(0.5 * i, 1.0, size=(200, 2)))
            for i in range(6)))
        cfg = estimators.EstimatorConfig("renyi", alpha=0.5, k=5)
        barrier = threading.Barrier(2, timeout=60)
        first, real = [], knn.build_index

        def build_index(points):
            if len(first) < 2:
                first.append(threading.get_ident())
                barrier.wait()
            return real(points)

        knn.build_index = build_index
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = estimators.divergence_matrix(ds, cfg, workers=2).values
        finally:
            sys.setswitchinterval(interval)
            knn.build_index = real
        assert len(set(first)) == 2 and not barrier.broken
        assert "scipy.spatial" in sys.modules
        assert np.array_equal(threaded, estimators.divergence_matrix(ds, cfg, workers=1).values)
    """) + LOADED
    assert "scipy.spatial" in _loaded_after(code)


def test_the_gaussian_baseline_loads_linalg_and_keeps_its_errors():
    # the Cholesky solve imports scipy.linalg on first use; a mixture
    # covariance that is not positive definite still raises ConfigError
    code = textwrap.dedent("""
        import sys
        import numpy as np
        from divknn import baselines, dataset, estimators
        from divknn.errors import ConfigError
        assert "scipy.linalg" not in sys.modules
        rng = np.random.Generator(np.random.Philox(0))
        wide, narrow = (dataset.Dataset((dataset.Group(name, rng.normal(0.0, s, size=(50, 1))),))
                        for name, s in (("wide", 1.0), ("narrow", 0.1)))
        cfg = estimators.EstimatorConfig("renyi", alpha=1.5, k=3, symmetrize=False)
        try:
            baselines.baseline_cross_matrix(wide, narrow, cfg)
        except ConfigError as exc:
            assert "from group 'wide' to 'narrow'" in str(exc), exc
            assert "not positive definite" in str(exc), exc
        else:
            raise AssertionError("no ConfigError")
        assert "scipy.linalg" in sys.modules
        ok = estimators.EstimatorConfig("renyi", alpha=0.5, k=3)
        assert baselines.baseline_cross_matrix(wide, narrow, ok).shape == (1, 1)
    """) + LOADED
    assert "scipy.linalg" in _loaded_after(code)


def test_call_paths_load_no_heavy_scipy_module():
    # the saving is removed, not moved into a later call
    loaded = _loaded_after(CALL_PATHS)
    assert not [m for m in loaded if m.startswith(HEAVY)]


def test_verify_and_cluster_truth_load_what_they_need():
    # the two paths that do need the heavy modules still find them
    code = textwrap.dedent(f"""
        import sys
        import numpy as np
        from divknn import cli, tasks
        assert tasks.max_trace(np.eye(3)) == 3.0
        assert "scipy.optimize" in sys.modules
        assert cli.main(["verify", "--seed", "0"]) == 0
        assert "scipy.integrate" in sys.modules and "scipy.stats" in sys.modules
        print("ok")
    """)
    assert _loaded_after(code) == {"ok"}
