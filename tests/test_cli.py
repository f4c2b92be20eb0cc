"""End-to-end CLI behavior: pipelines, file formats, exit codes, determinism."""

import csv

import numpy as np
import pytest

from divknn import dataset as dsm
from divknn.cli import main, scatter_transform


def run(*argv):
    return main(list(argv))


def _synth_sine(tmp_path, **kw):
    out = tmp_path / "sine"
    args = ["synth", "--family", "sine", "--out", str(out),
            "--seed", "0", "--groups", "6", "--samples", "120"]
    assert run(*args) == 0
    return out


# ---------------------------------------------------------------------------
# Pipelines.

def test_synth_writes_dataset_and_params(tmp_path, capsys):
    out = _synth_sine(tmp_path)
    ds = dsm.load_dataset(out)
    assert len(ds) == 6
    assert ds.groups[0].size == 120
    names, params = dsm.load_params(out / "params.csv")
    assert names == ("theta",)
    assert set(params) == set(ds.ids)
    assert "wrote" in capsys.readouterr().out


def test_synth_anomaly_writes_flags_and_labels(tmp_path):
    out = tmp_path / "anom"
    assert run("synth", "--family", "sine-anom", "--out", str(out),
               "--seed", "1", "--normal", "4", "--anom", "2",
               "--samples", "80") == 0
    flags = dsm.load_labels(out / "flags.csv")
    assert sum(v == "1" for v in flags.values()) == 2
    ds = dsm.load_dataset(out)
    assert ds.require_labels().count("anomaly") == 2


def test_estimate_embed_svg_pipeline(tmp_path, capsys):
    data = _synth_sine(tmp_path)
    w = tmp_path / "w.csv"
    assert run("estimate", "--input", str(data), "--out", str(w),
               "--k", "5") == 0
    matrix = dsm.load_matrix(w)
    assert matrix.ids == dsm.load_dataset(data).ids
    assert np.array_equal(matrix.values, matrix.values.T)

    coords = tmp_path / "emb.csv"
    svg = tmp_path / "emb.svg"
    assert run("embed", "--matrix", str(w), "--dims", "2",
               "--out", str(coords), "--svg", str(svg),
               "--color-by", str(data / "params.csv")) == 0
    text = svg.read_text()
    assert text.startswith('<?xml version="1.0"')
    assert text.count("<circle") == 6
    assert 'fill="rgb(' in text
    lines = coords.read_text().splitlines()
    assert lines[0] == "id,c0,c1"
    assert len(lines) == 7


def test_estimate_gaussian_baseline(tmp_path):
    data = _synth_sine(tmp_path)
    w = tmp_path / "wg.csv"
    assert run("estimate", "--input", str(data), "--out", str(w),
               "--baseline", "gaussian") == 0
    assert dsm.load_matrix(w).values.max() > 0


def test_gaussian_baseline_fit_error_names_the_group(tmp_path, capsys):
    data = tmp_path / "tiny"
    data.mkdir()
    (data / "a.csv").write_text("1.0\n")
    (data / "b.csv").write_text("0.5\n1.5\n2.0\n")
    assert run("estimate", "--input", str(data), "--out", str(tmp_path / "w.csv"),
               "--baseline", "gaussian") == 1
    assert ("error: group 'a': gaussian fit needs at least 2 points, got 1"
            in capsys.readouterr().err)


def test_gaussian_baseline_pair_error_names_both_groups(tmp_path, capsys):
    # at alpha = 1.5 the mixed covariance of b's and a's fits is not
    # positive definite, so the closed form from b to a has no value
    from divknn.dataset import Dataset, Group
    rng = np.random.default_rng(0)
    data = tmp_path / "crossed"
    dsm.save_dataset(Dataset(tuple(
        Group(g, rng.normal(size=(50, 2)) * scale)
        for g, scale in (("a", (1.0, 1.0)), ("b", (1.0, 30.0)), ("c", (30.0, 1.0))))), data)
    assert run("estimate", "--input", str(data), "--out", str(tmp_path / "w.csv"),
               "--baseline", "gaussian", "--alpha", "1.5") == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert errors == ["error: from group 'b' to 'a': mixed covariance is not positive definite"]


def _class_dataset(tmp_path, seed=0):
    from divknn import synth
    ds, _ = synth.gen_gaussian_classes(seed=seed, n_classes=2,
                                       groups_per_class=4,
                                       samples_per_group=60, std=0.5)
    # push the second class out to mean 3 so tiny groups still separate
    from divknn.dataset import Dataset, Group
    spread = Dataset(tuple(
        Group(g.id, g.points + (2.0 if g.label == "c1" else 0.0), g.label)
        for g in ds.groups
    ))
    out = tmp_path / "classes"
    dsm.save_dataset(spread, out)
    return out


def test_cluster_and_classify(tmp_path, capsys):
    data = _class_dataset(tmp_path)
    w = tmp_path / "w.csv"
    assert run("estimate", "--input", str(data), "--out", str(w),
               "--k", "5") == 0
    capsys.readouterr()

    assign = tmp_path / "clusters.csv"
    assert run("cluster", "--matrix", str(w), "--clusters", "2",
               "--out", str(assign), "--truth",
               str(data / "labels.csv")) == 0
    out = capsys.readouterr().out
    assert "trace accuracy: 1.000000" in out
    assert assign.read_text().splitlines()[0] == "id,cluster"

    preds = tmp_path / "preds.csv"
    assert run("classify", "--input", str(data), "--labels",
               str(data / "labels.csv"), "--folds", "4", "--kvote", "3",
               "--k", "5", "--out", str(preds)) == 0
    out = capsys.readouterr().out
    assert "cv accuracy: 1.000000" in out


def test_anomaly_scores_and_auc(tmp_path, capsys):
    from divknn import synth
    ds, _, _ = synth.gen_sine_anomaly_scenario(8, 3, seed=4,
                                               samples_per_group=100)
    train, test = synth.split_scenario(ds, seed=4)
    train_dir, test_dir = tmp_path / "train", tmp_path / "test"
    dsm.save_dataset(train, train_dir)
    dsm.save_dataset(test, test_dir)
    flags = tmp_path / "flags.csv"
    dsm.save_labels(flags, synth.anomaly_flags(test), "flag")

    scores = tmp_path / "scores.csv"
    assert run("anomaly", "--train", str(train_dir), "--test", str(test_dir),
               "--k", "5", "--kanom", "2", "--out", str(scores),
               "--truth", str(flags)) == 0
    out = capsys.readouterr().out
    assert "auc: " in out
    lines = scores.read_text().splitlines()
    assert lines[0] == "id,score"
    assert len(lines) == len(test) + 1


def test_verify_runs_clean(capsys):
    assert run("verify") == 0
    out = capsys.readouterr().out
    assert "58/58 checks passed" in out


# ---------------------------------------------------------------------------
# Determinism: identical flags, identical bytes.

def test_rerun_is_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert run("synth", "--family", "ggrid", "--out", str(out),
                   "--seed", "7", "--samples", "40") == 0
    for name in sorted(p.name for p in a.iterdir()):
        assert (a / name).read_bytes() == (b / name).read_bytes()

    wa, wb = tmp_path / "wa.csv", tmp_path / "wb.csv"
    for out in (wa, wb):
        assert run("estimate", "--input", str(a), "--out", str(out),
                   "--k", "3") == 0
    assert wa.read_bytes() == wb.read_bytes()

    for svg, coords in ((tmp_path / "s1.svg", tmp_path / "c1.csv"),
                        (tmp_path / "s2.svg", tmp_path / "c2.csv")):
        assert run("embed", "--matrix", str(wa), "--out", str(coords),
                   "--svg", str(svg)) == 0
    assert (tmp_path / "s1.svg").read_bytes() == (tmp_path / "s2.svg").read_bytes()
    assert (tmp_path / "c1.csv").read_bytes() == (tmp_path / "c2.csv").read_bytes()


# ---------------------------------------------------------------------------
# Exit codes.

def test_missing_input_exits_1(tmp_path):
    assert run("estimate", "--input", "/nonexistent", "--out",
               str(tmp_path / "w.csv")) == 1


def test_bad_flag_exits_1(tmp_path):
    assert run("estimate", "--input", ".", "--estimator", "hellinger",
               "--out", str(tmp_path / "w.csv")) == 1


def test_invalid_k_exits_1(tmp_path):
    data = _synth_sine(tmp_path)
    assert run("estimate", "--input", str(data), "--k", "1",
               "--out", str(tmp_path / "w.csv")) == 1


def test_svg_needs_two_dims(tmp_path):
    data = _synth_sine(tmp_path)
    w = tmp_path / "w.csv"
    assert run("estimate", "--input", str(data), "--out", str(w),
               "--k", "5") == 0
    assert run("embed", "--matrix", str(w), "--dims", "3",
               "--out", str(tmp_path / "c.csv"),
               "--svg", str(tmp_path / "c.svg")) == 1
    assert not (tmp_path / "c.csv").exists()


def test_degenerate_duplicates_exit_2_and_dedup_rescues(tmp_path):
    f = tmp_path / "dup.csv"
    rows = ["a,0.0", "a,0.0", "a,0.0", "a,0.5", "a,2.0", "a,7.0"]
    rows += [f"b,{v}" for v in ("1.0", "3.0", "4.0", "5.5")]
    f.write_text("\n".join(rows) + "\n")
    out = tmp_path / "w.csv"
    assert run("estimate", "--input", str(f), "--k", "2",
               "--out", str(out)) == 2
    assert run("estimate", "--input", str(f), "--k", "2", "--dedup",
               "--out", str(out)) == 0


def test_non_finite_l2_estimate_exits_2(tmp_path):
    # d = 80, sigma = 1e4: the L2 estimate (about 1e-364) underflows
    # float64 even after rescaling
    rng = np.random.Generator(np.random.Philox(80))
    x = rng.normal(0.0, 1e4, size=(300, 80))
    y = rng.normal(0.0, 1e4, size=(300, 80))
    y[:, 0] += 5e4
    data = tmp_path / "far"
    dsm.save_dataset(dsm.Dataset((dsm.Group("x", x), dsm.Group("y", y))), data)
    out = tmp_path / "w.csv"
    with np.errstate(all="ignore"):
        code = run("estimate", "--input", str(data), "--estimator", "l2",
                   "--k", "5", "--out", str(out))
    assert code == 2
    assert not out.exists()


def _anomaly_split(tmp_path, train, test):
    train_dir, test_dir = tmp_path / "train", tmp_path / "test"
    dsm.save_dataset(train, train_dir)
    dsm.save_dataset(test, test_dir)
    return ["anomaly", "--train", str(train_dir), "--test", str(test_dir),
            "--k", "3", "--kanom", "1", "--out", str(tmp_path / "s.csv")]


@pytest.mark.parametrize("baseline", ["none", "gaussian"])
def test_anomaly_dimension_mismatch_exits_1(tmp_path, baseline):
    rng = np.random.Generator(np.random.Philox(5))
    train = dsm.Dataset((dsm.Group("a", rng.normal(size=(20, 2))),))
    test = dsm.Dataset((dsm.Group("t", rng.normal(size=(20, 1))),))
    assert run(*_anomaly_split(tmp_path, train, test), "--baseline", baseline) == 1


def test_anomaly_dedup_rescues_duplicates(tmp_path):
    rng = np.random.Generator(np.random.Philox(6))
    train = dsm.Dataset((dsm.Group("a", rng.normal(size=(20, 1))),
                         dsm.Group("b", rng.normal(size=(20, 1)))))
    test = dsm.Dataset((dsm.Group("t", np.repeat(rng.normal(size=(5, 1)), 4, axis=0)),))
    argv = _anomaly_split(tmp_path, train, test)
    assert run(*argv) == 2
    assert run(*argv, "--dedup") == 0


def test_unsymmetrized_anomaly_takes_a_train_group_of_k_points(tmp_path, capsys):
    # not symmetrized, a train group is only ever a reference: it needs
    # k points for nu_k, not the k + 1 of a rho_k
    rng = np.random.Generator(np.random.Philox(7))
    train = dsm.Dataset((dsm.Group("big", rng.normal(size=(30, 2))),
                         dsm.Group("small", rng.normal(size=(5, 2)))))
    test = dsm.Dataset(tuple(dsm.Group(f"t{i}", rng.normal(0.5 * i, 1.0, size=(30, 2)))
                             for i in range(3)))
    argv = _anomaly_split(tmp_path, train, test)
    argv[argv.index("--k") + 1] = "5"
    assert run(*argv, "--symmetrize", "false") == 0
    with open(tmp_path / "s.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [r[0] for r in rows] == ["id", "t0", "t1", "t2"]
    capsys.readouterr()
    assert run(*argv) == 1
    assert capsys.readouterr().err == (
        "error: group 'small': within-sample k-NN with k=5 needs at least 6 points, got 5\n")


def test_flat_matrix_cluster_exits_2(tmp_path):
    n = 9
    ids = [f"g{i}" for i in range(n)]
    lines = ["id," + ",".join(ids)]
    lines += [gid + ",0" * n for gid in ids]
    f = tmp_path / "flat.csv"
    f.write_text("\n".join(lines) + "\n")
    assert run("cluster", "--matrix", str(f), "--clusters", "2",
               "--out", str(tmp_path / "c.csv")) == 2


def test_single_class_truth_exits_2(tmp_path):
    from divknn import synth
    ds, _, _ = synth.gen_sine_anomaly_scenario(6, 2, seed=5,
                                               samples_per_group=80)
    train, test = synth.split_scenario(ds, seed=5)
    train_dir, test_dir = tmp_path / "train", tmp_path / "test"
    dsm.save_dataset(train, train_dir)
    dsm.save_dataset(test, test_dir)
    flags = tmp_path / "flags.csv"
    dsm.save_labels(flags, {gid: "0" for gid in test.ids}, "flag")
    assert run("anomaly", "--train", str(train_dir), "--test", str(test_dir),
               "--k", "5", "--kanom", "2", "--out", str(tmp_path / "s.csv"),
               "--truth", str(flags)) == 2


# ---------------------------------------------------------------------------
# Unreadable or incomplete input files: exit 1 with one error line.

_BLOCKS = "id,a,b,c,d\na,0,0.1,2,2\nb,0.1,0,2,2\nc,2,2,0,0.1\nd,2,2,0.1,0\n"


def _one_error_line(capsys, code):
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    return err.strip()


def _group_dir(tmp_path, b: bytes):
    d = tmp_path / "d"
    d.mkdir()
    (d / "a.csv").write_text("1.0\n2.0\n3.5\n")
    (d / "b.csv").write_bytes(b)
    return d


def _cluster_truth(tmp_path, truth: bytes):
    (tmp_path / "w.csv").write_text(_BLOCKS)
    (tmp_path / "truth.csv").write_bytes(truth)
    return run("cluster", "--matrix", str(tmp_path / "w.csv"), "--clusters", "2",
               "--out", str(tmp_path / "c.csv"), "--truth", str(tmp_path / "truth.csv"))


def test_a_field_past_the_csv_limit_exits_1_naming_the_file(tmp_path, capsys):
    long = "2" * (csv.field_size_limit() + 1)
    past = f"field larger than field limit ({csv.field_size_limit()})"
    w = str(tmp_path / "w.csv")

    d = _group_dir(tmp_path, f"1.0\n{long}\n".encode())
    assert _one_error_line(capsys, run("estimate", "--input", str(d), "--k", "2", "--out", w)) \
        == f"error: group 'b' (b.csv): row 2: {past}"

    single = tmp_path / "data.csv"
    single.write_text(f"a,1.0\na,2.0\nb,{long}\n")
    assert _one_error_line(capsys, run("estimate", "--input", str(single), "--k", "2", "--out", w)) \
        == f"error: data.csv: row 3: {past}"

    assert _one_error_line(capsys, _cluster_truth(tmp_path, f"id,label\na,{long}\n".encode())) \
        == f"error: truth.csv: row 2: {past}"


def test_bytes_that_are_not_utf8_exit_1_naming_the_file(tmp_path, capsys):
    d = _group_dir(tmp_path, b"1.0\n2.\xff0\n")
    err = _one_error_line(capsys, run("estimate", "--input", str(d), "--k", "2",
                                      "--out", str(tmp_path / "w.csv")))
    assert err.startswith("error: group 'b' (b.csv): 'utf-8' codec can't decode byte 0xff")
    err = _one_error_line(capsys, _cluster_truth(tmp_path, b"id,label\na,\xff\n"))
    assert err.startswith("error: truth.csv: 'utf-8' codec can't decode byte 0xff")


def test_metadata_that_lacks_ids_exits_1_naming_them(tmp_path, capsys):
    partial = b"id,label\nb,x\nd,y\n"
    assert _one_error_line(capsys, _cluster_truth(tmp_path, partial)) \
        == "error: truth file lacks ids: a, c"

    (tmp_path / "params.csv").write_text("id,theta\na,1.0\n")
    assert _one_error_line(capsys, run(
        "embed", "--matrix", str(tmp_path / "w.csv"), "--out", str(tmp_path / "e.csv"),
        "--svg", str(tmp_path / "e.svg"), "--color-by", str(tmp_path / "params.csv"))) \
        == "error: params file lacks ids: b, c, d"

    d = _group_dir(tmp_path, b"0.5\n1.5\n4.0\n")
    (tmp_path / "flags.csv").write_text("id,flag\nb,1\n")
    assert _one_error_line(capsys, run(
        "anomaly", "--train", str(d), "--test", str(d), "--k", "2", "--kanom", "1",
        "--out", str(tmp_path / "s.csv"), "--truth", str(tmp_path / "flags.csv"))) \
        == "error: flags file lacks ids: a"


def test_repeated_ids_exit_1_naming_the_id(tmp_path, capsys):
    # a truth file with a conflicting duplicate would change the printed
    # accuracy, and a matrix whose header repeats an id would write two
    # rows under one name
    assert _one_error_line(capsys, _cluster_truth(tmp_path, b"id,label\na,x\nb,x\na,y\n")) \
        == "error: truth.csv: id 'a' repeats in rows 2 and 4"

    (tmp_path / "dup.csv").write_text("id,a,a,b\na,0,1,2\na,1,0,2\nb,2,2,0\n")
    out = tmp_path / "e.csv"
    assert _one_error_line(capsys, run("embed", "--matrix", str(tmp_path / "dup.csv"),
                                       "--dims", "1", "--out", str(out))) \
        == "error: dup.csv: id 'a' repeats in header columns 2 and 3"
    assert not out.exists()


# ---------------------------------------------------------------------------
# SVG coordinate mapping.

@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
def test_a_non_finite_alpha_exits_1_naming_alpha(tmp_path, capsys, alpha):
    d = _synth_sine(tmp_path)
    capsys.readouterr()
    w = str(tmp_path / "w.csv")
    assert _one_error_line(capsys, run("estimate", "--input", str(d), "--k", "5",
                                       f"--alpha={alpha}", "--out", w)) \
        == f"error: alpha must be a finite real number for the renyi estimator, got {alpha}"
    # the L2 estimator takes no alpha
    assert run("estimate", "--input", str(d), "--k", "3", "--estimator", "l2",
               f"--alpha={alpha}", "--out", w) == 0


def test_scatter_transform_corners():
    coords = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]])
    px = scatter_transform(coords)
    # x: min -> left margin, max -> right margin; y axis flipped
    assert px[0].tolist() == [40.0, 760.0]
    assert px[1].tolist() == [760.0, 40.0]
    assert px[2].tolist() == [400.0, 400.0]


def test_scatter_transform_degenerate_span_centers():
    coords = np.array([[2.0, 5.0], [2.0, 7.0]])
    px = scatter_transform(coords)
    assert px[:, 0].tolist() == [400.0, 400.0]
