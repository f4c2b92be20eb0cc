"""Group container formats: round-trips, validation, reserved names."""

import csv
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divknn import dataset as dsm
from divknn.dataset import Dataset, DivergenceMatrix, Group
from divknn.errors import DataFormatError
from divknn.estimators import EstimatorConfig


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def _toy(labels=False):
    gs = [
        Group("b", [[1.0, 2.0], [3.0, 4.5]], "one" if labels else None),
        Group("a", [[0.25, -1.75]], "two" if labels else None),
    ]
    return Dataset(tuple(gs))


# ---------------------------------------------------------------------------
# In-memory container.

def test_groups_sorted_by_id():
    ds = _toy()
    assert ds.ids == ("a", "b")
    assert ds.dim == 2
    assert len(ds) == 2


def test_group_points_are_copied_and_frozen():
    src = np.array([[1.0], [2.0]])
    g = Group("g", src)
    src[0, 0] = 99.0
    assert g.points[0, 0] == 1.0
    with pytest.raises(ValueError):
        g.points[0, 0] = 5.0
    assert g.size == 2
    assert g.dim == 1


def test_group_rejects_bad_points():
    with pytest.raises(ValueError):
        Group("g", [[np.inf]])
    with pytest.raises(ValueError):
        Group("g", np.zeros((0, 1)))
    with pytest.raises(ValueError):
        Group("g", [1.0, 2.0])


def test_dataset_rejects_mixed_dimensions():
    with pytest.raises(DataFormatError, match="bad"):
        Dataset((Group("ok", [[1.0]]), Group("bad", [[1.0, 2.0]])))


def test_dataset_needs_a_group():
    with pytest.raises(ValueError, match="dataset must contain at least one group"):
        Dataset(())


def test_dataset_rejects_duplicate_ids():
    with pytest.raises(DataFormatError):
        Dataset((Group("g", [[1.0]]), Group("g", [[2.0]])))


def test_require_labels():
    assert _toy(labels=True).require_labels() == ("two", "one")
    with pytest.raises(DataFormatError):
        _toy().require_labels()


# ---------------------------------------------------------------------------
# Directory container round-trips.

def test_directory_round_trip_exact(tmp_path):
    ds = Dataset((
        Group("g1", _rng(0).normal(size=(37, 3))),
        Group("g2", _rng(1).normal(size=(11, 3)) * 1e-7),
    ))
    dsm.save_dataset(ds, tmp_path / "out")
    back = dsm.load_dataset(tmp_path / "out")
    assert back.ids == ds.ids
    for a, b in zip(ds.groups, back.groups):
        assert np.array_equal(a.points, b.points)


def test_labels_round_trip(tmp_path):
    ds = _toy(labels=True)
    dsm.save_dataset(ds, tmp_path / "out")
    back = dsm.load_dataset(tmp_path / "out")
    assert back.labels == ("two", "one")


def test_reserved_files_not_scanned_as_groups(tmp_path):
    dsm.save_dataset(_toy(labels=True), tmp_path / "out")
    (tmp_path / "out" / "params.csv").write_text("id,theta\na,1.0\nb,2.0\n")
    (tmp_path / "out" / "flags.csv").write_text("id,flag\na,0\nb,1\n")
    back = dsm.load_dataset(tmp_path / "out")
    assert back.ids == ("a", "b")


def test_unusable_group_id_rejected_on_save(tmp_path):
    for bad in ("labels", "a/b", ".hidden", ""):
        ds = Dataset((Group(bad, [[1.0]]),))
        with pytest.raises(DataFormatError):
            dsm.save_dataset(ds, tmp_path / "out")


@pytest.mark.parametrize("groups", [
    # a bad id sorted after a good one
    (Group("a", [[1.0]]), Group("labels", [[2.0]])),
    # a labeled group beside an unlabeled one
    (Group("a", [[1.0]], "x"), Group("b", [[2.0]])),
])
def test_failed_save_writes_nothing(tmp_path, groups):
    out = tmp_path / "out"
    out.mkdir()
    (out / "keep.txt").write_text("kept\n")
    with pytest.raises(DataFormatError):
        dsm.save_dataset(Dataset(groups), out)
    assert sorted(f.name for f in out.iterdir()) == ["keep.txt"]
    with pytest.raises(DataFormatError):
        dsm.save_dataset(Dataset(groups), tmp_path / "new")
    assert not (tmp_path / "new").exists()


def test_missing_path_raises():
    with pytest.raises(DataFormatError):
        dsm.load_dataset("/nonexistent/dataset/path")


def test_empty_directory_raises(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(DataFormatError):
        dsm.load_dataset(tmp_path / "empty")


@settings(max_examples=25, deadline=None)
@given(st.lists(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    min_size=1, max_size=30,
))
def test_point_values_round_trip_shortest_repr(tmp_path_factory, values):
    # repr() emits the shortest decimal string that parses back to the
    # same double, so save/load must be lossless for any finite value
    tmp = tmp_path_factory.mktemp("rt")
    ds = Dataset((Group("g", [[v] for v in values]),))
    dsm.save_dataset(ds, tmp)
    back = dsm.load_dataset(tmp)
    assert np.array_equal(back.groups[0].points, ds.groups[0].points)


def _csv_writer_bytes(points) -> bytes:
    # the csv.writer form save_dataset used to write, one writerow per point
    import csv
    import io

    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    for row in points:
        writer.writerow([repr(float(v)) for v in row])
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("d", [1, 3])
def test_saved_group_files_match_the_csv_writer_bytes(tmp_path, d):
    values = [-0.0, 5e-324, 0.1, 1e16, 1.7976931348623157e308, -1.5e-7]
    points = np.array([[values[(i + j) % len(values)] for j in range(d)]
                       for i in range(len(values))])
    dsm.save_dataset(Dataset((Group("g", points),)), tmp_path)
    assert (tmp_path / "g.csv").read_bytes() == _csv_writer_bytes(points)


# ---------------------------------------------------------------------------
# Group-file parsing: the np.loadtxt fast path against the csv path.

def _csv_path_group(path):
    """A group file parsed cell by cell by the CSV reader and float(), as
    every file not taken by the plain-decimal fast path is."""
    gid = path.stem
    where = f"group '{gid}' ({path.name})"
    points, _ = dsm._parse_point_rows(dsm._read_rows(path, where), where, None)
    return Group(gid, np.array(points))


def _load_outcome(load):
    """(shape, bytes) of the loaded points, or the exception's type and text."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            points = load().points
    except Exception as exc:
        return type(exc), str(exc)
    return points.shape, points.tobytes()


def _count_parses(monkeypatch):
    """Swap in a dataset._decimal_points that counts the files it parses
    and the files it leaves to the csv path."""
    real, seen = dsm._decimal_points, {"fast": 0, "csv": 0}

    def counted(data):
        points = real(data)
        seen["csv" if points is None else "fast"] += 1
        return points

    monkeypatch.setattr(dsm, "_decimal_points", counted)
    return seen


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# cells that are plain decimals: shortest reprs, other printf forms and
# long digit strings, which may overflow to inf or underflow to 0
_PLAIN_CELLS = st.one_of(
    _FINITE.map(repr),
    _FINITE.map(lambda v: f"{v:.25e}"),
    st.from_regex(r"[+-]?[0-9]{1,40}(\.[0-9]{0,40})?([eE][+-]?[0-9]{1,4})?", fullmatch=True),
)
# cells float() and loadtxt might read differently, or that neither reads
_ODD_CELLS = st.one_of(
    st.sampled_from(["1_0", "nan", "-inf", "Infinity", "1e400", "-1e400", "1e-400",
                     " 1.5", "2.5 ", "\t3", "#4", "5#", '"6"', "'7'", "", "1e", "1.2.3",
                     "--1", ".", "e5", "1e+", "1+2", "0x1p3", "١", "２.5", "1 "]),
    st.text(alphabet="0123456789.eE+-", max_size=6),
)


@st.composite
def _group_file_bytes(draw):
    """The bytes of a group file: plain-decimal rows, or rows with odd
    cells, ragged widths, any line end and perhaps a non-UTF-8 byte."""
    plain = draw(st.booleans())
    cells = _PLAIN_CELLS if plain else st.one_of(_PLAIN_CELLS, _ODD_CELLS)
    ncols = draw(st.integers(1, 4))
    widths = [ncols] * 6 + [0] + ([] if plain else [ncols - 1, ncols + 1])
    rows = draw(st.lists(st.sampled_from(widths).flatmap(
        lambda w: st.lists(cells, min_size=w, max_size=w)), max_size=8))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(",".join(row) for row in rows) + (end if draw(st.booleans()) else "")
    data = text.encode("utf-8")
    if not plain and draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80"])) + data[at:]
    return data


def test_fast_path_matches_csv_path(tmp_path_factory, monkeypatch):
    # Every group file loads to the same bits, or fails with the same
    # exception and message, as a parse by csv and float() cell by cell;
    # warnings are errors, so loadtxt's no-data warning would show.
    seen = _count_parses(monkeypatch)

    @settings(max_examples=400, deadline=None)
    @given(_group_file_bytes())
    @example(b"\n\n\n")
    @example(b"\r\n\r\n")
    @example(b"")
    @example(b"1.5,-2e3\r\n0.25,7\r\n")
    @example(b"1.5\r2.5\r")
    @example(b"1.5\n2.\xff5\n")
    @example(b"1,2,\n3,4,\n")
    def check(data):
        tmp = tmp_path_factory.mktemp("grp")
        (tmp / "g.csv").write_bytes(data)
        assert _load_outcome(lambda: dsm.load_dataset(tmp).groups[0]) \
            == _load_outcome(lambda: _csv_path_group(tmp / "g.csv"))

    check()
    assert seen["fast"] > 0 and seen["csv"] > 0


def test_fields_past_the_csv_limit_take_the_csv_path(tmp_path, monkeypatch):
    # loadtxt has no field size limit; csv raises past its own, and so
    # must the load, naming the file and row.
    seen = _count_parses(monkeypatch)
    limit = csv.field_size_limit(40)
    try:
        got = {}
        for name, cell in (("fits", "1" * 40), ("long", "2" * 41)):
            path = tmp_path / name / "g.csv"
            path.parent.mkdir()
            path.write_text(f"{cell}\n3\n")
            got[name] = _load_outcome(lambda: dsm.load_dataset(path.parent).groups[0])
            assert got[name] == _load_outcome(lambda: _csv_path_group(path))
    finally:
        csv.field_size_limit(limit)
    assert seen == {"fast": 1, "csv": 1}
    assert got["long"] == (DataFormatError,
                           "group 'g' (g.csv): row 1: field larger than field limit (40)")


@pytest.fixture
def field_limit_40():
    """csv.field_size_limit() at 40 characters for the test."""
    limit = csv.field_size_limit(40)
    yield
    csv.field_size_limit(limit)


# Every reader, over a file it reads: (file name, text around one {cell},
# loader of the path, the prefix of the file's error messages).
_READERS = [
    ("d/b.csv", "1.5\n{cell}\n", lambda p: dsm.load_dataset(p.parent), "group 'b' (b.csv)"),
    ("data.csv", "a,1.5\nb,{cell}\n", dsm.load_dataset, "data.csv"),
    ("labels.csv", "id,label\na,{cell}\n", dsm.load_labels, "labels.csv"),
    ("params.csv", "id,theta\na,{cell}\n", dsm.load_params, "params.csv"),
    ("w.csv", "id,a,b\na,0,{cell}\nb,{cell},0\n", dsm.load_matrix, "w.csv"),
]


def _reader_file(tmp_path, name):
    """The path of a file named name; a group file gets a good sibling."""
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "a.csv").write_text("0.5\n2.5\n")
    return tmp_path / name


@pytest.mark.parametrize("name, text, load, where", _READERS)
def test_a_field_past_the_csv_limit_names_the_file_and_row(
        tmp_path, field_limit_40, name, text, load, where):
    path = _reader_file(tmp_path, name)
    path.write_text(text.format(cell="1" * 40))
    load(path)
    path.write_text(text.format(cell="1" * 41))
    with pytest.raises(DataFormatError) as err:
        load(path)
    assert str(err.value) == f"{where}: row 2: field larger than field limit (40)"


@pytest.mark.parametrize("name, text, load, where", _READERS)
def test_bytes_that_are_not_utf8_name_the_file(tmp_path, name, text, load, where):
    path = _reader_file(tmp_path, name)
    data = text.format(cell="2.0").encode("utf-8")
    at = data.index(b"2.0") + 2
    path.write_bytes(data[:at] + b"\xff" + data[at:])
    with pytest.raises(DataFormatError) as err:
        load(path)
    assert str(err.value) == (f"{where}: 'utf-8' codec can't decode byte 0xff in "
                              f"position {at}: invalid start byte")


@pytest.mark.parametrize("name, text, load, where", _READERS)
def test_a_blank_file_names_the_file(tmp_path, name, text, load, where):
    path = _reader_file(tmp_path, name)
    path.write_text("\n\r\n\n")
    with pytest.raises(DataFormatError) as err:
        load(path)
    assert str(err.value) == f"{where} is empty"


@pytest.mark.parametrize("load", [dsm.load_labels, dsm.load_params, dsm.load_matrix])
def test_a_missing_table_names_the_file(tmp_path, load):
    with pytest.raises(DataFormatError, match="no such file: .*nope.csv"):
        load(tmp_path / "nope.csv")


def test_blank_lines_are_skipped_and_rows_keep_their_numbers(tmp_path):
    # The first non-blank line of a table is its header.
    f = tmp_path / "labels.csv"
    f.write_text("\nid,label\n\na,x\n")
    assert dsm.load_labels(f) == {"a": "x"}
    f = tmp_path / "params.csv"
    f.write_text("\r\nid,theta\na,1.5\n\n")
    names, table = dsm.load_params(f)
    assert names == ("theta",) and table["a"].tolist() == [1.5]
    f = tmp_path / "w.csv"
    f.write_text("\nid,a,b\na,0,1\n\nb,1,zero\n")
    with pytest.raises(DataFormatError, match=r"^w\.csv: non-numeric value 'zero' at row 5, "):
        dsm.load_matrix(f)
    f = tmp_path / "data.csv"
    f.write_text("\ng1,0.5\n\ng1,x\n")
    with pytest.raises(DataFormatError, match=r"at row 4, column 1"):
        dsm.load_dataset(f)


# ---------------------------------------------------------------------------
# Single-file format: one row per point, id in the first column.

def test_single_file_format(tmp_path):
    f = tmp_path / "data.csv"
    f.write_text("g1,0.0,1.0\ng2,2.0,3.0\ng1,4.0,5.0\n")
    ds = dsm.load_dataset(f)
    assert ds.ids == ("g1", "g2")
    assert np.array_equal(ds.groups[0].points, [[0.0, 1.0], [4.0, 5.0]])
    assert np.array_equal(ds.groups[1].points, [[2.0, 3.0]])


def test_single_file_reports_row_and_column(tmp_path):
    f = tmp_path / "data.csv"
    f.write_text("g1,0.0,1.0\ng1,2.0,oops\n")
    with pytest.raises(DataFormatError, match=r"row 2, column 2"):
        dsm.load_dataset(f)


def test_single_file_mixed_width_rejected(tmp_path):
    f = tmp_path / "data.csv"
    f.write_text("g1,0.0,1.0\ng2,2.0\n")
    with pytest.raises(DataFormatError, match="row 2"):
        dsm.load_dataset(f)


def test_single_file_needs_coordinates(tmp_path):
    f = tmp_path / "data.csv"
    f.write_text("g1\n")
    with pytest.raises(DataFormatError):
        dsm.load_dataset(f)


# ---------------------------------------------------------------------------
# Metadata tables.

def test_labels_table_round_trip(tmp_path):
    f = tmp_path / "labels.csv"
    dsm.save_labels(f, {"b": "x", "a": "y"})
    assert f.read_text().splitlines()[0] == "id,label"
    assert dsm.load_labels(f) == {"a": "y", "b": "x"}


def test_labels_table_rejects_wrong_width(tmp_path):
    f = tmp_path / "labels.csv"
    f.write_text("id,label\na,x,extra\n")
    with pytest.raises(DataFormatError):
        dsm.load_labels(f)


@pytest.mark.parametrize("name, load, text, message", [
    ("labels.csv", dsm.load_labels, "id,label\na,x\nb,z\n\na,y\n",
     "labels.csv: id 'a' repeats in rows 2 and 5"),
    # the same value twice is still a repeat
    ("flags.csv", dsm.load_labels, "id,flag\nb,1\nb,1\n",
     "flags.csv: id 'b' repeats in rows 2 and 3"),
    ("params.csv", dsm.load_params, "id,mu\na,1\nb,2\na,3\n",
     "params.csv: id 'a' repeats in rows 2 and 4"),
])
def test_metadata_tables_reject_a_repeated_id(tmp_path, name, load, text, message):
    # the last row of a repeated id used to win without a word
    f = tmp_path / name
    f.write_text(text)
    with pytest.raises(DataFormatError) as info:
        load(f)
    assert str(info.value) == message


def test_params_round_trip(tmp_path):
    f = tmp_path / "params.csv"
    dsm.save_params(f, ["a", "b"], ["mean", "std"], [(0.0, 0.3), (1.0, 0.7)])
    names, table = dsm.load_params(f)
    assert names == ("mean", "std")
    assert table["a"].tolist() == [0.0, 0.3]
    assert table["b"].tolist() == [1.0, 0.7]


def test_params_table_rejects_a_short_row(tmp_path):
    f = tmp_path / "params.csv"
    f.write_text("id,mean,std\na,0.0,0.3\nb,1.0\n")
    with pytest.raises(DataFormatError) as info:
        dsm.load_params(f)
    assert str(info.value) == "params.csv: row 3 has 2 columns, expected 3"


def test_with_labels():
    ds = dsm.with_labels(_toy(), {"a": "p", "b": "q"})
    assert ds.labels == ("p", "q")
    # ids missing from the mapping stay unlabeled
    partial = dsm.with_labels(_toy(), {"a": "p"})
    assert partial.labels == ("p", None)
    with pytest.raises(DataFormatError):
        partial.require_labels()


# ---------------------------------------------------------------------------
# Divergence matrix files.

def _matrix():
    vals = np.array([[0.0, 0.25, 1.5], [0.25, 0.0, 0.125], [1.5, 0.125, 0.0]])
    cfg = EstimatorConfig("renyi", 0.5, 20, True)
    return DivergenceMatrix(("a", "b", "c"), vals, cfg)


def test_matrix_round_trip(tmp_path):
    w = _matrix()
    f = tmp_path / "w.csv"
    dsm.save_matrix(w, f)
    back = dsm.load_matrix(f)
    assert back.ids == w.ids
    assert np.allclose(back.values, w.values, rtol=1e-8, atol=0)
    assert back.config is None


def test_matrix_values_are_copied_and_frozen():
    # the caller's array stays writable, and writing to it leaves the
    # matrix as it was
    vals = np.zeros((2, 2))
    w = DivergenceMatrix(("a", "b"), vals, None)
    assert vals.flags.writeable
    vals[0, 1] = 5.0
    assert w.values.tolist() == [[0.0, 0.0], [0.0, 0.0]]
    with pytest.raises(ValueError):
        w.values[0, 1] = 1.0


def test_matrix_header_mismatch_rejected(tmp_path):
    f = tmp_path / "w.csv"
    f.write_text("id,a,b\na,0,1\nc,1,0\n")
    with pytest.raises(DataFormatError):
        dsm.load_matrix(f)
    f.write_text("id,a,b,c\na,0,1,2\nb,1,0,2\n")
    with pytest.raises(DataFormatError) as info:
        dsm.load_matrix(f)
    assert str(info.value) == "w.csv: expected 4 rows, found 3"


def test_matrix_header_rejects_a_repeated_id(tmp_path):
    # rows a, a, b match the header id by id, so only the header check
    # stops the matrix from loading with two groups named a
    f = tmp_path / "w.csv"
    f.write_text("id,a,a,b\na,0,1,2\na,1,0,2\nb,2,2,0\n")
    with pytest.raises(DataFormatError) as info:
        dsm.load_matrix(f)
    assert str(info.value) == "w.csv: id 'a' repeats in header columns 2 and 3"
