"""Group/dataset data model and the on-disk CSV container formats.

A dataset is a collection of groups; each group is a bag of i.i.d.
d-dimensional sample points standing in for one unknown distribution.
A ``DivergenceMatrix`` holds the pairwise divergences between the
groups of a dataset. The estimators, baselines and tasks import these
types from here, and this module imports none of them.

On-disk formats (UTF-8, comma separators, '.' decimal point):

* directory container: one header-less CSV per group, filename stem =
  group id, one point per row. ``labels.csv``, ``params.csv`` and
  ``flags.csv`` are reserved metadata names and never parsed as groups:
  ``labels.csv`` / ``flags.csv`` are two-column tables with a header
  (``id,label`` resp. ``id,flag``), ``params.csv`` is ``id`` plus named
  numeric columns. A group file whose bytes are all plain-decimal
  (``0-9 . e E + - ,`` and LF or CR line ends) and that holds a digit
  is parsed by one ``np.loadtxt`` call; any other file, any file
  ``np.loadtxt`` rejects and any with a field past ``csv``'s size limit
  goes through the CSV reader and ``float`` cell by cell. Either way
  a file loads to the same bits or fails with the same error.
* single-file container: header-less CSV whose first column is the
  group id and remaining columns are coordinates.
* divergence matrix: CSV with a header row and column of group ids and
  entries printed with 9 significant digits.

Every CSV is read by one reader, which skips blank lines (a table's
header is its first non-blank line), and written by ``write_table``.
Every read error is a DataFormatError that names its file; an id that
a labels, flags or params table or a matrix header names twice is one.

Groups are ordered lexicographically by id everywhere so that matrix
indices never depend on filesystem enumeration order.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ContractError, DataFormatError

RESERVED_FILES = ("labels.csv", "params.csv", "flags.csv")


@dataclass(frozen=True)
class Group:
    """One bag of sample points plus an optional class label.

    The points array is copied and frozen at construction; a Group can
    be shared across threads freely.
    """

    id: str
    points: np.ndarray
    label: str | None = None

    def __post_init__(self):
        self._freeze(np.array(self.points, dtype=np.float64, order="C"))

    @classmethod
    def _over(cls, gid: str, points) -> "Group":
        """A group over a read-only view of ``points``, copied only where
        they are not float64 and C-ordered, for a call that drops it
        before it returns (a pair estimate): unlike a constructed group,
        it changes if the caller changes ``points``."""
        group = object.__new__(cls)
        object.__setattr__(group, "id", gid)
        object.__setattr__(group, "label", None)
        group._freeze(np.asarray(points, dtype=np.float64, order="C").view())
        return group

    def _freeze(self, pts: np.ndarray) -> None:
        """Check pts and make them, read-only, the group's points."""
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError(
                f"group '{self.id}': points must be a nonempty 2-D array, "
                f"got shape {pts.shape}"
            )
        if not np.isfinite(pts).all():
            raise ValueError(f"group '{self.id}': points contain NaN or infinity")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class Dataset:
    """An ordered collection of groups sharing one dimension.

    Groups are re-sorted lexicographically by id at construction.
    """

    groups: tuple[Group, ...]
    dim: int = field(init=False)

    def __post_init__(self):
        groups = tuple(sorted(self.groups, key=lambda g: g.id))
        if not groups:
            raise ValueError("dataset must contain at least one group")
        ids = [g.id for g in groups]
        if len(set(ids)) != len(ids):
            dup = next(i for i in ids if ids.count(i) > 1)
            raise DataFormatError(f"duplicate group id '{dup}'")
        d = groups[0].dim
        for g in groups:
            if g.dim != d:
                raise DataFormatError(
                    f"group '{g.id}' has dimension {g.dim}, expected {d} "
                    f"(set by group '{groups[0].id}')"
                )
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "dim", d)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(g.id for g in self.groups)

    @property
    def labels(self) -> tuple[str | None, ...]:
        return tuple(g.label for g in self.groups)

    def __len__(self) -> int:
        return len(self.groups)

    def require_labels(self) -> tuple[str, ...]:
        """Labels of all groups, failing fast on any unlabeled group."""
        missing = [g.id for g in self.groups if g.label is None]
        if missing:
            raise DataFormatError(f"groups without labels: {', '.join(missing)}")
        return tuple(g.label for g in self.groups)  # type: ignore[return-value]


@dataclass(frozen=True)
class DivergenceMatrix:
    """Pairwise divergences between the groups of a dataset.

    ``values[i, j]`` is the estimated divergence from group ``ids[i]``
    to group ``ids[j]``; the diagonal is exactly zero by convention.
    ``config`` is the ``estimators.EstimatorConfig`` the entries were
    produced with (None for matrices read back from disk or computed
    otherwise). The values are copied and frozen at construction.
    """

    ids: tuple[str, ...]
    values: np.ndarray
    config: object | None = None

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64)
        n = len(self.ids)
        if vals.shape != (n, n):
            raise ContractError(f"matrix shape {vals.shape} does not match {n} ids")
        if not np.isfinite(vals).all():
            raise ContractError("divergence matrix contains non-finite entries")
        if (np.diag(vals) != 0.0).any():
            raise ContractError("divergence matrix diagonal must be exactly zero")
        if self.config is not None and self.config.symmetrize:
            if not np.array_equal(vals, vals.T):
                raise ContractError("symmetrized matrix must equal its transpose exactly")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "ids", tuple(self.ids))

    @property
    def size(self) -> int:
        return len(self.ids)

    def is_symmetric(self) -> bool:
        return bool(np.array_equal(self.values, self.values.T))


# ---------------------------------------------------------------------------
# CSV reading and writing, shared by every file format below.

def _read_rows(path: Path, where: str | None = None,
               data: bytes | None = None) -> list[tuple[int, list[str]]]:
    """The non-blank rows of a CSV file, or of its bytes if given, each
    with its 1-based row number. Every read error is a DataFormatError
    naming ``where`` (default: the file name)."""
    where = where or path.name
    try:
        text = (path.read_bytes() if data is None else data).decode("utf-8")
    except FileNotFoundError:
        raise DataFormatError(f"no such file: {path}") from None
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{where}: {exc}") from None
    rows, r = [], 0
    try:
        for r, row in enumerate(csv.reader(io.StringIO(text, newline="")), start=1):
            if row:
                rows.append((r, row))
    except csv.Error as exc:  # such as a field past csv.field_size_limit()
        raise DataFormatError(f"{where}: row {r + 1}: {exc}") from None
    if not rows:
        raise DataFormatError(f"{where} is empty")
    return rows


def write_table(path, header, rows) -> None:
    """Write a CSV table: the header row, then each of rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Point-file parsing.

def _parse_point_rows(rows, where: str, expect_cols: int | None):
    """Parse CSV rows of coordinates; report 1-based row/column on failure."""
    points = []
    for r, row in rows:
        if expect_cols is None:
            expect_cols = len(row)
        if len(row) != expect_cols:
            raise DataFormatError(
                f"{where}: row {r} has {len(row)} columns, expected {expect_cols}"
            )
        vals = []
        for c, cell in enumerate(row):
            try:
                vals.append(float(cell))
            except ValueError:
                raise DataFormatError(
                    f"{where}: non-numeric value {cell.strip()!r} "
                    f"at row {r}, column {c + 1}"
                ) from None
        points.append(vals)
    return points, expect_cols


# Bytes of a plain-decimal file. On cells made of these alone, float()
# and np.loadtxt accept the same strings and round them alike; what
# float() alone takes (``1_0``, ``nan``, ``inf``, padding, non-ASCII
# digits) needs another byte, as do the ``#`` and quotes that loadtxt
# would read as syntax.
_DECIMAL_BYTES = b"0123456789.eE+-,\r\n"
_NON_DIGITS = b".eE+-,\r\n"


def _fields_fit_csv(data: bytes) -> bool:
    """True if no field is longer than csv's field size limit, past which
    the csv reader raises and loadtxt, which has no limit, would not."""
    limit = csv.field_size_limit()
    if len(data) <= limit:
        return True
    b = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero((b == ord(",")) | (b == ord("\n")) | (b == ord("\r")))
    return int(np.diff(ends, prepend=-1, append=len(data)).max()) <= limit + 1


def _decimal_points(data: bytes) -> np.ndarray | None:
    """The points of a plain-decimal file, or None where the csv path must decide."""
    # strip() leaves something only if the file holds a digit, so an
    # all-blank file never reaches loadtxt (which warns on no data).
    if (data.translate(None, _DECIMAL_BYTES) or not data.strip(_NON_DIGITS)
            or not _fields_fit_csv(data)):
        return None
    try:
        return np.loadtxt(io.StringIO(data.decode("ascii")), delimiter=",",
                          comments=None, dtype=np.float64, ndmin=2)
    except ValueError:
        return None


def _load_group_file(path: Path, labels: dict[str, str]) -> Group:
    gid = path.stem
    data = path.read_bytes()
    points = _decimal_points(data)
    if points is None:
        where = f"group '{gid}' ({path.name})"
        points, _ = _parse_point_rows(_read_rows(path, where, data), where, None)
    return Group(gid, points, labels.get(gid))


def _load_directory(path: Path) -> Dataset:
    files = sorted(p for p in path.iterdir()
                   if p.suffix == ".csv" and p.name not in RESERVED_FILES)
    if not files:
        raise DataFormatError(f"no group CSV files found in {path}")
    labels_file = path / "labels.csv"
    labels = load_labels(labels_file) if labels_file.exists() else {}
    return Dataset(tuple(_load_group_file(p, labels) for p in files))


def _load_single_file(path: Path) -> Dataset:
    by_id: dict[str, list[list[float]]] = {}
    cols: int | None = None
    for r, row in _read_rows(path):
        if len(row) < 2:
            raise DataFormatError(
                f"{path.name}: row {r} needs an id and at least one coordinate"
            )
        gid = row[0]
        pts, cols = _parse_point_rows(
            [(r, row[1:])], f"{path.name} (group '{gid}')", cols
        )
        by_id.setdefault(gid, []).extend(pts)
    return Dataset(tuple(Group(gid, np.array(pts)) for gid, pts in by_id.items()))


def load_dataset(path) -> Dataset:
    """Read a dataset from a directory container or a single CSV file."""
    p = Path(path)
    if not p.exists():
        raise DataFormatError(f"no such path: {p}")
    return _load_directory(p) if p.is_dir() else _load_single_file(p)


def save_dataset(ds: Dataset, path) -> None:
    """Write a dataset as a directory container (one CSV per group).

    Point values are written in shortest round-trip decimal form, so
    load(save(ds)) reproduces them exactly. Labels, when any group has
    one, go to labels.csv; every group must then be labeled. Every id
    and label is checked before anything is written.
    """
    for g in ds.groups:
        stem_taken = f"{g.id}.csv" in RESERVED_FILES
        if stem_taken or not g.id or "/" in g.id or "\\" in g.id or g.id.startswith("."):
            raise DataFormatError(f"group id {g.id!r} cannot be used as a filename")
    labels = ds.require_labels() if any(g.label is not None for g in ds.groups) else None
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    for g in ds.groups:
        # Points are finite floats, whose repr holds no comma, quote or
        # newline, so no CSV quoting applies and each file is one write.
        text = "".join(",".join(map(repr, row)) + "\n" for row in g.points.tolist())
        (p / f"{g.id}.csv").write_text(text, encoding="utf-8", newline="")
    if labels is not None:
        save_labels(p / "labels.csv", dict(zip(ds.ids, labels)))


# ---------------------------------------------------------------------------
# Two-column metadata tables (labels.csv, flags.csv).

def load_labels(path) -> dict[str, str]:
    """Read an ``id,<value>`` table with a header row."""
    p = Path(path)
    body = _read_rows(p)[1:]
    for r, row in body:
        if len(row) != 2:
            raise DataFormatError(f"{p.name}: row {r} must have exactly 2 columns")
    _once(p, [(r, row[0]) for r, row in body], "rows")
    return {row[0]: row[1] for _, row in body}


def _once(p: Path, numbered, where: str) -> None:
    """Raise DataFormatError on the first id of the (number, id) pairs
    that repeats, naming the file, the id and both numbers."""
    seen: dict[str, int] = {}
    for n, gid in numbered:
        if gid in seen:
            raise DataFormatError(f"{p.name}: id {gid!r} repeats in {where} {seen[gid]} and {n}")
        seen[gid] = n


def save_labels(path, mapping: dict[str, str], value_name: str = "label") -> None:
    write_table(path, ["id", value_name], ([gid, mapping[gid]] for gid in sorted(mapping)))


def with_labels(ds: Dataset, labels: dict[str, str]) -> Dataset:
    """Attach labels from a mapping; ids absent from the mapping keep None."""
    return Dataset(tuple(
        Group(g.id, g.points, labels.get(g.id, g.label)) for g in ds.groups
    ))


# ---------------------------------------------------------------------------
# Named numeric per-group parameters (params.csv).

def save_params(path, ids, names, values) -> None:
    """Write per-group numeric parameters: header ``id,<names...>``."""
    values = np.asarray(values, dtype=np.float64)
    write_table(path, ["id", *names], ([gid, *[repr(float(v)) for v in np.atleast_1d(row)]]
                                       for gid, row in zip(ids, values)))


def _numeric_table(p: Path):
    """(column names, row ids, rows of values) of a table whose header is
    ``id,<names...>`` and whose rows are ``<id>,<numbers...>``."""
    (_, header), *body = _read_rows(p)
    for r, row in body:
        if len(row) != len(header):
            raise DataFormatError(f"{p.name}: row {r} has {len(row)} columns, "
                                  f"expected {len(header)}")
    values, _ = _parse_point_rows([(r, row[1:]) for r, row in body], p.name, len(header) - 1)
    return tuple(header[1:]), [(r, row[0]) for r, row in body], values


def load_params(path) -> tuple[tuple[str, ...], dict[str, np.ndarray]]:
    """Read a params table; returns (column names, id -> value vector)."""
    p = Path(path)
    names, ids, values = _numeric_table(p)
    _once(p, ids, "rows")
    return names, {gid: np.array(v) for (_, gid), v in zip(ids, values)}


# ---------------------------------------------------------------------------
# Divergence-matrix CSV.

def save_matrix(m: DivergenceMatrix, path) -> None:
    """Write a divergence matrix with a header row/column of group ids.

    Entries use 9 significant digits, so save/load round-trips within
    1e-8 absolute for divergence-scale values.
    """
    write_table(path, ["id", *m.ids], ([gid, *[f"{v:.9g}" for v in row]]
                                       for gid, row in zip(m.ids, m.values)))


def load_matrix(path) -> DivergenceMatrix:
    """Read a divergence matrix written by save_matrix."""
    p = Path(path)
    ids, row_ids, values = _numeric_table(p)
    _once(p, enumerate(ids, 2), "header columns")
    n = len(ids)
    if len(row_ids) != n:
        raise DataFormatError(f"{p.name}: expected {n + 1} rows, found {len(row_ids) + 1}")
    for (_, row_id), gid in zip(row_ids, ids):
        if row_id != gid:
            raise DataFormatError(f"{p.name}: row id {row_id!r} does not match header id {gid!r}")
    return DivergenceMatrix(ids, np.array(values).reshape(n, n), None)
