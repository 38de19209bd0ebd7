"""Raw tabular flight data: loading, concatenation, filtering, and cleaning.

A :class:`Dataset` stores one read-only NumPy array per schema column:
``float64`` with NaN for a missing cell (continuous columns), or ``str`` with
``""`` for a missing cell (categorical and label columns).  Only this module
knows those sentinels; others call ``Dataset.missing(name)``.  Every
operation returns a new object and preserves the input.

CSV dialect: UTF-8 (a leading byte-order mark is skipped), comma separated,
mandatory header row, double-quote quoting with doubled-quote escaping, empty
field = missing value.  A file holding NUL is rejected, because ``str``
arrays drop trailing NULs.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CannotDropLabelError,
    DataError,
    EmptyInputError,
    FieldParseError,
    InvalidSpecError,
    MissingColumnError,
    RowArityError,
    SchemaMismatchError,
    UnknownColumnError,
    UnrecognizedLabelValueError,
)

CATEGORICAL = "categorical"
CONTINUOUS = "continuous"
LABEL = "label"

COLUMN_KINDS = (CATEGORICAL, CONTINUOUS, LABEL)


@dataclass(frozen=True)
class Column:
    name: str
    kind: str

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError(f"column name {self.name!r} is not a string")
        if self.kind not in COLUMN_KINDS:
            raise ValueError(f"unknown column kind {self.kind!r}")


@dataclass(frozen=True)
class Schema:
    """Ordered column declarations plus the raw text value that encodes label 1."""

    columns: tuple[Column, ...]
    positive_label_value: str

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ValueError("duplicate column names in schema")
        labels = [c for c in self.columns if c.kind == LABEL]
        if len(labels) != 1:
            raise ValueError("schema must declare exactly one label column")
        if not isinstance(self.positive_label_value, str):
            raise ValueError(
                f"positive_label_value {self.positive_label_value!r} is not a string"
            )

    @property
    def names(self) -> list[str]:
        return [c.name for c in self.columns]

    @property
    def label_name(self) -> str:
        return next(c.name for c in self.columns if c.kind == LABEL)

    def index_of(self, name: str) -> int:
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise UnknownColumnError(f"column {name!r} not in schema")

    def to_json(self) -> str:
        doc = {
            "columns": [{"name": c.name, "kind": c.kind} for c in self.columns],
            "positive_label_value": self.positive_label_value,
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Schema":
        """Parse a schema document; DataError if it is not JSON or not a valid schema."""
        try:
            doc = json.loads(text)
            cols = tuple(Column(c["name"], c["kind"]) for c in doc["columns"])
            return cls(cols, doc["positive_label_value"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed schema: {exc!r}") from None


@dataclass(frozen=True, eq=False)
class Dataset:
    """Columns in schema order: any 1-D sequences, with None for a missing cell.

    Compared by identity, since a comparison of arrays has no single truth value.
    """

    schema: Schema
    columns: tuple[np.ndarray, ...]

    def __post_init__(self):
        kinds = [c.kind for c in self.schema.columns]
        columns = tuple(_as_column(v, k) for v, k in zip(self.columns, kinds, strict=True))
        if len({c.size for c in columns}) > 1:
            raise ValueError("columns differ in length")
        object.__setattr__(self, "columns", columns)

    @property
    def n_rows(self) -> int:
        return self.columns[0].size

    def column(self, name: str) -> np.ndarray:
        return self.columns[self.schema.index_of(name)]

    def missing(self, name: str) -> np.ndarray:
        """Boolean mask of the rows whose cell in column `name` is missing."""
        col = self.column(name)
        return np.isnan(col) if col.dtype.kind == "f" else col == ""


def _as_column(values, kind: str) -> np.ndarray:
    col = np.asarray(values)
    if col.ndim != 1:
        raise ValueError("each column must be one-dimensional")
    if col.dtype == object:
        col = np.where(np.equal(col, None), np.nan if kind == CONTINUOUS else "", col)
    col = col.astype(np.float64 if kind == CONTINUOUS else np.str_)
    col.flags.writeable = False
    return col


def _per_value(col: np.ndarray, fn, dtype) -> np.ndarray:
    """Apply `fn` once per distinct value of `col`; return its results per row."""
    distinct, inverse = np.unique(col, return_inverse=True)
    return np.array([fn(v) for v in distinct.tolist()], dtype=dtype)[inverse]


@dataclass(frozen=True)
class ClassBalance:
    negatives: int
    positives: int
    missing: int

    @property
    def total(self) -> int:
        return self.negatives + self.positives + self.missing


def label_values_equal(a: str, b: str) -> bool:
    """Compare two raw label texts: trimmed, with numeric equality when both parse.

    BTS files encode the binary label as "1.00"/"0.00", so "1" and "1.00"
    must be read as the same class.
    """
    a, b = a.strip(), b.strip()
    if a == b:
        return True
    try:
        return float(a) == float(b)
    except ValueError:
        return False


def label_classes(ds: Dataset, positive_value: str) -> np.ndarray:
    """Resolve each label cell to 1 (positive), 0 (negative) or -1 (missing).

    Labels equal to `positive_value` under label_values_equal are positive.
    The first other label in row order is the negative value; a label
    matching neither raises UnrecognizedLabelValueError.
    """
    present = ~ds.missing(ds.schema.label_name)
    labels = ds.column(ds.schema.label_name)[present]
    distinct, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    texts = [t.strip() for t in distinct.tolist()]
    positive = np.array([label_values_equal(t, positive_value) for t in texts], dtype=np.int64)
    others = np.flatnonzero(positive == 0)
    others = others[np.argsort(first[others])]
    for j in others[1:]:
        if not label_values_equal(texts[j], texts[others[0]]):
            raise UnrecognizedLabelValueError(
                f"label {texts[j]!r} matches neither {positive_value!r} nor {texts[others[0]]!r}"
            )
    classes = np.full(ds.n_rows, -1)
    classes[present] = positive[inverse]
    return classes


def _parse_cell(text: str, kind: str, column: str, line: int):
    text = text.strip()
    if kind != CONTINUOUS:
        return text
    if text == "":
        return math.nan
    try:
        value = float(text)
    except ValueError:
        raise FieldParseError(
            f"line {line}: non-numeric value {text!r} in continuous column {column!r}"
        ) from None
    if not math.isfinite(value):
        raise FieldParseError(
            f"line {line}: non-finite value {text!r} in continuous column {column!r}"
        )
    return value


def load_csv(path, schema: Schema, missing_label_ok: bool = False) -> Dataset:
    """Read a CSV file, keeping only schema columns in schema order.

    The header must contain every schema column once; extra columns are
    ignored.  Empty fields become missing cells and continuous cells are
    parsed as decimal numbers.  With `missing_label_ok`, a file without the
    label column loads with every label cell missing (for prediction-only input).

    Raises:
        MissingColumnError: a schema column is absent from the header.
        SchemaMismatchError: a schema column appears twice in the header.
        RowArityError: a data row's field count differs from the header's.
        FieldParseError: non-numeric or non-finite text in a continuous
            column, a NUL character anywhere in the file, or a file that is
            not UTF-8.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:  # the scan decodes every byte, so the reader below meets no bad UTF-8
            if any("\0" in chunk for chunk in iter(lambda: fh.read(1 << 20), "")):
                raise FieldParseError(f"{path}: NUL character in file")
        except UnicodeDecodeError as exc:
            raise FieldParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
        fh.seek(0)
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyInputError(f"{path}: empty file, header required") from None
        header = [h.strip() for h in header]
        present = []
        for col in schema.columns:
            if header.count(col.name) > 1:
                raise SchemaMismatchError(f"{path}: column {col.name!r} appears twice in header")
            if col.name in header:
                present.append(col)
            elif not (missing_label_ok and col.kind == LABEL):
                raise MissingColumnError(f"{path}: column {col.name!r} not in header")
        positions = [header.index(col.name) for col in present]
        texts = {col.name: [] for col in present}
        n_rows, fields = 0, header
        for fields in reader:
            if len(fields) != len(header):
                break  # raised after the parse, which names any earlier bad cell first
            n_rows += 1
            for cells, p in zip(texts.values(), positions):
                cells.append(fields[p])
    try:
        columns = [
            _per_value(
                np.array(texts.get(c.name, [""] * n_rows), dtype=np.str_),
                lambda text, c=c: _parse_cell(text, c.kind, c.name, line=0),
                np.float64 if c.kind == CONTINUOUS else np.str_,
            )
            for c in schema.columns
        ]
    except FieldParseError:
        # Name the first bad cell in row order, as a row-by-row parse would.
        for line_no, row in enumerate(zip(*texts.values()), start=2):
            for col, text in zip(present, row):
                _parse_cell(text, col.kind, col.name, line_no)
        raise
    if len(fields) != len(header):
        raise RowArityError(
            f"{path}: line {n_rows + 2} has {len(fields)} fields, header has {len(header)}"
        )
    return Dataset(schema, columns)


def write_csv(ds: Dataset, path) -> None:
    """Write a dataset in the same CSV dialect that load_csv reads."""
    cells = [_per_value(col, _format_cell, object) for col in ds.columns]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(ds.schema.names)
        writer.writerows(zip(*cells))


def _format_cell(cell) -> str:
    if isinstance(cell, str):
        return cell
    if math.isnan(cell):
        return ""
    if math.isfinite(cell) and cell == int(cell) and abs(cell) < 1e15:
        return str(int(cell))
    return repr(cell)


def concat(parts: list[Dataset]) -> Dataset:
    """Stack datasets row-wise; all parts must share an identical schema."""
    if not parts:
        raise EmptyInputError("concat requires at least one dataset")
    schema = parts[0].schema
    for p in parts[1:]:
        if p.schema != schema:
            raise SchemaMismatchError("datasets have differing schemas")
    return Dataset(schema, [np.concatenate(cols) for cols in zip(*(p.columns for p in parts))])


def filter_equals(ds: Dataset, column: str, allowed) -> Dataset:
    """Keep rows whose cell in `column` textually equals any allowed value.

    Matching is on exact text after trimming whitespace; missing cells never
    match.  Order and schema are preserved.
    """
    col = ds.column(column)
    allowed = {str(v).strip() for v in allowed}
    keep = _per_value(col, lambda cell: _format_cell(cell).strip() in allowed, bool)
    keep &= ~ds.missing(column)
    return Dataset(ds.schema, [c[keep] for c in ds.columns])


def drop_columns(ds: Dataset, names) -> Dataset:
    """Remove the named feature columns; the label column may not be dropped."""
    names = list(names)
    for n in names:
        i = ds.schema.index_of(n)
        if ds.schema.columns[i].kind == LABEL:
            raise CannotDropLabelError(f"cannot drop label column {n!r}")
    drop = set(names)
    keep = [i for i, c in enumerate(ds.schema.columns) if c.name not in drop]
    schema = Schema(
        tuple(ds.schema.columns[i] for i in keep), ds.schema.positive_label_value
    )
    return Dataset(schema, [ds.columns[i] for i in keep])


def drop_missing_labels(ds: Dataset) -> Dataset:
    """Remove rows whose label cell is missing."""
    keep = ~ds.missing(ds.schema.label_name)
    return Dataset(ds.schema, [c[keep] for c in ds.columns])


def class_balance(ds: Dataset) -> ClassBalance:
    """Count rows per class as label_classes resolves them with the schema's positive value."""
    missing, negatives, positives = np.bincount(
        label_classes(ds, ds.schema.positive_label_value) + 1, minlength=3
    ).tolist()
    return ClassBalance(negatives=negatives, positives=positives, missing=missing)


# The ten post-selection flight features: eight categorical columns with
# their plausible values, then the two scheduled HHMM times.  Airport ids are
# the five busiest US airports (ATL, LAX, ORD, DFW, JFK) with their world area
# codes.
_AIRPORTS = ("10397", "11298", "12478", "12892", "13930")
_AREA_CODES = ("22", "34", "41", "74", "91")
_SYNTHETIC_CATEGORIES = (
    ("Month", tuple(str(m) for m in range(1, 13))),
    ("Day_of_Month", tuple(str(d) for d in range(1, 29))),
    ("Day_of_Week", tuple(str(d) for d in range(1, 8))),
    ("Flight_Num", tuple(str(n) for n in range(100, 160))),
    ("Origin_Airport_ID", _AIRPORTS),
    ("Origin_World_Area_Code", _AREA_CODES),
    ("Destination_Airport_ID", _AIRPORTS),
    ("Destination_World_Area_Code", _AREA_CODES),
)
_SYNTHETIC_TIMES = ("CRS_Departure_Time", "CRS_Arrival_Time")

SYNTHETIC_LABEL_NAME = "Arr_Del_15"
SYNTHETIC_POSITIVE_VALUE = "1.00"
SYNTHETIC_NEGATIVE_VALUE = "0.00"


def synthetic_schema() -> Schema:
    cols = (
        [Column(name, CATEGORICAL) for name, _ in _SYNTHETIC_CATEGORIES]
        + [Column(name, CONTINUOUS) for name in _SYNTHETIC_TIMES]
        + [Column(SYNTHETIC_LABEL_NAME, LABEL)]
    )
    return Schema(tuple(cols), SYNTHETIC_POSITIVE_VALUE)


def _check_synthetic_spec(n_rows: int, positive_fraction: float) -> None:
    if n_rows < 10:
        raise InvalidSpecError("n_rows must be >= 10")
    if not 0.0 < positive_fraction < 1.0:
        raise InvalidSpecError("positive_fraction must be in (0, 1)")


def generate_synthetic(n_rows: int, positive_fraction: float, seed: int) -> Dataset:
    """Generate a deterministic labelled flight dataset for desk-scale runs.

    Categorical cells draw uniformly from their value lists, then the
    departure and arrival times draw uniformly over the day.  Labels follow a
    hidden circadian rule on those two times plus Gaussian noise (sd 0.35),
    so the label is learnable but not trivially separable.  The rows with the
    highest delay risk are labelled positive, which pins the class imbalance
    to `positive_fraction` within one row.  All randomness comes from a NumPy
    PCG64 generator seeded with `seed`, so identical arguments produce
    identical datasets.

    Raises:
        InvalidSpecError: fewer than 10 rows or a fraction outside (0, 1).
    """
    _check_synthetic_spec(n_rows, positive_fraction)
    rng = np.random.Generator(np.random.PCG64(seed))

    columns = [
        np.array(values)[rng.integers(0, len(values), size=n_rows)]
        for _, values in _SYNTHETIC_CATEGORIES
    ]
    hours = [rng.uniform(0.0, 24.0, size=n_rows) for _ in _SYNTHETIC_TIMES]
    columns += [np.floor(h).astype(int) * 100 + np.floor((h % 1.0) * 60).astype(int) for h in hours]
    dep_hours, arr_hours = hours

    # Hidden rule: evening departures and late arrivals carry higher risk.
    risk = (
        0.6 * np.sin(2.0 * math.pi * (dep_hours - 6.0) / 24.0)
        + 0.4 * np.sin(2.0 * math.pi * (arr_hours - 8.0) / 24.0)
        + rng.normal(0.0, 0.35, size=n_rows)
    )
    n_pos = int(round(positive_fraction * n_rows))
    order = np.argsort(risk, kind="stable")
    labels = np.full(n_rows, SYNTHETIC_NEGATIVE_VALUE)
    labels[order[n_rows - n_pos:]] = SYNTHETIC_POSITIVE_VALUE
    columns.append(labels)
    return Dataset(synthetic_schema(), columns)
