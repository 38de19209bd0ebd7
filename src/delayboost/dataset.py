"""Raw tabular flight data: loading, concatenation, filtering, and cleaning.

A :class:`Dataset` is a schema-typed table of raw cells.  Cells are either
text (categorical and label columns), floats (continuous columns), or
``None`` for missing values.  Datasets are treated as immutable after
construction; every operation returns a new object and preserves the input.

CSV dialect: UTF-8 (a leading byte-order mark is skipped), comma separated,
mandatory header row, double-quote quoting with doubled-quote escaping, empty
field = missing value.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CannotDropLabelError,
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

    @property
    def names(self) -> list[str]:
        return [c.name for c in self.columns]

    @property
    def label_index(self) -> int:
        return next(i for i, c in enumerate(self.columns) if c.kind == LABEL)

    @property
    def label_name(self) -> str:
        return self.columns[self.label_index].name

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
        doc = json.loads(text)
        cols = tuple(Column(c["name"], c["kind"]) for c in doc["columns"])
        return cls(cols, doc["positive_label_value"])


@dataclass(frozen=True)
class Dataset:
    schema: Schema
    rows: tuple[tuple, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        width = len(self.schema.columns)
        for r in self.rows:
            if len(r) != width:
                raise ValueError("row width does not match schema")

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> list:
        i = self.schema.index_of(name)
        return [r[i] for r in self.rows]


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


def _parse_cell(text: str, kind: str, column: str, line: int):
    text = text.strip()
    if text == "":
        return None
    if kind == CONTINUOUS:
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
    return text


def load_csv(path, schema: Schema, missing_label_ok: bool = False) -> Dataset:
    """Read a CSV file, keeping only schema columns in schema order.

    The header must contain every schema column; extra columns are ignored.
    Empty fields become missing cells and continuous cells are parsed as
    decimal numbers.  With `missing_label_ok`, a file without the label
    column loads with every label cell missing (for prediction-only input).

    Raises:
        MissingColumnError: a schema column is absent from the header.
        RowArityError: a data row's field count differs from the header's.
        FieldParseError: non-numeric or non-finite text in a continuous column.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyInputError(f"{path}: empty file, header required") from None
        header = [h.strip() for h in header]
        positions = {}
        for col in schema.columns:
            try:
                positions[col.name] = header.index(col.name)
            except ValueError:
                if missing_label_ok and col.kind == LABEL:
                    positions[col.name] = None
                    continue
                raise MissingColumnError(
                    f"{path}: column {col.name!r} not in header"
                ) from None
        rows = []
        for line_no, fields in enumerate(reader, start=2):
            if len(fields) != len(header):
                raise RowArityError(
                    f"{path}: line {line_no} has {len(fields)} fields, header has {len(header)}"
                )
            rows.append(
                tuple(
                    None
                    if positions[c.name] is None
                    else _parse_cell(fields[positions[c.name]], c.kind, c.name, line_no)
                    for c in schema.columns
                )
            )
    return Dataset(schema, tuple(rows))


def write_csv(ds: Dataset, path) -> None:
    """Write a dataset in the same CSV dialect that load_csv reads."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(ds.schema.names)
        for row in ds.rows:
            writer.writerow([_format_cell(c) for c in row])


def _format_cell(cell) -> str:
    if cell is None:
        return ""
    if isinstance(cell, float):
        if math.isfinite(cell) and cell == int(cell) and abs(cell) < 1e15:
            return str(int(cell))
        return repr(cell)
    return str(cell)


def concat(parts: list[Dataset]) -> Dataset:
    """Stack datasets row-wise; all parts must share an identical schema."""
    if not parts:
        raise EmptyInputError("concat requires at least one dataset")
    schema = parts[0].schema
    for p in parts[1:]:
        if p.schema != schema:
            raise SchemaMismatchError("datasets have differing schemas")
    rows = []
    for p in parts:
        rows.extend(p.rows)
    return Dataset(schema, tuple(rows))


def filter_equals(ds: Dataset, column: str, allowed) -> Dataset:
    """Keep rows whose cell in `column` textually equals any allowed value.

    Matching is on exact text after trimming whitespace; missing cells never
    match.  Order and schema are preserved.
    """
    idx = ds.schema.index_of(column)
    allowed = {str(v).strip() for v in allowed}
    kept = tuple(r for r in ds.rows if r[idx] is not None and _cell_text(r[idx]) in allowed)
    return Dataset(ds.schema, kept)


def _cell_text(cell) -> str:
    if isinstance(cell, float):
        return _format_cell(cell)
    return str(cell).strip()


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
    rows = tuple(tuple(r[i] for i in keep) for r in ds.rows)
    return Dataset(schema, rows)


def drop_missing_labels(ds: Dataset) -> Dataset:
    """Remove rows whose label cell is missing."""
    li = ds.schema.label_index
    return Dataset(ds.schema, tuple(r for r in ds.rows if r[li] is not None))


def class_balance(ds: Dataset) -> ClassBalance:
    """Count rows per class by comparing label cells to the positive value.

    The negative class value is inferred from the first non-positive label
    seen; any later non-missing label matching neither class value raises
    UnrecognizedLabelValueError.
    """
    li = ds.schema.label_index
    pos_value = ds.schema.positive_label_value
    neg_value = None
    positives = negatives = missing = 0
    for r in ds.rows:
        cell = r[li]
        if cell is None:
            missing += 1
            continue
        text = _cell_text(cell)
        if label_values_equal(text, pos_value):
            positives += 1
        elif neg_value is None or label_values_equal(text, neg_value):
            neg_value = text if neg_value is None else neg_value
            negatives += 1
        else:
            raise UnrecognizedLabelValueError(
                f"label {text!r} matches neither {pos_value!r} nor {neg_value!r}"
            )
    return ClassBalance(negatives=negatives, positives=positives, missing=missing)


@dataclass(frozen=True)
class SyntheticFeature:
    """One column of the synthetic generator's feature spec.

    Categorical features draw uniformly from `values`; continuous features
    draw HH:MM-style times uniformly when `hhmm` is set, else uniform floats
    in [low, high).
    """

    name: str
    kind: str
    values: tuple = ()
    low: float = 0.0
    high: float = 1.0
    hhmm: bool = False


# The ten post-selection flight features plus their plausible value ranges.
# Airport ids are the five busiest US airports (ATL, LAX, ORD, DFW, JFK) with
# their world area codes.
DEFAULT_SYNTHETIC_FEATURES = (
    SyntheticFeature("Month", CATEGORICAL, values=tuple(str(m) for m in range(1, 13))),
    SyntheticFeature("Day_of_Month", CATEGORICAL, values=tuple(str(d) for d in range(1, 29))),
    SyntheticFeature("Day_of_Week", CATEGORICAL, values=tuple(str(d) for d in range(1, 8))),
    SyntheticFeature("Flight_Num", CATEGORICAL, values=tuple(str(n) for n in range(100, 160))),
    SyntheticFeature("Origin_Airport_ID", CATEGORICAL, values=("10397", "11298", "12478", "12892", "13930")),
    SyntheticFeature("Origin_World_Area_Code", CATEGORICAL, values=("22", "34", "41", "74", "91")),
    SyntheticFeature("Destination_Airport_ID", CATEGORICAL, values=("10397", "11298", "12478", "12892", "13930")),
    SyntheticFeature("Destination_World_Area_Code", CATEGORICAL, values=("22", "34", "41", "74", "91")),
    SyntheticFeature("CRS_Departure_Time", CONTINUOUS, hhmm=True),
    SyntheticFeature("CRS_Arrival_Time", CONTINUOUS, hhmm=True),
)

SYNTHETIC_LABEL_NAME = "Arr_Del_15"
SYNTHETIC_POSITIVE_VALUE = "1.00"
SYNTHETIC_NEGATIVE_VALUE = "0.00"


def synthetic_schema(features=DEFAULT_SYNTHETIC_FEATURES) -> Schema:
    cols = tuple(Column(f.name, f.kind) for f in features) + (
        Column(SYNTHETIC_LABEL_NAME, LABEL),
    )
    return Schema(cols, SYNTHETIC_POSITIVE_VALUE)


def generate_synthetic(
    n_rows: int,
    positive_fraction: float,
    seed: int,
    features=DEFAULT_SYNTHETIC_FEATURES,
    noise: float = 0.35,
) -> Dataset:
    """Generate a deterministic labelled flight dataset for desk-scale runs.

    Labels follow a hidden circadian rule on the scheduled departure and
    arrival times plus Gaussian noise, so the label is learnable but not
    trivially separable.  The rows with the highest delay risk are labelled
    positive, which pins the class imbalance to `positive_fraction` within
    one row.  All randomness comes from a NumPy PCG64 generator seeded with
    `seed`, so identical arguments produce identical datasets.

    Raises:
        InvalidSpecError: fewer than 10 rows or a fraction outside (0, 1).
    """
    if n_rows < 10:
        raise InvalidSpecError("synthetic datasets need at least 10 rows")
    if not 0.0 < positive_fraction < 1.0:
        raise InvalidSpecError("positive fraction must be in (0, 1)")
    rng = np.random.Generator(np.random.PCG64(seed))

    columns: list[list] = []
    dep_hours = arr_hours = None
    for f in features:
        if f.kind == CATEGORICAL:
            draws = rng.integers(0, len(f.values), size=n_rows)
            columns.append([f.values[i] for i in draws])
        elif f.hhmm:
            hours = rng.uniform(0.0, 24.0, size=n_rows)
            hhmm = (np.floor(hours).astype(int) * 100
                    + np.floor((hours % 1.0) * 60).astype(int))
            columns.append([float(v) for v in hhmm])
            if dep_hours is None:
                dep_hours = hours
            else:
                arr_hours = hours
        else:
            columns.append([float(v) for v in rng.uniform(f.low, f.high, size=n_rows)])

    if dep_hours is None:
        raise InvalidSpecError("feature spec must include at least one time column")
    if arr_hours is None:
        arr_hours = dep_hours

    # Hidden rule: evening departures and late arrivals carry higher risk.
    risk = (
        0.6 * np.sin(2.0 * math.pi * (dep_hours - 6.0) / 24.0)
        + 0.4 * np.sin(2.0 * math.pi * (arr_hours - 8.0) / 24.0)
        + rng.normal(0.0, noise, size=n_rows)
    )
    n_pos = int(round(positive_fraction * n_rows))
    order = np.argsort(risk, kind="stable")
    labels = [SYNTHETIC_NEGATIVE_VALUE] * n_rows
    for i in order[n_rows - n_pos:]:
        labels[i] = SYNTHETIC_POSITIVE_VALUE
    columns.append(labels)

    schema = synthetic_schema(features)
    rows = tuple(tuple(col[i] for col in columns) for i in range(n_rows))
    return Dataset(schema, rows)
