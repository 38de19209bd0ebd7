"""Raw tabular flight data: loading, concatenation, filtering, and cleaning.

A :class:`Dataset` stores each continuous column as a read-only ``float64``
array with NaN for a missing cell, and each categorical and label column as
a :class:`CodedColumn`: a dictionary of its sorted distinct texts, with
``""`` for a missing cell, and a read-only ``int32`` code per row (the layout
of an Arrow dictionary array or a pandas ``Categorical``).  A filter keeps the
dictionary whole, so it may hold texts that no row uses.  Only this module
knows those sentinels; others call ``Dataset.missing(name)``, and
``Dataset.column(name)`` decodes a text column into a ``str`` array.  Every
operation returns a new object and preserves the input.

CSV dialect, read by ``load_csv`` and written by ``_write_records``: UTF-8 (a
leading byte-order mark is skipped), comma separated, mandatory header row,
empty field = missing value.  Lines end in LF, CRLF or CR, and blank lines
are skipped.  A quoted field opens and closes with ``"`` and writes a ``"``
inside as ``""``; a ``"`` anywhere else, or a quote left open, is a data
error.  A file holding NUL is rejected, as ``str`` arrays drop trailing NULs.
"""

from __future__ import annotations

import codecs
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
class CodedColumn:
    """A text column: its sorted distinct `texts`, and each row's `codes` into them.

    `codes` is int32 and read-only.  Sorted texts make a code's order the
    order of its text, as `EncodingPlan` sorts categories.  ValueError
    unless the texts are sorted and distinct and every code indexes one.
    """

    texts: tuple[str, ...]
    codes: np.ndarray

    def __post_init__(self):
        texts = tuple(self.texts)
        codes = np.asarray(self.codes, dtype=np.int32)
        if codes.ndim != 1:
            raise ValueError("each column must be one-dimensional")
        if any(a >= b for a, b in zip(texts, texts[1:])):
            raise ValueError("a coded column's texts must be sorted and distinct")
        if codes.size and not 0 <= codes.min() <= codes.max() < len(texts):
            raise ValueError("a coded column's code is out of range")
        codes.flags.writeable = False
        object.__setattr__(self, "texts", texts)
        object.__setattr__(self, "codes", codes)

    @property
    def size(self) -> int:
        return self.codes.size

    def __getitem__(self, rows) -> "CodedColumn":
        """The column at `rows` (an index array or a mask), with the same dictionary."""
        return CodedColumn(self.texts, self.codes[rows])

    def decode(self) -> np.ndarray:
        return np.array(self.texts, dtype=np.str_)[self.codes]

    def missing(self) -> np.ndarray:
        # "" sorts first, so it is missing text exactly when it is text 0
        return self.codes == 0 if self.texts[:1] == ("",) else np.zeros(self.size, bool)

    def codes_in(self, texts) -> np.ndarray:
        """Each row's position in `texts`, or -1 where its text is not there."""
        return _positions(self.texts, texts)[self.codes]


def _positions(texts, dictionary) -> np.ndarray:
    """The int32 position of each of `texts` in `dictionary`, or -1 where it is not there."""
    position = {t: i for i, t in enumerate(dictionary)}
    return np.array([position.get(t, -1) for t in texts], dtype=np.int32)


def _coded(texts, index) -> CodedColumn:
    """The column whose row i holds texts[index[i]]; `texts` may repeat and be unsorted."""
    dictionary = tuple(sorted(set(texts)))
    return CodedColumn(dictionary, _positions(texts, dictionary)[index])


@dataclass(frozen=True, eq=False)
class Dataset:
    """Columns in schema order: any 1-D sequences, with None for a missing cell.

    A categorical or label column may also be given as a `CodedColumn`.  An
    infinity in a continuous column is a ValueError, as no CSV cell holds one.
    Compared by identity, since a comparison of arrays has no single truth value.
    """

    schema: Schema
    columns: tuple

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
        """The cells of column `name`: float64, or str for a categorical or label column."""
        col = self.columns[self.schema.index_of(name)]
        return col.decode() if isinstance(col, CodedColumn) else col

    def coded(self, name: str) -> CodedColumn:
        """The dictionary and codes of a categorical or label column."""
        col = self.columns[self.schema.index_of(name)]
        if not isinstance(col, CodedColumn):
            raise ValueError(f"column {name!r} is continuous, not coded")
        return col

    def missing(self, name: str) -> np.ndarray:
        """Boolean mask of the rows whose cell in column `name` is missing."""
        col = self.columns[self.schema.index_of(name)]
        return col.missing() if isinstance(col, CodedColumn) else np.isnan(col)


def _as_column(values, kind: str):
    """`values` as a float64 array, or as the `CodedColumn` that `_coded` makes of
    each value as `str` (None as "") for a text kind, as `load_csv` codes text."""
    if isinstance(values, CodedColumn) and kind != CONTINUOUS:
        return values
    text = kind != CONTINUOUS
    # a text sequence is read as objects, so no cell is widened to the longest one
    col = np.asarray(values, dtype=object if text and not isinstance(values, np.ndarray) else None)
    if col.ndim != 1 or (text and any(np.ndim(v) for v in col)):  # a cell may not be a list
        raise ValueError("each column must be one-dimensional")
    if text:
        texts = ["" if v is None else str(v) for v in col]
        return _coded(texts, np.arange(len(texts)))
    if col.dtype == object:
        col = np.where(np.equal(col, None), np.nan, col)
    col = col.astype(np.float64)
    if np.isinf(col).any():
        raise ValueError("a continuous column holds an infinity")
    col.flags.writeable = False
    return col


def _per_value(col, fn) -> tuple[list, np.ndarray]:
    """`fn` of each distinct value of `col` (floats by bit pattern) and each row's index.

    A `CodedColumn` gives `fn` of each text of its dictionary and its codes."""
    if isinstance(col, CodedColumn):
        return [fn(t) for t in col.texts], col.codes
    key = col.view(np.uint64) if col.dtype == np.float64 else col
    distinct, inverse = np.unique(key, return_inverse=True)
    return [fn(v) for v in distinct.view(col.dtype).tolist()], inverse


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
    matching neither raises UnrecognizedLabelValueError.  Each text of the
    label dictionary is resolved once, and only texts that some row holds count.
    """
    col = ds.coded(ds.schema.label_name)
    texts = [t.strip() for t in col.texts]
    classes = np.array([label_values_equal(t, positive_value) for t in texts], dtype=np.int64)
    if col.texts[:1] == ("",):
        classes[0] = -1
    used = np.bincount(col.codes, minlength=len(texts)) > 0
    others = np.flatnonzero(used & (classes == 0))
    if others.size > 1:  # order them by first row
        codes, first = np.unique(col.codes, return_index=True)
        others = others[np.argsort(first[np.searchsorted(codes, others)])]
    for j in others[1:]:
        if not label_values_equal(texts[j], texts[others[0]]):
            raise UnrecognizedLabelValueError(
                f"label {texts[j]!r} matches neither {positive_value!r} nor {texts[others[0]]!r}"
            )
    return classes[col.codes]


def _parse_cell(text: str, kind: str, column: str, path, line: int):
    text = text.strip()
    if kind != CONTINUOUS:
        return text
    if text == "":
        return math.nan
    try:
        value = float(text)
    except ValueError:
        raise FieldParseError(
            f"{path}: line {line}: non-numeric value {text!r} in continuous column {column!r}"
        ) from None
    if not math.isfinite(value):
        raise FieldParseError(
            f"{path}: line {line}: non-finite value {text!r} in continuous column {column!r}"
        )
    return value


def load_csv(path, schema: Schema, missing_label_ok: bool = False) -> Dataset:
    """Read a CSV file, keeping only schema columns in schema order.

    The header must contain every schema column once; extra columns are
    ignored.  Empty fields become missing cells and continuous cells are
    parsed as decimal numbers.  With `missing_label_ok`, a file without the
    label column loads with every label cell missing (for prediction-only input).
    Blank lines are skipped, but line numbers in messages count them, with
    the header as line 1.

    The file is split with array operations over its bytes, and each column's
    distinct cells are parsed once.  A bad cell in an earlier row is named
    before a later row of the wrong length.

    Raises:
        EmptyInputError: the file holds no header.
        MissingColumnError: a schema column is absent from the header.
        SchemaMismatchError: a schema column appears twice in the header.
        RowArityError: a data row's field count differs from the header's.
        FieldParseError: non-numeric or non-finite text in a continuous
            column, a quote that breaks the quoting rule, a NUL character
            anywhere in the file, or a file that is not UTF-8.
    """
    data, buf = _read_text(path)
    starts, ends, count = _split_fields(buf, path)
    if not count.size:
        raise EmptyInputError(f"{path}: empty file, header required")

    header = [_unquote(buf[s:e].tobytes()).strip()
              for s, e in zip(starts[:count[0]], ends[:count[0]])]
    present = []
    for col in schema.columns:
        if header.count(col.name) > 1:
            raise SchemaMismatchError(f"{path}: column {col.name!r} appears twice in header")
        if col.name in header:
            present.append(col)
        elif not (missing_label_ok and col.kind == LABEL):
            raise MissingColumnError(f"{path}: column {col.name!r} not in header")

    # Rows run up to the first record of the wrong length; from there on the
    # fields are out of step with the header.
    misfit = np.flatnonzero(count[1:] != len(header))
    n_rows = misfit[0] if misfit.size else count.size - 1
    cells = slice(count[0], count[0] + n_rows * len(header))
    cell_starts = starts[cells].reshape(n_rows, len(header))
    cell_lengths = ends[cells].reshape(n_rows, len(header)) - cell_starts
    columns, bad_cells = {}, []
    for order, col in enumerate(present):
        p = header.index(col.name)
        distinct, inverse = _distinct_cells(data, cell_starts[:, p], cell_lengths[:, p])
        texts = [_unquote(raw) for raw in distinct]
        values = [_parse_or_none(text, col) for text in texts]
        if None in values:  # this column's first bad cell in row order
            bad = np.flatnonzero(np.array([v is None for v in values], dtype=bool)[inverse])
            bad_cells.append((bad[0], order, texts[inverse[bad[0]]], col))
        if col.kind == CONTINUOUS:
            columns[col.name] = np.array(values, dtype=np.float64)[inverse]
        else:
            columns[col.name] = _coded(values, inverse)
    if bad_cells:
        row, _, text, col = min(bad_cells)
        _parse_cell(text, col.kind, col.name, path, _line_number(buf, cell_starts[row, 0]))
    if misfit.size:
        record = misfit[0] + 1
        line = _line_number(buf, starts[count[:record].sum()])
        raise RowArityError(
            f"{path}: line {line} has {count[record]} fields, header has {len(header)}"
        )
    return Dataset(schema, [
        columns.get(c.name, CodedColumn(("",), np.zeros(n_rows, np.int32)))
        for c in schema.columns
    ])


def _read_text(path) -> tuple[bytes, np.ndarray]:
    """The bytes of CSV `path` past any BOM, then 8 zero bytes (so an 8-byte
    word fits at every cell's start), and a uint8 view of them without the 8.

    Raises FieldParseError for a file that is not UTF-8 or holds a NUL.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FieldParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if b"\0" in data:
        raise FieldParseError(f"{path}: NUL character in file")
    bom = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    data = data[bom:] + bytes(8)
    return data, np.frombuffer(data, np.uint8)[:-8]


def row_line(path, row: int) -> int:
    """The line of CSV `path` that holds the data row that `load_csv` puts at
    index `row`, counted as its messages count: from 1, with the header and
    blank lines.  The file is read again, so call this on an error path."""
    _, buf = _read_text(path)
    starts, _, count = _split_fields(buf, path)
    return _line_number(buf, starts[count[:row + 1].sum()])


_QUOTE, _COMMA, _LF, _CR = b'"'[0], b","[0], b"\n"[0], b"\r"[0]


def _split_fields(buf: np.ndarray, path):
    """Byte spans of the fields of `buf`, and the field count of each record.

    Returns (starts, ends, count): field i is buf[starts[i]:ends[i]], with
    any quotes still on, and the records hold count[0], count[1], ... fields
    in turn.  A comma ends a field, and a run of line-end bytes (CR or LF)
    ends a record, both only outside quotes, that is after an even number
    of quote bytes.  A run holding more than one line end also holds blank
    records, which are skipped.

    Raises FieldParseError for a quote that breaks the quoting rule.
    """
    is_quote = buf == _QUOTE
    # newline[i] tells whether byte i - 1 ends a line; bytes -1 and n do
    newline = np.ones(buf.size + 2, bool)
    np.logical_or(buf == _CR, buf == _LF, out=newline[1:-1])
    comma = np.zeros(buf.size + 1, bool)
    np.equal(buf, _COMMA, out=comma[:-1])
    if is_quote.any():
        inside = np.logical_xor.accumulate(is_quote)
        _check_quotes(buf, is_quote, inside, newline[1:-1] | comma[:-1], path)
        newline[1:-1] &= ~inside
        comma[:-1] &= ~inside
    record_end = newline[1:] & ~newline[:-1]  # the first byte of each run of line ends
    begins = newline[:-1] & ~newline[1:]  # the first byte after each run
    begins[1:] |= comma[:-1]
    ends = np.flatnonzero(comma | record_end)
    last = np.flatnonzero(record_end[ends])
    return np.flatnonzero(begins), ends, np.diff(last, prepend=-1)


def _line_number(buf: np.ndarray, at: int) -> int:
    """The number of the record that holds byte `at`, counting blank records, from 1."""
    head = buf[:at]
    cr, lf = head == _CR, head == _LF
    line_end = cr | lf
    line_end[1:] &= ~(lf[1:] & cr[:-1])  # the LF of a CRLF ends no line of its own
    is_quote = head == _QUOTE
    if is_quote.any():
        line_end &= ~np.logical_xor.accumulate(is_quote)
    return 1 + int(np.count_nonzero(line_end))


def _check_quotes(buf, is_quote, inside, separator, path) -> None:
    """Raise FieldParseError unless every quote opens, closes or doubles within a field.

    `inside` is true from an odd-numbered quote byte (counting from 1) up to
    the next quote.  So a quote where `inside` turns true must open a field
    or be the second of a doubled pair: it follows a separator, a quote or
    the start of the text.  A quote where it turns false must close a field
    or be the first of a pair: a separator, a quote or the end follows it.
    """
    edge = np.ones(buf.size + 2, bool)  # edge[i]: byte i - 1 bounds a field; bytes -1 and n do
    np.logical_or(separator, is_quote, out=edge[1:-1])
    wrong = is_quote & ~((edge[:-2] | ~inside) & (edge[2:] | inside))
    if wrong.any():
        at = np.argmax(wrong)
        what = "quote inside an unquoted field" if inside[at] else "text after a closing quote"
    elif inside[-1]:
        opens = is_quote & inside
        opens[1:] &= ~is_quote[:-1]  # the second quote of a pair opens nothing
        at = np.flatnonzero(opens)[-1]
        what = "quote opened here is never closed"
    else:
        return
    raise FieldParseError(f"{path}: line {_line_number(buf, at)}: {what}")


def _distinct_cells(raw: bytes, starts: np.ndarray, lengths: np.ndarray):
    """The distinct byte strings raw[start:start + length], and each cell's index into them.

    `raw` ends in 8 zero bytes past the last cell.  When every cell fits in
    8 bytes, each is keyed as the little-endian uint64 that starts at it,
    with the bytes past its end masked off, and the keys are sorted.  Else
    each cell is keyed by its own bytes in a dict, so memory grows with the
    text, not with the rows times the longest cell.
    """
    if lengths.max(initial=0) <= 8:
        words = np.ndarray(len(raw) - 7, "<u8", raw, strides=(1,))
        keys, inverse = np.unique(words[starts] & _FIRST_BYTES[lengths], return_inverse=True)
        return keys.astype("<u8").view("S8").tolist(), inverse
    index = {}
    inverse = [index.setdefault(raw[s:s + n], len(index))
               for s, n in zip(starts.tolist(), lengths.tolist())]
    return list(index), np.array(inverse, dtype=np.intp)


# _FIRST_BYTES[k] keeps the first k bytes of a little-endian 8-byte word
_FIRST_BYTES = np.array([2 ** (8 * k) - 1 for k in range(9)], dtype=np.uint64)


def _unquote(raw: bytes) -> str:
    """A field's text: decoded, and if quoted, without its quotes and with \"\" read as \"."""
    text = raw.decode("utf-8")
    return text[1:-1].replace('""', '"') if text.startswith('"') else text


def _parse_or_none(text: str, col: Column):
    """The cell as `_parse_cell` reads it, or None where it raises FieldParseError."""
    try:
        return _parse_cell(text, col.kind, col.name, "", 0)
    except FieldParseError:
        return None


def write_csv(ds: Dataset, path) -> None:
    """Write a dataset in the CSV dialect that load_csv reads, each record ending in CRLF."""
    _write_records(path, ds.schema.names, [(c, _format_cell) for c in ds.columns], "\r\n")


def _write_records(path, header, columns, line_end: str) -> None:
    """Write the `header` names, then a record per row, each ending in `line_end`.

    Each column is (values, formatter): a 1-D array or a `CodedColumn`, and the
    function that gives one of its values as field text, called once per distinct
    value.  A text is quoted, each quote doubled, if it holds a comma, a quote, CR or
    LF, or if it is empty and alone in its record, since load_csv skips a blank line.
    A first name that starts with U+FEFF is quoted too, or load_csv would read its
    bytes as a byte-order mark."""
    def must(text):
        return any(c in text for c in ',"\r\n') or (not text and len(header) == 1)

    def quoted(texts):
        if len(header) > 1 and not must("".join(texts)):  # one scan of the whole column
            return texts
        return ['"' + t.replace('"', '""') + '"' if must(t) else t for t in texts]

    names = quoted(header)
    if names[0].startswith("\ufeff"):
        names = ['"' + names[0] + '"', *names[1:]]
    columns = [_per_value(values, formatter) for values, formatter in columns]
    fields = [np.array(quoted(texts), dtype=object) for texts, _ in columns]
    fields[-1] += line_end
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(names) + line_end)
        fh.writelines(map(",".join, zip(*(f[i].tolist() for f, (_, i) in zip(fields, columns)))))


def _format_cell(cell) -> str:
    if isinstance(cell, str):
        return cell
    if math.isnan(cell):
        return ""
    if cell == int(cell) and abs(cell) < 1e15:
        return str(int(cell))
    return repr(cell)


def concat(parts: list[Dataset]) -> Dataset:
    """Stack datasets row-wise; all parts must share an identical schema."""
    if not parts:
        raise EmptyInputError("concat requires at least one dataset")
    if any(p.schema != parts[0].schema for p in parts):
        raise SchemaMismatchError("datasets have differing schemas")
    return Dataset(parts[0].schema, [_concat(c) for c in zip(*(p.columns for p in parts))])


def _concat(pieces):
    """One column of each part, stacked; text columns get the union of their dictionaries."""
    if not isinstance(pieces[0], CodedColumn):
        return np.concatenate(pieces)
    texts = tuple(sorted(set().union(*(p.texts for p in pieces))))
    return CodedColumn(texts, np.concatenate([p.codes_in(texts) for p in pieces]))


def filter_equals(ds: Dataset, column: str, allowed) -> Dataset:
    """Keep rows whose cell in `column` textually equals any allowed value.

    Matching is on exact text after trimming whitespace; missing cells never
    match.  Order and schema are preserved.
    """
    col = ds.columns[ds.schema.index_of(column)]
    allowed = {str(v).strip() for v in allowed}
    matches, inverse = _per_value(col, lambda cell: _format_cell(cell).strip() in allowed)
    keep = np.array(matches, dtype=bool)[inverse] & ~ds.missing(column)
    return Dataset(ds.schema, [c[keep] for c in ds.columns])


def drop_columns(ds: Dataset, names) -> Dataset:
    """Remove the named feature columns; the label column may not be dropped."""
    names = list(names)
    for n in names:
        if ds.schema.columns[ds.schema.index_of(n)].kind == LABEL:
            raise CannotDropLabelError(f"cannot drop label column {n!r}")
    keep = [i for i, c in enumerate(ds.schema.columns) if c.name not in names]
    schema = Schema(tuple(ds.schema.columns[i] for i in keep), ds.schema.positive_label_value)
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


def _check_synthetic_spec(n_rows: int, positive_fraction: float) -> int:
    """The number of positive rows of a valid spec; InvalidSpecError otherwise."""
    if n_rows < 10:
        raise InvalidSpecError("n_rows must be >= 10")
    if not 0.0 < positive_fraction < 1.0:
        raise InvalidSpecError("positive_fraction must be in (0, 1)")
    n_pos = int(round(positive_fraction * n_rows))
    if not 0 < n_pos < n_rows:
        raise InvalidSpecError("positive_fraction must leave at least one row in each class")
    return n_pos


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
        InvalidSpecError: fewer than 10 rows, a fraction outside (0, 1), or
            one that leaves a class with no row.
    """
    n_pos = _check_synthetic_spec(n_rows, positive_fraction)
    rng = np.random.Generator(np.random.PCG64(seed))

    columns = [
        _coded(values, rng.integers(0, len(values), size=n_rows))
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
    order = np.argsort(risk, kind="stable")
    positive = np.zeros(n_rows, dtype=np.intp)
    positive[order[n_rows - n_pos:]] = 1
    columns.append(_coded((SYNTHETIC_NEGATIVE_VALUE, SYNTHETIC_POSITIVE_VALUE), positive))
    return Dataset(synthetic_schema(), columns)
