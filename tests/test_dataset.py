import csv
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TEXT, header_names
from delayboost import dataset
from delayboost.dataset import (
    _format_cell,
    _parse_cell,
    _per_value,
    CATEGORICAL,
    CONTINUOUS,
    LABEL,
    Column,
    Dataset,
    Schema,
    class_balance,
    concat,
    drop_columns,
    drop_missing_labels,
    filter_equals,
    generate_synthetic,
    load_csv,
    write_csv,
)
from delayboost.errors import (
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

def reference_load_csv(path, schema, missing_label_ok=False):
    """`load_csv` as one `csv.reader` loop over the rows.

    The straightforward reader that `load_csv` must match on every file
    inside the quoting rule with no blank line: the same columns, or the same
    error.  It differs on purpose where `csv.reader` accepts what the rule
    does not (an unclosed quote, a quote inside an unquoted field, text after
    a closing quote) and on blank lines, which it reads as rows of 0 fields.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
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
                break
            n_rows += 1
            for cells, p in zip(texts.values(), positions):
                cells.append(fields[p])
    try:
        columns = []
        for c in schema.columns:
            values, inverse = _per_value(
                np.array(texts.get(c.name, [""] * n_rows), dtype=np.str_),
                lambda text: _parse_cell(text, c.kind, c.name, path, 0),
            )
            dtype = np.float64 if c.kind == CONTINUOUS else np.str_
            columns.append(np.array(values, dtype)[inverse])
    except FieldParseError:
        for line_no, row in enumerate(zip(*texts.values()), start=2):
            for col, text in zip(present, row):
                _parse_cell(text, col.kind, col.name, path, line_no)
        raise
    if len(fields) != len(header):
        raise RowArityError(
            f"{path}: line {n_rows + 2} has {len(fields)} fields, header has {len(header)}"
        )
    return Dataset(schema, columns)


TWO_COL = Schema((Column("CRS_Dep", CONTINUOUS), Column("ArrDel15", LABEL)), "1")


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def label_only(labels) -> Dataset:
    schema = Schema((Column("y", LABEL),), "1")
    return Dataset(schema, (list(labels),))


def assert_coded(ds):
    """Each text column is a sorted, distinct dictionary with int32 codes in range."""
    for c in ds.schema.columns:
        if c.kind != CONTINUOUS:
            col = ds.coded(c.name)
            assert list(col.texts) == sorted(set(col.texts))
            assert col.codes.dtype == np.int32 and col.codes.size == ds.n_rows
            assert np.all((col.codes >= 0) & (col.codes < len(col.texts)))


def rows(ds) -> list[tuple]:
    """The cells of `ds` row by row, with None for a missing cell."""
    columns = [
        [None if gone else v for v, gone in zip(ds.column(n).tolist(), ds.missing(n).tolist())]
        for n in ds.schema.names
    ]
    return list(zip(*columns))


class TestColumns:
    def test_dtypes_and_read_only(self):
        ds = Dataset(TWO_COL, ([930, None], ["1", None]))
        dep, label = ds.column("CRS_Dep"), ds.column("ArrDel15")
        assert dep.dtype == np.float64 and label.dtype.kind == "U"
        assert ds.missing("CRS_Dep").tolist() == [False, True]
        assert ds.missing("ArrDel15").tolist() == [False, True]
        with pytest.raises(ValueError):
            dep[0] = 1.0

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            Dataset(TWO_COL, ([930.0],))
        with pytest.raises(ValueError):
            Dataset(TWO_COL, ([930.0], ["1", "0"]))
        with pytest.raises(ValueError, match="one-dimensional"):
            Dataset(TWO_COL, ([[930.0]], ["1"]))
        with pytest.raises(ValueError, match="one-dimensional"):
            dataset.CodedColumn(("0", "1"), [[0, 1]])

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinity_in_a_continuous_column(self, value):
        with pytest.raises(ValueError, match="infinity"):
            Dataset(TWO_COL, ([930.0, value], ["1", "0"]))


class TestLoadCsv:
    def test_direct_parse(self, tmp_path):
        ds = load_csv(write(tmp_path, "CRS_Dep,ArrDel15\n930,0\n1450,1\n"), TWO_COL)
        assert ds.n_rows == 2
        assert ds.column("CRS_Dep").tolist() == [930.0, 1450.0]
        assert ds.column("ArrDel15").tolist() == ["0", "1"]

    def test_empty_field_is_missing(self, tmp_path):
        ds = load_csv(write(tmp_path, "CRS_Dep,ArrDel15\n930,\n"), TWO_COL)
        assert rows(ds) == [(930.0, None)]

    def test_row_arity(self, tmp_path):
        with pytest.raises(RowArityError):
            load_csv(write(tmp_path, "CRS_Dep,ArrDel15\n930\n"), TWO_COL)

    def test_missing_column(self, tmp_path):
        with pytest.raises(MissingColumnError):
            load_csv(write(tmp_path, "CRS_Dep,Other\n930,1\n"), TWO_COL)

    def test_non_numeric_continuous(self, tmp_path):
        with pytest.raises(FieldParseError):
            load_csv(write(tmp_path, "CRS_Dep,ArrDel15\nabc,1\n"), TWO_COL)

    def test_first_bad_cell_in_row_order_is_reported(self, tmp_path):
        schema = Schema((Column("a", CONTINUOUS), Column("b", CONTINUOUS),
                         Column("y", LABEL)), "1")
        text = "a,b,y\n1,2,0\n3,zz,1\nxx,4,0\n5\n"
        with pytest.raises(FieldParseError, match=r"line 3: non-numeric value 'zz'"):
            load_csv(write(tmp_path, text), schema)

    def test_duplicate_schema_column_in_header(self, tmp_path):
        text = "CRS_Dep,ArrDel15,CRS_Dep\n930,0,1450\n"
        with pytest.raises(SchemaMismatchError, match="CRS_Dep"):
            load_csv(write(tmp_path, text), TWO_COL)

    def test_nul_character_rejected(self, tmp_path):
        with pytest.raises(FieldParseError, match="NUL"):
            load_csv(write(tmp_path, "CRS_Dep,ArrDel15\n930,0\x00\n"), TWO_COL)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_continuous(self, tmp_path, text):
        with pytest.raises(FieldParseError):
            load_csv(write(tmp_path, f"CRS_Dep,ArrDel15\n930,0\n{text},1\n"), TWO_COL)

    def test_byte_order_mark_before_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfCRS_Dep,ArrDel15\n930,0\n")
        assert rows(load_csv(path, TWO_COL)) == [(930.0, "0")]

    def test_extra_columns_ignored(self, tmp_path):
        text = "Extra,CRS_Dep,ArrDel15,Tail\nz,930,1,q\n"
        ds = load_csv(write(tmp_path, text), TWO_COL)
        assert ds.schema == TWO_COL
        assert rows(ds) == [(930.0, "1")]

    def test_quoted_fields(self, tmp_path):
        schema = Schema((Column("name", CATEGORICAL), Column("y", LABEL)), "1")
        text = 'name,y\n"a,b",1\n"say ""hi""",0\n'
        ds = load_csv(write(tmp_path, text), schema)
        assert ds.column("name").tolist() == ["a,b", 'say "hi"']

    def test_missing_label_ok_fills_none(self, tmp_path):
        ds = load_csv(write(tmp_path, "CRS_Dep\n930\n"), TWO_COL, missing_label_ok=True)
        assert rows(ds) == [(930.0, None)]

    def test_csv_round_trip(self, tmp_path):
        ds = generate_synthetic(50, 0.3, seed=5)
        out = tmp_path / "round.csv"
        write_csv(ds, out)
        again = load_csv(out, ds.schema)
        assert rows(again) == rows(ds)



LABELLED = Schema((Column("a", CONTINUOUS), Column("y", LABEL)), "1")


class TestCsvDialect:
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_line_ends(self, tmp_path, end):
        text = end.join(["a,y", "930,0", '1450,"1"']) + end
        assert rows(load_csv(write(tmp_path, text), LABELLED)) == [(930.0, "0"), (1450.0, "1")]

    def test_quoted_line_ends_stay_in_the_cell(self, tmp_path):
        schema = Schema((Column("name", CATEGORICAL), Column("y", LABEL)), "1")
        path = tmp_path / "data.csv"
        path.write_bytes(b'name,y\r\n"one\r\ntwo\nthree\rfour",1\r\n')
        assert load_csv(path, schema).column("name").tolist() == ["one\r\ntwo\nthree\rfour"]

    def test_cells_of_every_width(self, tmp_path):
        schema = Schema((Column("name", CATEGORICAL), Column("y", LABEL)), "1")
        names = ["", "a", "12345678", "123456789", "x" * 16, "y" * 17, "é" * 40, "a" * 8]
        text = "name,y\n" + "".join(f'"{n}",1\n' for n in names)
        assert load_csv(write(tmp_path, text), schema).column("name").tolist() == names

    def test_a_wide_cell_costs_only_its_own_bytes(self, tmp_path):
        # keying every cell of the column as wide as its widest takes rows x 50,000 bytes
        schema = Schema((Column("name", CATEGORICAL), Column("y", LABEL)), "1")
        names = [f"n{i}" for i in range(1000)] + ["w" * 50_000]
        path = write(tmp_path, "name,y\n" + "".join(f"{n},1\n" for n in names))
        tracemalloc.start()
        try:
            ds = load_csv(path, schema)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        column = ds.coded("name")
        assert [column.texts[c] for c in column.codes] == names
        assert peak < 10_000_000

    def test_trailing_blank_line_is_skipped(self, tmp_path):
        assert rows(load_csv(write(tmp_path, "a,y\n930,0\n\n"), LABELLED)) == [(930.0, "0")]

    def test_blank_line_mid_file_is_skipped(self, tmp_path):
        ds = load_csv(write(tmp_path, "a,y\n930,0\n\r\n\n1450,1\n"), LABELLED)
        assert rows(ds) == [(930.0, "0"), (1450.0, "1")]

    def test_header_and_blank_lines_only(self, tmp_path):
        assert load_csv(write(tmp_path, "a,y\n\n\r\n"), LABELLED).n_rows == 0

    @pytest.mark.parametrize("data", [b"", b"\xef\xbb\xbf", b"\n\r\n"],
                             ids=["empty", "byte-order-mark", "blank-lines"])
    def test_no_header_is_empty_input(self, tmp_path, data):
        path = tmp_path / "data.csv"
        path.write_bytes(data)
        with pytest.raises(EmptyInputError, match="empty file, header required"):
            load_csv(path, LABELLED)

    @pytest.mark.parametrize("text, message", [
        ("a,y\n\n930,0\nzz,1\n", "line 4: non-numeric value 'zz'"),
        ("a,y\r\n\r\n\r\n930\r\n", "line 4 has 1 fields, header has 2"),
        ('a,y\n"\n\n",0\n\n930,"1\n', "line 4: quote opened here is never closed"),
    ], ids=["bad-cell", "arity", "quote"])
    def test_line_numbers_count_blank_lines(self, tmp_path, text, message):
        with pytest.raises(DataError, match=message):
            load_csv(write(tmp_path, text), LABELLED)


class TestQuotingRule:
    def test_unterminated_quote(self, tmp_path):
        path = write(tmp_path, 'a,y\n1,0\n2,"1\n3,0\n4,1\n5,0\n')
        with pytest.raises(FieldParseError, match="line 3: quote opened here is never closed"):
            load_csv(path, LABELLED)

    def test_quote_inside_unquoted_field(self, tmp_path):
        path = write(tmp_path, 'a,y,z\n1,0,ab"c\n')
        with pytest.raises(FieldParseError, match="line 2: quote inside an unquoted field"):
            load_csv(path, LABELLED)

    def test_text_after_closing_quote(self, tmp_path):
        path = write(tmp_path, 'a,y\n1,0\n2,"0"x\n')
        with pytest.raises(FieldParseError, match="line 3: text after a closing quote"):
            load_csv(path, LABELLED)

    def test_doubled_quotes_inside_quoted_field(self, tmp_path):
        schema = Schema((Column("name", CATEGORICAL), Column("y", LABEL)), "1")
        text = 'name,y\n"""",1\n"""a""",0\n"a,""b""",1\n""," 0"\n'
        ds = load_csv(write(tmp_path, text), schema)
        assert ds.column("name").tolist() == ['"', '"a"', 'a,"b"', ""]


# One cell of a random CSV: ASCII, what needs quoting (a comma, a quote, a
# line end) and multi-byte UTF-8, up to 12 pieces, so some cells pass 8 and
# 16 bytes.
_CELL = st.lists(
    st.one_of(st.sampled_from([",", '"', "\n", "\r\n", "\r", " ", ".", "-", "0", "7", "ab"]),
              st.characters(codec="utf-8", exclude_characters="\0")),
    max_size=12,
).map("".join)
_NUMBER_TEXT = st.one_of(
    st.integers(-3000, 3000).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["", " 12 ", "0.00", "1.5e3", "abc", "nan", "inf", "-Infinity", "1e400"]),
)
_HEADER_EXTRAS = st.lists(st.sampled_from(["x", " y z ", "Über", "a,b", 'q"t', "c0"]), max_size=2)


def _field(draw, cell: str, only_field: bool) -> str:
    """`cell` as CSV: quoted when it must be, and sometimes when it need not."""
    must = any(ch in cell for ch in ',"\r\n') or (only_field and cell == "")
    if must or draw(st.booleans()):
        return '"' + cell.replace('"', '""') + '"'
    return cell


@st.composite
def _csv_files(draw):
    """(bytes, schema, missing_label_ok): a random CSV inside the quoting rule, no blank line.

    It varies the line end (LF, CRLF, CR), the byte-order mark, the final
    line end, quoting, short and long rows, bad continuous cells, extra and
    repeated header columns, and a missing label column.  A few files get one
    NUL or one byte from 0x80-0xFF.
    """
    kinds = draw(st.lists(st.sampled_from([CATEGORICAL, CONTINUOUS]), max_size=3)) + [LABEL]
    schema = Schema(tuple(Column(f"c{i}", k) for i, k in enumerate(kinds)), "1")
    missing_label_ok = draw(st.booleans())
    names = schema.names
    if draw(st.booleans()):
        names = names[:-1]  # loads only with missing_label_ok
    header = draw(st.permutations(names + draw(_HEADER_EXTRAS))) or ["x"]  # never a blank line
    kind_of = {c.name: c.kind for c in schema.columns}
    records = [header]
    for _ in range(draw(st.integers(0, 6))):
        cells = [draw(_NUMBER_TEXT if kind_of.get(n) == CONTINUOUS else _CELL) for n in header]
        size = draw(st.sampled_from([len(cells)] * 6 + [len(cells) - 1, len(cells) + 1]))
        records.append((cells + ["7"])[: max(size, 1)])
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(
        ",".join(_field(draw, c, len(r) == 1) for c in r)
        for r in records
    )
    data = (text + (end if draw(st.booleans()) else "")).encode("utf-8")
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    stray = draw(st.sampled_from([None] * 8 + [0, 0x80, 0xC3, 0xFF]))
    if stray is not None:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + bytes([stray]) + data[at:]
    return data, schema, missing_label_ok


def _outcome(load, path, schema, missing_label_ok):
    """Each column's dtype and bytes, or the class and message of the error."""
    try:
        ds = load(path, schema, missing_label_ok)
    except DataError as exc:
        return type(exc), str(exc)
    assert_coded(ds)
    return [(c.dtype.str, c.tobytes()) for c in map(ds.column, schema.names)]


class TestLoadMatchesRowReader:
    @settings(max_examples=300, deadline=None)
    @given(_csv_files())
    def test_same_columns_or_same_error(self, tmp_path_factory, drawn):
        data, schema, missing_label_ok = drawn
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        path.write_bytes(data)
        assert _outcome(load_csv, path, schema, missing_label_ok) == _outcome(
            reference_load_csv, path, schema, missing_label_ok)


class TestConcat:
    def test_identity(self, tmp_path):
        ds = load_csv(write(tmp_path, "CRS_Dep,ArrDel15\n930,0\n"), TWO_COL)
        assert rows(concat([ds])) == rows(ds)

    def test_additivity(self):
        d1 = label_only(["1", "0"])
        d2 = label_only(["1", "1", "0"])
        assert concat([d1, d2]).n_rows == 5

    def test_monthly_parts(self):
        parts = [label_only(["1"] * 5) for _ in range(24)]
        assert concat(parts).n_rows == 24 * 5

    def test_order_is_caller_order(self):
        d1 = label_only(["1"])
        d2 = label_only(["0"])
        assert rows(concat([d2, d1])) == [("0",), ("1",)]

    def test_schema_mismatch(self):
        other = Dataset(Schema((Column("z", LABEL),), "1"), (("1",),))
        with pytest.raises(SchemaMismatchError):
            concat([label_only(["1"]), other])

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            concat([])


AIRLINE = Schema(
    (Column("DOT_ID", CATEGORICAL), Column("y", LABEL)), "1"
)


def airline_rows(*dot_ids):
    return Dataset(AIRLINE, tuple(zip(*((d, "1") for d in dot_ids))))


class TestFilterEquals:
    def test_keeps_matching_rows(self):
        ds = airline_rows("19805", "20409", "19805")
        out = filter_equals(ds, "DOT_ID", {"19805"})
        assert out.n_rows == 2
        assert all(d == "19805" for d in out.column("DOT_ID").tolist())
        assert out.schema == ds.schema

    def test_empty_result_same_schema(self):
        ds = airline_rows("20409")
        out = filter_equals(ds, "DOT_ID", {"19805"})
        assert out.n_rows == 0
        assert out.schema == ds.schema

    def test_unknown_column(self):
        with pytest.raises(UnknownColumnError):
            filter_equals(airline_rows("19805"), "nope", {"1"})

    def test_trims_whitespace(self):
        ds = Dataset(AIRLINE, tuple(zip((" 19805 ", "1"))))
        assert filter_equals(ds, "DOT_ID", {"19805"}).n_rows == 1

    def test_never_grows(self):
        ds = airline_rows("a", "b", "c")
        assert filter_equals(ds, "DOT_ID", {"a", "b", "c", "d"}).n_rows <= ds.n_rows

    def test_missing_cells_never_match(self):
        ds = Dataset(AIRLINE, (["19805", None], ["1", "1"]))
        assert filter_equals(ds, "DOT_ID", {"19805", ""}).n_rows == 1

    def test_continuous_cells_match_their_csv_text(self):
        schema = Schema((Column("dep", CONTINUOUS), Column("y", LABEL)), "1")
        ds = Dataset(schema, ([930.0, 930.5, None], ["1", "0", "1"]))
        assert rows(filter_equals(ds, "dep", {"930", "930.5"})) == [(930.0, "1"), (930.5, "0")]


FOUR_COL = Schema(
    (
        Column("Year", CATEGORICAL),
        Column("Quarter", CATEGORICAL),
        Column("Month", CATEGORICAL),
        Column("Arr_Del_15", LABEL),
    ),
    "1",
)


class TestDropColumns:
    def test_drop_two(self):
        ds = Dataset(FOUR_COL, tuple(zip(("2015", "1", "3", "1"))))
        out = drop_columns(ds, ["Year", "Quarter"])
        assert out.schema.names == ["Month", "Arr_Del_15"]
        assert rows(out) == [("3", "1")]

    def test_drop_nothing_is_identity(self):
        ds = Dataset(FOUR_COL, tuple(zip(("2015", "1", "3", "1"))))
        out = drop_columns(ds, [])
        assert out.schema == ds.schema and rows(out) == rows(ds)

    def test_cannot_drop_label(self):
        ds = Dataset(FOUR_COL, ((),) * 4)
        with pytest.raises(CannotDropLabelError):
            drop_columns(ds, ["Arr_Del_15"])

    def test_unknown_column(self):
        with pytest.raises(UnknownColumnError):
            drop_columns(Dataset(FOUR_COL, ((),) * 4), ["Bogus"])


class TestDropMissingLabels:
    def test_paper_scale_counts(self):
        # 76,090 + 19,668 labelled plus the implied 1,602 missing-label rows
        labels = ["0"] * 76090 + ["1"] * 19668 + [None] * 1602
        ds = label_only(labels)
        assert ds.n_rows == 97360
        out = drop_missing_labels(ds)
        assert out.n_rows == 76090 + 19668 == 95758

    def test_identity_when_clean(self):
        ds = label_only(["1", "0"])
        assert rows(drop_missing_labels(ds)) == rows(ds)

    def test_all_missing(self):
        assert drop_missing_labels(label_only([None, None])).n_rows == 0

    def test_schema_preserved(self):
        ds = label_only(["1", None])
        assert drop_missing_labels(ds).schema == ds.schema


class TestClassBalance:
    def test_paper_counts(self):
        ds = label_only(["0"] * 76090 + ["1"] * 19668)
        b = class_balance(ds)
        assert (b.negatives, b.positives, b.missing) == (76090, 19668, 0)
        assert b.total == ds.n_rows

    def test_empty(self):
        b = class_balance(label_only([]))
        assert (b.negatives, b.positives, b.missing) == (0, 0, 0)

    def test_small(self):
        b = class_balance(label_only(["1", "1", "0"]))
        assert (b.positives, b.negatives) == (2, 1)

    def test_numeric_equality(self):
        schema = Schema((Column("y", LABEL),), "1.00")
        ds = Dataset(schema, tuple(zip(*[("1",), ("1.0",), ("0.00",), ("0",)])))
        b = class_balance(ds)
        assert (b.positives, b.negatives) == (2, 2)

    def test_unrecognized_third_value(self):
        with pytest.raises(UnrecognizedLabelValueError, match="'2' matches neither '1' nor '0'"):
            class_balance(label_only(["1", "0", "2"]))

    def test_missing_counted(self):
        b = class_balance(label_only(["1", None, "0", None]))
        assert b.missing == 2 and b.total == 4


class TestGenerateSynthetic:
    def test_row_count_and_imbalance(self):
        ds = generate_synthetic(1000, 0.2, seed=7)
        assert ds.n_rows == 1000
        b = class_balance(ds)
        assert abs(b.positives - 200) <= 1

    def test_deterministic(self, tmp_path):
        d1 = generate_synthetic(200, 0.2, seed=7)
        d2 = generate_synthetic(200, 0.2, seed=7)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(d1, p1)
        write_csv(d2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_seed_sensitivity(self):
        d1 = generate_synthetic(200, 0.2, seed=7)
        d2 = generate_synthetic(200, 0.2, seed=8)
        assert rows(d1) != rows(d2)

    def test_expected_columns(self):
        ds = generate_synthetic(20, 0.5, seed=0)
        assert ds.schema.names == [
            "Month",
            "Day_of_Month",
            "Day_of_Week",
            "Flight_Num",
            "Origin_Airport_ID",
            "Origin_World_Area_Code",
            "Destination_Airport_ID",
            "Destination_World_Area_Code",
            "CRS_Departure_Time",
            "CRS_Arrival_Time",
            "Arr_Del_15",
        ]

    def test_time_ranges(self):
        ds = generate_synthetic(500, 0.2, seed=3)
        for name in ("CRS_Departure_Time", "CRS_Arrival_Time"):
            col = np.array(ds.column(name))
            assert col.min() >= 0.0 and col.max() <= 2359.0

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpecError):
            generate_synthetic(5, 0.2, seed=0)
        with pytest.raises(InvalidSpecError):
            generate_synthetic(100, 0.0, seed=0)
        with pytest.raises(InvalidSpecError):
            generate_synthetic(100, 1.0, seed=0)
        # fractions that would round one class down to no row
        with pytest.raises(InvalidSpecError, match="at least one row in each class"):
            generate_synthetic(50, 0.01, seed=0)
        with pytest.raises(InvalidSpecError, match="at least one row in each class"):
            generate_synthetic(50, 0.99, seed=0)


class TestSchemaJson:
    def test_round_trip(self):
        s = dataset.synthetic_schema()
        assert Schema.from_json(s.to_json()) == s

    def test_invariants(self):
        with pytest.raises(ValueError):
            Schema((Column("a", CATEGORICAL),), "1")  # no label
        with pytest.raises(ValueError):
            Schema((Column("a", LABEL), Column("a", LABEL)), "1")  # dup names


# Cells as load_csv returns them: text is stripped, continuous cells are
# finite; None, "" and NaN are all a missing cell.
_NUMBER = st.one_of(
    st.integers(-10**15, 10**15).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=1e15, max_value=1e300),
    st.floats(min_value=-1e-300, max_value=1e-300, allow_subnormal=True),
)
_KINDS = {CATEGORICAL: TEXT, CONTINUOUS: _NUMBER, LABEL: TEXT}


def _cells(draw, schema):
    """Columns for `schema`: each a list of cells, with None for a missing one."""
    n = draw(st.integers(0, 12))
    return [draw(st.lists(st.one_of(st.none(), _KINDS[c.kind]), min_size=n, max_size=n))
            for c in schema.columns]


@st.composite
def _dataset_cells(draw):
    """(schema, columns), the columns as `_cells` draws them."""
    kinds = draw(st.lists(st.sampled_from([CATEGORICAL, CONTINUOUS]), max_size=4)) + [LABEL]
    names = draw(header_names(len(kinds)))
    schema = Schema(tuple(Column(n, k) for n, k in zip(names, kinds)), "1")
    return schema, _cells(draw, schema)


def _datasets():
    return _dataset_cells().map(lambda drawn: Dataset(*drawn))


def reference_text_column(cells) -> np.ndarray:
    """A text column as `Dataset` stored it before dictionaries: a str array, "" for None."""
    col = np.asarray(cells)
    if col.dtype == object:
        col = np.where(np.equal(col, None), "", col)
    return col.astype(np.str_)


class TestCodedColumns:
    @settings(max_examples=100, deadline=None)
    @given(_dataset_cells(), st.booleans())
    def test_decoded_columns_equal_str_arrays(self, drawn, as_array):
        schema, columns = drawn
        if as_array:  # a str array is coded as a list is
            columns = [reference_text_column(c) if k.kind != CONTINUOUS else c
                       for c, k in zip(columns, schema.columns)]
        ds = Dataset(schema, columns)
        assert_coded(ds)
        for cells, col in zip(columns, schema.columns):
            if col.kind == CONTINUOUS:
                continue
            got, want = ds.column(col.name), reference_text_column(cells)
            assert got.dtype.kind == "U" and got.tolist() == want.tolist()
            if ds.n_rows:  # an empty list used to make a <U32 column, now <U1
                assert (got.dtype.str, got.tobytes()) == (want.dtype.str, want.tobytes())
            assert ds.missing(col.name).tolist() == (want == "").tolist()

    @settings(max_examples=60, deadline=None)
    @given(_dataset_cells(), st.data())
    def test_concat_filter_and_drop_keep_the_invariants(self, drawn, data):
        schema, columns = drawn
        more = [_cells(data.draw, schema) for _ in range(data.draw(st.integers(0, 2)))]
        datasets = [Dataset(schema, c) for c in [columns, *more]]
        ds = concat(datasets)
        assert_coded(ds)
        assert rows(ds) == [r for part in datasets for r in rows(part)]
        name = data.draw(st.sampled_from(schema.names))
        allowed = data.draw(st.sets(TEXT, max_size=3))
        for out in (filter_equals(ds, name, allowed), drop_missing_labels(ds)):
            assert_coded(out)
            # a row filter keeps every dictionary whole
            for c in schema.columns:
                if c.kind != CONTINUOUS:
                    assert out.coded(c.name).texts == ds.coded(c.name).texts

    def test_generate_synthetic(self):
        ds = generate_synthetic(300, 0.2, seed=4)
        assert_coded(ds)
        assert ds.coded("Month").texts == tuple(sorted(str(m) for m in range(1, 13)))
        assert ds.coded("Arr_Del_15").texts == ("0.00", "1.00")
        assert class_balance(ds).positives == 60

    def test_load_csv_strips_then_codes(self, tmp_path):
        schema = Schema((Column("name", CATEGORICAL), Column("y", LABEL)), "1")
        ds = load_csv(write(tmp_path, 'name,y\n b,1\n"b ",0\na,\n'), schema)
        assert ds.coded("name").texts == ("a", "b")
        assert ds.coded("name").codes.tolist() == [1, 1, 0]
        assert ds.coded("y").texts == ("", "0", "1")
        assert ds.missing("y").tolist() == [False, False, True]

    @pytest.mark.parametrize("texts, codes", [
        (("b", "a"), [0, 1]), (("a", "a"), [0, 1]), (("a", "b"), [0, 2]), (("a",), [-1]),
    ], ids=["unsorted", "repeated", "code-past-the-end", "negative-code"])
    def test_malformed_coded_column(self, texts, codes):
        with pytest.raises(ValueError, match="coded column"):
            Dataset(TWO_COL, ([1.0, 2.0][:len(codes)], dataset.CodedColumn(texts, codes)))

    def test_continuous_column_is_not_coded(self):
        with pytest.raises(ValueError, match="continuous"):
            Dataset(TWO_COL, ([930.0], ["1"])).coded("CRS_Dep")


class TestRoundTripProperty:
    @settings(max_examples=80, deadline=None)
    @given(_datasets())
    def test_write_then_load_keeps_every_cell(self, tmp_path_factory, ds):
        path = tmp_path_factory.mktemp("round") / "data.csv"
        write_csv(ds, path)
        again = load_csv(path, ds.schema)
        assert again.n_rows == ds.n_rows
        for name in ds.schema.names:
            gone = ds.missing(name)
            assert again.missing(name).tolist() == gone.tolist()
            assert again.column(name)[~gone].tolist() == ds.column(name)[~gone].tolist()


    @pytest.mark.parametrize("first", ["\ufeffx", "\ufeff", '\ufeff"x'])
    def test_first_name_that_starts_with_a_byte_order_mark(self, tmp_path, first):
        # quoted, or load_csv would skip the name's first bytes as a byte-order mark
        schema = Schema((Column(first, CATEGORICAL), Column("y", LABEL)), "1")
        path = tmp_path / "data.csv"
        write_csv(Dataset(schema, (["a", "b"], ["1", "0"])), path)
        assert path.read_text(encoding="utf-8").startswith('"\ufeff')
        assert load_csv(path, schema).column(first).tolist() == ["a", "b"]

    def test_quoted_byte_order_mark_is_part_of_the_name(self, tmp_path):
        schema = Schema((Column("\ufeffx", CATEGORICAL), Column("y", LABEL)), "1")
        ds = load_csv(write(tmp_path, '"\ufeffx",y\na,1\n'), schema)
        assert ds.column("\ufeffx").tolist() == ["a"]


class TestWriteMatchesCsvWriter:
    @settings(max_examples=200, deadline=None)
    @given(_datasets())
    def test_same_bytes_as_a_row_by_row_csv_writer(self, tmp_path_factory, ds):
        path = tmp_path_factory.mktemp("write") / "data.csv"
        write_csv(ds, path)
        expected = io.StringIO()
        writer = csv.writer(expected)  # quotes as write_csv does when records end in CRLF
        writer.writerow(ds.schema.names)
        writer.writerows(zip(*([_format_cell(v) for v in ds.column(n).tolist()]
                               for n in ds.schema.names)))
        want, first = expected.getvalue(), ds.schema.names[0]
        if want.startswith("\ufeff"):  # write_csv quotes it, or it would read as a BOM
            want = f'"{first}"' + want[len(first):]
        assert path.read_bytes() == want.encode("utf-8")
