import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayboost import dataset
from delayboost.dataset import (
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
    EmptyInputError,
    FieldParseError,
    InvalidSpecError,
    MissingColumnError,
    RowArityError,
    SchemaMismatchError,
    UnknownColumnError,
    UnrecognizedLabelValueError,
)

TWO_COL = Schema((Column("CRS_Dep", CONTINUOUS), Column("ArrDel15", LABEL)), "1")


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def label_only(labels) -> Dataset:
    schema = Schema((Column("y", LABEL),), "1")
    return Dataset(schema, (list(labels),))


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


class TestSchemaJson:
    def test_round_trip(self):
        s = dataset.synthetic_schema()
        assert Schema.from_json(s.to_json()) == s

    def test_invariants(self):
        with pytest.raises(ValueError):
            Schema((Column("a", CATEGORICAL),), "1")  # no label
        with pytest.raises(ValueError):
            Schema((Column("a", LABEL), Column("a", LABEL)), "1")  # dup names


# Cells as load_csv returns them: text is stripped (NUL is rejected on load),
# continuous cells are finite; None, "" and NaN are all a missing cell.
_TEXT = st.text(
    st.one_of(st.sampled_from(',"\n\r \t'), st.characters(codec="utf-8", exclude_characters="\0")),
).map(str.strip)
_NUMBER = st.one_of(
    st.integers(-10**15, 10**15).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=1e15, max_value=1e300),
    st.floats(min_value=-1e-300, max_value=1e-300, allow_subnormal=True),
)
_KINDS = {CATEGORICAL: _TEXT, CONTINUOUS: _NUMBER, LABEL: _TEXT}


@st.composite
def _datasets(draw):
    kinds = draw(st.lists(st.sampled_from([CATEGORICAL, CONTINUOUS]), max_size=4)) + [LABEL]
    schema = Schema(tuple(Column(f"c{i}", k) for i, k in enumerate(kinds)), "1")
    n = draw(st.integers(0, 12))
    columns = [draw(st.lists(st.one_of(st.none(), _KINDS[k]), min_size=n, max_size=n))
               for k in kinds]
    return Dataset(schema, columns)


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
