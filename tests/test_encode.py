import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypothesis.extra.numpy import arrays

from conftest import make_matrix
from delayboost.dataset import (
    CATEGORICAL,
    CONTINUOUS,
    LABEL,
    Column,
    Dataset,
    Schema,
    filter_equals,
    label_classes,
)
from delayboost.encode import (
    EncodingPlan,
    _require_present,
    apply_encoding,
    fit_encoding,
    pearson_matrix,
    shuffle_split,
)
from delayboost.errors import (
    DataError,
    MissingCellError,
    NotCategoricalError,
    TooFewRowsError,
    UnknownColumnError,
    UnrecognizedLabelValueError,
    UnseenCategoryError,
)

SCHEMA = Schema(
    (
        Column("airport", CATEGORICAL),
        Column("carrier", CATEGORICAL),
        Column("dep", CONTINUOUS),
        Column("y", LABEL),
    ),
    "1",
)


def flights(*rows) -> Dataset:
    return Dataset(SCHEMA, tuple(zip(*rows)))


BASE = flights(
    ("b", "AA", 930.0, "1"),
    ("a", "AA", 1450.0, "0"),
    ("c", "UA", 700.0, "0"),
)


class TestFitEncoding:
    def test_alphabetical_codes(self):
        plan = fit_encoding(BASE, one_hot=())
        assert plan.categories["airport"] == ("a", "b", "c")
        assert plan.categories["carrier"] == ("AA", "UA")

    def test_single_value(self):
        ds = flights(("x", "AA", 1.0, "1"))
        plan = fit_encoding(ds, one_hot=())
        assert plan.categories["airport"] == ("x",)

    def test_numeric_looking_lexicographic(self):
        ds = flights(("10", "AA", 1.0, "1"), ("2", "AA", 2.0, "0"))
        plan = fit_encoding(ds, one_hot=())
        assert plan.categories["airport"] == ("10", "2")

    def test_unknown_one_hot_column(self):
        with pytest.raises(UnknownColumnError):
            fit_encoding(BASE, one_hot=("bogus",))

    def test_one_hot_must_be_categorical(self):
        with pytest.raises(NotCategoricalError):
            fit_encoding(BASE, one_hot=("dep",))
        with pytest.raises(NotCategoricalError):
            fit_encoding(BASE, one_hot=("y",))

    def test_missing_categorical_cell(self):
        ds = flights((None, "AA", 1.0, "1"))
        with pytest.raises(MissingCellError):
            fit_encoding(ds, one_hot=())

    def test_plan_doc_round_trip(self):
        plan = fit_encoding(BASE, one_hot=("airport",))
        assert EncodingPlan.from_doc(plan.to_doc()) == plan

    @pytest.mark.parametrize("cats", [["b", "a", "c"], ["a", "a", "b", "c"]])
    def test_plan_doc_categories_must_be_sorted_and_distinct(self, cats):
        doc = fit_encoding(BASE, one_hot=()).to_doc()
        doc["categories"]["airport"] = cats
        with pytest.raises(ValueError):
            EncodingPlan.from_doc(doc)


class TestApplyEncoding:
    def test_one_hot_group_sums_to_one(self):
        plan = fit_encoding(BASE, one_hot=("airport",))
        fm = apply_encoding(BASE, plan)
        assert fm.column_names[:3] == ("airport=a", "airport=b", "airport=c")
        group = fm.values[:, :3]
        assert np.array_equal(group.sum(axis=1), np.ones(3))

    def test_integer_codes(self):
        plan = fit_encoding(BASE, one_hot=())
        fm = apply_encoding(BASE, plan)
        assert fm.column_names == ("airport", "carrier", "dep", )
        assert list(fm.column("airport")) == [1.0, 0.0, 2.0]  # b, a, c

    def test_decode_round_trip(self):
        plan = fit_encoding(BASE, one_hot=())
        fm = apply_encoding(BASE, plan)
        codes = fm.column("airport").astype(int)
        raw = [plan.decode("airport", c) for c in codes]
        assert raw == ["b", "a", "c"]

    def test_continuous_passthrough_and_labels(self):
        plan = fit_encoding(BASE, one_hot=())
        fm = apply_encoding(BASE, plan)
        assert list(fm.column("dep")) == [930.0, 1450.0, 700.0]
        assert list(fm.labels) == [1, 0, 0]

    def test_unseen_category_training_mode(self):
        plan = fit_encoding(BASE, one_hot=("airport",))
        novel = flights(("zz", "AA", 1.0, "0"))
        with pytest.raises(UnseenCategoryError):
            apply_encoding(novel, plan)

    def test_unseen_one_hot_prediction_mode(self):
        plan = fit_encoding(BASE, one_hot=("airport",))
        novel = flights(("zz", "AA", 1.0, "0"))
        fm = apply_encoding(novel, plan, training=False)
        assert np.array_equal(fm.values[0, :3], np.zeros(3))
        assert fm.unseen_categories == 1

    def test_unseen_integer_code_prediction_mode(self):
        plan = fit_encoding(BASE, one_hot=())
        novel = flights(("zz", "AA", 1.0, "0"))
        fm = apply_encoding(novel, plan, training=False)
        assert fm.column("airport")[0] == -1.0
        assert fm.unseen_categories == 1

    def test_missing_label_training_mode(self):
        ds = flights(("a", "AA", 1.0, None))
        plan = fit_encoding(BASE, one_hot=())
        with pytest.raises(MissingCellError):
            apply_encoding(ds, plan)

    def test_missing_label_prediction_mode(self):
        ds = flights(("a", "AA", 1.0, None))
        plan = fit_encoding(BASE, one_hot=())
        fm = apply_encoding(ds, plan, training=False)
        assert fm.labels.tolist() == [0]

    @pytest.mark.parametrize("training", [True, False])
    def test_third_label_value(self, training):
        ds = flights(("a", "AA", 1.0, "0"), ("b", "AA", 2.0, "1"), ("c", "UA", 3.0, "2"))
        plan = fit_encoding(BASE, one_hot=())
        with pytest.raises(UnrecognizedLabelValueError):
            apply_encoding(ds, plan, training=training)

    def test_matrix_immutable(self):
        plan = fit_encoding(BASE, one_hot=())
        fm = apply_encoding(BASE, plan)
        with pytest.raises(ValueError):
            fm.values[0, 0] = 99.0


def reference_encoding(fit_rows, rows, one_hot, training):
    """Row-by-row oracle for fit_encoding followed by apply_encoding on SCHEMA."""
    categories = [sorted({r[j] for r in fit_rows}) for j in (0, 1)]
    values, labels, unseen = [], [], 0
    for r in rows:
        out = []
        for j, (name, cats) in enumerate(zip(("airport", "carrier"), categories)):
            code = cats.index(r[j]) if r[j] in cats else -1
            if code < 0:
                if training:
                    raise UnseenCategoryError(r[j])
                unseen += 1
            out += [float(code == k) for k in range(len(cats))] if name in one_hot else [code]
        values.append(out + [r[2]])
        labels.append(int(float(r[3]) == 1.0))
    return categories, values, labels, unseen


_CATEGORY = st.sampled_from(["a", "b", "B", "10", "2", "a b", "\u00e9", "\u65e5", "zz"])
_LABEL = st.sampled_from(["0", "0.00", "1", "1.00"])
_ROW = st.tuples(_CATEGORY, _CATEGORY, st.floats(-1e6, 1e6), _LABEL)


class TestReferenceProperty:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(_ROW, min_size=1, max_size=10), st.lists(_ROW, min_size=1, max_size=10),
           st.sets(st.sampled_from(["airport", "carrier"])), st.booleans())
    def test_matches_row_by_row_reference(self, fit_rows, rows, one_hot, training):
        plan = fit_encoding(flights(*fit_rows), one_hot=tuple(one_hot))
        try:
            expected = reference_encoding(fit_rows, rows, one_hot, training)
        except UnseenCategoryError:
            with pytest.raises(UnseenCategoryError):
                apply_encoding(flights(*rows), plan, training=training)
            return
        categories, values, labels, unseen = expected
        fm = apply_encoding(flights(*rows), plan, training=training)
        assert [list(plan.categories[n]) for n in ("airport", "carrier")] == categories
        assert fm.values.tolist() == values
        assert fm.labels.tolist() == labels
        assert fm.unseen_categories == unseen


def reference_apply_encoding(ds, plan, training=True):
    """`apply_encoding` over str columns: searchsorted codes, concatenated blocks.

    The encoder from before `Dataset` columns were dictionaries, kept as the
    oracle the coded encoder must match bit for bit.  Returns (values,
    labels, unseen_categories).
    """
    blocks = [np.empty((ds.n_rows, 0))]
    unseen = 0
    for col in plan.feature_columns:
        _require_present(ds, col.name)
        cells = ds.column(col.name)
        if col.kind == CONTINUOUS:
            blocks.append(cells[:, None])
            continue
        cats = np.array(plan.categories[col.name], dtype=np.str_)
        codes = np.searchsorted(cats, cells)
        found = codes < cats.size
        found[found] = cats[codes[found]] == cells[found]
        if not found.all():
            if training:
                raise UnseenCategoryError(
                    f"value {str(cells[np.argmin(found)])!r} in column {col.name!r} not in plan"
                )
            unseen += int(np.count_nonzero(~found))
        codes[~found] = -1
        if col.name in plan.one_hot:
            blocks.append(codes[:, None] == np.arange(cats.size))
        else:
            blocks.append(codes[:, None])
    values = np.concatenate(blocks, axis=1, dtype=np.float64)
    classes = label_classes(ds, plan.positive_label_value)
    missing = classes < 0
    if training and missing.any():
        raise MissingCellError(
            f"row {np.argmax(missing)}: missing label (drop missing labels first)"
        )
    return values, classes == 1, unseen


_WORDS = ["a", "b", "B", "10", "2", "a b", " a", "\u00e9", "\u65e5", "zz"]
_LABEL_TEXTS = ["0", "0.00", "1", "1.00"]


@st.composite
def _encoding_inputs(draw):
    """(fit rows, rows, one-hot names, training): datasets on SCHEMA, some cells
    missing or unseen, the fit rows sometimes filtered so that their
    dictionaries hold texts no row uses."""
    def dataset():
        word = st.sampled_from(_WORDS + [""] * draw(st.booleans()))
        label = st.sampled_from(_LABEL_TEXTS + ["", "2"] * draw(st.booleans()))
        rows = draw(st.lists(st.tuples(word, word, st.floats(-1e6, 1e6), label), max_size=10))
        return Dataset(SCHEMA, tuple(zip(*rows)) if rows else ((),) * 4)

    fit_ds, ds = dataset(), dataset()
    if draw(st.booleans()):
        fit_ds = filter_equals(fit_ds, "airport", draw(st.sets(st.sampled_from(_WORDS))))
    one_hot = draw(st.sets(st.sampled_from(["airport", "carrier"])))
    return fit_ds, ds, tuple(sorted(one_hot)), draw(st.booleans())


def _encoded(encode, ds, plan, training):
    """(values bytes, shape, labels, unseen) of an encoding, or its error."""
    try:
        values, labels, unseen = encode(ds, plan, training)
    except DataError as exc:
        return type(exc), str(exc)
    return values.tobytes(), values.shape, labels.tolist(), unseen


def _coded_encoding(ds, plan, training):
    fm = apply_encoding(ds, plan, training=training)
    assert fm.values.flags.f_contiguous
    return fm.values, fm.labels, fm.unseen_categories


class TestCodedEncodingProperty:
    @settings(max_examples=200, deadline=None)
    @given(_encoding_inputs())
    def test_equals_the_str_array_encoder(self, inputs):
        fit_ds, ds, one_hot, training = inputs
        try:
            plan = fit_encoding(fit_ds, one_hot=one_hot)
        except MissingCellError:
            assert fit_ds.missing("airport").any() or fit_ds.missing("carrier").any()
            return
        for name in ("airport", "carrier"):
            assert plan.categories[name] == tuple(np.unique(fit_ds.column(name)).tolist())
        assert _encoded(_coded_encoding, ds, plan, training) == _encoded(
            reference_apply_encoding, ds, plan, training)


@st.composite
def _matrices_and_rows(draw):
    """A C-ordered matrix, its labels, and row indices: ids (negative ones too) or a mask."""
    n = draw(st.integers(1, 12))
    d = draw(st.integers(0, 4))
    X = draw(arrays(np.float64, (n, d), elements=st.floats(allow_nan=False)))
    y = draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    if draw(st.booleans()):
        rows = draw(arrays(np.bool_, n))
    else:
        rows = np.array(draw(st.lists(st.integers(-n, n - 1), max_size=2 * n)), dtype=np.intp)
    return X, y, rows


class TestColumnMajorProperty:
    @settings(max_examples=150, deadline=None)
    @given(_matrices_and_rows())
    def test_take_gathers_the_rows_column_major(self, inputs):
        X, y, rows = inputs
        fm = make_matrix(X, y)
        assert fm.values.flags.f_contiguous and not fm.values.flags.writeable
        out = fm.take(rows)
        assert out.values.flags.f_contiguous
        assert out.values.shape == X[rows].shape
        assert out.values.tobytes() == X[rows].tobytes()
        assert out.labels.tobytes() == y[rows].tobytes()

    @settings(max_examples=80, deadline=None)
    @given(_matrices_and_rows(), st.floats(0.05, 0.95), st.integers(0, 2**32 - 1))
    def test_shuffle_split_halves_are_column_major(self, inputs, fraction, seed):
        X, y, _ = inputs
        if X.shape[0] < 2:
            return
        pair = shuffle_split(make_matrix(X, y), fraction, seed=seed)
        perm = np.random.Generator(np.random.PCG64(seed)).permutation(X.shape[0])
        cut = int(np.floor(fraction * X.shape[0]))
        for part, rows in ((pair.train, perm[:cut]), (pair.validation, perm[cut:])):
            assert part.values.flags.f_contiguous
            assert part.values.shape == X[rows].shape
            assert part.values.tobytes() == X[rows].tobytes()
            assert part.labels.tobytes() == y[rows].tobytes()


class TestPearson:
    def test_self_correlation(self):
        fm = make_matrix([[1.0], [2.0], [3.0]], [0, 1, 0])
        r = pearson_matrix(fm, ["x0", "x0"])
        assert r.matrix[0, 1] == pytest.approx(1.0)

    def test_anticorrelation(self):
        fm = make_matrix([[1.0, -1.0], [2.0, -2.0], [3.0, -3.0]], [0, 1, 0])
        r = pearson_matrix(fm, ["x0", "x1"])
        assert r.matrix[0, 1] == pytest.approx(-1.0)

    def test_textbook_formula_oracle(self):
        x = [1.0, 2.0, 3.0, 4.0]
        y = [2.0, 4.0, 5.0, 9.0]
        n = 4
        sx, sy = sum(x), sum(y)
        sxy = sum(a * b for a, b in zip(x, y))
        sxx = sum(a * a for a in x)
        syy = sum(b * b for b in y)
        expected = (n * sxy - sx * sy) / math.sqrt(
            (n * sxx - sx * sx) * (n * syy - sy * sy)
        )
        fm = make_matrix(np.column_stack([x, y]), [0, 0, 1, 1])
        r = pearson_matrix(fm, ["x0", "x1"])
        assert r.matrix[0, 1] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.9647638212377322, abs=1e-12)

    def test_label_column(self):
        fm = make_matrix([[1.0], [2.0], [3.0], [4.0]], [0, 0, 1, 1])
        r = pearson_matrix(fm, ["x0", "label"])
        assert r.matrix[0, 1] > 0.8

    def test_symmetry_unit_diagonal_and_range(self):
        rng = np.random.default_rng(3)
        fm = make_matrix(rng.normal(size=(40, 4)), rng.integers(0, 2, 40))
        r = pearson_matrix(fm, ["x0", "x1", "x2", "x3"])
        assert np.allclose(r.matrix, r.matrix.T)
        assert np.allclose(np.diag(r.matrix), 1.0)
        assert np.all(r.matrix >= -1.0) and np.all(r.matrix <= 1.0)

    def test_constant_column_degenerate(self):
        fm = make_matrix([[1.0, 5.0], [2.0, 5.0]], [0, 1])
        r = pearson_matrix(fm, ["x0", "x1"])
        assert r.degenerate == ("x1",)
        assert r.matrix[1, 1] == 0.0 and r.matrix[0, 1] == 0.0

    def test_too_few_rows(self):
        fm = make_matrix([[1.0]], [1])
        with pytest.raises(TooFewRowsError):
            pearson_matrix(fm, ["x0"])

    def test_unknown_column(self):
        fm = make_matrix([[1.0], [2.0]], [0, 1])
        with pytest.raises(DataError):
            pearson_matrix(fm, ["nope"])


class TestShuffleSplit:
    def test_floor_rule(self):
        fm = make_matrix(np.arange(10.0).reshape(10, 1), [0, 1] * 5)
        pair = shuffle_split(fm, 0.8, seed=0)
        assert pair.train.n_rows == 8 and pair.validation.n_rows == 2

    def test_deterministic(self):
        fm = make_matrix(np.arange(20.0).reshape(20, 1), [0, 1] * 10)
        a = shuffle_split(fm, 0.75, seed=9)
        b = shuffle_split(fm, 0.75, seed=9)
        assert np.array_equal(a.train.values, b.train.values)
        assert np.array_equal(a.validation.labels, b.validation.labels)

    def test_multiset_conservation(self):
        fm = make_matrix(np.arange(11.0).reshape(11, 1), [0] * 6 + [1] * 5)
        pair = shuffle_split(fm, 0.8, seed=4)
        combined = np.concatenate([pair.train.values[:, 0], pair.validation.values[:, 0]])
        assert sorted(combined) == sorted(fm.values[:, 0])
        assert pair.train.labels.size + pair.validation.labels.size == 11

    def test_too_few_rows(self):
        fm = make_matrix([[1.0]], [1])
        with pytest.raises(TooFewRowsError):
            shuffle_split(fm, 0.8, seed=0)

    def test_bad_fraction(self):
        fm = make_matrix([[1.0], [2.0]], [0, 1])
        for frac in (0.0, 1.0, -0.5):
            with pytest.raises(DataError):
                shuffle_split(fm, frac, seed=0)
