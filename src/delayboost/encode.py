"""Numeric encoding of cleaned datasets, correlations, and the train/validation split.

Categorical columns get alphabetical integer codes (sorted distinct raw
values, code = position).  Columns named in the one-hot set expand to one
binary column per category instead; by default that set is the
`DEFAULT_ONE_HOT` columns the dataset holds as categorical.  Continuous
columns pass through and the label maps to {0, 1}.  Encoding works on each
column's dictionary (`dataset.CodedColumn`): the plan's categories are
matched to its texts once, and every output column is written straight
into the matrix.  `EncodingPlan.schema` is the schema a model's input is
read with.

A :class:`FeatureMatrix` is column-major (Fortran order) by invariant, the
column blocks of XGBoost (Chen & Guestrin 2016, section 4.1): split search,
`presort`, routing, SMOTE and the CSV writer all read one column at a time,
and each column is one contiguous run of memory.  Every function here that
makes a matrix allocates it in that order, and the constructor copies a
matrix in any other layout once.

Shuffling uses NumPy's PCG64 generator seeded with the caller's seed; the
permutation is drawn with ``Generator.permutation`` (Fisher-Yates).  Stating
the generator pins the split, so a given (input order, seed) pair always
produces the same train/validation partition.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import CATEGORICAL, CONTINUOUS, LABEL, Column, Dataset, Schema, label_classes
from .errors import (
    DataError,
    MissingCellError,
    NotCategoricalError,
    TooFewRowsError,
    UnseenCategoryError,
)

# The paper-era default: one-hot the airport and world-area-code columns,
# whose distinct-value counts stay small.
DEFAULT_ONE_HOT = (
    "Origin_Airport_ID",
    "Origin_World_Area_Code",
    "Destination_Airport_ID",
    "Destination_World_Area_Code",
)


@dataclass(frozen=True)
class EncodingPlan:
    """Everything needed to turn a raw dataset into numbers, reproducibly.

    `categories` maps each categorical column to its sorted distinct raw
    values; a value's integer code is its position in that tuple.  Sorting is
    plain lexicographic over the raw text (which for UTF-8 equals byte
    order), so numeric-looking categories like "10" sort before "2".
    DataError if two output columns, or one and the label, share a name.
    """

    feature_columns: tuple[Column, ...]
    categories: dict[str, tuple[str, ...]]
    one_hot: frozenset[str]
    label_name: str
    positive_label_value: str

    def __post_init__(self):
        names = (*self.output_names, self.label_name)
        if len(set(names)) < len(names):
            clash = next(n for i, n in enumerate(names) if n in names[:i])
            raise DataError(f"column name {clash!r} is used twice among the encoded "
                            f"columns and the label")

    @property
    def schema(self) -> Schema:
        """The columns a dataset needs for this plan: the feature columns, then the label."""
        return Schema(self.feature_columns + (Column(self.label_name, LABEL),),
                      self.positive_label_value)

    @property
    def output_names(self) -> tuple[str, ...]:
        names = []
        for col in self.feature_columns:
            if col.kind == CATEGORICAL and col.name in self.one_hot:
                names.extend(f"{col.name}={v}" for v in self.categories[col.name])
            else:
                names.append(col.name)
        return tuple(names)

    def decode(self, column: str, code: int) -> str:
        """Recover the raw text behind an integer code."""
        return self.categories[column][code]

    def to_doc(self) -> dict:
        return {
            "feature_columns": [[c.name, c.kind] for c in self.feature_columns],
            "categories": {k: list(v) for k, v in self.categories.items()},
            "one_hot": sorted(self.one_hot),
            "label_name": self.label_name,
            "positive_label_value": self.positive_label_value,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "EncodingPlan":
        """The plan of a `to_doc` document; ValueError unless `to_doc` could have written it.

        `categories` holds one sorted list of distinct strings for each
        categorical feature column and nothing else, and `one_hot` is a list
        of categorical feature column names.  Clashing output names raise
        DataError, as at construction.
        """
        feature_columns = tuple(Column(n, k) for n, k in doc["feature_columns"])
        categorical = {c.name for c in feature_columns if c.kind == CATEGORICAL}
        categories, one_hot = doc["categories"], doc["one_hot"]
        if not isinstance(categories, dict) or categories.keys() != categorical:
            raise ValueError("plan categories must have one entry for each categorical "
                             "feature column and no other")
        for name, values in categories.items():
            if not (isinstance(values, list) and all(isinstance(v, str) for v in values)
                    and values == sorted(set(values))):
                raise ValueError(f"plan categories of {name!r} must be a sorted list "
                                 f"of distinct strings")
        if not isinstance(one_hot, list) or not set(one_hot) <= categorical:
            raise ValueError("plan one_hot must be a list of categorical feature column names")
        plan = cls(
            feature_columns=feature_columns,
            categories={k: tuple(v) for k, v in categories.items()},
            one_hot=frozenset(one_hot),
            label_name=doc["label_name"],
            positive_label_value=doc["positive_label_value"],
        )
        plan.schema  # held to the schema rules: string names, one label, a string label value
        return plan


@dataclass(frozen=True)
class FeatureMatrix:
    """Fully numeric n x d matrix with a binary label vector, and the plan that made it.

    `values` is always F-contiguous (column-major) and read-only; values in
    another layout are copied into that one here.  ValueError unless it has
    one column per name of `plan.output_names`, which are its column names.
    """

    values: np.ndarray
    labels: np.ndarray
    plan: EncodingPlan
    unseen_categories: int = 0

    def __post_init__(self):
        # the layout invariant: every reader of `values` may take its columns as contiguous
        object.__setattr__(self, "values", np.asfortranarray(self.values, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        self.values.flags.writeable = False
        self.labels.flags.writeable = False
        if self.values.shape[1:] != (len(self.column_names),):
            raise ValueError(f"values of shape {self.values.shape} do not fit a plan "
                             f"of {len(self.column_names)} columns")

    @property
    def column_names(self) -> tuple[str, ...]:
        return self.plan.output_names

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    def take(self, indices) -> "FeatureMatrix":
        """A copy of the rows at `indices`, an integer array or a boolean mask.

        Gathered one column at a time into a column-major matrix, since
        `values[indices]` would come back row-major.
        """
        idx = np.arange(self.n_rows)[indices]  # row ids, from a mask or negative ids alike
        values = np.empty((idx.size, self.n_features), order="F")
        for j, column in enumerate(self.values.T):
            values[:, j] = column.take(idx)
        return replace(self, values=values, labels=self.labels.take(idx))

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.column_names.index(name)]


@dataclass(frozen=True)
class SplitPair:
    train: FeatureMatrix
    validation: FeatureMatrix


def fit_encoding(ds: Dataset, one_hot=None) -> EncodingPlan:
    """Learn the encoding plan for a cleaned dataset.

    `one_hot` names the columns to one-hot encode; None means those of
    `DEFAULT_ONE_HOT` that `ds` holds as categorical.

    Raises:
        UnknownColumnError: a one-hot name is not a schema column.
        NotCategoricalError: a one-hot name refers to a non-categorical column.
        MissingCellError: a categorical cell is missing (only labels may be).
    """
    feature_cols = tuple(c for c in ds.schema.columns if c.kind != LABEL)
    categorical = [c.name for c in feature_cols if c.kind == CATEGORICAL]
    if one_hot is None:
        one_hot = [name for name in categorical if name in DEFAULT_ONE_HOT]
    for name in one_hot:
        if name not in categorical:
            kind = ds.schema.columns[ds.schema.index_of(name)].kind  # or UnknownColumnError
            what = "the label" if kind == LABEL else kind
            raise NotCategoricalError(f"column {name!r} is {what}, not categorical")

    categories = {}
    for name in categorical:
        _require_present(ds, name)
        cells = ds.coded(name)
        used = np.bincount(cells.codes, minlength=len(cells.texts)) > 0
        categories[name] = tuple(t for t, u in zip(cells.texts, used.tolist()) if u)

    return EncodingPlan(
        feature_columns=feature_cols,
        categories=categories,
        one_hot=frozenset(one_hot),
        label_name=ds.schema.label_name,
        positive_label_value=ds.schema.positive_label_value,
    )


def apply_encoding(ds: Dataset, plan: EncodingPlan, training: bool = True) -> FeatureMatrix:
    """Encode a dataset with a fitted plan.

    In training mode every categorical value must appear in the plan and every
    label must be present.  In prediction mode an unseen value yields an
    all-zero one-hot group (or code -1 for integer-coded columns) and bumps
    the matrix's `unseen_categories` counter, and a missing label encodes as
    0.  In both modes a third label value raises UnrecognizedLabelValueError
    (see `dataset.label_classes`).
    """
    n = ds.n_rows
    values = np.empty((n, len(plan.output_names)), order="F")
    j, unseen = 0, 0  # j: the next output column
    for col in plan.feature_columns:
        _require_present(ds, col.name)
        if col.kind == CONTINUOUS:
            values[:, j] = ds.column(col.name)
            j += 1
            continue
        cells = ds.coded(col.name)
        cats = plan.categories[col.name]
        codes = cells.codes_in(cats)
        found = codes >= 0
        if not found.all():
            if training:
                raise UnseenCategoryError(
                    f"value {cells.texts[cells.codes[np.argmin(found)]]!r} in column "
                    f"{col.name!r} not in plan"
                )
            unseen += n - int(np.count_nonzero(found))
        if col.name in plan.one_hot:
            for code in range(len(cats)):
                np.equal(codes, code, out=values[:, j + code])
            j += len(cats)
        else:
            values[:, j] = codes
            j += 1

    classes = label_classes(ds, plan.positive_label_value)
    missing = classes < 0
    if training and missing.any():
        raise MissingCellError(int(np.argmax(missing)), "missing label (drop missing labels first)")

    return FeatureMatrix(values=values, labels=classes == 1, plan=plan, unseen_categories=unseen)


def _require_present(ds: Dataset, name: str) -> None:
    missing = ds.missing(name)
    if missing.any():
        raise MissingCellError(int(np.argmax(missing)), f"missing value in column {name!r}")


@dataclass(frozen=True)
class CorrelationResult:
    names: tuple[str, ...]
    matrix: np.ndarray
    degenerate: tuple[str, ...] = field(default=())

    def __post_init__(self):
        self.matrix.flags.writeable = False


def pearson_matrix(fm: FeatureMatrix, columns=None) -> CorrelationResult:
    """Sample Pearson correlations between the requested columns.

    `columns` may name any encoded feature column, plus the label column
    (either its raw name from the plan or the literal "label"); None means
    the plan's continuous feature columns, then the label.  Constant
    columns get correlation 0 everywhere and are reported in `degenerate`.
    An empty `columns`, or a name fm does not hold, is a DataError.
    """
    if fm.n_rows < 2:
        raise TooFewRowsError("correlations need at least 2 rows")
    if columns is None:
        columns = [c.name for c in fm.plan.feature_columns if c.kind == CONTINUOUS]
        columns.append(fm.plan.label_name)
    elif len(columns) == 0:
        raise DataError("correlations need at least one column")
    vectors = []
    for name in columns:
        if name in fm.column_names:
            vectors.append(fm.column(name))
        elif name in ("label", fm.plan.label_name):
            vectors.append(fm.labels.astype(np.float64))
        else:
            raise DataError(f"column {name!r} not in the feature matrix")
    data = np.column_stack(vectors)
    centered = data - data.mean(axis=0)
    norms = np.sqrt((centered**2).sum(axis=0))
    constant = norms == 0.0

    safe = np.where(constant, 1.0, norms)
    unit = centered / safe
    matrix = unit.T @ unit
    matrix[constant, :] = 0.0
    matrix[:, constant] = 0.0
    np.fill_diagonal(matrix, ~constant)
    matrix = np.clip(matrix, -1.0, 1.0)
    degenerate = tuple(n for n, c in zip(columns, constant) if c)
    return CorrelationResult(tuple(columns), matrix, degenerate)


def _check_train_fraction(train_fraction: float) -> None:
    if not 0.0 < train_fraction < 1.0:
        raise DataError("train_fraction must be in (0, 1)")


def shuffle_split(fm: FeatureMatrix, train_fraction: float = 0.8, seed: int = 0) -> SplitPair:
    """Seeded uniform shuffle, then a floor(fraction * n) head/tail split.

    Generator: NumPy PCG64 seeded with `seed`; the permutation comes from
    ``Generator.permutation(n)``.

    Raises:
        TooFewRowsError: fewer than 2 rows, or a fraction that leaves
            either side empty.
        DataError: fraction outside (0, 1).
    """
    _check_train_fraction(train_fraction)
    n = fm.n_rows
    if n < 2:
        raise TooFewRowsError("need at least 2 rows to split")
    cut = int(np.floor(train_fraction * n))
    if cut in (0, n):
        raise TooFewRowsError(f"train fraction {train_fraction} of {n} rows leaves "
                              f"{cut} training and {n - cut} validation rows")
    rng = np.random.Generator(np.random.PCG64(seed))
    perm = rng.permutation(n)
    return SplitPair(train=fm.take(perm[:cut]), validation=fm.take(perm[cut:]))
