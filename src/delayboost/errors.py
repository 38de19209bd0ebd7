"""Exception hierarchy for the delayboost pipeline.

Two broad families matter to callers: :class:`DataError` for problems with
input files, schemas, or row contents, and :class:`TrainingError` for numeric
or model-fitting failures.  The CLI maps them to exit codes 3 and 4.
"""


class DelayBoostError(Exception):
    """Base class for all delayboost errors."""


class DataError(DelayBoostError):
    """Bad input data, schema, or configuration of a data operation."""


class TrainingError(DelayBoostError):
    """Numeric or model-fitting failure."""


# dataset
class MissingColumnError(DataError):
    """A schema column is absent from a CSV header."""


class RowArityError(DataError):
    """A data row's field count differs from the header's."""


class FieldParseError(DataError):
    """Non-numeric text in a continuous column, or a NUL character in a CSV file."""


class SchemaMismatchError(DataError):
    """Datasets being combined differ in schema, or a header repeats a schema column."""


class EmptyInputError(DataError):
    """An operation received no rows or no datasets."""


class UnknownColumnError(DataError):
    """A named column does not exist in the schema."""


class CannotDropLabelError(DataError):
    """Attempt to drop the label column."""


class UnrecognizedLabelValueError(DataError):
    """A non-missing label cell matches neither class value."""


class InvalidSpecError(DataError):
    """Invalid synthetic-data generation parameters."""


# encode
class NotCategoricalError(DataError):
    """A column requested for one-hot encoding is not categorical."""


class UnseenCategoryError(DataError):
    """A raw value absent from the encoding plan appeared in training mode."""


class MissingCellError(DataError):
    """A cell is missing where a value is required: `row` is its index in the rows checked."""

    def __init__(self, row: int, detail: str):
        super().__init__(f"row {row}: {detail}")
        self.row, self.detail = row, detail


class TooFewRowsError(DataError):
    """Not enough rows for the requested split."""


# resample
class MinorityTooSmallError(DataError):
    """Fewer than three minority instances; oversampling needs triples."""


class InvalidPercentError(DataError):
    """Oversampling percentage is not a positive multiple of 100."""


# tree / boost
class NonFiniteTargetError(TrainingError):
    """Regression targets contain NaN or infinity."""


class NonFiniteFeatureError(TrainingError):
    """Feature matrix contains NaN or infinity."""


class DimensionMismatchError(TrainingError):
    """Input dimensionality differs from training dimensionality."""


class NoFeatureColumnsError(DataError):
    """A feature matrix to fit on has no columns: a tree has nothing to split on."""


class SingleClassTrainingError(TrainingError):
    """Training data contains only one class; log-odds prior is infinite."""


class InvalidThresholdError(TrainingError):
    """Classification threshold outside the open interval (0, 1)."""


# metrics
class LengthMismatchError(DataError):
    """Paired vectors have different lengths."""


class SingleClassInputError(DataError):
    """Labelled input holds one class only where both are needed (ROC, or CLI training input)."""


class NonFiniteScoreError(DataError):
    """ROC scores contain NaN or infinity."""


# tune
class ClassTooSmallForFoldsError(DataError):
    """A class has fewer rows than the requested number of folds."""


class EmptyGridError(DataError):
    """Hyper-parameter grid has no candidate values."""


# model persistence
class ModelIOError(DelayBoostError):
    """Filesystem failure while reading or writing a model file."""


class VersionMismatchError(ModelIOError):
    """Model file carries an unsupported format version."""


class CorruptModelError(ModelIOError):
    """Model file fails structural validation."""
