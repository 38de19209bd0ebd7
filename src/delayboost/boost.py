"""Gradient boosting classifier on binomial deviance, built on regression trees.

Training starts from the log-odds prior f0 = log(p1 / (1 - p1)) and runs M
rounds of functional gradient descent.  Each round fits a least-squares tree
to the residuals r_i = y_i - sigmoid(f(x_i)), the negative gradient of the
deviance, each leaf of which `fit_tree` sets to the one-step Newton optimum
for its region (weights p(1 - p)),

    gamma_L = sum_{i in L} r_i / sum_{i in L} p_i (1 - p_i),

which solves the per-region line search to second order.  Scores update as
f(x_i) += learning_rate * gamma_leaf(x_i), so a stored tree's leaf values
already include the line-search step and prediction only applies shrinkage:

    f_M(x) = f0 + learning_rate * sum_m tree_m(x).

sigmoid(f_M(x)) is the delay probability.  Scoring takes an (n, n_features)
matrix only; a single row is a (1, n_features) matrix.  One loop adds the
trees up: `staged_scores` yields f_0, f_1, ..., f_M in turn, updating one
array in place, so a caller reads (or copies) each value before it asks for
the next.  Every tree's routing reads a column-major matrix:
the values of a `FeatureMatrix` already are one, so `staged_deviance` and
`tune` score them in place, and any other layout is copied once.
`decision_function` is its last value, computed per cache-sized row block
(each block copied column-major), and `staged_deviance` the deviance of each.
Every label in the package comes from one rule, `label_scores`: 1 iff
sigmoid(score) >= the threshold, which must lie in (0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .encode import EncodingPlan, FeatureMatrix
from .errors import EmptyInputError, InvalidThresholdError, SingleClassTrainingError
from .tree import RegressionTree, TreeParams, Workers, _check_matrix, fit_tree, presort

# Rows scored per block by `decision_function`: 16k rows of 26 features are
# ~3.4 MB, copied column-major once by `staged_scores` and kept in cache while
# every tree is added.
_BLOCK_ROWS = 16384


@dataclass(frozen=True)
class BoostParams:
    estimators: int = 100
    learning_rate: float = 0.1
    tree_params: TreeParams = field(default_factory=TreeParams)

    def __post_init__(self):
        if self.estimators < 0:
            raise ValueError("estimators must be >= 0")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")


@dataclass(frozen=True)
class BoostedModel:
    """An ensemble, and the plan of the matrix it was fit on: it encodes the rows scored."""

    f0: float
    learning_rate: float
    trees: tuple[RegressionTree, ...]
    plan: EncodingPlan

    @property
    def n_features(self) -> int:
        return len(self.plan.output_names)


@dataclass(frozen=True)
class TrainingTrace:
    """Per-iteration training deviance and accuracy; index 0 is the prior."""

    deviance: tuple[float, ...]
    accuracy: tuple[float, ...]


def sigmoid(f):
    """Logistic function: 1 / (1 + e) where f >= 0, else e / (1 + e), for e = exp(-|f|).

    Its one `np.exp` takes arguments <= 0 only, so it never overflows."""
    f = np.asarray(f, dtype=np.float64)
    pos = f >= 0
    e = np.exp(np.where(pos, -f, f))
    out = np.where(pos, 1.0, e)
    out /= 1.0 + e
    return out


def mean_deviance(y: np.ndarray, f: np.ndarray) -> float:
    """Mean negative log-likelihood of the logistic model at raw scores f."""
    y = np.asarray(y)
    f = np.asarray(f, dtype=np.float64)
    return float(np.mean(np.logaddexp(0.0, np.where(y == 1, -f, f))))


def fit_gbc(train: FeatureMatrix, params: BoostParams, *, threads: int | None = None):
    """Train a boosted model; returns (BoostedModel, TrainingTrace).

    Every round fits its tree on the same matrix, so the matrix's
    `ColumnIndex` is built once here (`presort`: each column argsorted, its
    two-valued columns found, X checked finite) and every round's `fit_tree`
    reuses it.  The fit sets each leaf's Newton value and returns each row's
    leaf, so no round routes the training matrix again.

    The fit's `tree.Workers` are started here from `threads`, handed to
    `presort` and to every round's `fit_tree`, and joined before it
    returns: `tree.worker_count(threads)` threads (None: every CPU this
    process may run on), the caller's among them, share out the
    per-feature work of `presort` and of every round's split search.  A
    matrix of fewer than `tree._THREAD_ROWS` rows is fitted on the caller's
    thread alone.  The model has the same bits whatever `threads` is.

    Raises:
        NoFeatureColumnsError: the feature matrix has no columns.
        NonFiniteFeatureError: NaN or infinity in the feature matrix.
        SingleClassTrainingError: training labels are all one class.
        ValueError: threads below 1.
    """
    X = train.values
    y = train.labels
    with Workers(threads, train.n_rows) as workers:
        index = presort(X, workers=workers)
        n_pos = int((y == 1).sum())
        if n_pos == 0 or n_pos == y.size:
            raise SingleClassTrainingError("training data must contain both classes")

        p1 = n_pos / y.size
        f0 = float(np.log(p1 / (1.0 - p1)))
        f = np.full(y.size, f0)

        deviance = [mean_deviance(y, f)]
        accuracy = [_accuracy(y, f)]
        trees = []
        for _ in range(params.estimators):
            p = sigmoid(f)
            residual = y - p
            p *= 1.0 - p  # the Newton weights p(1 - p), in p's buffer
            tree, leaf = fit_tree(X, residual, params.tree_params, weights=p, index=index,
                                  workers=workers)
            f += params.learning_rate * tree.value[leaf]
            trees.append(tree)
            deviance.append(mean_deviance(y, f))
            accuracy.append(_accuracy(y, f))

    model = BoostedModel(f0, params.learning_rate, tuple(trees), train.plan)
    return model, TrainingTrace(tuple(deviance), tuple(accuracy))


def _accuracy(y, f) -> float:
    return float(np.mean(label_scores(f) == y))


def label_scores(scores, threshold: float = 0.5) -> np.ndarray:
    """The labelling rule: 1 iff sigmoid(score) >= threshold, else 0.

    Raises:
        InvalidThresholdError: threshold outside the open interval (0, 1).
    """
    if not 0.0 < threshold < 1.0:
        raise InvalidThresholdError(f"threshold must be in (0, 1), got {threshold}")
    return (sigmoid(scores) >= threshold).astype(np.int64)


def staged_scores(model: BoostedModel, x):
    """Yield the running score f_m of every row of x after m = 0, 1, ..., M trees.

    The matrix is checked and copied column-major once, unless it already is
    (as the values of every `FeatureMatrix` are), so every tree's routing
    reads it in place.  Every step adds one tree to the same array in place
    and yields it again, so read or copy each value before advancing.
    """
    X = np.asfortranarray(_check_matrix(x, model.n_features))
    scores = np.full(X.shape[0], model.f0)
    yield scores
    for tree in model.trees:
        scores += model.learning_rate * tree.predict(X)
        yield scores


def decision_function(model: BoostedModel, x) -> np.ndarray:
    """Raw additive score f_M(x) for every row of the (n, n_features) matrix x.

    Positive means the predicted delay probability exceeds 0.5.  It is the
    last value of `staged_scores`, computed one row block at a time, so each
    block's copy stays in cache across all M trees.  Each row gets the same
    additions in the same order, so the bits depend on neither the blocking
    nor the layout of x.
    """
    X = _check_matrix(x, model.n_features)
    out = np.empty(X.shape[0])
    for lo in range(0, X.shape[0], _BLOCK_ROWS):
        block = slice(lo, lo + _BLOCK_ROWS)
        for scores in staged_scores(model, X[block]):
            pass
        out[block] = scores
    return out


def predict_proba(model: BoostedModel, x) -> np.ndarray:
    """Probability of the positive (delayed) class for every row of x."""
    return sigmoid(decision_function(model, x))


def predict_label(model: BoostedModel, x, threshold: float = 0.5) -> np.ndarray:
    """`label_scores` of every row of x."""
    return label_scores(decision_function(model, x), threshold)


def staged_deviance(model: BoostedModel, fm: FeatureMatrix) -> np.ndarray:
    """Mean deviance on fm using the first m trees, for m = 0..M."""
    if fm.n_rows == 0:
        raise EmptyInputError("staged deviance needs at least one row")
    return np.asarray([mean_deviance(fm.labels, f) for f in staged_scores(model, fm.values)])
