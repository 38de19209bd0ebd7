"""Flight arrival delay classification toolkit.

Ingests raw flight CSVs, encodes them numerically, rebalances the minority
class with randomized SMOTE, trains a from-scratch gradient boosting
classifier, tunes it by grid search, and evaluates with confusion-matrix
metrics and ROC/AUROC.
"""

from .boost import (
    BoostedModel,
    BoostParams,
    TrainingTrace,
    decision_function,
    fit_gbc,
    label_scores,
    predict_label,
    predict_proba,
    sigmoid,
    staged_deviance,
    staged_scores,
)
from .dataset import (
    ClassBalance,
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
from .encode import (
    DEFAULT_ONE_HOT,
    EncodingPlan,
    FeatureMatrix,
    SplitPair,
    apply_encoding,
    fit_encoding,
    pearson_matrix,
    shuffle_split,
)
from .metrics import ConfusionMatrix, MetricsSummary, RocCurve, confusion, roc_auc, summarize
from .model_io import load_model, save_model
from .resample import SmoteConfig, SmoteTrace, random_smote, random_smote_with_trace
from .tree import RegressionTree, TreeParams, fit_tree
from .tune import DEFAULT_GRID, Grid, GridResult, grid_search, stratified_folds

__version__ = "0.1.0"

__all__ = [
    "BoostParams",
    "BoostedModel",
    "ClassBalance",
    "Column",
    "ConfusionMatrix",
    "DEFAULT_GRID",
    "DEFAULT_ONE_HOT",
    "Dataset",
    "EncodingPlan",
    "FeatureMatrix",
    "Grid",
    "GridResult",
    "MetricsSummary",
    "RegressionTree",
    "RocCurve",
    "Schema",
    "SmoteConfig",
    "SmoteTrace",
    "SplitPair",
    "TrainingTrace",
    "TreeParams",
    "apply_encoding",
    "class_balance",
    "concat",
    "confusion",
    "decision_function",
    "drop_columns",
    "drop_missing_labels",
    "filter_equals",
    "fit_encoding",
    "fit_gbc",
    "fit_tree",
    "generate_synthetic",
    "grid_search",
    "label_scores",
    "load_csv",
    "load_model",
    "pearson_matrix",
    "predict_label",
    "predict_proba",
    "random_smote",
    "random_smote_with_trace",
    "roc_auc",
    "save_model",
    "shuffle_split",
    "sigmoid",
    "staged_deviance",
    "staged_scores",
    "stratified_folds",
    "summarize",
    "write_csv",
]
