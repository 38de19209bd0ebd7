"""Classifier evaluation: confusion matrix, scalar metrics, ROC and AUROC.

Positive-class metrics follow the usual definitions, recall = TP / (TP + FN)
and precision = TP / (TP + FP), with F1 their harmonic mean.  Because
accuracy on imbalanced data equals the support-weighted recall, the summary
also carries support-weighted recall/precision/F1 so both readings of a
result table are available.  Zero-denominator metrics come back as 0 and the
metric's name is listed in `degenerate` instead of raising.  Labels and
predictions other than 0 or 1, and NaN or infinite ROC scores, do raise.

ROC curves sweep thresholds over the distinct raw decision-function scores
from high to low, predicting positive where score >= threshold; tied scores
collapse to a single point.  The area uses the trapezoidal rule, which on
this staircase equals the probability that a random positive outscores a
random negative, ties counted one half.  A `RocCurve` holds the staircase
as read-only `fpr`, `tpr` and `thresholds` arrays, one entry per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    LengthMismatchError,
    NonFiniteScoreError,
    SingleClassInputError,
    UnrecognizedLabelValueError,
)


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts of (actual, predicted) pairs; rows actual, columns predicted."""

    tp: int
    fn: int
    fp: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.fp + self.tn


@dataclass(frozen=True)
class MetricsSummary:
    accuracy: float
    recall: float
    precision: float
    f1: float
    weighted_recall: float
    weighted_precision: float
    weighted_f1: float
    confusion: ConfusionMatrix
    degenerate: tuple[str, ...] = ()


@dataclass(frozen=True, eq=False)
class RocCurve:
    """Staircase points sorted by fpr, from (0, 0) at threshold +inf to (1, 1)."""

    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray
    auroc: float

    def to_csv(self) -> str:
        points = zip(self.thresholds.tolist(), self.fpr.tolist(), self.tpr.tolist())
        lines = ["threshold,fpr,tpr"]
        lines.extend(f"{thr!r},{fpr!r},{tpr!r}" for thr, fpr, tpr in points)
        return "\n".join(lines) + "\n"


def confusion(y_true, y_pred) -> ConfusionMatrix:
    """Count tp, fn, fp, tn from paired binary vectors.

    Raises:
        LengthMismatchError: unequal or zero input lengths.
        UnrecognizedLabelValueError: a label or prediction other than 0 or 1.
    """
    t = np.asarray(y_true).ravel()
    p = np.asarray(y_pred).ravel()
    if t.size != p.size:
        raise LengthMismatchError(f"{t.size} labels vs {p.size} predictions")
    if t.size == 0:
        raise LengthMismatchError("need at least one sample")
    _check_binary("label", t)
    _check_binary("prediction", p)
    # bin 2 * label + prediction: 0 tn, 1 fp, 2 fn, 3 tp
    tn, fp, fn, tp = np.bincount(2 * t.astype(np.intp) + p.astype(np.intp), minlength=4).tolist()
    return ConfusionMatrix(tp=tp, fn=fn, fp=fp, tn=tn)


def summarize(cm: ConfusionMatrix) -> MetricsSummary:
    """Scalar metrics from a confusion matrix.

    Positive-class recall/precision/F1, and their support-weighted versions,
    which average the per-class metrics weighted by class frequency (so
    weighted recall coincides with accuracy).
    """
    degenerate = []

    def ratio(num, den, name):
        if den == 0:
            degenerate.append(name)
            return 0.0
        return num / den

    def class_metrics(hits, missed, wrong, prefix):  # recall, precision and F1 of one class
        recall = ratio(hits, hits + missed, prefix + "recall")
        precision = ratio(hits, hits + wrong, prefix + "precision")
        return recall, precision, ratio(2.0 * precision * recall, precision + recall, prefix + "f1")

    n = cm.total
    accuracy = ratio(cm.tp + cm.tn, n, "accuracy")
    recall_pos, precision_pos, f1_pos = class_metrics(cm.tp, cm.fn, cm.fp, "")
    recall_neg, precision_neg, f1_neg = class_metrics(cm.tn, cm.fp, cm.fn, "negative_")
    pos_n, neg_n = cm.tp + cm.fn, cm.tn + cm.fp
    weighted_recall = (pos_n * recall_pos + neg_n * recall_neg) / n
    weighted_precision = (pos_n * precision_pos + neg_n * precision_neg) / n
    weighted_f1 = (pos_n * f1_pos + neg_n * f1_neg) / n

    return MetricsSummary(
        accuracy=accuracy,
        recall=recall_pos,
        precision=precision_pos,
        f1=f1_pos,
        weighted_recall=weighted_recall,
        weighted_precision=weighted_precision,
        weighted_f1=weighted_f1,
        confusion=cm,
        degenerate=tuple(degenerate),
    )


def render_report(doc: dict) -> str:
    """Aligned text table for an evaluation report document.

    Scalar entries print as `key: value` lines in document order; a
    "confusion" entry renders as a small actual-by-predicted table.
    """
    lines = []
    scalars = {k: v for k, v in doc.items() if k != "confusion"}
    width = max(len(k) for k in scalars) if scalars else 0
    for key, value in scalars.items():
        if isinstance(value, float):
            value = f"{value:.6f}"
        elif isinstance(value, (list, tuple)):
            value = ", ".join(str(v) for v in value) or "none"
        lines.append(f"{key.replace('_', ' '):<{width}}  {value}")
    cm = doc.get("confusion")
    if cm is not None:
        lines.append("confusion matrix (rows actual, columns predicted):")
        cells = [
            ["", "pred=1", "pred=0"],
            ["actual=1", str(cm["tp"]), str(cm["fn"])],
            ["actual=0", str(cm["fp"]), str(cm["tn"])],
        ]
        lines += ["  " + line for line in _aligned(cells)]
    return "\n".join(lines) + "\n"


def _aligned(rows) -> list[str]:
    """Each row of text cells as a line, each column right-aligned to its widest cell."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows]


def roc_auc(y_true, scores) -> RocCurve:
    """ROC staircase and its trapezoidal area from raw decision scores.

    Scores are sorted by NumPy's default, unstable sort.  The counts at the
    end of a run of tied scores do not depend on the order within the run;
    the run's threshold is the score of its highest row index, the row a
    stable sort would put last.  So the output does not depend on the sort
    either, not even in a run holding both -0.0 and +0.0, whose threshold's
    sign `to_csv` writes.

    Raises:
        LengthMismatchError: unequal input lengths.
        UnrecognizedLabelValueError: a label other than 0 or 1.
        NonFiniteScoreError: a NaN or infinite score.
        SingleClassInputError: only one class present in y_true.
    """
    y = np.asarray(y_true).ravel()
    s = np.asarray(scores, dtype=np.float64).ravel()
    if y.size != s.size:
        raise LengthMismatchError(f"{y.size} labels vs {s.size} scores")
    _check_binary("label", y)
    if not np.isfinite(s).all():
        raise NonFiniteScoreError("scores contain NaN or infinity")
    n_pos = int((y == 1).sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClassInputError("ROC needs both classes present")

    order = np.argsort(-s)
    ranked = s[order]
    # last position of each run of tied scores
    last = np.append(np.flatnonzero(ranked[1:] != ranked[:-1]), y.size - 1)
    # each run's threshold is its highest row's score: the row a stable sort puts last
    top_row = np.maximum.reduceat(order, np.append(0, last[:-1] + 1))
    cum_tp = np.cumsum(y[order] == 1)[last]
    del order, ranked  # freed before the sweep's own arrays of this length: a lower peak

    tpr = np.concatenate([[0.0], cum_tp / n_pos])
    # the rows up to a run's end that are not true positives are false positives
    fpr = np.concatenate([[0.0], (last + 1 - cum_tp) / n_neg])
    thresholds = np.concatenate([[math.inf], s[top_row]])
    for a in (fpr, tpr, thresholds):
        a.flags.writeable = False
    return RocCurve(fpr, tpr, thresholds, auroc=float(np.trapezoid(tpr, fpr)))


def _check_binary(what: str, values: np.ndarray) -> None:
    bad = values[(values != 0) & (values != 1)]
    if bad.size:
        raise UnrecognizedLabelValueError(f"{what} {bad[0].item()!r} is neither 0 nor 1")
