import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from delayboost.errors import (
    LengthMismatchError,
    NonFiniteScoreError,
    SingleClassInputError,
    UnrecognizedLabelValueError,
)
from delayboost.metrics import (
    ConfusionMatrix,
    RocCurve,
    confusion,
    render_report,
    roc_auc,
    summarize,
)


def concordance_auc(y, scores):
    """Independent AUROC oracle: positive-negative pair concordance, ties 1/2."""
    pos = [s for s, t in zip(scores, y) if t == 1]
    neg = [s for s, t in zip(scores, y) if t == 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def reference_roc(y, scores):
    """(fpr, tpr, thresholds, auroc) by a stable sort of the negated scores.

    Each tied run's threshold is the score of the row the stable sort puts
    last in the run; `roc_auc` must match it bit for bit, zero signs too.
    """
    y = np.asarray(y)
    s = np.asarray(scores, dtype=np.float64)
    order = np.argsort(-s, kind="stable")
    s_sorted, y_sorted = s[order], y[order]
    last = np.concatenate([np.flatnonzero(s_sorted[1:] != s_sorted[:-1]), [y.size - 1]])
    tpr = np.concatenate([[0.0], np.cumsum(y_sorted == 1)[last] / (y == 1).sum()])
    fpr = np.concatenate([[0.0], np.cumsum(y_sorted == 0)[last] / (y == 0).sum()])
    thresholds = np.concatenate([[math.inf], s_sorted[last]])
    return fpr, tpr, thresholds, float(np.trapezoid(tpr, fpr))


# Zeros of both signs, subnormals of both signs and a few normal values, so
# draws repeat and tied runs mix -0.0 with +0.0.
_SCORE_POOL = [-0.0, 0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1.0, -1.0, 0.25]


class TestConfusion:
    def test_direct_count(self):
        cm = confusion([1, 1, 0, 0], [1, 0, 1, 0])
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (1, 1, 1, 1)

    def test_perfect(self):
        cm = confusion([1, 0, 1], [1, 0, 1])
        assert cm.fn == 0 and cm.fp == 0

    def test_all_positive_predictions_on_negatives(self):
        cm = confusion([0, 0, 0], [1, 1, 1])
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (0, 0, 3, 0)

    def test_total(self):
        cm = confusion([1, 0, 1, 0, 1], [0, 0, 1, 1, 1])
        assert cm.total == 5

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            confusion([1, 0], [1])
        with pytest.raises(LengthMismatchError):
            confusion([], [])

    def test_labels_outside_0_1_rejected(self):
        # counted, the 2 fell in no cell: a total of 3 for 4 rows
        with pytest.raises(UnrecognizedLabelValueError, match="label 2 is neither"):
            confusion([1, 0, 2, 0], [1, 0, 1, 0])
        with pytest.raises(UnrecognizedLabelValueError, match="prediction -1 is neither"):
            confusion([1, 0, 1, 0], [1, 0, -1, 0])
        with pytest.raises(UnrecognizedLabelValueError, match="prediction nan"):
            confusion([1.0, 0.0], [np.nan, 0.0])


class TestSummarize:
    def test_recall(self):
        s = summarize(ConfusionMatrix(tp=8, fn=2, fp=0, tn=0))
        assert s.recall == 0.8

    def test_precision(self):
        s = summarize(ConfusionMatrix(tp=3, fn=0, fp=1, tn=0))
        assert s.precision == 0.75

    def test_f1_harmonic_mean(self):
        s = summarize(ConfusionMatrix(tp=2, fn=0, fp=2, tn=4))
        assert s.precision == 0.5 and s.recall == 1.0
        assert s.f1 == pytest.approx(2 * 0.5 * 1.0 / 1.5, abs=1e-15)

    def test_degenerate_precision(self):
        s = summarize(ConfusionMatrix(tp=0, fn=3, fp=0, tn=5))
        assert s.precision == 0.0
        assert "precision" in s.degenerate

    def test_weighted_recall_equals_accuracy(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            tp, fn, fp, tn = (int(v) for v in rng.integers(0, 50, 4))
            if tp + fn == 0 or tn + fp == 0:
                continue
            s = summarize(ConfusionMatrix(tp, fn, fp, tn))
            assert s.weighted_recall == pytest.approx(s.accuracy, abs=1e-12)

    def test_accuracy(self):
        s = summarize(ConfusionMatrix(tp=4, fn=1, fp=2, tn=3))
        assert s.accuracy == 0.7


class TestRoc:
    def test_perfect_separation(self):
        curve = roc_auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9])
        assert curve.auroc == 1.0

    def test_constant_scores_chance_line(self):
        curve = roc_auc([0, 1, 0, 1], [3.0, 3.0, 3.0, 3.0])
        assert curve.fpr.tolist() == [0.0, 1.0]
        assert curve.tpr.tolist() == [0.0, 1.0]
        assert curve.auroc == 0.5

    def test_pairwise_concordance_example(self):
        # 3 of the 4 (positive, negative) pairs are concordant
        y = [0, 0, 1, 1]
        s = [0.1, 0.4, 0.35, 0.8]
        assert concordance_auc(y, s) == 0.75
        assert roc_auc(y, s).auroc == pytest.approx(0.75, abs=1e-15)

    def test_matches_concordance_with_ties(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            n = int(rng.integers(4, 120))
            y = rng.integers(0, 2, n)
            if y.sum() in (0, n):
                continue
            scores = np.round(rng.normal(size=n), 1)  # induce ties
            curve = roc_auc(y, scores)
            assert curve.auroc == pytest.approx(concordance_auc(y, scores), abs=1e-12)

    def test_staircase_shape(self):
        rng = np.random.default_rng(9)
        y = rng.integers(0, 2, 50)
        y[0], y[1] = 0, 1
        s = rng.normal(size=50)
        curve = roc_auc(y, s)
        fprs = curve.fpr.tolist()
        tprs = curve.tpr.tolist()
        assert (fprs[0], tprs[0]) == (0.0, 0.0)
        assert (fprs[-1], tprs[-1]) == (1.0, 1.0)
        assert all(a <= b for a, b in zip(fprs, fprs[1:]))
        assert all(a <= b for a, b in zip(tprs, tprs[1:]))
        assert curve.thresholds[0] == np.inf
        assert curve.fpr.size == curve.tpr.size == curve.thresholds.size
        for a in (curve.fpr, curve.tpr, curve.thresholds):
            with pytest.raises(ValueError):
                a[0] = 0.5

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(10)
        y = rng.integers(0, 2, 80)
        y[:2] = [0, 1]
        s = rng.normal(size=80)
        a = roc_auc(y, s).auroc
        b = roc_auc(y, 1.0 / (1.0 + np.exp(-s))).auroc
        assert a == pytest.approx(b, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassInputError):
            roc_auc([1, 1], [0.1, 0.2])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            roc_auc([1, 0], [0.5])

    def test_labels_outside_0_1_rejected(self):
        # the 2 counted as a negative but never as a false positive: fpr stopped at 2/3
        with pytest.raises(UnrecognizedLabelValueError, match="label 2 is neither"):
            roc_auc([1, 0, 2, 0], [0.9, 0.1, 0.5, 0.3])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        # a NaN has no place in the threshold sweep, yet it gave an AUROC (here 0.5)
        with pytest.raises(NonFiniteScoreError):
            roc_auc([1, 0, 1, 0], [bad, 0.1, 0.5, 0.3])

    def test_csv_export(self):
        curve = roc_auc([0, 1], [0.2, 0.9])
        lines = curve.to_csv().strip().splitlines()
        assert lines[0] == "threshold,fpr,tpr"
        assert lines[1].split(",") == ["inf", "0.0", "0.0"]
        parsed = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
        assert parsed[-1][1:] == (1.0, 1.0)


class TestRocTieOrderProperty:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1), st.sampled_from(_SCORE_POOL)),
                    min_size=2, max_size=60))
    def test_equals_the_stable_sort_reference(self, pairs):
        y, scores = (np.array(c) for c in zip(*pairs))
        assume(0 < y.sum() < y.size)
        curve = roc_auc(y, scores)
        fpr, tpr, thresholds, auroc = reference_roc(y, scores)
        for got, want in ((curve.fpr, fpr), (curve.tpr, tpr), (curve.thresholds, thresholds)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert curve.auroc == auroc
        assert curve.to_csv() == RocCurve(fpr, tpr, thresholds, auroc).to_csv()


class TestRenderReport:
    def test_contains_confusion_table(self):
        text = render_report(
            {
                "strategy": "Strategy 1",
                "validation_accuracy": 0.8018,
                "confusion": {"tp": 1, "fn": 2, "fp": 3, "tn": 4},
            }
        )
        assert "strategy" in text
        assert "0.801800" in text
        assert "actual=1" in text and "pred=0" in text
