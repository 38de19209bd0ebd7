"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The final criterion needs a user-supplied full-scale flight extract and is
skipped unless DELAYBOOST_BTS_CSV / DELAYBOOST_BTS_SCHEMA point at one.
"""

import json
import os
import time

import numpy as np
import pytest

import delayboost as db
from conftest import make_matrix, separable_matrix
from delayboost.cli import main
from delayboost.resample import random_smote_with_trace
from test_metrics import concordance_auc
from test_tree import achieved_root_sse, brute_force_root_split


def ok(n, text):
    print(f"PASS  criterion {n}: {text}")


def test_criterion_01_smote_count_identity():
    n_min, n_maj = 19668, 76090
    rng = np.random.default_rng(0)
    X = rng.normal(size=(n_min + n_maj, 3))
    y = np.concatenate([np.ones(n_min, dtype=int), np.zeros(n_maj, dtype=int)])
    fm = make_matrix(X, y)

    start = time.perf_counter()
    out = db.random_smote(fm, db.SmoteConfig(200, seed=1))
    elapsed = time.perf_counter() - start

    assert int(out.labels.sum()) == n_min * 3 == 59004
    assert out.n_rows == 135094
    assert int((out.labels == 0).sum()) == n_maj
    assert np.array_equal(out.values[: fm.n_rows], fm.values)

    # identity holds for arbitrary percents too
    small = make_matrix(X[:200], y[:100].tolist() + [0] * 100)
    for percent in (100, 300, 500):
        grown = db.random_smote(small, db.SmoteConfig(percent, seed=2))
        k = percent // 100
        assert int(grown.labels.sum()) == int(small.labels.sum()) * (1 + k)

    assert elapsed < 1.0, f"paper-scale oversampling took {elapsed:.2f}s"
    ok(1, f"minority 19,668 -> 59,004, total 135,094 in {elapsed:.2f}s")


def test_criterion_02_smote_geometry():
    total = 0
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        n_min, n_maj, d = 500, 700, int(rng.integers(2, 6))
        X = rng.normal(scale=rng.uniform(0.5, 3.0), size=(n_min + n_maj, d))
        y = np.array([1] * n_min + [0] * n_maj)
        fm = make_matrix(X, y)
        out, trace = random_smote_with_trace(fm, db.SmoteConfig(400, seed=seed))
        synth = out.values[fm.n_rows :]

        xi = fm.values[trace.seed_row]
        xa = fm.values[trace.first]
        xb = fm.values[trace.second]
        w_i = (1.0 - trace.u)[:, None]
        w_a = (trace.u * (1.0 - trace.t))[:, None]
        w_b = (trace.u * trace.t)[:, None]
        assert np.all(w_i >= 0) and np.all(w_a >= 0) and np.all(w_b >= 0)
        assert np.max(np.abs((w_i + w_a + w_b) - 1.0)) <= 1e-12
        combo = w_i * xi + w_a * xa + w_b * xb
        assert np.max(np.abs(synth - combo)) <= 1e-9
        lo = np.minimum(np.minimum(xi, xa), xb)
        hi = np.maximum(np.maximum(xi, xa), xb)
        assert np.all(synth >= lo - 1e-9) and np.all(synth <= hi + 1e-9)
        total += synth.shape[0]
    assert total == 10000
    ok(2, f"{total} synthetic points inside their source triangles (1e-9)")


def test_criterion_03_tree_split_oracle():
    rng = np.random.default_rng(7)
    checked = 0
    for trial in range(200):
        n = int(rng.integers(2, 21))
        d = int(rng.integers(1, 4))
        if trial % 3 == 0:
            X = rng.integers(0, 4, size=(n, d)).astype(float)
        else:
            X = rng.normal(size=(n, d))
        t = rng.normal(size=n)
        oracle = brute_force_root_split(X, t)
        tree, _ = db.fit_tree(X, t, db.TreeParams(max_depth=1))
        if oracle is None:
            assert tree.n_nodes == 1
            continue
        if tree.feature[0] == -1:
            parent = float(((t - t.mean()) ** 2).sum())
            assert oracle[0] >= parent - 1e-9
            continue
        assert abs(achieved_root_sse(tree, X, t) - oracle[0]) <= 1e-9
        checked += 1
    assert checked >= 150
    ok(3, f"root split SSE matches exhaustive enumeration on {checked} datasets")


def test_criterion_04_gradient_check():
    rng = np.random.default_rng(21)
    h = 1e-6
    for _ in range(100):
        n = int(rng.integers(3, 25))
        y = rng.integers(0, 2, size=n)
        f = rng.normal(scale=3.0, size=n)
        residual = y - db.sigmoid(f)
        i = int(rng.integers(0, n))
        up, down = f.copy(), f.copy()
        up[i] += h
        down[i] -= h
        from delayboost.boost import mean_deviance

        diff = (mean_deviance(y, up) - mean_deviance(y, down)) * n / (2 * h)
        assert abs(diff - (-residual[i])) <= 1e-6
    ok(4, "analytic residuals match central finite differences (1e-6)")


def test_criterion_05_monotone_training_deviance():
    datasets = [
        db.generate_synthetic(240, 0.25, seed=11),
        db.generate_synthetic(200, 0.35, seed=12),
        db.generate_synthetic(260, 0.15, seed=13),
    ]
    worst = -np.inf
    for ds in datasets:
        fm = db.apply_encoding(ds, db.fit_encoding(ds))
        for lr in (0.05, 0.1, 0.5):
            for depth in (1, 3, 5):
                params = db.BoostParams(
                    estimators=100,
                    learning_rate=lr,
                    tree_params=db.TreeParams(max_depth=depth),
                )
                _, trace = db.fit_gbc(fm, params)
                steps = np.diff(np.array(trace.deviance))
                worst = max(worst, float(steps.max()))
                assert np.all(steps <= 1e-9), (lr, depth)
    ok(5, f"deviance non-increasing over 27 configs (worst step {worst:.1e})")


def test_criterion_06_separable_fixture():
    fm = separable_matrix(n=200, seed=42)
    start = time.perf_counter()
    _, trace = db.fit_gbc(
        fm,
        db.BoostParams(estimators=100, learning_rate=0.1, tree_params=db.TreeParams(max_depth=2)),
    )
    elapsed = time.perf_counter() - start
    assert trace.accuracy[-1] >= 0.99
    assert elapsed < 5.0
    ok(6, f"training accuracy {trace.accuracy[-1]:.3f} in {elapsed:.2f}s")


def test_criterion_07_metrics_oracle():
    rng = np.random.default_rng(31)
    for _ in range(50):
        tp, fn, fp, tn = (int(v) for v in rng.integers(0, 40, 4))
        if tp + fn + fp + tn == 0:
            tp = 1
        cm = db.ConfusionMatrix(tp, fn, fp, tn)
        s = db.summarize(cm)
        total = tp + fn + fp + tn
        assert s.accuracy == ((tp + tn) / total if total else 0.0)
        assert s.recall == (tp / (tp + fn) if tp + fn else 0.0)
        assert s.precision == (tp / (tp + fp) if tp + fp else 0.0)
        if s.precision + s.recall > 0:
            assert s.f1 == 2 * s.precision * s.recall / (s.precision + s.recall)
        else:
            assert s.f1 == 0.0
    ok(7, "recall/precision/F1/accuracy equal hand-computed values on 50 matrices")


def test_criterion_08_auroc_oracle():
    rng = np.random.default_rng(41)
    checked = 0
    while checked < 100:
        n = int(rng.integers(4, 201))
        y = rng.integers(0, 2, n)
        if y.sum() in (0, n):
            continue
        scores = rng.normal(size=n)
        if checked % 2 == 0:
            scores = np.round(scores, 1)  # force ties
        curve = db.roc_auc(y, scores)
        assert abs(curve.auroc - concordance_auc(y, scores)) <= 1e-12
        checked += 1
    assert db.roc_auc([0, 0, 1, 1], [1.0, 2.0, 3.0, 4.0]).auroc == 1.0
    constant = db.roc_auc([0, 1, 0, 1], [5.0] * 4)
    assert constant.auroc == 0.5
    assert list(zip(constant.fpr, constant.tpr)) == [(0.0, 0.0), (1.0, 1.0)]
    ok(8, "trapezoidal AUROC equals pairwise concordance on 100 score sets (1e-12)")


def test_criterion_09_strategy_contrast():
    start = time.perf_counter()
    f1 = {1: [], 2: []}
    params = db.BoostParams(
        estimators=30, learning_rate=0.1, tree_params=db.TreeParams(max_depth=3)
    )
    for seed in range(5):
        ds = db.generate_synthetic(5000, 0.2, seed=100 + seed)
        fm = db.apply_encoding(ds, db.fit_encoding(ds))
        for strategy in (1, 2):
            balanced = fm
            if strategy == 2:
                balanced = db.random_smote(fm, db.SmoteConfig(200, seed=seed))
            pair = db.shuffle_split(balanced, 0.8, seed=seed)
            model, _ = db.fit_gbc(pair.train, params)
            scores = db.decision_function(model, pair.validation.values)
            pred = (scores >= 0).astype(int)
            summary = db.summarize(db.confusion(pair.validation.labels, pred))
            f1[strategy].append(summary.f1)
    elapsed = time.perf_counter() - start
    med1, med2 = float(np.median(f1[1])), float(np.median(f1[2]))
    assert med2 > med1, (med1, med2)
    assert elapsed < 60.0
    ok(9, f"median validation F1: balanced {med2:.3f} > unbalanced {med1:.3f} "
          f"({elapsed:.1f}s)")


def test_criterion_10_pipeline_determinism(tmp_path):
    assert main([
        "synth", "--rows", "400", "--positive-frac", "0.25", "--seed", "5",
        "--out", str(tmp_path / "data.csv"), "--schema-out", str(tmp_path / "schema.json"),
    ]) == 0

    def train(threads):
        return main([
            "train",
            "--input", str(tmp_path / "data.csv"),
            "--schema", str(tmp_path / "schema.json"),
            "--smote-percent", "200",
            "--seed", "9",
            "--estimators", "10",
            "--max-depth", "3",
            "--model-out", str(tmp_path / "model.json"),
            "--report-out", str(tmp_path / "report.json"),
            "--roc-out", str(tmp_path / "roc.csv"),
            "--threads", str(threads),
        ])

    outputs = ("model.json", "report.json", "roc.csv")
    assert train(1) == 0
    first = {name: (tmp_path / name).read_bytes() for name in outputs}
    assert train(1) == 0
    for name in outputs:
        assert (tmp_path / name).read_bytes() == first[name], f"{name} changed on rerun"
    assert train(4) == 0
    for name in outputs:
        assert (tmp_path / name).read_bytes() == first[name], f"{name} changed with threads"
    ok(10, "model, report, and ROC bytes identical across reruns and thread counts")


def test_criterion_11_grid_search_contract():
    fm = separable_matrix(n=120, seed=6)
    base = db.BoostParams(learning_rate=0.1, tree_params=db.TreeParams(max_depth=1))
    result = db.grid_search(fm, db.Grid((2, 10), (1, 2)), folds=3, base=base, seed=3)
    assert len(result.cells) == 4
    combos = [(c.estimators, c.depth) for c in result.cells]
    assert sorted(combos) == [(2, 1), (2, 2), (10, 1), (10, 2)]

    recomputed = max(
        result.cells,
        key=lambda c: (sum(c.fold_scores) / len(c.fold_scores), -c.estimators, -c.depth),
    )
    assert result.best == (recomputed.estimators, recomputed.depth)

    # trivially separable data (wide class gap) ties every cell at 1.0:
    # the cheapest combination must win
    X = np.concatenate([np.arange(15.0), 100.0 + np.arange(15.0)]).reshape(30, 1)
    y = (X[:, 0] >= 100.0).astype(int)
    tied = db.grid_search(
        make_matrix(X, y), db.Grid((2, 8), (1, 3)), folds=3, base=base, seed=1
    )
    assert all(c.mean_score == 1.0 for c in tied.cells)
    assert tied.best == (2, 1)

    assert 300 in db.DEFAULT_GRID.estimator_values
    assert 400 in db.DEFAULT_GRID.estimator_values
    assert 5 in db.DEFAULT_GRID.depth_values
    ok(11, "exhaustive cells, argmax consistency, tie-break, default grid contents")


@pytest.mark.skipif(
    "DELAYBOOST_BTS_CSV" not in os.environ,
    reason="full-scale flight extract not supplied "
    "(set DELAYBOOST_BTS_CSV and DELAYBOOST_BTS_SCHEMA)",
)
def test_criterion_12_full_data_accuracy(tmp_path):
    """Optional: prepared two-year extract, balanced pipeline, best settings."""
    csv_path = os.environ["DELAYBOOST_BTS_CSV"]
    schema_path = os.environ["DELAYBOOST_BTS_SCHEMA"]
    assert main([
        "train",
        "--input", csv_path,
        "--schema", schema_path,
        "--smote-percent", "200",
        "--seed", "0",
        "--estimators", "400",
        "--max-depth", "5",
        "--model-out", str(tmp_path / "model.json"),
        "--report-out", str(tmp_path / "report.json"),
    ]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert abs(report["validation_accuracy"] - 0.8573) <= 0.02
    ok(12, f"full-data validation accuracy {report['validation_accuracy']:.4f}")
