import numpy as np
import pytest

from conftest import make_matrix, separable_matrix
from delayboost.boost import BoostParams, decision_function, fit_gbc, label_scores
from delayboost.errors import ClassTooSmallForFoldsError, DataError, EmptyGridError
from delayboost.metrics import confusion, summarize
from delayboost.tree import TreeParams
from delayboost.tune import DEFAULT_GRID, Grid, grid_search, stratified_folds

BASE = BoostParams(learning_rate=0.1, tree_params=TreeParams(max_depth=1))


def step_matrix(n=30):
    """One feature fully determines the label, with a wide gap between the
    classes so any training subset splits all held-out rows correctly."""
    half = n // 2
    X = np.concatenate([np.arange(half), 100.0 + np.arange(n - half)]).reshape(n, 1)
    y = (X[:, 0] >= 100.0).astype(int)
    return make_matrix(X, y)


class TestGridType:
    def test_invariants(self):
        with pytest.raises(EmptyGridError):
            Grid((), (3,))
        with pytest.raises(EmptyGridError):
            Grid((10, 5), (3,))  # not increasing
        with pytest.raises(EmptyGridError):
            Grid((10,), (0,))  # below 1

    def test_default_grid_brackets_reported_optima(self):
        assert 300 in DEFAULT_GRID.estimator_values
        assert 400 in DEFAULT_GRID.estimator_values
        assert 5 in DEFAULT_GRID.depth_values


class TestFolds:
    def test_partition_and_balance(self):
        labels = np.array([0] * 10 + [1] * 7)
        folds = stratified_folds(labels, 3, seed=0)
        joined = np.sort(np.concatenate(folds))
        assert np.array_equal(joined, np.arange(17))
        for cls, total in ((0, 10), (1, 7)):
            sizes = [int((labels[f] == cls).sum()) for f in folds]
            assert sum(sizes) == total
            assert max(sizes) - min(sizes) <= 1

    def test_class_too_small(self):
        labels = np.array([0] * 10 + [1] * 2)
        with pytest.raises(ClassTooSmallForFoldsError):
            stratified_folds(labels, 3, seed=0)

    def test_deterministic(self):
        labels = np.array([0, 1] * 8)
        a = stratified_folds(labels, 4, seed=5)
        b = stratified_folds(labels, 4, seed=5)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_too_few_folds(self):
        with pytest.raises(DataError):
            stratified_folds(np.array([0, 1, 0, 1]), 1, seed=0)


class TestGridSearch:
    def test_singleton_grid(self):
        fm = step_matrix()
        result = grid_search(fm, Grid((5,), (2,)), folds=3, base=BASE, seed=0)
        assert result.best == (5, 2)
        assert len(result.cells) == 1
        cell = result.cells[0]
        assert cell.mean_score == sum(cell.fold_scores) / len(cell.fold_scores)

    def test_better_cell_wins_against_direct_evaluation(self):
        fm = separable_matrix()
        grid = Grid((1, 10, 50), (1, 3))
        seed = 7
        folds = stratified_folds(fm.labels, 3, seed=seed)
        for metric in ("accuracy", "f1"):
            result = grid_search(fm, grid, folds=3, base=BASE, seed=seed, metric=metric)

            # independent route: refit every cell on its own with a hand-rolled CV loop
            expected = {}
            for estimators in grid.estimator_values:
                for depth in grid.depth_values:
                    params = BoostParams(
                        estimators=estimators,
                        learning_rate=0.1,
                        tree_params=TreeParams(max_depth=depth),
                    )
                    scores = []
                    for val_idx in folds:
                        train_idx = np.setdiff1d(np.arange(fm.n_rows), val_idx)
                        model, _ = fit_gbc(fm.take(train_idx), params)
                        held = fm.take(val_idx)
                        pred = label_scores(decision_function(model, held.values))
                        summary = summarize(confusion(held.labels, pred))
                        scores.append(getattr(summary, metric))
                    expected[estimators, depth] = tuple(scores)
            assert {(c.estimators, c.depth): c.fold_scores for c in result.cells} == expected
            assert [(c.estimators, c.depth) for c in result.cells] == list(expected)
            means = {cell: sum(s) / len(s) for cell, s in expected.items()}
            assert means[(50, 3)] > means[(1, 1)], metric
            assert result.best == max(means, key=lambda c: (means[c], -c[0], -c[1]))
            if metric == "accuracy":
                assert result.best == (50, 3)

    def test_exhaustive_cell_count(self):
        fm = step_matrix()
        result = grid_search(fm, Grid((1, 2, 3), (1, 2)), folds=2, base=BASE, seed=1)
        assert len(result.cells) == 6
        combos = {(c.estimators, c.depth) for c in result.cells}
        assert combos == {(e, d) for e in (1, 2, 3) for d in (1, 2)}

    def test_tie_break_prefers_cheapest(self):
        # trivially separable: every combination scores 1.0 on every fold
        fm = step_matrix()
        result = grid_search(fm, Grid((2, 8), (1, 3)), folds=3, base=BASE, seed=2)
        assert all(c.mean_score == 1.0 for c in result.cells)
        assert result.best == (2, 1)

    def test_argmax_consistency(self, separable):
        result = grid_search(separable, Grid((1, 20), (1, 2)), folds=3, base=BASE, seed=3)
        best_by_recompute = max(
            result.cells,
            key=lambda c: (sum(c.fold_scores) / len(c.fold_scores), -c.estimators, -c.depth),
        )
        assert result.best == (best_by_recompute.estimators, best_by_recompute.depth)

    def test_deterministic(self, separable):
        a = grid_search(separable, Grid((2, 5), (1, 2)), folds=3, base=BASE, seed=4)
        b = grid_search(separable, Grid((2, 5), (1, 2)), folds=3, base=BASE, seed=4)
        assert a == b

    def test_f1_metric(self, separable):
        result = grid_search(
            separable, Grid((10,), (2,)), folds=3, base=BASE, seed=5, metric="f1"
        )
        assert 0.0 <= result.cells[0].mean_score <= 1.0

    def test_unknown_metric(self, separable):
        with pytest.raises(DataError):
            grid_search(separable, Grid((1,), (1,)), folds=2, base=BASE, seed=0, metric="auc")

    def test_render_and_doc(self, separable):
        result = grid_search(separable, Grid((2,), (1,)), folds=2, base=BASE, seed=0)
        text = result.render()
        assert "estimators" in text and "best:" in text
        doc = result.to_doc()
        assert doc["best"] == {"estimators": 2, "max_depth": 1}
        assert len(doc["cells"]) == 1
