import faulthandler
import multiprocessing
import os
import subprocess
import sys
import threading
import warnings
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import delayboost
from conftest import make_matrix, separable_matrix
from delayboost import tune
from delayboost.boost import BoostParams, decision_function, fit_gbc, label_scores
from delayboost.encode import FeatureMatrix
from delayboost.errors import (ClassTooSmallForFoldsError, DataError, EmptyGridError,
                               NonFiniteFeatureError, TrainingError)
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

    @pytest.mark.parametrize("n_pos, rows", [(1, "1 row"), (2, "2 rows")])
    def test_class_too_small_names_its_row_count(self, n_pos, rows):
        labels = np.array([0] * 10 + [1] * n_pos)
        with pytest.raises(ClassTooSmallForFoldsError) as exc:
            stratified_folds(labels, 3, seed=0)
        assert str(exc.value) == f"class 1 has {rows}, fewer than 3 folds"

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


@pytest.fixture
def four_cpus(monkeypatch):
    """Four CPUs for `worker_count`, whatever the host has; checks that each
    test leaves no child process and no new thread behind."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    before = threading.active_count()
    yield
    assert multiprocessing.active_children() == []
    assert threading.active_count() == before


class TestForkedJobs:
    """`grid_search` runs its (fold, depth) jobs in forked children when it may
    use more than one CPU."""

    def test_children_give_the_serial_result_and_pickle_no_matrix(self, four_cpus, monkeypatch):
        fm, grid = separable_matrix(), Grid((1, 4), (1, 2, 3))
        serial = grid_search(fm, grid, folds=3, base=BASE, seed=6, threads=1)

        def refuse(self, protocol):
            raise AssertionError("a FeatureMatrix was pickled")

        monkeypatch.setattr(FeatureMatrix, "__reduce_ex__", refuse)
        for threads in (2, 3, None):
            assert grid_search(fm, grid, folds=3, base=BASE, seed=6, threads=threads) == serial

    def test_a_nan_raises_the_same_error_on_one_and_two_threads(self, four_cpus):
        fm = separable_matrix()
        values = fm.values.copy()
        values[7, 1] = np.nan
        fm = make_matrix(values, fm.labels)
        messages = []
        for threads in (1, 2):
            with pytest.raises(NonFiniteFeatureError) as exc:
                grid_search(fm, Grid((2,), (1, 2)), folds=2, base=BASE, seed=0, threads=threads)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]

    def test_each_child_fits_on_its_share_of_the_threads(self, four_cpus, monkeypatch):
        parent = os.getpid()

        def report(train, params, *, threads):
            raise TrainingError(f"threads={threads} child={os.getpid() != parent}")

        monkeypatch.setattr(tune, "fit_gbc", report)
        for threads, expected in ((None, "threads=2 child=True"), (3, "threads=1 child=True"),
                                  (1, "threads=1 child=False")):
            with pytest.raises(TrainingError, match=f"^{expected}$"):
                grid_search(separable_matrix(), Grid((2,), (1,)), folds=2, base=BASE, seed=0,
                            threads=threads)

    def test_a_child_that_dies_raises_and_does_not_hang(self, four_cpus, monkeypatch):
        parent = os.getpid()

        def die(train, params, *, threads):
            if os.getpid() != parent:
                os._exit(1)
            return fit_gbc(train, params, threads=threads)

        monkeypatch.setattr(tune, "fit_gbc", die)
        faulthandler.dump_traceback_later(120, exit=True)  # a hang ends the run, with tracebacks
        try:
            with pytest.raises(BrokenProcessPool):
                grid_search(separable_matrix(), Grid((2,), (1, 2)), folds=2, base=BASE, seed=0,
                            threads=2)
        finally:
            faulthandler.cancel_dump_traceback_later()

    def test_jobs_run_deepest_first(self, monkeypatch):
        depths = []

        def record(train, params, *, threads):
            depths.append(params.tree_params.max_depth)
            return fit_gbc(train, params, threads=threads)

        monkeypatch.setattr(tune, "fit_gbc", record)
        grid_search(separable_matrix(), Grid((2,), (1, 2, 3)), folds=2, base=BASE, seed=0,
                    threads=1)
        assert depths == [3, 3, 2, 2, 1, 1]

    def test_no_fork_while_another_python_thread_runs(self, four_cpus, monkeypatch):
        # Python 3.12 warns in the parent at a fork while the process has
        # another thread (NumPy's BLAS threads count); this fork warns so on any version
        fork, forks, raised = os.fork, [], []

        def warning_fork():
            pid = fork()
            if pid:
                forks.append(pid)
                try:  # caught here: a fork that raises would leave its child waiting
                    warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of "
                                  "fork() may lead to deadlocks in the child.", DeprecationWarning)
                except DeprecationWarning as exc:
                    raised.append(exc)
            return pid

        monkeypatch.setattr(os, "fork", warning_fork)
        fm, grid = separable_matrix(), Grid((2,), (1, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            alone = grid_search(fm, grid, folds=2, base=BASE, seed=0, threads=2)
        assert len(forks) == 2 and raised == []
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            assert grid_search(fm, grid, folds=2, base=BASE, seed=0, threads=2) == alone
        finally:
            release.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive() and len(forks) == 2


def test_import_loads_no_process_pool():
    code = ("import sys, delayboost; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    env = {**os.environ, "PYTHONPATH": str(Path(delayboost.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout == "[]\n"
