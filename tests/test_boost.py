import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import make_matrix, separable_matrix
from delayboost import boost
from delayboost.boost import (
    BoostParams,
    decision_function,
    fit_gbc,
    label_scores,
    mean_deviance,
    predict_label,
    predict_proba,
    sigmoid,
    staged_deviance,
    staged_scores,
)
from delayboost.errors import (
    DimensionMismatchError,
    EmptyInputError,
    InvalidThresholdError,
    NonFiniteFeatureError,
    SingleClassTrainingError,
)
from delayboost.model_io import load_model, save_model
from delayboost.tree import TreeParams, fit_tree


def quick_params(estimators=10, lr=0.1, depth=2):
    return BoostParams(
        estimators=estimators,
        learning_rate=lr,
        tree_params=TreeParams(max_depth=depth),
    )


def balanced_matrix(n=40, seed=1):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    y = (np.arange(n) % 2).astype(int)
    return make_matrix(X, y)


class TestPrior:
    def test_f0_zero_for_balanced(self):
        model, _ = fit_gbc(balanced_matrix(), quick_params(estimators=0))
        assert model.f0 == 0.0

    def test_f0_log_odds_paper_counts(self):
        # class counts 19,668 vs 76,090; oracle is the log-odds formula itself
        y = np.concatenate([np.ones(19668, dtype=int), np.zeros(76090, dtype=int)])
        X = np.zeros((y.size, 1))
        model, _ = fit_gbc(make_matrix(X, y), quick_params(estimators=0))
        expected = math.log(19668 / 76090)
        assert model.f0 == pytest.approx(expected, abs=1e-12)
        assert model.f0 == pytest.approx(-1.3529, abs=1e-4)

    def test_zero_estimators_predicts_prior(self):
        fm = balanced_matrix()
        model, _ = fit_gbc(fm, quick_params(estimators=0))
        proba = predict_proba(model, fm.values)
        assert np.all(proba == 0.5)

    def test_prior_probability_within_one_ulp(self):
        # p1 = 0.25; sigmoid(log-odds) reproduces p1 up to float rounding
        y = np.array([1, 0, 0, 0] * 5)
        fm = make_matrix(np.zeros((20, 1)), y)
        model, _ = fit_gbc(fm, quick_params(estimators=0))
        proba = float(predict_proba(model, np.zeros((1, 1)))[0])
        assert abs(proba - 0.25) <= np.spacing(0.25)
        assert np.mean(predict_proba(model, fm.values)) == pytest.approx(0.25, abs=1e-15)

    def test_single_class_rejected(self):
        fm = make_matrix([[0.0], [1.0]], [1, 1])
        with pytest.raises(SingleClassTrainingError):
            fit_gbc(fm, quick_params())

    def test_non_finite_features_rejected(self):
        fm = make_matrix([[0.0], [np.inf]], [0, 1])
        with pytest.raises(NonFiniteFeatureError):
            fit_gbc(fm, quick_params())

    def test_non_finite_features_reported_before_single_class(self):
        fm = make_matrix([[0.0], [np.nan]], [1, 1])
        with pytest.raises(NonFiniteFeatureError):
            fit_gbc(fm, quick_params())


class TestScores:
    def test_sign_matches_label_rule(self, separable):
        model, _ = fit_gbc(separable, quick_params(estimators=25))
        scores = decision_function(model, separable.values)
        labels = predict_label(model, separable.values)
        assert np.array_equal(labels, (scores >= 0).astype(int))

    def test_score_zero_is_half(self):
        assert float(sigmoid(np.array([0.0]))[0]) == 0.5

    def test_saturation_no_overflow(self):
        p = float(sigmoid(np.array([40.0]))[0])
        assert abs(p - 1.0) <= 1e-12
        assert float(sigmoid(np.array([-1000.0]))[0]) == pytest.approx(0.0, abs=1e-300)
        assert np.isfinite(sigmoid(np.array([1e3, -1e3]))).all()

    def test_dimension_mismatch(self, separable):
        model, _ = fit_gbc(separable, quick_params(estimators=2))
        with pytest.raises(DimensionMismatchError):
            decision_function(model, np.zeros(5))
        # scoring takes a matrix only: one row is (1, d), never (d,)
        with pytest.raises(DimensionMismatchError):
            predict_proba(model, separable.values[0])
        assert predict_proba(model, separable.values[:1]).shape == (1,)


class TestBlockedScoring:
    """decision_function scores row blocks; the bits must not depend on it."""

    BLOCK = 8

    @pytest.fixture(scope="class")
    def model(self):
        model, _ = fit_gbc(separable_matrix(n=120, seed=5), quick_params(estimators=12, depth=3))
        return model

    @pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    def test_equals_the_last_staged_score(self, model, monkeypatch, n):
        X = np.random.default_rng(n).normal(scale=2.0, size=(n, 2))
        for whole in staged_scores(model, X):
            pass
        monkeypatch.setattr(boost, "_BLOCK_ROWS", self.BLOCK)
        scores = decision_function(model, X)
        assert scores.shape == (n,) and scores.dtype == np.float64
        assert scores.tobytes() == whole.tobytes()
        assert predict_proba(model, X).tobytes() == sigmoid(whole).tobytes()
        for threshold in (0.3, 0.5):
            labels = predict_label(model, X, threshold)
            assert labels.tobytes() == label_scores(whole, threshold).tobytes()

    @pytest.mark.parametrize("n", [0, 1, BLOCK + 1, 3 * BLOCK + 5])
    def test_layout_and_reload_do_not_change_the_bits(self, model, monkeypatch, tmp_path, n):
        rng = np.random.default_rng(n)
        X = rng.normal(scale=2.0, size=(2 * n, 2))
        X[rng.random(X.shape) < 0.05] = np.nan  # NaN routes right at every split
        want = decision_function(model, np.ascontiguousarray(X[::2]))
        save_model(model, tmp_path / "model.json")
        reloaded, _ = load_model(tmp_path / "model.json")
        monkeypatch.setattr(boost, "_BLOCK_ROWS", self.BLOCK)
        for rows in (X[::2], np.asfortranarray(X[::2]), np.asfortranarray(X)[::2]):
            for m in (model, reloaded):
                assert decision_function(m, rows).tobytes() == want.tobytes()

    def test_replaced_leaf_values_are_the_ones_predicted(self, model):
        # fit_gbc stores replace(tree, value=newton_values): the copy must
        # route as the tree did and predict from its own values.
        tree = model.trees[0]
        X = np.random.default_rng(3).normal(scale=2.0, size=(50, 2))
        leaf = tree.apply(X)
        values = np.where(tree.feature == -1, np.arange(tree.n_nodes) + 0.5, np.nan)
        moved = replace(tree, value=values)
        assert moved.apply(X).tobytes() == leaf.tobytes()
        assert moved.predict(X).tobytes() == values[leaf].tobytes()
        assert tree.predict(X).tobytes() == tree.value[leaf].tobytes()
        for t in (tree, moved):  # routed above, yet only the node arrays are written
            assert set(t.to_doc()) == {"feature", "threshold", "left", "right", "value", "n_features"}
        assert moved.to_doc()["value"] == [None if np.isnan(v) else v for v in values]


class TestPredictLabel:
    def test_basic_thresholding(self):
        fm = balanced_matrix()
        model, _ = fit_gbc(fm, quick_params(estimators=0))
        # prior-only model emits 0.5 everywhere: >= rule gives 1
        assert predict_label(model, fm.values[:1], threshold=0.5).tolist() == [1]
        assert predict_label(model, fm.values[:1], threshold=0.6).tolist() == [0]

    def test_invalid_threshold(self):
        fm = balanced_matrix()
        model, _ = fit_gbc(fm, quick_params(estimators=0))
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(InvalidThresholdError):
                predict_label(model, fm.values[:1], threshold=bad)
            with pytest.raises(InvalidThresholdError):
                label_scores(np.zeros(3), threshold=bad)

    def test_label_scores_is_sigmoid_rule(self):
        # sigmoid: -3 -> 0.047, 0.4 -> 0.599, 2 -> 0.881; -1e-300 rounds to 0.5
        scores = np.array([-3.0, -1e-300, 0.0, 0.4, 2.0])
        expected = {0.1: [0, 1, 1, 1, 1], 0.5: [0, 1, 1, 1, 1],
                    0.6: [0, 0, 0, 0, 1], 0.9: [0, 0, 0, 0, 0]}
        for threshold, labels in expected.items():
            assert label_scores(scores, threshold).tolist() == labels
        assert label_scores(np.empty(0)).shape == (0,)


class TestDeviance:
    def test_entry0_balanced_is_log2(self):
        fm = balanced_matrix()
        model, trace = fit_gbc(fm, quick_params(estimators=3))
        assert trace.deviance[0] == pytest.approx(math.log(2.0), abs=1e-12)
        staged = staged_deviance(model, fm)
        assert staged[0] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_entry0_quarter_prior_oracle(self):
        # direct evaluation of -[p log p + (1-p) log(1-p)] at p = 0.25
        expected = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
        y = np.array([1, 0, 0, 0] * 10)
        fm = make_matrix(np.zeros((40, 1)), y)
        _, trace = fit_gbc(fm, quick_params(estimators=0))
        assert trace.deviance[0] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.5623, abs=1e-4)

    def test_trace_lengths(self, separable):
        _, trace = fit_gbc(separable, quick_params(estimators=7))
        assert len(trace.deviance) == 8
        assert len(trace.accuracy) == 8

    def test_staged_matches_trace_on_train(self, separable):
        model, trace = fit_gbc(separable, quick_params(estimators=10))
        staged = staged_deviance(model, separable)
        assert np.allclose(staged, trace.deviance, atol=1e-12)

    def test_non_increasing_on_train(self, separable):
        for lr in (0.05, 0.1, 0.5):
            _, trace = fit_gbc(separable, quick_params(estimators=30, lr=lr))
            dev = np.array(trace.deviance)
            assert np.all(np.diff(dev) <= 1e-9)

    def test_empty_input(self, separable):
        model, _ = fit_gbc(separable, quick_params(estimators=1))
        empty = make_matrix(np.empty((0, 2)), np.empty(0, dtype=int))
        with pytest.raises(EmptyInputError):
            staged_deviance(model, empty)


class TestGradient:
    def test_residual_matches_finite_difference(self):
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(20):
            n = int(rng.integers(3, 30))
            y = rng.integers(0, 2, size=n)
            f = rng.normal(scale=2.0, size=n)
            p = sigmoid(f)
            residual = y - p
            for i in range(n):
                up, down = f.copy(), f.copy()
                up[i] += h
                down[i] -= h
                # gradient of the total deviance w.r.t. f_i is -residual_i
                diff = (mean_deviance(y, up) - mean_deviance(y, down)) * n / (2 * h)
                assert diff == pytest.approx(-residual[i], abs=1e-6)


class TestDegenerateLeaf:
    def test_saturated_leaves_stop_growing(self):
        # two separable rows push p toward 0/1 until the no-gain rule stops
        # the splits; each leaf's sum p(1 - p) stays above 1e-6, so this never
        # reaches the Newton guard (TestNewtonGuard does)
        fm = make_matrix([[0.0], [1.0]], [0, 1])
        params = BoostParams(
            estimators=60, learning_rate=1.0, tree_params=TreeParams(max_depth=1)
        )
        model, trace = fit_gbc(fm, params)
        scores = decision_function(model, fm.values)
        assert np.all(np.isfinite(scores))
        dev = np.array(trace.deviance)
        assert np.all(np.diff(dev) <= 1e-9)


class TestNewtonGuard:
    def test_saturated_leaf_gets_zero(self):
        tree, leaf = fit_tree(np.array([[0.0], [1.0]]), [0.0, 1.0], TreeParams(max_depth=1))
        y = np.array([0, 1])
        p = sigmoid(np.array([0.0, 30.0]))  # the second row's leaf is saturated
        residual, weight = y - p, p * (1.0 - p)
        assert 0.0 < weight[1] < boost._NEWTON_GUARD
        assert residual[1] / weight[1] > 0.5  # what the step would be without the guard
        values = boost._newton_values(tree, leaf, residual, weight)
        assert values[leaf].tolist() == [-2.0, 0.0]


class TestNewtonStep:
    def test_one_round_leaves_are_newton_steps(self, separable):
        X, y = separable.values, separable.labels
        model, _ = fit_gbc(separable, quick_params(estimators=1, depth=3))
        tree = model.trees[0]
        p = np.full(y.size, y.mean())
        residual = y - p
        weight = p * (1.0 - p)
        leaf = tree.apply(X)
        for node in tree.leaf_nodes:
            rows = leaf == node
            assert rows.any()
            expected = residual[rows].sum() / weight[rows].sum()
            assert tree.value[node] == pytest.approx(expected, rel=1e-12, abs=1e-15)
        scores = decision_function(model, X)
        assert np.array_equal(scores, model.f0 + model.learning_rate * tree.value[leaf])


class TestDeterminism:
    def test_identical_fits(self, separable):
        m1, t1 = fit_gbc(separable, quick_params(estimators=15))
        m2, t2 = fit_gbc(separable, quick_params(estimators=15))
        assert m1.f0 == m2.f0
        assert t1 == t2
        for a, b in zip(m1.trees, m2.trees):
            assert a.to_doc() == b.to_doc()

    def test_separable_fixture_learns(self):
        fm = separable_matrix()
        model, trace = fit_gbc(
            fm,
            BoostParams(estimators=100, learning_rate=0.1, tree_params=TreeParams(max_depth=2)),
        )
        assert trace.accuracy[-1] >= 0.99

    def test_params_validation(self):
        with pytest.raises(ValueError):
            BoostParams(estimators=-1)
        with pytest.raises(ValueError):
            BoostParams(learning_rate=0.0)
        with pytest.raises(ValueError):
            BoostParams(learning_rate=1.5)


@st.composite
def _prefix_inputs(draw):
    n = draw(st.integers(4, 30))
    d = draw(st.integers(1, 3))
    tied = draw(st.booleans())
    element = st.integers(-3, 3).map(float) if tied else st.floats(-5.0, 5.0)
    X = draw(arrays(np.float64, (n, d), elements=element))
    y = draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    y[:2] = (0, 1)  # both classes
    e_max = draw(st.integers(1, 8))
    return make_matrix(X, y), e_max, draw(st.integers(1, e_max)), draw(st.integers(0, 3))


class TestPrefixProperty:
    """Round m of a fit never reads the estimator count, which grid search relies on."""

    @settings(max_examples=60, deadline=None)
    @given(_prefix_inputs())
    def test_smaller_fit_is_a_prefix_of_the_larger(self, inputs):
        fm, e_max, e, depth = inputs
        large, _ = fit_gbc(fm, quick_params(estimators=e_max, depth=depth))
        small, _ = fit_gbc(fm, quick_params(estimators=e, depth=depth))
        assert small.f0 == large.f0
        assert len(small.trees) == e
        for a, b in zip(small.trees, large.trees):
            for name in ("feature", "threshold", "left", "right", "value"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name

        staged = [f.copy() for f in staged_scores(large, fm.values)]
        assert len(staged) == e_max + 1
        assert staged[e].tobytes() == decision_function(small, fm.values).tobytes()
        assert staged[-1].tobytes() == decision_function(large, fm.values).tobytes()
        deviance = staged_deviance(large, fm)
        assert deviance.tolist() == [mean_deviance(fm.labels, f) for f in staged]
