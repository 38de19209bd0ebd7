import os
import subprocess
import sys
import textwrap
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import make_matrix
from delayboost.errors import (
    DimensionMismatchError,
    EmptyInputError,
    NoFeatureColumnsError,
    NonFiniteFeatureError,
    NonFiniteTargetError,
)
from delayboost import tree as tree_module
from delayboost.boost import BoostParams, fit_gbc
from delayboost.tree import RegressionTree, TreeParams, Workers, fit_tree, presort, worker_count


def brute_force_root_split(X, t, min_samples_leaf=1):
    """Independent exhaustive search: best SSE over every (feature, midpoint).

    Returns (sse, feature, threshold), computing child SSE by direct
    deviation sums rather than the prefix-sum algebra used in the package.
    """
    X = np.asarray(X, dtype=float)
    t = np.asarray(t, dtype=float)
    best = None
    for f in range(X.shape[1]):
        values = sorted(set(X[:, f]))
        for lo, hi in zip(values, values[1:]):
            threshold = (lo + hi) / 2.0
            left = t[X[:, f] <= lo]
            right = t[X[:, f] >= hi]
            if len(left) < min_samples_leaf or len(right) < min_samples_leaf:
                continue
            sse = sum((v - left.mean()) ** 2 for v in left) + sum(
                (v - right.mean()) ** 2 for v in right
            )
            if best is None or sse < best[0] - 1e-15:
                best = (sse, f, threshold)
    return best


def reference_fit(X, t, params):
    """The tree grown recursively, argsorting every column again at every node.

    The straightforward search `fit_tree` must reproduce bit for bit.  Returns
    the five node arrays (feature, threshold, left, right, value) in preorder.
    """
    X = np.asarray(X, dtype=float)
    t = np.asarray(t, dtype=float)
    nodes = []
    _reference_grow(nodes, X, t, params, np.arange(X.shape[0]), depth=0)
    feature, threshold, left, right, value = zip(*nodes)
    return (
        np.array(feature, dtype=np.int64),
        np.array(threshold, dtype=np.float64),
        np.array(left, dtype=np.int64),
        np.array(right, dtype=np.int64),
        np.array(value, dtype=np.float64),
    )


def _reference_grow(nodes, X, t, params, idx, depth):
    node = len(nodes)
    nodes.append([-1, np.nan, -1, -1, np.nan])
    split = None
    if depth < params.max_depth and idx.size >= params.min_samples_split:
        split = _reference_best_split(X, t, idx, params.min_samples_leaf)
    if split is None:
        nodes[node][4] = float(t[idx].mean())
        return node
    feature, threshold = split
    goes_left = X[idx, feature] <= threshold
    nodes[node][:2] = feature, threshold
    nodes[node][2] = _reference_grow(nodes, X, t, params, idx[goes_left], depth + 1)
    nodes[node][3] = _reference_grow(nodes, X, t, params, idx[~goes_left], depth + 1)
    return node


def _reference_best_split(X, t, idx, min_samples_leaf):
    n = idx.size
    ti = t[idx]
    total = ti.sum()
    total_sq = (ti * ti).sum()
    parent_sse = total_sq - total * total / n
    tolerance = 1e-12 * max(parent_sse, 1.0)

    best_sse = np.inf
    best = None
    for f in range(X.shape[1]):
        xs = X[idx, f]
        order = np.argsort(xs, kind="stable")
        xs_sorted = xs[order]
        ts_sorted = ti[order]
        boundaries = np.flatnonzero(xs_sorted[1:] != xs_sorted[:-1]) + 1
        boundaries = boundaries[
            (boundaries >= min_samples_leaf) & (n - boundaries >= min_samples_leaf)
        ]
        if boundaries.size == 0:
            continue
        cum = np.cumsum(ts_sorted)
        cum_sq = np.cumsum(ts_sorted * ts_sorted)
        left_n = boundaries
        left_sum = cum[boundaries - 1]
        left_sq = cum_sq[boundaries - 1]
        right_n = n - left_n
        right_sum = total - left_sum
        right_sq = total_sq - left_sq
        sse = (left_sq - left_sum * left_sum / left_n) + (
            right_sq - right_sum * right_sum / right_n
        )
        j = int(np.argmin(sse))
        if sse[j] < best_sse:
            best_sse = sse[j]
            lo, hi = xs_sorted[boundaries[j] - 1], xs_sorted[boundaries[j]]
            mid = (lo + hi) / 2.0
            best = (f, mid if mid < hi else lo)
    if best is None or best_sse >= parent_sse - tolerance:
        return None
    return best


def reference_apply(tree, X):
    """Leaf ids routed one node at a time with a stack of (node, row ids).

    The straightforward router the level-wise `apply` must reproduce, in
    dtype and bytes.
    """
    X = np.asarray(X, dtype=float)
    out = np.zeros(X.shape[0], dtype=np.int64)
    stack = [(0, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if tree.feature[node] == -1:
            out[idx] = node
            continue
        goes_left = X[idx, tree.feature[node]] <= tree.threshold[node]
        stack.append((int(tree.left[node]), idx[goes_left]))
        stack.append((int(tree.right[node]), idx[~goes_left]))
    return out


def achieved_root_sse(tree, X, t):
    left = t[X[:, tree.feature[0]] <= tree.threshold[0]]
    right = t[X[:, tree.feature[0]] > tree.threshold[0]]
    return (
        float(((left - left.mean()) ** 2).sum())
        + float(((right - right.mean()) ** 2).sum())
    )


class TestFitTrivial:
    def test_constant_targets_single_leaf(self):
        tree, _ = fit_tree([[1.0], [2.0], [3.0]], [3.0, 3.0, 3.0], TreeParams(max_depth=5))
        assert tree.n_nodes == 1
        assert tree.value[0] == 3.0
        assert tree.depth == 0

    def test_depth_zero_global_mean(self):
        tree, _ = fit_tree([[1.0], [2.0]], [1.0, 5.0], TreeParams(max_depth=0))
        assert tree.n_nodes == 1
        assert tree.value[0] == 3.0

    def test_known_split(self):
        X = [[1.0], [2.0], [3.0], [4.0]]
        t = [0.0, 0.0, 1.0, 1.0]
        oracle = brute_force_root_split(X, t)
        assert oracle[1:] == (0, 2.5)
        tree, _ = fit_tree(X, t, TreeParams(max_depth=1))
        assert tree.feature[0] == 0
        assert tree.threshold[0] == 2.5
        leaves = sorted(tree.value[tree.feature == -1])
        assert leaves == [0.0, 1.0]

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            fit_tree(np.empty((0, 1)), [], TreeParams())

    def test_non_finite_targets(self):
        with pytest.raises(NonFiniteTargetError):
            fit_tree([[1.0], [2.0]], [1.0, np.nan], TreeParams())

    def test_row_target_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            fit_tree([[1.0], [2.0]], [1.0], TreeParams())

    @pytest.mark.parametrize("weights", [[1.0], [1.0, 1.0, 1.0], [[1.0], [1.0]], 1.0])
    def test_weights_not_one_per_row_rejected(self, weights):
        with pytest.raises(DimensionMismatchError, match="weights of shape"):
            fit_tree([[1.0], [2.0]], [1.0, 2.0], TreeParams(), weights=weights)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0, -1e-300])
    def test_non_finite_or_negative_weights_rejected(self, bad):
        with pytest.raises(NonFiniteTargetError, match="weights contain"):
            fit_tree([[1.0], [2.0]], [1.0, 2.0], TreeParams(), weights=[1.0, bad])

    @pytest.mark.parametrize("shape", [(4,), (4, 1, 1)])
    def test_non_matrix_input_rejected(self, shape):
        # scoring rejects these shapes, so fitting must too
        X = np.arange(4.0).reshape(shape)
        with pytest.raises(DimensionMismatchError):
            fit_tree(X, [0.0, 0.0, 1.0, 1.0], TreeParams())
        with pytest.raises(DimensionMismatchError, match="expected a 2-D feature matrix"):
            presort(X)


class TestPredict:
    def test_single_leaf(self):
        tree, _ = fit_tree([[1.0]], [3.0], TreeParams(max_depth=0))
        assert tree.predict(np.array([[123.0]])).tolist() == [3.0]

    def test_depth_one_routing(self):
        tree, _ = fit_tree([[1.0], [2.0], [3.0], [4.0]], [0.0, 0.0, 1.0, 1.0], TreeParams(max_depth=1))
        assert tree.predict(np.array([[1.0], [4.0]])).tolist() == [0.0, 1.0]

    def test_threshold_ties_go_left(self):
        tree, _ = fit_tree([[1.0], [2.0], [3.0], [4.0]], [0.0, 0.0, 1.0, 1.0], TreeParams(max_depth=1))
        assert tree.predict(np.array([[2.5]])).tolist() == [0.0]

    def test_dimension_mismatch(self):
        tree, _ = fit_tree([[1.0, 2.0]], [1.0], TreeParams(max_depth=0))
        with pytest.raises(DimensionMismatchError):
            tree.predict(np.array([[1.0]]))
        with pytest.raises(DimensionMismatchError):
            tree.predict(np.array([1.0, 2.0]))
        with pytest.raises(DimensionMismatchError):
            tree.predict(np.zeros((3, 5)))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 3))
        t = rng.normal(size=30)
        tree, _ = fit_tree(X, t, TreeParams(max_depth=3))
        batch = tree.predict(X)
        singles = [tree.predict(row[None, :])[0] for row in X]
        assert np.array_equal(batch, singles)


class TestOracle:
    def test_root_split_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for trial in range(40):
            n = int(rng.integers(2, 21))
            d = int(rng.integers(1, 4))
            if trial % 3 == 0:
                X = rng.integers(0, 4, size=(n, d)).astype(float)  # ties
            else:
                X = rng.normal(size=(n, d))
            t = rng.normal(size=n)
            oracle = brute_force_root_split(X, t)
            tree, _ = fit_tree(X, t, TreeParams(max_depth=1))
            if oracle is None:
                assert tree.n_nodes == 1
                continue
            if tree.feature[0] == -1:
                # no gain beyond noise; oracle must agree the split is useless
                parent = float(((t - t.mean()) ** 2).sum())
                assert oracle[0] >= parent - 1e-9
                continue
            assert achieved_root_sse(tree, X, t) == pytest.approx(oracle[0], abs=1e-9)

    def test_deeper_never_worse(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(60, 3))
        t = rng.normal(size=60)
        sses = []
        for depth in range(5):
            tree, _ = fit_tree(X, t, TreeParams(max_depth=depth))
            sses.append(float(((tree.predict(X) - t) ** 2).sum()))
        assert all(a >= b - 1e-9 for a, b in zip(sses, sses[1:]))

    def test_leaf_values_are_exact_means(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(50, 2))
        t = rng.normal(size=50)
        tree, _ = fit_tree(X, t, TreeParams(max_depth=3))
        leaf = tree.apply(X)
        assert np.array_equal(np.unique(leaf), tree.leaf_nodes)
        for node in tree.leaf_nodes:
            assert tree.value[node] == t[leaf == node].mean()
        assert np.array_equal(tree.predict(X), tree.value[leaf])

    def test_min_samples_leaf_respected(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(40, 2))
        t = rng.normal(size=40)
        tree, _ = fit_tree(X, t, TreeParams(max_depth=6, min_samples_leaf=5))
        leaf = tree.apply(X)
        for node in tree.leaf_nodes:
            assert (leaf == node).sum() >= 5

    def test_max_depth_respected(self):
        rng = np.random.default_rng(19)
        X = rng.normal(size=(80, 2))
        t = rng.normal(size=80)
        for depth in (1, 2, 4):
            tree, _ = fit_tree(X, t, TreeParams(max_depth=depth))
            assert tree.depth <= depth

    def test_split_between_adjacent_doubles(self):
        lo = np.nextafter(1.0, 2.0)
        hi = np.nextafter(lo, 2.0)  # (lo + hi) / 2 rounds to hi
        X = np.array([[lo], [hi]])
        tree, _ = fit_tree(X, [0.0, 1.0], TreeParams(max_depth=1))
        assert tree.apply(X).tolist() == [1, 2]
        assert tree.value[1:].tolist() == [0.0, 1.0]

    def test_tie_break_prefers_lowest_threshold(self):
        # splits at 1.5 and 3.5 leave the same SSE, bit for bit
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        tree, _ = fit_tree(X, [0.0, 1.0, 1.0, 0.0], TreeParams(max_depth=1))
        assert tree.feature[0] == 0 and tree.threshold[0] == 1.5

    def test_tie_break_prefers_lowest_feature(self):
        # duplicated feature: identical gains, feature 0 must win
        x = np.array([1.0, 2.0, 3.0, 4.0])
        X = np.column_stack([x, x])
        tree, _ = fit_tree(X, [0.0, 0.0, 1.0, 1.0], TreeParams(max_depth=1))
        assert tree.feature[0] == 0

    @pytest.mark.parametrize("ulps_below, splits", [(0, False), (1, True)])
    def test_no_gain_bound_is_strict(self, monkeypatch, ulps_below, splits):
        # A split must lower the node's SSE below parent - 1e-12 * max(parent, 1):
        # a best split exactly at that bound is no gain, one ulp below it is.
        def scan_to_the_bound(xs, ts, total, total_sq, min_samples_leaf):
            parent = total_sq - total * total / xs.size
            sse = parent - 1e-12 * max(parent, 1.0)
            for _ in range(ulps_below):
                sse = np.nextafter(sse, -np.inf)
            return sse, (xs[0] + xs[-1]) / 2.0

        monkeypatch.setattr(tree_module, "_scan", scan_to_the_bound)
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        tree, _ = fit_tree(X, [0.0, 0.0, 1.0, 1.0], TreeParams(max_depth=1))
        assert tree.n_nodes == (3 if splits else 1)

    def test_determinism(self):
        rng = np.random.default_rng(23)
        X = rng.normal(size=(50, 3))
        t = rng.normal(size=50)
        t1, _ = fit_tree(X, t, TreeParams(max_depth=4))
        t2, _ = fit_tree(X, t, TreeParams(max_depth=4))
        assert t1.to_doc() == t2.to_doc()


# small integers give ties; the floats give distinct values
_VALUES = st.one_of(st.integers(-3, 3).map(float), st.floats(-5.0, 5.0))


def _cells(n, d):
    return arrays(np.float64, (n, d), elements=_VALUES)


@st.composite
def _fit_inputs(draw):
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 3))
    X = draw(_cells(n, d))
    t = draw(arrays(np.float64, n, elements=st.floats(-10.0, 10.0)))
    return X, t, draw(st.integers(0, 5))


class TestRoutingProperty:
    @settings(max_examples=60, deadline=None)
    @given(_fit_inputs())
    def test_every_ancestor_agrees_with_the_branch_taken(self, inputs):
        X, t, depth = inputs
        tree, _ = fit_tree(X, t, TreeParams(max_depth=depth))
        parent = {}
        probes = []  # rows that sit exactly on a threshold must go left
        for node in range(tree.n_nodes):
            if tree.feature[node] != -1:
                parent[int(tree.left[node])] = node
                parent[int(tree.right[node])] = node
                probe = X[0].copy()
                probe[tree.feature[node]] = tree.threshold[node]
                probes.append(probe)
        rows = np.vstack([X, *probes])
        leaf = tree.apply(rows)
        for r, x in enumerate(rows):
            node = int(leaf[r])
            assert tree.feature[node] == -1
            while node in parent:
                up = parent[node]
                went_left = node == tree.left[up]
                assert (x[tree.feature[up]] <= tree.threshold[up]) == went_left
                node = up
            assert node == 0
            assert tree.predict(x[None, :])[0] == tree.value[leaf[r]]


def _tree_from_spec(spec, n_features):
    """A tree loaded through `from_doc` from nested specs: a float is a leaf of
    that value, a tuple (feature, threshold, left, right) an internal node."""
    nodes = []

    def add(node_spec):
        node = len(nodes)
        nodes.append(None)
        if isinstance(node_spec, tuple):
            feature, threshold, left, right = node_spec
            nodes[node] = [feature, threshold, add(left), add(right), None]
        else:
            nodes[node] = [-1, None, -1, -1, node_spec]
        return node

    add(spec)
    keys = ("feature", "threshold", "left", "right", "value")
    return RegressionTree.from_doc(dict(zip(keys, map(list, zip(*nodes))), n_features=n_features))


@st.composite
def _hand_built_tree(draw):
    """A random, often unbalanced, tree of depth <= 7 loaded through `from_doc`."""
    d = draw(st.integers(1, 4))

    def grow(depth):
        if depth < 7 and draw(st.booleans()):
            return (draw(st.integers(0, d - 1)), draw(_VALUES), grow(depth + 1), grow(depth + 1))
        return draw(st.floats(-5.0, 5.0))

    return _tree_from_spec(grow(0), d)


@st.composite
def _routing_inputs(draw):
    """A fitted (depth 0-6) or hand-built tree, and rows to route through it.

    The rows hold NaN, +-inf, small integers (ties with integer thresholds)
    and one probe per internal node sitting exactly on its threshold.
    """
    if draw(st.booleans()):
        X, t, params = draw(_tree_inputs())
        tree, _ = fit_tree(X, t, params)
    else:
        tree = draw(_hand_built_tree())
    element = st.one_of(
        _VALUES, st.sampled_from([np.nan, np.inf, -np.inf]), st.floats(-1e308, 1e308)
    )
    rows = draw(arrays(np.float64, (draw(st.integers(0, 30)), tree.n_features), elements=element))
    probes = []
    for node in np.flatnonzero(tree.feature != -1):
        probe = rows[0].copy() if rows.shape[0] else np.zeros(tree.n_features)
        probe[tree.feature[node]] = tree.threshold[node]
        probes.append(probe)
    return tree, np.vstack([rows, *probes])


class TestLevelWiseRouting:
    @settings(max_examples=200, deadline=None)
    @given(_routing_inputs())
    def test_equals_the_stack_router_in_every_layout(self, inputs):
        tree, X = inputs
        layouts = {
            "C": np.ascontiguousarray(X),
            "F": np.asfortranarray(X),
            "strided rows": X[::2],
            "strided F rows": np.asfortranarray(X)[::2],
            "no rows": X[:0],
        }
        for name, rows in layouts.items():
            got, want = tree.apply(rows), reference_apply(tree, rows)
            assert got.dtype == want.dtype == np.int64, name
            assert got.tobytes() == want.tobytes(), name


def _reference_depths(tree):
    """Each node's depth, walked one node at a time in preorder."""
    depths = np.zeros(tree.n_nodes, dtype=np.int64)
    for node in range(tree.n_nodes):
        if tree.feature[node] != -1:
            depths[tree.left[node]] = depths[tree.right[node]] = depths[node] + 1
    return depths


def _assert_routes_as_reference(tree, X):
    for rows in (X, np.asfortranarray(X), X[:0]):
        got, want = tree.apply(rows), reference_apply(tree, rows)
        assert got.dtype == want.dtype == np.int64
        assert got.tobytes() == want.tobytes()
    assert tree._node_depth.tobytes() == _reference_depths(tree).tobytes()
    assert tree.depth == int(_reference_depths(tree).max())


# A depth-5 tree whose top three levels end in leaves at depths 1 and 2 and
# in internal nodes at depth 3.
_DEEP_SPEC = (0, 0.0,
              9.0,
              (1, 0.0,
               8.0,
               (2, 0.0,
                (0, 1.0, (1, 1.0, -2.0, -3.0), -4.0),
                (2, 1.0, -5.0, -6.0))))

class TestBandEdges:
    """Rows crossing the edge of the code-routed top levels, against the stack router."""

    def test_full_depth_three_tree_reaches_all_eight_leaves(self):
        spec = (0, 0.0, *[(1, 0.0, *[(2, 0.0, 1.0, 2.0)] * 2)] * 2)
        tree = _tree_from_spec(spec, 3)
        signs = np.array([[a, b, c] for a in (-1.0, 1.0) for b in (-1.0, 1.0) for c in (-1.0, 1.0)])
        assert tree.depth == 3 and len(tree._routing[0]) == 7
        assert np.unique(tree.apply(signs)).tolist() == tree.leaf_nodes.tolist()
        _assert_routes_as_reference(tree, signs)

    def test_depth_five_tree_with_mixed_band_exits(self):
        tree = _tree_from_spec(_DEEP_SPEC, 3)
        rng = np.random.default_rng(5)
        X = rng.integers(-3, 4, size=(400, 3)).astype(float) / 2.0
        assert tree.depth == 5
        exits = np.unique(tree._routing[1])
        # a leaf at depth 1 and at depth 2, and internal nodes at depth 3
        assert _reference_depths(tree)[exits].tolist() == [1, 2, 3, 3]
        assert (tree.feature[exits] != -1).tolist() == [False, False, True, True]
        assert np.unique(tree.apply(X)).tolist() == tree.leaf_nodes.tolist()
        _assert_routes_as_reference(tree, X)

    def test_depth_zero_tree(self):
        tree = _tree_from_spec(1.5, 2)
        _assert_routes_as_reference(tree, np.array([[0.0, np.nan], [np.inf, -1.0]]))
        assert tree.apply(np.empty((0, 2))).dtype == np.int64

    def test_zero_rows(self):
        for spec in (1.5, (0, 0.0, 1.0, 2.0), _DEEP_SPEC):
            tree = _tree_from_spec(spec, 3)
            got = tree.apply(np.empty((0, 3)))
            assert got.dtype == np.int64 and got.size == 0

    def test_nan_infinities_and_values_on_a_threshold(self):
        tree = _tree_from_spec(_DEEP_SPEC, 3)
        internal = np.flatnonzero(tree.feature != -1)
        values = [np.nan, np.inf, -np.inf, *np.unique(tree.threshold[internal]).tolist()]
        X = np.array([[a, b, c] for a in values for b in values for c in values])
        _assert_routes_as_reference(tree, X)
        # NaN goes right at every node, to the last leaf in preorder; -inf goes left
        rows = np.array([[np.nan] * 3, [-np.inf] * 3])
        assert tree.apply(rows).tolist() == [tree.n_nodes - 1, 1]


@st.composite
def _split_inputs(draw):
    n = draw(st.integers(2, 20))
    d = draw(st.integers(1, 3))
    tied = draw(st.booleans())
    element = st.integers(-3, 3).map(float) if tied else st.floats(-5.0, 5.0)
    X = draw(arrays(np.float64, (n, d), elements=element))
    t = draw(arrays(np.float64, n, elements=st.floats(-10.0, 10.0)))
    return X, t, draw(st.integers(1, 4))


class TestSplitOracleProperty:
    @settings(max_examples=150, deadline=None)
    @given(_split_inputs())
    def test_root_split_matches_brute_force(self, inputs):
        X, t, k = inputs
        tree, _ = fit_tree(X, t, TreeParams(max_depth=1, min_samples_leaf=k))
        oracle = brute_force_root_split(X, t, min_samples_leaf=k)
        if tree.feature[0] == -1:
            # no admissible split, or none that gains beyond noise
            parent = float(((t - t.mean()) ** 2).sum())
            assert oracle is None or oracle[0] >= parent - 1e-9 * max(parent, 1.0)
            return
        assert oracle is not None
        assert np.bincount(tree.apply(X), minlength=3)[1:].min() >= k
        assert achieved_root_sse(tree, X, t) == pytest.approx(oracle[0], rel=1e-9, abs=1e-9)


@st.composite
def _tree_inputs(draw):
    n = draw(st.integers(1, 60))
    d = draw(st.integers(1, 4))
    tied = draw(st.booleans())
    element = st.integers(-3, 3).map(float) if tied else st.floats(-5.0, 5.0)
    X = draw(arrays(np.float64, (n, d), elements=element))
    # small integer targets make exact SSE ties between thresholds
    target = st.integers(-2, 2).map(float) if draw(st.booleans()) else st.floats(-10.0, 10.0)
    t = draw(arrays(np.float64, n, elements=target))
    params = TreeParams(
        max_depth=draw(st.integers(0, 6)),
        min_samples_split=draw(st.integers(2, 6)),
        min_samples_leaf=draw(st.integers(1, 4)),
    )
    return X, t, params


class TestWholeTreeOracleProperty:
    @settings(max_examples=200, deadline=None)
    @given(_tree_inputs())
    def test_node_arrays_equal_the_per_node_argsort_tree(self, inputs):
        X, t, params = inputs
        tree, leaf = fit_tree(X, t, params)
        got = (tree.feature, tree.threshold, tree.left, tree.right, tree.value)
        for a, b in zip(got, reference_fit(X, t, params)):
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()
        # the returned partition is the one routing gives, for C- and F-ordered X
        X_f = np.asfortranarray(X)
        _, leaf_f = fit_tree(X_f, t, params)
        for fitted, rows in ((leaf, np.ascontiguousarray(X)), (leaf_f, X_f)):
            routed = tree.apply(rows)
            assert fitted.dtype == routed.dtype == np.int64
            assert fitted.tobytes() == routed.tobytes()


# Values a two-valued column holds: -0.0 and 0.0 are one value; the adjacent
# doubles' midpoint rounds up to the higher one, so the lower is the threshold.
_LOW = np.nextafter(1.0, 2.0)
_PAIRS = ((0.0, 1.0), (-0.0, 0.0, 1.0), (_LOW, np.nextafter(_LOW, 2.0)), (-2.5, 4.0))


@st.composite
def _two_valued_inputs(draw):
    """Trees on matrices that mix two-valued and many-valued columns.

    A two-valued column may hold its second value in only a row or two, or
    repeat an earlier column, so that it holds one value in some nodes; a
    large `min_samples_leaf` can rule out its only boundary.
    """
    n = draw(st.integers(2, 60))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["pair", "rare", "copy", "ints", "floats"]))
        if kind == "copy" and columns:
            columns.append(columns[draw(st.integers(0, len(columns) - 1))])
        elif kind in ("pair", "rare", "copy"):
            pair = draw(st.sampled_from(_PAIRS))
            cells = draw(arrays(np.float64, n, elements=st.sampled_from(pair[:-1])))
            odd = draw(st.lists(st.integers(0, n - 1), min_size=1,
                                max_size=2 if kind == "rare" else n))
            cells[odd] = pair[-1]
            columns.append(cells)
        else:
            element = st.integers(-3, 3).map(float) if kind == "ints" else st.floats(-5.0, 5.0)
            columns.append(draw(arrays(np.float64, n, elements=element)))
    X = np.column_stack(columns)
    target = st.integers(-2, 2).map(float) if draw(st.booleans()) else st.floats(-10.0, 10.0)
    t = draw(arrays(np.float64, n, elements=target))
    params = TreeParams(
        max_depth=draw(st.integers(1, 6)),
        min_samples_split=draw(st.integers(2, 6)),
        min_samples_leaf=draw(st.integers(1, 8)),
    )
    return X, t, params


def masked_leaf_values(tree, leaf, t, w):
    """tree's node values with each leaf's sum(t) / sum(w) over its rows, found
    by a full-length mask, or 0.0 where sum(w) < 1e-12: the rule `fit_tree`'s
    leaf values must equal bit for bit."""
    values = tree.value.copy()
    for node in tree.leaf_nodes:
        rows = leaf == node
        denom = w[rows].sum()
        values[node] = t[rows].sum() / denom if denom >= 1e-12 else 0.0
    return values


class TestWeightedLeafProperty:
    @settings(max_examples=200, deadline=None)
    @given(_two_valued_inputs(), st.integers(0, 6), st.data())
    def test_leaves_are_masked_weighted_means_on_the_unweighted_splits(self, inputs, depth, data):
        X, t, params = inputs
        params = replace(params, max_depth=depth)
        # zeros, and weights small enough that a leaf's sum falls below the guard
        weight = st.one_of(st.sampled_from([0.0, 1e-14, 4e-13, 1e-12]), st.floats(0.0, 2.0))
        w = data.draw(arrays(np.float64, t.size, elements=weight))
        plain, plain_leaf = fit_tree(X, t, params)
        weighted, leaf = fit_tree(X, t, params, weights=w)
        for name in ("feature", "threshold", "left", "right"):
            assert getattr(weighted, name).tobytes() == getattr(plain, name).tobytes(), name
        assert leaf.tobytes() == plain_leaf.tobytes()
        assert weighted.value.tobytes() == masked_leaf_values(weighted, leaf, t, w).tobytes()
        means = plain.value.copy()
        for node in plain.leaf_nodes:
            means[node] = t[plain_leaf == node].mean()
        assert plain.value.tobytes() == means.tobytes()


class TestTwoValuedOracleProperty:
    @settings(max_examples=200, deadline=None)
    @given(_two_valued_inputs(), st.integers(1, 40))
    def test_node_arrays_and_leaves_equal_the_per_node_argsort_tree(self, inputs, batch_rows):
        X, t, params = inputs
        want = reference_fit(X, t, params)
        routed = reference_apply(RegressionTree(*want, n_features=X.shape[1]), X)
        # the default batch holds every column of these matrices; a small one splits them
        for batch in (tree_module._BATCH_ROWS, batch_rows):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(tree_module, "_BATCH_ROWS", batch)
                tree, leaf = fit_tree(np.asfortranarray(X), t, params)
            got = (tree.feature, tree.threshold, tree.left, tree.right, tree.value)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype
                assert a.tobytes() == b.tobytes()
            assert leaf.dtype == routed.dtype == np.int64
            assert leaf.tobytes() == routed.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(_two_valued_inputs(), st.data())
    def test_low_side_sums_are_each_nodes_prefix_sums(self, inputs, data):
        # The SSE table's bits rest on these: each group's count, sum and sum of
        # squares over a column's low rows equal the `cumsum` a search that sorts
        # the group on its own reads at its boundary.  Only the sign of a zero
        # sum may differ, and the SSE squares it away.
        X, t, _ = inputs
        index = presort(X)
        two = np.flatnonzero(index.two_valued)
        assume(two.size)
        n_groups = data.draw(st.integers(1, 4))
        # label n_groups marks rows of earlier leaves, in no group
        label = data.draw(arrays(np.uint8, t.size, elements=st.integers(0, n_groups)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tree_module, "_BATCH_ROWS", data.draw(st.integers(1, 40)))
            count, total, total_sq = tree_module._two_valued_sums(t, index, two, label, n_groups)
        for slot, f in enumerate(two):
            low = X[index.order[f, 0], f]
            for k in range(n_groups):
                rows = np.flatnonzero(label == k)
                xs = X[rows, f]
                ts = t[rows][np.argsort(xs, kind="stable")]
                b = int((xs == low).sum())
                assert count[slot, k] == b
                if b:
                    assert total[slot, k] == np.cumsum(ts)[b - 1]
                    assert total_sq[slot, k] == np.cumsum(ts * ts)[b - 1]
                else:
                    assert total[slot, k] == total_sq[slot, k] == 0.0


class TestPresort:
    def test_is_the_stable_argsort_of_every_column(self):
        rng = np.random.default_rng(31)
        X = rng.integers(0, 3, size=(50, 4)).astype(float)  # many ties
        order = presort(X).order
        assert order.dtype == np.int32
        assert np.array_equal(order, np.argsort(X, axis=0, kind="stable").T)

    def test_records_exactly_the_two_valued_columns(self):
        rows = np.arange(8)
        lo, hi = _LOW, np.nextafter(_LOW, 2.0)
        X = np.column_stack([
            rows % 2,                                    # 0 and 1
            [-0.0, 0.0, 1.0, -0.0, 1.0, 0.0, 0.0, 1.0],  # -0.0 and 0.0 are one value
            np.where(rows == 6, lo, hi),                 # adjacent doubles
            np.where(rows < 5, 4.0, -2.5),               # the low value in the high rows
            rows % 3,                                    # three values
            np.full(8, 7.0),                             # one value
            rows * 0.5,                                  # eight values
        ]).astype(float)
        index = presort(X)
        assert index.two_valued.tolist() == [True, True, True, True, False, False, False]
        assert index.low_count.tolist() == [4, 5, 1, 3, 0, 0, 0]
        assert index.threshold.tobytes() == np.array(
            [0.5, 0.5, lo, 0.75, np.nan, np.nan, np.nan]).tobytes()
        for f in np.flatnonzero(index.two_valued):
            low = index.order[f, : index.low_count[f]]
            assert low.tolist() == np.flatnonzero(X[:, f] == X[:, f].min()).tolist()

    def test_given_index_gives_the_same_tree(self):
        rng = np.random.default_rng(37)
        X = np.column_stack([rng.normal(size=80), rng.integers(0, 4, size=80),
                             rng.integers(0, 2, size=80)]).astype(float)
        t = rng.normal(size=80) + 2.0 * X[:, 2]
        params = TreeParams(max_depth=4)
        given, _ = fit_tree(X, t, params, index=presort(X))
        computed, _ = fit_tree(X, t, params)
        assert given.to_doc() == computed.to_doc()
        assert 2 in given.feature  # the two-valued column is split on

    @pytest.mark.parametrize("shape", [(3, 2), (4, 3), (2,), (1, 3, 2)])
    def test_misshapen_order_rejected(self, shape):
        X = np.arange(6.0).reshape(3, 2)  # presort(X).order has shape (2, 3)
        index = replace(presort(X), order=np.zeros(shape, dtype=np.int32))
        with pytest.raises(DimensionMismatchError):
            fit_tree(X, [0.0, 1.0, 1.0], TreeParams(), index=index)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        X = [[1.0], [2.0], [bad], [4.0]]
        with pytest.raises(NonFiniteFeatureError):
            presort(X)
        with pytest.raises(NonFiniteFeatureError):
            fit_tree(X, [0.0, 0.0, 1.0, 1.0], TreeParams(max_depth=1))

    @pytest.mark.parametrize("depth", [0, 3])
    def test_no_feature_columns_rejected(self, depth):
        X = np.empty((4, 0))
        with pytest.raises(NoFeatureColumnsError, match="no feature columns"):
            presort(X)
        with pytest.raises(NoFeatureColumnsError):
            fit_tree(X, [0.0, 0.0, 1.0, 1.0], TreeParams(max_depth=depth))


class TestSerialization:
    def test_doc_round_trip_predictions(self):
        rng = np.random.default_rng(29)
        X = rng.normal(size=(40, 2))
        t = rng.normal(size=40)
        tree, _ = fit_tree(X, t, TreeParams(max_depth=3))
        again = RegressionTree.from_doc(tree.to_doc())
        assert np.array_equal(tree.predict(X), again.predict(X))

    def test_rejects_malformed(self):
        tree, _ = fit_tree([[1.0], [2.0]], [0.0, 1.0], TreeParams(max_depth=1))
        doc = tree.to_doc()
        bad = dict(doc, left=[5] + doc["left"][1:])
        with pytest.raises(ValueError):
            RegressionTree.from_doc(bad)
        bad = dict(doc, value=doc["value"][:-1])
        with pytest.raises(ValueError):
            RegressionTree.from_doc(bad)
        bad = dict(doc, **dict.fromkeys(("feature", "threshold", "left", "right", "value"), []))
        with pytest.raises(ValueError, match="^tree has no nodes$"):
            RegressionTree.from_doc(bad)

    @pytest.mark.parametrize(
        "key, node, value, problem",
        [
            ("value", 1, None, "malformed leaf node 1"),
            ("right", 2, 1, "malformed leaf node 2"),
            ("feature", 0, 1, "node 0 splits on unknown feature"),
            ("left", 0, 0, "node 0 has invalid child 0"),
            ("right", 0, 3, "node 0 has invalid child 3"),
            ("threshold", 0, None, "node 0 threshold is missing or not finite"),
        ],
    )
    def test_names_the_faulty_node(self, key, node, value, problem):
        tree, _ = fit_tree([[1.0], [2.0]], [0.0, 1.0], TreeParams(max_depth=1))
        doc = tree.to_doc()
        doc[key][node] = value
        with pytest.raises(ValueError, match=f"^{problem}$"):
            RegressionTree.from_doc(doc)

    @pytest.mark.parametrize(
        "left, right, problem",
        [
            # node 3 is a child of both 1 and 2, node 5 of both 2 and 4
            ([1, 2, 5, -1, 5, 7, -1, -1, -1], [4, 3, 3, -1, 6, 8, -1, -1, -1], "node 3 has two parents"),
            # node 2 is both children of node 1
            ([1, 2, -1, -1, -1], [4, 2, -1, -1, -1], "node 2 has two parents"),
            # no node points at leaf 3
            ([1, -1, -1, -1], [2, -1, -1, -1], "node 3 is unreachable"),
        ],
    )
    def test_rejects_nodes_that_are_not_one_tree(self, left, right, problem):
        # fit_tree never writes these; routing would need more passes than
        # `depth` counts, or would skip nodes
        split = [child != -1 for child in left]
        doc = {
            "feature": [0 if s else -1 for s in split],
            "threshold": [float(node) if s else None for node, s in enumerate(split)],
            "left": left,
            "right": right,
            "value": [None if s else float(node) for node, s in enumerate(split)],
            "n_features": 1,
        }
        with pytest.raises(ValueError, match=problem):
            RegressionTree.from_doc(doc)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            TreeParams(max_depth=-1)
        with pytest.raises(ValueError):
            TreeParams(min_samples_split=1)
        with pytest.raises(ValueError):
            TreeParams(min_samples_leaf=0)


class TestWorkers:
    def test_threads_are_capped_at_the_cpus_this_process_may_run_on(self):
        before = threading.active_count()
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert worker_count(10**6) == worker_count(None) == cpus
        assert worker_count(1) == 1
        assert threading.active_count() == before

    def test_cpu_count_where_affinity_is_missing(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert (worker_count(None), worker_count(10**6), worker_count(2)) == (3, 3, 2)
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
        assert worker_count(None) == 1

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_rejected(self, threads):
        with pytest.raises(ValueError, match="^threads must be >= 1$"):
            worker_count(threads)
        with pytest.raises(ValueError, match="^threads must be >= 1$"):
            Workers(threads, 3)
        fm = make_matrix(np.arange(4.0).reshape(4, 1), [0, 1, 0, 1])
        with pytest.raises(ValueError, match="^threads must be >= 1$"):
            fit_gbc(fm, BoostParams(estimators=1), threads=threads)

    def test_a_standalone_fit_starts_no_thread(self, monkeypatch):
        """Without a fit's `Workers`, `fit_tree` runs on the caller's thread, however large."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        n = tree_module._THREAD_ROWS
        X = np.column_stack([np.arange(n, dtype=float) % 7, np.arange(n) % 2])
        start, started = threading.Thread.start, []
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread) or start(thread))
        tree, leaf = fit_tree(X, X[:, 0] + X[:, 1], TreeParams(max_depth=2))
        assert started == []
        assert np.array_equal(leaf, tree.apply(X))

    def test_a_fit_below_the_row_threshold_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        before = threading.active_count()
        with Workers(4, tree_module._THREAD_ROWS - 1) as small:
            assert small.count == 1
            assert threading.active_count() == before
        with Workers(4, tree_module._THREAD_ROWS) as large:
            assert large.count == 4
            assert threading.active_count() == before + 3
        assert threading.active_count() == before

    def test_an_error_is_raised_once_every_worker_has_stopped(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        before = threading.active_count()
        done = []

        def work(item):
            if item == 5:
                raise KeyError(item)
            done.append(item)

        with Workers(4, tree_module._THREAD_ROWS) as workers:
            with pytest.raises(KeyError):
                workers.each(work, range(40))
            assert sorted(done) == [i for i in range(40) if i != 5]
            workers.each(done.append, range(40, 50))  # the helpers still serve
        assert sorted(done)[-10:] == list(range(40, 50))
        assert threading.active_count() == before

    def test_a_helper_that_fails_to_start_stops_the_started_ones(self):
        """The second helper's start raises: the first is joined and the error raised.

        Run in a child process, so that a helper left waiting for work fails
        the test by the timeout rather than keeping the interpreter alive.
        """
        script = textwrap.dedent("""
            import os, threading
            from delayboost import tree
            os.sched_getaffinity = lambda pid: set(range(4))
            start, calls = threading.Thread.start, []
            def failing_start(thread):
                calls.append(thread)
                if len(calls) == 2:
                    raise RuntimeError("can't start new thread")
                start(thread)
            threading.Thread.start = failing_start
            before = threading.active_count()
            try:
                tree.Workers(4, tree._THREAD_ROWS)
            except RuntimeError as exc:
                assert str(exc) == "can't start new thread", exc
            else:
                raise AssertionError("no error")
            assert len(calls) == 2, calls
            assert threading.active_count() == before, threading.active_count()
        """)
        src = os.path.dirname(os.path.dirname(tree_module.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", script], env=env, timeout=30,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
