import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from delayboost.errors import (
    DimensionMismatchError,
    EmptyInputError,
    NonFiniteFeatureError,
    NonFiniteTargetError,
)
from delayboost.tree import RegressionTree, TreeParams, fit_tree, presort


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

    @pytest.mark.parametrize("shape", [(4,), (4, 1, 1)])
    def test_non_matrix_input_rejected(self, shape):
        # scoring rejects these shapes, so fitting must too
        X = np.arange(4.0).reshape(shape)
        with pytest.raises(DimensionMismatchError):
            fit_tree(X, [0.0, 0.0, 1.0, 1.0], TreeParams())


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


@st.composite
def _hand_built_tree(draw):
    """A random, often unbalanced, tree of depth <= 7 loaded through `from_doc`."""
    d = draw(st.integers(1, 4))
    nodes = []

    def grow(depth):
        node = len(nodes)
        nodes.append(None)
        if depth < 7 and draw(st.booleans()):
            feature, threshold = draw(st.integers(0, d - 1)), draw(_VALUES)
            nodes[node] = [feature, threshold, grow(depth + 1), grow(depth + 1), None]
        else:
            nodes[node] = [-1, None, -1, -1, draw(st.floats(-5.0, 5.0))]
        return node

    grow(0)
    keys = ("feature", "threshold", "left", "right", "value")
    doc = dict(zip(keys, map(list, zip(*nodes))), n_features=d)
    return RegressionTree.from_doc(doc)


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


class TestPresort:
    def test_is_the_stable_argsort_of_every_column(self):
        rng = np.random.default_rng(31)
        X = rng.integers(0, 3, size=(50, 4)).astype(float)  # many ties
        order = presort(X)
        assert order.dtype == np.int32
        assert np.array_equal(order, np.argsort(X, axis=0, kind="stable").T)

    def test_given_order_gives_the_same_tree(self):
        rng = np.random.default_rng(37)
        X = np.column_stack([rng.normal(size=80), rng.integers(0, 4, size=80)])
        t = rng.normal(size=80)
        params = TreeParams(max_depth=4)
        given, _ = fit_tree(X, t, params, order=presort(X))
        computed, _ = fit_tree(X, t, params)
        assert given.to_doc() == computed.to_doc()

    @pytest.mark.parametrize("shape", [(3, 2), (4, 3), (2,), (1, 3, 2)])
    def test_misshapen_order_rejected(self, shape):
        X = np.arange(6.0).reshape(3, 2)  # presort(X) has shape (2, 3)
        with pytest.raises(DimensionMismatchError):
            fit_tree(X, [0.0, 1.0, 1.0], TreeParams(), order=np.zeros(shape, dtype=np.int32))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        X = [[1.0], [2.0], [bad], [4.0]]
        with pytest.raises(NonFiniteFeatureError):
            presort(X)
        with pytest.raises(NonFiniteFeatureError):
            fit_tree(X, [0.0, 0.0, 1.0, 1.0], TreeParams(max_depth=1))


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
