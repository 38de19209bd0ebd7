"""Least-squares regression tree with axis-aligned splits.

Grown greedily: at each node the (feature, threshold) pair minimizing the
summed squared error of the two children's mean predictions is chosen over
all features and all midpoints between consecutive distinct sorted values.
Ties break to the lowest feature index, then the lowest threshold, so a fit
is deterministic no matter how the search is scheduled.  Rows route left when
x[feature] <= threshold.

The search is exact and presorted, after the column blocks of XGBoost (Chen &
Guestrin 2016, section 4.1).  `presort` argsorts each column once, and a tree
grows one level at a time: for each feature, one stable sort of the rows'
node labels along the presorted column lays out every node of the level
contiguously, each in its own sorted order, and one pass scans them all.
`fit_gbc` presorts once per fit and hands the same order to every round.

Nodes live in flat parallel arrays (feature, threshold, left, right, value),
numbered in preorder; leaves have feature -1.

`fit_tree` also returns the partition it grew: each training row's leaf id,
so `fit_gbc` takes its Newton steps over the rows the fit already placed.

`fit_tree` reads X one column at a time (`presort`, and each feature's
gather in `_best_splits`), so a column-major X, as every `FeatureMatrix`
holds, gives those reads contiguous memory.

`apply` routes rows one level at a time over a column-major matrix, with
tables each tree builds on first use.  A `FeatureMatrix`'s values are
column-major already, so its rows are routed in place; any other layout is
copied once per call.  In the tables, leaves loop to themselves (feature
0, threshold +inf, both children the leaf), and `kids[2 * node + goes_left]`
is the next node.  A pass gathers every row's value at its node's feature,
compares it with the node's threshold and gathers the child.  The tables
are never serialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyInputError,
    NonFiniteFeatureError,
    NonFiniteTargetError,
)

_LEAF = -1


def _check_matrix(X, n_features: int) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != n_features:
        raise DimensionMismatchError(f"expected {n_features} features, got shape {X.shape}")
    return X


def _json_int(value) -> int:
    """An integer field of a model file; ValueError unless it is a JSON integer."""
    if type(value) is not int:  # a float would truncate, and a bool is an int subclass
        raise ValueError(f"expected an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class TreeParams:
    max_depth: int = 3
    min_samples_split: int = 2
    min_samples_leaf: int = 1

    def __post_init__(self):
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")


@dataclass(frozen=True)
class RegressionTree:
    feature: np.ndarray   # per node; -1 marks a leaf
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray     # leaf prediction; NaN on internal nodes
    n_features: int

    @property
    def n_nodes(self) -> int:
        return self.feature.size

    @property
    def leaf_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.feature == _LEAF)

    @property
    def n_leaves(self) -> int:
        return self.leaf_nodes.size

    @property
    def depth(self) -> int:
        depths = np.zeros(self.n_nodes, dtype=np.int64)
        for node in range(self.n_nodes):
            if self.feature[node] != _LEAF:
                depths[self.left[node]] = depths[node] + 1
                depths[self.right[node]] = depths[node] + 1
        return int(depths.max())

    @cached_property
    def _routing(self):
        """(feature, threshold, kids, depth): `apply`'s tables, built once per tree."""
        leaf = self.feature == _LEAF
        nodes = np.arange(self.n_nodes)
        kids = np.empty(2 * self.n_nodes, dtype=np.intp)
        kids[0::2] = np.where(leaf, nodes, self.right)
        kids[1::2] = np.where(leaf, nodes, self.left)
        feature = np.where(leaf, 0, self.feature).astype(np.intp)
        return feature, np.where(leaf, np.inf, self.threshold), kids, self.depth

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf node id (int64) for every row of X; x <= threshold goes left, NaN right.

        One pass per level, each gathering every row's value at its node's
        feature from X's column-major buffer, so the gathers read contiguous
        columns.  An X in any other layout is copied column-major once; the
        values of a `FeatureMatrix` are never copied.
        """
        X = np.asfortranarray(_check_matrix(X, self.n_features))
        feature, threshold, kids, depth = self._routing
        n = X.shape[0]
        if depth == 0:
            return np.zeros(n, dtype=np.int64)
        node = kids.take(X[:, feature[0]] <= threshold[0])
        flat, rows, offset = X.ravel(order="F"), np.arange(n), feature * n
        for _ in range(depth - 1):
            goes_left = flat.take(offset.take(node) + rows) <= threshold.take(node)
            node = kids.take(2 * node + goes_left)
        return node.astype(np.int64, copy=False)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.value[self.apply(X)]

    def to_doc(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": [None if np.isnan(t) else t for t in self.threshold],
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": [None if np.isnan(v) else v for v in self.value],
            "n_features": self.n_features,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "RegressionTree":
        feature, left, right = (
            np.array([_json_int(v) for v in doc[key]], dtype=np.int64)
            for key in ("feature", "left", "right")
        )
        n, n_features = feature.size, _json_int(doc["n_features"])
        if n == 0:
            raise ValueError("tree has no nodes")
        threshold = np.array([np.nan if t is None else float(t) for t in doc["threshold"]])
        value = np.array([np.nan if v is None else float(v) for v in doc["value"]])
        if not (threshold.size == left.size == right.size == value.size == n):
            raise ValueError("node arrays have inconsistent lengths")
        # every node but the root has exactly one parent, so the nodes form one tree
        has_parent = np.zeros(n, dtype=bool)
        for node in range(n):
            if feature[node] == _LEAF:
                if left[node] != _LEAF or right[node] != _LEAF or not np.isfinite(value[node]):
                    raise ValueError(f"malformed leaf node {node}")
            else:
                if not (0 <= feature[node] < n_features):
                    raise ValueError(f"node {node} splits on unknown feature")
                for child in (left[node], right[node]):
                    if not node < child < n:
                        raise ValueError(f"node {node} has invalid child {child}")
                    if has_parent[child]:
                        raise ValueError(f"node {child} has two parents")
                    has_parent[child] = True
                if not np.isfinite(threshold[node]):
                    raise ValueError(f"node {node} threshold is missing or not finite")
        if not has_parent[1:].all():
            raise ValueError(f"node {1 + np.argmin(has_parent[1:])} is unreachable from the root")
        return cls(feature, threshold, left, right, value, n_features)


def presort(X: np.ndarray) -> np.ndarray:
    """Row ids of each column of X in stable ascending order, as a (d, n) int32 array.

    Sorted one column at a time, so no (n, d) int64 temporary is held; the
    columns of a column-major X are contiguous.

    Raises:
        DimensionMismatchError: X is not a 2-D matrix.
        NonFiniteFeatureError: NaN or infinity in X.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D feature matrix, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise NonFiniteFeatureError("features contain NaN or infinity")
    order = np.empty((X.shape[1], X.shape[0]), dtype=np.int32)
    for f in range(X.shape[1]):
        order[f] = np.argsort(X[:, f], kind="stable")
    return order


def fit_tree(
    X: np.ndarray, targets: np.ndarray, params: TreeParams, *, order: np.ndarray | None = None
) -> RegressionTree:
    """Fit a least-squares regression tree; leaf value = mean of its targets.

    `order` is `presort(X)`, computed here when not given.  The tree grows one
    level at a time, each level's split search taking one pass per presorted
    column, yet the result equals a recursive search that argsorts every
    column at every node, bit for bit.  Every node shallower than `max_depth`
    is searched, and `_scan` alone applies the other split rules.  Nodes are
    numbered in preorder: a node, its left subtree, its right subtree.

    Raises:
        EmptyInputError: no rows.
        DimensionMismatchError: X is not a 2-D matrix, its row count differs
            from the target length, or `order` is not shaped (d, n).
        NonFiniteTargetError: NaN or infinite targets.
        NonFiniteFeatureError: NaN or infinity in X (checked only when
            `order` is None).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D feature matrix, got shape {X.shape}")
    t = np.asarray(targets, dtype=np.float64).ravel()
    if X.shape[0] == 0:
        raise EmptyInputError("cannot fit a tree on zero rows")
    if X.shape[0] != t.size:
        raise DimensionMismatchError(f"{X.shape[0]} rows but {t.size} targets")
    if not np.all(np.isfinite(t)):
        raise NonFiniteTargetError("targets contain NaN or infinity")
    order = presort(X) if order is None else np.asarray(order)
    if order.shape != (X.shape[1], X.shape[0]):
        raise DimensionMismatchError(
            f"presort has shape {order.shape}, expected {(X.shape[1], X.shape[0])}"
        )

    # Nodes in creation order, [feature, threshold, left, right, value] each;
    # `level` maps each node of one depth to its ascending row ids, and `leaf`
    # holds creation-order node ids until `_preorder` renumbers them.
    blank = [_LEAF, np.nan, _LEAF, _LEAF, np.nan]
    nodes = [blank.copy()]
    leaf = np.empty(X.shape[0], dtype=np.int64)
    level = {0: np.arange(X.shape[0])}
    for depth in range(params.max_depth + 1):
        found = (_best_splits(X, t, order, list(level.values()), params)
                 if depth < params.max_depth else [None] * len(level))
        children = {}
        for (node, rows), split in zip(level.items(), found):
            if split is None:
                nodes[node][4] = float(t[rows].mean())
                leaf[rows] = node
                continue
            feature, threshold = split
            goes_left = X[rows, feature] <= threshold
            left, right = len(nodes), len(nodes) + 1
            nodes[node][:4] = feature, threshold, left, right
            nodes += [blank.copy(), blank.copy()]
            children[left], children[right] = rows[goes_left], rows[~goes_left]
        level = children
    tree, rank = _preorder(nodes, X.shape[1])
    return tree, rank[leaf]


def _preorder(nodes: list, n_features: int):
    """(tree, rank): the tree of `nodes`, given in creation order, with preorder
    node ids, and the preorder id of every creation-order node."""
    feature, threshold, left, right, value = (np.array(c) for c in zip(*nodes))
    ids, stack = [], [0]
    while stack:
        node = stack.pop()
        ids.append(node)
        if feature[node] != _LEAF:
            stack += [right[node], left[node]]
    rank = np.empty(len(ids), dtype=np.int64)
    rank[ids] = np.arange(len(ids))
    internal = feature[ids] != _LEAF
    return RegressionTree(
        feature=feature[ids].astype(np.int64),
        threshold=threshold[ids],
        left=np.where(internal, rank[left[ids]], _LEAF),
        right=np.where(internal, rank[right[ids]], _LEAF),
        value=value[ids],
        n_features=n_features,
    ), rank


def _best_splits(X, t, order, groups, params):
    """Best (feature, threshold), or None, for each group of ascending row ids.

    For each feature, one stable sort of the node labels along the presorted
    column lays every group's rows out contiguously, each group sorted by
    value and then by row id: exactly its own stable argsort.  So every sum
    and every tie matches a search that sorts each node on its own.  Features
    are scanned in index order and a later one must be strictly better, so
    ties break to the lowest feature, then the lowest threshold.  A group gets
    None when `_scan` rejects every feature; its no-gain rule is the same for
    all of them, so it rejects either the overall best split or none of them.
    """
    if not groups:
        return []
    n_groups = len(groups)
    # Rows of earlier levels' leaves keep label n_groups: they sort last and are cut off.
    label = np.full(t.size, n_groups, dtype=np.min_scalar_type(n_groups))
    for k, rows in enumerate(groups):
        label[rows] = k
    bounds = np.cumsum([0] + [rows.size for rows in groups])
    sums = [(ti.sum(), (ti * ti).sum()) for ti in (t[rows] for rows in groups)]

    best_sse, best = [np.inf] * n_groups, [None] * n_groups
    for f in range(X.shape[1]):
        column = order[f].astype(np.intp)  # an int32 index is cast at every take
        grouped = column.take(np.argsort(label.take(column), kind="stable")[: bounds[-1]])
        xs = X[:, f][grouped]
        ts = t.take(grouped)
        for k, (total, total_sq) in enumerate(sums):
            lo, hi = bounds[k], bounds[k + 1]
            found = _scan(xs[lo:hi], ts[lo:hi], total, total_sq, params)
            if found is not None and found[0] < best_sse[k]:
                best_sse[k] = found[0]
                best[k] = (f, found[1])
    return best


def _scan(xs_sorted, ts_sorted, total, total_sq, params):
    """(sse, threshold) of the best midpoint of one node's sorted column, or None.

    The one place a split is accepted: None when the node has fewer than
    `min_samples_split` rows, when no boundary leaves `min_samples_leaf` rows
    on each side, or when no SSE is below the node's own beyond numeric noise.
    """
    n = xs_sorted.size
    if n < params.min_samples_split:
        return None
    boundaries = np.flatnonzero(xs_sorted[1:] != xs_sorted[:-1]) + 1
    leaf = params.min_samples_leaf
    boundaries = boundaries[(boundaries >= leaf) & (n - boundaries >= leaf)]
    if boundaries.size == 0:
        return None
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
    j = int(np.argmin(sse))  # first minimum = lowest threshold
    parent = total_sq - total * total / n
    if sse[j] >= parent - 1e-12 * max(parent, 1.0):
        return None
    lo, hi = xs_sorted[boundaries[j] - 1], xs_sorted[boundaries[j]]
    mid = (lo + hi) / 2.0
    # Between adjacent doubles the midpoint can round up to hi (or overflow),
    # which would send hi left; lo splits the same rows.
    return sse[j], (mid if mid < hi else lo)
