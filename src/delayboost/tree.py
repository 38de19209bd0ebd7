"""Least-squares regression tree with axis-aligned splits.

Grown greedily: at each node the (feature, threshold) pair minimizing the
summed squared error of the two children's mean predictions is chosen over
all features and all midpoints between consecutive distinct sorted values.
Ties break to the lowest feature index, then the lowest threshold, so a fit
is deterministic no matter how the search is scheduled.  Rows route left when
x[feature] <= threshold.

Nodes live in flat parallel arrays (feature, threshold, left, right, value);
leaves have feature -1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, EmptyInputError, NonFiniteTargetError

_LEAF = -1


def _check_matrix(X, n_features: int) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != n_features:
        raise DimensionMismatchError(
            f"expected {n_features} features, got shape {X.shape}"
        )
    return X


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

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf node id for every row of X."""
        X = _check_matrix(X, self.n_features)
        out = np.zeros(X.shape[0], dtype=np.int64)
        stack = [(0, np.arange(X.shape[0]))]
        while stack:
            node, idx = stack.pop()
            if self.feature[node] == _LEAF:
                out[idx] = node
                continue
            goes_left = X[idx, self.feature[node]] <= self.threshold[node]
            stack.append((int(self.left[node]), idx[goes_left]))
            stack.append((int(self.right[node]), idx[~goes_left]))
        return out

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
        feature = np.asarray(doc["feature"], dtype=np.int64)
        n = feature.size
        if n == 0:
            raise ValueError("tree has no nodes")
        threshold = np.array(
            [np.nan if t is None else float(t) for t in doc["threshold"]]
        )
        left = np.asarray(doc["left"], dtype=np.int64)
        right = np.asarray(doc["right"], dtype=np.int64)
        value = np.array([np.nan if v is None else float(v) for v in doc["value"]])
        if not (threshold.size == left.size == right.size == value.size == n):
            raise ValueError("node arrays have inconsistent lengths")
        for node in range(n):
            if feature[node] == _LEAF:
                if left[node] != _LEAF or right[node] != _LEAF or np.isnan(value[node]):
                    raise ValueError(f"malformed leaf node {node}")
            else:
                if not (0 <= feature[node] < doc["n_features"]):
                    raise ValueError(f"node {node} splits on unknown feature")
                for child in (left[node], right[node]):
                    if not node < child < n:
                        raise ValueError(f"node {node} has invalid child {child}")
                if np.isnan(threshold[node]):
                    raise ValueError(f"node {node} missing threshold")
        return cls(feature, threshold, left, right, value, int(doc["n_features"]))


def fit_tree(X: np.ndarray, targets: np.ndarray, params: TreeParams) -> RegressionTree:
    """Fit a least-squares regression tree; leaf value = mean of its targets.

    Nodes are numbered in preorder: a node, its left subtree, its right subtree.

    Raises:
        EmptyInputError: no rows.
        DimensionMismatchError: X is not a 2-D matrix, or its row count differs
            from the target length.
        NonFiniteTargetError: NaN or infinite targets.
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

    nodes = []  # [feature, threshold, left, right, value] per node
    _grow(nodes, X, t, params, np.arange(X.shape[0]), depth=0)
    feature, threshold, left, right, value = zip(*nodes)
    return RegressionTree(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        value=np.array(value, dtype=np.float64),
        n_features=X.shape[1],
    )


def _grow(nodes: list, X, t, params: TreeParams, idx: np.ndarray, depth: int) -> int:
    """Append the subtree over rows `idx` to `nodes` in preorder; return its root id.

    A module-level function rather than a closure in fit_tree: a recursive
    closure refers to itself, so each fit's X and targets would wait for the
    cyclic garbage collector instead of being freed on return.
    """
    node = len(nodes)
    nodes.append([_LEAF, np.nan, _LEAF, _LEAF, np.nan])
    split = None
    if depth < params.max_depth and idx.size >= params.min_samples_split:
        split = _best_split(X, t, idx, params.min_samples_leaf)
    if split is None:
        nodes[node][4] = float(t[idx].mean())
        return node
    feature, threshold = split
    goes_left = X[idx, feature] <= threshold
    nodes[node][:2] = feature, threshold
    nodes[node][2] = _grow(nodes, X, t, params, idx[goes_left], depth + 1)
    nodes[node][3] = _grow(nodes, X, t, params, idx[~goes_left], depth + 1)
    return node


def _best_split(X, t, idx, min_samples_leaf):
    """Exact search over every feature and every midpoint between distinct values.

    Returns (feature, threshold) or None when no split improves on the parent
    SSE beyond numeric noise.
    """
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
        j = int(np.argmin(sse))  # first minimum = lowest threshold
        if sse[j] < best_sse:
            best_sse = sse[j]
            lo, hi = xs_sorted[boundaries[j] - 1], xs_sorted[boundaries[j]]
            mid = (lo + hi) / 2.0
            # Between adjacent doubles the midpoint can round up to hi (or
            # overflow), which would send hi left; lo splits the same rows.
            best = (f, mid if mid < hi else lo)
    if best is None or best_sse >= parent_sse - tolerance:
        return None
    return best
