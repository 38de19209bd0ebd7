"""Least-squares regression tree with axis-aligned splits.

Grown greedily: at each node the (feature, threshold) pair minimizing the
summed squared error of the two children's mean predictions is chosen over
all features and all midpoints between consecutive distinct sorted values.
Ties break to the lowest feature index, then the lowest threshold, so a fit
is deterministic no matter how the search is scheduled.  Rows route left when
x[feature] <= threshold.

The search is exact and presorted, after the column blocks of XGBoost (Chen &
Guestrin 2016, section 4.1).  `presort` builds a fit's `ColumnIndex` once:
each column's stable argsort, and which columns hold exactly two distinct
values.  A tree grows one level at a time.  For a column with three or more
values, one stable sort of the rows' node labels along the presorted column
lays out every node of the level contiguously, each in its own sorted order,
and one pass scans them all.  A two-valued column has one boundary, at the
same value in every node, so it needs no sort and no scan: its low-value
rows are a prefix of its presorted order, and three `np.bincount` calls per
level give every (column, node) pair its low side's count, sum and sum of
squares.  This skips the work a column's structure makes redundant, as the
sparsity-aware search of XGBoost (section 3.4) does.  `fit_gbc` builds the
index once per fit and hands it to every round.

Columns are independent in both steps, so a fit's threads share them out:
each column's argsort in `presort`, and each many-valued column's sort,
gathers and scans at every level.  Each column writes only its own entries
of the index and its own row of the level's SSE and threshold tables, and
every node's split is picked once all rows are filled, so the tree has the
same bits on any schedule.  `presort` and `fit_tree` take the running
`Workers` of a fit, which `fit_gbc` opens from a thread count; without them,
or in a fit of fewer than `_THREAD_ROWS` rows, they run on the caller's
thread alone.

Nodes live in flat parallel arrays (feature, threshold, left, right, value),
numbered in preorder; leaves have feature -1.

`fit_tree` values each leaf as it forms, from the row ids the level holds,
and returns the partition it grew: each training row's leaf id.

`fit_tree` reads X one column at a time (`presort`, and each many-valued
feature's gather in `_best_splits`), so a column-major X, as every
`FeatureMatrix` holds, gives those reads contiguous memory.

`apply` routes rows over a column-major matrix, with tables each tree
builds on first use.  A `FeatureMatrix`'s values are column-major already, so
its rows are routed in place; any other layout is copied once per call.  The
tree's band, its at most 7 internal nodes shallower than depth 3, routes
without gathers: each band node compares one whole column with its
threshold, setting one bit of every row's uint8 code, and one lookup in a
table of 2**k entries maps the code to the node the row reaches after three
levels.  Deeper levels take one pass each.  In the tables, leaves loop to
themselves (feature 0, threshold +inf, both children the leaf), and
`kids[2 * node + goes_left]` is the next node.  A pass gathers every row's
value at its node's feature, compares it with the node's threshold and
gathers the child, so a tree of depth 3 or less needs no pass.  The tables
are never serialized.
"""

from __future__ import annotations

import os
import queue
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyInputError,
    NoFeatureColumnsError,
    NonFiniteFeatureError,
    NonFiniteTargetError,
)

_LEAF = -1
# Levels `apply` routes by a code of one bit per node: their at most 7
# internal nodes fill a uint8.
_BAND_LEVELS = 3
# Low rows per batch of `_two_valued_sums`: its key and weight buffers stay
# near 1 MiB, and in cache for its three passes, however large the fit.
_BATCH_ROWS = 1 << 16
# Fits of fewer rows run on the caller's thread alone.  In a smaller fit
# the per-feature calls are short, so threads mostly wait on each other for
# the interpreter lock.  On 2 CPUs a second thread slowed 100 depth-3 trees
# on 2,800 rows from 1.01 to 1.66 s and 10 depth-5 trees on 8,000 rows from
# 0.40 to 0.49 s; it broke even near 32k rows and won from 40k (the table
# is in CHANGES.md).
_THREAD_ROWS = 32_768
_WEIGHT_GUARD = 1e-12  # a leaf whose weights sum below this is valued 0.0


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


def _json_number(value) -> float:
    """A number field of a model file, with null read as NaN; ValueError unless a JSON number."""
    if value is None:
        return np.nan
    if isinstance(value, bool) or not isinstance(value, (int, float)):  # float() reads text
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


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

    @cached_property
    def _node_depth(self) -> np.ndarray:
        """Each node's depth (int64), the root's 0; walked once per tree, a level per step."""
        depth = np.zeros(self.n_nodes, dtype=np.int64)
        level, d = np.zeros(1, dtype=np.int64), 0
        while level.size:
            depth[level] = d
            inner = level[self.feature.take(level) != _LEAF]
            level, d = np.concatenate([self.left.take(inner), self.right.take(inner)]), d + 1
        return depth

    @property
    def depth(self) -> int:
        return int(self._node_depth.max())

    @cached_property
    def _routing(self):
        """`apply`'s tables, built once per tree.

        Returns (band, table, feature, threshold, kids, depth).  `band` lists
        (feature, threshold) of the internal nodes shallower than
        `_BAND_LEVELS`, at most 7, in preorder; a row's code has bit i set
        when it goes left at band node i, and `table[code]` is the node the
        row reaches after `_BAND_LEVELS` levels: a leaf, or a node at that
        depth.  The table is filled by walking every code through `kids`.
        """
        leaf = self.feature == _LEAF
        nodes = np.arange(self.n_nodes)
        kids = np.empty(2 * self.n_nodes, dtype=np.intp)
        kids[0::2] = np.where(leaf, nodes, self.right)
        kids[1::2] = np.where(leaf, nodes, self.left)
        band = np.flatnonzero(~leaf & (self._node_depth < _BAND_LEVELS))
        position = np.zeros(self.n_nodes, dtype=np.intp)  # a band node's bit in the code
        position[band] = np.arange(band.size)
        codes = np.arange(1 << band.size)
        table = np.zeros_like(codes)
        for _ in range(_BAND_LEVELS):
            table = kids.take(2 * table + ((codes >> position.take(table)) & 1))
        feature = np.where(leaf, 0, self.feature).astype(np.intp)
        return (list(zip(self.feature[band].tolist(), self.threshold[band].tolist())), table,
                feature, np.where(leaf, np.inf, self.threshold), kids, self.depth)

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf node id (int64) for every row of X; x <= threshold goes left, NaN right.

        The first `_BAND_LEVELS` levels take one compare of a whole column per
        band node (see `_routing`), each setting one bit of every row's uint8
        code, and one lookup of the codes in the tree's table.  Each deeper
        level is one pass gathering every row's value at its node's feature
        from X's column-major buffer.  Both read contiguous columns.  An X in
        any other layout is copied column-major once; the values of a
        `FeatureMatrix` are never copied.
        """
        X = np.asfortranarray(_check_matrix(X, self.n_features))
        band, table, feature, threshold, kids, depth = self._routing
        n = X.shape[0]
        code, bit = np.zeros(n, dtype=np.uint8), np.empty(n, dtype=np.uint8)
        for f, t in reversed(band):  # band node i's bit is then doubled i times
            np.add(code, code, out=code)
            np.less_equal(X[:, f], t, out=bit.view(np.bool_))
            np.bitwise_or(code, bit, out=code)
        node = table.take(code)
        if depth > _BAND_LEVELS:  # a pass per level below the band, after its set-up
            flat, rows, offset = X.ravel(order="F"), np.arange(n), feature * n
            for _ in range(depth - _BAND_LEVELS):
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
        threshold, value = (
            np.array([_json_number(v) for v in doc[key]]) for key in ("threshold", "value")
        )
        n, n_features = feature.size, _json_int(doc["n_features"])
        if n == 0:
            raise ValueError("tree has no nodes")
        if not (threshold.size == left.size == right.size == value.size == n):
            raise ValueError("node arrays have inconsistent lengths")
        leaf, kids = feature == _LEAF, np.stack([left, right], axis=1)
        bad_kid = ~leaf[:, None] & ((kids <= np.arange(n)[:, None]) | (kids >= n))
        # every node but the root has exactly one parent, so the nodes form one tree
        parents = np.bincount(kids[~leaf & ~bad_kid.any(1)].ravel(), minlength=n)
        for fault, message in (
            (leaf & ((kids != _LEAF).any(1) | ~np.isfinite(value)), "malformed leaf node {0}"),
            (~leaf & ((feature < 0) | (feature >= n_features)),
             "node {0} splits on unknown feature"),
            (bad_kid.any(1), "node {0} has invalid child {1}"),
            (~leaf & ~np.isfinite(threshold), "node {0} threshold is missing or not finite"),
            (parents > 1, "node {0} has two parents"),
            ((parents == 0) & (np.arange(n) > 0), "node {0} is unreachable from the root"),
        ):
            if fault.any():
                node = np.argmax(fault)
                raise ValueError(message.format(node, kids[node, np.argmax(bad_kid[node])]))
        return cls(feature, threshold, left, right, value, n_features)


def worker_count(threads: int | None = None) -> int:
    """The threads a fit may run on: `threads`, capped at the CPUs this process
    may run on (`os.sched_getaffinity`, or `os.cpu_count()` where that is
    missing); None means all of them.

    Raises:
        ValueError: threads below 1.
    """
    if threads is not None and threads < 1:
        raise ValueError("threads must be >= 1")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    cpus = cpus or 1
    return cpus if threads is None else min(threads, cpus)


class Workers:
    """The threads that share out a fit's per-feature work; see `each`.

    A fit of at least `_THREAD_ROWS` rows gets `worker_count(threads)`: the
    caller's thread and helpers started here, which wait for work until
    `close` (or leaving a `with` block) stops and joins them.  A smaller fit
    gets the caller's thread alone.  The helpers live as long as the fit,
    so each allocates from one malloc arena throughout: a thread started
    for each step can start before the last one has released its arena,
    and then takes a new one (+4 MB of peak memory in a 107k-row fit).
    """

    def __init__(self, threads: int | None, n_rows: int):
        count = worker_count(threads)  # checked however small the fit
        self.count = count if n_rows >= _THREAD_ROWS else 1
        self._tasks = queue.SimpleQueue()
        self._helpers = []
        # A helper that fails to start (say, "can't start new thread") stops
        # and joins the ones started before it, which would wait forever.
        try:
            for _ in range(self.count - 1):
                helper = threading.Thread(target=self._serve)
                helper.start()
                self._helpers.append(helper)
        except BaseException:
            self.close()
            raise

    def _serve(self):
        for task in iter(self._tasks.get, None):
            task()

    def each(self, work, items) -> None:
        """Call work(item) for every item on every worker and return once every call has.

        Every worker takes the next item until none is left, so the order of
        the calls depends on the schedule: each call must write only what no
        other call reads or writes.  An error raised on a helper is raised
        again here.
        """
        todo, lock, done = iter(items), threading.Lock(), queue.SimpleQueue()

        def share():
            while True:
                with lock:
                    item = next(todo, todo)  # the iterator itself marks the end
                if item is todo:
                    return
                work(item)

        def helper_share():
            try:
                share()
            except BaseException as exc:  # raised on the caller's thread below
                done.put(exc)
            else:
                done.put(None)

        for _ in self._helpers:
            self._tasks.put(helper_share)
        try:
            share()
        finally:
            errors = [done.get() for _ in self._helpers]
        for error in errors:
            if error is not None:
                raise error

    def close(self) -> None:
        for _ in self._helpers:
            self._tasks.put(None)
        for helper in self._helpers:
            helper.join()

    def __enter__(self) -> "Workers":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# The caller's thread alone, for a `presort` or `fit_tree` outside a fit's
# `Workers`; it starts no helper, so it has nothing to close.
_SERIAL = Workers(1, 0)


@dataclass(frozen=True)
class ColumnIndex:
    """What a fit knows of its matrix's columns before any tree grows; see `presort`.

    Per column f: `order[f]`, its row ids in stable ascending order of value;
    and if it holds exactly two distinct values (by `==`, so -0.0 and 0.0
    are one value), `low_count[f]`, the number of rows holding the lower
    value, and `threshold[f]`, the split between the two values by
    `_split_point`'s rule.  The low rows are `order[f, :low_count[f]]`, in
    ascending row id.  Other columns have `low_count` 0 and `threshold` NaN.
    """

    order: np.ndarray      # (d, n) int32
    low_count: np.ndarray  # (d,) int64
    threshold: np.ndarray  # (d,) float64

    @property
    def two_valued(self) -> np.ndarray:
        """Whether each column holds exactly two distinct values."""
        return self.low_count > 0


def presort(X: np.ndarray, *, workers: Workers = _SERIAL) -> ColumnIndex:
    """The `ColumnIndex` of X: every column argsorted once, its two-valued columns found.

    Sorted one column at a time, so no (n, d) int64 temporary is held; the
    columns of a column-major X are contiguous.  The columns are shared out
    among `workers`, the running `Workers` of the fit (by default the
    caller's thread alone).

    Raises:
        DimensionMismatchError: X is not a 2-D matrix.
        NoFeatureColumnsError: X has no columns, so a tree has nothing to split on.
        NonFiniteFeatureError: NaN or infinity in X.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D feature matrix, got shape {X.shape}")
    if X.shape[1] == 0:
        raise NoFeatureColumnsError("cannot fit a tree on a matrix with no feature columns")
    if not np.all(np.isfinite(X)):
        raise NonFiniteFeatureError("features contain NaN or infinity")
    d = X.shape[1]
    order = np.empty((d, X.shape[0]), dtype=np.int32)
    low_count = np.zeros(d, dtype=np.int64)
    threshold = np.full(d, np.nan)

    def column(f):
        order[f] = np.argsort(X[:, f], kind="stable")
        xs = X[:, f].take(order[f])
        changes = np.flatnonzero(xs[1:] != xs[:-1])
        if changes.size == 1:
            c = low_count[f] = changes[0] + 1
            # A node's own two values equal these, and the threshold has the
            # same bits whichever sign a zero among them carries.
            threshold[f] = _split_point(xs[c - 1], xs[c])

    workers.each(column, range(d))
    return ColumnIndex(order, low_count, threshold)


def fit_tree(
    X: np.ndarray,
    targets: np.ndarray,
    params: TreeParams,
    *,
    weights: np.ndarray | None = None,
    index: ColumnIndex | None = None,
    workers: Workers = _SERIAL,
) -> tuple[RegressionTree, np.ndarray]:
    """Fit a least-squares regression tree; returns (tree, each row's leaf id).

    A leaf's value is sum(t) / sum(w) over its rows in ascending row id, or
    0.0 where sum(w) < `_WEIGHT_GUARD` (a ratio of vanishing sums is noise);
    `weights=None` weighs each row 1, which gives `np.mean`'s bits.  Weights
    set leaf values, never splits.  `index` is `presort(X)`, built here when
    not given.  The tree grows one level at a time, each level's split
    search taking one pass per many-valued column and three `np.bincount`
    calls for all two-valued ones, yet the result equals a recursive search
    that argsorts every column at every node, bit for bit.  Every node
    shallower than `max_depth` is searched; `_best_splits` applies the node
    rules (`min_samples_split`; a split must lower the SSE) and the boundary
    rule (`min_samples_leaf`).  Nodes are numbered in preorder: a node, its
    left subtree, its right subtree.

    The per-feature work, each column's argsort in `presort` and each
    many-valued feature's pass in `_best_splits`, is shared out among
    `workers`: the running `Workers` of the enclosing fit, as `fit_gbc`
    passes them, or by default the caller's thread alone.  Each feature
    fills only its own row of the level's tables, and the winners are
    picked once all have, so the tree has the same bits on any schedule.

    Raises:
        EmptyInputError: no rows.
        DimensionMismatchError: X is not a 2-D matrix, its row count differs
            from the target or weights length, or `index.order` is not shaped (d, n).
        NonFiniteTargetError: NaN or infinite targets, or NaN, infinite or negative weights.
        NoFeatureColumnsError, NonFiniteFeatureError: as `presort` raises
            them (only when `index` is None).
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
    w = np.ones(t.size) if weights is None else np.asarray(weights, dtype=np.float64)
    if w.shape != t.shape:
        raise DimensionMismatchError(f"{t.size} targets but weights of shape {w.shape}")
    if not np.all(np.isfinite(w) & (w >= 0.0)):
        raise NonFiniteTargetError("weights contain NaN, infinity or a negative value")
    index = presort(X, workers=workers) if index is None else index
    if index.order.shape != (X.shape[1], X.shape[0]):
        raise DimensionMismatchError(
            f"column index has shape {index.order.shape}, expected {(X.shape[1], X.shape[0])}"
        )
    # Nodes in creation order, [feature, threshold, left, right, value] each;
    # `level` maps each node of one depth to its ascending row ids, and `leaf`
    # holds creation-order node ids until `_preorder` renumbers them.
    blank = [_LEAF, np.nan, _LEAF, _LEAF, np.nan]
    nodes = [blank.copy()]
    leaf = np.empty(X.shape[0], dtype=np.int64)
    level = {0: np.arange(X.shape[0])}
    for depth in range(params.max_depth + 1):
        found = (_best_splits(X, t, index, list(level.values()), params, workers)
                 if depth < params.max_depth else [None] * len(level))
        children = {}
        for (node, rows), split in zip(level.items(), found):
            if split is None:
                weight = w[rows].sum()
                nodes[node][4] = float(t[rows].sum() / weight) if weight >= _WEIGHT_GUARD else 0.0
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


def _best_splits(X, t, index, groups, params, workers):
    """Best (feature, threshold), or None, for each group of ascending row ids.

    Fills a (feature, group) table of SSEs, and one of thresholds, for the
    groups of at least `min_samples_split` rows; other cells stay +inf.  A
    two-valued feature's only boundary in a group falls right after the
    group's low rows, so `_two_valued_sums` gives all its cells their low
    side's count and sums by `bincount`, the same bits `_scan`'s `cumsum`
    reads there; past a first boundary the bits would differ (see
    `_two_valued_sums`).  `_children_sse`, `_admissible` and the index's
    threshold then fill those cells as `_scan` would.  For a many-valued
    feature, `_scan` fills them: one stable sort of the node labels
    along the presorted column lays every group's rows out contiguously,
    each group sorted by value and then by row id: exactly its own stable
    argsort.  So every sum and every tie matches a search that sorts each
    node on its own.  The many-valued features are shared out among
    `workers`, each feature filling only its own row of the two tables,
    and `argmin(axis=0)` runs once all have: it takes each group's
    first minimum, so ties break to the lowest feature, then the lowest
    threshold, on any schedule.  A group splits only if that minimum is
    below its own SSE beyond numeric noise.  The bound is the group's, the
    same for every feature, so a search that checked each feature's best in
    turn would reject all of them or keep the same one.
    """
    if not groups:
        return []
    n_groups = len(groups)
    # Rows of earlier levels' leaves keep label n_groups: they sort last and are cut off.
    label = np.full(t.size, n_groups, dtype=np.min_scalar_type(n_groups))
    for k, rows in enumerate(groups):
        label[rows] = k
    bounds = np.cumsum([0] + [rows.size for rows in groups])
    size = np.diff(bounds)
    total, total_sq = np.array([(ti.sum(), (ti * ti).sum())
                                for ti in (t[rows] for rows in groups)]).T
    splittable = size >= params.min_samples_split
    scanned = np.flatnonzero(splittable).tolist()

    sse, threshold = np.full((2, X.shape[1], n_groups), np.inf)
    two = np.flatnonzero(index.two_valued)
    left_n, left_sum, left_sq = _two_valued_sums(t, index, two, label, n_groups)
    slot, group = np.nonzero(splittable & _admissible(left_n, size, params.min_samples_leaf))
    sse[two[slot], group] = _children_sse(
        left_n[slot, group], left_sum[slot, group], left_sq[slot, group],
        size[group], total[group], total_sq[group])
    threshold[two[slot], group] = index.threshold[two[slot]]

    def scan_feature(f):
        column = index.order[f]
        grouped = np.argsort(label.take(column), kind="stable")[: bounds[-1]]
        grouped[:] = column.take(grouped)  # row ids, in the argsort's intp buffer
        xs, ts = X[:, f].take(grouped), t.take(grouped)
        del grouped  # each worker's temporaries are freed before its scans
        for k in scanned:
            lo, hi = bounds[k], bounds[k + 1]
            sse[f, k], threshold[f, k] = _scan(
                xs[lo:hi], ts[lo:hi], total[k], total_sq[k], params.min_samples_leaf)

    workers.each(scan_feature, np.flatnonzero(~index.two_valued).tolist())
    feature = sse.argmin(axis=0)
    parent = total_sq - total * total / size
    splits = sse[feature, np.arange(n_groups)] < parent - 1e-12 * np.maximum(parent, 1.0)
    return [(int(f), threshold[f, k]) if split else None
            for k, (f, split) in enumerate(zip(feature, splits))]


def _two_valued_sums(t, index, two, label, n_groups):
    """(count, sum, sum of squares) of t over each two-valued column's low rows
    in each group, as (len(two), n_groups) arrays.

    The key of a low row of the column in slot s is s * (n_groups + 1) plus
    its label, so one `np.bincount` per statistic covers every (column,
    group) cell, and the rows of earlier leaves fall in each slot's last bin.
    The sums are the ones `_scan` reads off `cumsum`: a weighted `bincount`
    adds a cell's weights in index order from 0.0, and a column's low rows
    run in ascending row id, which is the order a group's own stable sort
    puts them in, first.  So up to a group's first boundary both add the
    same values in the same order.  (Only a sum of -0.0 alone comes out
    +0.0, and the SSE squares that sign away.)  At any later boundary the
    two would differ, which is why only two-valued columns take this path.

    The columns go in batches of about `_BATCH_ROWS` low rows, each column
    whole, so its sums still run in one pass.  A batch has one key buffer and
    one weight buffer, the weights squared in place for the third pass.
    """
    width = n_groups + 1
    label = label.astype(np.intp)
    count = np.empty((two.size, width), dtype=np.intp)
    left_sum, left_sq = np.empty((2, two.size, width))
    low_count = index.low_count[two]
    batch_of = (np.cumsum(low_count) - 1) // _BATCH_ROWS
    for batch in np.split(np.arange(two.size), np.flatnonzero(np.diff(batch_of)) + 1):
        key = np.empty(low_count[batch].sum(), dtype=np.intp)
        weight = np.empty(key.size)
        start = 0
        for slot, (f, c) in enumerate(zip(two[batch], low_count[batch])):
            rows = index.order[f, :c]
            part = slice(start, start + rows.size)
            # the rows are in range; "clip" writes straight into `out`, where "raise" buffers
            label.take(rows, out=key[part], mode="clip")
            key[part] += slot * width
            t.take(rows, out=weight[part], mode="clip")
            start += rows.size
        cells = batch.size * width
        count[batch] = np.bincount(key, minlength=cells).reshape(-1, width)
        left_sum[batch] = np.bincount(key, weight, minlength=cells).reshape(-1, width)
        np.multiply(weight, weight, out=weight)
        left_sq[batch] = np.bincount(key, weight, minlength=cells).reshape(-1, width)
    return count[:, :n_groups], left_sum[:, :n_groups], left_sq[:, :n_groups]


def _admissible(left_n, n, min_samples_leaf):
    """Whether a boundary with left_n of a node's n rows on its left leaves
    `min_samples_leaf` rows on each side."""
    return (left_n >= min_samples_leaf) & (n - left_n >= min_samples_leaf)


def _children_sse(left_n, left_sum, left_sq, n, total, total_sq):
    """The summed SSE of the two children of a boundary with left_n rows on its left."""
    right_sum = total - left_sum
    right_sq = total_sq - left_sq
    return (left_sq - left_sum * left_sum / left_n) + (
        right_sq - right_sum * right_sum / (n - left_n)
    )


def _split_point(lo, hi):
    """The threshold between adjacent distinct values lo < hi: their midpoint,
    or lo where the midpoint rounds up to hi (or overflows), which would send
    hi left; lo splits the same rows."""
    mid = (lo + hi) / 2.0
    return mid if mid < hi else lo


def _scan(xs, ts, total, total_sq, min_samples_leaf):
    """(sse, threshold) of the best midpoint of one node's sorted column.

    Only boundaries that leave `min_samples_leaf` rows on each side count,
    and (+inf, NaN) means there is none.  Ties break to the lowest threshold.
    `ts` is overwritten with its running sums.
    """
    n = xs.size
    boundaries = np.flatnonzero(xs[1:] != xs[:-1]) + 1
    boundaries = boundaries[_admissible(boundaries, n, min_samples_leaf)]
    if boundaries.size == 0:
        return np.inf, np.nan
    left = boundaries - 1
    sq = ts * ts
    left_sq = np.cumsum(sq, out=sq)[left]
    del sq  # freed before `_children_sse`'s temporaries
    sse = _children_sse(boundaries, np.cumsum(ts, out=ts)[left], left_sq, n, total, total_sq)
    j = int(np.argmin(sse))  # first minimum = lowest threshold
    return sse[j], _split_point(xs[boundaries[j] - 1], xs[boundaries[j]])
