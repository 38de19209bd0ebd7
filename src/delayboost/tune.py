"""Exhaustive grid search over (estimators, max depth), scored by stratified CV.

Folds are built once per search: within each class, row indices are shuffled
by a PCG64 generator seeded with the search seed and dealt into `folds`
chunks whose sizes differ by at most one, so every fold keeps the class
proportions of the full set.  Every grid cell is evaluated on the same
folds.

Each (fold, depth) pair is fitted once, at the largest estimator count.
Round m of `fit_gbc` does not depend on how many rounds follow, so the model
of a smaller count is that fit's first trees, and `staged_scores` passes
through its held-out scores on the way to the full model's: every cell is
scored as if it had been fitted on its own.

The best cell maximizes mean held-out score; ties break to the smallest
estimator count, then the smallest depth, preferring the cheaper model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .boost import BoostParams, fit_gbc, label_scores, staged_scores
from .encode import FeatureMatrix
from .errors import ClassTooSmallForFoldsError, DataError, EmptyGridError
from .metrics import confusion, summarize


@dataclass(frozen=True)
class Grid:
    estimator_values: tuple[int, ...]
    depth_values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "estimator_values", tuple(self.estimator_values))
        object.__setattr__(self, "depth_values", tuple(self.depth_values))
        for name, vals in (
            ("estimator_values", self.estimator_values),
            ("depth_values", self.depth_values),
        ):
            if not vals:
                raise EmptyGridError(f"{name} is empty")
            if any(v < 1 for v in vals):
                raise EmptyGridError(f"{name} must contain values >= 1")
            if any(a >= b for a, b in zip(vals, vals[1:])):
                raise EmptyGridError(f"{name} must be strictly increasing")


# Brackets the estimator counts and depths worth trying on the flight data.
DEFAULT_GRID = Grid((100, 200, 300, 400, 500), (3, 5, 7))
DEFAULT_FOLDS = 3


@dataclass(frozen=True)
class CellScore:
    estimators: int
    depth: int
    fold_scores: tuple[float, ...]

    @property
    def mean_score(self) -> float:
        return sum(self.fold_scores) / len(self.fold_scores)


@dataclass(frozen=True)
class GridResult:
    cells: tuple[CellScore, ...]
    best: tuple[int, int]  # (estimators, depth)
    folds: int
    metric: str
    seed: int

    def to_doc(self) -> dict:
        return {
            "metric": self.metric,
            "folds": self.folds,
            "seed": self.seed,
            "cells": [
                {
                    "estimators": c.estimators,
                    "max_depth": c.depth,
                    "fold_scores": list(c.fold_scores),
                    "mean_score": c.mean_score,
                }
                for c in self.cells
            ],
            "best": {"estimators": self.best[0], "max_depth": self.best[1]},
        }

    def render(self) -> str:
        """Aligned per-cell summary table, one row per combination."""
        header = ["estimators", "max_depth"]
        header += [f"fold{i}" for i in range(self.folds)]
        header += [f"mean_{self.metric}"]
        rows = [header]
        for c in self.cells:
            rows.append(
                [str(c.estimators), str(c.depth)]
                + [f"{s:.4f}" for s in c.fold_scores]
                + [f"{c.mean_score:.4f}"]
            )
        widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
        lines = ["  ".join(cell.rjust(w) for cell, w in zip(r, widths)) for r in rows]
        lines.append(f"best: estimators={self.best[0]} max_depth={self.best[1]}")
        return "\n".join(lines) + "\n"


def _check_folds(folds: int) -> None:
    if folds < 2:
        raise DataError("folds must be >= 2")


def stratified_folds(labels: np.ndarray, folds: int, seed: int) -> list[np.ndarray]:
    """Validation index arrays for stratified k-fold CV.

    Raises:
        ClassTooSmallForFoldsError: some class has fewer rows than folds.
    """
    _check_folds(folds)
    labels = np.asarray(labels)
    rng = np.random.Generator(np.random.PCG64(seed))
    per_class_chunks = []
    for cls in (0, 1):
        idx = np.flatnonzero(labels == cls)
        if idx.size < folds:
            raise ClassTooSmallForFoldsError(
                f"class {cls} has {idx.size} rows, fewer than {folds} folds"
            )
        per_class_chunks.append(np.array_split(rng.permutation(idx), folds))
    return [
        np.concatenate([chunks[i] for chunks in per_class_chunks])
        for i in range(folds)
    ]


def grid_search(
    train: FeatureMatrix,
    grid: Grid = DEFAULT_GRID,
    folds: int = DEFAULT_FOLDS,
    base: BoostParams = BoostParams(),
    seed: int = 0,
    metric: str = "accuracy",
    *,
    threads: int | None = None,
) -> GridResult:
    """Cross-validate every (estimators, depth) combination on shared folds.

    `metric` is "accuracy" or "f1" (positive class), read off `summarize` for
    each held-out fold labelled by `label_scores` at its 0.5 threshold.
    Every fit runs on `threads` threads, as `fit_gbc` reads it; the result
    is the same whatever `threads` is.
    """
    if metric not in ("accuracy", "f1"):
        raise DataError(f"unknown metric {metric!r}")
    val_folds = stratified_folds(train.labels, folds, seed)
    all_rows = np.arange(train.n_rows)

    # estimators-major, the order the cells are reported and tie-broken in
    fold_scores = {(e, d): [] for e in grid.estimator_values for d in grid.depth_values}
    for val_idx in val_folds:
        fit_rows = train.take(np.setdiff1d(all_rows, val_idx))
        held_out = train.take(val_idx)
        for depth in grid.depth_values:
            params = replace(
                base,
                estimators=grid.estimator_values[-1],
                tree_params=replace(base.tree_params, max_depth=depth),
            )
            model, _ = fit_gbc(fit_rows, params, threads=threads)
            for estimators, scores in enumerate(staged_scores(model, held_out.values)):
                if (estimators, depth) in fold_scores:
                    summary = summarize(confusion(held_out.labels, label_scores(scores)))
                    fold_scores[estimators, depth].append(getattr(summary, metric))
        del fit_rows, held_out  # peak memory: free them before the next fold copies its rows

    cells = tuple(CellScore(e, d, tuple(scores)) for (e, d), scores in fold_scores.items())
    best = max(cells, key=lambda c: c.mean_score)  # the first best: the cheapest cell
    return GridResult(
        cells=cells, best=(best.estimators, best.depth), folds=folds, metric=metric, seed=seed
    )
