"""Pick estimators and depth with an exhaustive, cross-validated grid search.

Every (estimators, max_depth) combination is scored by stratified 3-fold
cross-validation on the same folds; the best cell maximizes the mean held-out
accuracy, with ties going to the cheaper model.
"""

import delayboost as db

ds = db.generate_synthetic(1200, positive_fraction=0.3, seed=44)
fm = db.apply_encoding(ds, db.fit_encoding(ds))
pair = db.shuffle_split(fm, train_fraction=0.8, seed=2)

grid = db.Grid(estimator_values=(10, 30, 60), depth_values=(1, 2, 3))
result = db.grid_search(
    pair.train,
    grid=grid,
    folds=3,
    base=db.BoostParams(learning_rate=0.1),
    seed=9,
)
print(result.render())

# The stored per-fold scores let anyone recompute the argmax.
best_cell = max(result.cells, key=lambda c: c.mean_score)
print(f"recomputed argmax: ({best_cell.estimators}, {best_cell.depth})")

# Refit the winning combination on the full training split.
estimators, depth = result.best
model, trace = db.fit_gbc(
    pair.train,
    db.BoostParams(estimators=estimators, learning_rate=0.1,
                   tree_params=db.TreeParams(max_depth=depth)),
)
scores = db.decision_function(model, pair.validation.values)
pred = db.label_scores(scores)
summary = db.summarize(db.confusion(pair.validation.labels, pred))
print(f"refit best ({estimators}, {depth}): "
      f"validation accuracy {summary.accuracy:.4f}")
