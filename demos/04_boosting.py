"""Train the gradient boosting classifier and watch the loss fall.

Training starts from the log-odds prior and adds one shallow regression tree
per round, each fit to the current residuals y - p.  The tree fit gives every
leaf its one-step Newton value sum(y - p) / sum(p(1 - p)) over the leaf's rows
as the leaf is formed, and the learning rate shrinks every tree's
contribution.  The training deviance never increases from round to round.
"""

import numpy as np

import delayboost as db

ds = db.generate_synthetic(2500, positive_fraction=0.3, seed=33)
fm = db.apply_encoding(ds, db.fit_encoding(ds))
pair = db.shuffle_split(fm, train_fraction=0.8, seed=1)

params = db.BoostParams(
    estimators=60,
    learning_rate=0.1,
    tree_params=db.TreeParams(max_depth=3),
)
model, trace = db.fit_gbc(pair.train, params)

p1 = pair.train.labels.mean()
print(f"positive fraction p1 = {p1:.4f}, prior score f0 = {model.f0:.4f}")
print(f"  (f0 = log(p1 / (1 - p1)) = {np.log(p1 / (1 - p1)):.4f})")

print("\ntraining deviance and accuracy by round:")
for m in (0, 1, 5, 15, 30, 60):
    print(f"  round {m:>2}: deviance {trace.deviance[m]:.4f}, "
          f"accuracy {trace.accuracy[m]:.4f}")

monotone = bool(np.all(np.diff(np.array(trace.deviance)) <= 1e-9))
print(f"deviance non-increasing: {monotone}")

# The deviance path on held-out data, using only the first m trees.
staged = db.staged_deviance(model, pair.validation)
best_m = int(np.argmin(staged))
print(f"\nvalidation deviance: start {staged[0]:.4f}, "
      f"best {staged[best_m]:.4f} at round {best_m}")

# Raw scores, probabilities, and labels for a few validation rows.
rows = pair.validation.values[:5]
scores = db.decision_function(model, rows)
probas = db.predict_proba(model, rows)
labels = db.predict_label(model, rows)
print("\nrow  score    probability  label  actual")
for i in range(5):
    print(f"{i:>3}  {scores[i]:>7.3f}  {probas[i]:>11.3f}  {labels[i]:>5}  "
          f"{pair.validation.labels[i]:>6}")
