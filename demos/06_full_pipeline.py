"""The whole pipeline twice: without and with oversampling.

Strategy 1 skips the imbalance-removal step; Strategy 2 applies 200%
randomized SMOTE before the shuffle/split.  On imbalanced data the balanced
run trades a little precision for a lot of recall on the delayed class, which
lifts its F1 substantially; the ROC points are written out as CSV for
plotting.
"""

import numpy as np

import delayboost as db

ds = db.generate_synthetic(5000, positive_fraction=0.2, seed=55)
fm = db.apply_encoding(ds, db.fit_encoding(ds))

params = db.BoostParams(
    estimators=40, learning_rate=0.1, tree_params=db.TreeParams(max_depth=3)
)

results = {}
for strategy, percent in ((1, 0), (2, 200)):
    balanced = fm
    if percent:
        balanced = db.random_smote(fm, db.SmoteConfig(percent, seed=8))
    pair = db.shuffle_split(balanced, train_fraction=0.8, seed=8)
    model, trace = db.fit_gbc(pair.train, params)

    scores = db.decision_function(model, pair.validation.values)
    pred = db.label_scores(scores)
    summary = db.summarize(db.confusion(pair.validation.labels, pred))
    roc = db.roc_auc(pair.validation.labels, scores)
    results[strategy] = (trace.accuracy[-1], summary, roc)

    with open(f"roc_strategy{strategy}.csv", "w", encoding="utf-8") as fh:
        fh.write(roc.to_csv())

print("metric                 strategy 1   strategy 2")
rows = [
    ("training accuracy", lambda r: r[0]),
    ("validation accuracy", lambda r: r[1].accuracy),
    ("recall (delayed)", lambda r: r[1].recall),
    ("precision (delayed)", lambda r: r[1].precision),
    ("f1 (delayed)", lambda r: r[1].f1),
    ("weighted f1", lambda r: r[1].weighted_f1),
    ("auroc", lambda r: r[2].auroc),
]
for name, pick in rows:
    print(f"{name:<22} {pick(results[1]):>10.4f} {pick(results[2]):>12.4f}")

cm = results[2][1].confusion
print("\nstrategy 2 confusion matrix (rows actual, columns predicted):")
print(f"            pred=1  pred=0")
print(f"  actual=1  {cm.tp:>6}  {cm.fn:>6}")
print(f"  actual=0  {cm.fp:>6}  {cm.tn:>6}")
print("\nwrote roc_strategy1.csv and roc_strategy2.csv")
