"""The benchmark's workloads: the library calls that one CLI subcommand makes.

`delayboost.cli` cannot be imported at this commit, so each workload calls
the public `delayboost` API in the order the matching subcommand does.  Every
input comes from `generate_synthetic` with the workload seed; stage seeds
derive from it as the CLI derives them from `--seed`.

A workload has three parts.  `setup` runs in a child process and writes the
inputs (and, for prepare-score, the scored model) into the work directory.
`run` is one timed pass.  `check` verifies a pass's outputs outside the timed
region and returns a fingerprint that must be equal for every pass of a run
and every run of the same seed and program.  `quality` gives the validation
figures of the last pass and checks AUROC against a floor.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

import delayboost as db

POSITIVE_FRACTION = 0.2
SMOTE_PERCENT = 200
TRAIN_FRACTION = 0.8

# Stage numbers 1-3 are the CLI's; 4 and 5 are streams only the benchmark uses.
SMOTE_STAGE, SPLIT_STAGE, FOLD_STAGE, MODEL_STAGE, HOLDOUT_STAGE = 1, 2, 3, 4, 5


class CheckFailed(Exception):
    """A pass produced output that fails one of the benchmark's checks."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def stage_seed(seed: int, stage: int) -> int:
    """The CLI's stage-seed derivation: SeedSequence([seed, stage])."""
    return int(np.random.SeedSequence([seed, stage]).generate_state(1)[0])


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def sha256_array(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a)).hexdigest()  # hashes the buffer, no copy


def _scored(model, fm):
    """Scores, 0.5-threshold summary and ROC, as `delayboost evaluate` reports them."""
    scores = db.decision_function(model, fm.values)
    pred = (db.sigmoid(scores) >= 0.5).astype(np.int64)
    summary = db.summarize(db.confusion(fm.labels, pred))
    roc = db.roc_auc(fm.labels, scores)
    return scores, summary, roc


class Workload:
    name: str
    mirrors: str
    rows: int
    auroc_floor = 0.85
    trees_needed = 0

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.csv = work_dir / "flights.csv"
        self.schema_path = work_dir / "schema.json"
        self.model_path = work_dir / "model.json"

    def _write_input(self, n_rows: int) -> None:
        """`delayboost synth --rows N --seed S --out ... --schema-out ...`."""
        ds = db.generate_synthetic(n_rows, POSITIVE_FRACTION, seed=self.seed)
        db.write_csv(ds, self.csv)
        self.schema_path.write_text(ds.schema.to_json() + "\n", encoding="utf-8")

    def _load(self):
        schema = db.Schema.from_json(self.schema_path.read_text(encoding="utf-8"))
        return db.drop_missing_labels(db.load_csv(self.csv, schema))

    def setup(self) -> None:
        self._write_input(self.rows)

    def _require_balanced(self, n_rows: int) -> None:
        """SMOTE at 200% adds two synthetic rows per original minority row."""
        minority = int(round(POSITIVE_FRACTION * self.rows))
        require(n_rows == self.rows + 2 * minority, f"SMOTE gave {n_rows} rows")

    def quality(self, out) -> dict:
        """Validation quality of the pass's model: {"val_auroc", "val_f1"}."""
        return self._quality(out["roc"], out["summary"])

    def _quality(self, roc, summary) -> dict:
        require(roc.auroc >= self.auroc_floor,
                f"val_auroc {roc.auroc} below floor {self.auroc_floor}")
        return {"val_auroc": roc.auroc, "val_f1": summary.f1}


class TrainPaper(Workload):
    name = "train-paper"
    mirrors = "delayboost train --smote-percent 200 --max-depth 5 --estimators 3"
    rows = 96_000
    estimators = 3
    max_depth = 5

    def run(self) -> dict:
        ds = self._load()
        plan = db.fit_encoding(ds, one_hot=db.DEFAULT_ONE_HOT)
        fm = db.apply_encoding(ds, plan)
        fm = db.random_smote(
            fm, db.SmoteConfig(SMOTE_PERCENT, seed=stage_seed(self.seed, SMOTE_STAGE))
        )
        split = db.shuffle_split(fm, TRAIN_FRACTION, seed=stage_seed(self.seed, SPLIT_STAGE))
        params = db.BoostParams(
            estimators=self.estimators,
            tree_params=db.TreeParams(max_depth=self.max_depth),
        )
        model, _ = db.fit_gbc(split.train, params)
        db.save_model(model, self.model_path, {"seed": self.seed, "strategy": "Strategy 2"})
        scores, summary, roc = _scored(model, split.validation)
        return {"validation": split.validation, "balanced_rows": fm.n_rows,
                "scores": scores, "summary": summary, "roc": roc}

    def check(self, out) -> dict:
        self._require_balanced(out["balanced_rows"])
        reloaded, _ = db.load_model(self.model_path)
        again = db.decision_function(reloaded, out["validation"].values)
        require(again.tobytes() == out["scores"].tobytes(),
                "reloaded model scores differ from the trained model's")
        return {"model_sha256": sha256_file(self.model_path),
                "scores_sha256": sha256_array(out["scores"])}


class TuneGrid(Workload):
    name = "tune-grid"
    mirrors = 'delayboost tune --smote-percent 0 --grid "5,10,15,20x2,4" --folds 3 --metric f1'
    rows = 12_000
    grid = db.Grid((5, 10, 15, 20), (2, 4))
    folds = 3
    metric = "f1"
    holdout_rows = 50_000
    trees_needed = max(grid.estimator_values) * len(grid.depth_values) * folds

    def run(self) -> dict:
        ds = self._load()
        plan = db.fit_encoding(ds, one_hot=db.DEFAULT_ONE_HOT)
        fm = db.apply_encoding(ds, plan)
        split = db.shuffle_split(fm, TRAIN_FRACTION, seed=stage_seed(self.seed, SPLIT_STAGE))
        result = db.grid_search(
            split.train,
            grid=self.grid,
            folds=self.folds,
            base=db.BoostParams(),
            seed=stage_seed(self.seed, FOLD_STAGE),
            metric=self.metric,
        )
        return {"train": split.train, "plan": plan, "result": result}

    def check(self, out) -> dict:
        result = out["result"]
        g = self.grid
        require(len(result.cells) == len(g.estimator_values) * len(g.depth_values),
                f"grid has {len(result.cells)} cells")
        require(result.best[0] in g.estimator_values and result.best[1] in g.depth_values,
                f"best cell {result.best} is not in the grid")
        scores = [s for c in result.cells for s in c.fold_scores]
        require(all(0.0 <= s <= 1.0 for s in scores), "fold score outside [0, 1]")
        doc = json.dumps(result.to_doc(), sort_keys=True).encode("utf-8")
        best = max(c.mean_score for c in result.cells)
        return {"grid_sha256": hashlib.sha256(doc).hexdigest(), "cv_best_score": best}

    def quality(self, out) -> dict:
        """Refit the chosen cell on the tuning split; score a fresh 50k-row holdout.

        The tune path itself scores nothing; this is what a user does next.
        A large holdout keeps the figures steady from seed to seed.
        """
        estimators, depth = out["result"].best
        params = db.BoostParams(estimators=estimators, tree_params=db.TreeParams(max_depth=depth))
        model, _ = db.fit_gbc(out["train"], params)
        holdout = db.generate_synthetic(
            self.holdout_rows, POSITIVE_FRACTION, seed=stage_seed(self.seed, HOLDOUT_STAGE)
        )
        _, summary, roc = _scored(model, db.apply_encoding(holdout, out["plan"], training=False))
        return self._quality(roc, summary)


class PrepareScore(Workload):
    name = "prepare-score"
    mirrors = "delayboost balance --smote-percent 200, then delayboost evaluate --model model.json"
    rows = 400_000
    model_rows = 2_000
    model_estimators = 100

    def setup(self) -> None:
        """Write the extract, then train and save the 100-tree model it is scored with."""
        self._write_input(self.rows)
        sample = db.generate_synthetic(
            self.model_rows, POSITIVE_FRACTION, seed=stage_seed(self.seed, MODEL_STAGE)
        )
        plan = db.fit_encoding(sample, one_hot=db.DEFAULT_ONE_HOT)
        fm = db.random_smote(
            db.apply_encoding(sample, plan),
            db.SmoteConfig(SMOTE_PERCENT, seed=stage_seed(self.seed, SMOTE_STAGE)),
        )
        model, _ = db.fit_gbc(fm, db.BoostParams(estimators=self.model_estimators))
        db.save_model(model, self.model_path, {"seed": self.seed, "strategy": "Strategy 2"})
        reloaded, _ = db.load_model(self.model_path)
        require(db.decision_function(reloaded, fm.values).tobytes()
                == db.decision_function(model, fm.values).tobytes(),
                "reloaded model scores differ from the trained model's")

    def run(self) -> dict:
        ds = self._load()
        plan = db.fit_encoding(ds, one_hot=db.DEFAULT_ONE_HOT)
        balanced = db.random_smote(
            db.apply_encoding(ds, plan),
            db.SmoteConfig(SMOTE_PERCENT, seed=stage_seed(self.seed, SMOTE_STAGE)),
        )
        model, _ = db.load_model(self.model_path)
        fm = db.apply_encoding(ds, model.plan, training=False)
        scores, summary, roc = _scored(model, fm)
        return {"balanced": balanced, "n_trees": len(model.trees),
                "unseen": fm.unseen_categories, "scores": scores,
                "summary": summary, "roc": roc}

    def check(self, out) -> dict:
        balanced = out["balanced"]
        self._require_balanced(balanced.n_rows)
        require(out["n_trees"] == self.model_estimators,
                f"loaded model has {out['n_trees']} trees")
        require(out["unseen"] == 0, f"{out['unseen']} unseen category cells")
        return {
            "model_sha256": sha256_file(self.model_path),
            "balanced_sha256": sha256_array(balanced.values),
            "scores_sha256": sha256_array(out["scores"]),
        }


WORKLOADS = {w.name: w for w in (TrainPaper, TuneGrid, PrepareScore)}


def _rows(args, result) -> dict:
    return {"rows": result.n_rows}


def _smote_rows(args, result) -> dict:
    return {"rows_added": result.n_rows - args[0].n_rows}


def _tree_shape(args, result) -> dict:
    tree = result[0] if isinstance(result, tuple) else result
    return {"nodes": tree.n_nodes, "leaves": tree.n_leaves}


def _fit(args, result) -> dict:
    return {"fits": 1, "trees": len(result[0].trees)}


def _scored_rows(args, result) -> dict:
    return {"rows": len(args[1])}


def _model_bytes(path_arg: int):
    return lambda args, result: {"bytes": os.path.getsize(args[path_arg])}


# (module, attribute, span name, counts).  The package namespace catches the
# benchmark's own calls; the last three catch calls one layer makes into
# another, so tree spans nest in boost spans and boost spans in tune spans.
BOUNDARIES = (
    ("delayboost", "generate_synthetic", "dataset.generate_synthetic", None),
    ("delayboost", "write_csv", "dataset.write_csv", None),
    ("delayboost", "load_csv", "dataset.load_csv", _rows),
    ("delayboost", "fit_encoding", "encode.fit_encoding", None),
    ("delayboost", "apply_encoding", "encode.apply_encoding", None),
    ("delayboost", "shuffle_split", "encode.shuffle_split", None),
    ("delayboost", "random_smote", "resample.random_smote", _smote_rows),
    ("delayboost", "fit_gbc", "boost.fit_gbc", _fit),
    ("delayboost", "decision_function", "boost.decision_function", _scored_rows),
    ("delayboost", "grid_search", "tune.grid_search", None),
    ("delayboost", "roc_auc", "metrics.roc_auc", None),
    ("delayboost", "summarize", "metrics.summarize", None),
    ("delayboost", "save_model", "model_io.save_model", _model_bytes(1)),
    ("delayboost", "load_model", "model_io.load_model", _model_bytes(0)),
    ("delayboost.boost", "fit_tree", "tree.fit_tree", _tree_shape),
    ("delayboost.tune", "fit_gbc", "boost.fit_gbc", _fit),
    ("delayboost.tune", "decision_function", "boost.decision_function", _scored_rows),
)
