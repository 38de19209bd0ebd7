"""Command-line front end for the delay-classification pipeline.

Subcommands mirror the pipeline stages: `synth` writes a synthetic dataset,
`prepare` loads/concatenates/filters/cleans raw CSVs, `corr` prints Pearson
correlations, `balance` oversamples an encoded matrix, `train` runs
encode -> balance -> split -> boost and saves the model, `tune` grid-searches
(estimators, max depth), `evaluate` scores a saved model on labelled data,
and `predict` emits labels/probabilities/raw scores for new rows.

A run with --smote-percent 0 skips balancing (reports mark it Strategy 1);
any positive multiple of 100 enables it (Strategy 2).  All randomness flows
from --seed: stage seeds derive as SeedSequence([seed, STAGE]) with STAGE
1 for oversampling, 2 for the shuffle/split, and 3 for fold construction,
so reruns with one seed reproduce every stage byte for byte.  --threads caps
internal parallelism; the implementation runs the deterministic sequential
schedule regardless, so outputs never depend on it.  Subcommands read their
settings straight off the parsed arguments.

Reports and predictions label a row by `boost.label_scores` at --threshold
(0.5 for train); a report's AUROC and --roc-out curve share one ROC sweep.

Exit codes: 0 success, 2 usage error (also a numeric flag out of range, found
by the code that owns its rule before any file is read), 3 data error (also a
malformed schema file), 4 numeric or training error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict

import numpy as np

from . import boost, dataset, encode, metrics, model_io, resample, tree, tune
from .errors import DataError, DelayBoostError, InvalidThresholdError, TrainingError

SMOTE_STAGE = 1
SPLIT_STAGE = 2
FOLD_STAGE = 3

# A rule's error names the library argument it checks; these name another flag.
_FLAG_OF = {
    "n_rows": "--rows",
    "positive_fraction": "--positive-frac",
    "train_fraction": "--train-frac",
    "percent": "--smote-percent",
    "estimator_values": "--grid estimator counts",
    "depth_values": "--grid depths",
}


def stage_seed(seed: int, stage: int) -> int:
    """Derive a stage seed from the master seed (NumPy SeedSequence)."""
    return int(np.random.SeedSequence([seed, stage]).generate_state(1)[0])


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:  # flags out of range are usage errors, reported before any file is read
        _check_flags(args)
    except (DataError, InvalidThresholdError, ValueError) as exc:
        name, rest = str(exc).split(" ", 1)
        print(f"error: {_FLAG_OF.get(name, '--' + name.replace('_', '-'))} {rest}",
              file=sys.stderr)
        return 2
    try:
        args.func(args)
        return 0
    except TrainingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (DelayBoostError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def _check_flags(args):
    """Run each numeric flag through the code that owns its rule.

    A rule raises with a message that starts with the argument it checks.
    `--grid` and `--smote-percent` are replaced by the `tune.Grid` and the
    `resample.SmoteConfig` (`args.smote`) that the command then uses.
    """
    if getattr(args, "threads", 1) < 1:
        raise ValueError("threads must be >= 1")
    boost.label_scores((), getattr(args, "threshold", 0.5))
    if args.command == "synth":
        dataset._check_synthetic_spec(args.rows, args.positive_frac)
    if args.command in ("train", "tune"):
        _boost_params(args)
        encode._check_train_fraction(args.train_frac)
    if args.command == "tune":
        tune._check_folds(args.folds)
        args.grid = _parse_grid(args.grid) if args.grid else tune.DEFAULT_GRID
    if args.command in ("balance", "train", "tune"):
        args.smote = resample.SmoteConfig(
            args.smote_percent, seed=stage_seed(args.seed, SMOTE_STAGE)
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delayboost",
        description="Flight arrival delay classification pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labelled dataset")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--positive-frac", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--schema-out")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("prepare", help="load, concatenate, filter, and clean raw CSVs")
    p.add_argument("--input", nargs="+", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument(
        "--filter",
        action="append",
        default=[],
        metavar="COL=V1,V2",
        help="keep rows whose column equals one of the values; repeatable",
    )
    p.add_argument("--drop", default="", metavar="COL1,COL2")
    p.add_argument("--out", required=True)
    p.add_argument("--schema-out")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("corr", help="Pearson correlations between encoded columns")
    p.add_argument("--input", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--columns", help="comma list; default: continuous features + label")
    p.add_argument("--out", help="write CSV here instead of printing a table")
    p.set_defaults(func=cmd_corr)

    p = sub.add_parser("balance", help="randomized-SMOTE oversample an encoded matrix")
    p.add_argument("--input", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--one-hot", default=None, metavar="COL1,COL2")
    p.add_argument("--smote-percent", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_balance)

    p = sub.add_parser("train", help="encode, balance, split, and fit the classifier")
    _pipeline_flags(p)
    p.add_argument("--estimators", type=int, default=100)
    p.add_argument("--max-depth", type=int, default=3)
    p.add_argument("--learning-rate", type=float, default=0.1)
    p.add_argument("--min-samples-split", type=int, default=2)
    p.add_argument("--min-samples-leaf", type=int, default=1)
    p.add_argument("--model-out", required=True)
    p.add_argument("--report-out")
    p.add_argument("--roc-out")
    p.add_argument("--timestamp", help="recorded in model metadata when given")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("tune", help="grid search over estimators and max depth")
    _pipeline_flags(p)
    p.add_argument("--grid", metavar="E1,E2x D1,D2", help='e.g. "100,200x3,5"')
    p.add_argument("--folds", type=int, default=tune.DEFAULT_FOLDS)
    p.add_argument("--learning-rate", type=float, default=0.1)
    p.add_argument("--metric", choices=("accuracy", "f1"), default="accuracy")
    p.add_argument("--report-out")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("evaluate", help="score a saved model on labelled data")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--report-out")
    p.add_argument("--roc-out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="predict labels for new rows")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    return parser


def _pipeline_flags(p):
    p.add_argument("--input", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--one-hot", default=None, metavar="COL1,COL2")
    p.add_argument("--smote-percent", type=int, default=0)
    p.add_argument("--train-frac", type=float, default=0.8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)


def cmd_synth(args):
    ds = dataset.generate_synthetic(args.rows, args.positive_frac, args.seed)
    dataset.write_csv(ds, args.out)
    if args.schema_out:
        with open(args.schema_out, "w", encoding="utf-8") as fh:
            fh.write(ds.schema.to_json() + "\n")
    balance = dataset.class_balance(ds)
    print(f"wrote {ds.n_rows} rows to {args.out} "
          f"(positives={balance.positives}, negatives={balance.negatives})")


def cmd_prepare(args):
    schema = _read_schema(args.schema)
    parts = [dataset.load_csv(path, schema) for path in args.input]
    ds = dataset.concat(parts)
    for rule in args.filter:
        if "=" not in rule:
            raise DataError(f"bad --filter {rule!r}, expected COL=V1,V2")
        column, values = rule.split("=", 1)
        ds = dataset.filter_equals(ds, column.strip(), values.split(","))
    drops = [c.strip() for c in args.drop.split(",") if c.strip()]
    if drops:
        ds = dataset.drop_columns(ds, drops)
    before = ds.n_rows
    ds = dataset.drop_missing_labels(ds)
    dataset.write_csv(ds, args.out)
    if args.schema_out:
        with open(args.schema_out, "w", encoding="utf-8") as fh:
            fh.write(ds.schema.to_json() + "\n")
    balance = dataset.class_balance(ds)
    print(f"kept {ds.n_rows} of {before} rows "
          f"(negatives={balance.negatives}, positives={balance.positives})")


def cmd_corr(args):
    schema = _read_schema(args.schema)
    ds = dataset.drop_missing_labels(dataset.load_csv(args.input, schema))
    plan = encode.fit_encoding(ds, one_hot=())
    fm = encode.apply_encoding(ds, plan)
    if args.columns:
        columns = [c.strip() for c in args.columns.split(",")]
    else:
        columns = [c.name for c in schema.columns if c.kind == dataset.CONTINUOUS]
        columns.append(schema.label_name)
    result = encode.pearson_matrix(fm, columns)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("," + ",".join(result.names) + "\n")
            for name, row in zip(result.names, result.matrix):
                fh.write(name + "," + ",".join(repr(float(v)) for v in row) + "\n")
    else:
        width = max(len(n) for n in result.names)
        print(" " * width + "  " + "  ".join(n.rjust(width) for n in result.names))
        for name, row in zip(result.names, result.matrix):
            print(name.rjust(width) + "  "
                  + "  ".join(f"{v:>{width}.4f}" for v in row))
    if result.degenerate:
        print(f"constant columns (correlation set to 0): "
              f"{', '.join(result.degenerate)}", file=sys.stderr)


def cmd_balance(args):
    fm = _encoded_matrix(args)
    before = int(fm.labels.sum()), int(fm.n_rows - fm.labels.sum())
    fm = _apply_balancing(fm, args)
    _write_matrix(fm, args.out)
    after = int(fm.labels.sum()), int(fm.n_rows - fm.labels.sum())
    print(f"label 1: {before[0]} -> {after[0]}; label 0: {before[1]} -> {after[1]}")


def cmd_train(args):
    split = _prepare_split(args)
    model, trace = boost.fit_gbc(split.train, _boost_params(args))

    strategy = "Strategy 1" if args.smote_percent == 0 else "Strategy 2"
    metadata = {
        "seed": args.seed,
        "estimators": args.estimators,
        "max_depth": args.max_depth,
        "min_samples_split": args.min_samples_split,
        "min_samples_leaf": args.min_samples_leaf,
        "learning_rate": args.learning_rate,
        "smote_percent": args.smote_percent,
        "train_fraction": args.train_frac,
        "strategy": strategy,
    }
    if args.timestamp is not None:
        metadata["timestamp"] = args.timestamp
    # the report is built before the model is saved, so a run that fails
    # there (say, a validation split of one class) leaves no model behind
    doc, roc = _evaluation_doc(
        model,
        split.validation,
        threshold=0.5,
        strategy=strategy,
        extra={
            "training_rows": split.train.n_rows,
            "validation_rows": split.validation.n_rows,
            "training_accuracy": trace.accuracy[-1],
        },
    )
    model_io.save_model(model, args.model_out, metadata)
    _emit_report(doc, roc, args)


def cmd_tune(args):
    split = _prepare_split(args)
    result = tune.grid_search(
        split.train,
        grid=args.grid,
        folds=args.folds,
        base=_boost_params(args),
        seed=stage_seed(args.seed, FOLD_STAGE),
        metric=args.metric,
    )
    print(result.render(), end="")
    if args.report_out:
        _write_json(result.to_doc(), args.report_out)


def cmd_evaluate(args):
    model, metadata = model_io.load_model(args.model)
    ds, fm = _load_with_plan(args.input, model, labelled=True)
    skipped = ds.n_rows - fm.n_rows
    doc, roc = _evaluation_doc(
        model,
        fm,
        threshold=args.threshold,
        strategy=metadata.get("strategy", "unknown"),
        extra={"rows": fm.n_rows},
    )
    if skipped:
        doc["rows_skipped_missing_label"] = skipped
    if fm.unseen_categories:
        doc["unseen_category_cells"] = fm.unseen_categories
    _emit_report(doc, roc, args)


def cmd_predict(args):
    model, _ = model_io.load_model(args.model)
    _, fm = _load_with_plan(args.input, model, labelled=False)
    scores = boost.decision_function(model, fm.values)
    probas = boost.sigmoid(scores)
    labels = boost.label_scores(scores, args.threshold)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("predicted_label,probability,decision_score\n")
        fh.writelines(map("{},{!r},{!r}\n".format,
                          labels.tolist(), probas.tolist(), scores.tolist()))
    if fm.unseen_categories:
        print(f"warning: {fm.unseen_categories} cells held categories unseen "
              f"at training time", file=sys.stderr)
    print(f"wrote {labels.size} predictions to {args.out}")


def _boost_params(args) -> boost.BoostParams:
    """The model flags of `train` or `tune`; ValueError names one out of range."""
    if args.command == "tune":  # the grid sets the estimators and the depth
        return boost.BoostParams(learning_rate=args.learning_rate)
    return boost.BoostParams(
        estimators=args.estimators,
        learning_rate=args.learning_rate,
        tree_params=tree.TreeParams(
            max_depth=args.max_depth,
            min_samples_split=args.min_samples_split,
            min_samples_leaf=args.min_samples_leaf,
        ),
    )


def _read_schema(path) -> dataset.Schema:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return dataset.Schema.from_json(text)


def _resolve_one_hot(schema: dataset.Schema, arg):
    if arg is not None:
        return tuple(c.strip() for c in arg.split(",") if c.strip())
    categorical = {c.name for c in schema.columns if c.kind == dataset.CATEGORICAL}
    return tuple(c for c in encode.DEFAULT_ONE_HOT if c in categorical)


def _encoded_matrix(args) -> encode.FeatureMatrix:
    schema = _read_schema(args.schema)
    ds = dataset.drop_missing_labels(dataset.load_csv(args.input, schema))
    plan = encode.fit_encoding(ds, one_hot=_resolve_one_hot(schema, args.one_hot))
    return encode.apply_encoding(ds, plan)


def _apply_balancing(fm: encode.FeatureMatrix, args) -> encode.FeatureMatrix:
    """Strategy 2 oversamples the minority class; Strategy 1 returns fm as is."""
    if args.smote.percent == 0:
        return fm
    return resample.random_smote(fm, args.smote)


def _prepare_split(args) -> encode.SplitPair:
    """Encode, balance, then shuffle and split into training and validation."""
    fm = _apply_balancing(_encoded_matrix(args), args)
    return encode.shuffle_split(
        fm, args.train_frac, seed=stage_seed(args.seed, SPLIT_STAGE)
    )


def _load_with_plan(path, model, labelled: bool):
    """Load rows for a model's plan and encode them in prediction mode.

    `labelled` input must have the label column and loses its unlabelled
    rows; otherwise the label column may be absent and every row is kept.
    """
    if model.plan is None:
        raise DataError("model file carries no encoding plan")
    plan = model.plan
    schema = dataset.Schema(
        plan.feature_columns + (dataset.Column(plan.label_name, dataset.LABEL),),
        plan.positive_label_value,
    )
    ds = dataset.load_csv(path, schema, missing_label_ok=not labelled)
    cleaned = dataset.drop_missing_labels(ds) if labelled else ds
    fm = encode.apply_encoding(cleaned, plan, training=False)
    return ds, fm


def _evaluation_doc(model, fm, threshold, strategy, extra):
    """The report document for the rows of fm, and their ROC curve."""
    scores = boost.decision_function(model, fm.values)
    pred = boost.label_scores(scores, threshold)
    summary = metrics.summarize(metrics.confusion(fm.labels, pred))
    roc = metrics.roc_auc(fm.labels, scores)
    doc = {"strategy": strategy}
    doc.update(extra)
    doc.update(
        {
            "validation_accuracy": summary.accuracy,
            "recall": summary.recall,
            "precision": summary.precision,
            "f1": summary.f1,
            "weighted_recall": summary.weighted_recall,
            "weighted_precision": summary.weighted_precision,
            "weighted_f1": summary.weighted_f1,
            "auroc": roc.auroc,
            "confusion": asdict(summary.confusion),
        }
    )
    if summary.degenerate:
        doc["degenerate_metrics"] = list(summary.degenerate)
    return doc, roc


def _emit_report(doc, roc, args):
    print(metrics.render_report(doc), end="")
    if args.report_out:
        _write_json(doc, args.report_out)
    if args.roc_out:
        with open(args.roc_out, "w", encoding="utf-8") as fh:
            fh.write(roc.to_csv())


def _write_json(doc, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_matrix(fm: encode.FeatureMatrix, path):
    """Write fm as CSV, each cell as `repr(float)` and the label as an int.

    The header is quoted as the csv module quotes it, since an encoded name
    such as `City=Dallas, TX` may hold a comma; the cells never need quoting.
    Each column's distinct values are formatted once.  They are keyed on
    their bit pattern, not their value, so -0.0 keeps its sign.
    """
    columns = []
    for column in fm.values.T:
        bits, inverse = np.unique(column.view(np.uint64), return_inverse=True)
        text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
        columns.append(text[inverse].tolist())
    columns.append([f"{label}\n" for label in fm.labels.tolist()])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow([*fm.column_names, fm.plan.label_name])
        fh.writelines(map(",".join, zip(*columns)))


def _parse_grid(text: str) -> tune.Grid:
    left, _, right = text.partition("x")  # no "x" leaves `right` empty, not an integer
    try:
        estimators = tuple(int(v) for v in left.split(","))
        depths = tuple(int(v) for v in right.split(","))
    except ValueError:
        raise DataError(f'grid must be integers as "E1,E2xD1,D2", got {text!r}') from None
    return tune.Grid(estimators, depths)


if __name__ == "__main__":
    sys.exit(main())
