"""Command-line front end for the delay-classification pipeline.

Subcommands mirror the pipeline stages: `synth` writes a synthetic dataset,
`prepare` loads/concatenates/filters/cleans raw CSVs, `corr` prints Pearson
correlations, `balance` oversamples an encoded matrix, `train` runs
encode -> balance -> split -> boost and saves the model, `tune` grid-searches
(estimators, max depth), `evaluate` scores a saved model on labelled data,
and `predict` emits labels/probabilities/raw scores for new rows.

Each pipeline rule lives in the library module that owns it: the one-hot
and correlation defaults, Strategy 1 at --smote-percent 0 (any positive
multiple of 100 is Strategy 2), a model's input schema and the CSV field
format; subcommands only pass their flags on.  All randomness flows from
--seed: stage seeds derive as SeedSequence([seed, STAGE]) with STAGE 1 for
oversampling, 2 for the shuffle/split, and 3 for fold construction, so
reruns with one seed reproduce every stage byte for byte.  --threads
(default: every CPU this process may run on, and capped at that count) is
the number of threads `train` and `tune` fit on; a fit of fewer rows than
`tree._THREAD_ROWS` runs on one.  The threads share out each fit's
per-feature work and the winning splits are picked once all of it is done,
so outputs never depend on --threads.

Reports and predictions label a row by `boost.label_scores` at --threshold
(0.5 for train); a report's AUROC and --roc-out curve share one ROC sweep.

Exit codes: 0 success, 2 usage error (also a numeric flag out of range, found
by the code that owns its rule before any file is read), 3 data error (also a
malformed schema file, labelled input with no labelled row or of one class,
or a --train-frac that leaves a split empty), 4 numeric or training error.
A data error in an input names its file, a class too small for SMOTE or for
tune's folds among them (tune counts the rows of its training split); a
missing cell also names its data row in the file, counted from 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import asdict

import numpy as np

from . import boost, dataset, encode, metrics, model_io, resample, tree, tune
from .errors import (ClassTooSmallForFoldsError, DataError, DelayBoostError, EmptyInputError,
                     InvalidThresholdError, MinorityTooSmallError, MissingCellError,
                     SingleClassInputError, TrainingError)

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
    The model flags, `--grid` and `--smote-percent` become the command's
    `boost.BoostParams`, `tune.Grid` and `resample.SmoteConfig`, as
    `args.params`, `args.grid` and `args.smote`.
    """
    tree.worker_count(getattr(args, "threads", None))
    if getattr(args, "seed", 0) < 0:
        raise ValueError("seed must be >= 0")
    boost.label_scores((), getattr(args, "threshold", 0.5))
    if args.command == "synth":
        dataset._check_synthetic_spec(args.rows, args.positive_frac)
    if args.command == "train":
        args.params = boost.BoostParams(
            estimators=args.estimators, learning_rate=args.learning_rate,
            tree_params=tree.TreeParams(max_depth=args.max_depth,
                                        min_samples_split=args.min_samples_split,
                                        min_samples_leaf=args.min_samples_leaf))
    if args.command in ("train", "tune"):
        encode._check_train_fraction(args.train_frac)
    if args.command == "tune":  # the grid sets the estimators and the depth
        args.params = boost.BoostParams(learning_rate=args.learning_rate)
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
    p.add_argument("--drop", type=_names, default=(), metavar="COL1,COL2")
    p.add_argument("--out", required=True)
    p.add_argument("--schema-out")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("corr", help="Pearson correlations between encoded columns")
    p.add_argument("--input", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--columns", type=_names, metavar="COL1,COL2",
                   help="default: continuous features + label")
    p.add_argument("--out", help="write CSV here instead of printing a table")
    p.set_defaults(func=cmd_corr, one_hot=())

    p = sub.add_parser("balance", help="randomized-SMOTE oversample an encoded matrix")
    p.add_argument("--input", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--one-hot", type=_names, metavar="COL1,COL2")
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
    p.add_argument("--one-hot", type=_names, metavar="COL1,COL2")
    p.add_argument("--smote-percent", type=int, default=0)
    p.add_argument("--train-frac", type=float, default=0.8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int,
                   help="threads to fit on (default: every CPU this process may run on)")


def cmd_synth(args):
    ds = dataset.generate_synthetic(args.rows, args.positive_frac, args.seed)
    _write_dataset(ds, args)
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
    if args.drop:
        ds = dataset.drop_columns(ds, args.drop)
    before = ds.n_rows
    ds = dataset.drop_missing_labels(ds)
    _write_dataset(ds, args)
    balance = dataset.class_balance(ds)
    print(f"kept {ds.n_rows} of {before} rows "
          f"(negatives={balance.negatives}, positives={balance.positives})")


def cmd_corr(args):
    result = encode.pearson_matrix(_encoded_matrix(args), args.columns or None)
    if args.out:
        cells = [(np.array(result.names), str)] + [(column, repr) for column in result.matrix.T]
        dataset._write_records(args.out, ["", *result.names], cells, "\n")
    else:
        width = max(7, *map(len, result.names))  # a value such as -0.0463 takes 7
        print(" " * width + "  " + "  ".join(n.rjust(width) for n in result.names))
        for name, row in zip(result.names, result.matrix):
            print(name.rjust(width) + "  "
                  + "  ".join(f"{v:>{width}.4f}" for v in row))
    if result.degenerate:
        print(f"constant columns (correlation set to 0): "
              f"{', '.join(result.degenerate)}", file=sys.stderr)


def cmd_balance(args):
    fm = _encoded_matrix(args)
    before = np.bincount(fm.labels, minlength=2)
    fm = _oversampled(fm, args)
    _write_matrix(fm, args.out)
    after = np.bincount(fm.labels, minlength=2)
    print(f"label 1: {before[1]} -> {after[1]}; label 0: {before[0]} -> {after[0]}")


def cmd_train(args):
    split = _prepare_split(args)
    model, trace = boost.fit_gbc(split.train, args.params, threads=args.threads)

    strategy = args.smote.strategy
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
    doc, roc = _evaluation_doc(model, split.validation, threshold=0.5, strategy=strategy, extra={
        "training_rows": split.train.n_rows, "validation_rows": split.validation.n_rows,
        "training_accuracy": trace.accuracy[-1]})
    model_io.save_model(model, args.model_out, metadata)
    _emit_report(doc, roc, args)


def cmd_tune(args):
    split = _prepare_split(args)
    with _naming(args.input, ClassTooSmallForFoldsError, lambda exc: f"training split: {exc}"):
        result = tune.grid_search(split.train, grid=args.grid, folds=args.folds, base=args.params,
                                  seed=stage_seed(args.seed, FOLD_STAGE), metric=args.metric,
                                  threads=args.threads)
    print(result.render(), end="")
    if args.report_out:
        _write_json(result.to_doc(), args.report_out)


def cmd_evaluate(args):
    model, metadata = model_io.load_model(args.model)
    ds, fm = _load_with_plan(args.input, model, labelled=True)
    skipped = ds.n_rows - fm.n_rows
    doc, roc = _evaluation_doc(model, fm, threshold=args.threshold,
                               strategy=metadata.get("strategy", "unknown"),
                               extra={"rows": fm.n_rows})
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
    dataset._write_records(args.out, ["predicted_label", "probability", "decision_score"],
                           [(labels, str), (probas, repr), (scores, repr)], "\n")
    if fm.unseen_categories:
        print(f"warning: {fm.unseen_categories} cells held categories unseen "
              f"at training time", file=sys.stderr)
    print(f"wrote {labels.size} predictions to {args.out}")


def _read_schema(path) -> dataset.Schema:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return dataset.Schema.from_json(text)


def _names(text: str) -> tuple[str, ...]:
    """The names of a comma-separated flag, trimmed, with empty ones left out."""
    return tuple(c.strip() for c in text.split(",") if c.strip())


def _labelled_rows(ds: dataset.Dataset, path) -> tuple[dataset.Dataset, np.ndarray]:
    """ds without its unlabelled rows, and the index in ds of each row kept; a data
    error names `path` unless they hold both classes (so two rows or more)."""
    kept = np.flatnonzero(~ds.missing(ds.schema.label_name))
    ds = dataset.drop_missing_labels(ds)
    if ds.n_rows == 0:
        raise EmptyInputError(f"{path}: no row has a label")
    counts = dataset.class_balance(ds)
    if 0 in (counts.negatives, counts.positives):
        raise SingleClassInputError(f"{path}: need labelled rows of both classes, got "
                                    f"{counts.negatives} negative and {counts.positives} positive")
    return ds, kept


@contextlib.contextmanager
def _naming(path, error, message=str):
    """Re-raise an `error` raised inside as a data error: `path`, then `message(exc)`."""
    try:
        yield
    except error as exc:
        raise DataError(f"{path}: {message(exc)}") from None


def _cells_of(path, kept):
    """Name a missing cell by `path` and its data row in the file, from 1;
    `kept` holds the index in the file of each row encoded."""
    return _naming(path, MissingCellError, lambda exc: f"row {kept[exc.row] + 1}: {exc.detail}")


def _encoded_matrix(args) -> encode.FeatureMatrix:
    """The labelled rows of --input, encoded by a plan fit on them."""
    ds, kept = _labelled_rows(dataset.load_csv(args.input, _read_schema(args.schema)), args.input)
    with _cells_of(args.input, kept):
        return encode.apply_encoding(ds, encode.fit_encoding(ds, one_hot=args.one_hot))


def _oversampled(fm: encode.FeatureMatrix, args) -> encode.FeatureMatrix:
    """fm balanced by --smote-percent; a minority class too small names --input."""
    with _naming(args.input, MinorityTooSmallError):
        return resample.random_smote(fm, args.smote)


def _prepare_split(args) -> encode.SplitPair:
    """Encode, balance, then shuffle and split into training and validation."""
    fm = _oversampled(_encoded_matrix(args), args)
    return encode.shuffle_split(fm, args.train_frac, seed=stage_seed(args.seed, SPLIT_STAGE))


def _load_with_plan(path, model, labelled: bool):
    """Load rows for a model's plan and encode them in prediction mode.

    `labelled` input must have the label column and labelled rows of both
    classes, and loses its unlabelled rows; otherwise the label column may
    be absent and every row is kept.
    """
    ds = dataset.load_csv(path, model.plan.schema, missing_label_ok=not labelled)
    rows, kept = _labelled_rows(ds, path) if labelled else (ds, np.arange(ds.n_rows))
    with _cells_of(path, kept):
        return ds, encode.apply_encoding(rows, model.plan, training=False)


def _evaluation_doc(model, fm, threshold, strategy, extra):
    """The report document for the rows of fm, and their ROC curve."""
    scores = boost.decision_function(model, fm.values)
    pred = boost.label_scores(scores, threshold)
    summary = metrics.summarize(metrics.confusion(fm.labels, pred))
    roc = metrics.roc_auc(fm.labels, scores)
    doc = {
        "strategy": strategy,
        **extra,
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


def _write_dataset(ds: dataset.Dataset, args):
    """Write ds as the CSV --out and, with --schema-out, its schema as JSON."""
    dataset.write_csv(ds, args.out)
    if args.schema_out:
        with open(args.schema_out, "w", encoding="utf-8") as fh:
            fh.write(ds.schema.to_json() + "\n")


def _write_matrix(fm: encode.FeatureMatrix, path):
    """Write fm as CSV, each cell as `repr(float)` and the label as an int."""
    columns = [(column, repr) for column in fm.values.T] + [(fm.labels, str)]
    dataset._write_records(path, [*fm.column_names, fm.plan.label_name], columns, "\n")


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
