import contextlib
import csv
import io
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delayboost as db
from conftest import header_names, make_matrix, write_replaced
from delayboost.cli import (
    SMOTE_STAGE,
    SPLIT_STAGE,
    _load_with_plan,
    _write_matrix,
    main,
    stage_seed,
)
from delayboost.model_io import _plan_digest


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def workspace(tmp_path):
    assert run(
        "synth", "--rows", 150, "--positive-frac", 0.3, "--seed", 7,
        "--out", tmp_path / "data.csv", "--schema-out", tmp_path / "schema.json",
    ) == 0
    return tmp_path


def train_args(ws, **over):
    args = {
        "--input": ws / "data.csv",
        "--schema": ws / "schema.json",
        "--smote-percent": 200,
        "--seed": 3,
        "--estimators": 6,
        "--max-depth": 2,
        "--model-out": ws / "model.json",
        "--report-out": ws / "report.json",
        "--roc-out": ws / "roc.csv",
    }
    args.update(over)
    out = ["train"]
    for k, v in args.items():
        out += [k, v]
    return out


def relabelled(ws, name, labels, n_rows=None):
    """A copy ws/name of the first n_rows rows of ws/data.csv (all by default),
    whose label cells are the texts `labels` yields in turn; returns its path."""
    lines = (ws / "data.csv").read_text().splitlines()
    label = lines[0].split(",").index("Arr_Del_15")
    rows = [line.split(",") for line in lines[1:]][:n_rows]
    for cells, text in zip(rows, labels):
        cells[label] = text
    path = ws / name
    path.write_text("\n".join([lines[0]] + [",".join(c) for c in rows]) + "\n")
    return path


def without_labels(ws):
    """A copy of ws/data.csv with every label cell blanked; returns its path."""
    return relabelled(ws, "unlabelled.csv", itertools.repeat(""))


def labelled_command(ws, command, data_file, model=None):
    """The argv of a labelled subcommand on data_file; it writes only labelled_outputs(ws).

    "balance-0" is `balance` at --smote-percent 0, which writes the matrix as it is;
    "evaluate" scores the model file `model`."""
    data = ["--input", data_file, "--schema", ws / "schema.json"]
    return {
        "train": train_args(ws, **{"--input": data_file}),
        "tune": ["tune", *data, "--grid", "2x1", "--folds", 2, "--report-out", ws / "report.json"],
        "balance": ["balance", *data, "--out", ws / "out"],
        "balance-0": ["balance", *data, "--smote-percent", 0, "--out", ws / "out"],
        "corr": ["corr", *data, "--out", ws / "out"],
        "evaluate": ["evaluate", "--model", model, "--input", data_file,
                     "--report-out", ws / "report.json", "--roc-out", ws / "roc.csv"],
    }[command]


def labelled_outputs(ws):
    """Every file a `labelled_command` may write."""
    return [ws / name for name in ("model.json", "report.json", "roc.csv", "out")]


def run_quietly(*argv):
    """(exit code, stderr lines) of one `cli.main` run, its standard output discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(*argv)
    return code, err.getvalue().splitlines()


class TestPipeline:
    def test_synth_writes_csv_and_schema(self, workspace):
        header = (workspace / "data.csv").read_text().splitlines()[0]
        assert header.startswith("Month,") and header.endswith("Arr_Del_15")
        schema = json.loads((workspace / "schema.json").read_text())
        assert schema["positive_label_value"] == "1.00"

    def test_prepare_filter_and_drop(self, workspace, capsys):
        assert run(
            "prepare",
            "--input", workspace / "data.csv",
            "--schema", workspace / "schema.json",
            "--filter", "Day_of_Week=1,2,3",
            "--drop", "Flight_Num",
            "--out", workspace / "prepared.csv",
            "--schema-out", workspace / "prepared-schema.json",
        ) == 0
        out = capsys.readouterr().out
        assert "kept" in out
        header = (workspace / "prepared.csv").read_text().splitlines()[0]
        assert "Flight_Num" not in header
        days = {line.split(",")[2] for line in
                (workspace / "prepared.csv").read_text().splitlines()[1:]}
        assert days <= {"1", "2", "3"}

    def test_prepare_concatenates_inputs(self, workspace, capsys):
        assert run(
            "prepare",
            "--input", workspace / "data.csv", workspace / "data.csv",
            "--schema", workspace / "schema.json",
            "--out", workspace / "double.csv",
        ) == 0
        assert "kept 300 of 300" in capsys.readouterr().out

    def test_corr_table_and_csv(self, workspace, capsys):
        assert run(
            "corr", "--input", workspace / "data.csv",
            "--schema", workspace / "schema.json",
        ) == 0
        table = capsys.readouterr().out
        assert "CRS_Departure_Time" in table and "Arr_Del_15" in table
        assert run(
            "corr", "--input", workspace / "data.csv",
            "--schema", workspace / "schema.json",
            "--out", workspace / "corr.csv",
        ) == 0
        lines = (workspace / "corr.csv").read_text().splitlines()
        assert lines[0].split(",")[1:] == [
            "CRS_Departure_Time", "CRS_Arrival_Time", "Arr_Del_15"]
        diag = float(lines[1].split(",")[1])
        assert diag == 1.0

    @pytest.mark.parametrize("columns, same_as", [
        ("CRS_Departure_Time,Arr_Del_15,", "CRS_Departure_Time,Arr_Del_15"),
        (" ,CRS_Departure_Time,,Arr_Del_15", "CRS_Departure_Time,Arr_Del_15"),
        (",", None),
    ], ids=["trailing-comma", "empty-names", "no-names"])
    def test_corr_columns_skip_empty_names(self, workspace, columns, same_as):
        data = ["--input", workspace / "data.csv", "--schema", workspace / "schema.json"]
        assert run("corr", *data, "--columns", columns, "--out", workspace / "got.csv") == 0
        expected = ["--columns", same_as] if same_as else []  # no names: the default columns
        assert run("corr", *data, *expected, "--out", workspace / "expected.csv") == 0
        assert (workspace / "got.csv").read_bytes() == (workspace / "expected.csv").read_bytes()

    def test_balance_counts(self, workspace, capsys):
        assert run(
            "balance", "--input", workspace / "data.csv",
            "--schema", workspace / "schema.json",
            "--smote-percent", 200, "--seed", 1,
            "--out", workspace / "balanced.csv",
        ) == 0
        out = capsys.readouterr().out
        assert "label 1: 45 -> 135" in out
        rows = (workspace / "balanced.csv").read_text().splitlines()
        assert len(rows) - 1 == 105 + 135

        schema = db.Schema.from_json((workspace / "schema.json").read_text())
        ds = db.load_csv(workspace / "data.csv", schema)
        expected = db.random_smote(
            db.apply_encoding(ds, db.fit_encoding(ds)),
            db.SmoteConfig(200, seed=stage_seed(1, SMOTE_STAGE)),
        )
        assert rows[0].split(",") == [*expected.column_names, "Arr_Del_15"]
        cells = [row.split(",") for row in rows[1:]]
        values = np.array([[float(c) for c in row[:-1]] for row in cells])
        labels = np.array([int(row[-1]) for row in cells])
        assert values.view(np.uint64).tolist() == expected.values.view(np.uint64).tolist()
        assert labels.tolist() == expected.labels.tolist()

    def test_balance_writes_each_cell_as_its_repr(self, workspace):
        # A "-0" departure time must come out as "-0.0", and a "0" as "0.0".
        data = (workspace / "data.csv").read_text().splitlines()
        col = data[0].split(",").index("CRS_Departure_Time")
        for i, cell in ((1, "-0"), (2, "0"), (3, "-0")):
            cells = data[i].split(",")
            cells[col] = cell
            data[i] = ",".join(cells)
        (workspace / "data.csv").write_text("\n".join(data) + "\n")
        assert run(
            "balance", "--input", workspace / "data.csv",
            "--schema", workspace / "schema.json",
            "--smote-percent", 300, "--seed", 2,
            "--out", workspace / "balanced.csv",
        ) == 0
        schema = db.Schema.from_json((workspace / "schema.json").read_text())
        ds = db.load_csv(workspace / "data.csv", schema)
        expected = db.random_smote(
            db.apply_encoding(ds, db.fit_encoding(ds)),
            db.SmoteConfig(300, seed=stage_seed(2, SMOTE_STAGE)),
        )
        lines = [",".join([*expected.column_names, "Arr_Del_15"]) + "\n"]
        for row, label in zip(expected.values.tolist(), expected.labels.tolist()):
            lines.append(",".join(map(repr, row)) + f",{label}\n")
        written = (workspace / "balanced.csv").read_text()
        assert written == "".join(lines)
        col = expected.column_names.index("CRS_Departure_Time")
        cells = [line.split(",")[col] for line in written.splitlines()[1:4]]
        assert cells == ["-0.0", "0.0", "-0.0"]

    def test_balance_quotes_a_header_name_with_a_comma(self, tmp_path):
        # An explicit --one-hot column whose category holds a comma.
        cities = ["Dallas, TX", "Austin"] * 6
        rows = [f'"{c}",{i},{int(i % 3 == 0)}' for i, c in enumerate(cities)]
        (tmp_path / "data.csv").write_text("City,Dep,Late\n" + "\n".join(rows) + "\n")
        schema = db.Schema((db.Column("City", "categorical"), db.Column("Dep", "continuous"),
                            db.Column("Late", "label")), "1")
        (tmp_path / "schema.json").write_text(schema.to_json())
        assert run(
            "balance", "--input", tmp_path / "data.csv", "--schema", tmp_path / "schema.json",
            "--one-hot", "City", "--smote-percent", 100, "--out", tmp_path / "balanced.csv",
        ) == 0
        text = (tmp_path / "balanced.csv").read_text()
        assert text.startswith('City=Austin,"City=Dallas, TX",Dep,Late\n')
        rows = list(csv.reader(io.StringIO(text)))
        assert len(rows) == 1 + 12 + 4 and {len(row) for row in rows} == {4}

    def test_balance_quotes_a_header_name_with_a_bare_cr(self, tmp_path):
        names = ["a\rb", "c"] * 4
        rows = [f'"{n}",{i},{int(i % 3 == 0)}' for i, n in enumerate(names)]
        (tmp_path / "data.csv").write_bytes(("name,Dep,Late\n" + "\n".join(rows) + "\n").encode())
        schema = db.Schema((db.Column("name", "categorical"), db.Column("Dep", "continuous"),
                            db.Column("Late", "label")), "1")
        (tmp_path / "schema.json").write_text(schema.to_json())
        assert run(
            "balance", "--input", tmp_path / "data.csv", "--schema", tmp_path / "schema.json",
            "--one-hot", "name", "--smote-percent", 0, "--out", tmp_path / "balanced.csv",
        ) == 0
        assert (tmp_path / "balanced.csv").read_bytes().startswith(b'"name=a\rb",name=c,Dep,Late\n')
        written = db.Schema((db.Column("name=a\rb", "continuous"), db.Column("name=c", "continuous"),
                             db.Column("Dep", "continuous"), db.Column("Late", "label")), "1")
        ds = db.load_csv(tmp_path / "balanced.csv", written)
        assert ds.column("name=a\rb").tolist() == [1.0, 0.0] * 4
        assert ds.column("Dep").tolist() == list(map(float, range(8)))

    def test_corr_quotes_a_name_with_a_comma(self, tmp_path):
        rows = [f"{i},{i * i % 7},{int(i % 3 == 0)}" for i in range(8)]
        (tmp_path / "data.csv").write_text('"Dep, Time",Arr,Late\n' + "\n".join(rows) + "\n")
        schema = db.Schema((db.Column("Dep, Time", "continuous"), db.Column("Arr", "continuous"),
                            db.Column("Late", "label")), "1")
        (tmp_path / "schema.json").write_text(schema.to_json())
        assert run(
            "corr", "--input", tmp_path / "data.csv", "--schema", tmp_path / "schema.json",
            "--out", tmp_path / "corr.csv",
        ) == 0
        with open(tmp_path / "corr.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["", "Dep, Time", "Arr", "Late"]
        assert [row[0] for row in rows[1:]] == ["Dep, Time", "Arr", "Late"]
        assert {len(row) for row in rows} == {4}
        assert float(rows[1][1]) == 1.0

    def test_corr_quotes_a_name_with_a_bare_cr(self, tmp_path):
        rows = [f"{i},{i * i % 7},{int(i % 3 == 0)}" for i in range(8)]
        (tmp_path / "data.csv").write_bytes(('"Dep\rTime",Arr,Late\n' + "\n".join(rows) + "\n").encode())
        schema = db.Schema((db.Column("Dep\rTime", "continuous"), db.Column("Arr", "continuous"),
                            db.Column("Late", "label")), "1")
        (tmp_path / "schema.json").write_text(schema.to_json())
        assert run(
            "corr", "--input", tmp_path / "data.csv", "--schema", tmp_path / "schema.json",
            "--out", tmp_path / "corr.csv",
        ) == 0
        with open(tmp_path / "corr.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["", "Dep\rTime", "Arr", "Late"]
        assert [row[0] for row in rows[1:]] == ["Dep\rTime", "Arr", "Late"]

    def test_corr_table_is_aligned_for_short_names(self, tmp_path, capsys):
        # every name is shorter than a value such as -0.0463
        rows = [f"{i},{i * i % 7},{int(i % 3 == 0)}" for i in range(8)]
        (tmp_path / "data.csv").write_text("a,Month,y\n" + "\n".join(rows) + "\n")
        schema = db.Schema((db.Column("a", "continuous"), db.Column("Month", "continuous"),
                            db.Column("y", "label")), "1")
        (tmp_path / "schema.json").write_text(schema.to_json())
        assert run("corr", "--input", tmp_path / "data.csv",
                   "--schema", tmp_path / "schema.json") == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4 and "-" in lines[-1]  # a negative value is in the table
        assert {len(line) for line in lines} == {len(lines[0])}, lines

    def test_corr_names_constant_columns_on_stderr(self, tmp_path, capsys):
        rows = [f"{i},2.5,{int(i % 3 == 0)}" for i in range(6)]
        (tmp_path / "data.csv").write_text("a,b,y\n" + "\n".join(rows) + "\n")
        schema = db.Schema((db.Column("a", "continuous"), db.Column("b", "continuous"),
                            db.Column("y", "label")), "1")
        (tmp_path / "schema.json").write_text(schema.to_json())
        assert run("corr", "--input", tmp_path / "data.csv", "--schema", tmp_path / "schema.json",
                   "--out", tmp_path / "corr.csv") == 0
        assert capsys.readouterr().err == "constant columns (correlation set to 0): b\n"
        rows = list(csv.reader(io.StringIO((tmp_path / "corr.csv").read_text())))
        assert [row[2] for row in rows[1:]] == ["0.0", "0.0", "0.0"]

    def test_train_records_the_timestamp(self, workspace):
        assert run(*train_args(workspace, **{"--timestamp": "2019-06-01T00:00:00"})) == 0
        _, metadata = db.load_model(workspace / "model.json")
        assert metadata["timestamp"] == "2019-06-01T00:00:00"

    def test_evaluate_and_predict_count_skipped_and_unseen_rows(self, workspace, capsys):
        assert run(*train_args(workspace)) == 0
        # an airport the plan never saw, and a row without a label
        lines = (workspace / "data.csv").read_text().splitlines()
        header = lines[0].split(",")
        for line, name, text in ((1, "Origin_Airport_ID", "99999"), (2, "Arr_Del_15", "")):
            cells = lines[line].split(",")
            cells[header.index(name)] = text
            lines[line] = ",".join(cells)
        (workspace / "data.csv").write_text("\n".join(lines) + "\n")
        assert run(
            "evaluate", "--model", workspace / "model.json",
            "--input", workspace / "data.csv", "--report-out", workspace / "eval.json",
        ) == 0
        doc = json.loads((workspace / "eval.json").read_text())
        assert doc["rows"] == 149
        assert doc["rows_skipped_missing_label"] == 1 and doc["unseen_category_cells"] == 1
        capsys.readouterr()
        assert run(
            "predict", "--model", workspace / "model.json",
            "--input", workspace / "data.csv", "--out", workspace / "preds.csv",
        ) == 0
        assert capsys.readouterr().err == (
            "warning: 1 cells held categories unseen at training time\n")

    def test_train_evaluate_predict(self, workspace, capsys):
        assert run(*train_args(workspace)) == 0
        report = json.loads((workspace / "report.json").read_text())
        assert report["strategy"] == "Strategy 2"
        assert 0.0 <= report["auroc"] <= 1.0
        roc_lines = (workspace / "roc.csv").read_text().splitlines()
        assert roc_lines[0] == "threshold,fpr,tpr"

        assert run(
            "evaluate", "--model", workspace / "model.json",
            "--input", workspace / "data.csv",
            "--report-out", workspace / "eval.json",
        ) == 0
        eval_doc = json.loads((workspace / "eval.json").read_text())
        assert eval_doc["rows"] == 150
        assert eval_doc["strategy"] == "Strategy 2"

        assert run(
            "predict", "--model", workspace / "model.json",
            "--input", workspace / "data.csv",
            "--out", workspace / "preds.csv",
        ) == 0
        lines = (workspace / "preds.csv").read_text().splitlines()
        assert lines[0] == "predicted_label,probability,decision_score"
        assert len(lines) == 151
        first = lines[1].split(",")
        assert first[0] in ("0", "1")
        assert 0.0 <= float(first[1]) <= 1.0

    def test_predict_rows_equal_a_row_by_row_writer(self, workspace):
        assert run(*train_args(workspace)) == 0
        assert run(
            "predict", "--model", workspace / "model.json",
            "--input", workspace / "data.csv",
            "--out", workspace / "preds.csv", "--threshold", 0.4,
        ) == 0
        model, _ = db.load_model(workspace / "model.json")
        _, fm = _load_with_plan(workspace / "data.csv", model, labelled=False)
        scores = db.decision_function(model, fm.values)
        probas = db.sigmoid(scores)
        labels = db.label_scores(scores, 0.4)
        rows = "".join(
            f"{int(lab)},{float(p)!r},{float(s)!r}\n" for lab, p, s in zip(labels, probas, scores)
        )
        expected = "predicted_label,probability,decision_score\n" + rows
        assert (workspace / "preds.csv").read_text(encoding="utf-8") == expected

    def test_predict_without_label_column(self, workspace):
        assert run(*train_args(workspace)) == 0
        data = (workspace / "data.csv").read_text().splitlines()
        header = data[0].split(",")
        keep = [i for i, name in enumerate(header) if name != "Arr_Del_15"]
        stripped = [",".join(line.split(",")[i] for i in keep) for line in data]
        (workspace / "nolabel.csv").write_text("\n".join(stripped) + "\n")
        assert run(
            "predict", "--model", workspace / "model.json",
            "--input", workspace / "nolabel.csv",
            "--out", workspace / "preds2.csv",
        ) == 0
        assert len((workspace / "preds2.csv").read_text().splitlines()) == 151

    def test_strategy_1_marker(self, workspace):
        assert run(*train_args(workspace, **{"--smote-percent": 0})) == 0
        report = json.loads((workspace / "report.json").read_text())
        assert report["strategy"] == "Strategy 1"

    def test_tune_summary(self, workspace, capsys):
        assert run(
            "tune", "--input", workspace / "data.csv",
            "--schema", workspace / "schema.json",
            "--grid", "2,4x1,2", "--folds", 2, "--seed", 5,
            "--report-out", workspace / "grid.json",
        ) == 0
        out = capsys.readouterr().out
        assert "mean_accuracy" in out and "best:" in out
        doc = json.loads((workspace / "grid.json").read_text())
        assert len(doc["cells"]) == 4


class TestExitCodes:
    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            run("train")  # missing required flags
        assert exc.value.code == 2

    def test_unknown_subcommand_is_2(self):
        with pytest.raises(SystemExit) as exc:
            run("frobnicate")
        assert exc.value.code == 2

    def test_data_error_is_3(self, workspace, capsys):
        code = run(
            "prepare", "--input", workspace / "missing.csv",
            "--schema", workspace / "schema.json",
            "--out", workspace / "x.csv",
        )
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_empty_csv_is_3(self, workspace):
        (workspace / "empty.csv").write_text("")
        code, err = run_quietly(*train_args(workspace, **{"--input": workspace / "empty.csv"}))
        assert code == 3 and err == [f"error: {workspace / 'empty.csv'}: empty file, header required"]
        assert not (workspace / "model.json").exists()

    def test_evaluate_without_a_labelled_row_is_3(self, workspace):
        assert run(*train_args(workspace)) == 0
        unlabelled = without_labels(workspace)
        code, err = run_quietly(
            "evaluate", "--model", workspace / "model.json", "--input", unlabelled,
            "--report-out", workspace / "eval.json", "--roc-out", workspace / "eval-roc.csv")
        assert code == 3 and err == [f"error: {unlabelled}: no row has a label"]
        assert not (workspace / "eval.json").exists()
        assert not (workspace / "eval-roc.csv").exists()

    @pytest.mark.parametrize("rows", ["header-only", "labels-blanked"])
    @pytest.mark.parametrize("command", ["train", "tune", "balance", "balance-0", "corr"])
    def test_input_without_a_labelled_row_is_3(self, workspace, command, rows):
        # each labelled subcommand drops unlabelled rows by one rule, and a file
        # with none left is a data error that names it, before any output is written
        if rows == "header-only":
            bad = workspace / "header.csv"
            bad.write_text((workspace / "data.csv").read_text().splitlines()[0] + "\n")
        else:
            bad = without_labels(workspace)
        code, err = run_quietly(*labelled_command(workspace, command, bad))
        assert code == 3 and err == [f"error: {bad}: no row has a label"]
        assert not any(path.exists() for path in labelled_outputs(workspace))

    @pytest.mark.parametrize("rows, label, counts", [
        ("one-row", "1.00", "0 negative and 1 positive"),
        ("one-class", "0.00", "150 negative and 0 positive"),
    ])
    @pytest.mark.parametrize("command",
                             ["train", "tune", "balance", "balance-0", "corr", "evaluate"])
    def test_input_of_one_class_is_3(self, workspace, cli_model, command, rows, label, counts):
        # one row, or rows of one class, cannot be fitted, balanced, correlated
        # with the label or given an ROC curve: a data error naming the file,
        # before any output is written
        bad = relabelled(workspace, f"{rows}.csv", itertools.repeat(label),
                         1 if rows == "one-row" else None)
        code, err = run_quietly(*labelled_command(workspace, command, bad, cli_model[0]))
        assert code == 3
        assert err == [f"error: {bad}: need labelled rows of both classes, got {counts}"]
        assert not any(path.exists() for path in labelled_outputs(workspace))

    @pytest.mark.parametrize("positives", [1, 2])
    @pytest.mark.parametrize("command", ["balance", "train", "tune"])
    def test_class_too_small_is_named_with_its_file(self, workspace, command, positives):
        # SMOTE takes 3 minority rows, and tune's 3 folds a row of each class
        # apiece, counted in the training split: a data error naming the file
        bad = relabelled(workspace, "few.csv", ["1.00"] * positives + ["0.00"] * 150)
        if command == "tune":
            argv = ["tune", "--input", bad, "--schema", workspace / "schema.json",
                    "--grid", "2x1", "--report-out", workspace / "report.json"]
            ids = make_matrix(np.arange(150.0)[:, None], np.zeros(150, dtype=np.int64))
            train = db.shuffle_split(ids, 0.8, seed=stage_seed(0, SPLIT_STAGE)).train
            n = int((train.values[:, 0] < positives).sum())
            what = f"training split: class 1 has {n} row{'s' * (n != 1)}, fewer than 3 folds"
        else:
            argv = labelled_command(workspace, command, bad)  # both at --smote-percent 200
            what = f"minority class has {positives} row{'s' * (positives != 1)}, need at least 3"
        code, err = run_quietly(*argv)
        assert code == 3 and err == [f"error: {bad}: {what}"]
        assert not any(path.exists() for path in labelled_outputs(workspace))

    @pytest.mark.parametrize("command, flags", [
        ("train", ["--estimators", 3, "--model-out", "m.json", "--report-out", "r.json"]),
        ("tune", ["--grid", "2x1", "--folds", 2, "--report-out", "r.json"]),
    ])
    def test_train_frac_that_leaves_no_training_row_is_3(
            self, workspace, monkeypatch, command, flags):
        # floor(0.001 * 150) is 0: the data and the flag are at fault, not the fit
        monkeypatch.chdir(workspace)
        code, err = run_quietly(command, "--input", "data.csv", "--schema", "schema.json",
                                "--train-frac", 0.001, *flags)
        assert code == 3 and err == [
            "error: train fraction 0.001 of 150 rows leaves 0 training and 150 validation rows"]
        assert not (workspace / "m.json").exists() and not (workspace / "r.json").exists()

    @pytest.mark.parametrize("command", [
        "evaluate", "predict", "train", "prepare", "corr", "balance", "tune"])
    def test_non_utf8_csv_is_3(self, workspace, command):
        bad, out = workspace / "bad.csv", workspace / "out.csv"
        bad.write_bytes((workspace / "data.csv").read_bytes() + b"1,\xe9\n")
        assert run(*train_args(workspace)) == 0
        model = ["--model", workspace / "model.json", "--input", bad]
        data = ["--input", bad, "--schema", workspace / "schema.json"]
        argv = {
            "evaluate": ["evaluate", *model],
            "predict": ["predict", *model, "--out", out],
            "train": train_args(workspace, **{"--input": bad, "--model-out": out}),
            "prepare": ["prepare", *data, "--out", out],
            "corr": ["corr", *data],
            "balance": ["balance", *data, "--out", out],
            "tune": ["tune", *data, "--grid", "2x1", "--folds", 2, "--report-out", out],
        }[command]
        code, err = run_quietly(*argv)
        assert code == 3
        assert err == [f"error: {bad}: not UTF-8 text (invalid continuation byte)"]
        assert not out.exists()

    def test_non_utf8_schema_is_3(self, workspace):
        schema = workspace / "schema.json"
        schema.write_bytes(schema.read_bytes().replace(b"Month", b"M\xe9nth"))
        code, err = run_quietly(
            "prepare", "--input", workspace / "data.csv", "--schema", schema,
            "--out", workspace / "x.csv")
        assert code == 3 and err == [f"error: {schema}: not UTF-8 text (invalid continuation byte)"]

    def test_non_utf8_model_is_3(self, cli_model):
        model, data = cli_model
        bad = model.with_name("latin1.json")
        bad.write_bytes(model.read_bytes().replace(b'"strategy"', b'"str\xe9tegy"'))
        code, err = run_quietly("evaluate", "--model", bad, "--input", data)
        assert code == 3 and err == [f"error: {bad}: not UTF-8 text (invalid continuation byte)"]

    @pytest.mark.parametrize("key, value, message", [
        (None, None, "model file carries no encoding plan"),
        ("positive_label_value", 1, "positive_label_value 1 is not a string"),
        ("label_name", 7, "column name 7 is not a string"),
        ("feature_columns", [[3, "continuous"]], "column name 3 is not a string"),
    ], ids=["no-plan", "numeric-positive-value", "numeric-label-name", "numeric-column-name"])
    def test_bad_plan_is_3(self, cli_model, key, value, message):
        model, data = cli_model
        bad = model.with_name("bad-plan.json")
        doc = json.loads(model.read_text())
        if key is None:
            doc["encoding_plan"] = None
        else:
            doc["encoding_plan"][key] = value
        # the digest matches, so only the plan's own checks can reject it
        doc["schema_digest"] = _plan_digest(doc["encoding_plan"])
        bad.write_text(json.dumps(doc))
        code, err = run_quietly("evaluate", "--model", bad, "--input", data)
        assert code == 3 and len(err) == 1 and message in err[0], err

    def test_one_hot_name_clash_is_3(self, tmp_path):
        # one-hot A writes "A=x", which the continuous column A=x already names
        (tmp_path / "data.csv").write_text("A,A=x,y\nx,1.5,1\nz,2.5,0\nx,0.5,0\nz,3.0,1\n")
        schema = db.Schema((db.Column("A", "categorical"), db.Column("A=x", "continuous"),
                            db.Column("y", "label")), "1")
        (tmp_path / "schema.json").write_text(schema.to_json())
        out = tmp_path / "balanced.csv"
        code, err = run_quietly("balance", "--input", tmp_path / "data.csv",
                                "--schema", tmp_path / "schema.json", "--one-hot", "A",
                                "--smote-percent", 0, "--out", out)
        assert code == 3 and err == [
            "error: column name 'A=x' is used twice among the encoded columns and the label"]
        assert not out.exists()

    @pytest.mark.parametrize("path, value", [
        (("trees", 0, "feature", 0), 5.5),
        (("trees", 0, "left", 0), 1.5),
        (("trees", 0, "right", 0), 2.0),
        (("trees", 0, "n_features"), 26.9),
        (("n_features",), 26.9),
        (("n_features",), True),
    ], ids=["feature", "left", "right", "tree-width", "model-width", "bool-width"])
    def test_non_integer_model_field_is_3(self, cli_model, path, value):
        model, data = cli_model
        bad = model.with_name("non-integer.json")
        write_replaced(model, path, value, bad)
        code, err = run_quietly("evaluate", "--model", bad, "--input", data)
        assert code == 3
        assert err == [f"error: malformed model file: expected an integer, got {value!r}"]

    def test_failed_train_leaves_no_model(self, tmp_path):
        # 20 rows, 4 positive: the 2-row validation split holds one class.
        data, schema, model = tmp_path / "d.csv", tmp_path / "s.json", tmp_path / "m.json"
        assert run("synth", "--rows", 20, "--positive-frac", 0.2, "--seed", 3,
                   "--out", data, "--schema-out", schema) == 0
        code, err = run_quietly("train", "--input", data, "--schema", schema,
                                "--train-frac", 0.9, "--seed", 1, "--model-out", model)
        assert code == 3 and err == ["error: ROC needs both classes present"]
        assert not model.exists()

    @pytest.mark.parametrize("command, flags", [
        ("train", ["--estimators", 3, "--model-out", "m.json"]),
        ("tune", ["--grid", "2x1", "--folds", 2]),
    ])
    def test_schema_of_only_the_label_is_3(self, tmp_path, monkeypatch, command, flags):
        monkeypatch.chdir(tmp_path)
        assert run("synth", "--rows", 300, "--seed", 1,
                   "--out", "d.csv", "--schema-out", "s.json") == 0
        doc = json.loads((tmp_path / "s.json").read_text())
        doc["columns"] = [c for c in doc["columns"] if c["kind"] == "label"]
        (tmp_path / "s.json").write_text(json.dumps(doc))
        code, err = run_quietly(command, "--input", "d.csv", "--schema", "s.json", *flags)
        assert code == 3
        assert err == ["error: cannot fit a tree on a matrix with no feature columns"]
        assert not (tmp_path / "m.json").exists()

    def test_filter_syntax_error_is_3(self, workspace, capsys):
        code = run(
            "prepare", "--input", workspace / "data.csv",
            "--schema", workspace / "schema.json",
            "--filter", "bogus-rule",
            "--out", workspace / "x.csv",
        )
        assert code == 3

    def test_training_error_is_4(self, workspace):
        # the file holds both classes, but its one positive row lands in the
        # validation split: the training split's log-odds prior is undefined
        ids = make_matrix(np.arange(150.0)[:, None], np.zeros(150, dtype=np.int64))
        split = db.shuffle_split(ids, 0.8, seed=stage_seed(3, SPLIT_STAGE))
        positive = int(split.validation.values[0, 0])
        labels = ["1.00" if i == positive else "0.00" for i in range(150)]
        bad = relabelled(workspace, "one-positive.csv", labels)
        code, err = run_quietly(*train_args(workspace, **{"--input": bad, "--smote-percent": 0}))
        assert code == 4 and err == ["error: training data must contain both classes"]
        assert not (workspace / "model.json").exists()

    def test_third_label_value_is_3(self, workspace, capsys):
        assert run(*train_args(workspace)) == 0
        data = (workspace / "data.csv").read_text().splitlines()
        data[-1] = data[-1].rsplit(",", 1)[0] + ",2.00"
        (workspace / "three.csv").write_text("\n".join(data) + "\n")
        assert run(*train_args(workspace, **{"--input": workspace / "three.csv"})) == 3
        assert run(
            "evaluate", "--model", workspace / "model.json",
            "--input", workspace / "three.csv",
        ) == 3
        assert capsys.readouterr().err.count("'2.00' matches neither") == 2

    def test_corrupt_model_is_3(self, workspace, capsys):
        (workspace / "bad.json").write_text("{not json")
        code = run(
            "evaluate", "--model", workspace / "bad.json",
            "--input", workspace / "data.csv",
        )
        assert code == 3

    def test_model_wider_than_its_plan_is_3(self, workspace, capsys):
        assert run(*train_args(workspace)) == 0
        path = workspace / "model.json"
        doc = json.loads(path.read_text())
        doc["n_features"] += 1
        for tree in doc["trees"]:
            tree["n_features"] += 1
        path.write_text(json.dumps(doc))
        code = run("evaluate", "--model", path, "--input", workspace / "data.csv")
        assert code == 3
        assert "encoding plan has" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "{not json",
        '{"positive_label_value": "1.00"}',
        '{"columns": [{"name": "y", "kind": "label"}]}',
        '{"columns": [{"name": "y", "kind": "ordinal"}], "positive_label_value": "1"}',
        '{"columns": [{"name": "y", "kind": "label"}, {"name": "y", "kind": "label"}],'
        ' "positive_label_value": "1"}',
        '{"columns": [{"name": "x", "kind": "categorical"}], "positive_label_value": "1"}',
        '{"columns": [{"name": "Arr_Del_15", "kind": "label"}], "positive_label_value": 1}',
        '{"columns": [{"name": 1, "kind": "label"}], "positive_label_value": "1"}',
    ], ids=["not-json", "no-columns", "no-positive-value", "unknown-kind",
            "duplicate-names", "no-label", "numeric-positive-value", "numeric-name"])
    def test_malformed_schema_is_3(self, workspace, capsys, text):
        (workspace / "bad-schema.json").write_text(text)
        code = run(
            "prepare", "--input", workspace / "data.csv",
            "--schema", workspace / "bad-schema.json",
            "--out", workspace / "x.csv",
        )
        assert code == 3
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command, flag, value", [
        ("train", "--learning-rate", 0),
        ("train", "--estimators", -1),
        ("train", "--max-depth", -1),
        ("train", "--min-samples-split", 1),
        ("train", "--min-samples-leaf", 0),
        ("tune", "--learning-rate", 2),
    ])
    def test_model_flag_out_of_range_is_2(self, workspace, capsys, command, flag, value):
        if command == "train":
            argv = train_args(workspace, **{flag: value})
        else:
            argv = ["tune", "--input", workspace / "data.csv",
                    "--schema", workspace / "schema.json", "--grid", "2x1",
                    "--folds", 2, flag, value, "--report-out", workspace / "grid.json"]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be") and err.count("\n") == 1
        assert not (workspace / "model.json").exists()
        assert not (workspace / "grid.json").exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("tune", "--folds", 1),
        ("tune", "--grid", "0x1"),
        ("tune", "--grid", "5,3x2"),
        ("tune", "--grid", "5;3"),
        ("train", "--train-frac", 1),
        ("train", "--train-frac", 0),
        ("synth", "--rows", 5),
        ("synth", "--positive-frac", 1.5),
        ("synth", "--positive-frac", 0.01),
        ("train", "--smote-percent", 150),
        ("balance", "--smote-percent", -100),
        ("train", "--threads", 0),
        ("synth", "--seed", -1),
        ("balance", "--seed", -1),
        ("train", "--seed", -1),
        ("tune", "--seed", -1),
    ])
    def test_flag_out_of_range_is_2(self, workspace, capsys, command, flag, value):
        out = workspace / "out.csv"
        data = ["--input", workspace / "data.csv", "--schema", workspace / "schema.json"]
        argv = {  # the flag under test comes last, so it overrides a default given earlier
            "synth": ["synth", "--rows", 50, "--out", out],
            "balance": ["balance", *data, "--out", out],
            "train": train_args(workspace, **{"--model-out": out}),
            "tune": ["tune", *data, "--report-out", out],
        }[command] + [flag, value]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command, threshold", [
        ("evaluate", 2), ("predict", 0), ("predict", 1.5),
    ])
    def test_threshold_out_of_range_is_2(self, workspace, capsys, command, threshold):
        assert run(*train_args(workspace)) == 0
        argv = [command, "--model", workspace / "model.json",
                "--input", workspace / "data.csv", "--threshold", threshold]
        if command == "predict":
            argv += ["--out", workspace / "preds.csv"]
        assert run(*argv) == 2
        assert "threshold must be in (0, 1)" in capsys.readouterr().err
        assert not (workspace / "preds.csv").exists()


class TestCsvInput:
    @pytest.mark.parametrize("cell, message", [
        ('"1.00', "line 4: quote opened here is never closed"),
        ('1"00', "line 4: quote inside an unquoted field"),
        ('"1.00"x', "line 4: text after a closing quote"),
    ], ids=["unterminated", "inside-unquoted", "after-closing"])
    def test_quote_outside_the_rule_is_3(self, workspace, cell, message):
        lines = (workspace / "data.csv").read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + "," + cell
        bad = workspace / "quoted.csv"
        bad.write_text("\n".join(lines) + "\n")
        code, err = run_quietly(
            "prepare", "--input", bad, "--schema", workspace / "schema.json",
            "--out", workspace / "prepared.csv")
        assert code == 3 and err == [f"error: {bad}: {message}"]
        assert not (workspace / "prepared.csv").exists()

    def test_blank_lines_are_skipped(self, workspace):
        lines = (workspace / "data.csv").read_text().splitlines()
        spaced = workspace / "spaced.csv"
        spaced.write_text("\n".join(lines[:5] + [""] + lines[5:]) + "\n\n")
        for name, path in (("plain.csv", workspace / "data.csv"), ("spaced-out.csv", spaced)):
            assert run("prepare", "--input", path, "--schema", workspace / "schema.json",
                       "--out", workspace / name) == 0
        assert (workspace / "spaced-out.csv").read_bytes() == (workspace / "plain.csv").read_bytes()


    def test_a_bad_cell_is_named_with_its_file(self, workspace):
        lines = (workspace / "data.csv").read_text().splitlines()
        cells = lines[2].split(",")
        cells[lines[0].split(",").index("CRS_Departure_Time")] = "abc"
        lines[2] = ",".join(cells)
        bad = workspace / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        code, err = run_quietly(
            "prepare", "--input", workspace / "data.csv", bad,
            "--schema", workspace / "schema.json", "--out", workspace / "prepared.csv")
        assert code == 3 and err == [
            f"error: {bad}: line 3: non-numeric value 'abc' in continuous column "
            "'CRS_Departure_Time'"]

    @pytest.mark.parametrize("command", ["train", "evaluate", "predict"])
    def test_a_missing_cell_is_named_by_its_file_and_row(self, cli_model, tmp_path, command):
        # lines 2 and 3 lose their labels, line 7 its Month: the cell is on
        # line 7 of the file, whichever rows a subcommand keeps
        model, data = cli_model
        lines = data.read_text().splitlines()
        header = lines[0].split(",")
        for line, name in ((2, "Arr_Del_15"), (3, "Arr_Del_15"), (7, "Month")):
            cells = lines[line - 1].split(",")
            cells[header.index(name)] = ""
            lines[line - 1] = ",".join(cells)
        bad = tmp_path / "missing.csv"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        code, err = run_quietly(*{
            "train": ["train", "--input", bad, "--schema", data.parent / "schema.json",
                      "--estimators", 2, "--model-out", out],
            "evaluate": ["evaluate", "--model", model, "--input", bad, "--report-out", out],
            "predict": ["predict", "--model", model, "--input", bad, "--out", out],
        }[command])
        assert code == 3 and err == [f"error: {bad}: line 7: missing value in column 'Month'"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "evaluate", "predict"])
    def test_a_missing_and_a_bad_cell_name_one_line_alike(self, cli_model, tmp_path, command):
        # with a blank line after the header, data row 6 is on line 8, and
        # both errors count the file's lines
        model, data = cli_model
        lines = data.read_text().splitlines()
        header = lines[0].split(",")
        for name, value, detail in (
                ("Month", "", "missing value in column 'Month'"),
                ("CRS_Departure_Time", "abc",
                 "non-numeric value 'abc' in continuous column 'CRS_Departure_Time'")):
            cells = lines[6].split(",")
            cells[header.index(name)] = value
            bad = tmp_path / f"{name}.csv"
            bad.write_text("\n".join([lines[0], "", *lines[1:6], ",".join(cells), *lines[7:]])
                           + "\n")
            code, err = run_quietly(*{
                "train": ["train", "--input", bad, "--schema", data.parent / "schema.json",
                          "--estimators", 2, "--model-out", tmp_path / "out"],
                "evaluate": ["evaluate", "--model", model, "--input", bad],
                "predict": ["predict", "--model", model, "--input", bad,
                            "--out", tmp_path / "out"],
            }[command])
            assert code == 3 and err == [f"error: {bad}: line 8: {detail}"]


_FLOAT = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([0.0, -0.0, 5e-324, -1e-310]))


@st.composite
def _balanced_matrices(draw):
    """A FeatureMatrix as `balance` writes it, with random names and values."""
    *features, label = draw(header_names(draw(st.integers(1, 5))))
    n = draw(st.integers(0, 8))
    values = draw(st.lists(st.lists(_FLOAT, min_size=len(features), max_size=len(features)),
                           min_size=n, max_size=n))
    plan = db.EncodingPlan(tuple(db.Column(f, "continuous") for f in features), {},
                           frozenset(), label, "1")
    return db.FeatureMatrix(np.array(values, dtype=np.float64).reshape(n, len(features)),
                            draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), plan)


class TestBalancedFile:
    @settings(max_examples=100, deadline=None)
    @given(_balanced_matrices())
    def test_loads_back_bit_for_bit(self, tmp_path_factory, fm):
        path = tmp_path_factory.mktemp("balanced") / "balanced.csv"
        _write_matrix(fm, path)
        schema = db.Schema((*fm.plan.feature_columns, db.Column(fm.plan.label_name, "label")), "1")
        ds = db.load_csv(path, schema)
        assert [ds.column(c.name).view(np.uint64).tolist() for c in fm.plan.feature_columns] == [
            c.view(np.uint64).tolist() for c in fm.values.T]
        assert ds.column(fm.plan.label_name).tolist() == list(map(str, fm.labels.tolist()))


def _scalar_paths(doc, path=()):
    """The key path of every scalar (and empty container) in a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    paths = [p for key, value in items for p in _scalar_paths(value, path + (key,))]
    return paths or [path]


class TestFuzzedModelFile:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_one_bad_scalar_exits_3_or_scores_finitely(self, cli_model, data):
        model, csv = cli_model
        # pick a top-level key first, so the few top-level scalars are drawn
        # as often as the many inside the trees and the plan
        paths = _scalar_paths(json.loads(model.read_text()))
        top = data.draw(st.sampled_from(sorted({p[0] for p in paths})))
        path = data.draw(st.sampled_from([p for p in paths if p[0] == top]))
        value = data.draw(st.sampled_from(
            [float("nan"), float("inf"), float("-inf"), -1, 0, 0.5, 2, 24.5, [], "x", None]))
        bad = model.with_name("fuzzed.json")
        write_replaced(model, path, value, bad)
        if top == "encoding_plan":  # a matching digest lets the plan's own checks run
            doc = json.loads(bad.read_text())
            doc["schema_digest"] = _plan_digest(doc["encoding_plan"])
            bad.write_text(json.dumps(doc))

        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["evaluate", "--model", str(bad), "--input", str(csv)])
        assert code in (0, 3), (path, value)
        if code == 3:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), lines
        else:
            loaded, _ = db.load_model(bad)
            _, fm = _load_with_plan(csv, loaded, labelled=True)
            assert np.isfinite(db.decision_function(loaded, fm.values)).all(), (path, value)


@st.composite
def one_csv_edit(draw, lines):
    """`lines` (a CSV's lines, header first) as UTF-8 bytes after one random edit:
    a field replaced with random text, a row cut short or made longer, a byte
    from 0x80-0xFF inserted, or a blank line added."""
    lines = list(lines)
    i = draw(st.integers(0, len(lines) - 1))
    cells = lines[i].split(",")
    kind = draw(st.sampled_from(["field", "arity", "byte", "blank"]))
    if kind == "field":
        cells[draw(st.integers(0, len(cells) - 1))] = draw(st.text(max_size=6))
        lines[i] = ",".join(cells)
    elif kind == "arity":
        cut = draw(st.integers(1, len(cells) - 1))
        lines[i] = ",".join(cells[:-cut] if draw(st.booleans()) else cells + ["7"] * cut)
    elif kind == "blank":
        lines.insert(i, "")
    data = ("\n".join(lines) + "\n").encode("utf-8")
    if kind == "byte":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + bytes([draw(st.integers(0x80, 0xFF))]) + data[at:]
    return data


class TestFuzzedCsvFile:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_one_edit_exits_0_3_or_4(self, cli_model, data):
        model, clean = cli_model
        schema, csv_path = model.with_name("schema.json"), model.with_name("fuzzed.csv")
        csv_path.write_bytes(data.draw(one_csv_edit(clean.read_text().splitlines()[:81])))
        model_out = model.with_name("fuzzed-model.json")
        model_out.unlink(missing_ok=True)
        for argv in (
            ["evaluate", "--model", model, "--input", csv_path],
            ["train", "--input", csv_path, "--schema", schema, "--estimators", 3,
             "--max-depth", 2, "--model-out", model_out],
        ):
            code, err = run_quietly(*argv)
            assert code in (0, 3, 4), (argv[0], err)
            if code:
                assert len(err) == 1 and err[0].startswith("error: "), (argv[0], err)
        assert model_out.exists() == (code == 0)


class TestDeterminism:
    def test_same_seed_identical_outputs(self, workspace):
        assert run(*train_args(workspace)) == 0
        first = {
            name: (workspace / name).read_bytes()
            for name in ("model.json", "report.json", "roc.csv")
        }
        assert run(*train_args(workspace)) == 0
        for name, blob in first.items():
            assert (workspace / name).read_bytes() == blob, name

    def test_thread_flag_does_not_change_outputs(self, workspace):
        assert run(*train_args(workspace), "--threads", 1) == 0
        blob = (workspace / "model.json").read_bytes()
        assert run(*train_args(workspace), "--threads", 4) == 0
        assert (workspace / "model.json").read_bytes() == blob

    def test_different_seed_changes_model(self, workspace):
        assert run(*train_args(workspace)) == 0
        blob = (workspace / "model.json").read_bytes()
        assert run(*train_args(workspace, **{"--seed": 99})) == 0
        assert (workspace / "model.json").read_bytes() != blob
