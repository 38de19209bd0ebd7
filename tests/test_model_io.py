import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import make_matrix, separable_matrix, write_replaced
from delayboost.boost import BoostParams, decision_function, fit_gbc, predict_label
from delayboost.cli import main
from delayboost.dataset import generate_synthetic
from delayboost.encode import fit_encoding
from delayboost.errors import CorruptModelError, ModelIOError, VersionMismatchError
from delayboost.model_io import _plan_digest, load_model, save_model
from delayboost.tree import TreeParams


@pytest.fixture(scope="module")
def trained():
    fm = separable_matrix(n=50, seed=3)
    model, _ = fit_gbc(
        fm, BoostParams(estimators=8, learning_rate=0.1, tree_params=TreeParams(max_depth=2))
    )
    return model, fm


class TestRoundTrip:
    def test_predictions_identical(self, trained, tmp_path):
        model, fm = trained
        path = tmp_path / "model.json"
        save_model(model, path, {"seed": 0})
        again, metadata = load_model(path)
        assert metadata == {"seed": 0}
        assert np.array_equal(
            decision_function(model, fm.values), decision_function(again, fm.values)
        )
        assert again.f0 == model.f0
        assert again.learning_rate == model.learning_rate

    def test_two_saves_identical_bytes(self, trained, tmp_path):
        model, _ = trained
        meta = {"seed": 1, "timestamp": "2020-01-01T00:00:00"}
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, p1, meta)
        save_model(model, p2, meta)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unwritable_path(self, trained):
        model, _ = trained
        with pytest.raises(ModelIOError):
            save_model(model, "/nonexistent-dir/model.json")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelIOError):
            load_model(tmp_path / "absent.json")


class TestValidation:
    def test_version_mismatch(self, trained, tmp_path):
        model, _ = trained
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(VersionMismatchError):
            load_model(path)

    def test_truncated_file(self, trained, tmp_path):
        model, _ = trained
        path = tmp_path / "model.json"
        save_model(model, path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(CorruptModelError):
            load_model(path)

    def test_digest_mismatch(self, trained, tmp_path):
        model, _ = trained
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["schema_digest"] = "0" * 64
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptModelError):
            load_model(path)

    def test_broken_tree(self, trained, tmp_path):
        model, _ = trained
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["trees"][0]["left"] = doc["trees"][0]["left"][:-1]
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptModelError):
            load_model(path)

    def test_tree_with_a_shared_child(self, trained, tmp_path):
        model, _ = trained
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        tree = doc["trees"][0]
        tree["right"][0] = tree["left"][0]  # the root's children are one node
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptModelError):
            load_model(path)

    @pytest.mark.parametrize("tamper", ["tree", "model"])
    def test_width_mismatch(self, trained, tmp_path, tamper):
        model, _ = trained
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        if tamper == "tree":
            doc["trees"][-1]["n_features"] += 1
        else:
            doc["n_features"] += 1  # every tree still says 2
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptModelError):
            load_model(path)

    def test_null_plan_is_corrupt(self, trained, tmp_path):
        model, _ = trained
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["encoding_plan"] = None
        doc["schema_digest"] = _plan_digest(None)  # so only the plan check can reject it
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptModelError, match="carries no encoding plan"):
            load_model(path)

    def test_not_a_model(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(CorruptModelError):
            load_model(path)

    @pytest.mark.parametrize(
        "path, value, problem",
        [
            (("metadata",), [], "metadata is not a JSON object"),
            (("f0",), float("nan"), "f0 is not finite"),
            (("learning_rate",), -1, "learning_rate must be in"),
            (("learning_rate",), float("inf"), "learning_rate must be in"),
            (("trees", 0, "threshold", 0), float("inf"), "threshold is missing or not finite"),
            # the last node in preorder is a leaf
            (("trees", 0, "value", -1), float("-inf"), "malformed leaf node"),
            # every number must be a JSON number, not text or a boolean
            (("f0",), "0.1", "expected a number, got '0.1'"),
            (("learning_rate",), "0.5", "expected a number, got '0.5'"),
            (("f0",), True, "expected a number, got True"),
            (("trees", 0, "threshold", 0), "1.5", "expected a number, got '1.5'"),
            (("trees", 0, "value", -1), True, "expected a number, got True"),
        ],
    )
    def test_out_of_range_value_is_corrupt(
        self, cli_model, tmp_path, capsys, path, value, problem
    ):
        # training never writes these, and each would crash `evaluate` or skew its scores
        model, data = cli_model
        bad = tmp_path / "model.json"
        write_replaced(model, path, value, bad)
        with pytest.raises(CorruptModelError, match=problem):
            load_model(bad)
        assert main(["evaluate", "--model", str(bad), "--input", str(data)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")


def _clashing_name(plan):
    """Rename the first continuous feature column to an output column of a one-hot one."""
    column = next(c for c in plan["feature_columns"] if c[1] == "continuous")
    column[0] = f"Origin_Airport_ID={plan['categories']['Origin_Airport_ID'][0]}"


class TestMalformedPlan:
    @pytest.mark.parametrize("tamper, problem", [
        (lambda plan: plan["categories"].pop("Month"), "one entry for each categorical"),
        (lambda plan: plan["categories"].update(Month=[1, 2]),
         "'Month' must be a sorted list of distinct strings"),
        (lambda plan: plan["one_hot"].append("Bogus"), "list of categorical feature column names"),
        (lambda plan: plan.update(one_hot="Month"), "list of categorical feature column names"),
        (_clashing_name, "column name 'Origin_Airport_ID=.*' is used twice"),
    ], ids=["no-month", "numbers", "unknown-one-hot", "one-hot-string", "name-clash"])
    def test_is_corrupt(self, cli_model, tmp_path, capsys, tamper, problem):
        model, data = cli_model
        doc = json.loads(model.read_text())
        tamper(doc["encoding_plan"])
        doc["schema_digest"] = _plan_digest(doc["encoding_plan"])  # only the plan's checks apply
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(CorruptModelError, match=problem):
            load_model(bad)
        assert main(["evaluate", "--model", str(bad), "--input", str(data)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: malformed model file: ")


# A plan whose output width (one column per feature) fixes the matrix width.
PLAN = fit_encoding(generate_synthetic(40, 0.3, seed=0), one_hot=())


@st.composite
def _fit_inputs(draw):
    fitted = draw(st.booleans())  # PLAN, or make_matrix's plan of continuous columns
    d = len(PLAN.output_names) if fitted else draw(st.integers(1, 3))
    n = draw(st.integers(2, 30))
    element = st.one_of(st.integers(-3, 3).map(float), st.floats(-5.0, 5.0))
    X = draw(arrays(np.float64, (n, d), elements=element))
    y = draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    y[:2] = [0, 1]  # both classes, so the log-odds prior is finite
    fm = make_matrix(X, y)
    if fitted:
        fm = type(fm)(fm.values, fm.labels, PLAN)
    params = BoostParams(
        estimators=draw(st.integers(0, 5)),
        tree_params=TreeParams(max_depth=draw(st.integers(0, 4))),
    )
    return fm, params


class TestRoundTripProperty:
    @settings(max_examples=40, deadline=None)
    @given(_fit_inputs())
    def test_load_reproduces_scores_and_labels(self, tmp_path_factory, inputs):
        fm, params = inputs
        model, _ = fit_gbc(fm, params)
        path = tmp_path_factory.mktemp("model") / "model.json"
        save_model(model, path)
        again, _ = load_model(path)
        assert again.plan == fm.plan
        before = decision_function(model, fm.values)
        assert decision_function(again, fm.values).tobytes() == before.tobytes()
        assert np.array_equal(predict_label(again, fm.values), predict_label(model, fm.values))
