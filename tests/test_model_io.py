import json

import numpy as np
import pytest

from conftest import separable_matrix
from delayboost.boost import BoostParams, decision_function, fit_gbc
from delayboost.errors import CorruptModelError, ModelIOError, VersionMismatchError
from delayboost.model_io import load_model, save_model
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

    def test_not_a_model(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(CorruptModelError):
            load_model(path)
