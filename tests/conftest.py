import json

import numpy as np
import pytest
from hypothesis import strategies as st

from delayboost.cli import main
from delayboost.dataset import CONTINUOUS, Column
from delayboost.encode import EncodingPlan, FeatureMatrix


# Text as load_csv returns it: stripped (NUL is rejected on load).
TEXT = st.text(
    st.one_of(st.sampled_from(',"\n\r \t'), st.characters(codec="utf-8", exclude_characters="\0")),
).map(str.strip)


def header_names(size: int):
    """`size` distinct non-empty header names, as load_csv reads them."""
    return st.lists(TEXT.filter(bool), min_size=size, max_size=size, unique=True)


def continuous_plan(names) -> EncodingPlan:
    """The plan of continuous columns `names`, with label "label" and positive value "1"."""
    return EncodingPlan(tuple(Column(n, CONTINUOUS) for n in names), {}, frozenset(), "label", "1")


def make_matrix(values, labels, names=None) -> FeatureMatrix:
    values = np.asarray(values, dtype=np.float64)
    if names is None:
        names = tuple(f"x{i}" for i in range(values.shape[1]))
    return FeatureMatrix(values, np.asarray(labels, dtype=np.int64), continuous_plan(names))


def separable_matrix(n=200, seed=42) -> FeatureMatrix:
    """Deterministic 2-D linearly separable fixture with margin."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    y = (X @ np.array([1.5, -2.0]) + 0.5 > 0).astype(int)
    return make_matrix(X, y)


@pytest.fixture
def separable():
    return separable_matrix()


@pytest.fixture(scope="module")
def cli_model(tmp_path_factory):
    """A model that `delayboost train` saved from a 600-row `synth` extract.

    Returns (model path, data path); the data is the training extract, which
    `evaluate` and `predict` accept.
    """
    work = tmp_path_factory.mktemp("cli_model")
    data, schema, model = work / "data.csv", work / "schema.json", work / "model.json"
    assert main(["synth", "--rows", "600", "--positive-frac", "0.2", "--seed", "1",
                 "--out", str(data), "--schema-out", str(schema)]) == 0
    assert main(["train", "--input", str(data), "--schema", str(schema), "--estimators", "5",
                 "--seed", "1", "--model-out", str(model)]) == 0
    return model, data


def write_replaced(model, path, value, out):
    """Write the model file `model` to `out` with the entry at key `path` set to value."""
    doc = json.loads(model.read_text())
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    out.write_text(json.dumps(doc))
