"""Versioned JSON persistence for boosted models.

A model file carries the format version, the prior score and learning rate,
every tree as a flat node array with child indices, the encoding plan it
must embed (so prediction-time encoding needs nothing but the model file), a
SHA-256 digest of the plan, and free-form training metadata.  Serialization
is canonical: sorted keys, fixed separators, floats written with full
round-trip precision.  Saving the same model with the same metadata twice
produces identical bytes, and a load reproduces predictions bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import math

from .boost import BoostedModel, BoostParams
from .encode import EncodingPlan
from .errors import CorruptModelError, DataError, ModelIOError, VersionMismatchError
from .tree import RegressionTree, _json_int, _json_number

FORMAT_VERSION = 1


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _plan_digest(plan_doc) -> str:
    return hashlib.sha256(_canonical(plan_doc).encode("utf-8")).hexdigest()


def model_to_doc(model: BoostedModel, metadata: dict | None = None) -> dict:
    plan_doc = model.plan.to_doc()
    return {
        "format_version": FORMAT_VERSION,
        "f0": model.f0,
        "learning_rate": model.learning_rate,
        "n_features": model.n_features,
        "trees": [t.to_doc() for t in model.trees],
        "encoding_plan": plan_doc,
        "schema_digest": _plan_digest(plan_doc),
        "metadata": metadata or {},
    }


def model_from_doc(doc: dict) -> tuple[BoostedModel, dict]:
    """Rebuild (model, metadata); validates structure, values, the plan digest and widths.

    The plan is required, must pass `EncodingPlan.from_doc`'s checks, and its
    width is the model's and every tree's `n_features`.  Scores must come out
    finite, so f0, every threshold and every leaf value must be finite, and
    the learning rate must pass `BoostParams`'s rule.  Integer fields must be
    JSON integers, as a float would be truncated, and every other number a
    JSON number: text or a boolean is not read as one.
    """
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise CorruptModelError("not a model document")
    if doc["format_version"] != FORMAT_VERSION:
        raise VersionMismatchError(
            f"model format {doc['format_version']!r}, expected {FORMAT_VERSION}"
        )
    try:
        plan_doc = doc["encoding_plan"]
        if _plan_digest(plan_doc) != doc["schema_digest"]:
            raise CorruptModelError("schema digest mismatch")
        if plan_doc is None:
            raise CorruptModelError("model file carries no encoding plan")
        plan = EncodingPlan.from_doc(plan_doc)
        trees = tuple(RegressionTree.from_doc(t) for t in doc["trees"])
        model = BoostedModel(
            f0=_json_number(doc["f0"]),
            learning_rate=BoostParams(len(trees), _json_number(doc["learning_rate"])).learning_rate,
            trees=trees,
            plan=plan,
        )
        if not math.isfinite(model.f0):
            raise CorruptModelError(f"f0 is not finite: {model.f0}")
        widths = {"model": _json_int(doc["n_features"])}
        widths.update((f"tree {i}", t.n_features) for i, t in enumerate(trees))
        for part, width in widths.items():
            if width != model.n_features:
                raise CorruptModelError(
                    f"{part} has {width} features, encoding plan has {model.n_features}"
                )
        metadata = doc.get("metadata", {})
        if not isinstance(metadata, dict):
            raise CorruptModelError("metadata is not a JSON object")
        return model, metadata
    except (DataError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CorruptModelError(f"malformed model file: {exc}") from None


def save_model(model: BoostedModel, path, metadata: dict | None = None) -> None:
    """Write the model as canonical JSON.

    Raises:
        ModelIOError: the path cannot be written.
    """
    text = _canonical(model_to_doc(model, metadata))
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    except OSError as exc:
        raise ModelIOError(f"cannot write model to {path}: {exc}") from None


def load_model(path) -> tuple[BoostedModel, dict]:
    """Read a model file back; returns (model, metadata).

    Raises:
        ModelIOError: the path cannot be read.
        VersionMismatchError: unknown format version.
        CorruptModelError: the file is not UTF-8 JSON, or fails structural
            validation.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ModelIOError(f"cannot read model from {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise CorruptModelError(f"{path}: not UTF-8 text ({exc.reason})") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorruptModelError(f"not valid JSON: {exc}") from None
    return model_from_doc(doc)
