"""End-to-end flow: train per-group classifiers, estimate priorities, fuse.

Training fits one standardizer and one classifier per feature group, scores
each group by k-fold CV accuracy (its priority), and optionally trains a
stacking meta-classifier (out-of-fold stacking learns from the held-out
probabilities of those same k folds). Prediction standardizes each group with
the training statistics, collects per-group probability vectors, and combines
them with the configured strategy. Also provides the single-classifier
feature-concatenation baseline and versioned, checksummed model persistence.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import secrets
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from . import classifiers, crossval, ensemble
from .core import (
    GroupView,
    LabelSpace,
    MultiViewDataset,
    Standardizer,
    class_indices,
    frozen_array,
    integer,
    persisted_array,
    real,
    standardize_apply,
    standardize_fit,
)
from .errors import (
    BadSpec,
    CorruptModel,
    DataError,
    DimensionMismatch,
    GroupSchemaMismatch,
    MisalignedGroup,
    VersionMismatch,
)

MODEL_FORMAT_VERSION = 5


@dataclass(frozen=True)
class GroupModel:
    """One group's fitted pieces: its name, standardizer and classifier, and
    its priority (mean k-fold CV accuracy, always in [0, 1])."""

    name: str
    standardizer: Standardizer
    classifier: classifiers.FittedClassifier
    priority: float

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise BadSpec(f"group name must be a non-empty string, got {self.name!r}")
        object.__setattr__(self, "priority", real(self.priority, "priority"))
        if not 0.0 <= self.priority <= 1.0:
            raise BadSpec(f"priority must be in [0, 1], got {self.priority!r}")


@dataclass(frozen=True)
class TrainedEnsemble:
    per_group: tuple[GroupModel, ...]
    strategy: ensemble.EnsembleStrategy
    meta: Optional[classifiers.FittedClassifier]
    label_space: LabelSpace

    def __post_init__(self):
        names = self.group_names
        if not names or len(set(names)) < len(names):
            raise BadSpec(f"per_group must name one or more groups, each once, got {list(names)}")
        if (self.meta is not None) != (self.strategy.kind == "stacking"):
            raise BadSpec("meta classifier present iff strategy is stacking")
        width = len(self.per_group) * self.label_space.m
        if self.meta is not None and self.meta.input_dim != width:
            raise BadSpec(
                f"meta input_dim {self.meta.input_dim}, expected "
                f"{len(self.per_group)} groups x {self.label_space.m} classes"
            )

    @property
    def group_names(self) -> tuple[str, ...]:
        return tuple(gm.name for gm in self.per_group)

    @property
    def priority_values(self) -> tuple[float, ...]:
        return tuple(gm.priority for gm in self.per_group)


@dataclass(frozen=True)
class Prediction:
    sample_id: str
    scores: np.ndarray
    decided: int
    per_group_probs: tuple[np.ndarray, ...]


@dataclass(frozen=True, eq=False)
class PredictionBatch:
    """n predictions held by column: the ``sample_ids`` (str), the (n, m)
    fused ``scores``, the n ``decided`` class indices, and one (n, m)
    probability matrix per group in ``per_group_probs``. Every array is
    read-only. ``len`` is n; iteration yields row i of each column as a
    ``Prediction``, and there is no indexing."""

    sample_ids: tuple[str, ...]
    scores: np.ndarray
    decided: np.ndarray
    per_group_probs: tuple[np.ndarray, ...]

    def __post_init__(self):
        ids = tuple(map(str, self.sample_ids))
        scores = frozen_array(self.scores)
        if scores.ndim != 2 or scores.shape[0] != len(ids):
            raise DimensionMismatch(f"scores of shape {scores.shape} for {len(ids)} sample ids")
        decided = class_indices(self.decided, "decided class", scores.shape[1])
        if decided.shape != (len(ids),):
            raise DimensionMismatch(f"decided of shape {decided.shape} for {len(ids)} sample ids")
        decided.setflags(write=False)
        probs = tuple(map(frozen_array, self.per_group_probs))
        if not probs or any(p.shape != scores.shape for p in probs):
            raise DimensionMismatch(
                f"per_group_probs must be one or more matrices of shape {scores.shape}, "
                f"got {[p.shape for p in probs]}"
            )
        object.__setattr__(self, "sample_ids", ids)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "decided", decided)
        object.__setattr__(self, "per_group_probs", probs)

    def __len__(self) -> int:
        return len(self.sample_ids)

    def __iter__(self) -> Iterator[Prediction]:
        return map(
            Prediction, self.sample_ids, self.scores, self.decided.tolist(),
            zip(*self.per_group_probs),
        )


def _checksum(payload: dict) -> str:
    """sha256 of the canonical JSON form of ``payload``."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class GroupFit:
    """One group's training-time fit: its deployable model, plus the
    standardized training features and their out-of-fold probabilities that
    stacking's meta-classifier may train on. Both arrays are read-only, so a
    fit can be shared."""

    model: GroupModel
    X: np.ndarray
    oof: np.ndarray


def fit_groups(
    train: MultiViewDataset, spec: classifiers.ClassifierSpec, k: int, seed: int
) -> list[GroupFit]:
    """Per group: standardize, fit on every row, then cross-fit on the k
    stratified folds that give both its priority and its out-of-fold rows."""
    y, labels = train.labels, train.label_space
    plan = crossval.make_folds(y, k, seed)
    fits = []
    for g in train.groups:
        s = standardize_fit(g.features, f"group {g.name!r}")
        X = standardize_apply(s, g.features, f"group {g.name!r}")
        X.setflags(write=False)
        model = classifiers.train(spec, X, y, labels)
        priority, oof = crossval.group_priority(spec, X, y, labels, plan)
        oof.setflags(write=False)
        fits.append(GroupFit(GroupModel(g.name, s, model, priority), X, oof))
    return fits


def assemble(
    fits: Sequence[GroupFit], strategy: ensemble.EnsembleStrategy, train: MultiViewDataset
) -> TrainedEnsemble:
    """Combine fitted groups under one strategy. Only stacking trains more:
    its meta-classifier learns from the full models' training-set
    probabilities (naive) or from the out-of-fold matrices."""
    meta = None
    if strategy.kind == "stacking":
        if strategy.stacking_mode == "naive":
            probs = [f.model.classifier.predict_proba(f.X) for f in fits]
        else:
            probs = [f.oof for f in fits]
        meta = ensemble.train_stacking(probs, train.labels, strategy, train.label_space)
    return TrainedEnsemble(tuple(f.model for f in fits), strategy, meta, train.label_space)


def train_ensemble(
    train: MultiViewDataset,
    spec: classifiers.ClassifierSpec,
    strategy: ensemble.EnsembleStrategy,
    k: int = 5,
    seed: int = 0,
) -> TrainedEnsemble:
    """Fit the whole ensemble on the training set; test data never enters."""
    return assemble(fit_groups(train, spec, k, seed), strategy, train)


def check_group_schema(schema: Sequence[tuple[str, int]], groups: Sequence[GroupView]) -> None:
    """GroupSchemaMismatch unless ``groups`` are the trained (name, width)
    pairs of ``schema``, in that order."""
    trained = dict(schema)
    offered = {g.name: g.dim for g in groups}
    for name in trained:
        if name not in offered:
            raise GroupSchemaMismatch(f"missing group {name!r}")
    for name in offered:
        if name not in trained:
            raise GroupSchemaMismatch(f"unexpected group {name!r}")
    names = [g.name for g in groups]
    if names != list(trained):
        raise GroupSchemaMismatch(
            f"group order {names} does not match training order {list(trained)}"
        )
    for g in groups:
        if g.dim != trained[g.name]:
            raise GroupSchemaMismatch(
                f"group {g.name!r} has {g.dim} features, model expects {trained[g.name]}"
            )


def predict_groups(
    e: TrainedEnsemble, groups: Sequence[GroupView], sample_ids: Sequence[str]
) -> PredictionBatch:
    """Predict from raw feature groups (labels not required), one row of each
    per sample id (made a str); MisalignedGroup names a group with another
    row count."""
    check_group_schema([(gm.name, gm.classifier.input_dim) for gm in e.per_group], groups)
    for g in groups:
        if g.n != len(sample_ids):
            raise MisalignedGroup(f"group {g.name!r} has {g.n} rows, expected {len(sample_ids)}")
    group_probs = []
    for gm, g in zip(e.per_group, groups):
        X = standardize_apply(gm.standardizer, g.features, f"group {g.name!r}")
        group_probs.append(gm.classifier.predict_proba(X))

    if e.strategy.kind == "stacking":
        meta_X = ensemble.stack_meta_features(group_probs)
        scores = e.meta.predict_proba(meta_X)
    else:
        combine = (
            ensemble.confidence_sum
            if e.strategy.kind == "confidence_sum"
            else ensemble.rank_sum
        )
        scores = combine(group_probs, e.priority_values, e.strategy.weighted)
    return PredictionBatch(sample_ids, scores, ensemble.decide(scores), tuple(group_probs))


def predict(e: TrainedEnsemble, test: MultiViewDataset) -> PredictionBatch:
    """Predict every test sample; requires the training group schema."""
    return predict_groups(e, test.groups, test.sample_ids)


@dataclass(frozen=True)
class ConcatBaseline:
    """Single classifier over per-group-standardized, concatenated features."""

    group_names: tuple[str, ...]
    standardizers: tuple[Standardizer, ...]
    classifier: classifiers.FittedClassifier

    def predict(self, test: MultiViewDataset) -> np.ndarray:
        X = _concat(self.group_names, self.standardizers, test.groups)
        return self.classifier.predict(X)


def _concat(names, standardizers, groups: Sequence[GroupView]) -> np.ndarray:
    """``groups``, each standardized by its own standardizer, side by side;
    GroupSchemaMismatch unless they are the named groups in that order, of
    the standardizers' widths."""
    check_group_schema([(name, s.dim) for name, s in zip(names, standardizers)], groups)
    return np.hstack([
        standardize_apply(s, g.features, f"group {g.name!r}") for s, g in zip(standardizers, groups)
    ])


def train_concat_baseline(
    train: MultiViewDataset, spec: classifiers.ClassifierSpec
) -> ConcatBaseline:
    """The classical alternative to late fusion: concatenate all groups
    horizontally (after per-group standardization) and train one classifier."""
    standardizers = tuple(standardize_fit(g.features, f"group {g.name!r}") for g in train.groups)
    X = _concat(train.group_names, standardizers, train.groups)
    model = classifiers.train(spec, X, train.labels, train.label_space)
    return ConcatBaseline(
        group_names=train.group_names,
        standardizers=standardizers,
        classifier=model,
    )


# --- persistence -----------------------------------------------------------


def _standardizer_state(s: Standardizer) -> dict:
    return {"mean": s.mean.tolist(), "scale": s.scale.tolist()}


def _classifier_record(model: classifiers.FittedClassifier) -> dict:
    """The persisted form of a group's classifier or of the meta model."""
    return {"spec": model.spec.to_dict(), "input_dim": model.input_dim, "state": model.state()}


def _classifier_from_record(record: dict, labels: LabelSpace, what: str):
    """Rebuild a classifier from ``record``; errors in its spec name ``<what>.spec``."""
    spec = classifiers.ClassifierSpec.from_dict(record["spec"], f"{what}.spec")
    input_dim = integer(record["input_dim"], "input_dim", 1)
    return classifiers.model_from_state(spec, labels, input_dim, record["state"])


def _ensemble_payload(e: TrainedEnsemble) -> dict:
    return {
        "label_space": list(e.label_space.class_names),
        "strategy": e.strategy.to_dict(),
        "groups": [
            {
                "name": gm.name,
                "standardizer": _standardizer_state(gm.standardizer),
                **_classifier_record(gm.classifier),
                "priority": gm.priority,
            }
            for gm in e.per_group
        ],
        "meta": None if e.meta is None else _classifier_record(e.meta),
    }


def save_ensemble(e: TrainedEnsemble, path: str) -> None:
    """Write a versioned, checksummed model file atomically."""
    payload = _ensemble_payload(e)
    document = {
        "format_version": MODEL_FORMAT_VERSION,
        "checksum": _checksum(payload),
        "payload": payload,
    }
    # a new file beside the target, so it gets the umask's mode as every other output does
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".model-{secrets.token_hex(8)}")
    try:
        fh = open(tmp, "x", encoding="utf-8")
        try:
            with fh:
                json.dump(document, fh)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise DataError(f"cannot write model file {path!r}: {exc}") from exc


def load_ensemble(path: str) -> TrainedEnsemble:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read model file {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CorruptModel(f"model file {path!r} is not UTF-8 text: {exc}") from exc
    try:
        document = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise CorruptModel(f"model file {path!r} is not parseable: {exc}") from exc
    if not isinstance(document, dict) or "format_version" not in document:
        raise CorruptModel(f"model file {path!r} has no format_version")
    version = document["format_version"]
    if type(version) is not int or version != MODEL_FORMAT_VERSION:
        raise VersionMismatch(
            f"model file {path!r} has format version {version!r}; "
            f"only format {MODEL_FORMAT_VERSION} is read"
        )
    payload = document.get("payload")
    if payload is None or document.get("checksum") != _checksum(payload):
        raise CorruptModel(f"model file {path!r} fails its checksum")

    try:
        return _ensemble_from_payload(payload)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CorruptModel(f"model file {path!r} has a malformed payload: {exc!r}") from exc


def _ensemble_from_payload(payload: dict) -> TrainedEnsemble:
    if not isinstance(payload["label_space"], list):
        raise BadSpec(f"label_space must be a list, got {payload['label_space']!r}")
    labels = LabelSpace(tuple(payload["label_space"]))
    strategy = ensemble.EnsembleStrategy.from_dict(payload["strategy"])
    per_group = []
    for i, g in enumerate(payload["groups"]):
        model = _classifier_from_record(g, labels, f"groups[{i}]")
        shape = (model.input_dim,)
        s = Standardizer(
            mean=persisted_array(g["standardizer"], "mean", shape),
            scale=persisted_array(g["standardizer"], "scale", shape),
        )
        per_group.append(GroupModel(g["name"], s, model, g["priority"]))
    meta = None
    if payload["meta"] is not None:
        meta = _classifier_from_record(payload["meta"], labels, "meta")
    return TrainedEnsemble(tuple(per_group), strategy, meta, labels)
