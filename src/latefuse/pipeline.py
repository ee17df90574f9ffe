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

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import classifiers, crossval, ensemble
from .classifiers.base import state_array
from .core import (
    GroupView,
    LabelSpace,
    MultiViewDataset,
    Standardizer,
    standardize_apply,
    standardize_fit,
    validate_dataset,
)
from .errors import CorruptModel, GroupSchemaMismatch, IoFailure, VersionMismatch

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class GroupModel:
    """One group's fitted pieces: its name, standardizer, and classifier."""

    name: str
    standardizer: Standardizer
    classifier: classifiers.FittedClassifier


@dataclass(frozen=True)
class TrainedEnsemble:
    per_group: tuple[GroupModel, ...]
    priorities: tuple[crossval.GroupPriority, ...]
    strategy: ensemble.EnsembleStrategy
    meta: Optional[classifiers.FittedClassifier]
    label_space: LabelSpace
    config_fingerprint: str

    def __post_init__(self):
        if len(self.per_group) != len(self.priorities):
            raise ValueError("per_group and priorities must have equal length")
        for gm, pr in zip(self.per_group, self.priorities):
            if gm.name != pr.group_name:
                raise ValueError(
                    f"priority for {pr.group_name!r} does not match group {gm.name!r}"
                )
        if (self.meta is not None) != (self.strategy.kind == "stacking"):
            raise ValueError("meta classifier present iff strategy is stacking")

    @property
    def group_names(self) -> tuple[str, ...]:
        return tuple(gm.name for gm in self.per_group)

    @property
    def priority_values(self) -> tuple[float, ...]:
        return tuple(p.value for p in self.priorities)


@dataclass(frozen=True)
class Prediction:
    sample_id: str
    scores: np.ndarray
    decided: int
    per_group_probs: tuple[np.ndarray, ...]


def config_fingerprint(
    spec: classifiers.ClassifierSpec,
    strategy: ensemble.EnsembleStrategy,
    k: int,
    seed: int,
    group_schema: Sequence[tuple[str, int]],
) -> str:
    payload = {
        "spec": spec.to_dict(),
        "strategy": strategy.to_dict(),
        "k": k,
        "seed": seed,
        "groups": [[name, dim] for name, dim in group_schema],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class GroupFit:
    """One group's training-time fit: its deployable model and priority, plus
    the standardized training features and their out-of-fold probabilities
    that stacking's meta-classifier may train on."""

    model: GroupModel
    priority: crossval.GroupPriority
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
        s = standardize_fit(g.features)
        X = standardize_apply(s, g.features)
        model = classifiers.train(spec, X, y, labels)
        oof, accuracies = crossval.cross_fit(spec, X, y, labels, plan)
        priority = crossval.GroupPriority(g.name, float(np.mean(accuracies)))
        fits.append(GroupFit(GroupModel(g.name, s, model), priority, X, oof))
    return fits


def assemble(
    fits: Sequence[GroupFit],
    strategy: ensemble.EnsembleStrategy,
    spec: classifiers.ClassifierSpec,
    train: MultiViewDataset,
    k: int,
    seed: int,
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
    schema = [(f.model.name, f.model.classifier.input_dim) for f in fits]
    return TrainedEnsemble(
        per_group=tuple(f.model for f in fits),
        priorities=tuple(f.priority for f in fits),
        strategy=strategy,
        meta=meta,
        label_space=train.label_space,
        config_fingerprint=config_fingerprint(spec, strategy, k, seed, schema),
    )


def train_ensemble(
    train: MultiViewDataset,
    spec: classifiers.ClassifierSpec,
    strategy: ensemble.EnsembleStrategy,
    k: int = 5,
    seed: int = 0,
) -> TrainedEnsemble:
    """Fit the whole ensemble on the training set; test data never enters."""
    validate_dataset(train)
    return assemble(fit_groups(train, spec, k, seed), strategy, spec, train, k, seed)


def check_group_schema(e: TrainedEnsemble, groups: Sequence[GroupView]) -> None:
    trained = {gm.name: gm.classifier.input_dim for gm in e.per_group}
    offered = {g.name: g.dim for g in groups}
    for name in trained:
        if name not in offered:
            raise GroupSchemaMismatch(f"missing group {name!r}")
    for name in offered:
        if name not in trained:
            raise GroupSchemaMismatch(f"unexpected group {name!r}")
    names = [g.name for g in groups]
    if names != list(e.group_names):
        raise GroupSchemaMismatch(
            f"group order {names} does not match training order {list(e.group_names)}"
        )
    for g in groups:
        if g.dim != trained[g.name]:
            raise GroupSchemaMismatch(
                f"group {g.name!r} has {g.dim} features, model expects {trained[g.name]}"
            )


def predict_groups(
    e: TrainedEnsemble, groups: Sequence[GroupView], sample_ids: Sequence[str]
) -> list[Prediction]:
    """Predict from raw feature groups (labels not required)."""
    check_group_schema(e, groups)
    group_probs = []
    for gm, g in zip(e.per_group, groups):
        X = standardize_apply(gm.standardizer, g.features)
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
    decided = ensemble.decide(scores).tolist()
    rows = zip(map(str, sample_ids), scores, decided, zip(*group_probs))
    return [Prediction(*row) for row in rows]


def predict(e: TrainedEnsemble, test: MultiViewDataset) -> list[Prediction]:
    """Predict every test sample; requires the training group schema."""
    return predict_groups(e, test.groups, test.sample_ids)


@dataclass(frozen=True)
class ConcatBaseline:
    """Single classifier over per-group-standardized, concatenated features."""

    group_names: tuple[str, ...]
    standardizers: tuple[Standardizer, ...]
    classifier: classifiers.FittedClassifier

    def _concat(self, groups: Sequence[GroupView]) -> np.ndarray:
        if tuple(g.name for g in groups) != self.group_names:
            raise GroupSchemaMismatch(
                f"expected groups {list(self.group_names)}, "
                f"got {[g.name for g in groups]}"
            )
        parts = [
            standardize_apply(s, g.features)
            for s, g in zip(self.standardizers, groups)
        ]
        return np.hstack(parts)

    def predict_proba(self, test: MultiViewDataset) -> np.ndarray:
        return self.classifier.predict_proba(self._concat(test.groups))

    def predict(self, test: MultiViewDataset) -> np.ndarray:
        return self.classifier.predict(self._concat(test.groups))


def train_concat_baseline(
    train: MultiViewDataset, spec: classifiers.ClassifierSpec
) -> ConcatBaseline:
    """The classical alternative to late fusion: concatenate all groups
    horizontally (after per-group standardization) and train one classifier."""
    validate_dataset(train)
    standardizers = tuple(standardize_fit(g.features) for g in train.groups)
    X = np.hstack(
        [standardize_apply(s, g.features) for s, g in zip(standardizers, train.groups)]
    )
    model = classifiers.train(spec, X, train.labels, train.label_space)
    return ConcatBaseline(
        group_names=train.group_names,
        standardizers=standardizers,
        classifier=model,
    )


# --- persistence -----------------------------------------------------------


def _standardizer_state(s: Standardizer) -> dict:
    return {"mean": s.mean.tolist(), "scale": s.scale.tolist()}


def _ensemble_payload(e: TrainedEnsemble) -> dict:
    return {
        "label_space": list(e.label_space.class_names),
        "strategy": e.strategy.to_dict(),
        "config_fingerprint": e.config_fingerprint,
        "groups": [
            {
                "name": gm.name,
                "standardizer": _standardizer_state(gm.standardizer),
                "spec": gm.classifier.spec.to_dict(),
                "input_dim": gm.classifier.input_dim,
                "state": gm.classifier.state(),
                "priority": pr.value,
            }
            for gm, pr in zip(e.per_group, e.priorities)
        ],
        "meta": (
            None
            if e.meta is None
            else {
                "spec": e.meta.spec.to_dict(),
                "input_dim": e.meta.input_dim,
                "state": e.meta.state(),
            }
        ),
    }


def _checksum(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def save_ensemble(e: TrainedEnsemble, path: str) -> None:
    """Write a versioned, checksummed model file atomically."""
    payload = _ensemble_payload(e)
    document = {
        "format_version": MODEL_FORMAT_VERSION,
        "checksum": _checksum(payload),
        "payload": payload,
    }
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(prefix=".model-", dir=directory)
        with os.fdopen(fd, "w") as fh:
            json.dump(document, fh)
        os.replace(tmp, path)
    except OSError as exc:
        raise IoFailure(f"cannot write model file {path!r}: {exc}") from exc


def load_ensemble(path: str) -> TrainedEnsemble:
    try:
        with open(path, "r") as fh:
            raw = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read model file {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CorruptModel(f"model file {path!r} is not UTF-8 text: {exc}") from exc
    try:
        document = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise CorruptModel(f"model file {path!r} is not parseable: {exc}") from exc
    if not isinstance(document, dict) or "format_version" not in document:
        raise CorruptModel(f"model file {path!r} has no format_version")
    if document["format_version"] != MODEL_FORMAT_VERSION:
        raise VersionMismatch(
            f"model format version {document['format_version']}, "
            f"supported: {MODEL_FORMAT_VERSION}"
        )
    payload = document.get("payload")
    if payload is None or document.get("checksum") != _checksum(payload):
        raise CorruptModel(f"model file {path!r} fails its checksum")

    try:
        return _ensemble_from_payload(payload)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CorruptModel(f"model file {path!r} has a malformed payload: {exc!r}") from exc


def _ensemble_from_payload(payload: dict) -> TrainedEnsemble:
    labels = LabelSpace(tuple(payload["label_space"]))
    strategy = ensemble.EnsembleStrategy.from_dict(payload["strategy"])
    per_group, priorities = [], []
    for g in payload["groups"]:
        spec = classifiers.ClassifierSpec.from_dict(g["spec"])
        dim = g["input_dim"]
        s = Standardizer(
            mean=state_array(g["standardizer"], "mean", (dim,)),
            scale=state_array(g["standardizer"], "scale", (dim,)),
        )
        model = classifiers.model_from_state(spec, labels, dim, g["state"])
        per_group.append(GroupModel(name=g["name"], standardizer=s, classifier=model))
        priorities.append(
            crossval.GroupPriority(group_name=g["name"], value=g["priority"])
        )
    meta = None
    if payload["meta"] is not None:
        mspec = classifiers.ClassifierSpec.from_dict(payload["meta"]["spec"])
        mdim = payload["meta"]["input_dim"]
        if mdim != len(per_group) * labels.m:
            raise ValueError(
                f"meta input_dim {mdim}, expected {len(per_group)} groups x {labels.m} classes"
            )
        meta = classifiers.model_from_state(mspec, labels, mdim, payload["meta"]["state"])
    return TrainedEnsemble(
        per_group=tuple(per_group),
        priorities=tuple(priorities),
        strategy=strategy,
        meta=meta,
        label_space=labels,
        config_fingerprint=payload["config_fingerprint"],
    )
