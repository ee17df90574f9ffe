"""Combination strategies for fusing per-group class confidences.

Five variants: confidence summation and rank summation, each with or without
priority weighting, plus a two-layer (stacking) meta-classifier trained on
the concatenated first-layer probability outputs. The final decision is the
argmax of the combined score vector with ties broken to the lowest class
index, which makes every strategy invariant to positive rescaling of the
priorities. The sums and the decision take one (m,) vector per group, or an
(n, m) matrix per group that holds a whole batch, one row per sample.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from . import classifiers
from .core import LabelSpace, json_object, real
from .errors import AllZeroPriorities, BadSpec, DimensionMismatch, EmptyEnsemble, InvalidProbabilities

STRATEGY_KINDS = ("confidence_sum", "rank_sum", "stacking")
STACKING_MODES = ("naive", "out_of_fold")


@dataclass(frozen=True)
class EnsembleStrategy:
    """Tagged choice of combination rule.

    ``weighted`` is ignored for stacking; ``stacking_mode`` and
    ``stacking_meta_spec`` must be present exactly when kind is stacking.
    """

    kind: str
    weighted: bool = False
    stacking_mode: Optional[str] = None
    stacking_meta_spec: Optional[classifiers.ClassifierSpec] = None

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise BadSpec(f"kind must be one of {STRATEGY_KINDS}, got {self.kind!r}")
        if not isinstance(self.weighted, bool):
            raise BadSpec(f"weighted must be true or false, got {self.weighted!r}")
        if self.kind == "stacking":
            if self.stacking_mode not in STACKING_MODES:
                raise BadSpec(
                    f"stacking_mode must be one of {STACKING_MODES}, "
                    f"got {self.stacking_mode!r}"
                )
            if not isinstance(self.stacking_meta_spec, classifiers.ClassifierSpec):
                raise BadSpec(
                    f"stacking_meta_spec must be a ClassifierSpec, got {self.stacking_meta_spec!r}"
                )
        else:
            if self.stacking_mode is not None or self.stacking_meta_spec is not None:
                raise BadSpec(
                    "stacking_mode and stacking_meta_spec are only valid for kind='stacking'"
                )

    @property
    def label(self) -> str:
        if self.kind == "stacking":
            return f"stacking_{self.stacking_mode}"
        return f"{self.kind}_weighted" if self.weighted else self.kind

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "weighted": self.weighted}
        if self.kind == "stacking":
            d["stacking_mode"] = self.stacking_mode
            d["stacking_meta_spec"] = self.stacking_meta_spec.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "EnsembleStrategy":
        d = dict(json_object(d, "strategy", ("kind",), [f.name for f in fields(cls)]))
        if d.get("stacking_meta_spec") is not None:
            d["stacking_meta_spec"] = classifiers.ClassifierSpec.from_dict(
                d["stacking_meta_spec"], "strategy.stacking_meta_spec"
            )
        return cls(**d)


def assign_ranks(p) -> np.ndarray:
    """Fractional ranks of a confidence vector, or of each row of an (n, m)
    matrix: the highest probability gets rank m, the lowest gets 1, and ties
    share the mean of the ranks they jointly occupy, so the rank sum is
    always m(m+1)/2 (the "average" ranks of ``scipy.stats.rankdata``)."""
    p = np.asarray(p, dtype=np.float64)
    # ties ranked in index order, then in reverse index order: each tie's
    # two positions average to the mean of the positions its group holds
    return 1.0 + 0.5 * (_positions(p) + _positions(p[..., ::-1])[..., ::-1])


def _positions(p: np.ndarray) -> np.ndarray:
    """Each entry's 0-based position in its row's stable ascending sort."""
    return np.argsort(np.argsort(p, axis=-1, kind="stable"), axis=-1)


def _first_layer(probs: Sequence, what: str) -> list[np.ndarray]:
    """The groups' outputs as float64 arrays, all of the first one's shape:
    EmptyEnsemble naming ``what`` when there are none, DimensionMismatch
    when the shapes disagree."""
    if len(probs) == 0:
        raise EmptyEnsemble(f"no {what}")
    mats = [np.asarray(p, dtype=np.float64) for p in probs]
    for mat in mats[1:]:
        if mat.shape != mats[0].shape:
            raise DimensionMismatch(f"first-layer output shapes disagree: {mats[0].shape}, {mat.shape}")
    return mats


def _combine(vectors_fn, probs: Sequence, priorities, weighted: bool) -> np.ndarray:
    probs = _first_layer(probs, "classifier outputs to combine")
    if weighted:
        w = [real(v, "priorities value") for v in priorities]
        if len(w) != len(probs):
            raise DimensionMismatch(
                f"{len(probs)} probability vectors but {len(w)} priorities"
            )
        if any(v < 0 for v in w):
            raise BadSpec("priorities must be finite and nonnegative")
        if all(v == 0.0 for v in w):
            raise AllZeroPriorities(
                "every group priority is zero; the ensemble carries no signal"
            )
    else:
        w = [1.0] * len(probs)
    scores = w[0] * vectors_fn(probs[0])
    for wg, pg in zip(w[1:], probs[1:]):
        scores = scores + wg * vectors_fn(pg)
    return scores


def confidence_sum(probs, priorities, weighted: bool) -> np.ndarray:
    """Sum of the groups' confidence vectors, optionally priority-weighted."""
    return _combine(lambda p: p, probs, priorities, weighted)


def rank_sum(probs, priorities, weighted: bool) -> np.ndarray:
    """Sum of the groups' per-class ranks, optionally priority-weighted."""
    return _combine(assign_ranks, probs, priorities, weighted)


def decide(scores):
    """Highest combined score wins; ties go to the lowest class index. A
    score vector gives an int, an (n, m) matrix an array of n decisions."""
    s = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(s)):
        raise InvalidProbabilities("scores must be finite")
    best = np.argmax(s, axis=-1)
    return int(best) if s.ndim == 1 else best


def stack_meta_features(groups_probs: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate per-group probability rows into the meta-learner's input
    of width G*m."""
    mats = _first_layer(groups_probs, "first-layer outputs to stack")
    return np.hstack([np.atleast_2d(mat) for mat in mats])


def train_stacking(
    groups_probs_train: Sequence[np.ndarray],
    y,
    strategy: EnsembleStrategy,
    labels: LabelSpace,
) -> classifiers.FittedClassifier:
    """Train the second-layer classifier on concatenated first-layer outputs.

    The caller controls what the probability rows are: full-training-set
    predictions for naive stacking, or out-of-fold predictions for the
    leakage-free variant.
    """
    meta_X = stack_meta_features(groups_probs_train)
    return classifiers.train(strategy.stacking_meta_spec, meta_X, y, labels)
