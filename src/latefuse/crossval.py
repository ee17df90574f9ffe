"""Stratified k-fold machinery and per-group priority weights.

A group's priority is the mean k-fold cross-validation accuracy of its
classifier on the training set: an estimate of how well that feature group
generalizes, used later to weight its votes in the ensemble. The same
folds' held-out probabilities are the training rows of out-of-fold stacking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import classifiers
from .core import LabelSpace, class_indices, feature_matrix, fold_assignments, frozen_array, integer
from .errors import DimensionMismatch, TooFewSamplesPerClass


@dataclass(frozen=True)
class FoldPlan:
    """Stratified fold assignment: per class, fold sizes differ by at most 1."""

    k: int
    assignments: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "assignments", frozen_array(self.assignments, np.int64))

    @property
    def n(self) -> int:
        return len(self.assignments)

    def train_test_indices(self, fold: int):
        te = np.flatnonzero(self.assignments == fold)
        tr = np.flatnonzero(self.assignments != fold)
        return tr, te


def make_folds(y, k: int, seed: int) -> FoldPlan:
    """Deterministic stratified fold assignment from the seed. Raises BadSpec
    unless ``k`` is an integer >= 2 and ``seed`` an integer >= 0, and
    UnknownLabel unless ``y`` holds class indices."""
    k = integer(k, "k", 2)
    seed = integer(seed, "seed", 0)
    y = class_indices(y, "label")
    for c, count in zip(*np.unique(y, return_counts=True)):
        if count < k:
            raise TooFewSamplesPerClass(
                f"class index {c} has {count} samples, need >= {k}"
            )
    assignments = fold_assignments(y, k, np.random.default_rng(seed))
    return FoldPlan(k=k, assignments=assignments)


def group_priority(
    spec: classifiers.ClassifierSpec, X, y, labels: LabelSpace, plan: FoldPlan
) -> tuple[float, np.ndarray]:
    """Fit ``spec`` once per fold of ``plan`` and predict the held-out rows.

    Returns the priority, the unweighted mean over folds of held-out top-1
    accuracy (argmax with ties to the lowest class, as ``predict``), and the
    (n, m) out-of-fold probability matrix, whose row i comes from the fold
    model that never saw sample i.
    """
    X = feature_matrix(X, "X")
    y = class_indices(y, "label", labels.m)
    if len(y) != plan.n:
        raise DimensionMismatch(
            f"fold plan covers {plan.n} samples, labels have {len(y)}"
        )
    oof = np.zeros((len(y), labels.m))
    accuracies = []
    for f in range(plan.k):
        tr, te = plan.train_test_indices(f)
        model = classifiers.train(spec, X[tr], y[tr], labels)
        oof[te] = model.predict_proba(X[te])
        accuracies.append(float((np.argmax(oof[te], axis=1) == y[te]).mean()))
    return float(np.mean(accuracies)), oof
