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
from .core import LabelSpace, fold_assignments
from .errors import BadK, LengthMismatch, TooFewSamplesPerClass


@dataclass(frozen=True)
class FoldPlan:
    """Stratified fold assignment: per class, fold sizes differ by at most 1."""

    k: int
    assignments: np.ndarray
    seed: int

    def __post_init__(self):
        a = np.ascontiguousarray(self.assignments, dtype=np.int64)
        a.setflags(write=False)
        object.__setattr__(self, "assignments", a)

    @property
    def n(self) -> int:
        return len(self.assignments)

    def train_test_indices(self, fold: int):
        te = np.flatnonzero(self.assignments == fold)
        tr = np.flatnonzero(self.assignments != fold)
        return tr, te


@dataclass(frozen=True)
class GroupPriority:
    """Mean CV accuracy of one group's classifier; always in [0, 1]."""

    group_name: str
    value: float

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"priority {self.value} outside [0, 1]")


def make_folds(y, k: int, seed: int) -> FoldPlan:
    """Deterministic stratified fold assignment from the seed."""
    if k < 2:
        raise BadK(f"need k >= 2 folds, got {k}")
    y = np.asarray(y, dtype=np.int64)
    for c, count in zip(*np.unique(y, return_counts=True)):
        if count < k:
            raise TooFewSamplesPerClass(
                f"class index {c} has {count} samples, need >= {k}"
            )
    assignments = fold_assignments(y, k, np.random.default_rng(seed))
    return FoldPlan(k=k, assignments=assignments, seed=seed)


def cross_val_accuracy(train_fn, X, y, plan: FoldPlan) -> float:
    """Unweighted mean over folds of held-out top-1 accuracy.

    ``train_fn(X_train, y_train)`` must return a callable mapping a feature
    matrix to predicted class indices.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if len(y) != plan.n:
        raise LengthMismatch(
            f"fold plan covers {plan.n} samples, labels have {len(y)}"
        )
    accuracies = []
    for f in range(plan.k):
        tr, te = plan.train_test_indices(f)
        predict = train_fn(X[tr], y[tr])
        pred = np.asarray(predict(X[te]))
        accuracies.append(float((pred == y[te]).mean()))
    return float(np.mean(accuracies))


def cross_fit(
    spec: classifiers.ClassifierSpec, X, y, labels: LabelSpace, plan: FoldPlan
) -> tuple[np.ndarray, list[float]]:
    """Fit ``spec`` once per fold of ``plan`` and predict the held-out rows.

    Returns the (n, m) out-of-fold probability matrix, whose row i comes from
    the fold model that never saw sample i, and the held-out top-1 accuracy
    of each fold (argmax with ties to the lowest class, as ``predict``).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if len(y) != plan.n:
        raise LengthMismatch(
            f"fold plan covers {plan.n} samples, labels have {len(y)}"
        )
    oof = np.zeros((len(y), labels.m))
    accuracies = []
    for f in range(plan.k):
        tr, te = plan.train_test_indices(f)
        model = classifiers.train(spec, X[tr], y[tr], labels)
        oof[te] = model.predict_proba(X[te])
        accuracies.append(float((np.argmax(oof[te], axis=1) == y[te]).mean()))
    return oof, accuracies


def group_priority(
    spec: classifiers.ClassifierSpec,
    X,
    y,
    labels: LabelSpace,
    plan: FoldPlan,
    group_name: str = "",
) -> GroupPriority:
    """Mean k-fold CV accuracy of ``spec`` trained on this group's features."""
    _, accuracies = cross_fit(spec, X, y, labels, plan)
    return GroupPriority(group_name=group_name, value=float(np.mean(accuracies)))
