"""Shared contract for the probabilistic classifiers.

Every classifier kind trains from (spec, X, y, label_space) and yields a
fitted model whose ``predict_proba`` returns a valid per-class probability
vector for any finite input of the trained width. Fitted models are immutable
and safe to use concurrently.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from ..core import LabelSpace, probability_vector
from ..errors import (
    DimensionMismatch,
    EmptyClass,
    NonFiniteFeature,
    SingleClassData,
    UnknownLabel,
)

KINDS = ("logreg", "linear_svm_ovr", "adaboost_stumps", "random_forest")

MAX_STEPS = 500
REL_TOL = 1e-8
MAX_HALVINGS = 60


def _integer(value, what: str, least: int) -> int:
    """``value`` as an int >= ``least``; bools and floats are rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{what} must be >= {least}, got {value!r}")
    return operator.index(value)


def _positive(value, what: str) -> None:
    """Reject anything but a finite real number > 0; bools are rejected."""
    try:
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        ok = real and 0 < float(value) < math.inf
    except OverflowError:  # an int beyond the float range
        ok = False
    if not ok:
        raise ValueError(f"{what} must be a finite number > 0, got {value!r}")


@dataclass(frozen=True)
class ClassifierSpec:
    """Classifier kind plus its hyperparameters and RNG seed.

    Only the fields relevant to ``kind`` are used:
      logreg          -- lam (L2 strength)
      linear_svm_ovr  -- c_grid (values searched by internal 3-fold CV)
      adaboost_stumps -- rounds
      random_forest   -- trees, min_leaf
    """

    kind: str
    seed: int = 0
    lam: float = 1e-3
    c_grid: tuple[float, ...] = (0.1, 1.0, 10.0)
    rounds: int = 100
    trees: int = 100
    min_leaf: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown classifier kind {self.kind!r}")
        for name, least in (("seed", 0), ("rounds", 1), ("trees", 1), ("min_leaf", 1)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, least))
        _positive(self.lam, "lam")
        c_grid = tuple(self.c_grid)
        if not c_grid:
            raise ValueError("c_grid must not be empty")
        for c in c_grid:
            _positive(c, "c_grid value")
        object.__setattr__(self, "c_grid", tuple(float(c) for c in c_grid))

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "lam": self.lam,
            "c_grid": list(self.c_grid),
            "rounds": self.rounds,
            "trees": self.trees,
            "min_leaf": self.min_leaf,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ClassifierSpec":
        allowed = {"kind", "seed", "lam", "c_grid", "rounds", "trees", "min_leaf"}
        unknown = set(d) - allowed
        if unknown:
            raise ValueError(f"unknown classifier spec fields: {sorted(unknown)}")
        if "kind" not in d:
            raise ValueError("classifier spec needs a 'kind'")
        return cls(**d)


class FittedClassifier:
    """Base for all fitted models: stores spec, label space and input width,
    and provides the argmax prediction rule (ties go to the lowest index)."""

    def __init__(self, spec: ClassifierSpec, label_space: LabelSpace, input_dim: int):
        self.spec = spec
        self.label_space = label_space
        self.input_dim = input_dim

    # subclasses implement: matrix of per-row probabilities
    def _proba_matrix(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _check_input(self, x) -> tuple[np.ndarray, bool]:
        X = np.asarray(x, dtype=np.float64)
        one_row = X.ndim == 1
        if one_row:
            X = X[None, :]
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise DimensionMismatch(
                f"expected input width {self.input_dim}, got shape {X.shape}"
            )
        if not np.all(np.isfinite(X)):
            raise NonFiniteFeature("prediction input contains NaN or inf")
        return X, one_row

    def predict_proba(self, x) -> np.ndarray:
        """Validated, read-only per-class probabilities; 1-D input gives a
        vector, 2-D a matrix."""
        X, one_row = self._check_input(x)
        P = probability_vector(self._proba_matrix(X))
        return P[0] if one_row else P

    def predict(self, x):
        P = self.predict_proba(x)
        pred = np.argmax(P, axis=-1)
        return int(pred) if P.ndim == 1 else pred

    # persistence hooks; subclasses return/accept plain-JSON state
    def state(self) -> dict:
        raise NotImplementedError


def descend(objective, gradient, x: np.ndarray, step: float):
    """Full-batch gradient descent with backtracking halving from ``x``.

    Each step starts from twice the last accepted step size and halves it
    until ``objective`` strictly decreases. Stops after MAX_STEPS accepted
    steps, on a relative decrease below REL_TOL, or when MAX_HALVINGS
    halvings find no decrease. Returns the final point and the objective
    history (the start, then one value per accepted step).
    """
    value = objective(x)
    history = [value]
    for _ in range(MAX_STEPS):
        g = gradient(x)
        step *= 2.0
        for _ in range(MAX_HALVINGS):
            x_next = x - step * g
            value_next = objective(x_next)
            if value_next < value:
                break
            step *= 0.5
        else:
            break  # gradient is numerically flat
        rel_change = (value - value_next) / max(abs(value), 1e-300)
        x, value = x_next, value_next
        history.append(value)
        if rel_change < REL_TOL:
            break
    return x, history


def state_array(state: dict, key: str, shape: tuple[int, ...]) -> np.ndarray:
    """Read a persisted array that must have ``shape`` and finite entries;
    ValueError otherwise."""
    a = np.array(state[key], dtype=np.float64)
    if a.shape != shape:
        raise ValueError(f"{key} has shape {a.shape}, expected {shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{key} has non-finite entries")
    return a


def state_float(value, what: str) -> float:
    """Read a persisted number that must be finite; ValueError otherwise."""
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{what} {x} is not finite")
    return x


def state_index(value, bound: int, what: str) -> int:
    """Read a persisted index that must lie in [0, bound); ValueError otherwise."""
    i = operator.index(value)
    if not 0 <= i < bound:
        raise ValueError(f"{what} {i} outside [0, {bound})")
    return i


def check_training_data(X, y, labels: LabelSpace) -> tuple[np.ndarray, np.ndarray]:
    """Validate the common training preconditions shared by every kind."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2:
        raise DimensionMismatch("X must be a 2-D matrix")
    if y.shape != (X.shape[0],):
        raise DimensionMismatch(
            f"y has shape {y.shape}, expected ({X.shape[0]},)"
        )
    if not np.all(np.isfinite(X)):
        row, col = np.argwhere(~np.isfinite(X))[0]
        raise NonFiniteFeature(f"non-finite training feature at row {row}, col {col}")
    present = np.unique(y)
    if len(present) < 2:
        raise SingleClassData("training data contains a single class")
    if present.min() < 0 or present.max() >= labels.m:
        raise UnknownLabel(f"labels outside [0, {labels.m})")
    if len(present) != labels.m:
        missing = sorted(set(range(labels.m)) - set(present.tolist()))
        names = [labels.class_names[i] for i in missing]
        raise EmptyClass(f"classes with no training samples: {names}")
    if X.shape[0] < labels.m:
        raise SingleClassData(
            f"need at least m={labels.m} samples, got {X.shape[0]}"
        )
    return X, y
