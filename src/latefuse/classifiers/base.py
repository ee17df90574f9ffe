"""Shared contract for the probabilistic classifiers.

Every classifier kind trains from (spec, X, y, label_space) and yields a
fitted model whose ``predict_proba`` returns a valid per-class probability
vector for any finite input of the trained width. Fitted models are immutable
and safe to use concurrently.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, fields

import numpy as np

from ..core import (
    LabelSpace,
    class_indices,
    feature_matrix,
    frozen_array,
    integer,
    json_object,
    persisted_array,
    probability_vector,
    real,
)
from ..errors import BadSpec, DimensionMismatch, EmptyClass, SingleClassData

KINDS = ("logreg", "linear_svm_ovr", "adaboost_stumps", "random_forest")

MAX_STEPS = 500
MAX_HALVINGS = 60
ARMIJO = 1e-4  # accept a step that achieves this share of the predicted decrease
LBFGS_MEMORY = 10  # curvature pairs kept by lbfgs
LBFGS_TOL = 1e-6  # lbfgs stops once ||gradient|| <= LBFGS_TOL * ||gradient at the start||


@dataclass(frozen=True)
class ClassifierSpec:
    """Classifier kind plus its hyperparameters and RNG seed.

    Only the fields relevant to ``kind`` are used:
      logreg          -- lam (L2 strength)
      linear_svm_ovr  -- c_grid (values searched by internal 3-fold CV; a
                         fitted SVM's spec holds the chosen one alone)
      adaboost_stumps -- rounds
      random_forest   -- trees, min_leaf

    Raises BadSpec, naming the field, unless ``kind`` is one of KINDS, the
    counts and the seed are integers in range, and ``lam`` and every
    ``c_grid`` value are finite numbers > 0.
    """

    kind: str
    seed: int = 0
    lam: float = 1e-3
    c_grid: tuple[float, ...] = (0.1, 1.0, 10.0)
    rounds: int = 100
    trees: int = 100
    min_leaf: int = 1

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in KINDS:
            raise BadSpec(f"kind must be one of {KINDS}, got {self.kind!r}")
        for name, least in (("seed", 0), ("rounds", 1), ("trees", 1), ("min_leaf", 1)):
            object.__setattr__(self, name, integer(getattr(self, name), name, least))
        object.__setattr__(self, "lam", real(self.lam, "lam", above=0.0))
        if not hasattr(self.c_grid, "__iter__"):
            raise BadSpec(f"c_grid must be a sequence of numbers, got {self.c_grid!r}")
        c_grid = tuple(real(c, "c_grid value", above=0.0) for c in self.c_grid)
        if not c_grid:
            raise BadSpec("c_grid must not be empty")
        object.__setattr__(self, "c_grid", c_grid)

    def to_dict(self) -> dict:
        return {**asdict(self), "c_grid": list(self.c_grid)}

    @classmethod
    def from_dict(cls, d: dict, what: str = "classifier") -> "ClassifierSpec":
        d = json_object(d, what, ("kind",), [f.name for f in fields(cls)])
        try:
            return cls(**d)
        except BadSpec as exc:
            raise BadSpec(f"{what}.{exc}") from exc


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

    def predict_proba(self, x) -> np.ndarray:
        """Validated, read-only per-class probabilities; 1-D input gives a
        vector, 2-D a matrix. InvalidProbabilities when the parameters, such
        as huge weights read from a model file, make a row non-finite."""
        X = np.asarray(x, dtype=np.float64)
        one_row = X.ndim == 1
        X = feature_matrix(X[None, :] if one_row else X, "prediction input", self.input_dim)
        with np.errstate(over="ignore", invalid="ignore"):  # the check below reports it
            P = self._proba_matrix(X)
        P = probability_vector(P)
        return P[0] if one_row else P

    def predict(self, x):
        P = self.predict_proba(x)
        pred = np.argmax(P, axis=-1)
        return int(pred) if P.ndim == 1 else pred

    # persistence hooks; subclasses return/accept plain-JSON state
    def state(self) -> dict:
        raise NotImplementedError


def _row_max(Z: np.ndarray) -> np.ndarray:
    # a max is exact, so reading column by column is faster and gives the same values
    return np.asfortranarray(Z).max(axis=1, keepdims=True)


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax of a matrix, shifted by each row's max."""
    e = np.exp(z - _row_max(z))
    return e / e.sum(axis=1, keepdims=True)


def with_intercept(X: np.ndarray) -> np.ndarray:
    """``X`` with a column of ones appended, the input of a linear model."""
    return np.hstack([X, np.ones((X.shape[0], 1))])


class LinearModel(FittedClassifier):
    """Fitted logreg or one-vs-rest SVM: ``weights`` is (d+1, m), one column
    per class with the intercept in its last row, and the probabilities are
    the softmax of ``with_intercept(X) @ weights``."""

    def __init__(self, spec, label_space, input_dim, weights: np.ndarray):
        super().__init__(spec, label_space, input_dim)
        self.weights = frozen_array(weights)

    def _proba_matrix(self, X: np.ndarray) -> np.ndarray:
        return softmax(with_intercept(X) @ self.weights)

    def state(self) -> dict:
        return {"weights": self.weights.tolist()}

    @classmethod
    def from_state(cls, spec, label_space, input_dim, state: dict):
        weights = persisted_array(state, "weights", (input_dim + 1, label_space.m))
        return cls(spec, label_space, input_dim, weights)


def backtrack(evaluate, x, value: float, direction, slope: float):
    """Armijo backtracking from ``x`` along ``direction``, whose slope (the
    gradient's inner product with it) is ``slope``: tries t = 1, 1/2, 1/4, ...
    and accepts the first x + t * direction whose value falls below ``value``
    by at least ARMIJO * t * |slope| > 0, so an accepted step strictly
    decreases the value. Returns ``(x_next, value_next, by_product)`` from
    ``evaluate``, or None when MAX_HALVINGS halvings find no such step."""
    t = 1.0
    for _ in range(MAX_HALVINGS):
        x_next = x + t * direction
        value_next, by_next = evaluate(x_next)
        if value - value_next >= -ARMIJO * t * slope > 0.0:
            return x_next, value_next, by_next
        t *= 0.5
    return None


def lbfgs(evaluate, gradient, x: np.ndarray):
    """Minimize from ``x`` by limited-memory BFGS (Liu & Nocedal 1989).

    ``evaluate(x)`` returns ``(value, by_product)``, and ``gradient(x,
    by_product)`` takes the by-product of the evaluation at the same ``x``, so
    every trial point is evaluated once. The direction comes from the last
    LBFGS_MEMORY curvature pairs (s, y) by the two-loop recursion; a pair is
    kept only when s.y > 0, and with none kept the direction is the negative
    gradient over max(1, ||g||). Each step is accepted by ``backtrack``.
    Stops when ||g|| <= LBFGS_TOL * ||g at the start||, after MAX_STEPS
    steps, or when no step decreases the value. Returns the final point and
    the value history (the start, then one per accepted step), which strictly
    decreases.
    """
    value, by_product = evaluate(x)
    history = [value]
    g = gradient(x, by_product)
    tol = LBFGS_TOL * np.linalg.norm(g)
    pairs = deque(maxlen=LBFGS_MEMORY)  # (s, y, 1 / s.y), oldest first
    for _ in range(MAX_STEPS):
        g_norm = np.linalg.norm(g)
        if g_norm <= tol:
            break
        if pairs:
            q = g.copy()
            alphas = []
            for s, y, rho in reversed(pairs):
                alphas.append(rho * np.vdot(s, q))
                q -= alphas[-1] * y
            s, y, rho = pairs[-1]
            q *= 1.0 / (rho * np.vdot(y, y))  # initial Hessian scale s.y / y.y
            for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
                q += (alpha - rho * np.vdot(y, q)) * s
            direction = -q
        else:
            direction = -g / max(1.0, g_norm)
        step = backtrack(evaluate, x, value, direction, float(np.vdot(g, direction)))
        if step is None:
            break
        x_next, value, by_product = step
        g_next = gradient(x_next, by_product)
        s, y = x_next - x, g_next - g
        sy = float(np.vdot(s, y))
        if sy > 0.0:
            pairs.append((s, y, 1.0 / sy))
        x, g = x_next, g_next
        history.append(value)
    return x, history


def check_training_data(X, y, labels: LabelSpace) -> tuple[np.ndarray, np.ndarray]:
    """Validate the training preconditions of every kind, as ``classifiers.train``
    does before it calls a trainer: a finite matrix, one class index in
    [0, m) per row, and a sample of each of the m classes."""
    X = feature_matrix(X, "training features")
    y = class_indices(y, "training label", labels.m)
    if y.shape != (X.shape[0],):
        raise DimensionMismatch(f"y has shape {y.shape}, expected ({X.shape[0]},)")
    counts = np.bincount(y, minlength=labels.m)
    if np.count_nonzero(counts) < 2:
        raise SingleClassData("training data contains a single class")
    if not counts.all():
        names = [labels.class_names[i] for i in np.flatnonzero(counts == 0)]
        raise EmptyClass(f"classes with no training samples: {names}")
    return X, y
