"""Linear one-vs-rest SVM with softmax temperature calibration.

Each class gets a binary hinge-loss subproblem solved by deterministic
full-batch subgradient descent with the shared backtracking-halving loop
``base.descend``, so the objective decreases monotonically over accepted
epochs. The m margin values are mapped to probabilities through
softmax(margins / temperature); the temperature is fitted by minimizing
negative log-likelihood on a stratified 20% calibration slice that the
hyperplanes never saw. The regularization constant is chosen from
``spec.c_grid`` by internal 3-fold cross-validation on argmax accuracy
(calibration cannot change the argmax, so accuracy of raw margins is the
same as accuracy of calibrated probabilities).
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize_scalar

from ..core import LabelSpace, fold_assignments
from .base import (
    ClassifierSpec, FittedClassifier, check_training_data, descend, state_array, state_float
)
from .logreg import softmax


def svm_objective(w: np.ndarray, b: float, X: np.ndarray, y_pm: np.ndarray, c: float) -> float:
    """Primal objective 0.5*||w||^2 + c * sum(hinge)."""
    margins = y_pm * (X @ w + b)
    hinge = np.maximum(0.0, 1.0 - margins)
    return 0.5 * float(w @ w) + c * float(hinge.sum())


def _subgradient(v, X, y_pm, c) -> np.ndarray:
    # v packs (w, b); so does the returned subgradient
    w = v[:-1]
    margins = y_pm * (X @ w + float(v[-1]))
    active = margins < 1.0
    gb = -c * float(y_pm[active].sum())
    return np.concatenate((w - c * (X[active].T @ y_pm[active]), [gb]))


def train_binary_svm(X: np.ndarray, y_pm: np.ndarray, c: float):
    """Solve one binary subproblem; returns (w, b, objective_history).

    ``descend`` runs on (w, b) packed into one vector, from zero and a
    scale-aware first step. The history strictly decreases across epochs.
    """
    v, history = descend(
        lambda v: svm_objective(v[:-1], float(v[-1]), X, y_pm, c),
        lambda v: _subgradient(v, X, y_pm, c),
        np.zeros(X.shape[1] + 1),
        1.0 / max(1.0, c * X.shape[0]),
    )
    return v[:-1], float(v[-1]), history


def _ovr_margins(hyperplanes: np.ndarray, X: np.ndarray) -> np.ndarray:
    # hyperplanes is (m, d+1): weight row plus trailing intercept
    return X @ hyperplanes[:, :-1].T + hyperplanes[:, -1]


def _fit_ovr(X: np.ndarray, y: np.ndarray, m: int, c: float) -> np.ndarray:
    planes = np.zeros((m, X.shape[1] + 1))
    for k in range(m):
        y_pm = np.where(y == k, 1.0, -1.0)
        w, b, _ = train_binary_svm(X, y_pm, c)
        planes[k, :-1] = w
        planes[k, -1] = b
    return planes


def _stratified_indices(y: np.ndarray, fraction: float, rng) -> np.ndarray:
    """Pick roughly ``fraction`` of each class, at least 1 and at most
    class_size - 1, so both slices keep every class that has >= 2 samples."""
    held = []
    for k in np.unique(y):
        members = np.flatnonzero(y == k)
        if len(members) < 2:
            continue
        take = int(round(fraction * len(members)))
        take = min(max(take, 1), len(members) - 1)
        held.append(rng.permutation(members)[:take])
    if not held:
        return np.empty(0, dtype=np.int64)
    return np.sort(np.concatenate(held))


def _nll_of_temperature(log_t: float, margins: np.ndarray, y: np.ndarray) -> float:
    t = float(np.exp(log_t))
    P = softmax(margins / t)
    picked = np.clip(P[np.arange(len(y)), y], 1e-300, None)
    return -float(np.log(picked).mean())


def _fit_temperature(margins: np.ndarray, y: np.ndarray) -> float:
    res = minimize_scalar(
        _nll_of_temperature,
        bounds=(-6.0, 6.0),
        args=(margins, y),
        method="bounded",
        options={"xatol": 1e-6},
    )
    return float(np.exp(res.x))


def _cv_accuracy(X, y, m, c, k, rng) -> float:
    folds = fold_assignments(y, k, rng)
    correct = 0
    for f in range(k):
        tr, te = folds != f, folds == f
        if len(np.unique(y[tr])) < 2 or te.sum() == 0:
            continue
        planes = _fit_ovr(X[tr], y[tr], m, c)
        pred = np.argmax(_ovr_margins(planes, X[te]), axis=1)
        correct += int((pred == y[te]).sum())
    return correct / len(y)


class LinearSvmOvrModel(FittedClassifier):
    """One hyperplane per class; probabilities via temperature softmax."""

    def __init__(self, spec, label_space, input_dim, hyperplanes, temperature, chosen_c):
        super().__init__(spec, label_space, input_dim)
        self.hyperplanes = np.ascontiguousarray(hyperplanes, dtype=np.float64)
        self.hyperplanes.setflags(write=False)
        self.temperature = float(temperature)
        self.chosen_c = float(chosen_c)

    def decision_function(self, x) -> np.ndarray:
        X, one_row = self._check_input(x)
        margins = _ovr_margins(self.hyperplanes, X)
        return margins[0] if one_row else margins

    def _proba_matrix(self, X: np.ndarray) -> np.ndarray:
        return softmax(_ovr_margins(self.hyperplanes, X) / self.temperature)

    def state(self) -> dict:
        return {
            "hyperplanes": self.hyperplanes.tolist(),
            "temperature": self.temperature,
            "chosen_c": self.chosen_c,
        }

    @classmethod
    def from_state(cls, spec, label_space, input_dim, state: dict):
        temperature = state_float(state["temperature"], "temperature")
        if temperature <= 0.0:
            raise ValueError(f"temperature {temperature} is not positive")
        return cls(
            spec,
            label_space,
            input_dim,
            state_array(state, "hyperplanes", (label_space.m, input_dim + 1)),
            temperature,
            state["chosen_c"],
        )


def train_linear_svm_ovr(
    spec: ClassifierSpec, X, y, labels: LabelSpace
) -> LinearSvmOvrModel:
    X, y = check_training_data(X, y, labels)
    m = labels.m

    rng = np.random.default_rng(spec.seed)
    if len(spec.c_grid) > 1:
        scores = [_cv_accuracy(X, y, m, c, 3, rng) for c in spec.c_grid]
        c = spec.c_grid[int(np.argmax(scores))]
    else:
        c = spec.c_grid[0]

    cal_idx = _stratified_indices(y, 0.2, rng)
    fit_mask = np.ones(len(y), dtype=bool)
    fit_mask[cal_idx] = False
    if len(np.unique(y[fit_mask])) < 2:
        fit_mask[:] = True  # degenerate tiny data: calibrate in-sample

    planes = _fit_ovr(X[fit_mask], y[fit_mask], m, c)
    margins = _ovr_margins(planes, X[cal_idx])
    temperature = _fit_temperature(margins, y[cal_idx]) if len(cal_idx) else 1.0
    return LinearSvmOvrModel(spec, labels, X.shape[1], planes, temperature, c)
