"""Linear one-vs-rest SVM with softmax-of-margins probabilities.

Each class gets a binary L2-loss (squared hinge) subproblem solved by the
finite Newton method (Keerthi & DeCoste 2005, "A modified finite Newton
method for fast solution of large scale linear SVMs"): every step solves one
(d+1)x(d+1) system in the generalized Hessian over the rows with margin < 1
and backtracks until the Armijo condition holds, so the objective decreases
strictly over accepted steps. The hyperplanes are fitted on every training
row, and the m margin values are mapped to probabilities by softmax(margins),
the same fixed link that logreg applies to its logits; nothing is fitted
after the hyperplanes. The regularization constant is chosen from
``spec.c_grid`` by internal 3-fold cross-validation on argmax accuracy, every
C scored on the one fold plan that ``spec.seed`` deals; with one C there is
no search, and the seed changes nothing.
"""

from __future__ import annotations

import numpy as np

from ..core import LabelSpace, fold_assignments, frozen_array, persisted_array, real
from ..errors import BadSpec
from .base import ClassifierSpec, FittedClassifier, backtrack, check_training_data
from .logreg import softmax

NEWTON_MAX_STEPS = 50
GRAD_TOL = 1e-8  # stop once ||gradient|| <= GRAD_TOL * ||gradient at zero||


def svm_objective(w: np.ndarray, margins: np.ndarray, c: float) -> float:
    """Primal objective 0.5*||w||^2 + c * sum(hinge^2) at the margins
    y_pm * (X @ w + b), where hinge = max(0, 1 - margin)."""
    hinge = np.maximum(0.0, 1.0 - margins)
    return 0.5 * float(w @ w) + c * float(hinge @ hinge)


def train_binary_svm(X: np.ndarray, y_pm: np.ndarray, c: float):
    """Solve one binary subproblem; returns (w, b, objective_history).

    Newton steps on (w, b) packed into one vector, from zero; the bias is not
    regularized. Stops when the gradient norm falls to GRAD_TOL times its norm
    at zero (compared without underflow, so a tiny ``c`` still takes steps),
    after NEWTON_MAX_STEPS steps, or when ``base.backtrack`` finds no step
    that meets the Armijo condition. The history (the start, then one
    value per accepted step) strictly decreases. Raises BadSpec when ``c`` is
    so large that the objective, the first gradient or the first Hessian
    overflows.
    """
    n, d = X.shape
    Xb = np.hstack((X, np.ones((n, 1))))
    penalized = np.ones(d + 1)
    penalized[-1] = 0.0

    def evaluate(v):
        margins = y_pm * (Xb @ v)
        return svm_objective(v[:-1], margins, c), margins

    def newton_system(v, margins):
        # gradient and generalized Hessian over the rows with margin < 1
        active = margins < 1.0
        if not active.any():  # the bias row of the Hessian would be all zero
            return penalized * v, np.eye(d + 1)
        X_active = Xb.compress(active, axis=0)
        residual = (margins.compress(active) - 1.0) * y_pm.compress(active)
        gradient = penalized * v + 2.0 * c * (X_active.T @ residual)
        hessian = 2.0 * c * (X_active.T @ X_active)
        hessian[np.diag_indices(d)] += 1.0
        return gradient, hessian

    v = np.zeros(d + 1)
    value, margins = evaluate(v)  # every margin is 0: all rows are active
    with np.errstate(over="ignore"):
        gradient, hessian = newton_system(v, margins)
        gradient_norm = np.linalg.norm(gradient)
    if not (np.isfinite(value) and np.isfinite(gradient_norm) and np.all(np.isfinite(hessian))):
        raise BadSpec(f"c_grid value {c!r} overflows the SVM objective on {n} rows")
    # The stop test takes norms of the gradient over a power of two just above
    # its largest entry at zero. That scaling is exact, so the test decides as
    # the plain norms would, but for a tiny c the squares do not underflow.
    scale = np.ldexp(1.0, np.frexp(np.abs(gradient).max())[1])
    tol = GRAD_TOL * np.linalg.norm(gradient / scale)
    history = [value]
    for _ in range(NEWTON_MAX_STEPS):
        if np.linalg.norm(gradient / scale) <= tol:
            break
        direction = np.linalg.solve(hessian, -gradient)
        step = backtrack(evaluate, v, value, direction, float(gradient @ direction))
        if step is None:
            break  # no representable decrease along the Newton direction
        v, value, margins = step
        history.append(value)
        gradient, hessian = newton_system(v, margins)
    return v[:-1], float(v[-1]), history


def _ovr_margins(hyperplanes: np.ndarray, X: np.ndarray) -> np.ndarray:
    # hyperplanes is (m, d+1): weight row plus trailing intercept
    return X @ hyperplanes[:, :-1].T + hyperplanes[:, -1]


def _fit_ovr(X: np.ndarray, y: np.ndarray, m: int, c: float) -> np.ndarray:
    planes = np.zeros((m, X.shape[1] + 1))
    for k in range(m):
        planes[k, :-1], planes[k, -1], _ = train_binary_svm(X, np.where(y == k, 1.0, -1.0), c)
    return planes


def _cv_accuracy(X, y, m, c, folds) -> float:
    correct = 0
    for f in range(folds.max() + 1):
        tr, te = folds != f, folds == f
        if len(np.unique(y[tr])) < 2:
            continue
        planes = _fit_ovr(X[tr], y[tr], m, c)
        pred = np.argmax(_ovr_margins(planes, X[te]), axis=1)
        correct += int((pred == y[te]).sum())
    return correct / len(y)


class LinearSvmOvrModel(FittedClassifier):
    """One hyperplane per class; probabilities are the softmax of the margins."""

    def __init__(self, spec, label_space, input_dim, hyperplanes, chosen_c):
        super().__init__(spec, label_space, input_dim)
        self.hyperplanes = frozen_array(hyperplanes)
        self.chosen_c = float(chosen_c)

    def _proba_matrix(self, X: np.ndarray) -> np.ndarray:
        return softmax(_ovr_margins(self.hyperplanes, X))

    def state(self) -> dict:
        return {"hyperplanes": self.hyperplanes.tolist(), "chosen_c": self.chosen_c}

    @classmethod
    def from_state(cls, spec, label_space, input_dim, state: dict):
        return cls(
            spec,
            label_space,
            input_dim,
            persisted_array(state, "hyperplanes", (label_space.m, input_dim + 1)),
            real(state["chosen_c"], "chosen_c", above=0.0),
        )


def train_linear_svm_ovr(
    spec: ClassifierSpec, X, y, labels: LabelSpace
) -> LinearSvmOvrModel:
    X, y = check_training_data(X, y, labels)
    m = labels.m

    if len(spec.c_grid) > 1:
        folds = fold_assignments(y, 3, np.random.default_rng(spec.seed))
        scores = [_cv_accuracy(X, y, m, c, folds) for c in spec.c_grid]
        c = spec.c_grid[int(np.argmax(scores))]
    else:
        c = spec.c_grid[0]
    planes = _fit_ovr(X, y, m, c)
    return LinearSvmOvrModel(spec, labels, X.shape[1], planes, c)
