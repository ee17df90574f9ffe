"""Linear one-vs-rest SVM with softmax-of-margins probabilities.

Each class gets a binary L2-loss (squared hinge) subproblem solved by the
finite Newton method (Keerthi & DeCoste 2005, "A modified finite Newton
method for fast solution of large scale linear SVMs"): every step solves one
(d+1)x(d+1) system in the generalized Hessian over the rows with margin < 1
and backtracks until the Armijo condition holds, so the objective decreases
strictly over accepted steps. Each class's weights and intercept are fitted
on every training row and form one column of a ``base.LinearModel``, so the
probabilities are softmax(margins), the same fixed link that logreg applies
to its logits; nothing is fitted after the margins. The regularization
constant is chosen from ``spec.c_grid`` by internal 3-fold cross-validation
on argmax accuracy, every C scored on the one fold plan that ``spec.seed``
deals; with one C there is no search, and the seed changes nothing. The
fitted model's ``spec.c_grid`` is the chosen C alone.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..core import LabelSpace, fold_assignments
from ..errors import BadSpec
from .base import ClassifierSpec, LinearModel, backtrack, with_intercept

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
    Xb = with_intercept(X)
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


def _fit_ovr(X: np.ndarray, y: np.ndarray, m: int, c: float) -> np.ndarray:
    """The (d+1, m) weights of a ``LinearModel``: column k is class k's
    hyperplane against the rest, with its intercept last."""
    weights = np.zeros((X.shape[1] + 1, m))
    for k in range(m):
        weights[:-1, k], weights[-1, k], _ = train_binary_svm(X, np.where(y == k, 1.0, -1.0), c)
    return weights


def _cv_accuracy(X, y, m, c, folds) -> float:
    correct = 0
    for f in range(folds.max() + 1):
        tr, te = folds != f, folds == f
        if len(np.unique(y[tr])) < 2:
            continue
        weights = _fit_ovr(X[tr], y[tr], m, c)
        pred = np.argmax(with_intercept(X[te]) @ weights, axis=1)
        correct += int((pred == y[te]).sum())
    return correct / len(y)


def train_linear_svm_ovr(spec: ClassifierSpec, X, y, labels: LabelSpace) -> LinearModel:
    """Fit on data that ``check_training_data`` accepted. The model's spec
    holds the one C it was fitted at, so training on that spec refits it."""
    if len(spec.c_grid) > 1:
        folds = fold_assignments(y, 3, np.random.default_rng(spec.seed))
        scores = [_cv_accuracy(X, y, labels.m, c, folds) for c in spec.c_grid]
        c = spec.c_grid[int(np.argmax(scores))]
    else:
        (c,) = spec.c_grid
    weights = _fit_ovr(X, y, labels.m, c)
    return LinearModel(dataclasses.replace(spec, c_grid=(c,)), labels, X.shape[1], weights)
