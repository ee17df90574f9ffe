"""Linear one-vs-rest SVM with softmax temperature calibration.

Each class gets a binary L2-loss (squared hinge) subproblem solved by the
finite Newton method (Keerthi & DeCoste 2005, "A modified finite Newton
method for fast solution of large scale linear SVMs"): every step solves one
(d+1)x(d+1) system in the generalized Hessian over the rows with margin < 1
and backtracks until the Armijo condition holds, so the objective decreases
strictly over accepted steps. The m margin values are mapped to
probabilities through softmax(margins / temperature); the temperature
minimizes negative log-likelihood on a stratified 20% calibration slice that
the hyperplanes never saw (Guo et al. 2017). That loss is convex in
1/temperature, so its slope in 1/temperature never decreases: bisection of
log(temperature) on [-6, 6] keeps the half across which the slope changes
sign, down to a bracket 1e-6 wide. The regularization constant is chosen
from ``spec.c_grid`` by internal 3-fold cross-validation on argmax accuracy
(calibration cannot change the argmax, so accuracy of raw margins is the
same as accuracy of calibrated probabilities).
"""

from __future__ import annotations

import numpy as np

from ..core import LabelSpace, fold_assignments, frozen_array, persisted_array, real
from ..core import shuffled_classes
from ..errors import BadSpec
from .base import ClassifierSpec, FittedClassifier, backtrack, check_training_data
from .logreg import softmax

NEWTON_MAX_STEPS = 50
GRAD_TOL = 1e-8  # stop once ||gradient|| <= GRAD_TOL * ||gradient at zero||
LOG_T_BOUNDS = (-6.0, 6.0)  # the calibrated temperature lies in [e^-6, e^6]
LOG_T_TOL = 1e-6  # bisection stops once the log-temperature bracket is this wide


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


def _stratified_indices(y: np.ndarray, fraction: float, rng) -> np.ndarray:
    """Pick roughly ``fraction`` of each class, at least 1 and at most
    class_size - 1, so both slices keep every class that has >= 2 samples."""
    held = []
    for members in shuffled_classes(y, rng):
        if len(members) < 2:
            continue
        take = int(round(fraction * len(members)))
        held.append(members[: min(max(take, 1), len(members) - 1)])
    if not held:
        return np.empty(0, dtype=np.int64)
    return np.sort(np.concatenate(held))


def _fit_temperature(margins: np.ndarray, y: np.ndarray) -> float:
    """The temperature T in exp(LOG_T_BOUNDS) that minimizes the mean
    negative log-likelihood of softmax(margins / T) at the labels ``y``.
    With gaps z_ik = margins_ik - margins_iy, that loss is convex in 1/T with
    slope mean_i(sum_k p_ik z_ik): a positive slope means T must rise."""
    gaps = margins - margins[np.arange(len(y)), y][:, None]
    lo, hi = LOG_T_BOUNDS
    while hi - lo > LOG_T_TOL:
        mid = 0.5 * (lo + hi)
        if np.einsum("ik,ik->", softmax(gaps / np.exp(mid)), gaps) > 0:
            lo = mid
        else:
            hi = mid
    return float(np.exp(0.5 * (lo + hi)))


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
        self.hyperplanes = frozen_array(hyperplanes)
        self.temperature = float(temperature)
        self.chosen_c = float(chosen_c)

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
        return cls(
            spec,
            label_space,
            input_dim,
            persisted_array(state, "hyperplanes", (label_space.m, input_dim + 1)),
            real(state["temperature"], "temperature", above=0.0),
            real(state["chosen_c"], "chosen_c", above=0.0),
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
    fit_idx = np.delete(np.arange(len(y)), cal_idx)
    planes = _fit_ovr(X[fit_idx], y[fit_idx], m, c)
    margins = _ovr_margins(planes, X[cal_idx])
    temperature = _fit_temperature(margins, y[cal_idx]) if len(cal_idx) else 1.0
    return LinearSvmOvrModel(spec, labels, X.shape[1], planes, temperature, c)
