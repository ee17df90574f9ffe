"""Multinomial logistic regression trained by L-BFGS.

The weights are fitted by ``base.lbfgs`` from zero weights until the
gradient norm of the regularized loss falls to ``base.LBFGS_TOL`` times its
norm at zero; every step is accepted by Armijo backtracking, so the loss
strictly decreases over accepted steps. Deterministic for fixed data; the
seed is unused here but kept for the shared contract.
"""

from __future__ import annotations

import numpy as np

from ..core import LabelSpace, class_indices, frozen_array, persisted_array
from ..errors import DimensionMismatch
from .base import ClassifierSpec, FittedClassifier, check_training_data, lbfgs


def _row_max(Z: np.ndarray) -> np.ndarray:
    # a max is exact, so reading column by column is faster and gives the same values
    return np.asfortranarray(Z).max(axis=1, keepdims=True)


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax: shift by the row max before exponentiating."""
    z = np.asarray(z, dtype=np.float64)
    one_row = z.ndim == 1
    if one_row:
        z = z[None, :]
    e = np.exp(z - _row_max(z))
    p = e / e.sum(axis=1, keepdims=True)
    return p[0] if one_row else p


def _loss_and_gradient(X: np.ndarray, y: np.ndarray, lam: float):
    """``(evaluate, gradient)`` of the regularized mean cross-entropy for
    ``lbfgs``; the gradient reuses the shifted logits and log normalizers
    that ``evaluate`` computed at the same W."""
    rows = np.arange(X.shape[0])

    def evaluate(W):
        Z = X @ W
        Zs = Z - _row_max(Z)
        log_norm = np.log(np.exp(Zs).sum(axis=1))
        ll = (Zs[rows, y] - log_norm).mean()
        return -ll + 0.5 * lam * float((W * W).sum()), (Zs, log_norm)

    def gradient(W, shifted):
        Zs, log_norm = shifted
        P = np.exp(Zs - log_norm[:, None])
        P[rows, y] -= 1.0
        return X.T @ P / len(rows) + lam * W

    return evaluate, gradient


def logreg_loss_grad(W: np.ndarray, X: np.ndarray, y: np.ndarray, lam: float):
    """Mean cross-entropy plus (lam/2)*||W||^2, with its exact gradient.

    W is (d, m); logits are X @ W. Returns (loss, grad) where grad has the
    same shape as W.
    """
    W = np.asarray(W, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    if W.shape[0] != X.shape[1]:
        raise DimensionMismatch(f"W has {W.shape[0]} rows, X has {X.shape[1]} columns")
    evaluate, gradient = _loss_and_gradient(X, class_indices(y, "label", W.shape[1]), lam)
    loss, shifted = evaluate(W)
    return float(loss), gradient(W, shifted)


class LogisticModel(FittedClassifier):
    """Fitted softmax regression; weights include a bias row for the
    constant feature appended during training."""

    def __init__(self, spec, label_space, input_dim, weights: np.ndarray):
        super().__init__(spec, label_space, input_dim)
        self.weights = frozen_array(weights)

    def _proba_matrix(self, X: np.ndarray) -> np.ndarray:
        Xb = np.hstack([X, np.ones((X.shape[0], 1))])
        return softmax(Xb @ self.weights)

    def state(self) -> dict:
        return {"weights": self.weights.tolist()}

    @classmethod
    def from_state(cls, spec, label_space, input_dim, state: dict):
        weights = persisted_array(state, "weights", (input_dim + 1, label_space.m))
        return cls(spec, label_space, input_dim, weights)


def train_logreg(
    spec: ClassifierSpec, X, y, labels: LabelSpace
) -> LogisticModel:
    X, y = check_training_data(X, y, labels)
    Xb = np.hstack([X, np.ones((X.shape[0], 1))])
    W, _ = lbfgs(*_loss_and_gradient(Xb, y, spec.lam), np.zeros((Xb.shape[1], labels.m)))
    return LogisticModel(spec, labels, X.shape[1], W)
