"""Multinomial logistic regression trained by full-batch gradient descent.

The optimizer uses backtracking halving: each iteration starts from twice the
previously accepted step and halves until the regularized loss strictly
decreases, so the loss history is monotone by construction. Deterministic for
fixed data; the seed is unused here but kept for the shared contract.
"""

from __future__ import annotations

import numpy as np

from ..core import LabelSpace
from ..errors import DimensionMismatch
from .base import ClassifierSpec, FittedClassifier, check_training_data, state_array

MAX_ITERS = 500
REL_TOL = 1e-8
MAX_HALVINGS = 60


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax: shift by the row max before exponentiating."""
    z = np.asarray(z, dtype=np.float64)
    one_row = z.ndim == 1
    if one_row:
        z = z[None, :]
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)
    return p[0] if one_row else p


def logreg_loss_grad(W: np.ndarray, X: np.ndarray, y: np.ndarray, lam: float):
    """Mean cross-entropy plus (lam/2)*||W||^2, with its exact gradient.

    W is (d, m); logits are X @ W. Returns (loss, grad) where grad has the
    same shape as W.
    """
    W = np.asarray(W, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n, d = X.shape
    if W.shape[0] != d:
        raise DimensionMismatch(f"W has {W.shape[0]} rows, X has {d} columns")
    m = W.shape[1]
    Z = X @ W
    Zs = Z - Z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(Zs).sum(axis=1))
    log_p = Zs - log_norm[:, None]
    loss = -log_p[np.arange(n), y].mean() + 0.5 * lam * float((W * W).sum())
    P = np.exp(log_p)
    P[np.arange(n), y] -= 1.0
    grad = X.T @ P / n + lam * W
    return float(loss), grad


def _loss_only(W, X, y, lam) -> float:
    Z = X @ W
    Zs = Z - Z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(Zs).sum(axis=1))
    ll = (Zs[np.arange(X.shape[0]), y] - log_norm).mean()
    return -ll + 0.5 * lam * float((W * W).sum())


def _fit_weights(X: np.ndarray, y: np.ndarray, m: int, lam: float) -> np.ndarray:
    d = X.shape[1]
    W = np.zeros((d, m))
    loss, grad = logreg_loss_grad(W, X, y, lam)
    step = 1.0
    for _ in range(MAX_ITERS):
        step *= 2.0
        accepted = False
        for _ in range(MAX_HALVINGS):
            W_next = W - step * grad
            loss_next = _loss_only(W_next, X, y, lam)
            if loss_next < loss:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break  # gradient is numerically flat
        rel_change = (loss - loss_next) / max(abs(loss), 1e-300)
        W = W_next
        loss, grad = logreg_loss_grad(W, X, y, lam)
        if rel_change < REL_TOL:
            break
    return W


class LogisticModel(FittedClassifier):
    """Fitted softmax regression; weights include a bias row for the
    constant feature appended during training."""

    def __init__(self, spec, label_space, input_dim, weights: np.ndarray):
        super().__init__(spec, label_space, input_dim)
        self.weights = np.ascontiguousarray(weights, dtype=np.float64)
        self.weights.setflags(write=False)

    def _proba_matrix(self, X: np.ndarray) -> np.ndarray:
        Xb = np.hstack([X, np.ones((X.shape[0], 1))])
        return softmax(Xb @ self.weights)

    def state(self) -> dict:
        return {"weights": self.weights.tolist()}

    @classmethod
    def from_state(cls, spec, label_space, input_dim, state: dict):
        weights = state_array(state, "weights", (input_dim + 1, label_space.m))
        return cls(spec, label_space, input_dim, weights)


def train_logreg(
    spec: ClassifierSpec, X, y, labels: LabelSpace
) -> LogisticModel:
    X, y = check_training_data(X, y, labels)
    Xb = np.hstack([X, np.ones((X.shape[0], 1))])
    W = _fit_weights(Xb, y, labels.m, spec.lam)
    return LogisticModel(spec, labels, X.shape[1], W)
