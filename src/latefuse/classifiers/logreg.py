"""Multinomial logistic regression trained by L-BFGS.

The weights are fitted by ``base.lbfgs`` from zero weights until the
gradient norm of the regularized loss falls to ``base.LBFGS_TOL`` times its
norm at zero; every step is accepted by Armijo backtracking, so the loss
strictly decreases over accepted steps. Deterministic for fixed data; the
seed is unused here but kept for the shared contract.
"""

from __future__ import annotations

import numpy as np

from ..core import LabelSpace
from .base import ClassifierSpec, LinearModel, _row_max, lbfgs, with_intercept


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


def train_logreg(spec: ClassifierSpec, X, y, labels: LabelSpace) -> LinearModel:
    """Fit on data that ``check_training_data`` accepted."""
    Xb = with_intercept(X)
    W, _ = lbfgs(*_loss_and_gradient(Xb, y, spec.lam), np.zeros((Xb.shape[1], labels.m)))
    return LinearModel(spec, labels, X.shape[1], W)
