"""Multiclass boosting of decision stumps (SAMME-style round weights).

The feature columns are sorted once per fit. Per round: fit a stump on the
current sample weights (one scan over every feature), compute its weighted
error err_t, and keep the round with weight

    alpha_t = ln((1 - err_t) / err_t) + ln(m - 1)

Misclassified samples are upweighted by exp(alpha_t) and the weights are
renormalized. A round with err_t >= (m-1)/m would get alpha <= 0 and is
rejected, stopping the loop; a perfect round (err_t = 0) is kept with the
error clamped to a tiny floor so alpha stays finite, then the loop stops.

Class scores are the alpha-weighted stump votes; probabilities come from
softmax of the scores divided by the total alpha, which preserves the argmax
while keeping the output on the simplex.
"""

from __future__ import annotations

import numpy as np

from ..core import LabelSpace, integer, persisted_array, real
from .base import ClassifierSpec, FittedClassifier, softmax
from .stumps import DecisionStump, sorted_columns, train_stump

ERR_FLOOR = 1e-12


def round_weight(err: float, m: int) -> float:
    """SAMME round weight; positive iff err < (m-1)/m."""
    err = max(err, ERR_FLOOR)
    return float(np.log((1.0 - err) / err) + np.log(m - 1))


class AdaBoostModel(FittedClassifier):
    def __init__(self, spec, label_space, input_dim, stumps, alphas):
        super().__init__(spec, label_space, input_dim)
        self.stumps = tuple(stumps)
        self.alphas = tuple(float(a) for a in alphas)

    def _scores(self, X: np.ndarray) -> np.ndarray:
        m = self.label_space.m
        F = np.zeros((X.shape[0], m))
        for stump, alpha in zip(self.stumps, self.alphas):
            pred = stump.predict(X)
            F[np.arange(X.shape[0]), pred] += alpha
        return F

    def _proba_matrix(self, X: np.ndarray) -> np.ndarray:
        total = sum(self.alphas)
        if total <= 0.0:
            return np.full((X.shape[0], self.label_space.m), 1.0 / self.label_space.m)
        return softmax(self._scores(X) / total)

    def state(self) -> dict:
        return {
            "stumps": [
                [s.feature_index, s.threshold, s.left_class, s.right_class]
                for s in self.stumps
            ],
            "alphas": list(self.alphas),
        }

    @classmethod
    def from_state(cls, spec, label_space, input_dim, state: dict):
        m = label_space.m
        stumps = [
            DecisionStump(
                integer(f, "stump feature", 0, input_dim),
                real(t, "stump threshold"),
                integer(lc, "stump class", 0, m),
                integer(rc, "stump class", 0, m),
            )
            for f, t, lc, rc in state["stumps"]
        ]
        alphas = persisted_array(state, "alphas", (len(stumps),))
        return cls(spec, label_space, input_dim, stumps, alphas)


def train_adaboost(spec: ClassifierSpec, X, y, labels: LabelSpace) -> AdaBoostModel:
    """Fit on data that ``check_training_data`` accepted."""
    n = X.shape[0]
    m = labels.m
    w = np.full(n, 1.0 / n)
    columns = sorted_columns(X)  # the sort order does not depend on the weights
    stumps, alphas = [], []
    reject_at = (m - 1) / m
    for _ in range(spec.rounds):
        stump = train_stump(X, y, w, columns)
        miss = stump.predict(X) != y
        err = float(w[miss].sum())
        if err >= reject_at:
            break  # alpha would be <= 0: reject the round and stop
        alpha = round_weight(err, m)
        stumps.append(stump)
        alphas.append(alpha)
        if err <= 0.0:
            break  # perfect stump recorded; nothing left to reweight
        w = w * np.exp(alpha * miss)
        w = w / w.sum()
    return AdaBoostModel(spec, labels, X.shape[1], stumps, alphas)
