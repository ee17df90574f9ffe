"""Multiclass boosting of decision stumps (SAMME-style round weights).

The feature columns are sorted once per fit. Per round: fit a stump on the
current sample weights (one scan over every feature), compute its weighted
error err_t, and keep the round with weight

    alpha_t = ln((1 - err_t) / err_t) + ln(m - 1)

Misclassified samples are upweighted by exp(alpha_t) and the weights are
renormalized. A round with err_t >= (m-1)/m would get alpha <= 0 and is
rejected, stopping the loop; a perfect round (err_t = 0) is kept with the
error clamped to a tiny floor so alpha stays finite, then the loop stops.

Each stump is kept as a depth-1 tree of the forest's node arrays. Class
scores are the alpha-weighted stump votes; probabilities are the softmax of
the scores over the total alpha (the argmax kept, the output on the simplex),
or uniform when that total is not positive, as when no round was kept.
"""

from __future__ import annotations

import numpy as np

from ..core import LabelSpace, frozen_array, persisted_array
from .base import ClassifierSpec, softmax
from .forest import NODE_ARRAYS, RandomForestModel, read_nodes
from .stumps import sorted_columns, train_stump

ERR_FLOOR = 1e-12


def round_weight(err: float, m: int) -> float:
    """SAMME round weight; positive iff err < (m-1)/m."""
    err = max(err, ERR_FLOOR)
    return float(np.log((1.0 - err) / err) + np.log(m - 1))


class AdaBoostModel(RandomForestModel):
    """One depth-1 tree per kept round, whose vote weighs that round's alpha."""

    def __init__(self, spec, label_space, input_dim, nodes: dict, alphas):
        super().__init__(spec, label_space, input_dim, nodes, len(alphas))
        self.alphas = frozen_array(alphas)

    def _proba_matrix(self, X: np.ndarray) -> np.ndarray:
        total = sum(self.alphas)  # left to right: np.sum adds pairwise and may round otherwise
        if total <= 0.0:
            return np.full((X.shape[0], self.label_space.m), 1.0 / self.label_space.m)
        return softmax(self._votes(X, self.alphas) / total)

    def state(self) -> dict:
        return {**super().state(), "alphas": self.alphas.tolist()}

    @classmethod
    def from_state(cls, spec, label_space, input_dim, state: dict):
        alphas = persisted_array(state, "alphas", None)
        nodes = read_nodes(state, len(alphas), input_dim, label_space.m)
        return cls(spec, label_space, input_dim, nodes, alphas)


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
    # stump i: root i, its leaves t + 2i and t + 2i + 1, numbered as by grow_forest
    t = len(stumps)
    nodes = {name: np.full(3 * t, 0.0 if name == "threshold" else -1) for name in NODE_ARRAYS}
    for i, s in enumerate(stumps):
        nodes["feature"][i], nodes["threshold"][i] = s.feature_index, s.threshold
        nodes["left"][i], nodes["right"][i] = t + 2 * i, t + 2 * i + 1
        nodes["leaf"][t + 2 * i : t + 2 * i + 2] = s.left_class, s.right_class
    return AdaBoostModel(spec, labels, X.shape[1], nodes, alphas)
