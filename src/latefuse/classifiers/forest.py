"""Random forest of Gini-split decision trees on bootstrap resamples.

Each node draws ceil(sqrt(d)) candidate features without replacement, sorts
their columns and scans a block of them per cumulative class-count pass (the
stumps' kernel), and splits at the midpoint threshold maximizing Gini
impurity reduction; growth stops when a node is pure, has min_leaf or fewer
samples, or no candidate split reduces impurity. Every tree votes the
majority class of the reached leaf and the forest's probabilities are vote
fractions, so they are exact multiples of 1/trees.

Each tree's RNG stream is derived from (seed, tree_index), never from
scheduling order, so a fixed seed reproduces the forest bit for bit.
"""

from __future__ import annotations

import numpy as np

from ..core import LabelSpace
from .base import ClassifierSpec, FittedClassifier, check_training_data, state_float, state_index
from .stumps import column_blocks, left_class_weights, sorted_columns


def _gini(counts: np.ndarray) -> float:
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return 1.0 - float((p * p).sum())


def _best_split(X, y, idx, feature_ids, m, min_leaf):
    """Best (feature, threshold) by Gini reduction among the sampled features,
    scanned a block of columns at a time; returns None when nothing improves
    on the parent."""
    n = len(idx)
    parent_counts = np.bincount(y[idx], minlength=m).astype(np.float64)
    parent_gini = _gini(parent_counts)
    n_left = np.arange(1, n, dtype=np.float64)[:, None]  # left side size per cut
    n_right = n - n_left
    too_small = (n_left < min_leaf) | (n_right < min_leaf)
    best = (-np.inf, 0, 0.0)  # (reduction, feature, threshold)
    for cols in column_blocks(m, n, len(feature_ids)):
        order, xs, cuts = sorted_columns(X[np.ix_(idx, feature_ids[cols])])
        left = left_class_weights(order, y[idx], np.ones(n), m)
        left_sq = (left * left).sum(axis=0)
        # sum_k (P_k - L_k)^2 without building the right side; exact for integer counts
        cross = (parent_counts @ left.reshape(m, -1)).reshape(left_sq.shape)
        right_sq = parent_counts @ parent_counts - 2.0 * cross + left_sq
        gini_left = 1.0 - left_sq / (n_left * n_left)
        gini_right = 1.0 - right_sq / (n_right * n_right)
        reduction = parent_gini - (n_left * gini_left + n_right * gini_right) / n
        reduction[~cuts | too_small] = -np.inf
        # first maximum in feature-major order: lowest feature, then lowest threshold
        j, i = np.unravel_index(int(np.argmax(reduction.T)), reduction.T.shape)
        if reduction[i, j] > best[0]:  # strict: a tie keeps the earlier block's feature
            thr = float(0.5 * (xs[i, j] + xs[i + 1, j]))
            best = (float(reduction[i, j]), int(feature_ids[cols][j]), thr)
    return best if best[0] > 1e-12 else None


def _grow_tree(X, y, idx, m, min_leaf, rng):
    counts = np.bincount(y[idx], minlength=m)
    if len(idx) <= min_leaf or np.count_nonzero(counts) <= 1:
        return {"leaf": int(np.argmax(counts))}
    mtry = int(np.ceil(np.sqrt(X.shape[1])))
    feature_ids = np.sort(rng.choice(X.shape[1], size=mtry, replace=False))
    found = _best_split(X, y, idx, feature_ids, m, min_leaf)
    if found is None:
        return {"leaf": int(np.argmax(counts))}
    _, f, thr = found
    mask = X[idx, f] <= thr
    return {
        "f": f,
        "t": thr,
        "l": _grow_tree(X, y, idx[mask], m, min_leaf, rng),
        "r": _grow_tree(X, y, idx[~mask], m, min_leaf, rng),
    }


def _tree_votes(tree: dict, X: np.ndarray) -> np.ndarray:
    out = np.empty(X.shape[0], dtype=np.int64)
    stack = [(tree, np.arange(X.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if len(rows) == 0:
            continue
        if "leaf" in node:
            out[rows] = node["leaf"]
            continue
        mask = X[rows, node["f"]] <= node["t"]
        stack.append((node["l"], rows[mask]))
        stack.append((node["r"], rows[~mask]))
    return out


class RandomForestModel(FittedClassifier):
    def __init__(self, spec, label_space, input_dim, trees):
        super().__init__(spec, label_space, input_dim)
        self.trees = tuple(trees)

    def _proba_matrix(self, X: np.ndarray) -> np.ndarray:
        m = self.label_space.m
        votes = np.zeros((X.shape[0], m))
        for tree in self.trees:
            v = _tree_votes(tree, X)
            votes[np.arange(X.shape[0]), v] += 1.0
        return votes / len(self.trees)

    def state(self) -> dict:
        return {"trees": list(self.trees)}

    @classmethod
    def from_state(cls, spec, label_space, input_dim, state: dict):
        nodes = list(state["trees"])
        while nodes:
            node = nodes.pop()
            if "leaf" in node:
                state_index(node["leaf"], label_space.m, "leaf class")
            else:
                state_index(node["f"], input_dim, "split feature")
                state_float(node["t"], "split threshold")
                nodes += [node["l"], node["r"]]
        return cls(spec, label_space, input_dim, state["trees"])


def train_random_forest(
    spec: ClassifierSpec, X, y, labels: LabelSpace
) -> RandomForestModel:
    X, y = check_training_data(X, y, labels)
    n = X.shape[0]
    trees = []
    for t in range(spec.trees):
        rng = np.random.default_rng([spec.seed, t])
        boot = rng.integers(0, n, size=n)
        trees.append(_grow_tree(X, y, boot, labels.m, spec.min_leaf, rng))
    return RandomForestModel(spec, labels, X.shape[1], trees)
