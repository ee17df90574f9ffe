"""Random forest of Gini-split decision trees on bootstrap resamples.

Each node draws ceil(sqrt(d)) candidate features without replacement and
splits at the midpoint threshold maximizing Gini impurity reduction; growth
stops when a node is pure, has min_leaf or fewer samples, or no candidate
split reduces impurity. Every tree votes the majority class of the reached
leaf and the forest's probabilities are vote fractions, so they are exact
multiples of 1/trees.

Each tree's RNG stream is derived from (seed, tree_index), never from
scheduling order, so a fixed seed reproduces the forest bit for bit.
"""

from __future__ import annotations

import numpy as np

from ..core import LabelSpace
from .base import ClassifierSpec, FittedClassifier, check_training_data, state_index


def _gini(counts: np.ndarray) -> float:
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return 1.0 - float((p * p).sum())


def _best_split(X, y, idx, feature_ids, m, min_leaf):
    """Best (feature, threshold) by Gini reduction among the sampled features;
    returns None when nothing improves on the parent node."""
    n = len(idx)
    parent_counts = np.bincount(y[idx], minlength=m)
    parent_gini = _gini(parent_counts)
    best = None
    for f in feature_ids:
        xs_order = idx[np.argsort(X[idx, f], kind="stable")]
        xs = X[xs_order, f]
        boundaries = np.flatnonzero(xs[:-1] < xs[1:]) + 1  # left side size
        boundaries = boundaries[(boundaries >= min_leaf) & (n - boundaries >= min_leaf)]
        if len(boundaries) == 0:
            continue
        onehot = np.zeros((n, m))
        onehot[np.arange(n), y[xs_order]] = 1.0
        cum = np.cumsum(onehot, axis=0)
        left = cum[boundaries - 1]
        right = parent_counts - left
        n_left = boundaries.astype(np.float64)
        n_right = n - n_left
        gini_left = 1.0 - (left * left).sum(axis=1) / (n_left * n_left)
        gini_right = 1.0 - (right * right).sum(axis=1) / (n_right * n_right)
        child = (n_left * gini_left + n_right * gini_right) / n
        reduction = parent_gini - child
        j = int(np.argmax(reduction))
        if reduction[j] <= 1e-12:
            continue
        if best is None or reduction[j] > best[0]:
            pos = boundaries[j]
            thr = 0.5 * (xs[pos - 1] + xs[pos])
            best = (float(reduction[j]), int(f), float(thr))
    return best


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
                float(node["t"])  # the threshold must be a number
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
