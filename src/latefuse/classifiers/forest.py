"""Random forest of Gini-split decision trees on bootstrap resamples.

Every tree of a fit grows together, one depth at a time. A depth's frontier
is the list of (tree, node) segments still open; each holds its bootstrap
rows contiguously. A node becomes a leaf when it is pure or has min_leaf or
fewer rows; otherwise it searches ceil(sqrt(d)) candidate features drawn
without replacement and splits at the midpoint threshold with the largest
Gini impurity reduction, if that reduction exceeds IMPROVES. Ties go to the
lowest feature, then the lowest threshold. The search sorts every node's
rows by each of its candidate columns at once and reads the Gini of every
cut from two running integer sums, so the Python work grows with the depth,
not with the node count.

Tree t draws its bootstrap and, at each depth, its splitting nodes' feature
samples (in breadth-first order) from ``default_rng([seed, t])``, so a tree
depends only on (seed, t, data): not on the number of trees, the scan's
chunking or scheduling.

A fitted forest is five parallel node arrays (``feature``, ``threshold``,
``left``, ``right``, ``leaf``), the layout of scikit-learn's ``Tree``: node
t < trees is tree t's root, every child's id exceeds its parent's, a leaf
has ``left == right == -1`` and votes its ``leaf`` class, and unused entries
hold -1 (0.0 for a threshold). Prediction descends all trees at once, one
gather per depth; the probabilities are vote fractions, so they are exact
multiples of 1/trees. Boosting holds its stumps as depth-1 trees the same way.
"""

from __future__ import annotations

import numpy as np

from ..core import LabelSpace, frozen_array, persisted_array
from ..errors import BadSpec
from . import stumps
from .base import ClassifierSpec, FittedClassifier

IMPROVES = 1e-12  # a node splits only when its Gini reduction exceeds this
NODE_ARRAYS = ("feature", "threshold", "left", "right", "leaf")
SCAN_ARRAYS = 16  # a chunk's scan holds about this many int64 arrays of one value per lane entry


def column_ranks(X: np.ndarray) -> np.ndarray:
    """Per-column dense ranks of X: equal values share a rank, and a < b
    exactly when rank(a) < rank(b)."""
    order, _, cuts = stumps.sorted_columns(X)
    sorted_ranks = np.zeros(X.shape, dtype=np.int64)
    np.cumsum(cuts, axis=0, out=sorted_ranks[1:])
    ranks = np.empty_like(sorted_ranks)
    np.put_along_axis(ranks, order, sorted_ranks, axis=0)
    return ranks


def _segment_cumsum(a: np.ndarray, first: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """Inclusive running sums of ``a`` that restart at each segment's first
    entry; exact for integers."""
    total = np.cumsum(a)
    return total - (total[first] - a[first])[seg]


def _chunk_splits(X, ranks, y, rows, sizes, features, m, min_leaf):
    """``frontier_splits`` for the nodes of one chunk. Each (node, candidate
    feature) pair is a lane holding the node's rows sorted by that column;
    a node's lanes are adjacent, in feature order."""
    c, mtry = features.shape
    n, d = X.shape
    lane_size = np.repeat(sizes, mtry)
    lane_first = np.cumsum(lane_size) - lane_size
    lane = np.repeat(np.arange(c * mtry), lane_size)
    node = lane // mtry
    at = np.arange(len(lane)) - lane_first[lane]  # position within the lane
    row = rows[(np.cumsum(sizes) - sizes)[node] + at]
    key = lane * n + ranks.ravel()[row * d + features.ravel()[lane]]
    order = np.argsort(key)
    key, row = key[order], row[order]
    ys = y[row]
    # occ, the number of same-class entries before each entry in its lane:
    # its place in a stable sort by class less that class's entries in
    # earlier lanes (a stable sort of small integers is a radix sort)
    by_class = np.argsort(ys.astype(np.min_scalar_type(m)), kind="stable")
    class_size = np.bincount(ys, minlength=m)
    lane_class = np.bincount(lane * m + ys, minlength=c * mtry * m).reshape(-1, m)
    occ = np.empty_like(ys)
    occ[by_class] = np.arange(len(ys)) - np.repeat(np.cumsum(class_size) - class_size, class_size)
    occ -= (np.cumsum(lane_class, axis=0) - lane_class)[lane, ys]
    # at the cut after each entry: left_sq = sum_k L_k^2 grows by 2*occ + 1,
    # cross = sum_k P_k L_k by P, the node's count of the entry's class
    counts = lane_class[::mtry]  # every lane of a node holds its rows
    left_sq = _segment_cumsum(2 * occ + 1, lane_first, lane)
    cross = _segment_cumsum(counts.ravel()[node * m + ys], lane_first, lane)
    parent_sq = (counts * counts).sum(axis=1)
    right_sq = parent_sq[node] - 2 * cross + left_sq  # sum_k (P_k - L_k)^2
    n_left = at + 1
    n_right = lane_size[lane] - n_left
    allowed = np.zeros(len(key), dtype=bool)
    allowed[:-1] = key[:-1] < key[1:]  # between distinct values of one lane
    allowed &= (n_left >= min_leaf) & (n_right >= min_leaf)
    # left_sq/n_left + right_sq/n_right as one division of integers (exact
    # below about 3 million rows per node), so cuts with equal Gini get
    # equal scores; n_right is 0 at a lane's end
    score = np.full(len(key), -np.inf)
    np.divide(left_sq * n_right + right_sq * n_left, n_left * n_right, out=score, where=allowed)
    lane_best = np.maximum.reduceat(score, lane_first).reshape(c, mtry)
    j = np.argmax(lane_best, axis=1)  # the lowest feature reaching the node's best
    best = lane_best[np.arange(c), j]
    hits = np.flatnonzero(score == best[node])
    cut = hits[np.searchsorted(hits, lane_first[np.arange(c) * mtry + j])]  # lowest threshold
    feature = features[np.arange(c), j]
    lo, hi = X[row[cut], feature], X[row[cut + 1], feature]
    with np.errstate(over="ignore"):
        threshold = 0.5 * (lo + hi)
    # the midpoint of two adjacent floats can round to hi, and lo + hi can
    # overflow; then split at lo, so neither side of a split is empty
    threshold = np.where((lo <= threshold) & (threshold < hi), threshold, lo)
    # Gini reduction = (score - parent_sq / n) / n
    return (best - parent_sq / sizes) / sizes, feature, threshold


def frontier_splits(X, ranks, y, rows, sizes, features, m, min_leaf):
    """Best Gini split of every node of a frontier.

    Node s owns the next ``sizes[s]`` entries of ``rows`` (sample indices;
    repeats allowed, at least two per node) and searches the sorted
    candidate features ``features[s]``; ``ranks`` is ``column_ranks(X)``.
    Returns each node's Gini reduction (-inf when no cut leaves min_leaf
    rows on both sides), feature and midpoint threshold. The nodes are
    scanned in chunks of whole nodes, each chunk's scan arrays (about
    SCAN_ARRAYS of entries x mtry int64 values) together within
    ``stumps.SCAN_BYTES``; the chunking does not change any result.
    """
    k, mtry = features.shape
    reduction, threshold = np.empty(k), np.empty(k)
    feature = np.empty(k, dtype=np.int64)
    ends = np.cumsum(sizes)
    budget = max(1, stumps.SCAN_BYTES // (8 * mtry * SCAN_ARRAYS))  # entries per chunk
    lo = 0
    while lo < k:
        start = ends[lo] - sizes[lo]
        hi = max(lo + 1, int(np.searchsorted(ends, start + budget, side="right")))
        reduction[lo:hi], feature[lo:hi], threshold[lo:hi] = _chunk_splits(
            X, ranks, y, rows[start : ends[hi - 1]], sizes[lo:hi], features[lo:hi], m, min_leaf
        )
        lo = hi
    return reduction, feature, threshold


def _draw_features(rngs, tree: np.ndarray, d: int, mtry: int) -> np.ndarray:
    """Sorted candidate features for one depth's splitting nodes, grouped by
    tree in ascending order: one draw per tree, rows in breadth-first order."""
    per_tree = np.bincount(tree, minlength=len(rngs))
    draws = [np.empty((0, mtry), dtype=np.int64)]
    for t in np.flatnonzero(per_tree):
        sample = np.argsort(rngs[t].random((per_tree[t], d)), axis=1)[:, :mtry]
        draws.append(np.sort(sample, axis=1))
    return np.concatenate(draws)


def grow_forest(X, y, m: int, trees: int, min_leaf: int, seed: int) -> dict:
    """The node arrays of ``trees`` trees grown together, one depth at a time."""
    n, d = X.shape
    mtry = int(np.ceil(np.sqrt(d)))
    ranks = column_ranks(X)
    rngs = [np.random.default_rng([seed, t]) for t in range(trees)]
    rows = np.concatenate([rng.integers(0, n, size=n) for rng in rngs])
    sizes = np.full(trees, n)
    tree = np.arange(trees)  # the frontier stays grouped by tree, breadth first
    splits, leaves, features, thresholds = [], [], [], []
    while len(sizes):
        k = len(sizes)
        seg = np.repeat(np.arange(k), sizes)
        counts = np.bincount(seg * m + y[rows], minlength=k * m).reshape(k, m)
        split = (sizes > min_leaf) & (np.count_nonzero(counts, axis=1) > 1)
        reduction, f, t = frontier_splits(
            X, ranks, y, rows[split[seg]], sizes[split],
            _draw_features(rngs, tree[split], d, mtry), m, min_leaf,
        )
        found = reduction > IMPROVES
        split[split] = found
        f, t = f[found], t[found]
        splits.append(split)
        leaves.append(np.argmax(counts, axis=1))
        features.append(f)
        thresholds.append(t)
        # deal the split nodes' rows to their children, keeping their order
        inside = split[seg]
        rows, parent = rows[inside], (np.cumsum(split) - 1)[seg[inside]]
        child = 2 * parent + (X[rows, f[parent]] > t[parent])
        rows = rows[np.argsort(child, kind="stable")]
        sizes = np.bincount(child, minlength=2 * len(f))
        tree = np.repeat(tree[split], 2)
    # node ids follow the frontiers, so the split nodes' children are
    # numbered consecutively from ``trees`` in split-node order
    split = np.concatenate(splits)
    left = np.full(len(split), -1)
    left[split] = trees + 2 * np.arange(np.count_nonzero(split))
    feature, threshold = np.full(len(split), -1), np.zeros(len(split))
    feature[split], threshold[split] = np.concatenate(features), np.concatenate(thresholds)
    return {
        "feature": feature,
        "threshold": threshold,
        "left": left,
        "right": np.where(split, left + 1, -1),
        "leaf": np.where(split, -1, np.concatenate(leaves)),
    }


def read_nodes(state: dict, trees: int, input_dim: int, m: int) -> dict:
    """The node arrays of ``state``, read-only and of one length; BadSpec unless
    they are ``trees`` trees rooted at nodes 0..trees-1 in which every other
    node has one parent with a smaller id, so every descent ends at a leaf."""
    nodes = {}
    for name in NODE_ARRAYS:  # each as long as the first
        shape = (len(nodes["feature"]),) if nodes else None
        nodes[name] = persisted_array(state, name, shape, integral=name != "threshold")
    feature, _, left, right, leaf = (nodes[name] for name in NODE_ARRAYS)
    size = len(feature)
    if size < trees:
        raise BadSpec(f"feature has {size} nodes, too few for {trees} trees")
    inner = (left != -1) | (right != -1)
    if np.any(inner & ((feature < 0) | (feature >= input_dim))):
        raise BadSpec(f"feature holds a split feature outside [0, {input_dim})")
    if np.any(~inner & ((leaf < 0) | (leaf >= m))):
        raise BadSpec(f"leaf holds a class outside [0, {m})")
    ids = np.arange(size)
    children = np.concatenate([left[inner], right[inner]])
    if np.any((children <= np.tile(ids[inner], 2)) | (children >= size)):
        raise BadSpec("left or right holds a child id not above its parent's or beyond the nodes")
    if not np.array_equal(np.bincount(children, minlength=size), ids >= trees):
        raise BadSpec("left and right give a node other than a root no parent or two")
    return nodes


class RandomForestModel(FittedClassifier):
    """``trees`` trees in the node arrays voting by count; ``AdaBoostModel`` weights the votes."""

    def __init__(self, spec, label_space, input_dim, nodes: dict, trees: int):
        super().__init__(spec, label_space, input_dim)
        self.trees = trees
        self.nodes = {
            name: frozen_array(nodes[name], np.float64 if name == "threshold" else np.int64)
            for name in NODE_ARRAYS
        }
        left, right = self.nodes["left"], self.nodes["right"]
        leaf = left == -1
        ids = np.arange(len(leaf))
        # a leaf is its own child (through feature 0), so a descent rests there
        children = np.stack([np.where(leaf, ids, left), np.where(leaf, ids, right)], axis=1)
        self._children = frozen_array(children.ravel(), np.int64)
        self._feature = frozen_array(np.where(leaf, 0, self.nodes["feature"]), np.int64)

    def _votes(self, X: np.ndarray, weights=None) -> np.ndarray:
        """Per row and class: the trees voting it, or their ``weights`` summed in tree order."""
        (r, d), m, trees = X.shape, self.label_space.m, self.trees
        votes = np.empty((r, m))
        # rows per block: the descent's (trees x rows) arrays stay as small as a scan's
        step = max(1, stumps.SCAN_BYTES // (8 * SCAN_ARRAYS * trees))
        for lo in range(0, r, step):
            block = X[lo : lo + step]
            flat, rows = block.ravel(), len(block)
            at = np.repeat(np.arange(trees), rows)  # entry i: tree i // rows at row i % rows
            base = np.tile(np.arange(0, rows * d, d), trees)
            while True:
                right = flat[base + self._feature[at]] > self.nodes["threshold"][at]
                below = self._children[2 * at + right]
                if np.array_equal(below, at):
                    break
                at = below
            bins = np.tile(np.arange(rows) * m, trees) + self.nodes["leaf"][at]
            w = None if weights is None else np.repeat(weights, rows)
            votes[lo : lo + rows] = np.bincount(bins, w, rows * m).reshape(rows, m)
        return votes

    def _proba_matrix(self, X: np.ndarray) -> np.ndarray:
        return self._votes(X) / self.trees

    def state(self) -> dict:
        return {name: self.nodes[name].tolist() for name in NODE_ARRAYS}

    @classmethod
    def from_state(cls, spec, label_space, input_dim, state: dict):
        nodes = read_nodes(state, spec.trees, input_dim, label_space.m)
        return cls(spec, label_space, input_dim, nodes, spec.trees)


def train_random_forest(spec: ClassifierSpec, X, y, labels: LabelSpace) -> RandomForestModel:
    """Fit on data that ``check_training_data`` accepted."""
    nodes = grow_forest(X, y, labels.m, spec.trees, spec.min_leaf, spec.seed)
    return RandomForestModel(spec, labels, X.shape[1], nodes, spec.trees)
