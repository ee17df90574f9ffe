"""Depth-1 decision stumps trained on weighted data, and the sorted-column
scan they share with the forest's splits.

A stump assigns one class to each side of a single-feature threshold:
``train_stump`` returns the split it scored as ``(feature, threshold, left
class, right class)``, the left class for ``x[feature] <= threshold``, and
boosting keeps it as a depth-1 tree built by ``forest.tree_nodes``.
Thresholds lie between consecutive distinct sorted values, at the
``split_point`` the forest's splits use too; the best class for each side
is the weighted majority there, so the search minimizes weighted 0/1 error
over every (feature, threshold, class-pair) candidate.
Ties break to the lowest feature index, then the lowest threshold, then the
lowest class index.

The columns are sorted once per fit (the order does not depend on the
weights), and one cumulative sum of class weights scans a whole block of
candidate features at once; blocks are as wide as SCAN_BYTES allows, so
the scan's memory does not grow with the number of features.
"""

from __future__ import annotations

import numpy as np

SCAN_BYTES = 1 << 21  # bytes of float64 class weights one block's scan may hold


def sorted_columns(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort all columns of X at once: the (n, d) stable order, the sorted
    values, and the (n-1, d) mask of cuts between distinct neighbours."""
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    return order, xs, xs[:-1] < xs[1:]


def split_point(lo, hi):
    """A threshold t with lo <= t < hi for sorted values lo < hi: their
    midpoint, or lo where that rounds to hi or lo + hi overflows."""
    with np.errstate(over="ignore"):
        mid = 0.5 * (lo + hi)
    return np.where((lo <= mid) & (mid < hi), mid, lo)


def column_blocks(m: int, n: int, d: int) -> list[slice]:
    """Consecutive column slices whose (m, n-1, width) scan fits SCAN_BYTES."""
    width = max(1, SCAN_BYTES // (8 * m * n))
    return [slice(lo, min(lo + width, d)) for lo in range(0, d, width)]


def left_class_weights(order: np.ndarray, y: np.ndarray, w: np.ndarray, m: int) -> np.ndarray:
    """left[k, i, f]: weight of class k among the i+1 smallest values of
    column f, for every cut position i < n-1 (class axis first)."""
    n, d = order.shape
    left = np.zeros((m, n - 1, d))
    left[y[order[:-1]], np.arange(n - 1)[:, None], np.arange(d)] = w[order[:-1]]
    return np.cumsum(left, axis=1, out=left)


def train_stump(X: np.ndarray, y: np.ndarray, w: np.ndarray, columns) -> tuple[int, float, int, int]:
    """The exact weighted-error-minimizing split ``(feature, threshold, left
    class, right class)`` from one scan of every feature, on what
    ``train_adaboost`` guarantees: data that ``check_training_data`` accepted,
    nonnegative weights with a positive sum, and ``columns = sorted_columns(X)``."""
    order, xs, cuts = columns
    m = int(y.max()) + 1
    total_w = w.sum()
    class_totals = np.zeros(m)
    np.add.at(class_totals, y, w)
    if not cuts.any():
        # every feature is constant; fall back to a majority-vote stump
        majority = int(np.argmax(class_totals))
        return 0, float(X[0, 0]), majority, majority

    best = (np.inf, 0, 0, 0, 0)  # (error, feature, cut, left class, right class)
    for cols in column_blocks(m, *order.shape):
        left = left_class_weights(order[:, cols], y, w, m)
        # best right-side weight one class at a time: no second (m, n-1, width) array
        right_best = class_totals[0] - left[0]
        for k in range(1, m):
            np.maximum(right_best, class_totals[k] - left[k], out=right_best)
        errors = total_w - left.max(axis=0) - right_best
        errors[~cuts[:, cols]] = np.inf
        # first minimum in feature-major order: lowest feature, then lowest threshold
        f, i = np.unravel_index(int(np.argmin(errors.T)), errors.T.shape)
        if errors[i, f] < best[0]:  # strict: a tie keeps the earlier block's feature
            best = (
                errors[i, f],
                cols.start + int(f),
                int(i),
                int(np.argmax(left[:, i, f])),
                int(np.argmax(class_totals - left[:, i, f])),
            )
    _, f, i, lc, rc = best
    return f, float(split_point(xs[i, f], xs[i + 1, f])), lc, rc

