import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latefuse.classifiers import ClassifierSpec, model_from_state, train
from latefuse.classifiers import forest, stumps
from latefuse.classifiers.adaboost import round_weight, train_adaboost
from latefuse.classifiers.base import softmax
from latefuse.classifiers.stumps import sorted_columns, train_stump
from latefuse.core import LabelSpace
from latefuse.errors import SingleClassData

from conftest import DETERMINISTIC, gaussian_blobs, nested_tree

LABELS2 = LabelSpace(("c0", "c1"))
# feature values rounded to one decimal, so columns repeat values
ROUNDED = st.floats(-2.0, 2.0, allow_nan=False).map(lambda v: round(v, 1))
# sorted pairs whose midpoint is not between them: adjacent floats, where it
# rounds to the upper value, and a pair whose sum overflows
_A = np.nextafter(1.0, 2.0)
NO_MIDPOINT = [(_A, np.nextafter(_A, 2.0)), (1e308, 1.5e308)]


def stump_predict(stump, X) -> np.ndarray:
    """The classes that the split ``stump = (feature, threshold, left class,
    right class)`` gives the rows of ``X``."""
    f, t, lc, rc = stump
    return np.where(X[:, f] <= t, lc, rc)


def stump_weighted_error(stump, X, y, w) -> float:
    """The share of the weight ``w`` on the rows that ``stump`` misclassifies."""
    return float(w[stump_predict(stump, X) != y].sum() / w.sum())


def brute_force_stump(X, y, w):
    """Independent oracle: enumerate every (feature, midpoint, class pair)."""
    n, d = X.shape
    m = int(y.max()) + 1
    best = None
    for f in range(d):
        values = np.unique(X[:, f])
        for t in 0.5 * (values[:-1] + values[1:]):
            for lc in range(m):
                for rc in range(m):
                    pred = np.where(X[:, f] <= t, lc, rc)
                    err = float(w[pred != y].sum())
                    key = (err, f, t, lc, rc)
                    if best is None or key < best:
                        best = key
    return best


@st.composite
def stump_problems(draw):
    """Small X with repeated values and one constant column, labels with at
    least two of m classes, integer weights with some zeros."""
    m = draw(st.integers(2, 4))
    n = draw(st.integers(4, 12))
    d = draw(st.integers(1, 3))
    X = np.array(draw(st.lists(st.lists(ROUNDED, min_size=d, max_size=d), min_size=n, max_size=n)))
    const_at = draw(st.integers(0, d))
    X = np.insert(X, const_at, draw(ROUNDED), axis=1)
    y = np.array(draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)))
    w = np.array(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)), dtype=np.float64)
    assume(len(np.unique(y)) >= 2 and w.sum() > 0)
    return X, y, w


class TestStump:
    @settings(DETERMINISTIC, max_examples=200)
    @given(stump_problems())
    def test_matches_oracle_property(self, problem):
        X, y, w = problem
        s = train_stump(X, y, w, sorted_columns(X))
        best = brute_force_stump(X, y, w)
        if best is None:  # every column constant: majority-vote stump
            majority = int(np.argmax(np.bincount(y, weights=w)))
            assert s[2] == s[3] == majority
            return
        err, *split = best
        assert s == tuple(split)
        assert stump_weighted_error(s, X, y, w) * w.sum() == pytest.approx(err)

    def test_separable_midpoint(self):
        X = np.array([[0.0], [0.1], [1.0], [1.1]])
        y = np.array([0, 0, 1, 1])
        s = train_stump(X, y, np.full(4, 0.25), sorted_columns(X))
        assert s[1] == pytest.approx(0.55)
        assert s[2:] == (0, 1)
        assert stump_weighted_error(s, X, y, np.full(4, 0.25)) == 0.0

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            X = rng.standard_normal((10, 2))
            y = rng.integers(0, 3, size=10)
            if len(np.unique(y)) < 2:
                continue
            w = np.ones(10)  # unit weights keep error sums exact
            s = train_stump(X, y, w, sorted_columns(X))
            err, *split = brute_force_stump(X, y, w)
            assert stump_weighted_error(s, X, y, w) * w.sum() == pytest.approx(err)
            assert s == tuple(split)

    @pytest.mark.parametrize("lo,hi", NO_MIDPOINT)
    def test_split_between_values_whose_midpoint_is_not_between(self, lo, hi):
        X = np.array([[lo], [lo], [hi], [hi]])
        y = np.array([0, 0, 1, 1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = train_stump(X, y, np.ones(4), sorted_columns(X))
        assert s[1] == lo
        np.testing.assert_array_equal(stump_predict(s, X), y)

    def test_all_weight_on_one_sample(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([1, 0, 1, 0])
        w = np.array([0.0, 0.0, 1.0, 0.0])
        s = train_stump(X, y, w, sorted_columns(X))
        assert stump_predict(s, X[2:3])[0] == 1
        assert stump_weighted_error(s, X, y, w) == 0.0

    def test_column_blocks_match_one_pass(self, monkeypatch):
        rng = np.random.default_rng(3)
        col = np.round(rng.standard_normal(40), 1)
        X = np.round(rng.standard_normal((40, 7)), 1)
        X[:, 2] = 0.5  # a constant column
        X[:, 4] = X[:, 6] = col  # the best feature twice, in different blocks
        y = (col > 0.2).astype(np.int64) + 2 * (col > 0.9)
        w = rng.integers(0, 4, size=40).astype(np.float64)
        problems = [(X, y, w), (X[:, :4], rng.integers(0, 4, size=40), w)]
        one_pass = [train_stump(*p, sorted_columns(p[0])) for p in problems]
        assert one_pass[0][0] == 4
        for width in (1, 2, 3):
            monkeypatch.setattr(stumps, "SCAN_BYTES", 8 * 4 * 40 * width)
            assert len(stumps.column_blocks(4, 40, 7)) == -(-7 // width)
            for problem, expected in zip(problems, one_pass):
                s = train_stump(*problem, sorted_columns(problem[0]))
                assert s == expected
                _, *split = brute_force_stump(*problem)
                assert s == tuple(split)

    def test_scan_memory_does_not_grow_with_features(self):
        rng = np.random.default_rng(4)
        n, m, d = 200, 20, 1000
        X = rng.standard_normal((n, d))
        y = rng.integers(0, m, size=n)
        one_pass_bytes = 8 * m * (n - 1) * d  # the (m, n-1, d) scan of every feature
        tracemalloc.start()
        try:
            train_stump(X, y, np.ones(n), sorted_columns(X))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the sorted columns (3.4 MB) and one block's scan, not 32 MB
        assert peak < one_pass_bytes / 3


class TestAdaBoost:
    def test_round_weight_formula(self):
        # direct evaluation of the round-weight rule
        assert round_weight(0.1, 2) == pytest.approx(np.log(9), abs=1e-9)
        assert round_weight(0.5, 3) == pytest.approx(np.log(2), abs=1e-9)

    def test_separable_one_round(self):
        X = np.array([[0.0], [0.2], [1.0], [1.2]])
        y = np.array([0, 0, 1, 1])
        model = train_adaboost(ClassifierSpec("adaboost_stumps", rounds=10), X, y, LABELS2)
        assert len(model.alphas) <= 3
        assert float((model.predict(X) == y).mean()) == 1.0

    @pytest.mark.parametrize("lo,hi", NO_MIDPOINT)
    def test_separates_values_whose_midpoint_is_not_between(self, lo, hi):
        X = np.array([[lo], [lo], [hi], [hi]])
        y = np.array([0, 0, 1, 1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = train(ClassifierSpec("adaboost_stumps", rounds=10), X, y, LABELS2)
        assert float((model.predict(X) == y).mean()) == 1.0

    def test_hopeless_round_rejected(self):
        # identical points with conflicting labels: the best stump errs 0.5
        X = np.zeros((4, 1))
        y = np.array([0, 1, 0, 1])
        model = train_adaboost(ClassifierSpec("adaboost_stumps", rounds=10), X, y, LABELS2)
        assert len(model.alphas) == 0 and all(len(a) == 0 for a in model.nodes.values())
        assert model.predict_proba(np.zeros((1, 1))).tolist() == [[0.5, 0.5]]

    def test_kept_rounds_have_positive_alpha(self, rng):
        X, y = gaussian_blobs(rng, 30, [[0, 0], [1.5, 0], [0, 1.5]])
        model = train(
            ClassifierSpec("adaboost_stumps", rounds=40),
            X,
            y,
            LabelSpace(("a", "b", "c")),
        )
        assert len(model.alphas) > 0
        assert all(a > 0 for a in model.alphas)

    def test_probabilities_on_simplex(self, rng):
        X, y = gaussian_blobs(rng, 25, [[0, 0], [2, 2], [4, 0]])
        model = train(
            ClassifierSpec("adaboost_stumps", rounds=25), X, y, LabelSpace(("a", "b", "c"))
        )
        P = model.predict_proba(rng.standard_normal((40, 2)) * 3)
        assert np.all(P >= 0)
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("rounds", [1, 7, 30])
    def test_probabilities_are_the_softmax_of_alpha_weighted_stump_votes(self, rng, rounds):
        # oracle: each stump read from its depth-1 tree (root i, leaves T + 2i
        # and T + 2i + 1) votes its alpha, one row and one stump at a time
        X, y = gaussian_blobs(rng, 20, [[0, 0], [1.5, 0], [0, 1.5]])
        model = train(ClassifierSpec("adaboost_stumps", rounds=rounds), X, y, LabelSpace(("a", "b", "c")))
        nodes = model.state()
        alphas, T = nodes["alphas"], len(nodes["alphas"])
        assert len(nodes["feature"]) == 3 * T
        probe = rng.standard_normal((50, 2)) * 2
        F = np.zeros((len(probe), 3))
        for r, x in enumerate(probe):
            for i, alpha in enumerate(alphas):
                assert (nodes["left"][i], nodes["right"][i]) == (T + 2 * i, T + 2 * i + 1)
                side = "left" if x[nodes["feature"][i]] <= nodes["threshold"][i] else "right"
                child = nodes[side][i]
                F[r, nodes["leaf"][child]] += alpha
        np.testing.assert_array_equal(model.predict_proba(probe), softmax(F / sum(alphas)))

    def test_a_model_of_no_rounds_predicts_uniformly(self):
        empty = {name: [] for name in forest.NODE_ARRAYS + ("alphas",)}
        model = model_from_state(ClassifierSpec("adaboost_stumps"), LabelSpace(("a", "b", "c", "d")), 2, empty)
        with np.errstate(all="raise"):
            assert model.predict_proba(np.ones((3, 2))).tolist() == [[0.25] * 4] * 3

    def test_deterministic(self, rng):
        X, y = gaussian_blobs(rng, 20, [[0, 0], [2, 0]])
        spec = ClassifierSpec("adaboost_stumps", rounds=15)
        m1 = train_adaboost(spec, X, y, LABELS2)
        m2 = train_adaboost(spec, X, y, LABELS2)
        assert m1.state() == m2.state()


def best_single_stump_accuracy(X, y):
    """Exhaustive stump optimum (oracle for the forest comparison)."""
    err, *_ = brute_force_stump(X, y, np.ones(len(y)))
    return 1.0 - err / len(y)


def brute_force_split(X, y, idx, feature_ids, m, min_leaf):
    """Independent oracle: every sampled feature and every midpoint, with the
    Gini reduction computed exactly from the class counts on each side;
    returns the first best (reduction, feature, threshold) or None."""
    labels = y[idx]
    n = len(idx)

    def weighted_gini(side):  # len(side) * Gini(side)
        counts = np.bincount(side, minlength=m)
        return Fraction(len(side)) - Fraction(int((counts * counts).sum()), len(side))

    parent = weighted_gini(labels) / n
    best = None
    for f in feature_ids:
        col = X[idx, f]
        values = np.unique(col)
        for t in 0.5 * (values[:-1] + values[1:]):
            left = col <= t
            if min(left.sum(), n - left.sum()) < min_leaf:
                continue
            reduction = parent - (weighted_gini(labels[left]) + weighted_gini(labels[~left])) / n
            if reduction > 0 and (best is None or reduction > best[0]):
                best = (reduction, int(f), float(t))
    return best


@st.composite
def split_problems(draw):
    """A bootstrap node (repeated rows) over rounded features, a sorted
    feature sample and a leaf size."""
    m = draw(st.integers(2, 4))
    n, d = draw(st.integers(3, 14)), draw(st.integers(1, 4))
    X = np.array(draw(st.lists(st.lists(ROUNDED, min_size=d, max_size=d), min_size=n, max_size=n)))
    y = np.array(draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)))
    idx = np.array(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2 * n)))
    features = draw(st.sets(st.integers(0, d - 1), min_size=1))
    min_leaf = draw(st.integers(1, 4))
    return X, y, idx, np.array(sorted(features)), m, min_leaf


def best_split(X, y, idx, feature_ids, m, min_leaf):
    """The level-wise search on a frontier of one node: the first best
    (reduction, feature, threshold), or None when no cut improves."""
    reduction, f, t = forest.frontier_splits(
        X, forest.column_ranks(X), y, np.asarray(idx), np.array([len(idx)]),
        np.asarray(feature_ids)[None, :], m, min_leaf,
    )
    if not reduction[0] > forest.IMPROVES:
        return None
    return float(reduction[0]), int(f[0]), float(t[0])


def assert_split_matches_oracle(X, y, idx, feature_ids, m, min_leaf):
    found = best_split(X, y, idx, feature_ids, m, min_leaf)
    expected = brute_force_split(X, y, idx, feature_ids, m, min_leaf)
    if expected is None:
        assert found is None
        return
    assert found is not None
    assert found[1:] == expected[1:]
    assert found[0] == pytest.approx(float(expected[0]), abs=1e-12)


class TestBestSplit:
    @settings(DETERMINISTIC, max_examples=200)
    @given(split_problems())
    def test_matches_oracle_property(self, problem):
        assert_split_matches_oracle(*problem)

    def test_min_leaf_blocks_the_best_cut(self):
        # the clean cut isolates one sample; min_leaf=2 forces a worse one
        X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0]])
        y = np.array([0, 1, 1, 1, 1])
        idx = np.arange(5)
        assert best_split(X, y, idx, np.array([0]), 2, 1)[1:] == (0, 0.5)
        assert best_split(X, y, idx, np.array([0]), 2, 2)[1:] == (0, 1.5)
        for min_leaf in (1, 2, 3):
            assert_split_matches_oracle(X, y, idx, np.array([0]), 2, min_leaf)

    def test_tie_between_features_goes_to_lowest(self):
        rng = np.random.default_rng(5)
        col = rng.standard_normal(12)
        X = np.column_stack([rng.standard_normal(12), col, col, col])
        y = (col > 0).astype(np.int64)
        idx = np.arange(12)
        found = best_split(X, y, idx, np.array([1, 2, 3]), 2, 1)
        assert found[1] == 1
        assert_split_matches_oracle(X, y, idx, np.array([1, 2, 3]), 2, 1)

    def test_column_blocks_match_one_pass(self, monkeypatch):
        rng = np.random.default_rng(6)
        col = rng.standard_normal(30)
        X = np.column_stack([rng.standard_normal((30, 2)), col, col, rng.standard_normal(30), col])
        y = (col > 0.3).astype(np.int64) + (col > 1.0)
        idx = rng.integers(0, 30, size=30)
        features = np.array([0, 1, 2, 3, 4, 5])
        one_pass = best_split(X, y, idx, features, 3, 2)
        assert one_pass[1] == 2
        for width in (1, 2, 4):
            monkeypatch.setattr(stumps, "SCAN_BYTES", 8 * 3 * 30 * width)
            assert len(stumps.column_blocks(3, 30, 6)) == -(-6 // width)
            assert best_split(X, y, idx, features, 3, 2) == one_pass
            assert_split_matches_oracle(X, y, idx, features, 3, 2)

    def test_no_improving_split_returns_none(self):
        # constant feature, then a cut that leaves both sides' mix unchanged
        idx, features, y = np.arange(4), np.array([0]), np.array([0, 1, 0, 1])
        assert best_split(np.zeros((4, 1)), y, idx, features, 2, 1) is None
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        assert best_split(X, y, idx, features, 2, 1) is None
        assert brute_force_split(X, y, idx, features, 2, 1) is None


@st.composite
def frontier_problems(draw):
    """Several nodes sharing one frontier, as if from different trees: each
    with its own bootstrap rows and its own sorted sample of mtry features."""
    m = draw(st.integers(2, 4))
    n, d = draw(st.integers(3, 12)), draw(st.integers(1, 4))
    X = np.array(draw(st.lists(st.lists(ROUNDED, min_size=d, max_size=d), min_size=n, max_size=n)))
    y = np.array(draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)))
    mtry = draw(st.integers(1, d))
    rows = st.lists(st.integers(0, n - 1), min_size=2, max_size=2 * n)
    features = st.sets(st.integers(0, d - 1), min_size=mtry, max_size=mtry).map(sorted)
    nodes = draw(st.lists(st.tuples(rows, features), min_size=1, max_size=5))
    return X, y, nodes, m, draw(st.integers(1, 3))


class TestFrontierSplits:
    @settings(DETERMINISTIC, max_examples=150)
    @given(frontier_problems())
    def test_every_node_matches_oracle(self, problem):
        X, y, nodes, m, min_leaf = problem
        args = (
            X, forest.column_ranks(X), y, np.concatenate([r for r, _ in nodes]),
            np.array([len(r) for r, _ in nodes]), np.array([f for _, f in nodes]), m, min_leaf,
        )
        one_pass = forest.frontier_splits(*args)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stumps, "SCAN_BYTES", 8)  # one node per chunk
            for a, b in zip(forest.frontier_splits(*args), one_pass):
                np.testing.assert_array_equal(a, b)
        for s, (rows, features) in enumerate(nodes):
            expected = brute_force_split(X, y, np.array(rows), features, m, min_leaf)
            if expected is None:
                assert not one_pass[0][s] > forest.IMPROVES
            else:
                assert (one_pass[1][s], one_pass[2][s]) == expected[1:]
                assert one_pass[0][s] == pytest.approx(float(expected[0]), abs=1e-12)


def reference_tree(X, y, idx, m, min_leaf):
    """Recursive oracle grower for one-feature data, where the feature draws
    cannot matter: ``brute_force_split`` at every node, as nested dicts."""
    counts = np.bincount(y[idx], minlength=m)
    found = None
    if len(idx) > min_leaf and np.count_nonzero(counts) > 1:
        found = brute_force_split(X, y, idx, [0], m, min_leaf)
    if found is None:
        return {"leaf": int(np.argmax(counts))}
    _, f, t = found
    left = X[idx, f] <= t
    return {
        "f": f,
        "t": t,
        "l": reference_tree(X, y, idx[left], m, min_leaf),
        "r": reference_tree(X, y, idx[~left], m, min_leaf),
    }


class TestTreeNodes:
    def test_numbers_a_hand_written_depth_2_layout(self):
        # frontier order: tree 0's root (split), tree 1's root (a class-1 leaf);
        # the root's children (a split, a class-2 leaf); that split's leaves 0 and 1.
        # A split node's leaf entry (7) is not read.
        nodes = forest.tree_nodes(
            [True, False, True, False, False, False], [1, 0], [0.5, 2.0], [7, 1, 7, 2, 0, 1], 2
        )
        assert {name: a.tolist() for name, a in nodes.items()} == {
            "feature": [1, -1, 0, -1, -1, -1],
            "threshold": [0.5, 0.0, 2.0, 0.0, 0.0, 0.0],
            "left": [2, -1, 4, -1, -1, -1],
            "right": [3, -1, 5, -1, -1, -1],
            "leaf": [-1, 1, -1, 2, 0, 1],
        }
        assert nested_tree(nodes, 0) == {
            "f": 1, "t": 0.5, "l": {"f": 0, "t": 2.0, "l": {"leaf": 0}, "r": {"leaf": 1}},
            "r": {"leaf": 2},
        }
        assert nested_tree(nodes, 1) == {"leaf": 1}
        forest.read_nodes(nodes, 2, 2, 3)  # a layout the model file reader accepts

    def test_zero_trees_have_no_nodes(self):
        nodes = forest.tree_nodes([], [], [], [], 0)
        assert list(nodes) == list(forest.NODE_ARRAYS)
        assert all(len(a) == 0 for a in nodes.values())


class TestRandomForest:
    def test_one_feature_forest_matches_reference_grower(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n, m, min_leaf = int(rng.integers(5, 50)), int(rng.integers(2, 5)), int(rng.integers(1, 4))
            X = np.round(rng.standard_normal((n, 1)), int(rng.integers(0, 3)))
            y = np.concatenate([np.arange(m), rng.integers(0, m, size=n - m)])
            spec = ClassifierSpec("random_forest", seed=7, trees=3, min_leaf=min_leaf)
            state = train(spec, X, y, LabelSpace(tuple(f"c{k}" for k in range(m)))).state()
            for t in range(3):
                boot = np.random.default_rng([7, t]).integers(0, n, size=n)
                assert nested_tree(state, t) == reference_tree(X, y, boot, m, min_leaf)

    @pytest.mark.parametrize(
        "lo,hi", [(1.0 - 2.0**-53, 1.0), (1.5e308, 1.7e308), (-1.7e308, -1.5e308)]
    )
    def test_split_between_values_whose_midpoint_is_not_between(self, lo, hi):
        # the midpoint rounds to hi, or the sum overflows: the split is at lo
        X = np.array([[lo], [hi], [lo], [hi]])
        y = np.array([0, 1, 0, 1])
        model = train(ClassifierSpec("random_forest", trees=1), X, y, LABELS2)
        assert model.state()["threshold"][0] == lo
        np.testing.assert_array_equal(model.predict(X), y)

    def test_scan_chunks_give_the_same_forest(self, rng, monkeypatch):
        X, y = gaussian_blobs(rng, 20, [[0, 0, 0, 0], [2, 2, 0, 0], [0, 2, 2, 0]])
        spec = ClassifierSpec("random_forest", seed=2, trees=6)
        labels = LabelSpace(("a", "b", "c"))
        one_pass = train(spec, X, y, labels).state()
        for entries in (1, 7, 50):
            monkeypatch.setattr(stumps, "SCAN_BYTES", 8 * 2 * forest.SCAN_ARRAYS * entries)  # mtry = 2
            assert train(spec, X, y, labels).state() == one_pass

    def test_tree_does_not_depend_on_forest_size(self, rng):
        X, y = gaussian_blobs(rng, 15, [[0, 0, 0], [2, 1, 0], [0, 2, 1]])
        labels = LabelSpace(("a", "b", "c"))
        small = train(ClassifierSpec("random_forest", seed=5, trees=3), X, y, labels).state()
        large = train(ClassifierSpec("random_forest", seed=5, trees=5), X, y, labels).state()
        for t in range(3):
            assert nested_tree(small, t) == nested_tree(large, t)

    def _xor_data(self, rng, n=30, gap=4.0):
        centers = np.array([[0, 0], [gap, gap], [0, gap], [gap, 0]])
        cls = np.array([0, 0, 1, 1])
        X = np.vstack([c + 0.3 * rng.standard_normal((n, 2)) for c in centers])
        y = np.repeat(cls, n)
        return X, y

    def test_vote_fraction_probabilities(self, rng):
        X, y = gaussian_blobs(rng, 30, [[0, 0], [4, 4]])
        model = train(ClassifierSpec("random_forest", trees=100), X, y, LABELS2)
        P = model.predict_proba(rng.standard_normal((25, 2)) * 3)
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)
        votes = P * 100
        np.testing.assert_allclose(votes, np.round(votes), atol=1e-9)

    def test_deterministic_forest(self, rng):
        X, y = gaussian_blobs(rng, 20, [[0, 0], [3, 3]])
        spec = ClassifierSpec("random_forest", seed=4, trees=20)
        m1 = train(spec, X, y, LABELS2)
        m2 = train(spec, X, y, LABELS2)
        assert m1.state() == m2.state()

    def test_beats_best_stump_on_xor(self):
        rng = np.random.default_rng(3)
        X, y = self._xor_data(rng)
        stump_acc = best_single_stump_accuracy(X, y)
        assert stump_acc <= 0.8, "XOR layout must defeat any single stump"
        model = train(ClassifierSpec("random_forest", seed=0, trees=50), X, y, LABELS2)
        forest_acc = float((model.predict(X) == y).mean())
        assert forest_acc > stump_acc

    def test_single_class_rejected(self, rng):
        X = rng.standard_normal((8, 2))
        with pytest.raises(SingleClassData):
            train(ClassifierSpec("random_forest", trees=5), X, np.ones(8, dtype=int), LABELS2)
