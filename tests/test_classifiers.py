import numpy as np
import pytest

from latefuse.classifiers import (
    ClassifierSpec,
    LogisticModel,
    logreg_loss_grad,
    softmax,
    svm_objective,
    train,
    train_binary_svm,
    train_logreg,
)
from latefuse.classifiers import logreg
from latefuse.classifiers.base import MAX_HALVINGS, MAX_STEPS, REL_TOL, descend
from latefuse.core import LabelSpace
from latefuse.errors import DimensionMismatch, SingleClassData

from conftest import gaussian_blobs

LABELS2 = LabelSpace(("c0", "c1"))
LABELS3 = LabelSpace(("c0", "c1", "c2"))


class TestClassifierSpec:
    def test_numpy_integers_become_ints(self):
        spec = ClassifierSpec("random_forest", seed=np.int64(3), trees=np.int32(5))
        assert type(spec.seed) is int and type(spec.trees) is int
        assert spec.to_dict()["trees"] == 5

    @pytest.mark.parametrize("field, value", [
        ("seed", True),
        ("seed", -1),
        ("rounds", 2.0),
        ("min_leaf", np.bool_(True)),
        ("lam", float("nan")),
        ("lam", -1.0),
        ("lam", "1"),
        pytest.param("lam", 10**400, id="lam-int-beyond-float"),
        ("c_grid", (1.0, float("nan"))),
        ("c_grid", (0.0,)),
        ("c_grid", ()),
    ], ids=str)
    def test_bad_number_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ClassifierSpec("logreg", **{field: value})


class TestDescend:
    def test_stops_when_the_relative_decrease_falls_below_rel_tol(self):
        x, history = descend(lambda x: 1.0 + float(x @ x), lambda x: 2.0 * x, np.ones(1), 0.1)
        rel = -np.diff(history) / np.array(history[:-1])
        assert np.all(rel > 0)
        assert rel[-1] < REL_TOL and np.all(rel[:-1] >= REL_TOL)
        assert len(history) - 1 < MAX_STEPS
        assert abs(x[0]) < 1e-3

    def test_stops_when_no_halving_decreases_the_objective(self):
        # the first doubled step lands exactly on the minimum, where the
        # gradient is 0, so every try of the next step fails
        calls = []

        def objective(x):
            calls.append(x[0])
            return float((x[0] - 3.0) ** 2)

        x, history = descend(objective, lambda x: 2.0 * (x - 3.0), np.zeros(1), 0.25)
        assert x.tolist() == [3.0]
        assert history == [9.0, 0.0]
        assert len(calls) == 2 + MAX_HALVINGS


class TestSoftmax:
    def test_zeros_gives_uniform(self):
        np.testing.assert_allclose(softmax(np.zeros(3)), np.full(3, 1 / 3))

    def test_large_logits_no_overflow(self):
        p = softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(p))
        np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-300)

    def test_shift_invariance(self, rng):
        for _ in range(50):
            z = rng.standard_normal(5) * 10
            c = rng.uniform(-100, 100)
            np.testing.assert_allclose(softmax(z + c), softmax(z), atol=1e-12)


class TestLossGrad:
    def test_zero_weights_balanced_two_class(self, rng):
        X = rng.standard_normal((10, 4))
        y = np.array([0, 1] * 5)
        loss, _ = logreg_loss_grad(np.zeros((4, 2)), X, y, 0.0)
        assert loss == pytest.approx(np.log(2), abs=1e-12)

    def test_certain_correct_prediction_zero_loss(self):
        # logits of 1000 vs 0 saturate to probability exactly 1.0 in float64
        W = np.array([[1000.0, 0.0]])
        loss, _ = logreg_loss_grad(W, np.array([[1.0]]), np.array([0]), 0.0)
        assert loss == 0.0

    def test_gradient_matches_central_differences(self, rng):
        # independent oracle: numerical differentiation, step 1e-5
        worst = 0.0
        for _ in range(100):
            n = rng.integers(2, 11)
            d = rng.integers(1, 6)
            m = rng.integers(2, 5)
            X = rng.standard_normal((n, d))
            y = rng.integers(0, m, size=n)
            W = rng.standard_normal((d, m))
            lam = rng.uniform(0.0, 0.5)
            _, grad = logreg_loss_grad(W, X, y, lam)
            h = 1e-5
            num = np.zeros_like(W)
            for i in range(d):
                for j in range(m):
                    Wp, Wm = W.copy(), W.copy()
                    Wp[i, j] += h
                    Wm[i, j] -= h
                    lp, _ = logreg_loss_grad(Wp, X, y, lam)
                    lm, _ = logreg_loss_grad(Wm, X, y, lam)
                    num[i, j] = (lp - lm) / (2 * h)
            worst = max(worst, float(np.abs(grad - num).max()))
        assert worst <= 1e-5

    def test_shape_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            logreg_loss_grad(np.zeros((3, 2)), rng.standard_normal((5, 4)), np.zeros(5, dtype=int), 0.1)


def _reference_gradient_descent(X, y, m, lam, lr=0.5, iters=3000):
    """Independent plain fixed-step GD on the same objective (test oracle)."""
    Xb = np.hstack([X, np.ones((X.shape[0], 1))])
    W = np.zeros((Xb.shape[1], m))
    n = X.shape[0]
    for _ in range(iters):
        Z = Xb @ W
        Z -= Z.max(axis=1, keepdims=True)
        P = np.exp(Z)
        P /= P.sum(axis=1, keepdims=True)
        P[np.arange(n), y] -= 1.0
        W -= lr * (Xb.T @ P / n + lam * W)
    return W


class TestLogReg:
    def test_separable_blobs_match_reference(self):
        rng = np.random.default_rng(7)
        X, y = gaussian_blobs(rng, 100, [[0.0, 0.0], [6.0, 0.0]])
        model = train_logreg(ClassifierSpec("logreg", seed=0), X, y, LABELS2)
        acc = float((model.predict(X) == y).mean())
        W_ref = _reference_gradient_descent(X, y, 2, 1e-3)
        Xb = np.hstack([X, np.ones((len(y), 1))])
        acc_ref = float((np.argmax(Xb @ W_ref, axis=1) == y).mean())
        assert acc_ref >= 0.99, "oracle run must confirm the data is learnable"
        assert acc >= 0.99
        agreement = float((model.predict(X) == np.argmax(Xb @ W_ref, axis=1)).mean())
        assert agreement >= 0.99

    def test_training_loss_monotone(self, rng, monkeypatch):
        # record the accepted losses of the descent that train_logreg runs
        histories = []

        def recording(*args):
            W, history = descend(*args)
            histories.append(history)
            return W, history

        monkeypatch.setattr(logreg, "descend", recording)
        X, y = gaussian_blobs(rng, 30, [[0, 0], [2, 2], [0, 3]])
        train_logreg(ClassifierSpec("logreg", lam=1e-3), X, y, LABELS3)
        (history,) = histories
        assert len(history) > 2
        assert np.all(np.diff(history) < 0), "loss must decrease across accepted steps"

    def test_single_class_rejected(self, rng):
        X = rng.standard_normal((10, 2))
        with pytest.raises(SingleClassData):
            train_logreg(ClassifierSpec("logreg"), X, np.zeros(10, dtype=int), LABELS2)

    def test_deterministic_bit_for_bit(self, rng):
        X, y = gaussian_blobs(rng, 20, [[0, 0], [3, 3]])
        spec = ClassifierSpec("logreg", seed=5)
        m1 = train_logreg(spec, X, y, LABELS2)
        m2 = train_logreg(spec, X, y, LABELS2)
        np.testing.assert_array_equal(m1.weights, m2.weights)

    def test_zero_weights_predict_uniform(self):
        model = LogisticModel(ClassifierSpec("logreg"), LABELS3, 4, np.zeros((5, 3)))
        np.testing.assert_allclose(model.predict_proba(np.ones(4)), np.full(3, 1 / 3))

    def test_predict_proba_width_check(self, rng):
        X, y = gaussian_blobs(rng, 10, [[0, 0], [3, 3]])
        model = train_logreg(ClassifierSpec("logreg"), X, y, LABELS2)
        with pytest.raises(DimensionMismatch):
            model.predict_proba(np.ones(5))


class TestLinearSvm:
    def test_binary_objective_monotone_on_separable_data(self, rng):
        X, y = gaussian_blobs(rng, 40, [[0.0, 0.0], [8.0, 0.0]])
        y_pm = np.where(y == 1, 1.0, -1.0)
        for c in (0.1, 1.0, 10.0):
            w, b, history = train_binary_svm(X, y_pm, c)
            diffs = np.diff(history)
            assert np.all(diffs < 0), "objective must decrease across accepted epochs"
            margins = y_pm * (X @ w + b)
            assert (margins > 0).mean() >= 0.99

    def test_objective_value(self):
        X = np.array([[1.0], [-1.0]])
        y_pm = np.array([1.0, -1.0])
        # w=0, b=0: both hinges are 1
        assert svm_objective(np.zeros(1), 0.0, X, y_pm, 2.0) == pytest.approx(4.0)

    def test_multiclass_accuracy_and_probas(self, rng):
        X, y = gaussian_blobs(rng, 40, [[0, 0], [6, 0], [0, 6]])
        spec = ClassifierSpec("linear_svm_ovr", seed=3)
        model = train(spec, X, y, LABELS3)
        assert float((model.predict(X) == y).mean()) >= 0.97
        P = model.predict_proba(X)
        assert P.shape == (120, 3)
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-9)
        assert model.temperature > 0

    def test_one_sample_per_class_calibrates_in_sample(self):
        X = np.array([[0.0, 1.0], [2.0, 0.0], [1.0, 3.0]])
        model = train(ClassifierSpec("linear_svm_ovr", seed=0), X, np.arange(3), LABELS3)
        assert model.temperature == 1.0
        np.testing.assert_allclose(model.predict_proba(X).sum(axis=1), 1.0)

    def test_temperature_preserves_argmax(self, rng):
        X, y = gaussian_blobs(rng, 30, [[0, 0], [5, 0], [0, 5]])
        model = train(ClassifierSpec("linear_svm_ovr", seed=1), X, y, LABELS3)
        probe = rng.standard_normal((50, 2)) * 4
        margins = model.decision_function(probe)
        np.testing.assert_array_equal(
            np.argmax(margins, axis=1), np.argmax(model.predict_proba(probe), axis=1)
        )

    def test_deterministic(self, rng):
        X, y = gaussian_blobs(rng, 25, [[0, 0], [4, 4]])
        spec = ClassifierSpec("linear_svm_ovr", seed=9)
        m1 = train(spec, X, y, LABELS2)
        m2 = train(spec, X, y, LABELS2)
        np.testing.assert_array_equal(m1.hyperplanes, m2.hyperplanes)
        assert m1.temperature == m2.temperature and m1.chosen_c == m2.chosen_c

    def test_chosen_c_comes_from_grid(self, rng):
        X, y = gaussian_blobs(rng, 20, [[0, 0], [3, 3]])
        model = train(ClassifierSpec("linear_svm_ovr", seed=0), X, y, LABELS2)
        assert model.chosen_c in (0.1, 1.0, 10.0)


class TestProbabilityContract:
    def test_random_fitted_models_emit_simplex_vectors(self):
        # random shapes, scales, and kinds: every output stays on the simplex
        rng = np.random.default_rng(17)
        kinds = [
            ("logreg", {}),
            ("linear_svm_ovr", {"c_grid": (1.0,)}),
            ("adaboost_stumps", {"rounds": 8}),
            ("random_forest", {"trees": 6}),
        ]
        for trial in range(12):
            m = int(rng.integers(2, 5))
            d = int(rng.integers(1, 6))
            n = int(rng.integers(4 * m, 8 * m))
            centers = rng.standard_normal((m, d)) * rng.uniform(0, 5)
            X = np.vstack([c + rng.standard_normal((n // m + 1, d)) for c in centers])
            y = np.repeat(np.arange(m), n // m + 1)
            labels = LabelSpace(tuple(f"k{i}" for i in range(m)))
            kind, kw = kinds[trial % len(kinds)]
            model = train(ClassifierSpec(kind, seed=trial, **kw), X, y, labels)
            probe = rng.standard_normal((20, d)) * rng.uniform(0.1, 10)
            P = model.predict_proba(probe)
            assert np.all(P >= 0)
            np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-9)
            single = model.predict_proba(probe[0])
            assert single.shape == (m,) and abs(single.sum() - 1) <= 1e-9
            assert not P.flags.writeable and not single.flags.writeable
            np.testing.assert_array_equal(single, model.predict_proba(probe[:1])[0])
            assert model.predict(probe[0]) == int(np.argmax(single))
            np.testing.assert_array_equal(model.predict(probe), np.argmax(P, axis=1))
