import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latefuse.classifiers import ClassifierSpec, LinearModel, logreg_loss_grad, train
from latefuse.classifiers import logreg, svm
from latefuse.classifiers.logreg import train_logreg
from latefuse.classifiers.svm import svm_objective, train_binary_svm
from latefuse.classifiers.base import LBFGS_TOL, MAX_HALVINGS, MAX_STEPS, lbfgs, softmax
from latefuse.core import LabelSpace
from latefuse.errors import BadSpec, DimensionMismatch, SingleClassData

from conftest import (
    DETERMINISTIC,
    gaussian_blobs,
    reference_logreg_gradient,
    reference_loss_only,
    reference_softmax,
    two_call_descend,
)

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

    @pytest.mark.parametrize("d", [["kind"], "kind", 5, None])
    def test_from_dict_of_a_non_object_rejected(self, d):
        with pytest.raises(BadSpec, match="classifier spec must be an object"):
            ClassifierSpec.from_dict(d)


def ill_conditioned_quadratic(calls=None):
    """``(evaluate, gradient)`` of 0.5 x.A x - b.x with A of condition number
    1e4; the gradient is the by-product of the evaluation. ``calls``, when
    given, collects the norm of every gradient handed out."""
    A = np.diag(np.logspace(0.0, 4.0, 8))
    b = np.linspace(1.0, 2.0, 8)

    def evaluate(x):
        Ax = A @ x
        return 0.5 * float(x @ Ax) - float(b @ x), Ax - b

    def gradient(x, g):
        if calls is not None:
            calls.append(np.linalg.norm(g))
        return g

    return evaluate, gradient


class TestLbfgs:
    def test_stops_once_the_gradient_falls_to_lbfgs_tol(self):
        norms = []
        x, history = lbfgs(*ill_conditioned_quadratic(norms), np.zeros(8))
        assert np.all(np.diff(history) < 0)
        # one gradient per accepted point; only the last meets the tolerance
        assert len(norms) == len(history) < MAX_STEPS
        assert norms[-1] <= LBFGS_TOL * norms[0]
        assert all(n > LBFGS_TOL * norms[0] for n in norms[:-1])
        optimum = np.linspace(1.0, 2.0, 8) / np.logspace(0.0, 4.0, 8)
        np.testing.assert_allclose(x, optimum, rtol=1e-5)

    def test_takes_fewer_steps_than_gradient_descent(self):
        evaluate, gradient = ill_conditioned_quadratic()
        _, history = lbfgs(evaluate, gradient, np.zeros(8))
        _, descent = two_call_descend(
            lambda x: evaluate(x)[0], lambda x: evaluate(x)[1], np.zeros(8), 1.0
        )
        assert history[-1] <= descent[-1]
        assert 5 * len(history) < len(descent)

    def test_stops_when_no_step_decreases_the_objective(self):
        # the gradient points uphill at the minimum, so no backtracking step
        # decreases the value and the start is returned after one search
        calls = []

        def evaluate(x):
            calls.append(x[0])
            return float(x[0] ** 2), None

        x, history = lbfgs(evaluate, lambda x, _: np.ones(1), np.zeros(1))
        assert x.tolist() == [0.0]
        assert history == [0.0]
        assert len(calls) == 1 + MAX_HALVINGS


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
        # record the accepted losses of the solver that train_logreg runs
        histories = []

        def recording(*args):
            W, history = lbfgs(*args)
            histories.append(history)
            return W, history

        monkeypatch.setattr(logreg, "lbfgs", recording)
        X, y = gaussian_blobs(rng, 30, [[0, 0], [2, 2], [0, 3]])
        train_logreg(ClassifierSpec("logreg", lam=1e-3), X, y, LABELS3)
        (history,) = histories
        assert len(history) > 2
        assert np.all(np.diff(history) < 0), "loss must decrease across accepted steps"

    def test_single_class_rejected(self, rng):
        X = rng.standard_normal((10, 2))
        with pytest.raises(SingleClassData):
            train(ClassifierSpec("logreg"), X, np.zeros(10, dtype=int), LABELS2)

    def test_deterministic_bit_for_bit(self, rng):
        X, y = gaussian_blobs(rng, 20, [[0, 0], [3, 3]])
        spec = ClassifierSpec("logreg", seed=5)
        m1 = train_logreg(spec, X, y, LABELS2)
        m2 = train_logreg(spec, X, y, LABELS2)
        np.testing.assert_array_equal(m1.weights, m2.weights)

    def test_zero_weights_predict_uniform(self):
        model = LinearModel(ClassifierSpec("logreg"), LABELS3, 4, np.zeros((5, 3)))
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

    def test_a_hessian_that_overflows_raises_bad_spec(self):
        # c * n and the first gradient 2c * X.T @ y are finite; 2c * X.T @ X is not
        X = np.array([[1e154], [-1e154]])
        with pytest.raises(BadSpec, match="c_grid value 1.0 overflows"):
            train(ClassifierSpec("linear_svm_ovr", c_grid=(1.0,)), X, np.array([0, 1]), LABELS2)

    def test_objective_value(self):
        X = np.array([[1.0], [-1.0]])
        y_pm = np.array([1.0, -1.0])
        # w=0, b=0: both hinges are 1
        margins = y_pm * (X @ np.zeros(1) + 0.0)
        assert svm_objective(np.zeros(1), margins, 2.0) == pytest.approx(4.0)
        # w=0.5, b=0: both hinges are 0.5, and squared
        assert svm_objective(np.full(1, 0.5), margins + 0.5, 2.0) == pytest.approx(1.125)

    def test_multiclass_accuracy_and_probas(self, rng):
        X, y = gaussian_blobs(rng, 40, [[0, 0], [6, 0], [0, 6]])
        spec = ClassifierSpec("linear_svm_ovr", seed=3)
        model = train(spec, X, y, LABELS3)
        assert float((model.predict(X) == y).mean()) >= 0.97
        P = model.predict_proba(X)
        assert P.shape == (120, 3)
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-9)

    def test_one_sample_per_class_gives_a_simplex(self):
        X = np.array([[0.0, 1.0], [2.0, 0.0], [1.0, 3.0]])
        model = train(ClassifierSpec("linear_svm_ovr", seed=0), X, np.arange(3), LABELS3)
        np.testing.assert_allclose(model.predict_proba(X).sum(axis=1), 1.0)

    def test_probabilities_are_the_softmax_of_the_margins(self, rng):
        X, y = gaussian_blobs(rng, 30, [[0, 0], [5, 0], [0, 5]])
        model = train(ClassifierSpec("linear_svm_ovr", seed=1), X, y, LABELS3)
        probe = rng.standard_normal((50, 2)) * 4
        # each weight column is the class's weights, then its intercept
        margins = np.hstack([probe, np.ones((50, 1))]) @ model.weights
        np.testing.assert_array_equal(model.predict_proba(probe), softmax(margins))

    @pytest.mark.parametrize("c_grid", [(1.0,), (0.1, 1.0, 10.0)])
    def test_hyperplanes_are_fitted_on_every_row(self, rng, c_grid):
        X, y = gaussian_blobs(rng, 20, [[0, 0], [2, 0], [0, 2]])
        model = train(ClassifierSpec("linear_svm_ovr", seed=4, c_grid=c_grid), X, y, LABELS3)
        assert model.state().keys() == {"weights"}
        (c,) = model.spec.c_grid
        np.testing.assert_array_equal(model.weights, svm._fit_ovr(X, y, 3, c))
        for k in range(3):
            w, b, _ = train_binary_svm(X, np.where(y == k, 1.0, -1.0), c)
            np.testing.assert_array_equal(model.weights[:, k], np.append(w, b))

    def test_c_search_scores_every_c_on_one_fold_plan(self, rng, monkeypatch):
        X, y = gaussian_blobs(rng, 15, [[0, 0], [2, 0], [0, 2]])
        plans = []
        cv_accuracy = svm._cv_accuracy

        def recording(X, y, m, c, folds):
            plans.append(folds)
            return cv_accuracy(X, y, m, c, folds)

        monkeypatch.setattr(svm, "_cv_accuracy", recording)
        train(ClassifierSpec("linear_svm_ovr", seed=2, c_grid=(0.1, 1.0, 10.0)), X, y, LABELS3)
        assert len(plans) == 3
        assert all(plan is plans[0] for plan in plans)
        train(ClassifierSpec("linear_svm_ovr", seed=2, c_grid=(1.0,)), X, y, LABELS3)
        assert len(plans) == 3  # one C: no search, so no plan is dealt

    def test_one_c_ignores_the_seed(self, rng):
        X, y = gaussian_blobs(rng, 15, [[0, 0], [2, 0], [0, 2]])
        a, b = (
            train(ClassifierSpec("linear_svm_ovr", seed=seed, c_grid=(1.0,)), X, y, LABELS3)
            for seed in (0, 7)
        )
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_deterministic(self, rng):
        X, y = gaussian_blobs(rng, 25, [[0, 0], [4, 4]])
        spec = ClassifierSpec("linear_svm_ovr", seed=9)
        m1 = train(spec, X, y, LABELS2)
        m2 = train(spec, X, y, LABELS2)
        np.testing.assert_array_equal(m1.weights, m2.weights)
        assert m1.spec == m2.spec

    def test_chosen_c_comes_from_grid(self, rng, monkeypatch):
        """The model's spec holds the chosen C, a grid value, as its one
        c_grid value: the C of the final fit."""
        X, y = gaussian_blobs(rng, 20, [[0, 0], [3, 3]])
        cs = []
        fit_ovr = svm._fit_ovr

        def recording(X, y, m, c):
            cs.append(c)
            return fit_ovr(X, y, m, c)

        monkeypatch.setattr(svm, "_fit_ovr", recording)
        spec = ClassifierSpec("linear_svm_ovr", seed=0)
        model = train(spec, X, y, LABELS2)
        assert spec.c_grid == (0.1, 1.0, 10.0)
        assert model.spec.c_grid == (cs[-1],) and cs[-1] in spec.c_grid
        assert model.spec == dataclasses.replace(spec, c_grid=(cs[-1],))


def counted(fn, calls):
    """``fn``, appending its arguments to ``calls`` on every call."""
    def wrapper(*args):
        calls.append(args)
        return fn(*args)
    return wrapper


@st.composite
def descent_problems(draw):
    """(X, y, m): m of 2 or 6 classes, each present; small-integer features
    make rows with exactly tied logits and margins of exactly 1.0 likely."""
    m = draw(st.sampled_from([2, 6]))
    d = draw(st.integers(1, 3))
    n = draw(st.integers(m, 3 * m))
    rows = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
    X = np.array(draw(st.lists(rows, min_size=n, max_size=n)), dtype=np.float64)
    X *= draw(st.sampled_from([0.5, 1.0, 3.0]))
    y = np.array(draw(st.permutations([i % m for i in range(n)])), dtype=np.int64)
    return X, y, m


TIED = (np.zeros((12, 1)), np.arange(12) % 6, 6)  # every row's logits tie
MARGIN_ONE = (np.array([[1.0], [-1.0]]), np.array([0, 1]), 2)


def squared_hinge(v, X, y_pm, c):
    """Value and gradient of 0.5*||w||^2 + c*sum(max(0, 1 - margin)^2) at
    v = (w, b); the bias is not regularized."""
    w, b = v[:-1], float(v[-1])
    margins = y_pm * (X @ w + b)
    slack = np.maximum(0.0, 1.0 - margins)
    g = -2.0 * c * slack * y_pm
    value = 0.5 * float(w @ w) + c * float(slack @ slack)
    return value, np.append(w + X.T @ g, g.sum())


SVM_CS = st.sampled_from([0.1, 1.0, 4.0, 10.0, 1e3])


class TestNewtonSvm:
    """train_binary_svm solves the squared-hinge problem: on random small
    problems it meets the stop tolerance and beats plain gradient descent."""

    @settings(DETERMINISTIC, max_examples=40)
    @given(problem=descent_problems(), c=SVM_CS)
    @example(problem=TIED, c=1.0)
    @example(problem=MARGIN_ONE, c=4.0)
    def test_svm_meets_the_optimality_condition(self, problem, c):
        X, y, _ = problem
        y_pm = np.where(y == 0, 1.0, -1.0)
        w, b, history = train_binary_svm(X, y_pm, c)
        _, g0 = squared_hinge(np.zeros(X.shape[1] + 1), X, y_pm, c)
        _, g = squared_hinge(np.append(w, b), X, y_pm, c)
        # a gradient sum cancels only to the rounding error of its terms (at an
        # optimum of zero, g0 itself may be nothing but that error)
        slack = np.maximum(0.0, 1.0 - y_pm * (X @ w + b))
        terms = np.linalg.norm(w) + 2.0 * c * np.linalg.norm(np.abs(X).T @ slack) + 2.0 * c * slack.sum()
        rounding = 16.0 * np.finfo(float).eps * terms
        assert np.linalg.norm(g) <= svm.GRAD_TOL * np.linalg.norm(g0) + rounding
        assert np.all(np.diff(history) < 0)

    @settings(DETERMINISTIC, max_examples=40)
    @given(problem=descent_problems(), c=SVM_CS)
    @example(problem=TIED, c=1.0)
    @example(problem=MARGIN_ONE, c=4.0)
    def test_svm_is_no_worse_than_gradient_descent(self, problem, c):
        X, y, _ = problem
        y_pm = np.where(y == 0, 1.0, -1.0)
        w, b, history = train_binary_svm(X, y_pm, c)
        _, descent_history = two_call_descend(
            lambda v: squared_hinge(v, X, y_pm, c)[0],
            lambda v: squared_hinge(v, X, y_pm, c)[1],
            np.zeros(X.shape[1] + 1),
            1.0 / max(1.0, c * X.shape[0]),
        )
        value, _ = squared_hinge(np.append(w, b), X, y_pm, c)
        # where both reach the optimum, rounding of the value decides the last bits
        assert value <= descent_history[-1] * (1.0 + 4.0 * np.finfo(float).eps)

    @settings(DETERMINISTIC, max_examples=40)
    @given(problem=descent_problems(), c=SVM_CS)
    @example(problem=TIED, c=1.0)
    @example(problem=MARGIN_ONE, c=4.0)
    def test_every_trial_point_goes_through_svm_objective(self, problem, c):
        X, y, _ = problem
        y_pm = np.where(y == 0, 1.0, -1.0)
        calls, values = [], []

        def recording(w, margins, c_):
            calls.append((w.copy(), margins.copy(), c_))
            values.append(svm_objective(w, margins, c_))
            return values[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(svm, "svm_objective", recording)
            w, b, history = train_binary_svm(X, y_pm, c)
        assert all(c_ == c for _, _, c_ in calls)
        # the history is made of evaluated values, in order
        remaining = iter(values)
        assert all(any(h == v for v in remaining) for h in history)
        assert history[0] == values[0] == c * len(y)
        # the returned point was evaluated, at its own margins
        last_w, last_margins, _ = calls[values.index(history[-1])]
        assert last_w.tobytes() == w.tobytes()
        np.testing.assert_allclose(last_margins, y_pm * (X @ w + b), rtol=1e-12, atol=1e-12)

    def test_a_tiny_c_still_fits_the_bias(self):
        # the gradient's entries are of order c, so its plain norm underflows
        # to 0 below c = 1e-160; the bias optimum does not shrink with c
        rng = np.random.default_rng(0)
        X = rng.standard_normal((30, 3))
        y_pm = np.where(rng.standard_normal(30) > 0, 1.0, -1.0)
        _, b_small, _ = train_binary_svm(X, y_pm, 1e-150)
        w, b, history = train_binary_svm(X, y_pm, 1e-200)
        assert len(history) >= 2 and b_small != 0.0
        assert b == pytest.approx(b_small, rel=1e-12)
        assert np.all(np.abs(w) < 1e-190)


def recording_lbfgs(calls, histories):
    """``lbfgs`` that appends ``(x, by_product)`` of every evaluation and
    ``(x, by_product)`` of every gradient call to ``calls``, tagged "evaluate"
    or "gradient", and each value history to ``histories``."""
    def recording(evaluate, gradient, x):
        def evaluated(x):
            value, by_product = evaluate(x)
            calls.append(("evaluate", x.copy(), by_product))
            return value, by_product

        def differentiated(x, by_product):
            calls.append(("gradient", x.copy(), by_product))
            return gradient(x, by_product)

        x, history = lbfgs(evaluated, differentiated, x)
        histories.append(history)
        return x, history

    return recording


def labels_of(m):
    return LabelSpace(tuple(f"c{i}" for i in range(m)))


@st.composite
def stacking_problems(draw):
    """(X, y, m): meta features as stacking builds them, one probability row
    per group side by side, so each group's block sums to 1 like the bias
    column logreg appends; the columns are exactly collinear."""
    m = draw(st.integers(2, 6))
    groups = draw(st.integers(1, 4))
    n = draw(st.integers(2 * m, 60))
    seed = draw(st.integers(0, 2**32 - 1))
    sharpness = draw(st.sampled_from([0.3, 1.0, 3.0, 10.0]))
    rng = np.random.default_rng(seed)
    y = np.arange(n) % m
    logits = sharpness * rng.standard_normal((n, groups, m))
    logits[np.arange(n), :, y] += sharpness  # informative, as a trained group is
    return softmax(logits.reshape(n * groups, m)).reshape(n, groups * m), y, m


class TestCollinearStacking:
    @settings(DETERMINISTIC, max_examples=40)
    @given(problem=stacking_problems(), lam=st.sampled_from([1e-4, 1e-3, 1e-2]))
    def test_logreg_reaches_lbfgs_tol_on_meta_features(self, problem, lam):
        X, y, m = problem
        calls, histories = [], []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(logreg, "lbfgs", recording_lbfgs(calls, histories))
            model = train_logreg(ClassifierSpec("logreg", lam=lam), X, y, labels_of(m))
        (history,) = histories
        assert len(history) - 1 < MAX_STEPS
        Xb = np.hstack([X, np.ones((len(y), 1))])
        g0 = reference_logreg_gradient(np.zeros((Xb.shape[1], m)), Xb, y, lam)
        g = reference_logreg_gradient(model.weights, Xb, y, lam)
        assert np.linalg.norm(g) <= LBFGS_TOL * np.linalg.norm(g0)


class TestOneEvaluationPerPoint:
    """The logreg fit evaluates every trial point once, hands the evaluation's
    by-product to the gradient, and ends no worse than the two-call
    reference descent."""

    @settings(DETERMINISTIC, max_examples=40)
    @given(problem=descent_problems(), lam=st.sampled_from([1e-3, 0.1, 1.0]))
    @example(problem=TIED, lam=1e-3)
    def test_every_trial_point_is_evaluated_once(self, problem, lam):
        X, y, m = problem
        calls, histories = [], []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(logreg, "lbfgs", recording_lbfgs(calls, histories))
            model = train_logreg(ClassifierSpec("logreg", lam=lam), X, y, labels_of(m))
        evaluated = [(x, by) for tag, x, by in calls if tag == "evaluate"]
        points = [x.tobytes() for x, _ in evaluated]
        assert len(set(points)) == len(points)
        # each gradient call follows the evaluation of its point and gets its by-product
        assert calls[0][0] == "evaluate"
        for (before, x_eval, by_eval), (tag, x, by) in zip(calls, calls[1:]):
            if tag == "gradient":
                assert before == "evaluate" and x_eval.tobytes() == x.tobytes() and by_eval is by
        assert model.weights.tobytes() in points

    @settings(DETERMINISTIC, max_examples=40)
    @given(problem=descent_problems(), lam=st.sampled_from([1e-3, 0.1, 1.0]))
    @example(problem=TIED, lam=1e-3)
    def test_logreg_loss_is_no_worse_than_the_reference(self, problem, lam):
        X, y, m = problem
        Xb = np.hstack([X, np.ones((len(y), 1))])
        _, history_ref = two_call_descend(
            lambda W: reference_loss_only(W, Xb, y, lam),
            lambda W: reference_logreg_gradient(W, Xb, y, lam),
            np.zeros((Xb.shape[1], m)),
            1.0,
        )
        model = train_logreg(ClassifierSpec("logreg", lam=lam), X, y, labels_of(m))
        loss = reference_loss_only(model.weights, Xb, y, lam)
        # where both reach the optimum, rounding of the value decides the last bits
        assert loss <= history_ref[-1] * (1.0 + 4.0 * np.finfo(float).eps)

    @settings(DETERMINISTIC, max_examples=100)
    @given(
        z=st.lists(
            st.lists(
                st.sampled_from([0.0, -0.0, 1.0, -1.0, 700.0, -700.0, 1e300, -1e300])
                | st.floats(-50.0, 50.0),
                min_size=6,
                max_size=6,
            ),
            min_size=1,
            max_size=20,
        ),
        width=st.integers(1, 6),
    )
    def test_softmax_equals_the_c_order_max_form(self, z, width):
        z = np.array(z)[:, :width]
        assert softmax(z).tobytes() == reference_softmax(z).tobytes()
        assert softmax(z[0]).tobytes() == reference_softmax(z[0]).tobytes()


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
