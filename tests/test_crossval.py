import numpy as np
import pytest

from latefuse import classifiers, pipeline
from latefuse.classifiers import ClassifierSpec
from latefuse.core import LabelSpace, standardize_fit
from latefuse.crossval import group_priority, make_folds
from latefuse.errors import BadSpec, DimensionMismatch, TooFewSamplesPerClass

from conftest import cross_val_accuracy, gaussian_blobs


class TestMakeFolds:
    def test_even_split_per_class(self):
        y = np.array([0] * 10 + [1] * 10)
        plan = make_folds(y, 5, seed=0)
        for f in range(5):
            fold = plan.assignments == f
            assert fold.sum() == 4
            assert (y[fold] == 0).sum() == 2 and (y[fold] == 1).sum() == 2

    def test_partition(self, rng):
        y = rng.integers(0, 3, size=50)
        y[:9] = [0, 0, 0, 1, 1, 1, 2, 2, 2]  # every class has >= 3
        plan = make_folds(y, 3, seed=1)
        assert np.all(plan.assignments >= 0) and np.all(plan.assignments < 3)
        sizes = [int((plan.assignments == f).sum()) for f in range(3)]
        assert sum(sizes) == 50 and all(s > 0 for s in sizes)

    def test_uneven_classes_differ_by_at_most_one(self):
        y = np.array([0] * 7 + [1] * 11)
        plan = make_folds(y, 3, seed=2)
        for c in (0, 1):
            counts = [int(((plan.assignments == f) & (y == c)).sum()) for f in range(3)]
            assert max(counts) - min(counts) <= 1

    def test_too_few_samples_per_class(self):
        y = np.array([0] * 5 + [1] * 20)
        with pytest.raises(TooFewSamplesPerClass):
            make_folds(y, 7, seed=0)

    def test_bad_k(self):
        with pytest.raises(BadSpec, match="k must be >= 2, got 1"):
            make_folds(np.array([0, 1, 0, 1]), 1, seed=0)

    def test_deterministic(self):
        y = np.array([0, 1] * 15)
        p1 = make_folds(y, 5, seed=9)
        p2 = make_folds(y, 5, seed=9)
        np.testing.assert_array_equal(p1.assignments, p2.assignments)


class TestCrossValAccuracy:
    def test_constant_predictor_on_imbalanced_data(self, rng):
        # oracle: a classifier that always says class 0 scores the class-0
        # fraction, which stratification keeps at 0.70 per fold
        n = 200
        y = np.array([0] * 140 + [1] * 60)
        X = rng.standard_normal((n, 3))

        def constant_trainer(X_tr, y_tr):
            return lambda X_te: np.zeros(len(X_te), dtype=int)

        plan = make_folds(y, 5, seed=0)
        value = cross_val_accuracy(constant_trainer, X, y, plan)
        assert value == pytest.approx(0.70, abs=0.02)

    def test_separable_blobs_near_one(self, rng):
        X, y = gaussian_blobs(rng, 40, [[0, 0], [8, 8]])
        labels = LabelSpace(("a", "b"))
        plan = make_folds(y, 5, seed=0)
        priority, _ = group_priority(ClassifierSpec("logreg"), X, y, labels, plan)
        assert priority >= 0.99

    def test_pure_noise_within_chance_band(self, rng):
        n, m = 300, 3
        X = rng.standard_normal((n, 10))
        y = np.repeat(np.arange(m), n // m)
        labels = LabelSpace(("a", "b", "c"))
        plan = make_folds(y, 5, seed=1)
        priority, _ = group_priority(ClassifierSpec("logreg"), X, y, labels, plan)
        p = 1.0 / m
        band = 3 * np.sqrt(p * (1 - p) / n)
        assert abs(priority - p) <= band

    def test_priority_in_unit_interval_random_data(self, rng):
        for seed in range(5):
            n = 60
            X = rng.standard_normal((n, 4))
            y = np.tile([0, 1, 2], n // 3)
            plan = make_folds(y, 3, seed=seed)
            priority, _ = group_priority(
                ClassifierSpec("logreg"), X, y, LabelSpace(("a", "b", "c")), plan
            )
            assert 0.0 <= priority <= 1.0

    def test_identical_inputs_identical_priority(self, rng):
        X, y = gaussian_blobs(rng, 15, [[0, 0], [2, 2]])
        labels = LabelSpace(("a", "b"))
        spec = ClassifierSpec("logreg")
        v1, oof1 = group_priority(spec, X, y, labels, make_folds(y, 3, 4))
        v2, oof2 = group_priority(spec, X, y, labels, make_folds(y, 3, 4))
        assert v1 == v2
        np.testing.assert_array_equal(oof1, oof2)

    def test_priority_range_validated(self, rng):
        X, y = gaussian_blobs(rng, 5, [[0, 0], [2, 2]])
        labels = LabelSpace(("a", "b"))
        model = classifiers.train(ClassifierSpec("logreg"), X, y, labels)
        s = standardize_fit(X)
        assert pipeline.GroupModel("g", s, model, 1.0).priority == 1.0
        for bad in (1.5, -0.1, float("nan")):
            with pytest.raises(BadSpec, match="priority"):
                pipeline.GroupModel("g", s, model, bad)

    @pytest.mark.parametrize("bad", ["0.5", None, True, [0.5]], ids=repr)
    def test_a_priority_that_is_not_a_number_raises_bad_spec(self, rng, bad):
        X, y = gaussian_blobs(rng, 5, [[0, 0], [2, 2]])
        model = classifiers.train(ClassifierSpec("logreg"), X, y, LabelSpace(("a", "b")))
        with pytest.raises(BadSpec, match="^priority must be a finite number"):
            pipeline.GroupModel("g", standardize_fit(X), model, bad)
        assert type(pipeline.GroupModel("g", standardize_fit(X), model, np.float32(0.5)).priority) is float

    def test_plan_must_cover_the_labels(self, rng):
        X, y = gaussian_blobs(rng, 6, [[0, 0], [2, 2]])
        plan = make_folds(y[:-2], 3, seed=0)
        with pytest.raises(DimensionMismatch, match="fold plan covers 10 samples, labels have 12"):
            group_priority(ClassifierSpec("logreg"), X, y, LabelSpace(("a", "b")), plan)


class TestCrossFit:
    def test_each_row_comes_from_the_fold_model_that_excluded_it(self, rng):
        X, y = gaussian_blobs(rng, 12, [[0, 0], [1, 1], [2, 0]])
        labels = LabelSpace(("a", "b", "c"))
        spec = ClassifierSpec("logreg")
        plan = make_folds(y, 4, seed=3)
        priority, oof = group_priority(spec, X, y, labels, plan)
        assert oof.shape == (36, 3)
        accuracies = []
        for f in range(plan.k):
            held = plan.assignments == f
            model = classifiers.train(spec, X[~held], y[~held], labels)
            np.testing.assert_array_equal(oof[held], model.predict_proba(X[held]))
            accuracies.append(float((model.predict(X[held]) == y[held]).mean()))
        assert priority == float(np.mean(accuracies))

    @pytest.mark.parametrize(
        "spec",
        [ClassifierSpec("logreg"), ClassifierSpec("adaboost_stumps", rounds=10)],
    )
    def test_priority_is_the_mean_fold_accuracy(self, rng, spec):
        X, y = gaussian_blobs(rng, 15, [[0, 0], [1, 1], [2, 0]])
        labels = LabelSpace(("a", "b", "c"))
        plan = make_folds(y, 5, seed=7)
        def train_fn(X_tr, y_tr):
            return classifiers.train(spec, X_tr, y_tr, labels).predict

        priority, _ = group_priority(spec, X, y, labels, plan)
        assert priority == cross_val_accuracy(train_fn, X, y, plan)
