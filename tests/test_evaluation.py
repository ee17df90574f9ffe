import numpy as np
import pytest

from latefuse import dataio, evaluation, pipeline
from latefuse.classifiers import ClassifierSpec
from latefuse.ensemble import EnsembleStrategy
from latefuse.pipeline import predict, train_ensemble
from latefuse.errors import (
    BadSpec,
    DimensionMismatch,
    TooFewSamplesPerClass,
    UnknownGroupName,
    UnknownLabel,
)
from latefuse.evaluation import (
    AblationReport,
    ablate,
    compare_classifiers,
    compare_strategies,
    evaluate,
    evaluate_ensemble,
    five_strategies,
    format_rows,
    nested_subsets,
)

from conftest import gaussian_blobs, make_dataset


def two_view_data(rng, n_per_class=12, m=3):
    centers = rng.standard_normal((m, 4)) * 5
    Xa, y = gaussian_blobs(rng, n_per_class, centers)
    Xb, _ = gaussian_blobs(rng, n_per_class, rng.standard_normal((m, 3)) * 5)
    return make_dataset([("a", Xa), ("b", Xb)], y)


def hard_three_view_data(seed, n_per_class=12, m=3):
    """Overlapping classes, so accuracies differ between strategies."""
    rng = np.random.default_rng(seed)
    Xa, y = gaussian_blobs(rng, n_per_class, rng.standard_normal((m, 4)))
    Xb, _ = gaussian_blobs(rng, n_per_class, rng.standard_normal((m, 3)) * 1.5)
    Xc = rng.standard_normal((m * n_per_class, 2))
    return make_dataset([("a", Xa), ("b", Xb), ("noise", Xc)], y)


OUT_OF_FOLD = EnsembleStrategy(
    "stacking", stacking_mode="out_of_fold", stacking_meta_spec=ClassifierSpec("logreg")
)


@pytest.fixture
def fit_calls(monkeypatch):
    """Start with no remembered group fits; the arguments of every
    ``pipeline.fit_groups`` call."""
    monkeypatch.setattr(evaluation, "_last_fits", None)
    calls = []
    fit_groups = pipeline.fit_groups

    def counted(*args):
        calls.append(args)
        return fit_groups(*args)

    monkeypatch.setattr(pipeline, "fit_groups", counted)
    return calls


class TestEvaluate:
    def test_perfect_predictions(self):
        truth = np.repeat([0, 1, 2], 10)
        rep = evaluate(truth.tolist(), truth)
        assert rep.accuracy == 1.0
        assert rep.n_test == 30
        np.testing.assert_array_equal(rep.confusion, np.diag([10, 10, 10]))
        np.testing.assert_array_equal(rep.per_class_accuracy, [1.0, 1.0, 1.0])

    def test_hand_counted_confusion(self):
        rep = evaluate([0, 1, 1, 1], [0, 0, 1, 1])
        assert rep.accuracy == 0.75
        np.testing.assert_array_equal(rep.confusion, [[1, 1], [0, 2]])

    def test_a_class_with_no_true_rows_reads_positive_zero(self):
        rep = evaluate([0, 2, 0], [0, 0, 1], m=3)
        np.testing.assert_array_equal(rep.per_class_accuracy, [0.5, 0.0, 0.0])
        assert not np.signbit(rep.per_class_accuracy).any()

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch, match=r"shape \(2,\) for ground truth of shape \(3,\)"):
            evaluate([0, 1], [0, 1, 0])

    @pytest.mark.parametrize(
        "preds, truth, m, message",
        [
            ([-1], [0], None, "predicted class index -1 outside"),
            ([-1, 1], [0, 1], 2, "predicted class index -1 outside"),
            ([0, 2], [0, 1], 2, r"predicted class index 2 outside \[0, 2\)"),
            ([0, 1], [3, 1], 2, r"true class index 3 outside \[0, 2\)"),
            ([0], [-2], None, "true class index -2 outside"),
        ],
    )
    def test_index_outside_the_classes_rejected(self, preds, truth, m, message):
        with pytest.raises(UnknownLabel, match=message):
            evaluate(preds, truth, m=m)

    @pytest.mark.parametrize(
        "preds, truth, message",
        [
            ([1.7, 0.2], [1, 0], "predicted class indices must be integer"),
            ([1.0, 0.0], [1, 0], "predicted class indices must be integer"),
            ([True, False], [1, 0], "predicted class indices must be integer"),
            ([1, 0], [1.7, 0.2], "true class indices must be integer"),
            ([1, 0], np.array([1.0, 0.0]), "true class indices must be integer"),
            ([1, 0], ["1", "0"], "true class indices must be integer"),
            ([[0], [1, 1]], [0, 1], "predicted class indices must be a rectangular"),
        ],
    )
    def test_class_indices_that_are_not_integers_rejected(self, preds, truth, message):
        with pytest.raises(UnknownLabel, match=message):
            evaluate(preds, truth)

    def test_predictions_and_integer_arrays_accepted(self, rng):
        d = two_view_data(rng)
        e = train_ensemble(d, ClassifierSpec("logreg"), EnsembleStrategy("confidence_sum"), 3, 0)
        preds = predict(e, d)
        decided = np.array([p.decided for p in preds])
        for truth in (d.labels, d.labels.tolist(), d.labels.astype(np.int32)):
            rep = evaluate(preds, truth, m=3)
            assert rep.accuracy == evaluate(decided, truth, m=3).accuracy
            assert rep.accuracy == evaluate(decided.tolist(), truth).accuracy

    def test_a_batch_is_read_by_its_decided_column(self, rng, monkeypatch):
        d = two_view_data(rng)
        e = train_ensemble(d, ClassifierSpec("logreg"), EnsembleStrategy("rank_sum"), 3, 0)
        batch = predict(e, d)

        def no_rows(*_args):
            raise AssertionError("evaluate built a Prediction")

        monkeypatch.setattr(pipeline, "Prediction", no_rows)
        rep = evaluate(batch, d.labels, m=3)
        want = evaluate(batch.decided, d.labels, m=3)
        assert rep.lines() == want.lines() and rep.n_test == d.n

    def test_conservation_on_random_predictions(self, rng):
        for _ in range(25):
            n = int(rng.integers(5, 60))
            m = int(rng.integers(2, 6))
            truth = rng.integers(0, m, size=n)
            preds = rng.integers(0, m, size=n)
            rep = evaluate(preds, truth, m=m)
            assert rep.confusion.sum() == n
            assert rep.accuracy == pytest.approx(np.trace(rep.confusion) / n)
            np.testing.assert_array_equal(
                rep.confusion.sum(axis=1), np.bincount(truth, minlength=m)
            )

    def test_permutation_invariance(self, rng):
        truth = rng.integers(0, 3, size=40)
        preds = rng.integers(0, 3, size=40)
        rep1 = evaluate(preds, truth, m=3)
        perm = rng.permutation(40)
        rep2 = evaluate(preds[perm], truth[perm], m=3)
        assert rep1.accuracy == rep2.accuracy
        np.testing.assert_array_equal(rep1.confusion, rep2.confusion)

    def test_report_lines_four_decimals(self):
        rep = evaluate([0, 1, 1, 1], [0, 0, 1, 1])
        assert rep.lines(["a", "b"])[0] == "accuracy 0.7500"


class TestCompare:
    def test_strategies_five_rows(self, rng):
        train = two_view_data(rng)
        test = two_view_data(np.random.default_rng(9))
        rows = compare_strategies(train, test, ClassifierSpec("logreg"), 3, 0)
        labels = [r[0] for r in rows]
        assert labels == [
            "confidence_sum",
            "confidence_sum_weighted",
            "rank_sum",
            "rank_sum_weighted",
            "stacking_naive",
        ]
        assert all(0.0 <= acc <= 1.0 for _, acc in rows)

    def test_classifiers_four_rows(self, rng):
        train = two_view_data(rng)
        test = two_view_data(np.random.default_rng(10))
        specs = [
            ClassifierSpec("logreg"),
            ClassifierSpec("linear_svm_ovr", c_grid=(1.0,)),
            ClassifierSpec("adaboost_stumps", rounds=10),
            ClassifierSpec("random_forest", trees=8),
        ]
        rows = compare_classifiers(
            train, test, EnsembleStrategy("confidence_sum", weighted=True), 3, 0, specs
        )
        assert [r[0] for r in rows] == [
            "logreg",
            "linear_svm_ovr",
            "adaboost_stumps",
            "random_forest",
        ]
        assert all(0.0 <= acc <= 1.0 for _, acc in rows)

    def test_deterministic(self, rng, monkeypatch):
        train = two_view_data(rng)
        test = two_view_data(np.random.default_rng(11))
        r1 = compare_strategies(train, test, ClassifierSpec("logreg"), 3, 5)
        monkeypatch.setattr(evaluation, "_last_fits", None)  # fit again
        r2 = compare_strategies(train, test, ClassifierSpec("logreg"), 3, 5)
        assert r1 == r2


    def test_rows_equal_train_ensemble(self):
        train, test = hard_three_view_data(1), hard_three_view_data(2)
        spec = ClassifierSpec("logreg")
        rows = compare_strategies(train, test, spec, 3, 4)
        want = [
            (st.label, evaluate_ensemble(train_ensemble(train, spec, st, 3, 4), test).accuracy)
            for st in five_strategies(spec)
        ]
        assert rows == want


class TestAblate:
    def test_full_subset_rows_equal_train_ensemble(self):
        train, test = hard_three_view_data(3), hard_three_view_data(4)
        spec = ClassifierSpec("logreg")
        strategies = five_strategies(spec) + [OUT_OF_FOLD]
        rep = ablate(train, test, spec, strategies, None, 3, 4)
        e = train_ensemble(train, spec, strategies[0], 3, 4)
        priority = dict(zip(e.group_names, e.priority_values))
        order = sorted(e.group_names, key=lambda n: (-priority[n], n))
        full = {label: acc for s, label, acc in rep.entries if s == train.group_names}
        for st in strategies:
            sub = train_ensemble(train.subset_groups(order), spec, st, 3, 4)
            assert full[st.label] == evaluate_ensemble(sub, test.subset_groups(order)).accuracy

    def test_structural(self, rng):
        train = two_view_data(rng)
        test = two_view_data(np.random.default_rng(12))
        rep = ablate(
            train,
            test,
            ClassifierSpec("logreg"),
            [EnsembleStrategy("confidence_sum", weighted=True)],
            subset_plan=None,
            k=3,
            seed=0,
        )
        sizes = [len(s) for s, _, _ in rep.entries]
        assert sizes == [1, 2]
        assert rep.entries[-1][0] == train.group_names  # full subset present

    def test_unknown_group(self, rng):
        train = two_view_data(rng)
        test = two_view_data(np.random.default_rng(13))
        with pytest.raises(UnknownGroupName, match="'hog'"):
            ablate(
                train,
                test,
                ClassifierSpec("logreg"),
                [EnsembleStrategy("confidence_sum")],
                subset_plan=[["hog"]],
                k=3,
                seed=0,
            )

    def test_group_named_twice_in_a_subset(self, rng):
        train = two_view_data(rng)
        test = two_view_data(np.random.default_rng(13))
        name = train.group_names[0]
        with pytest.raises(UnknownGroupName, match=repr(name)):
            ablate(
                train,
                test,
                ClassifierSpec("logreg"),
                [EnsembleStrategy("confidence_sum")],
                subset_plan=[[name, name]],
                k=3,
                seed=0,
            )

    def test_full_subset_required_by_report(self):
        with pytest.raises(BadSpec, match="entries"):
            AblationReport(
                entries=((("a",), "confidence_sum", 0.5),), all_groups=("a", "b")
            )

    def test_nested_subsets_helper(self):
        assert nested_subsets(["x", "y"]) == [("x",), ("x", "y")]


def edited(d, relabel=False, rename=None, bump=False, class_names=None):
    """``d`` rebuilt with the label of row 0 moved to the next class, its
    last group renamed to ``rename``, feature [0, 0] of its first group
    raised by 1, or other class names."""
    labels = d.labels.copy()
    if relabel:
        labels[0] = (labels[0] + 1) % d.label_space.m
    groups = [(g.name, g.features.copy()) for g in d.groups]
    if rename:
        groups[-1] = (rename, groups[-1][1])
    if bump:
        groups[0][1][0, 0] += 1.0
    return make_dataset(groups, labels, class_names)


class TestGroupFitReuse:
    """compare_strategies and ablate share the last call's group fits when
    the training content, label space, spec, k and seed are equal."""

    SPEC = ClassifierSpec("logreg")

    def setup_method(self):
        self.train, self.test = hard_three_view_data(5), hard_three_view_data(6)

    def both(self, train, test, spec=SPEC, k=3, seed=4):
        """compare_strategies then ablate, as a sweep runs them."""
        rows = compare_strategies(train, test, spec, k, seed)
        return rows, ablate(train, test, spec, [OUT_OF_FOLD], None, k, seed)

    def test_compare_then_ablate_fit_once(self, fit_calls):
        self.both(self.train, self.test)
        assert len(fit_calls) == 1

    def test_a_dataset_read_back_from_csv_fits_once(self, fit_calls, tmp_path):
        dataio.write_dataset(self.train, str(tmp_path))
        loaded = dataio.load_dataset(
            str(tmp_path / "labels.csv"),
            [(n, str(tmp_path / f"{n}.csv")) for n in self.train.group_names],
        )
        assert loaded is not self.train
        compare_strategies(self.train, self.test, self.SPEC, 3, 4)
        ablate(loaded, self.test, self.SPEC, [OUT_OF_FOLD], None, 3, 4)
        assert len(fit_calls) == 1

    @pytest.mark.parametrize(
        "edit, args",
        [
            ({}, {"spec": ClassifierSpec("logreg", lam=1e-2)}),
            ({}, {"k": 4}),
            ({}, {"seed": 5}),
            ({"bump": True}, {}),
            ({"relabel": True}, {}),
            ({"rename": "noise2"}, {}),
            ({"class_names": ["x", "y", "z"]}, {}),
        ],
        ids=["spec", "k", "seed", "feature", "label", "group_name", "class_names"],
    )
    def test_any_change_refits(self, fit_calls, edit, args):
        compare_strategies(self.train, self.test, self.SPEC, 3, 4)
        test = edited(self.test, rename=edit["rename"]) if "rename" in edit else self.test
        self.both(edited(self.train, **edit), test, **args)
        assert len(fit_calls) == 2

    def test_one_entry_only(self, fit_calls):
        for seed in (4, 5, 4):
            compare_strategies(self.train, self.test, self.SPEC, 3, seed)
        assert [args[3] for args in fit_calls] == [4, 5, 4]

    def test_a_failed_fit_is_not_remembered(self, fit_calls):
        with pytest.raises(TooFewSamplesPerClass):
            compare_strategies(self.train, self.test, self.SPEC, 20, 4)
        assert evaluation._last_fits is None
        compare_strategies(self.train, self.test, self.SPEC, 3, 4)
        with pytest.raises(TooFewSamplesPerClass):
            ablate(self.train, self.test, self.SPEC, [OUT_OF_FOLD], None, 20, 4)
        compare_strategies(self.train, self.test, self.SPEC, 3, 4)
        assert [args[2] for args in fit_calls] == [20, 3, 20]

    def test_rows_match_a_cold_run(self, fit_calls, monkeypatch):
        warm = self.both(self.train, self.test)
        cold = []
        for call in (compare_strategies, ablate):
            monkeypatch.setattr(evaluation, "_last_fits", None)
            args = (self.SPEC, [OUT_OF_FOLD], None) if call is ablate else (self.SPEC,)
            cold.append(call(self.train, self.test, *args, 3, 4))
        assert len(fit_calls) == 3
        assert warm == tuple(cold)


class TestFormatRows:
    def test_four_decimal_serialization(self):
        lines = format_rows(
            [(("a", "b"), "confidence_sum", 0.98765), ("logreg", 0.5)],
            ["key", "accuracy"],
        )
        assert lines[0] == "key,accuracy"
        assert lines[1] == "a+b,confidence_sum,0.9877"
        assert lines[2] == "logreg,0.5000"
