import json
import os
import stat

import numpy as np
import pytest

from latefuse import classifiers, pipeline, synthdata
from latefuse.classifiers import ClassifierSpec, FittedClassifier
from latefuse.cli import main
from latefuse.core import GroupView, LabelSpace, MultiViewDataset, Standardizer, standardize_fit
from latefuse.ensemble import EnsembleStrategy
from latefuse.errors import (
    BadSpec,
    CorruptModel,
    DataError,
    DimensionMismatch,
    GroupSchemaMismatch,
    MisalignedGroup,
    NonFiniteFeature,
    UnknownLabel,
    VersionMismatch,
)
from latefuse.pipeline import (
    Prediction,
    PredictionBatch,
    TrainedEnsemble,
    load_ensemble,
    predict,
    predict_groups,
    save_ensemble,
    train_concat_baseline,
    train_ensemble,
)

from conftest import (
    drop_last_weight_column,
    falsy_meta_message,
    gaussian_blobs,
    inf_logreg_weight,
    make_dataset,
    nan_adaboost_alpha,
    nan_standardizer_mean,
    nested_tree,
    shorten_standardizer,
)


def small_dataset(rng, n_per_class=15, m=3, dims=(4, 3)):
    centers = rng.standard_normal((m, dims[0])) * 4
    Xa, y = gaussian_blobs(rng, n_per_class, centers)
    Xb = rng.standard_normal((m * n_per_class, dims[1]))
    return make_dataset([("sig", Xa), ("noise", Xb)], y)


class ConstantClassifier(FittedClassifier):
    """Test stub emitting one fixed probability vector for every input."""

    def __init__(self, label_space, input_dim, p):
        super().__init__(ClassifierSpec("logreg"), label_space, input_dim)
        self.p = np.asarray(p, dtype=np.float64)

    def _proba_matrix(self, X):
        return np.tile(self.p, (X.shape[0], 1))


def identity_standardizer(dim):
    return Standardizer(mean=np.zeros(dim), scale=np.ones(dim))


def widen_hyperplanes(group):
    # one entry more in each class's hyperplane, a column of the weights
    weights = group["state"]["weights"]
    weights.append([0.0] * len(weights[0]))


def stump_feature_out_of_range(group):
    group["state"]["feature"][0] = group["input_dim"]


def alphas_fewer_than_stumps(group):
    group["state"]["alphas"].pop()


def tree_leaf_class_out_of_range(group):
    state = group["state"]
    state["leaf"][state["left"].index(-1)] = 99


def tree_child_points_back(group):
    group["state"]["left"][0] = 0


def tree_child_beyond_node_count(group):
    group["state"]["right"][0] = len(group["state"]["right"])


def tree_node_with_two_parents(group):
    state = group["state"]
    state["right"][0] = state["left"][0]


def tree_split_feature_out_of_range(group):
    group["state"]["feature"][0] = group["input_dim"]


def tree_float_child_id(group):
    group["state"]["left"][0] += 0.0


def tree_arrays_differ_in_length(group):
    group["state"]["threshold"].pop()


def tree_count_above_roots(group):
    group["spec"]["trees"] += 1


def tree_nodes_fewer_than_trees(group):
    state = group["state"]
    for name, unused in (("feature", -1), ("threshold", 0.0), ("left", -1), ("right", -1), ("leaf", 0)):
        state[name] = [unused, unused]  # two root leaves for three trees


def tree_parent_numbered_after_child(group):
    # a well-formed forest, except that leaf b takes the place of its parent
    # a, so a's id is below that of its new parent b
    state = group["state"]
    left, right = state["left"], state["right"]
    for a, (b, c) in enumerate(zip(left, right)):
        if b != -1 and left[b] == left[c] == -1 and a in left + right:
            parent = (left + right).index(a) % len(left)
            (left if left[parent] == a else right)[parent] = b
            for name, at_a, at_b in (("feature", -1, state["feature"][a]), ("left", -1, a),
                                     ("right", -1, c), ("leaf", 0, -1)):
                state[name][a], state[name][b] = at_a, at_b
            state["threshold"][b] = state["threshold"][a]
            return
    raise AssertionError("no split node with two leaf children below the roots")


# (kind, spec settings, edit to the first group of a saved model): each edit
# keeps the file well-formed JSON but breaks its shapes or indices
MISSHAPED_STATES = [
    ("logreg", {}, drop_last_weight_column),
    ("logreg", {}, shorten_standardizer),
    ("linear_svm_ovr", {"c_grid": (1.0,)}, widen_hyperplanes),
    ("adaboost_stumps", {"rounds": 5}, stump_feature_out_of_range),
    ("adaboost_stumps", {"rounds": 5}, alphas_fewer_than_stumps),
    ("random_forest", {"trees": 3}, tree_leaf_class_out_of_range),
    ("random_forest", {"trees": 3}, tree_child_points_back),
    ("random_forest", {"trees": 3}, tree_child_beyond_node_count),
    ("random_forest", {"trees": 3}, tree_node_with_two_parents),
    ("random_forest", {"trees": 3}, tree_split_feature_out_of_range),
    ("random_forest", {"trees": 3}, tree_float_child_id),
    ("random_forest", {"trees": 3}, tree_arrays_differ_in_length),
    ("random_forest", {"trees": 3}, tree_count_above_roots),
    ("random_forest", {"trees": 3}, tree_nodes_fewer_than_trees),
    ("random_forest", {"trees": 3}, tree_parent_numbered_after_child),
]


def inf_stump_threshold(group):
    group["state"]["threshold"][0] = float("inf")


def nan_tree_threshold(group):
    group["state"]["threshold"][0] = float("nan")


# a fitted SVM's spec holds its chosen C as its one c_grid value
def inf_svm_chosen_c(group):
    group["spec"]["c_grid"] = [float("inf")]


def zero_svm_chosen_c(group):
    group["spec"]["c_grid"] = [0.0]


def huge_int_svm_chosen_c(group):
    group["spec"]["c_grid"] = [10**400]


def huge_int_stump_threshold(group):
    group["state"]["threshold"][0] = -(10**400)


# the same, for edits that put a non-finite number (an integer beyond the
# float range counts as one, and so does a zero C) into an
# otherwise well-shaped model state or spec
NON_FINITE_STATES = [
    ("logreg", {}, inf_logreg_weight),
    ("logreg", {}, nan_standardizer_mean),
    ("linear_svm_ovr", {"c_grid": (1.0,)}, inf_svm_chosen_c),
    ("linear_svm_ovr", {"c_grid": (1.0,)}, zero_svm_chosen_c),
    ("linear_svm_ovr", {"c_grid": (1.0,)}, huge_int_svm_chosen_c),
    ("adaboost_stumps", {"rounds": 5}, nan_adaboost_alpha),
    ("adaboost_stumps", {"rounds": 5}, inf_stump_threshold),
    ("adaboost_stumps", {"rounds": 5}, huge_int_stump_threshold),
    ("random_forest", {"trees": 3}, nan_tree_threshold),
]


# (path into a saved model's payload, value put there): each value is of a
# type that field never holds
PAYLOAD_TYPE_EDITS = {
    "numeric_class_names": (("label_space",), [0, 1, 2]),
    "null_class_name": (("label_space", 0), None),
    "label_space_string": (("label_space",), "abc"),
    "list_group_name": (("groups", 0, "name"), ["sig"]),
    "object_group_name": (("groups", 0, "name"), {"sig": 1}),
    "int_group_name": (("groups", 0, "name"), 5),
    "null_group_name": (("groups", 0, "name"), None),
    "empty_group_name": (("groups", 0, "name"), ""),
    "list_strategy": (("strategy",), ["kind"]),
    "list_spec": (("groups", 0, "spec"), ["kind"]),
    "int_spec": (("groups", 0, "spec"), 5),
    "null_spec": (("groups", 0, "spec"), None),
}


# (path into a saved model's payload, value put there, part of the message):
# each value is of the right type but breaks a rule of a built ensemble
PAYLOAD_RULE_EDITS = {
    "no_groups": (("groups",), [], "per_group must name one or more groups"),
    "repeated_group_name": (("groups", 1, "name"), "sig", "each once, got ['sig', 'sig']"),
    **{
        f"meta_spec_{meta!r}": (("strategy", "stacking_meta_spec"), meta, falsy_meta_message(meta))
        for meta in (0, "", [], {}, False)
    },
}


def assert_edited_model_is_corrupt(
    tmp_path, rng, capsys, where, value, message, strategy=EnsembleStrategy("confidence_sum")
):
    """Save a two-group model, put ``value`` at the payload path ``where`` and
    re-checksum it: loading it raises CorruptModel naming the file and holding
    ``message``, and ``latefuse predict`` exits 1 naming the file."""
    path = tmp_path / "model.json"
    e = train_ensemble(small_dataset(rng), ClassifierSpec("logreg"), strategy, 3, 0)
    save_ensemble(e, str(path))
    doc = json.loads(path.read_text())
    *parents, last = where
    node = doc["payload"]
    for key in parents:
        node = node[key]
    node[last] = value
    doc["checksum"] = pipeline._checksum(doc["payload"])
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptModel, match="model.json") as caught:
        load_ensemble(str(path))
    assert message in str(caught.value)
    cfg = tmp_path / "predict.json"
    cfg.write_text(json.dumps({"data": {"groups": [{"name": "sig", "path": "unused.csv"}]}}))
    argv = ["predict", "--model", str(path), "--config", str(cfg),
            "--out", str(tmp_path / "p.csv")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert str(path) in err and message in err and "Traceback" not in err


def save_misshaped_model(path, d, kind, kw, edit):
    e = train_ensemble(d, ClassifierSpec(kind, seed=1, **kw), EnsembleStrategy("confidence_sum"), 3, 0)
    save_ensemble(e, str(path))
    doc = json.loads(path.read_text())
    edit(doc["payload"]["groups"][0])
    doc["checksum"] = pipeline._checksum(doc["payload"])
    path.write_text(json.dumps(doc))


class TestTrainEnsemble:
    def test_structure(self, rng):
        d = small_dataset(rng)
        e = train_ensemble(d, ClassifierSpec("logreg"), EnsembleStrategy("confidence_sum"), 3, 0)
        assert e.group_names == ("sig", "noise")
        assert len(e.priority_values) == 2
        assert all(0.0 <= v <= 1.0 for v in e.priority_values)
        assert e.meta is None

    def test_noise_group_priority_near_chance(self, rng):
        d = small_dataset(rng, n_per_class=60, m=3)
        e = train_ensemble(
            d, ClassifierSpec("logreg"), EnsembleStrategy("confidence_sum", weighted=True), 5, 0
        )
        by_name = dict(zip(e.group_names, e.priority_values))
        n = d.n
        band = 3 * np.sqrt((1 / 3) * (2 / 3) / n)
        assert abs(by_name["noise"] - 1 / 3) <= band
        assert by_name["sig"] > 0.8

    def test_deterministic_model_file_and_predictions(self, tmp_path, rng):
        d = small_dataset(rng)
        spec = ClassifierSpec("logreg", seed=2)
        strategy = EnsembleStrategy("rank_sum", weighted=True)
        e1 = train_ensemble(d, spec, strategy, 3, 9)
        e2 = train_ensemble(d, spec, strategy, 3, 9)
        save_ensemble(e1, str(tmp_path / "1.json"))
        save_ensemble(e2, str(tmp_path / "2.json"))
        assert (tmp_path / "1.json").read_bytes() == (tmp_path / "2.json").read_bytes()
        p1 = predict(e1, d)
        p2 = predict(e2, d)
        assert [p.decided for p in p1] == [p.decided for p in p2]
        for a, b in zip(p1, p2):
            np.testing.assert_array_equal(a.scores, b.scores)

    def test_stacking_meta_present(self, rng):
        d = small_dataset(rng)
        meta_spec = ClassifierSpec("logreg")
        for mode in ("naive", "out_of_fold"):
            e = train_ensemble(
                d,
                ClassifierSpec("logreg"),
                EnsembleStrategy("stacking", stacking_mode=mode, stacking_meta_spec=meta_spec),
                3,
                0,
            )
            assert e.meta is not None
            assert e.meta.input_dim == 2 * 3

    def test_group_fits_are_read_only(self, rng):
        for fit in pipeline.fit_groups(small_dataset(rng), ClassifierSpec("logreg"), 3, 0):
            for a in (fit.X, fit.oof):
                assert not a.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    a[0, 0] = 1.0


class TestPredict:
    def test_single_group_degeneracy(self, rng):
        d = small_dataset(rng).subset_groups(["sig"])
        for strategy in (
            EnsembleStrategy("confidence_sum"),
            EnsembleStrategy("confidence_sum", weighted=True),
            EnsembleStrategy("rank_sum"),
            EnsembleStrategy("rank_sum", weighted=True),
        ):
            e = train_ensemble(d, ClassifierSpec("logreg"), strategy, 3, 0)
            gm = e.per_group[0]
            X = (d.groups[0].features - gm.standardizer.mean) * gm.standardizer.scale
            np.testing.assert_array_equal(predict(e, d).decided, gm.classifier.predict(X))

    def test_unexpected_group_named(self, rng):
        d = small_dataset(rng)
        e = train_ensemble(d, ClassifierSpec("logreg"), EnsembleStrategy("confidence_sum"), 3, 0)
        extra = GroupView("extra", rng.standard_normal((d.n, 2)))
        with pytest.raises(GroupSchemaMismatch, match="unexpected group 'extra'"):
            predict_groups(e, [*d.groups, extra], d.sample_ids)

    def test_missing_group_named(self, rng):
        d = small_dataset(rng)
        e = train_ensemble(d, ClassifierSpec("logreg"), EnsembleStrategy("confidence_sum"), 3, 0)
        with pytest.raises(GroupSchemaMismatch, match="'noise'"):
            predict(e, d.subset_groups(["sig"]))

    def test_wrong_dim_named(self, rng):
        d = small_dataset(rng)
        e = train_ensemble(d, ClassifierSpec("logreg"), EnsembleStrategy("confidence_sum"), 3, 0)
        bad = make_dataset(
            [("sig", rng.standard_normal((6, 4))), ("noise", rng.standard_normal((6, 9)))],
            [0, 0, 1, 1, 2, 2],
        )
        with pytest.raises(GroupSchemaMismatch, match="'noise'"):
            predict(e, bad)

    def test_wrong_group_order_rejected(self, rng):
        d = small_dataset(rng)
        e = train_ensemble(d, ClassifierSpec("logreg"), EnsembleStrategy("confidence_sum"), 3, 0)
        reordered = d.subset_groups(["noise", "sig"])
        with pytest.raises(GroupSchemaMismatch, match="order"):
            predict(e, reordered)

    def test_every_group_has_one_row_per_sample_id(self, rng):
        d = small_dataset(rng)
        e = train_ensemble(d, ClassifierSpec("logreg"), EnsembleStrategy("confidence_sum"), 3, 0)
        sig, noise = d.groups
        cases = [
            ([GroupView("sig", sig.features[:1]), noise], d.sample_ids, "'sig' has 1 rows, expected 45"),
            ([sig, noise], d.sample_ids[:5], "'sig' has 45 rows, expected 5"),
            ([sig, GroupView("noise", noise.features[:7])], d.sample_ids, "'noise' has 7 rows"),
        ]
        for groups, ids, message in cases:
            with pytest.raises(MisalignedGroup, match=message):
                predict_groups(e, groups, ids)

    def test_hand_built_constant_ensemble(self):
        labels = LabelSpace(("x", "y"))
        e = TrainedEnsemble(
            per_group=(
                pipeline.GroupModel("a", identity_standardizer(2), ConstantClassifier(labels, 2, [0.6, 0.4]), 1.0),
                pipeline.GroupModel("b", identity_standardizer(2), ConstantClassifier(labels, 2, [0.3, 0.7]), 0.1),
            ),
            strategy=EnsembleStrategy("confidence_sum", weighted=True),
            meta=None,
            label_space=labels,
        )
        probe = make_dataset(
            [("a", np.zeros((4, 2))), ("b", np.zeros((4, 2)))], [0, 0, 1, 1], ["x", "y"]
        )
        preds = predict(e, probe)
        for p in preds:
            np.testing.assert_allclose(p.scores, [0.63, 0.47])
            assert p.decided == 0

    def test_prediction_invariants(self, rng):
        from latefuse.ensemble import decide

        d = small_dataset(rng)
        e = train_ensemble(d, ClassifierSpec("logreg"), EnsembleStrategy("rank_sum", weighted=True), 3, 0)
        for p in predict(e, d):
            assert p.decided == decide(p.scores)
            for gp in p.per_group_probs:
                assert np.all(gp >= 0) and abs(gp.sum() - 1.0) <= 1e-9

    def test_svm_benchmark_probabilities_hold_no_zero_and_no_tie(self):
        # With the SVM's old calibration slice, group informative_a of this
        # run took a temperature of e^-6: 567 of its test probabilities were
        # exactly 0, and every test row held a tie that rank sum then averaged.
        train, test = synthdata.default_benchmark(3)
        spec = ClassifierSpec("linear_svm_ovr", seed=3, c_grid=(1.0,))
        e = train_ensemble(train, spec, EnsembleStrategy("rank_sum"), 5, 3)
        per_group = np.array([p.per_group_probs for p in predict(e, test)]).transpose(1, 0, 2)
        for name, P in zip(e.group_names, per_group):
            assert (P > 0).all(), name
            assert all(len(set(row)) == len(row) for row in P.tolist()), name


def assert_same_prediction(got, want):
    """Field by field, with today's types; scores and probabilities bit for bit."""
    assert type(got.sample_id) is str and got.sample_id == want.sample_id
    assert type(got.decided) is int and got.decided == want.decided
    assert type(got.scores) is np.ndarray and got.scores.tobytes() == want.scores.tobytes()
    assert type(got.per_group_probs) is tuple
    assert [p.tobytes() for p in got.per_group_probs] == [p.tobytes() for p in want.per_group_probs]


class TestPredictionBatch:
    """A batch is read-only columns; iterating yields the Predictions they hold."""

    def columns(self, rng, n=7, m=3, groups=2):
        ids = [f"s{i}" for i in range(n)]
        probs = tuple(rng.dirichlet(np.ones(m), size=n) for _ in range(groups))
        scores = sum(probs)
        return ids, scores, scores.argmax(axis=1), probs

    def test_rows_match_an_eager_zip(self, rng):
        ids, scores, decided, probs = self.columns(rng)
        batch = PredictionBatch(ids, scores, decided, probs)
        eager = [Prediction(*row) for row in zip(ids, scores, decided.tolist(), zip(*probs))]
        assert len(batch) == len(eager) == 7
        rows = list(batch)
        assert len(rows) == 7
        with pytest.raises(TypeError):
            batch[0]
        for got, want in zip(rows, eager):
            assert_same_prediction(got, want)

    def test_predict_returns_a_batch_of_its_fusion(self, rng):
        d = small_dataset(rng)
        e = train_ensemble(d, ClassifierSpec("logreg"), EnsembleStrategy("rank_sum"), 3, 0)
        batch = predict(e, d)
        assert isinstance(batch, PredictionBatch) and batch.sample_ids == d.sample_ids
        assert batch.scores.shape == (d.n, 3) and len(batch.per_group_probs) == 2
        assert batch.decided.tolist() == [p.decided for p in batch]

    def test_ids_become_str(self, rng):
        _, scores, decided, probs = self.columns(rng)
        batch = PredictionBatch(range(7), scores, decided, probs)
        assert batch.sample_ids == tuple(map(str, range(7)))
        assert [p.sample_id for p in batch] == [str(i) for i in range(7)]

    def test_arrays_are_read_only_and_the_callers_stay_writeable(self, rng):
        ids, scores, decided, probs = self.columns(rng)
        batch = PredictionBatch(ids, scores, decided, probs)
        for a in (batch.scores, batch.decided, *batch.per_group_probs, next(iter(batch)).scores):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0
        assert all(a.flags.writeable for a in (scores, decided, *probs))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda c: {**c, "scores": c["scores"][:-1]},
            lambda c: {**c, "scores": c["scores"][0]},
            lambda c: {**c, "decided": c["decided"][:-1]},
            lambda c: {**c, "per_group_probs": ()},
            lambda c: {**c, "per_group_probs": (c["scores"][:, :2],)},
        ],
    )
    def test_columns_of_other_shapes_are_rejected(self, rng, edit):
        ids, scores, decided, probs = self.columns(rng)
        c = {"sample_ids": ids, "scores": scores, "decided": decided, "per_group_probs": probs}
        with pytest.raises(DimensionMismatch):
            PredictionBatch(**edit(c))

    def test_decided_outside_the_classes_is_rejected(self, rng):
        ids, scores, decided, probs = self.columns(rng)
        with pytest.raises(UnknownLabel, match="decided class index 3"):
            PredictionBatch(ids, scores, np.full(7, 3), probs)


class TestTrainedEnsembleChecks:
    """A TrainedEnsemble checks its meta model against its strategy and
    width when built."""

    LABELS = LabelSpace(("x", "y"))
    STACKING = EnsembleStrategy(
        "stacking", stacking_mode="naive", stacking_meta_spec=ClassifierSpec("logreg")
    )

    def build(self, strategy, meta_dim):
        group = pipeline.GroupModel(
            "a", identity_standardizer(2), ConstantClassifier(self.LABELS, 2, [0.6, 0.4]), 1.0
        )
        meta = None if meta_dim is None else ConstantClassifier(self.LABELS, meta_dim, [0.5, 0.5])
        return TrainedEnsemble((group,), strategy, meta, self.LABELS)

    def test_stacking_with_a_meta_of_width_g_times_m(self):
        assert self.build(self.STACKING, 2).meta.input_dim == 2

    @pytest.mark.parametrize(
        "stacking, meta_dim", [(False, 2), (True, None)], ids=["meta-without-stacking", "stacking-without-meta"]
    )
    def test_meta_iff_stacking(self, stacking, meta_dim):
        strategy = self.STACKING if stacking else EnsembleStrategy("confidence_sum")
        with pytest.raises(BadSpec, match="meta classifier present iff strategy is stacking"):
            self.build(strategy, meta_dim)

    def test_meta_width_must_be_g_times_m(self):
        with pytest.raises(BadSpec, match="meta input_dim 3, expected 1 groups x 2 classes"):
            self.build(self.STACKING, 3)

    @pytest.mark.parametrize("names", [(), ("a", "a"), ("a", "b", "a")], ids=repr)
    def test_groups_are_one_or_more_with_unique_names(self, names):
        groups = tuple(
            pipeline.GroupModel(
                name, identity_standardizer(2), ConstantClassifier(self.LABELS, 2, [0.6, 0.4]), 1.0
            )
            for name in names
        )
        with pytest.raises(BadSpec, match=r"per_group must name one or more groups, each once"):
            TrainedEnsemble(groups, EnsembleStrategy("confidence_sum"), None, self.LABELS)


class TestConcatBaseline:
    def test_concatenated_width(self, rng):
        d = make_dataset(
            [("a", rng.standard_normal((30, 10))), ("b", rng.standard_normal((30, 5)))],
            np.tile([0, 1], 15),
        )
        baseline = train_concat_baseline(d, ClassifierSpec("logreg"))
        assert baseline.classifier.input_dim == 15

    def test_single_group_equals_plain_classifier(self, rng):
        Xa, y = gaussian_blobs(rng, 20, [[0, 0], [4, 4]])
        d = make_dataset([("only", Xa)], y)
        baseline = train_concat_baseline(d, ClassifierSpec("logreg"))
        s = standardize_fit(Xa)
        direct = classifiers.train(
            ClassifierSpec("logreg"), (Xa - s.mean) * s.scale, y, d.label_space
        )
        np.testing.assert_array_equal(
            baseline.predict(d), direct.predict((Xa - s.mean) * s.scale)
        )

    def test_group_schema_checked(self, rng):
        d = small_dataset(rng)
        baseline = train_concat_baseline(d, ClassifierSpec("logreg"))
        with pytest.raises(GroupSchemaMismatch):
            baseline.predict(d.subset_groups(["sig"]))


@pytest.mark.parametrize(
    "train",
    [
        lambda d: train_ensemble(d, ClassifierSpec("logreg"), EnsembleStrategy("rank_sum"), 2),
        lambda d: train_concat_baseline(d, ClassifierSpec("logreg")),
    ],
    ids=["ensemble", "concat_baseline"],
)
def test_overflowing_statistics_name_the_group(rng, train):
    wide = np.tile([[1.7e308], [-1.7e308]], (6, 1))
    d = make_dataset([("ok", rng.standard_normal((12, 2))), ("wide", wide)], np.tile([0, 1], 6))
    with pytest.raises(NonFiniteFeature, match="^group 'wide' column 0 has a variance beyond"):
        train(d)


def rescaled(d, factor=1.0, first_column=None):
    """``d`` with every feature multiplied by ``factor``, and column 0 of its
    first group set to ``first_column`` when that is given."""
    groups = [(g.name, g.features * factor) for g in d.groups]
    if first_column is not None:
        groups[0][1][:, 0] = first_column
    return MultiViewDataset(
        d.label_space, d.labels, tuple(GroupView(n, X) for n, X in groups), d.sample_ids
    )


class TestFeatureUnits:
    """A column is judged degenerate against its own magnitude, so the units
    of the features change no result."""

    WEIGHTED = EnsembleStrategy("confidence_sum", weighted=True)

    @pytest.fixture(scope="class")
    def logreg_run(self):
        train, test = synthdata.default_benchmark(0)
        e = train_ensemble(train, ClassifierSpec("logreg"), self.WEIGHTED, 5, 0)
        return train, test, e, predict(e, test)

    @pytest.mark.parametrize("k", [-500, -200, -60, -40, 100, 500])
    def test_power_of_two_units_change_no_priority_or_score(self, logreg_run, k):
        train, test, e, preds = logreg_run
        scaled = train_ensemble(rescaled(train, 2.0**k), ClassifierSpec("logreg"), self.WEIGHTED, 5, 0)
        assert scaled.priority_values == e.priority_values
        assert predict(scaled, rescaled(test, 2.0**k)).scores.tobytes() == preds.scores.tobytes()

    def test_a_constant_column_at_a_large_magnitude_changes_no_prediction(self, logreg_run):
        train, test, _, _ = logreg_run
        e = train_ensemble(
            rescaled(train, first_column=1234567.1), ClassifierSpec("logreg"), self.WEIGHTED, 5, 0
        )
        assert e.per_group[0].standardizer.scale[0] == 0.0
        at, near = (predict(e, rescaled(test, first_column=v)) for v in (1234567.1, 1234567.2))
        assert near.scores.tobytes() == at.scores.tobytes()


class TestPersistence:
    @pytest.mark.parametrize(
        "kind,kw",
        [
            ("logreg", {}),
            ("linear_svm_ovr", {"c_grid": (1.0,)}),
            ("adaboost_stumps", {"rounds": 10}),
            ("random_forest", {"trees": 8}),
        ],
    )
    def test_round_trip_exact_predictions(self, tmp_path, rng, kind, kw):
        d = small_dataset(rng)
        e = train_ensemble(
            d, ClassifierSpec(kind, seed=1, **kw), EnsembleStrategy("confidence_sum", weighted=True), 3, 0
        )
        path = tmp_path / "model.json"
        save_ensemble(e, str(path))
        loaded = load_ensemble(str(path))
        probe = small_dataset(np.random.default_rng(123))
        for a, b in zip(predict(e, probe), predict(loaded, probe)):
            np.testing.assert_array_equal(a.scores, b.scores)
            assert a.decided == b.decided

    def test_round_trip_stacking(self, tmp_path, rng):
        d = small_dataset(rng)
        e = train_ensemble(
            d,
            ClassifierSpec("logreg"),
            EnsembleStrategy("stacking", stacking_mode="naive", stacking_meta_spec=ClassifierSpec("logreg")),
            3,
            0,
        )
        path = tmp_path / "model.json"
        save_ensemble(e, str(path))
        loaded = load_ensemble(str(path))
        probe = small_dataset(np.random.default_rng(5))
        for a, b in zip(predict(e, probe), predict(loaded, probe)):
            np.testing.assert_array_equal(a.scores, b.scores)

    def test_file_with_a_config_fingerprint_still_loads(self, tmp_path, rng):
        # files written before the fingerprint was dropped carry it in the
        # payload; the loader ignores it
        d = small_dataset(rng)
        e = train_ensemble(d, ClassifierSpec("logreg"), EnsembleStrategy("rank_sum"), 3, 0)
        path = tmp_path / "model.json"
        save_ensemble(e, str(path))
        doc = json.loads(path.read_text())
        assert "config_fingerprint" not in doc["payload"]
        doc["payload"]["config_fingerprint"] = "0" * 64
        doc["checksum"] = pipeline._checksum(doc["payload"])
        path.write_text(json.dumps(doc))
        old = load_ensemble(str(path))
        probe = small_dataset(np.random.default_rng(7))
        for a, b in zip(predict(e, probe), predict(old, probe)):
            assert a.scores.tobytes() == b.scores.tobytes()
            assert a.decided == b.decided
        resaved = tmp_path / "resaved.json"
        save_ensemble(old, str(resaved))
        save_ensemble(e, str(path))
        assert resaved.read_bytes() == path.read_bytes()

    def test_truncated_file_is_corrupt(self, tmp_path, rng):
        d = small_dataset(rng)
        e = train_ensemble(d, ClassifierSpec("logreg"), EnsembleStrategy("confidence_sum"), 3, 0)
        path = tmp_path / "model.json"
        save_ensemble(e, str(path))
        blob = path.read_text()
        path.write_text(blob[: len(blob) // 2])
        with pytest.raises(CorruptModel):
            load_ensemble(str(path))

    def test_unreadable_or_unwritable_file_is_a_data_error(self, tmp_path, rng):
        d = small_dataset(rng)
        e = train_ensemble(d, ClassifierSpec("logreg"), EnsembleStrategy("confidence_sum"), 3, 0)
        with pytest.raises(DataError, match="cannot write model file .*No such file"):
            save_ensemble(e, str(tmp_path / "missing" / "model.json"))
        with pytest.raises(DataError, match="cannot read model file .*No such file"):
            load_ensemble(str(tmp_path / "model.json"))

    def test_failed_save_leaves_no_temp_file(self, tmp_path, rng):
        e = train_ensemble(small_dataset(rng), ClassifierSpec("logreg"), EnsembleStrategy("rank_sum"), 3, 0)
        (tmp_path / "model.json").mkdir()
        with pytest.raises(DataError, match="cannot write model file"):
            save_ensemble(e, str(tmp_path / "model.json"))
        assert sorted(os.listdir(tmp_path)) == ["model.json"]

    def test_model_file_mode_follows_the_umask(self, tmp_path, rng):
        e = train_ensemble(small_dataset(rng), ClassifierSpec("logreg"), EnsembleStrategy("rank_sum"), 3, 0)
        old = os.umask(0o022)
        try:
            save_ensemble(e, str(tmp_path / "model.json"))
        finally:
            os.umask(old)
        assert stat.S_IMODE(os.stat(tmp_path / "model.json").st_mode) == 0o666 & ~0o022
        assert os.listdir(tmp_path) == ["model.json"]

    def test_tampered_payload_fails_checksum(self, tmp_path, rng):
        d = small_dataset(rng)
        e = train_ensemble(d, ClassifierSpec("logreg"), EnsembleStrategy("confidence_sum"), 3, 0)
        path = tmp_path / "model.json"
        save_ensemble(e, str(path))
        doc = json.loads(path.read_text())
        doc["payload"]["groups"][0]["priority"] = 0.123
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptModel):
            load_ensemble(str(path))

    def test_version_mismatch(self, tmp_path, rng):
        d = small_dataset(rng)
        e = train_ensemble(d, ClassifierSpec("logreg"), EnsembleStrategy("confidence_sum"), 3, 0)
        path = tmp_path / "model.json"
        save_ensemble(e, str(path))
        doc = json.loads(path.read_text())
        doc["format_version"] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(VersionMismatch, match="model.json' has format version 999"):
            load_ensemble(str(path))

    def test_checksummed_malformed_payload_is_corrupt(self, tmp_path, rng):
        d = small_dataset(rng)
        e = train_ensemble(d, ClassifierSpec("logreg"), EnsembleStrategy("confidence_sum"), 3, 0)
        path = tmp_path / "model.json"
        save_ensemble(e, str(path))
        doc = json.loads(path.read_text())
        del doc["payload"]["groups"][0]["standardizer"]
        doc["checksum"] = pipeline._checksum(doc["payload"])
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptModel, match="model.json"):
            load_ensemble(str(path))

    @pytest.mark.parametrize(
        "kind,kw,edit", MISSHAPED_STATES, ids=[e.__name__ for _, _, e in MISSHAPED_STATES]
    )
    def test_checksummed_misshaped_state_is_corrupt(self, tmp_path, rng, kind, kw, edit):
        path = tmp_path / "model.json"
        save_misshaped_model(path, small_dataset(rng), kind, kw, edit)
        with pytest.raises(CorruptModel, match="model.json"):
            load_ensemble(str(path))

    @pytest.mark.parametrize(
        "kind,kw,edit", NON_FINITE_STATES, ids=[e.__name__ for _, _, e in NON_FINITE_STATES]
    )
    def test_checksummed_non_finite_state_is_corrupt(self, tmp_path, rng, kind, kw, edit):
        path = tmp_path / "model.json"
        save_misshaped_model(path, small_dataset(rng), kind, kw, edit)
        with pytest.raises(CorruptModel, match="model.json"):
            load_ensemble(str(path))

    @pytest.mark.parametrize("where,value", PAYLOAD_TYPE_EDITS.values(), ids=PAYLOAD_TYPE_EDITS)
    def test_checksummed_payload_field_of_the_wrong_type_is_corrupt(
        self, tmp_path, rng, capsys, where, value
    ):
        assert_edited_model_is_corrupt(tmp_path, rng, capsys, where, value, "")

    @pytest.mark.parametrize(
        "where,value,message", PAYLOAD_RULE_EDITS.values(), ids=PAYLOAD_RULE_EDITS
    )
    def test_checksummed_payload_that_breaks_an_ensemble_rule_is_corrupt(
        self, tmp_path, rng, capsys, where, value, message
    ):
        assert_edited_model_is_corrupt(tmp_path, rng, capsys, where, value, message)

    @pytest.mark.parametrize(
        "record,name", [(("groups", 1), "groups[1]"), (("meta",), "meta")], ids=["group", "meta"]
    )
    def test_checksummed_bad_spec_field_names_its_record(self, tmp_path, rng, capsys, record, name):
        stacking = EnsembleStrategy(
            "stacking", stacking_mode="naive", stacking_meta_spec=ClassifierSpec("logreg")
        )
        message = f"{name}.spec.lam must be > 0, got -1"
        assert_edited_model_is_corrupt(
            tmp_path, rng, capsys, (*record, "spec", "lam"), -1, message, stacking
        )

    def test_format_1_nested_forest_trees_are_not_read(self, tmp_path, rng, capsys):
        d = small_dataset(rng)
        spec = ClassifierSpec("random_forest", seed=1, trees=4)
        e = train_ensemble(d, spec, EnsembleStrategy("confidence_sum"), 3, 0)
        path = tmp_path / "model.json"
        save_ensemble(e, str(path))
        doc = json.loads(path.read_text())
        for g in doc["payload"]["groups"]:
            g["state"] = {"trees": [nested_tree(g["state"], t) for t in range(4)]}
        doc["checksum"] = pipeline._checksum(doc["payload"])
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptModel, match="model.json"):
            load_ensemble(str(path))
        doc["format_version"] = 1
        path.write_text(json.dumps(doc))
        with pytest.raises(VersionMismatch, match="model.json.*version 1; only format 5 is read"):
            load_ensemble(str(path))
        cfg = tmp_path / "predict.json"
        cfg.write_text(json.dumps({"data": {"groups": [{"name": "g", "path": "unused.csv"}]}}))
        out = str(tmp_path / "p.csv")
        argv = ["predict", "--model", str(path), "--config", str(cfg), "--out", out]
        assert main(argv) == 1
        assert str(path) in capsys.readouterr().err

    def test_format_2_svm_with_a_temperature_is_not_read(self, tmp_path, rng, capsys):
        d = small_dataset(rng)
        spec = ClassifierSpec("linear_svm_ovr", c_grid=(1.0,))
        path = tmp_path / "model.json"
        save_ensemble(train_ensemble(d, spec, EnsembleStrategy("confidence_sum"), 3, 0), str(path))
        doc = json.loads(path.read_text())
        for g in doc["payload"]["groups"]:
            g["state"]["temperature"] = 0.5
        doc["format_version"] = 2
        doc["checksum"] = pipeline._checksum(doc["payload"])
        path.write_text(json.dumps(doc))
        with pytest.raises(VersionMismatch, match="model.json.*version 2; only format 5 is read"):
            load_ensemble(str(path))
        cfg = tmp_path / "predict.json"
        cfg.write_text(json.dumps({"data": {"groups": [{"name": "sig", "path": "unused.csv"}]}}))
        argv = ["predict", "--model", str(path), "--config", str(cfg),
                "--out", str(tmp_path / "p.csv")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err

    def test_format_3_svm_with_hyperplanes_is_not_read(self, tmp_path, rng, capsys):
        d = small_dataset(rng)
        spec = ClassifierSpec("linear_svm_ovr")
        path = tmp_path / "model.json"
        save_ensemble(train_ensemble(d, spec, EnsembleStrategy("confidence_sum"), 3, 0), str(path))
        doc = json.loads(path.read_text())
        for g in doc["payload"]["groups"]:
            (c,) = g["spec"]["c_grid"]
            g["spec"]["c_grid"] = list(spec.c_grid)
            g["state"] = {"hyperplanes": np.transpose(g["state"]["weights"]).tolist(), "chosen_c": c}
        doc["format_version"] = 3
        doc["checksum"] = pipeline._checksum(doc["payload"])
        path.write_text(json.dumps(doc))
        with pytest.raises(VersionMismatch, match="model.json.*version 3; only format 5 is read"):
            load_ensemble(str(path))
        cfg = tmp_path / "predict.json"
        cfg.write_text(json.dumps({"data": {"groups": [{"name": "sig", "path": "unused.csv"}]}}))
        argv = ["predict", "--model", str(path), "--config", str(cfg),
                "--out", str(tmp_path / "p.csv")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err

    def test_format_4_boosting_stump_lists_are_not_read(self, tmp_path, rng, capsys):
        d = small_dataset(rng)
        spec = ClassifierSpec("adaboost_stumps", rounds=5)
        path = tmp_path / "model.json"
        save_ensemble(train_ensemble(d, spec, EnsembleStrategy("confidence_sum"), 3, 0), str(path))
        doc = json.loads(path.read_text())
        for g in doc["payload"]["groups"]:  # format 4: one [feature, threshold, left, right] per stump
            state = g["state"]
            T = len(state["alphas"])
            stumps = [
                [state["feature"][i], state["threshold"][i], state["leaf"][T + 2 * i], state["leaf"][T + 2 * i + 1]]
                for i in range(T)
            ]
            g["state"] = {"stumps": stumps, "alphas": state["alphas"]}
        doc["format_version"] = 4
        doc["checksum"] = pipeline._checksum(doc["payload"])
        path.write_text(json.dumps(doc))
        with pytest.raises(VersionMismatch, match="model.json.*version 4; only format 5 is read"):
            load_ensemble(str(path))
        cfg = tmp_path / "predict.json"
        cfg.write_text(json.dumps({"data": {"groups": [{"name": "sig", "path": "unused.csv"}]}}))
        argv = ["predict", "--model", str(path), "--config", str(cfg),
                "--out", str(tmp_path / "p.csv")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err

    def test_checksummed_meta_without_stacking_is_corrupt(self, tmp_path, rng):
        d = small_dataset(rng)
        meta = ClassifierSpec("logreg")
        strategy = EnsembleStrategy("stacking", stacking_mode="naive", stacking_meta_spec=meta)
        path = tmp_path / "model.json"
        save_ensemble(train_ensemble(d, meta, strategy, 3, 0), str(path))
        doc = json.loads(path.read_text())
        doc["payload"]["strategy"] = EnsembleStrategy("confidence_sum").to_dict()
        doc["checksum"] = pipeline._checksum(doc["payload"])
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptModel, match="model.json.*iff strategy is stacking"):
            load_ensemble(str(path))

    def test_checksummed_meta_width_mismatch_is_corrupt(self, tmp_path, rng):
        d = small_dataset(rng)
        meta = ClassifierSpec("logreg")
        strategy = EnsembleStrategy("stacking", stacking_mode="naive", stacking_meta_spec=meta)
        path = tmp_path / "model.json"
        save_ensemble(train_ensemble(d, meta, strategy, 3, 0), str(path))
        doc = json.loads(path.read_text())
        doc["payload"]["groups"].pop()
        doc["checksum"] = pipeline._checksum(doc["payload"])
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptModel, match="model.json"):
            load_ensemble(str(path))
