"""Feature matrices and class indices are read by one reader each, so every
entry point accepts and rejects the same inputs with the same error. Row
indices and the groups' rows and outputs must line up too."""

import numpy as np
import pytest

from latefuse import classifiers
from latefuse.classifiers import ClassifierSpec, logreg_loss_grad, train_stump
from latefuse.core import GroupView, LabelSpace, MultiViewDataset
from latefuse.crossval import group_priority, make_folds
from latefuse.ensemble import confidence_sum, rank_sum, stack_meta_features
from latefuse.errors import (
    BadSpec,
    EmptyEnsemble,
    GroupSchemaMismatch,
    LengthMismatch,
    MisalignedGroup,
    NonFiniteFeature,
    UnknownLabel,
)
from latefuse.evaluation import evaluate
from latefuse.pipeline import train_concat_baseline

from conftest import make_dataset

SPACE = LabelSpace(("c0", "c1"))
SPEC = ClassifierSpec("logreg")
VALID = [0, 0, 0, 0, 1, 1, 1, 1]
X = np.random.default_rng(0).standard_normal((len(VALID), 2))

# each would be read as valid class indices if floats were truncated, bools
# counted as ints, or the class range went unchecked
NOT_INTEGERS = [
    [0.2, 0.7, 0.1, 0.4, 1.9, 1.1, 1.5, 1.0],
    [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0],
    np.array(VALID, dtype=np.float64),
    [True, 0, 0, 0, 1, 1, 1, 1],
    [np.False_, 0, 0, 0, 1, 1, 1, 1],
    [-1, -1, 0, 0, 1, 1, 1, 1],
]
ABOVE_M = [[0, 0, 0, 0, 1, 1, 2, 2], np.array([0, 0, 0, 0, 1, 1, 1, 5])]

# (reader, whether it knows the class count m)
READERS = {
    "MultiViewDataset": (
        lambda y: MultiViewDataset(SPACE, y, (GroupView("a", X),), tuple("abcdefgh")),
        True,
    ),
    "classifiers.train": (lambda y: classifiers.train(SPEC, X, y, SPACE), True),
    "make_folds": (lambda y: make_folds(y, 2, 0), False),
    "group_priority": (
        lambda y: group_priority(SPEC, X, y, SPACE, make_folds(VALID, 2, 0)),
        True,
    ),
    "evaluate truth": (lambda y: evaluate(VALID, y, m=2), True),
    "evaluate predictions": (lambda y: evaluate(y, VALID), False),
    "train_stump": (lambda y: train_stump(X, y, np.ones(len(VALID))), False),
    "logreg_loss_grad": (lambda y: logreg_loss_grad(np.zeros((2, 2)), X, y, 0.1), True),
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_every_reader_rejects_the_same_bad_labels(reader):
    read, knows_m = READERS[reader]
    read(VALID)
    accepted = []
    for labels in NOT_INTEGERS + (ABOVE_M if knows_m else []):
        try:
            read(labels)
        except UnknownLabel:
            continue
        accepted.append(labels)
    assert accepted == []


@pytest.mark.parametrize(
    "indices,message",
    [
        ([0.7, 3.2, 1.0, 5.9], "row indices must be integers, got float64 entry 0.7"),
        ([-1, 0, 1, 2], r"row index -1 outside \[0, 6\)"),
        ([0, 1, 6], r"row index 6 outside \[0, 6\)"),
        ([[0, 1]], r"row indices must be a flat list, got shape \(1, 2\)"),
    ],
    ids=["float", "negative", "past_n", "nested"],
)
def test_take_reads_row_indices_in_range(indices, message):
    d = MultiViewDataset(SPACE, VALID[2:], (GroupView("a", X[2:]),), tuple("abcdef"))
    assert d.take([5, 0]).sample_ids == ("f", "a")
    with pytest.raises(UnknownLabel, match=message):
        d.take(indices)


@pytest.mark.parametrize(
    "fuse",
    [
        lambda probs: confidence_sum(probs, [0.5, 0.5], True),
        lambda probs: rank_sum(probs, [0.5, 0.5], False),
        stack_meta_features,
    ],
    ids=["confidence_sum", "rank_sum", "stack_meta_features"],
)
def test_fusion_rejects_group_outputs_of_another_shape(fuse):
    one, five = np.full((1, 2), 0.5), np.full((5, 2), 0.5)
    with pytest.raises(EmptyEnsemble, match=r"output shapes disagree: \(1, 2\), \(5, 2\)"):
        fuse([one, five])


def test_group_view_with_nan_names_group_row_and_column():
    feats = np.ones((4, 3))
    feats[2, 1] = np.nan
    with pytest.raises(NonFiniteFeature, match="group 'g' at row 2, col 1"):
        GroupView("g", feats)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_feature_named_by_row_and_column_in_training_and_prediction(bad):
    feats = X.copy()
    feats[3, 1] = bad
    with pytest.raises(NonFiniteFeature, match="training features at row 3, col 1"):
        classifiers.train(SPEC, feats, VALID, SPACE)
    model = classifiers.train(SPEC, X, VALID, SPACE)
    with pytest.raises(NonFiniteFeature, match="prediction input at row 3, col 1"):
        model.predict_proba(feats)


def test_dataset_labels_of_the_wrong_shape_rejected():
    for labels in (1, [VALID]):
        with pytest.raises(MisalignedGroup, match="labels have shape"):
            MultiViewDataset(SPACE, labels, (GroupView("a", X),), tuple("abcdefgh"))


def test_evaluate_rejects_label_matrices():
    with pytest.raises(LengthMismatch, match=r"shape \(1, 2\)"):
        evaluate([[0, 1]], [[0, 1]])


@pytest.mark.parametrize("m", [2.5, True, "2", -1])
def test_evaluate_class_count_must_be_an_integer(m):
    with pytest.raises(BadSpec, match="m must be"):
        evaluate([0, 1], [0, 1], m=m)


@pytest.mark.parametrize("priorities", [["0.5", "0.5"], [True, 0.5], [None, 0.5]])
@pytest.mark.parametrize("fuse", [confidence_sum, rank_sum])
def test_fusion_priorities_must_be_numbers(fuse, priorities):
    with pytest.raises(BadSpec, match="priorities value must be a finite number"):
        fuse([np.array([0.5, 0.5])] * 2, priorities, True)


def test_concat_baseline_rejects_a_group_of_the_wrong_width():
    rng = np.random.default_rng(1)
    labels = [0] * 6 + [1] * 6
    a = rng.standard_normal((12, 2))
    train = make_dataset([("a", a), ("b", rng.standard_normal((12, 3)))], labels)
    wide = make_dataset([("a", a), ("b", rng.standard_normal((12, 4)))], labels)
    baseline = train_concat_baseline(train, SPEC)
    with pytest.raises(GroupSchemaMismatch, match="group 'b' has 4 features, model expects 3"):
        baseline.predict(wide)

