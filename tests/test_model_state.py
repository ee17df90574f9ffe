"""Persisted model state: the one array reader, read-only fitted models, and
``model_from_state`` raising only BadSpec for a malformed state.

The property test starts from the valid state of a small trained model of
each kind and edits it at any depth: a value replaced by arbitrary JSON
(nulls, bools, small and huge integers, floats with NaN and infinities,
strings, lists and objects), a key or list entry deleted, or an entry
appended. The state then either loads into a model whose arrays are
read-only and whose probabilities are valid, or is rejected by BadSpec.
"""

import functools
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latefuse import pipeline
from latefuse.classifiers import KINDS, ClassifierSpec, model_from_state, train
from latefuse.core import LabelSpace, persisted_array
from latefuse.ensemble import EnsembleStrategy
from latefuse.errors import BadSpec, InvalidProbabilities

from conftest import DETERMINISTIC, gaussian_blobs, make_dataset

LABELS = LabelSpace(("a", "b", "c"))
SPECS = {
    "logreg": ClassifierSpec("logreg"),
    "linear_svm_ovr": ClassifierSpec("linear_svm_ovr", c_grid=(0.1, 1.0)),
    "adaboost_stumps": ClassifierSpec("adaboost_stumps", rounds=3),
    "random_forest": ClassifierSpec("random_forest", trees=3),
}


def blobs():
    return gaussian_blobs(np.random.default_rng(2), 8, [[0, 0], [3, 3], [0, 3]])


@functools.cache
def fitted(kind):
    return train(SPECS[kind], *blobs(), LABELS)


def held_arrays(model):
    """Every array a model holds, also those in a dict (the forest's nodes)."""
    values = []
    for value in vars(model).values():
        values += value.values() if isinstance(value, dict) else [value]
    return [v for v in values if isinstance(v, np.ndarray)]


def assert_read_only(model):
    assert not any(isinstance(v, list) for v in vars(model).values())
    for a in held_arrays(model):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = a.flat[0]


class TestPersistedArray:
    def test_reads_a_read_only_array_of_the_shape(self):
        a = persisted_array({"w": [[1, 2.5], [3, 4]]}, "w", (2, 2))
        assert a.dtype == np.float64 and a.tolist() == [[1.0, 2.5], [3.0, 4.0]]
        assert not a.flags.writeable

    def test_any_length_when_no_shape_is_given(self):
        for values in ([], [7], [1, -1, 3]):
            a = persisted_array({"left": values}, "left", None, integral=True)
            assert a.dtype == np.int64 and a.tolist() == values
            assert not a.flags.writeable

    @pytest.mark.parametrize(
        "values, shape, integral",
        [
            ([[1.0]], (3, 2), False),  # wrong shape
            ([[1.0], [2.0, 3.0]], (2, 2), False),  # ragged
            ([1.0, True], (2,), False),  # a bool
            ([1.0, "1e5"], (2,), False),  # a string
            ([1.0, None], (2,), False),
            ([1.0, float("nan")], (2,), False),
            ([1.0, float("inf")], (2,), False),
            ([1, 10**400], (2,), False),  # beyond the float range
            ([1, 2**63], None, True),  # beyond int64
            ([1, 2.0], None, True),  # a float among integers
            ([[1, 2]], None, True),  # not a flat list
            (5, None, True),
            ({"a": 1}, None, False),
        ],
    )
    def test_rejects_with_bad_spec_naming_the_field(self, values, shape, integral):
        with pytest.raises(BadSpec, match="^w "):
            persisted_array({"w": values}, "w", shape, integral=integral)


@pytest.mark.parametrize("kind", KINDS)
def test_fitted_and_loaded_models_are_read_only(kind):
    model = fitted(kind)
    assert_read_only(model)
    assert_read_only(model_from_state(model.spec, LABELS, model.input_dim, model.state()))
    assert held_arrays(model) or kind == "adaboost_stumps"  # boosting holds tuples


@pytest.mark.parametrize("kind", KINDS)
def test_the_fitted_spec_refits_the_same_state(kind):
    model = fitted(kind)
    refit = train(model.spec, *blobs(), LABELS)
    assert json.dumps(refit.state()) == json.dumps(model.state())
    assert refit.spec == model.spec


def test_a_loaded_ensemble_holds_read_only_arrays():
    X, y = gaussian_blobs(np.random.default_rng(0), 8, [[0, 0], [3, 3], [0, 3]])
    e = pipeline.train_ensemble(
        make_dataset([("g", X)], y), SPECS["random_forest"],
        EnsembleStrategy("confidence_sum"), 2, 0,
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        pipeline.save_ensemble(e, path)
        loaded = pipeline.load_ensemble(path)
    gm = loaded.per_group[0]
    assert_read_only(gm.classifier)
    assert not gm.standardizer.mean.flags.writeable
    assert not gm.standardizer.scale.flags.writeable


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("state", [None, [], "weights", 5, {}])
def test_a_state_that_is_not_an_object_raises_bad_spec(kind, state):
    with pytest.raises(BadSpec, match="^state "):
        model_from_state(SPECS[kind], LABELS, 2, state)


def test_a_bad_state_raises_bad_spec_for_library_callers():
    with pytest.raises(BadSpec, match=r"^weights has shape \(1, 1\), expected \(3, 2\)"):
        model_from_state(ClassifierSpec("logreg"), LabelSpace(("a", "b")), 2, {"weights": [[1.0]]})
    with pytest.raises(BadSpec, match="^state .*KeyError"):
        model_from_state(ClassifierSpec("logreg"), LabelSpace(("a", "b")), 2, {})
    with pytest.raises(BadSpec, match="^state .*unpack"):
        model_from_state(
            ClassifierSpec("adaboost_stumps"), LabelSpace(("a", "b")), 2,
            {"stumps": [[0, 0.5, 1]], "alphas": [1.0]},
        )


JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 40),
    st.sampled_from([2**63, -(2**63) - 1, 10**400]),
    st.floats(),
    st.text(max_size=3),
)
JSON = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=6), inner, max_size=3)
    ),
    max_leaves=8,
)
# one edit: which container (by its position in a walk of the state), which
# of its entries, and what to do there; plain numbers are drawn often, so
# that many edited states still load
EDITS = st.tuples(
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.sampled_from(["replace", "replace", "delete", "append"]),
    st.one_of(st.integers(-3, 40), st.floats(-1e3, 1e3), JSON),
)


def containers(node):
    """``node`` and every list or dict below it, in a depth-first walk."""
    found = [node]
    for child in node.values() if isinstance(node, dict) else node:
        if isinstance(child, (dict, list)):
            found += containers(child)
    return found


def apply_edit(state, edit):
    where, pick, action, value = edit
    node = containers(state)[where % len(containers(state))]
    keys = list(node) if isinstance(node, dict) else list(range(len(node)))
    if action == "append" or not keys:
        if isinstance(node, dict):
            node[str(value)[:6]] = value
        else:
            node.append(value)
        return
    key = keys[pick % len(keys)]
    if action == "delete":
        del node[key]
    else:
        node[key] = value


@pytest.mark.parametrize("kind", KINDS)
@settings(DETERMINISTIC, max_examples=200)
@given(edits=st.lists(EDITS, min_size=1, max_size=3))
def test_an_edited_state_loads_or_raises_bad_spec(kind, edits):
    model = fitted(kind)
    state = model.state()
    for edit in edits:
        apply_edit(state, edit)
    try:
        loaded = model_from_state(model.spec, LABELS, model.input_dim, state)
    except BadSpec:
        return
    assert_read_only(loaded)
    probe = np.stack(np.meshgrid(np.linspace(-3, 6, 5), np.linspace(-3, 6, 5)), -1)
    try:
        P = loaded.predict_proba(probe.reshape(-1, 2))
    except InvalidProbabilities:  # finite but extreme parameters
        return
    assert np.all(P >= 0) and np.allclose(P.sum(axis=1), 1.0)
