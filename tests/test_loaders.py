"""Any bytes given to a file loader either load or raise a LateFuseError."""

import functools
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latefuse import pipeline
from latefuse.classifiers import ClassifierSpec
from latefuse.classifiers.forest import NODE_ARRAYS
from latefuse.core import GroupView
from latefuse.dataio import (
    load_dataset,
    load_groups,
    read_feature_file,
    read_labels,
    read_predictions,
)
from latefuse.ensemble import EnsembleStrategy
from latefuse.errors import CorruptModel, LateFuseError
from latefuse.pipeline import load_ensemble

from conftest import DETERMINISTIC, gaussian_blobs, make_dataset


def load_one_group(path):
    return load_groups([("g", path)])


def load_one_group_dataset(path):
    return load_dataset(path, [("g", path)])


LOADERS = (
    load_ensemble,
    read_feature_file,
    read_labels,
    read_predictions,
    load_one_group,
    load_one_group_dataset,
)

# a header that gets past each loader's first check, then raw bytes or text
# built from the characters the formats use
HEADERS = st.sampled_from(
    [b"", b"sample_id,f0,f1\n", b"sample_id,label\n", b"sample_id,predicted\n",
     b'{"format_version": 3, "payload": ']
)
BODIES = st.one_of(
    st.binary(max_size=120),
    st.text(alphabet='sample_id,lbe\n\r" -.0123456789naif{}[]:', max_size=120).map(str.encode),
)


@settings(DETERMINISTIC, max_examples=60)
@given(header=HEADERS, body=BODIES)
def test_any_bytes_load_or_raise_latefuse_error(header, body):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "wb") as fh:
            fh.write(header + body)
        for load in LOADERS:
            try:
                load(path)
            except LateFuseError:
                pass


@functools.cache
def tiny_forest_model() -> str:
    """The text of a saved 3-tree forest model with one 2-column group."""
    X, y = gaussian_blobs(np.random.default_rng(0), 8, [[0, 0], [3, 3], [0, 3]])
    e = pipeline.train_ensemble(
        make_dataset([("g", X)], y), ClassifierSpec("random_forest", trees=3),
        EnsembleStrategy("confidence_sum"), 2, 0,
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        pipeline.save_ensemble(e, path)
        with open(path) as fh:
            return fh.read()


# a replacement for one node-array entry: a negative id, the entry's own id,
# an id at or beyond the node count, any small id, a float, NaN, a bool or a
# string
ENTRY_VALUES = st.one_of(
    st.integers(-3, -1),
    st.just("own id"),
    st.integers(0, 2).map(lambda k: ("beyond", k)),
    st.integers(0, 40),
    st.sampled_from([0.5, 1.0, 1e300, float("inf")]),
    st.just(float("nan")),
    st.booleans(),
    st.text(max_size=3),
)


@settings(DETERMINISTIC, max_examples=150)
@given(name=st.sampled_from(NODE_ARRAYS), pick=st.integers(0, 10**6), value=ENTRY_VALUES)
def test_edited_forest_state_predicts_or_is_corrupt(name, pick, value):
    doc = json.loads(tiny_forest_model())
    array = doc["payload"]["groups"][0]["state"][name]
    i = pick % len(array)
    if value == "own id":
        value = i
    elif isinstance(value, tuple):
        value = len(array) + value[1]
    array[i] = value
    doc["checksum"] = pipeline._checksum(doc["payload"])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        try:
            e = load_ensemble(path)
        except CorruptModel:
            return
    grid = np.stack(np.meshgrid(np.linspace(-3, 6, 7), np.linspace(-3, 6, 7)), axis=-1)
    P = e.per_group[0].classifier.predict_proba(grid.reshape(-1, 2))
    assert np.all(P >= 0) and np.allclose(P.sum(axis=1), 1.0)


@functools.cache
def tiny_stacked_model(kind) -> str:
    """The text of a saved model of two 2-column groups whose classifiers and
    out-of-fold stacking meta model are all of ``kind``, with small sizes."""
    rng = np.random.default_rng(1)
    X, y = gaussian_blobs(rng, 8, [[0, 0], [3, 3], [0, 3]])
    spec = ClassifierSpec(kind, c_grid=(0.1, 1.0), rounds=3, trees=3)
    strategy = EnsembleStrategy("stacking", stacking_mode="out_of_fold", stacking_meta_spec=spec)
    groups = [("g", X), ("h", X[:, ::-1] + rng.standard_normal(X.shape))]
    e = pipeline.train_ensemble(make_dataset(groups, y), spec, strategy, 2, 0)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        pipeline.save_ensemble(e, path)
        with open(path) as fh:
            return fh.read()


def scalars(node):
    """(container, key) of every scalar under the list or dict ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    found = []
    for key, child in items:
        found += scalars(child) if isinstance(child, (dict, list)) else [(node, key)]
    return found


def edit_sites(payload):
    """The scalars a test may edit, one list per field: each group's and the
    meta model's input_dim and priority, and each field of their state, in
    file order."""
    sites = []
    for record in [*payload["groups"], payload["meta"]]:
        sites += [[(record, key)] for key in ("input_dim", "priority") if key in record]
        state = record["state"]
        sites += [scalars(v) if isinstance(v, list) else [(state, k)] for k, v in state.items()]
    return sites


# a replacement for one scalar: the old value as a float, a small or huge
# integer, a float, a bool, a string or null
SAME_AS_FLOAT = ("same as float",)
SCALAR_VALUES = st.one_of(
    st.just(SAME_AS_FLOAT),
    st.integers(-3, 40),
    st.just(10**400),
    st.sampled_from([0.0, 0.5, 1.0, 20.0, 1e300, -1e300, float("inf"), float("nan")]),
    st.booleans(),
    st.sampled_from(["1e5", "20", "", "x"]),
    st.none(),
)


@pytest.mark.parametrize("kind", ["logreg", "linear_svm_ovr", "adaboost_stumps", "random_forest"])
@settings(DETERMINISTIC, max_examples=150)
@given(site=st.integers(0, 10**6), pick=st.integers(0, 10**6), value=SCALAR_VALUES)
@example(site=0, pick=0, value=SAME_AS_FLOAT)  # a group's input_dim
@example(site=2, pick=0, value=True)  # the first adaboost stump's feature index
@example(site=4, pick=0, value="1e5")  # the SVM's chosen_c
@example(site=4, pick=0, value=True)
def test_edited_model_scalar_predicts_or_is_corrupt(kind, site, pick, value):
    doc = json.loads(tiny_stacked_model(kind))
    sites = edit_sites(doc["payload"])
    entries = sites[site % len(sites)]
    node, key = entries[pick % len(entries)]
    old = node[key]
    if value == SAME_AS_FLOAT:
        value = float(old)
    node[key] = value
    doc["checksum"] = pipeline._checksum(doc["payload"])
    never_loads = (
        isinstance(value, (str, bool, type(None)))
        or (type(old) is int and type(value) is float)
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        try:
            e = load_ensemble(path)
        except CorruptModel:
            return
    assert not never_loads, (key, old, value)
    grid = np.stack(np.meshgrid(np.linspace(-3, 6, 7), np.linspace(-3, 6, 7)), axis=-1)
    grid = grid.reshape(-1, 2)
    preds = pipeline.predict_groups(e, [GroupView("g", grid), GroupView("h", grid)], range(len(grid)))
    for p in preds:
        assert np.all(p.scores >= 0) and np.isclose(p.scores.sum(), 1.0)
