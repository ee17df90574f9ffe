"""Any JSON-like value given to a field of a spec, or to ``train_ensemble``'s
``k`` and ``seed``, is accepted as a number of the field's kind or rejected by
a LateFuseError whose message names the field.

Each example starts from valid arguments and replaces one to three of them
with arbitrary values: nulls, bools, integers (one beyond the float range),
floats (NaN and infinities too), short strings, lists and objects. An
accepted integer field holds an ``int``, and an accepted real field a finite
number that is not a bool.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latefuse import pipeline
from latefuse.classifiers import ClassifierSpec
from latefuse.core import SplitSpec
from latefuse.ensemble import EnsembleStrategy
from latefuse.errors import LateFuseError, TooFewSamplesPerClass
from latefuse.synthdata import SynthSpec, ViewSpec

from conftest import DETERMINISTIC, gaussian_blobs, make_dataset

JSON = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-3, 6),
        st.just(10**400),
        st.floats(),
        st.sampled_from(["", "x", "3", "1e5", "logreg"]),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["kind", "name", "x"]), inner, max_size=3),
    ),
    max_leaves=4,
)

VIEWS = (ViewSpec("a", 2, 0.5), ViewSpec("b", 1, 0.0, scale=3.0))

# constructor, valid arguments, integer fields, real fields
SPECS = {
    "classifier": (
        ClassifierSpec,
        {"kind": "logreg", "seed": 0, "lam": 1e-3, "c_grid": (0.1, 1.0),
         "rounds": 2, "trees": 2, "min_leaf": 1},
        ("seed", "rounds", "trees", "min_leaf"),
        ("lam",),
    ),
    "view": (
        ViewSpec,
        {"name": "a", "dim": 2, "informativeness": 0.5, "scale": 1.0},
        ("dim",),
        ("informativeness", "scale"),
    ),
    "synth": (
        SynthSpec,
        {"m": 3, "n_per_class": 4, "views": VIEWS, "separation": 1.0, "seed": 0},
        ("m", "n_per_class", "seed"),
        ("separation",),
    ),
    "split": (
        SplitSpec,
        {"train_per_class": 2, "test_per_class": 1, "seed": 0},
        ("train_per_class", "test_per_class", "seed"),
        (),
    ),
}
# valid replacements besides JSON, so that edits also reach later checks
VALID = st.sampled_from([0, 1, 2, 0.25, 1.0, "random_forest", VIEWS, VIEWS[:1], (1.0,)])


def edits(fields):
    return st.lists(
        st.tuples(st.sampled_from(fields), st.one_of(JSON, VALID)), min_size=1, max_size=3
    )


def assert_names_an_edited_field(exc, changes):
    assert isinstance(exc, LateFuseError), repr(exc)
    assert any(field in str(exc) for field, _ in changes), (str(exc), changes)


def assert_real(value):
    assert not isinstance(value, bool) and math.isfinite(value)


@pytest.mark.parametrize("name", sorted(SPECS))
@settings(DETERMINISTIC, max_examples=200)
@given(data=st.data())
def test_spec_field_is_read_or_named(name, data):
    make, valid, integers, reals = SPECS[name]
    changes = data.draw(edits(sorted(valid)))
    kwargs = {**valid, **dict(changes)}
    try:
        spec = make(**kwargs)
    except Exception as exc:
        assert_names_an_edited_field(exc, changes)
        return
    for field in integers:
        assert type(getattr(spec, field)) is int
    for field in reals:
        assert_real(getattr(spec, field))
    if name == "classifier":
        assert spec.c_grid and all(type(c) is float and 0 < c < math.inf for c in spec.c_grid)


PER_CLASS = 6


@settings(DETERMINISTIC, max_examples=60)
@given(changes=edits(["k", "seed"]))
def test_train_ensemble_k_and_seed_are_read_or_named(changes):
    X, y = gaussian_blobs(np.random.default_rng(0), PER_CLASS, [[0, 0], [3, 3], [0, 3]])
    args = {"k": 2, "seed": 0, **dict(changes)}
    try:
        e = pipeline.train_ensemble(
            make_dataset([("g", X)], y), ClassifierSpec("logreg"),
            EnsembleStrategy("confidence_sum"), **args,
        )
    except TooFewSamplesPerClass:
        assert type(args["k"]) is int and args["k"] > PER_CLASS
    except Exception as exc:
        assert_names_an_edited_field(exc, changes)
    else:
        assert 0.0 <= e.per_group[0].priority <= 1.0
