"""Any labels, sample ids or feature matrix given to a dataset either build a
MultiViewDataset whose invariants hold or are rejected by a LateFuseError.

Each example starts from a valid three-class dataset and replaces its
labels, its sample ids or one group's features with arbitrary values:
label lists of integers (some outside the classes or beyond int64), floats
and bools, in one or two dimensions; id lists with repeats and of any
length; and float arrays of any shape from 0 to 3 dimensions, NaN and
infinities too.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from latefuse.core import GroupView, MultiViewDataset
from latefuse.errors import LateFuseError

from conftest import DETERMINISTIC, make_dataset

BASE = make_dataset(
    [("a", np.arange(12.0).reshape(6, 2)), ("b", np.ones((6, 3)))], [0, 0, 1, 1, 2, 2]
)

N = BASE.n
LABEL = st.one_of(
    st.integers(-2, 4), st.sampled_from([2**63, 2**64]), st.floats(), st.booleans()
)
# most draws keep the dataset's length, so that later checks are reached too
LABELS = st.one_of(
    st.lists(st.integers(0, 2), min_size=N, max_size=N),
    st.lists(LABEL, min_size=N, max_size=N),
    st.lists(LABEL, max_size=8),
    st.lists(st.lists(st.integers(0, 2), min_size=2, max_size=2), max_size=6),
)
IDS = st.one_of(
    st.lists(st.text(alphabet="abc", max_size=2), min_size=N, max_size=N),
    st.lists(st.text(alphabet="ab", max_size=2), max_size=8),
)
FLOAT = st.floats(width=64)
FEATURES = st.one_of(
    hnp.arrays(np.float64, st.tuples(st.just(N), st.integers(0, 3)), elements=FLOAT),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=7),
               elements=FLOAT),
)


def edit(field, value, group):
    fields = {
        "label_space": BASE.label_space,
        "labels": BASE.labels,
        "groups": BASE.groups,
        "sample_ids": BASE.sample_ids,
    }
    if field == "features":
        groups = list(BASE.groups)
        groups[group] = GroupView(groups[group].name, value)
        fields["groups"] = tuple(groups)
    else:
        fields[field] = value
    return MultiViewDataset(**fields)


def assert_invariants(d):
    n, m = d.n, d.label_space.m
    assert d.labels.dtype == np.int64 and d.labels.shape == (n,)
    assert np.array_equal(np.unique(d.labels), np.arange(m))
    assert len(set(d.sample_ids)) == n
    assert len(set(d.group_names)) == len(d.groups) >= 1
    for g in d.groups:
        assert g.features.shape == (n, g.dim) and g.dim >= 1
        assert np.isfinite(g.features).all()


@settings(DETERMINISTIC, max_examples=300)
@given(
    change=st.one_of(
        st.tuples(st.just("labels"), LABELS),
        st.tuples(st.just("sample_ids"), IDS),
        st.tuples(st.just("features"), FEATURES),
    ),
    group=st.integers(0, len(BASE.groups) - 1),
)
def test_dataset_is_valid_or_rejected(change, group):
    try:
        d = edit(*change, group)
    except LateFuseError:
        return
    assert_invariants(d)
