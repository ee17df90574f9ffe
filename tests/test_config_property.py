"""Any JSON given as a run config or a gen-data spec makes every CLI verb exit
0, 1 or 2: it runs, or it fails with a LateFuseError, never a traceback.

Each example draws a valid document over tiny data, then replaces or deletes
up to three of its fields, at any depth, with arbitrary JSON: nulls, bools,
floats (NaN and infinities too), small integers, short strings, lists and
objects. Integers stay small, so no example asks for many trees, rounds,
classes or samples. ``evaluate`` reads no JSON and is not run here.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latefuse.cli import main

from conftest import DETERMINISTIC

SPEC = {
    "m": 3,
    "n_per_class": 10,
    "views": [
        {"name": "sig", "dim": 3, "informativeness": 0.9},
        {"name": "noise", "dim": 2, "informativeness": 0.0, "scale": 50.0},
    ],
    "separation": 2.0,
    "seed": 5,
    "train_per_class": 5,
    "test_per_class": 5,
}

JSON = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-3, 6),
        st.floats(),
        st.sampled_from(["", "x", "sig", "noise", "logreg", "stacking", "naive", "default"]),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["kind", "name", "path", "x"]), inner, max_size=3),
    ),
    max_leaves=6,
)
DELETE = object()


def classifier():
    """A valid spec; its sizes are given, since the defaults are large."""
    return st.fixed_dictionaries(
        {
            "kind": st.sampled_from(["logreg", "linear_svm_ovr", "adaboost_stumps", "random_forest"]),
            "c_grid": st.lists(st.sampled_from([0.1, 1.0]), min_size=1, max_size=2),
            "rounds": st.integers(1, 3),
            "trees": st.integers(1, 3),
        },
        optional={
            "seed": st.integers(0, 2),
            "lam": st.sampled_from([1e-3, 1.0]),
            "min_leaf": st.integers(1, 2),
        },
    )


def data_block(split):
    return {
        "labels": f"@{split}/labels.csv",
        "groups": [{"name": n, "path": f"@{split}/{n}.csv"} for n in ("sig", "noise")],
    }


VALID_CONFIG = st.fixed_dictionaries(
    {"data": st.just(data_block("train")), "test_data": st.just(data_block("test"))},
    optional={
        "classifier": classifier(),
        "strategy": st.one_of(
            st.fixed_dictionaries(
                {"kind": st.sampled_from(["confidence_sum", "rank_sum"])},
                optional={"weighted": st.booleans()},
            ),
            st.fixed_dictionaries({
                "kind": st.just("stacking"),
                "stacking_mode": st.sampled_from(["naive", "out_of_fold"]),
                "stacking_meta_spec": classifier(),
            }),
        ),
        "k": st.integers(2, 3),
        "seed": st.integers(0, 7),
        "model": st.just("m.json"),
        "out": st.just("p.csv"),
        "subsets": st.lists(
            st.lists(st.sampled_from(["sig", "noise"]), min_size=1, max_size=2, unique=True),
            min_size=1,
            max_size=2,
        ),
    },
)
CONFIG_FIELDS = [
    ("classifier",), ("classifier", "kind"), ("classifier", "seed"), ("classifier", "lam"),
    ("classifier", "c_grid"), ("classifier", "c_grid", 0), ("classifier", "rounds"),
    ("classifier", "trees"), ("classifier", "min_leaf"), ("classifier", "x"),
    ("strategy",), ("strategy", "kind"), ("strategy", "weighted"),
    ("strategy", "stacking_mode"), ("strategy", "stacking_meta_spec"),
    ("strategy", "stacking_meta_spec", "kind"), ("strategy", "stacking_meta_spec", "rounds"),
    ("k",), ("seed",), ("model",), ("out",), ("x",),
    ("subsets",), ("subsets", 0), ("subsets", 0, 0),
    ("data",), ("data", "labels"), ("data", "groups"), ("data", "groups", 0),
    ("data", "groups", 0, "name"), ("data", "groups", 1, "path"),
    ("test_data",), ("test_data", "labels"), ("test_data", "groups", 1),
    ("test_data", "groups", 0, "name"), ("test_data", "groups", 0, "path"),
]
# replacements for a path: a missing file, a directory, labels read as features
PATHS = st.sampled_from(["@missing.csv", "@", "@train/labels.csv", "@test/sig.csv"])

VALID_SPEC = st.fixed_dictionaries(
    {
        "m": st.integers(2, 3),
        "n_per_class": st.integers(2, 8),
        "views": st.lists(
            st.fixed_dictionaries(
                {
                    "name": st.sampled_from(["a", "b", "c"]),
                    "dim": st.integers(1, 3),
                    "informativeness": st.sampled_from([0.0, 0.5, 1.0]),
                },
                optional={"scale": st.sampled_from([1.0, 50.0, 1e308])},
            ),
            min_size=1,
            max_size=3,
            unique_by=lambda v: v["name"],
        ),
        "train_per_class": st.integers(1, 4),
        "test_per_class": st.integers(1, 4),
    },
    optional={"separation": st.sampled_from([0.0, 2.0, 1e308]), "seed": st.integers(0, 3)},
)
SPEC_FIELDS = [
    ("m",), ("n_per_class",), ("views",), ("views", 0), ("views", 0, "name"),
    ("views", 0, "dim"), ("views", 0, "informativeness"), ("views", 0, "scale"),
    ("views", 1, "name"), ("separation",), ("seed",), ("train_per_class",),
    ("test_per_class",), ("benchmark",),
]
# replacements for a number that a multiplication can take past the float range
EXTREME_REALS = st.sampled_from([1e308, 5e-324])
SEEDS = st.one_of(st.none(), st.integers(-1, 3))


def edits(fields, extra=st.nothing()):
    """One to three (field, new value) pairs; DELETE removes the field."""
    value = st.one_of(JSON, st.just(DELETE), extra)
    return st.lists(st.tuples(st.sampled_from(fields), value), min_size=1, max_size=3)


def apply_edits(doc, changes):
    """A copy of ``doc`` with each edit whose field's parent exists applied."""
    doc = copy.deepcopy(doc)
    for path, value in changes:
        node = doc
        for key in path[:-1]:
            try:
                node = node[key]
            except (KeyError, IndexError, TypeError):
                break
        else:
            key = path[-1]
            in_list = isinstance(node, list) and isinstance(key, int) and key < len(node)
            if isinstance(node, dict) or in_list:
                if value is not DELETE:
                    node[key] = value
                elif in_list or key in node:
                    del node[key]
    return doc


def resolve(value, data_dir):
    """The document with each "@relative" string made a path under ``data_dir``."""
    if isinstance(value, str) and value.startswith("@"):
        return os.path.join(data_dir, value[1:])
    if isinstance(value, list):
        return [resolve(v, data_dir) for v in value]
    if isinstance(value, dict):
        return {k: resolve(v, data_dir) for k, v in value.items()}
    return value


def exit_cleanly(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2), (argv, rc)
    assert "Traceback" not in err.getvalue()


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """Tiny generated data and a model trained on it."""
    root = tmp_path_factory.mktemp("tiny")
    spec = root / "spec.json"
    spec.write_text(json.dumps(SPEC))
    assert main(["gen-data", "--spec", str(spec), "--out", str(root / "data")]) == 0
    config = root / "train.json"
    config.write_text(json.dumps({"k": 2, "data": resolve(data_block("train"), str(root / "data"))}))
    assert main(["train", "--config", str(config), "--model", str(root / "model.json")]) == 0
    return root


@settings(DETERMINISTIC, max_examples=150)
@given(config=VALID_CONFIG, changes=edits(CONFIG_FIELDS, st.one_of(PATHS, EXTREME_REALS)), seed=SEEDS)
def test_any_config_runs_or_exits_cleanly(tiny, config, changes, seed):
    seed_args = [] if seed is None else ["--seed", str(seed)]
    config = resolve(apply_edits(config, changes), str(tiny / "data"))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        model, out = os.path.join(tmp, "model.json"), os.path.join(tmp, "p.csv")
        for verb, args in (
            (["train", "--model", model], seed_args),
            (["predict", "--model", str(tiny / "model.json"), "--out", out], []),
            (["ablate"], seed_args),
            (["compare"], seed_args),
        ):
            exit_cleanly([*verb, "--config", path, *args])


@settings(DETERMINISTIC, max_examples=150)
@given(spec=VALID_SPEC, changes=edits(SPEC_FIELDS, EXTREME_REALS), seed=SEEDS)
def test_any_gen_data_spec_runs_or_exits_cleanly(spec, changes, seed):
    seed_args = [] if seed is None else ["--seed", str(seed)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w") as fh:
            json.dump(apply_edits(spec, changes), fh)
        exit_cleanly(["gen-data", "--spec", path, "--out", os.path.join(tmp, "out"), *seed_args])
