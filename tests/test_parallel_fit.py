"""Groups fitted by forked processes, against one process fitting them in order.

``pipeline.fit_groups`` shares its groups among forked processes when the
training set reaches ``pipeline.PARALLEL_FIT_CELLS``. Each test here forces
that gate both ways: the fits, every result built from them and every error
must be the same, and every array a fit holds read-only. Where this process
cannot fork (one usable CPU, say), both runs are serial and still agree.
"""

import json
import os
import pickle
import signal
import threading

import numpy as np
import pytest

from latefuse import _fork, classifiers, evaluation, pipeline
from latefuse.classifiers import KINDS, ClassifierSpec
from latefuse.cli import main
from latefuse.dataio import write_dataset
from latefuse.ensemble import EnsembleStrategy
from latefuse.errors import DataError, LateFuseError
from latefuse.synthdata import default_benchmark

from conftest import CPUS, FORKS, GarbledPickle, gaussian_blobs, make_dataset

# the benchmark's specs: one C for the SVM, 20 boosting rounds, 3 trees
SPECS = {
    "logreg": ClassifierSpec("logreg", lam=1e-3),
    "linear_svm_ovr": ClassifierSpec("linear_svm_ovr", c_grid=(1.0,)),
    "adaboost_stumps": ClassifierSpec("adaboost_stumps", rounds=20),
    "random_forest": ClassifierSpec("random_forest", trees=3),
}
OUT_OF_FOLD = EnsembleStrategy(
    "stacking", stacking_mode="out_of_fold", stacking_meta_spec=ClassifierSpec("logreg")
)
WEIGHTED_SUM = EnsembleStrategy("confidence_sum", weighted=True)


@pytest.fixture(scope="module")
def bench_data():
    return default_benchmark(11)


def serial_and_forked(monkeypatch, run):
    """``run()`` with every training set fitted by one process, then with
    every one of two or more groups fitted by forked processes where this
    process can; no group fits are remembered between the two."""
    monkeypatch.setattr(evaluation, "_last_fits", None)
    monkeypatch.setattr(pipeline, "PARALLEL_FIT_CELLS", float("inf"))
    serial = run()
    monkeypatch.setattr(evaluation, "_last_fits", None)
    monkeypatch.setattr(pipeline, "PARALLEL_FIT_CELLS", 0)
    return serial, run()


def held_arrays(fit):
    """Every array a GroupFit holds: its training rows, out-of-fold rows,
    standardizer and classifier (a dict's too, as the forest's nodes)."""
    arrays = [fit.X, fit.oof, fit.model.standardizer.mean, fit.model.standardizer.scale]
    for value in vars(fit.model.classifier).values():
        arrays += value.values() if isinstance(value, dict) else [value]
    return [a for a in arrays if isinstance(a, np.ndarray)]


def fit_digest(fits):
    """What the fits decide: names, priorities, and the bits of every array and state."""
    return [
        (f.model.name, f.model.priority, f.X.tobytes(), f.oof.tobytes(),
         f.model.standardizer.mean.tobytes(), f.model.standardizer.scale.tobytes(),
         f.model.classifier.spec, json.dumps(f.model.classifier.state()))
        for f in fits
    ]


# -- the same fits, and the same results built from them ---------------------


@pytest.mark.parametrize("kind", KINDS)
def test_forked_fits_equal_the_serial_fits(bench_data, monkeypatch, kind):
    train, _ = bench_data
    fits = {}

    def run():
        fits[len(fits)] = pipeline.fit_groups(train, SPECS[kind], 3, 11)
        return fit_digest(fits[len(fits) - 1])

    serial, forked = serial_and_forked(monkeypatch, run)
    assert forked == serial
    for fit in fits[0] + fits[1]:
        arrays = held_arrays(fit)
        assert len(arrays) >= 5 and not any(a.flags.writeable for a in arrays)


def test_a_fit_read_back_from_a_child_is_read_only_whatever_the_protocol(monkeypatch):
    # protocol 5 keeps a read-only array read-only; protocol 4 does not
    train = four_groups()
    monkeypatch.setattr(pipeline, "PARALLEL_FIT_CELLS", 0)
    monkeypatch.setattr(pickle, "HIGHEST_PROTOCOL", 4)
    fits = pipeline.fit_groups(train, SPECS["random_forest"], 3, 0)
    assert not any(a.flags.writeable for fit in fits for a in held_arrays(fit))


@FORKS
def test_the_benchmark_is_fitted_by_forked_processes(bench_data, monkeypatch, tmp_path):
    train, _ = bench_data
    assert pipeline._fitter_count(train, 5) == min(CPUS, len(train.groups))
    log = tmp_path / "fitters.log"
    real = classifiers.train

    def logged(spec, X, y, labels):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(spec, X, y, labels)

    monkeypatch.setattr(classifiers, "train", logged)
    pipeline.fit_groups(train, SPECS["logreg"], 5, 11)
    pids = log.read_text().split()
    assert len(pids) == len(train.groups) * 6 and str(os.getpid()) in pids
    assert len(set(pids)) == min(CPUS, len(train.groups))


@pytest.mark.parametrize("kind", KINDS)
def test_compare_ablate_and_concat_rows_equal_the_serial_rows(bench_data, monkeypatch, kind):
    train, test = bench_data
    spec = SPECS[kind]

    def run():
        baseline = pipeline.train_concat_baseline(train, spec)
        return (
            evaluation.compare_strategies(train, test, spec, 3, 11),
            evaluation.ablate(train, test, spec, [WEIGHTED_SUM, OUT_OF_FOLD], None, 3, 11).entries,
            baseline.classifier.state(),
            evaluation.evaluate(baseline.predict(test), test.labels).accuracy,
        )

    serial, forked = serial_and_forked(monkeypatch, run)
    assert forked == serial


@pytest.fixture(scope="module")
def bench_files(bench_data, tmp_path_factory):
    root = tmp_path_factory.mktemp("benchmark")
    train, _ = bench_data
    write_dataset(train, str(root / "train"))
    return root, {"labels": str(root / "train" / "labels.csv"), "groups": [
        {"name": g.name, "path": str(root / "train" / f"{g.name}.csv")} for g in train.groups
    ]}


@pytest.mark.parametrize("kind", KINDS)
def test_train_writes_the_same_model_file(bench_files, monkeypatch, capsys, kind):
    root, data = bench_files
    config = root / f"config-{kind}.json"
    config.write_text(json.dumps({
        "data": data, "classifier": SPECS[kind].to_dict(), "k": 3, "seed": 11,
        "strategy": OUT_OF_FOLD.to_dict(),
    }))
    model = root / f"model-{kind}.json"

    def train():
        assert main(["train", "--config", str(config), "--model", str(model)]) == 0
        return model.read_bytes()

    serial, forked = serial_and_forked(monkeypatch, train)
    assert forked == serial
    capsys.readouterr()


# -- errors: the first group's in order, from whichever process -------------

WIDTHS = (2, 3, 4, 5)  # each group's width names it inside classifiers.train


def four_groups():
    rng = np.random.default_rng(5)
    X, y = gaussian_blobs(rng, 12, rng.standard_normal((3, sum(WIDTHS))) * 4)
    edges = np.cumsum((0,) + WIDTHS)
    return make_dataset(
        [(f"g{i}", X[:, a:b]) for i, (a, b) in enumerate(zip(edges, edges[1:]))], y
    )


def failing_on(monkeypatch, groups, log=None):
    """Make ``classifiers.train`` raise a DataError naming the group on the
    groups of index ``groups``, each raise first logging its group and pid
    to ``log``, if given."""
    real = classifiers.train

    def train(spec, X, y, labels):
        i = WIDTHS.index(X.shape[1])
        if i in groups:
            if log is not None:
                with open(log, "a") as fh:
                    fh.write(f"g{i} {os.getpid()}\n")
            raise DataError(f"group g{i} cannot be fitted")
        return real(spec, X, y, labels)

    monkeypatch.setattr(classifiers, "train", train)


def fit_outcome(train, spec=SPECS["logreg"]):
    """The fits' digest, or the error's type and message."""
    try:
        return fit_digest(pipeline.fit_groups(train, spec, 3, 0))
    except LateFuseError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("groups", [{0}, {1}, {3}, {1, 2}, {2, 3}, {0, 1, 2, 3}],
                         ids=lambda g: "-".join(map(str, sorted(g))))
def test_the_first_failing_group_wins_as_in_the_serial_loop(monkeypatch, groups):
    train = four_groups()
    failing_on(monkeypatch, groups)
    serial, forked = serial_and_forked(monkeypatch, lambda: fit_outcome(train))
    assert serial == (DataError, f"group g{min(groups)} cannot be fitted")
    assert forked == serial


@FORKS
def test_a_childs_failure_wins_over_a_later_group_in_the_parent(monkeypatch, tmp_path):
    # with two or more workers, group 1 is the first child's and group 2 the parent's
    train = four_groups()
    monkeypatch.setattr(pipeline, "PARALLEL_FIT_CELLS", 0)
    log = tmp_path / "raised.log"
    failing_on(monkeypatch, {1, 2}, log)
    assert fit_outcome(train) == (DataError, "group g1 cannot be fitted")
    raised = dict(line.split() for line in log.read_text().splitlines())
    assert raised["g1"] != str(os.getpid())
    if CPUS == 2:
        assert raised["g2"] == str(os.getpid())


def test_an_error_from_the_fit_itself_keeps_its_type_and_message(monkeypatch):
    train = four_groups()
    spec = ClassifierSpec("linear_svm_ovr", c_grid=(1.0,))
    real = classifiers.train

    def train_on_one_class(spec, X, y, labels):
        return real(spec, X, np.zeros_like(y) if X.shape[1] == 4 else y, labels)

    monkeypatch.setattr(classifiers, "train", train_on_one_class)
    serial, forked = serial_and_forked(monkeypatch, lambda: fit_outcome(train, spec))
    assert serial[0].__name__ == "SingleClassData" and forked == serial


def killed_in_a_child(monkeypatch):
    parent, real = os.getpid(), classifiers.train

    def train(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args)

    monkeypatch.setattr(classifiers, "train", train)


NO_DELIVERY = {
    "killed": killed_in_a_child,
    "bad_pickle": lambda mp: mp.setattr(_fork, "pickle", GarbledPickle),
}


@pytest.mark.parametrize("failure", sorted(NO_DELIVERY))
def test_a_child_that_does_not_deliver_leaves_its_groups_to_the_parent(monkeypatch, failure):
    train = four_groups()
    serial = fit_outcome(train)
    NO_DELIVERY[failure](monkeypatch)
    monkeypatch.setattr(pipeline, "PARALLEL_FIT_CELLS", 0)
    fits = pipeline.fit_groups(train, SPECS["logreg"], 3, 0)
    assert fit_digest(fits) == serial
    assert not any(a.flags.writeable for fit in fits for a in held_arrays(fit))


# -- how many processes, decided without starting any ----------------------


def test_the_fitter_count_is_one_where_forking_does_not_pay_or_is_not_safe(monkeypatch):
    train = four_groups()
    cells = train.n * sum(WIDTHS) * 6
    assert cells < pipeline.PARALLEL_FIT_CELLS  # unit-test data stays serial
    assert pipeline._fitter_count(train, 5) == 1
    monkeypatch.setattr(pipeline, "PARALLEL_FIT_CELLS", cells + 1)  # one cell short
    assert pipeline._fitter_count(train, 5) == 1
    monkeypatch.setattr(pipeline, "PARALLEL_FIT_CELLS", cells)
    assert pipeline._fitter_count(train, 5) == (min(CPUS, 4) if hasattr(os, "fork") else 1)
    assert pipeline._fitter_count(train.subset_groups(["g3"]), 5) == 1
    if hasattr(os, "sched_getaffinity"):
        with monkeypatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid: {0})
            assert pipeline._fitter_count(train, 5) == 1
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(10,))
    other.start()
    try:
        assert pipeline._fitter_count(train, 5) == 1
    finally:
        release.set()
        other.join(10)
    assert not other.is_alive()
