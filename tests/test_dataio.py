"""The CSV readers, writers and id joins: each single-fault file gives the
expected error class naming the file and row, files that disagree on ids name
the file and the first missing or extra id, the C parse of plain feature files
agrees with the checked reader, every file the writers print is what
csv.writer prints with a per-value format, and written feature files take the
C parse."""

import contextlib
import csv
import io
import json
import os
import re
import signal
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latefuse import _fork, dataio
from latefuse.cli import main
from latefuse.core import GroupView, LabelSpace, MultiViewDataset
from latefuse.dataio import (
    _read_checked_features,
    _read_plain_features,
    csv_field,
    load_dataset,
    load_groups,
    read_feature_file,
    read_labels,
    read_predictions,
    write_dataset,
    write_predictions,
)
from latefuse.errors import DataError, DimensionMismatch, MisalignedGroup, NonFiniteFeature
from latefuse.pipeline import PredictionBatch
from latefuse.synthdata import default_benchmark

from conftest import CPUS, DETERMINISTIC, FORKS, GarbledPickle, reference_predictions

FEATURES = "sample_id,f0,f1\na,1,2\nb,3,4\nc,5,6\n"
LABELS = "sample_id,label\na,x\nb,y\nc,x\n"
PREDICTIONS = "sample_id,predicted,score_x,score_y\na,x,0.9,0.1\nb,y,0.2,0.8\nc,x,0.6,0.4\n"

# (reader, file text, expected class, row named in the message or None)
SINGLE_FAULTS = {
    "feature_bad_header": (read_feature_file, "id,f0\na,1\n", DataError, None),
    "labels_bad_header": (read_labels, "sample_id,class\na,x\n", DataError, None),
    "predictions_bad_header": (read_predictions, "sample_id,label\na,x\n", DataError, None),
    "feature_short_row": (read_feature_file, "sample_id,f0,f1\na,1,2\nb,3\n", DataError, 3),
    "feature_long_row": (read_feature_file, "sample_id,f0\na,1\nb,2,3\n", DataError, 3),
    "labels_long_row": (read_labels, "sample_id,label\na,x\nb,y,z\n", DataError, 3),
    "predictions_short_row": (read_predictions, "sample_id,predicted,score_x\na,x,1\nb\n", DataError, 3),
    "predictions_long_row": (read_predictions, "sample_id,predicted\na,x\nb,y,0.5\n", DataError, 3),
    "feature_duplicate_id": (read_feature_file, "sample_id,f0\na,1\nb,2\n a ,3\n", DataError, 4),
    "labels_duplicate_id": (read_labels, "sample_id,label\na,x\na,y\n", DataError, 3),
    "predictions_duplicate_id": (read_predictions, "sample_id,predicted\na,x\na,y\n", DataError, 3),
    "feature_blank_id": (read_feature_file, "sample_id,f0\n ,1\nb,2\n", DataError, 2),
    "labels_blank_id": (read_labels, "sample_id,label\na,x\n,y\n", DataError, 3),
    "predictions_blank_id": (read_predictions, "sample_id,predicted\n  ,x\n", DataError, 2),
    "labels_blank_label": (read_labels, "sample_id,label\na,x\nb,\nc,y\n", DataError, 3),
    "labels_whitespace_label": (read_labels, "sample_id,label\n\na,x\nb, \t\n", DataError, 3),
    "predictions_blank_predicted": (read_predictions, "sample_id,predicted\na,x\nb,\n", DataError, 3),
    "predictions_whitespace_predicted": (read_predictions, "sample_id,predicted\na, \n", DataError, 2),
    "feature_unparsable_value": (read_feature_file, "sample_id,f0,f1\na,1,2\nb,3,4x\n", DataError, 3),
    "feature_empty_value": (read_feature_file, "sample_id,f0,f1\na,,2\n", DataError, 2),
    "feature_no_data_rows": (read_feature_file, "sample_id,f0,f1\n", DataError, None),
    "labels_no_data_rows": (read_labels, "sample_id,label\n\n", DataError, None),
    "predictions_no_data_rows": (read_predictions, "sample_id,predicted\n", DataError, None),
    "feature_no_columns": (read_feature_file, "sample_id\na\nb\n", DataError, None),
    "empty_file": (read_labels, "", DataError, None),
}


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("case", sorted(SINGLE_FAULTS))
def test_single_fault_names_file_and_row(tmp_path, case):
    reader, text, error, row = SINGLE_FAULTS[case]
    path = write(tmp_path, "input.csv", text)
    with pytest.raises(error) as info:
        reader(path)
    message = str(info.value)
    assert repr(path) in message
    if row is not None:
        assert f"row {row}:" in message


def test_rows_may_come_in_any_order(tmp_path):
    path = write(tmp_path, "f.csv", "sample_id,f0,f1\nc,5,6\na,1,2\nb,3,4\n")
    groups, ids = load_groups([("g", path)])
    assert ids == ["a", "b", "c"]
    np.testing.assert_array_equal(groups[0].features, [[1, 2], [3, 4], [5, 6]])


def test_a_shuffled_file_and_a_sorted_file_give_equal_groups(tmp_path):
    rows = [f"s{i:02d},{i * 0.1!r},{-i}" for i in range(40)]
    shuffled = [rows[i] for i in np.random.default_rng(4).permutation(len(rows))]
    a = write(tmp_path, "a.csv", "\n".join(["sample_id,f0,f1"] + rows) + "\n")
    b = write(tmp_path, "b.csv", "\n".join(["sample_id,f0,f1"] + shuffled) + "\n")
    (ga, gb), ids = load_groups([("a", a), ("b", b)])
    assert ids == sorted(ids) and load_groups([("b", b)])[1] == ids
    assert ga.features.tobytes() == gb.features.tobytes()
    assert not ga.features.flags.writeable and not gb.features.flags.writeable


def test_unparsable_value_keeps_the_float_message(tmp_path):
    path = write(tmp_path, "f.csv", "sample_id,f0,f1\na,1,2\nb,3,4x\n")
    with pytest.raises(DataError, match="could not convert string to float: '4x'"):
        read_feature_file(path)


class TestFeatureJoin:
    def test_no_groups(self):
        with pytest.raises(DataError, match="no feature groups configured"):
            load_groups([])

    def test_missing_id(self, tmp_path):
        a = write(tmp_path, "a.csv", FEATURES)
        b = write(tmp_path, "b.csv", "sample_id,f0\na,1\nc,3\n")
        with pytest.raises(MisalignedGroup) as info:
            load_groups([("a", a), ("b", b)])
        assert repr(b) in str(info.value) and "'b'" in str(info.value)

    def test_extra_id(self, tmp_path):
        a = write(tmp_path, "a.csv", FEATURES)
        b = write(tmp_path, "b.csv", "sample_id,f0\na,1\nb,2\nc,3\nd,4\nbb,5\n")
        with pytest.raises(MisalignedGroup) as info:
            load_groups([("a", a), ("b", b)])
        assert repr(b) in str(info.value) and "'bb'" in str(info.value)


class TestLabelJoin:
    def test_missing_id(self, tmp_path):
        labels = write(tmp_path, "labels.csv", "sample_id,label\na,x\nc,y\n")
        with pytest.raises(MisalignedGroup) as info:
            load_dataset(labels, [("g", write(tmp_path, "g.csv", FEATURES))])
        assert repr(labels) in str(info.value) and "'b'" in str(info.value)

    def test_extra_id(self, tmp_path):
        labels = write(tmp_path, "labels.csv", LABELS + "d,y\n")
        with pytest.raises(MisalignedGroup) as info:
            load_dataset(labels, [("g", write(tmp_path, "g.csv", FEATURES))])
        assert repr(labels) in str(info.value) and "'d'" in str(info.value)


class TestPredictionJoin:
    def evaluate(self, tmp_path, capsys, predictions):
        preds = write(tmp_path, "preds.csv", predictions)
        labels = write(tmp_path, "labels.csv", LABELS)
        rc = main(["evaluate", "--predictions", preds, "--labels", labels])
        return rc, preds, capsys.readouterr().err

    def test_matching_ids_score(self, tmp_path, capsys):
        rc, _, _ = self.evaluate(tmp_path, capsys, PREDICTIONS)
        assert rc == 0

    def test_missing_id(self, tmp_path, capsys):
        rc, preds, err = self.evaluate(tmp_path, capsys, "sample_id,predicted\na,x\nc,x\n")
        assert rc == 1
        assert repr(preds) in err and "'b'" in err

    def test_extra_id(self, tmp_path, capsys):
        rc, preds, err = self.evaluate(tmp_path, capsys, PREDICTIONS + "d,y,0.5,0.5\n")
        assert rc == 1
        assert repr(preds) in err and "'d'" in err


@pytest.mark.parametrize("seed", [3, 11])
def test_write_then_load_round_trip(tmp_path, seed):
    for d in default_benchmark(seed):
        out = tmp_path / "data"
        write_dataset(d, str(out))
        back = load_dataset(
            str(out / "labels.csv"), [(g.name, str(out / f"{g.name}.csv")) for g in d.groups]
        )
        # load order is lexicographic by sample_id
        order = np.argsort(np.array(d.sample_ids))
        assert back.sample_ids == tuple(np.array(d.sample_ids)[order])
        assert back.label_space == d.label_space
        np.testing.assert_array_equal(back.labels, d.labels[order])
        assert back.group_names == d.group_names
        for got, want in zip(back.groups, d.groups):
            assert np.array_equal(got.features, want.features[order])


# -- a large batch read by forked processes, against the serial read ----------
# Each test lowers PARALLEL_READ_BYTES so that its small files take the forked
# path wherever this process can fork readers; file 0 is always the parent's.

BATCH = 4
BATCH_ROWS = 30
BATCH_IDS = [f"s{i:05d}" for i in range(BATCH_ROWS)]
BAD_FILES = {
    "unparsable": "sample_id,f0\ns00,1x\n",
    "no_data_rows": "sample_id,f0\n",
    "missing": None,
    "non_finite": "sample_id,f0\n" + "".join(f"{sid},nan\n" for sid in BATCH_IDS),
    "misaligned": "sample_id,f0\ns00,1\n",
}


def batch_files(tmp_path, bad=None, rows=BATCH_ROWS):
    """(name, path) of BATCH feature files over the first ``rows`` ids, each
    file in its own row order; file 1 quotes its ids, so the checked reader
    reads it, and file 2 ends its lines with CRLF. ``bad`` maps a position
    to the text of a file that fails there, or None for no file at all."""
    rng = np.random.default_rng(7)
    ids = [f"s{i:05d}" for i in range(rows)]
    groups = []
    for k in range(BATCH):
        path = tmp_path / f"g{k}.csv"
        groups.append((f"g{k}", str(path)))
        if bad is not None and k in bad:
            if bad[k] is not None:
                path.write_text(bad[k])
            continue
        order = rng.permutation(len(ids)) if k else range(len(ids))
        X = rng.standard_normal((len(ids), k + 1))
        lines = ["sample_id," + ",".join(f"f{j}" for j in range(k + 1))]
        for i in order:
            sid = f'"{ids[i]}"' if k == 1 else ids[i]
            lines.append(",".join([sid] + [repr(v) for v in X[i].tolist()]))
        eol = "\r\n" if k == 2 else "\n"
        with open(path, "w", newline="") as fh:
            fh.write(eol.join(lines) + eol)
    return groups


def load_outcome(group_paths):
    """The ids and each group's name and feature bytes, or the error's type and message."""
    try:
        groups, ids = load_groups(group_paths)
    except DataError as exc:
        return type(exc), str(exc)
    return ids, [(g.name, g.features.tobytes()) for g in groups]


def serial_and_forked(monkeypatch, read):
    """``read()`` with every batch read serially, then with every batch of
    two or more files read by forked processes where this process can."""
    monkeypatch.setattr(dataio, "PARALLEL_READ_BYTES", float("inf"))
    serial = read()
    monkeypatch.setattr(dataio, "PARALLEL_READ_BYTES", 0)
    return serial, read()


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block once it has run ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@FORKS
def test_a_large_batch_is_read_by_forked_processes(tmp_path, monkeypatch):
    paths = [path for _, path in batch_files(tmp_path)]
    size = sum(os.path.getsize(p) for p in paths)
    monkeypatch.setattr(dataio, "PARALLEL_READ_BYTES", size)
    workers = dataio._reader_count(paths)
    assert workers == min(CPUS, BATCH)
    log = tmp_path / "readers.log"
    real = dataio.read_feature_file

    def logged(path):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(path)

    monkeypatch.setattr(dataio, "read_feature_file", logged)
    load_groups([("g", p) for p in paths])
    pids = log.read_text().split()
    assert len(pids) == BATCH and len(set(pids)) == workers and str(os.getpid()) in pids
    log.unlink()
    monkeypatch.setattr(dataio, "PARALLEL_READ_BYTES", size + 1)  # one byte short
    load_groups([("g", p) for p in paths])
    assert log.read_text().split() == [str(os.getpid())] * BATCH


def test_a_batch_stays_serial_where_forking_is_not_safe(tmp_path, monkeypatch):
    paths = [path for _, path in batch_files(tmp_path)]
    monkeypatch.setattr(dataio, "PARALLEL_READ_BYTES", 0)
    assert dataio._reader_count(paths[:1]) == 1
    if hasattr(os, "sched_getaffinity"):
        with monkeypatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid: {0})
            assert dataio._reader_count(paths) == 1
    assert dataio._reader_count(paths + [str(tmp_path / "missing.csv")]) == 1
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(10,))
    other.start()
    try:
        assert dataio._reader_count(paths) == 1
    finally:
        release.set()
        other.join(10)
    assert not other.is_alive()


def test_a_forked_read_equals_the_serial_read(tmp_path, monkeypatch):
    groups = batch_files(tmp_path)
    labels = write(tmp_path, "labels.csv", "sample_id,label\n" + "".join(
        f"{sid},{'xy'[i % 2]}\n" for i, sid in enumerate(BATCH_IDS)
    ))
    paths = [path for _, path in groups]
    assert _read_plain_features(paths[1]) is None  # the checked reader, in a child

    def read():
        tables = dataio._read_feature_files(paths)
        d = load_dataset(labels, groups)
        return (
            [(ids, m.tobytes()) for ids, m in tables], load_outcome(groups),
            d.sample_ids, d.labels.tobytes(), [g.features.tobytes() for g in d.groups],
        )

    serial, forked = serial_and_forked(monkeypatch, read)
    assert forked == serial


@pytest.mark.parametrize("position", range(BATCH))
@pytest.mark.parametrize("bad", sorted(BAD_FILES))
def test_a_bad_file_fails_as_in_the_serial_read(tmp_path, monkeypatch, bad, position):
    groups = batch_files(tmp_path, {position: BAD_FILES[bad]})
    serial, forked = serial_and_forked(monkeypatch, lambda: load_outcome(groups))
    # ids missing from file 0 are blamed on the file that has them
    blamed = groups[1 if (bad, position) == ("misaligned", 0) else position][1]
    assert issubclass(serial[0], DataError) and repr(blamed) in serial[1]
    assert forked == serial


@pytest.mark.parametrize("first, second", [(1, 2), (0, 1), (2, 3)])
def test_the_first_bad_file_in_config_order_wins(tmp_path, monkeypatch, first, second):
    # both files exist: a missing file keeps the whole batch serial
    groups = batch_files(tmp_path, {first: BAD_FILES["unparsable"], second: BAD_FILES["no_data_rows"]})
    serial, forked = serial_and_forked(monkeypatch, lambda: load_outcome(groups))
    assert serial[0] is DataError and repr(groups[first][1]) in serial[1]
    assert forked == serial


def in_a_child(monkeypatch, act):
    """Make ``read_feature_file`` call ``act()`` first in any process but this one."""
    parent, real = os.getpid(), dataio.read_feature_file

    def read(path):
        if os.getpid() != parent:
            act()
        return real(path)

    monkeypatch.setattr(dataio, "read_feature_file", read)


class Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("this error cannot be pickled")


def raise_unpicklable():
    raise Unpicklable("read failed")


NO_DELIVERY = {
    "exit_1": lambda mp: in_a_child(mp, lambda: os._exit(1)),
    "killed": lambda mp: in_a_child(mp, lambda: os.kill(os.getpid(), signal.SIGKILL)),
    "unpicklable_result": lambda mp: in_a_child(mp, raise_unpicklable),
    "bad_pickle": lambda mp: mp.setattr(_fork, "pickle", GarbledPickle),
}


@pytest.mark.parametrize("failure", sorted(NO_DELIVERY))
def test_a_child_that_does_not_deliver_leaves_its_files_to_the_parent(tmp_path, monkeypatch, failure):
    groups = batch_files(tmp_path)
    serial = load_outcome(groups)
    NO_DELIVERY[failure](monkeypatch)
    monkeypatch.setattr(dataio, "PARALLEL_READ_BYTES", 0)
    assert load_outcome(groups) == serial


@FORKS
def test_an_interrupt_in_the_parents_share_leaves_no_child(tmp_path, monkeypatch):
    # each child's results outgrow the pipe, so a child that has read its
    # share blocks writing them until the interrupted parent closes the pipe
    groups = batch_files(tmp_path, rows=3000)
    monkeypatch.setattr(dataio, "PARALLEL_READ_BYTES", 0)
    workers = dataio._reader_count([path for _, path in groups])
    child_reads = BATCH - len(range(0, BATCH, workers))
    log = tmp_path / "child-reads.log"
    parent, real = os.getpid(), dataio.read_feature_file

    def read(path):
        if os.getpid() != parent:
            table = real(path)
            with open(log, "a") as fh:
                fh.write("read\n")
            return table
        while not log.exists() or len(log.read_text().split()) < child_reads:
            time.sleep(0.01)
        time.sleep(0.1)  # for the children to reach the write
        raise KeyboardInterrupt

    monkeypatch.setattr(dataio, "read_feature_file", read)
    with time_limit(30), pytest.raises(KeyboardInterrupt):
        load_groups(groups)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_an_error_in_the_parents_share_leaves_no_child(tmp_path, monkeypatch):
    groups = batch_files(tmp_path, {0: BAD_FILES["unparsable"]})
    monkeypatch.setattr(dataio, "PARALLEL_READ_BYTES", 0)
    with pytest.raises(DataError, match="row 2"):
        load_groups(groups)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_predict_writes_the_same_file_from_a_forked_read(tmp_path, monkeypatch):
    train, test = default_benchmark(3)
    write_dataset(train, str(tmp_path / "train"))
    write_dataset(test, str(tmp_path / "test"))

    def data(part):
        return {"labels": str(tmp_path / part / "labels.csv"), "groups": [
            {"name": g.name, "path": str(tmp_path / part / f"{g.name}.csv")} for g in test.groups
        ]}

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"data": data("train"), "test_data": data("test")}))
    model = str(tmp_path / "model.json")
    assert main(["train", "--config", str(config), "--model", model]) == 0

    def predict():
        # the test split is the batch, so "data" names its files
        (tmp_path / "predict.json").write_text(json.dumps({"data": data("test")}))
        out = tmp_path / "predictions.csv"
        assert main(["predict", "--model", model, "--config", str(tmp_path / "predict.json"),
                     "--out", str(out)]) == 0
        return out.read_bytes()

    serial, forked = serial_and_forked(monkeypatch, predict)
    assert forked == serial


# -- the C parse of plain feature files against the checked reader ----------

PADS = st.sampled_from(["", " ", "\t"])
ODD_IDS = st.text(alphabet='ab ,"\t', max_size=3)
PLAIN_VALUES = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["-0.0", "5e-324", "1e400", "-1e400", "nan", "-nan", "NaN", "inf",
                     " 1 ", "\t2", "+.5", "1.", "1e5", "1\u2003", "1\x0c"]),
)
ODD_VALUES = st.sampled_from([
    "1_0", "", " ", "1,2", "0x1p3", "1d5", "1\x1c", "\u0661", "1\x85", "1\x00", '"1"', '"1,2"',
])
HEADERS = st.sampled_from(["sample_id", " sample_id ", "id"])
EOLS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def feature_texts(draw):
    """Feature-file text: about two in three are plain, with unique padded
    ids, edge values and LF or CRLF; the rest add ids with spaces, commas
    and quotes, odd values, short and long rows, blank lines, and CR or
    mixed line endings."""
    odd = draw(st.integers(0, 2)) == 0
    maybe = lambda: odd and draw(st.integers(0, 3)) == 0  # noqa: E731
    width = draw(st.integers(1 if odd else 2, 3))
    lines = [",".join([draw(HEADERS) if maybe() else "sample_id"] + [f"f{j}" for j in range(width - 1)])]
    for i in range(draw(st.integers(0 if odd else 1, 4))):
        sid = draw(ODD_IDS) if maybe() else f"{draw(PADS)}s{i}{draw(PADS)}"
        fields = width + (draw(st.sampled_from([-1, 1])) if maybe() else 0)
        values = [draw(ODD_VALUES) if maybe() else draw(PLAIN_VALUES) for _ in range(fields - 1)]
        lines.append(",".join([sid] + values))
    if maybe():
        lines.insert(draw(st.integers(0, len(lines))), "")
    eol = draw(EOLS) if odd else draw(st.sampled_from(["\n", "\r\n"]))
    ends = [draw(EOLS) if maybe() else eol for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


def outcome(read, path):
    try:
        ids, matrix = read(path)
    except DataError as exc:
        return str(exc)
    return ids, matrix.shape, matrix.dtype, matrix.tobytes()


@settings(DETERMINISTIC, max_examples=400)
@given(text=feature_texts())
@example(text="sample_id,f0\r\ns0\rs1,1\r\n")  # a CR ends a short row in a CRLF file
@example(text="sample_id,f0\r\ns0\ns1,1\r\n")  # an LF does the same
@example(text="sample_id,f0\ns0\rs1,1\n")  # a CR in an LF file
@example(text="sample_id,f0\n\ns1,1\n")  # a blank line
def test_plain_parse_matches_the_checked_reader(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("plain") / "f.csv"
    with open(path, "w", newline="") as fh:
        fh.write(text)
    checked = outcome(_read_checked_features, str(path))
    plain = _read_plain_features(str(path))
    if plain is not None:
        assert (plain[0], plain[1].shape, plain[1].dtype, plain[1].tobytes()) == checked
    assert outcome(read_feature_file, str(path)) == checked


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_plain_files_take_the_c_parse(tmp_path, eol):
    text = eol.join(["sample_id,f0,f1", " a ,1,-0.0", "b,nan,5e-324", "c,1e400, 2 "]) + eol
    path = write(tmp_path, "f.csv", text)
    ids, matrix = _read_plain_features(path)
    assert ids == ["a", "b", "c"]
    assert matrix.tobytes() == _read_checked_features(path)[1].tobytes()


@pytest.mark.parametrize("text", [
    'sample_id,f0\n"a",1\n',           # quoted field
    "sample_id,f0\ra,1\rb,2\r",        # CR line endings
    "sample_id,f0\n\na,1\n",           # blank line
    "sample_id,f0\r\na,1\nb,2\r\n",   # mixed line endings
    "sample_id,f0\na,1_0\n",            # a value float reads and loadtxt does not
])
def test_other_files_read_as_before(tmp_path, text):
    path = write(tmp_path, "f.csv", text)
    assert _read_plain_features(path) is None
    ids, matrix = read_feature_file(path)
    assert ids == _read_checked_features(path)[0]
    assert matrix.tobytes() == _read_checked_features(path)[1].tobytes()


def test_a_field_past_the_csv_limit_fails_as_before(tmp_path):
    path = write(tmp_path, "f.csv", "sample_id,f0\na,1.0000000000\n")
    limit = csv.field_size_limit(8)
    try:
        with pytest.raises(DataError, match="not a readable CSV text file"):
            read_feature_file(path)
    finally:
        csv.field_size_limit(limit)


@pytest.mark.parametrize("seed", [3, 11])
def test_written_feature_files_take_the_c_parse(tmp_path, seed):
    for part, d in zip(["train", "test"], default_benchmark(seed)):
        write_dataset(d, str(tmp_path / part))
        for g in d.groups:
            path = str(tmp_path / part / f"{g.name}.csv")
            plain = _read_plain_features(path)
            assert plain is not None, path
            ids, matrix = _read_checked_features(path)
            assert plain[0] == ids and plain[1].tobytes() == matrix.tobytes()


# -- the writers against csv.writer with per-value formatting -----------------


@settings(DETERMINISTIC, max_examples=300)
@given(text=st.text())
@example(text="")
@example(text="\r")
@example(text="\t")
@example(text=" a ")
@example(text='a"b')
@example(text="\u00e9\u2003")
@example(text="\x00")
def test_field_quotes_as_csv_writer_does(text):
    # the writers print no row of a single field, which csv.writer quotes when empty
    buf = io.StringIO()
    csv.writer(buf).writerow([text, text])
    assert buf.getvalue() == f"{csv_field(text)},{csv_field(text)}\r\n"


NAMES = st.text(alphabet='ab ,"\n\r', min_size=1, max_size=3)
EDGES = st.sampled_from([-0.0, 5e-324, 1e-310, 1e300, 0.1])
FLOATS = st.one_of(st.floats(), EDGES)
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False), EDGES)


def reference_dataset(d, out_dir):
    out_dir.mkdir()
    with open(out_dir / "labels.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["sample_id", "label"])
        for sid, y in zip(d.sample_ids, d.labels):
            w.writerow([sid, d.label_space.class_names[y]])
    for g in d.groups:
        with open(out_dir / f"{g.name}.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["sample_id"] + [f"f{j}" for j in range(g.dim)])
            for sid, row in zip(d.sample_ids, g.features):
                w.writerow([sid] + [format(v, ".17g") for v in row])


@st.composite
def prediction_rows(draw):
    """Class names, and per row an id, one score per class and a decided index."""
    class_names = draw(st.lists(NAMES, min_size=2, max_size=3, unique=True))
    m = len(class_names)
    row = st.tuples(NAMES, st.lists(FLOATS, min_size=m, max_size=m), st.integers(0, m - 1))
    return class_names, draw(st.lists(row, max_size=5))


@settings(DETERMINISTIC, max_examples=100)
@given(case=prediction_rows())
# one id of several and one class name need quoting: the other columns stay bare
@example(case=(["x", "y,z"], [("a", [0.25, 0.75], 1), ('b"c', [0.5, 0.5], 0), ("d", [1.0, 0.0], 0)]))
def test_write_predictions_prints_each_value_as_format(tmp_path_factory, case):
    class_names, rows = case
    ids = [sid for sid, _, _ in rows]
    scores = np.array([s for _, s, _ in rows], dtype=np.float64).reshape(len(rows), len(class_names))
    preds = PredictionBatch(ids, scores, [d for _, _, d in rows], (scores,))
    out = tmp_path_factory.mktemp("preds")
    write_predictions(preds, class_names, str(out / "got.csv"))
    reference_predictions(preds, class_names, str(out / "want.csv"))
    assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()


def test_write_predictions_needs_one_score_column_per_class(tmp_path):
    scores = np.full((2, 2), 0.5)
    preds = PredictionBatch(["a", "b"], scores, [0, 1], (scores,))
    with pytest.raises(DimensionMismatch, match="2 score columns for 3 class names"):
        write_predictions(preds, ["x", "y", "z"], str(tmp_path / "p.csv"))
    assert not (tmp_path / "p.csv").exists()


@settings(DETERMINISTIC, max_examples=60)
@given(n=st.integers(2, 5), dims=st.lists(st.integers(1, 3), min_size=1, max_size=2), data=st.data())
def test_write_dataset_prints_each_value_as_format(tmp_path_factory, n, dims, data):
    # a dataset holds finite features and a row of each class
    groups = [
        (f"g{i}", np.array(data.draw(st.lists(FINITE, min_size=n * d, max_size=n * d))).reshape(n, d))
        for i, d in enumerate(dims)
    ]
    d = MultiViewDataset(
        label_space=LabelSpace(("x,y", 'q"')),
        labels=[i % 2 for i in range(n)],
        groups=tuple(GroupView(name, features) for name, features in groups),
        sample_ids=tuple(data.draw(NAMES) + str(i) for i in range(n)),
    )
    out = tmp_path_factory.mktemp("data")
    write_dataset(d, str(out / "got"))
    reference_dataset(d, out / "want")
    for name in ["labels"] + [g for g, _ in groups]:
        assert (out / "got" / f"{name}.csv").read_bytes() == (out / "want" / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("name", ["labels", "../escape", "", ".", "sub/g", "a\0b"])
def test_write_dataset_rejects_a_group_name_that_is_no_file_name(tmp_path, name):
    d = MultiViewDataset(
        label_space=LabelSpace(("x", "y")),
        labels=[0, 1],
        groups=(GroupView("ok", np.ones((2, 1))), GroupView(name, np.ones((2, 1)))),
        sample_ids=("a", "b"),
    )
    out = tmp_path / "out" / "data"
    with pytest.raises(DataError, match=re.escape(repr(name))):
        write_dataset(d, str(out))
    assert not (tmp_path / "out").exists()
