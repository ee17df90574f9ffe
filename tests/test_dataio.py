"""The CSV readers and the id joins: each single-fault file gives the expected
error class naming the file and row, and files that disagree on ids name the
file and the first missing or extra id."""

import numpy as np
import pytest

from latefuse.cli import main
from latefuse.dataio import (
    load_dataset,
    load_groups,
    read_feature_file,
    read_labels,
    read_predictions,
    write_dataset,
)
from latefuse.errors import DataError, MisalignedGroup
from latefuse.synthdata import default_benchmark

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


def test_unparsable_value_keeps_the_float_message(tmp_path):
    path = write(tmp_path, "f.csv", "sample_id,f0,f1\na,1,2\nb,3,4x\n")
    with pytest.raises(DataError, match="could not convert string to float: '4x'"):
        read_feature_file(path)


class TestFeatureJoin:
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
