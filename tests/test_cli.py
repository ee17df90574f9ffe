import json
import os

import pytest

from latefuse import pipeline
from latefuse.cli import main

SMALL_SPEC = {
    "m": 3,
    "n_per_class": 30,
    "views": [
        {"name": "sig", "dim": 5, "informativeness": 0.9},
        {"name": "noise", "dim": 4, "informativeness": 0.0, "scale": 50.0},
    ],
    "separation": 2.0,
    "seed": 5,
    "train_per_class": 20,
    "test_per_class": 10,
}


@pytest.fixture
def workdir(tmp_path):
    spec_path = tmp_path / "synth.json"
    spec_path.write_text(json.dumps(SMALL_SPEC))
    assert main(["gen-data", "--spec", str(spec_path), "--out", str(tmp_path / "data")]) == 0
    return tmp_path


def write_config(tmp_path, **overrides):
    groups = [
        {"name": "sig", "path": str(tmp_path / "data/train/sig.csv")},
        {"name": "noise", "path": str(tmp_path / "data/train/noise.csv")},
    ]
    tgroups = [
        {"name": "sig", "path": str(tmp_path / "data/test/sig.csv")},
        {"name": "noise", "path": str(tmp_path / "data/test/noise.csv")},
    ]
    cfg = {
        "classifier": {"kind": "logreg", "seed": 0},
        "strategy": {"kind": "confidence_sum", "weighted": True},
        "k": 3,
        "seed": 5,
        "data": {"labels": str(tmp_path / "data/train/labels.csv"), "groups": groups},
        "test_data": {"labels": str(tmp_path / "data/test/labels.csv"), "groups": tgroups},
        "model": str(tmp_path / "model.json"),
    }
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def predict_config(tmp_path, split="test", groups=("sig", "noise")):
    cfg = {
        "data": {
            "groups": [
                {"name": n, "path": str(tmp_path / f"data/{split}/{n}.csv")}
                for n in groups
            ]
        }
    }
    path = tmp_path / f"predict_{split}.json"
    path.write_text(json.dumps(cfg))
    return path


class TestTrainPredictEvaluate:
    def test_full_round_trip(self, workdir, capsys):
        cfg = write_config(workdir)
        assert main(["train", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "priority" in out and os.path.exists(workdir / "model.json")

        pcfg = predict_config(workdir)
        preds = workdir / "preds.csv"
        assert main(["predict", "--model", str(workdir / "model.json"),
                     "--config", str(pcfg), "--out", str(preds)]) == 0
        lines = preds.read_text().strip().splitlines()
        assert len(lines) == 1 + 30  # header + one row per test sample

        assert main(["evaluate", "--predictions", str(preds),
                     "--labels", str(workdir / "data/test/labels.csv")]) == 0
        out = capsys.readouterr().out
        assert out.startswith("wrote") or "accuracy" in out

    def test_missing_labels_file_exit_1(self, workdir, capsys):
        missing = str(workdir / "nowhere" / "labels.csv")
        cfg = write_config(workdir, data={
            "labels": missing,
            "groups": [{"name": "sig", "path": str(workdir / "data/train/sig.csv")},
                        {"name": "noise", "path": str(workdir / "data/train/noise.csv")}],
        })
        assert main(["train", "--config", str(cfg)]) == 1
        assert "labels.csv" in capsys.readouterr().err

    def test_k_of_one_exit_2(self, workdir, capsys):
        cfg = write_config(workdir, k=1)
        assert main(["train", "--config", str(cfg)]) == 2
        assert "k" in capsys.readouterr().err

    def test_bad_classifier_kind_exit_2(self, workdir, capsys):
        cfg = write_config(workdir, classifier={"kind": "perceptron"})
        assert main(["train", "--config", str(cfg)]) == 2

    def test_wrong_group_schema_exit_1(self, workdir, capsys):
        cfg = write_config(workdir)
        assert main(["train", "--config", str(cfg)]) == 0
        capsys.readouterr()
        pcfg = predict_config(workdir, groups=("sig",))
        rc = main(["predict", "--model", str(workdir / "model.json"),
                   "--config", str(pcfg), "--out", str(workdir / "p.csv")])
        assert rc == 1
        assert "noise" in capsys.readouterr().err

    def test_corrupt_model_exit_1(self, workdir, capsys):
        cfg = write_config(workdir)
        assert main(["train", "--config", str(cfg)]) == 0
        model = workdir / "model.json"
        model.write_text(model.read_text()[:100])
        pcfg = predict_config(workdir)
        rc = main(["predict", "--model", str(model),
                   "--config", str(pcfg), "--out", str(workdir / "p.csv")])
        assert rc == 1

    def test_checksummed_malformed_model_exit_1(self, workdir, capsys):
        cfg = write_config(workdir)
        assert main(["train", "--config", str(cfg)]) == 0
        model = workdir / "model.json"
        doc = json.loads(model.read_text())
        del doc["payload"]["groups"][0]["standardizer"]
        doc["checksum"] = pipeline._checksum(doc["payload"])
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["predict", "--model", str(model),
                   "--config", str(predict_config(workdir)), "--out", str(workdir / "p.csv")])
        assert rc == 1
        assert str(model) in capsys.readouterr().err

    def test_non_finite_predict_feature_names_file_and_id_exit_1(self, workdir, capsys):
        cfg = write_config(workdir)
        assert main(["train", "--config", str(cfg)]) == 0
        sig = workdir / "data/test/sig.csv"
        header, first, *rest = sig.read_text().strip().splitlines()
        sid, _, *values = first.split(",")
        sig.write_text("\n".join([header, ",".join([sid, "nan", *values]), *rest]) + "\n")
        capsys.readouterr()
        rc = main(["predict", "--model", str(workdir / "model.json"),
                   "--config", str(predict_config(workdir)), "--out", str(workdir / "p.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert str(sig) in err and repr(sid) in err

    def test_perfect_predictions_print_1_0000(self, workdir, capsys, tmp_path):
        labels = workdir / "data/test/labels.csv"
        preds = workdir / "perfect.csv"
        rows = labels.read_text().strip().splitlines()[1:]
        body = ["sample_id,predicted,score_x"]
        for row in rows:
            sid, label = row.split(",")
            body.append(f"{sid},{label},1.0")
        preds.write_text("\n".join(body) + "\n")
        assert main(["evaluate", "--predictions", str(preds), "--labels", str(labels)]) == 0
        assert "accuracy 1.0000" in capsys.readouterr().out


class TestCompareAndAblate:
    def test_compare_emits_five_rows(self, workdir, capsys):
        cfg = write_config(workdir)
        assert main(["compare", "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "strategy,accuracy"
        assert len(lines) == 6
        assert {l.split(",")[0] for l in lines[1:]} == {
            "confidence_sum", "confidence_sum_weighted",
            "rank_sum", "rank_sum_weighted", "stacking_naive",
        }

    def test_compare_classifier_table(self, workdir, capsys):
        cfg = write_config(
            workdir,
            classifier={"kind": "logreg", "seed": 0},
        )
        assert main(["compare", "--config", str(cfg), "--classifiers"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "classifier,accuracy"
        assert len(lines) == 5

    def test_ablate_with_config_subsets(self, workdir, capsys):
        cfg = write_config(workdir, subsets=[["sig"], ["sig", "noise"]])
        assert main(["ablate", "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "groups,strategy,accuracy"
        assert lines[1].startswith("sig,")
        assert lines[2].startswith("sig+noise,")

    def test_ablate_unknown_group_exit_2(self, workdir, capsys):
        cfg = write_config(workdir, subsets=[["hog"]])
        assert main(["ablate", "--config", str(cfg)]) == 2
        assert "hog" in capsys.readouterr().err


class TestFlags:
    def test_seed_override_changes_the_run(self, workdir, capsys):
        cfg = write_config(workdir)
        assert main(["train", "--config", str(cfg)]) == 0
        out_default = capsys.readouterr().out
        assert main(["train", "--config", str(cfg), "--seed", "77"]) == 0
        out_override = capsys.readouterr().out
        assert "seed=5" in out_default and "seed=77" in out_override

    def test_threads_flag_accepted(self, workdir, capsys):
        cfg = write_config(workdir)
        assert main(["--threads", "4", "train", "--config", str(cfg)]) == 0

    def test_bad_threads_rejected(self, workdir, capsys):
        cfg = write_config(workdir)
        assert main(["--threads", "0", "train", "--config", str(cfg)]) == 2


class TestGenData:
    def test_deterministic_files(self, tmp_path):
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps(SMALL_SPEC))
        assert main(["gen-data", "--spec", spec.as_posix(), "--out", str(tmp_path / "d1")]) == 0
        assert main(["gen-data", "--spec", spec.as_posix(), "--out", str(tmp_path / "d2")]) == 0
        for sub in ("train", "test"):
            for name in ("labels.csv", "sig.csv", "noise.csv"):
                a = (tmp_path / "d1" / sub / name).read_bytes()
                b = (tmp_path / "d2" / sub / name).read_bytes()
                assert a == b

    def test_default_benchmark_keyword(self, tmp_path):
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps({"benchmark": "default", "seed": 3}))
        assert main(["gen-data", "--spec", str(spec), "--out", str(tmp_path / "bench")]) == 0
        train_labels = (tmp_path / "bench/train/labels.csv").read_text().strip().splitlines()
        assert len(train_labels) == 1 + 360

    def test_bad_spec_exit_2(self, tmp_path, capsys):
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps({"m": 1, "n_per_class": 5}))
        assert main(["gen-data", "--spec", str(spec), "--out", str(tmp_path / "x")]) == 2
