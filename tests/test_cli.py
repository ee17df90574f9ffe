import csv
import json
import os
import subprocess
import sys

import pytest

import latefuse
from latefuse import dataio, pipeline
from latefuse.cli import main
from latefuse.core import MultiViewDataset

from conftest import (
    drop_last_weight_column,
    inf_logreg_weight,
    nan_adaboost_alpha,
    nan_standardizer_mean,
    reference_predictions,
    shorten_standardizer,
)


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


def train_edited_model(workdir, edit, **overrides):
    """Train, apply ``edit`` to the first group of the saved model and
    re-checksum it; returns the model's path."""
    assert main(["train", "--config", str(write_config(workdir, **overrides))]) == 0
    model = workdir / "model.json"
    doc = json.loads(model.read_text())
    edit(doc["payload"]["groups"][0])
    doc["checksum"] = pipeline._checksum(doc["payload"])
    model.write_text(json.dumps(doc))
    return model


def predict_with_edited_model(workdir, capsys, edit, **overrides):
    """Train, apply ``edit`` to the first group of the saved model, re-checksum
    it, then predict; returns the exit code and stderr."""
    model = train_edited_model(workdir, edit, **overrides)
    capsys.readouterr()
    rc = main(["predict", "--model", str(model),
               "--config", str(predict_config(workdir)), "--out", str(workdir / "p.csv")])
    return rc, capsys.readouterr().err


def huge_logreg_weights(group):
    """Model-file edit: two logreg weights of opposite sign near the float
    maximum, so the logits overflow."""
    group["state"]["weights"][0][0] = 1e308
    group["state"]["weights"][1][0] = -1e308


def huge_svm_hyperplanes(group):
    """Model-file edit: the weights of classes 0 and 1 on feature 0 of an SVM
    group, of opposite sign near the float maximum, so the margins overflow."""
    group["state"]["weights"][0][0] = 1e308
    group["state"]["weights"][0][1] = -1e308


def huge_standardizer_scale(group):
    """Model-file edit: a finite standardizer scale so large that a z-score overflows."""
    group["standardizer"]["scale"][0] = 1e308


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


def tiny_config(tmp_path, labels, classifier=None, k=2):
    """A config over one feature group with one row per entry of ``labels``."""
    ids = [f"s{i}" for i in range(len(labels))]
    (tmp_path / "labels.csv").write_text(
        "sample_id,label\n" + "".join(f"{s},{c}\n" for s, c in zip(ids, labels))
    )
    (tmp_path / "g.csv").write_text(
        "sample_id,f0,f1\n" + "".join(f"{s},{i},{i % 2}\n" for i, s in enumerate(ids))
    )
    cfg = {
        "classifier": classifier or {"kind": "logreg", "seed": 0},
        "k": k,
        "data": {"labels": str(tmp_path / "labels.csv"),
                 "groups": [{"name": "g", "path": str(tmp_path / "g.csv")}]},
        "model": str(tmp_path / "model.json"),
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(cfg))
    return path


def fresh_python(*args, flags=(), **env):
    """``python [flags] args`` in a fresh interpreter that imports this latefuse,
    with ``env`` added to the environment (a None value removes the variable);
    stdout and stderr are bytes."""
    src = os.path.dirname(os.path.dirname(latefuse.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in {**os.environ, "PYTHONPATH": path, **env}.items() if v is not None}
    return subprocess.run([sys.executable, *flags, *args], env=env, capture_output=True)


def test_importing_the_package_and_cli_loads_no_scipy():
    # a fresh interpreter: the test suite itself imports scipy as an oracle
    code = "import sys, latefuse, latefuse.cli; print([m for m in sys.modules if 'scipy' in m])"
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.strip() == b"[]"


# an ASCII locale: no UTF-8 mode, no coercion of the C locale and no
# PYTHONIOENCODING, so only latefuse itself can make its files and output UTF-8
ASCII_LOCALE = {
    "PYTHONUTF8": "0", "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONIOENCODING": None
}


def cli_flow(tmp_path, flags=(), **env):
    """train, predict and evaluate in fresh interpreters, over ids and classes
    that are not ASCII; the predictions file's bytes and evaluate's output."""
    rows = [(f"é{i}", ("café", "thé")[i % 2], i % 2 + i / 10, i % 3) for i in range(12)]
    labels, group, cfg = tmp_path / "labels.csv", tmp_path / "g.csv", tmp_path / "cfg.json"
    labels.write_bytes(("sample_id,label\n" + "".join(f"{s},{c}\n" for s, c, *_ in rows)).encode())
    group.write_bytes(("sample_id,f0,f1\n" + "".join(f"{s},{a},{b}\n" for s, _, a, b in rows)).encode())
    data = {"labels": str(labels), "groups": [{"name": "g", "path": str(group)}]}
    cfg.write_text(json.dumps({"k": 2, "data": data}))
    model, preds = str(tmp_path / "model.json"), str(tmp_path / "p.csv")
    for argv in (
        ["train", "--config", str(cfg), "--model", model],
        ["predict", "--model", model, "--config", str(cfg), "--out", preds],
        ["evaluate", "--predictions", preds, "--labels", str(labels)],
    ):
        proc = fresh_python("-m", "latefuse.cli", *argv, flags=flags, **env)
        assert (proc.returncode, proc.stderr.decode("utf-8", "replace")) == (0, "")
    return (tmp_path / "p.csv").read_bytes(), proc.stdout


class TestFileEncoding:
    def test_flow_under_an_ascii_locale_matches_a_utf8_run(self, tmp_path):
        (tmp_path / "ascii").mkdir()
        (tmp_path / "utf8").mkdir()
        ascii_run = cli_flow(tmp_path / "ascii", **ASCII_LOCALE)
        assert ascii_run == cli_flow(tmp_path / "utf8", PYTHONUTF8="1")
        preds, report = ascii_run
        assert "café".encode() in preds and "class thé".encode() in report

    def test_output_is_utf8_under_an_ascii_locale(self, tmp_path):
        _, report = cli_flow(tmp_path, **ASCII_LOCALE)
        assert "class café accuracy".encode() in report
        data = {"labels": str(tmp_path / "labels.csv"),
                "groups": [{"name": "vué", "path": str(tmp_path / "g.csv")}]}
        cfg = tmp_path / "named.json"
        cfg.write_text(json.dumps({"k": 2, "data": data, "test_data": data}))
        for argv, line in (
            (["train", "--model", str(tmp_path / "m.json")], "group vué priority"),
            (["ablate"], "vué,confidence_sum_weighted,"),
            (["compare"], "stacking_naive,"),
        ):
            proc = fresh_python("-m", "latefuse.cli", *argv, "--config", str(cfg), **ASCII_LOCALE)
            assert (proc.returncode, proc.stderr) == (0, b"")
            assert line in proc.stdout.decode("utf-8")

    def test_no_file_is_opened_in_the_locale_encoding(self, tmp_path):
        # an open() without an encoding warns, and the warning is an error
        cli_flow(tmp_path, flags=("-X", "warn_default_encoding", "-W", "error::EncodingWarning"))


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

    def test_model_path_that_is_a_directory_exit_1(self, workdir, capsys):
        (workdir / "out").mkdir()
        argv = ["train", "--config", str(write_config(workdir)), "--model", str(workdir / "out")]
        assert main(argv) == 1
        assert "cannot write model file" in capsys.readouterr().err
        assert not [f for f in os.listdir(workdir) if f.startswith(".model-")]

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

    @pytest.mark.parametrize("edit", [drop_last_weight_column, shorten_standardizer])
    def test_checksummed_misshaped_model_exit_1(self, workdir, capsys, edit):
        rc, err = predict_with_edited_model(workdir, capsys, edit)
        assert rc == 1
        assert str(workdir / "model.json") in err

    @pytest.mark.parametrize(
        "classifier,edit",
        [
            ({"kind": "logreg", "seed": 0}, inf_logreg_weight),
            ({"kind": "adaboost_stumps", "seed": 0, "rounds": 5}, nan_adaboost_alpha),
            ({"kind": "logreg", "seed": 0}, nan_standardizer_mean),
        ],
        ids=["inf_logreg_weight", "nan_adaboost_alpha", "nan_standardizer_mean"],
    )
    def test_checksummed_non_finite_model_exit_1(self, workdir, capsys, classifier, edit):
        rc, err = predict_with_edited_model(workdir, capsys, edit, classifier=classifier)
        assert rc == 1
        assert str(workdir / "model.json") in err

    @pytest.mark.parametrize(
        "classifier,edit",
        [
            ({"kind": "logreg", "seed": 0}, huge_logreg_weights),
            ({"kind": "linear_svm_ovr", "seed": 0, "c_grid": [1.0]}, huge_svm_hyperplanes),
        ],
        ids=["huge_logreg_weights", "huge_svm_hyperplanes"],
    )
    def test_checksummed_model_with_non_finite_output_exit_1(
        self, workdir, capsys, classifier, edit
    ):
        # every value is finite, but the probabilities computed from them are not
        rc, err = predict_with_edited_model(workdir, capsys, edit, classifier=classifier)
        assert rc == 1
        assert str(workdir / "model.json") in err and "non-finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("classifier", [
        {"kind": "logreg", "seed": 0},
        {"kind": "linear_svm_ovr", "seed": 0, "c_grid": [1.0]},
        {"kind": "adaboost_stumps", "seed": 0, "rounds": 5},
        {"kind": "random_forest", "seed": 0, "trees": 3},
    ], ids=lambda c: c["kind"])
    def test_checksummed_model_with_overflowing_z_scores_exit_1(self, workdir, classifier):
        # a fresh interpreter, so a numpy warning would reach stderr rather than raise
        model = train_edited_model(workdir, huge_standardizer_scale, classifier=classifier)
        proc = fresh_python("-m", "latefuse.cli", "predict", "--model", str(model),
                            "--config", str(predict_config(workdir)), "--out", str(workdir / "p.csv"))
        err = proc.stderr.decode()
        assert proc.returncode == 1, err
        assert repr(str(model)) in err and "group 'sig'" in err and "col 0" in err
        assert "Warning" not in err and "Traceback" not in err

    def test_unwritable_predictions_exit_1(self, workdir, capsys):
        assert main(["train", "--config", str(write_config(workdir))]) == 0
        out = workdir / "nodir" / "p.csv"
        capsys.readouterr()
        rc = main(["predict", "--model", str(workdir / "model.json"),
                   "--config", str(predict_config(workdir)), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"cannot write {str(out)!r}" in err and "Traceback" not in err

    @pytest.mark.parametrize("value", [True, 1.5, float("nan"), "x", None],
                             ids=["true", "1.5", "NaN", "string", "null"])
    def test_checksummed_bad_priority_exit_1(self, workdir, capsys, value):
        def edit(group):
            group["priority"] = value

        rc, err = predict_with_edited_model(workdir, capsys, edit)
        assert rc == 1
        assert str(workdir / "model.json") in err and "priority" in err

    @pytest.mark.parametrize("target", ["features", "labels", "model"])
    def test_undecodable_input_file_exit_1(self, workdir, capsys, target):
        cfg = write_config(workdir)
        assert main(["train", "--config", str(cfg)]) == 0
        preds = workdir / "preds.csv"
        pcfg = predict_config(workdir)
        predict_args = ["predict", "--model", str(workdir / "model.json"),
                        "--config", str(pcfg), "--out", str(preds)]
        assert main(predict_args) == 0
        labels = workdir / "data/test/labels.csv"
        bad, argv = {
            "features": (workdir / "data/test/sig.csv", predict_args),
            "labels": (labels, ["evaluate", "--predictions", str(preds), "--labels", str(labels)]),
            "model": (workdir / "model.json", predict_args),
        }[target]
        data = bad.read_bytes()
        bad.write_bytes(data[:40] + b"\xff\xfe\x80" + data[40:])
        capsys.readouterr()
        assert main(argv) == 1
        assert str(bad) in capsys.readouterr().err

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

    def test_single_class_labels_exit_1(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path, ["x"] * 4)
        assert main(["train", "--config", str(cfg)]) == 1
        assert str(tmp_path / "labels.csv") in capsys.readouterr().err

    @pytest.mark.parametrize("signs,stat", [((1, 1), "mean"), ((1, -1), "variance")])
    def test_feature_overflowing_its_statistics_exit_1(self, tmp_path, capsys, signs, stat):
        cfg = tiny_config(tmp_path, ["x", "y", "x", "y"])
        (tmp_path / "g.csv").write_text("sample_id,f0,f1\n" + "".join(
            f"s{i},{signs[i % 2] * 1.7e308!r},{i}\n" for i in range(4)
        ))
        assert main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"group 'g' column 0 has a {stat} beyond the float range" in err
        assert not (tmp_path / "model.json").exists()

    def test_single_class_evaluate_exit_1(self, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        labels.write_text("sample_id,label\na,x\nb,x\n")
        preds = tmp_path / "preds.csv"
        preds.write_text("sample_id,predicted\na,x\nb,x\n")
        assert main(["evaluate", "--predictions", str(preds), "--labels", str(labels)]) == 1
        assert str(labels) in capsys.readouterr().err

    @pytest.mark.parametrize("blank", ["", "  "])
    def test_blank_predicted_class_exit_1(self, tmp_path, capsys, blank):
        labels = tmp_path / "labels.csv"
        labels.write_text("sample_id,label\na,x\nb,y\nc,x\n")
        preds = tmp_path / "preds.csv"
        preds.write_text(f"sample_id,predicted,score_x,score_y\na,x,0.9,0.1\nb,{blank},0.5,0.5\n"
                         "c,x,0.6,0.4\n")
        assert main(["evaluate", "--predictions", str(preds), "--labels", str(labels)]) == 1
        out, err = capsys.readouterr()
        assert repr(str(preds)) in err and "row 3:" in err and out == ""

    def test_svm_with_one_sample_per_class_per_fold(self, tmp_path):
        cfg = tiny_config(tmp_path, ["x", "y", "x", "y"],
                          classifier={"kind": "linear_svm_ovr", "seed": 0}, k=2)
        assert main(["train", "--config", str(cfg)]) == 0


class TestPredictionsFile:
    """`latefuse predict` writes, byte for byte, what csv.writer prints for
    the library's predict_groups on the same files."""

    @pytest.mark.parametrize(
        "strategy",
        [
            {"kind": "confidence_sum", "weighted": True},
            {"kind": "confidence_sum", "weighted": False},
            {"kind": "rank_sum", "weighted": True},
            {"kind": "stacking", "stacking_mode": "out_of_fold",
             "stacking_meta_spec": {"kind": "logreg", "seed": 0}},
        ],
        ids=["confidence_sum_weighted", "confidence_sum", "rank_sum_weighted", "stacking_oof"],
    )
    def test_file_matches_the_reference_writer(self, workdir, strategy):
        assert main(["train", "--config", str(write_config(workdir, strategy=strategy))]) == 0
        test = dataio.load_dataset(
            str(workdir / "data/test/labels.csv"),
            [(n, str(workdir / f"data/test/{n}.csv")) for n in ("sig", "noise")],
        )
        # the first id holds a comma, so its field alone is quoted
        ids = ("a,b", *test.sample_ids[1:])
        dataio.write_dataset(
            MultiViewDataset(test.label_space, test.labels, test.groups, ids), str(workdir / "data/comma")
        )
        got = workdir / "got.csv"
        assert main(["predict", "--model", str(workdir / "model.json"),
                     "--config", str(predict_config(workdir, "comma")), "--out", str(got)]) == 0
        e = pipeline.load_ensemble(str(workdir / "model.json"))
        groups, read_ids = dataio.load_groups(
            [(n, str(workdir / f"data/comma/{n}.csv")) for n in ("sig", "noise")]
        )
        want = workdir / "want.csv"
        reference_predictions(pipeline.predict_groups(e, groups, read_ids), e.label_space.class_names, want)
        assert got.read_bytes() == want.read_bytes()
        assert b'\r\n"a,b",' in got.read_bytes()


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

    def test_ablate_quotes_a_group_name_with_a_comma(self, workdir, capsys):
        def block(split):
            groups = [{"name": "a,b", "path": str(workdir / f"data/{split}/sig.csv")},
                      {"name": "noise", "path": str(workdir / f"data/{split}/noise.csv")}]
            return {"labels": str(workdir / f"data/{split}/labels.csv"), "groups": groups}

        cfg = write_config(
            workdir, data=block("train"), test_data=block("test"), subsets=[["a,b"], ["a,b", "noise"]]
        )
        assert main(["ablate", "--config", str(cfg)]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert [len(r) for r in rows] == [3, 3, 3]
        assert [r[0] for r in rows] == ["groups", "a,b", "a,b+noise"]

    def assert_plan_error_names_the_config(self, workdir, capsys, subsets, message):
        cfg = write_config(workdir, subsets=subsets)
        assert main(["ablate", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert f"config {str(cfg)!r}: subsets: {message}" in captured.err
        assert captured.out == "" and "Traceback" not in captured.err

    def test_ablate_unknown_group_exit_2(self, workdir, capsys):
        self.assert_plan_error_names_the_config(
            workdir, capsys, [["hog"]], "unknown group 'hog' in subset plan"
        )

    def test_ablate_empty_subset_exit_2(self, workdir, capsys):
        self.assert_plan_error_names_the_config(workdir, capsys, [[]], "empty group subset")

    def test_ablate_group_named_twice_exit_2(self, workdir, capsys):
        self.assert_plan_error_names_the_config(
            workdir, capsys, [["sig", "sig"]], "group 'sig' named twice in one subset"
        )


class TestFlags:
    def test_seed_override_changes_the_run(self, workdir, capsys):
        cfg = write_config(workdir)
        assert main(["train", "--config", str(cfg)]) == 0
        out_default = capsys.readouterr().out
        assert main(["train", "--config", str(cfg), "--seed", "77"]) == 0
        out_override = capsys.readouterr().out
        assert "seed=5" in out_default and "seed=77" in out_override

    def test_negative_seed_override_exit_2(self, workdir, capsys):
        cfg = write_config(workdir)
        assert main(["train", "--config", str(cfg), "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err

    def test_predict_takes_no_seed(self, workdir, capsys):
        assert main(["train", "--config", str(write_config(workdir))]) == 0
        capsys.readouterr()
        argv = ["predict", "--seed", "3", "--model", str(workdir / "model.json"),
                "--config", str(predict_config(workdir)), "--out", str(workdir / "p.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: latefuse") and "Traceback" not in err
        assert "unrecognized arguments: --seed 3" in err
        assert not (workdir / "p.csv").exists()

    def test_threads_flag_is_gone(self, workdir, capsys):
        cfg = write_config(workdir)
        assert main(["--threads", "4", "train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: latefuse") and "Traceback" not in err


class TestConfigFields:
    """A config field of the wrong type exits 2 naming the file and field."""

    @pytest.mark.parametrize("field, edit", [
        ("data.labels", lambda cfg: cfg["data"].update(labels=5)),
        ("data.groups[0].path", lambda cfg: cfg["data"]["groups"][0].update(path=3)),
        ("model", lambda cfg: cfg.update(model=7)),
        ("model", lambda cfg: cfg.update(model="")),
        ("strategy", lambda cfg: cfg.update(strategy="x")),
        ("classifier", lambda cfg: cfg.update(classifier=5)),
        (
            "strategy.stacking_meta_spec must be a JSON object, got 0",
            lambda cfg: cfg.update(strategy={"kind": "confidence_sum", "stacking_meta_spec": 0}),
        ),
    ])
    def test_train_field_exit_2(self, workdir, capsys, field, edit):
        cfg = write_config(workdir)
        doc = json.loads(cfg.read_text())
        edit(doc)
        cfg.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert repr(str(cfg)) in err and field in err

    @pytest.mark.parametrize("kind, field, value", [
        ("adaboost_stumps", "rounds", 2.5),
        ("random_forest", "trees", 2.5),
        ("random_forest", "min_leaf", True),
        pytest.param("linear_svm_ovr", "c_grid", [float("nan")], id="linear_svm_ovr-c_grid-nan"),
        ("logreg", "lam", float("inf")),
    ])
    def test_classifier_number_exit_2(self, workdir, capsys, kind, field, value):
        cfg = write_config(workdir, classifier={"kind": kind, "seed": 0, field: value})
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert repr(str(cfg)) in err and field in err

    def test_svm_c_that_overflows_exit_2(self, workdir, capsys):
        cfg = write_config(workdir, classifier={"kind": "linear_svm_ovr", "c_grid": [1e308]})
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "c_grid value 1e+308" in err

    def test_strategy_without_kind_exit_2(self, workdir, capsys):
        cfg = write_config(workdir, strategy={"weighted": True})
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert repr(str(cfg)) in err and "missing the required field 'kind'" in err

    def test_weighted_not_a_boolean_exit_2(self, workdir, capsys):
        cfg = write_config(workdir, strategy={"kind": "confidence_sum", "weighted": "no"})
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert repr(str(cfg)) in err and "weighted" in err

    @pytest.mark.parametrize("block", ["data", "test_data"])
    def test_duplicate_group_name_exit_2(self, workdir, capsys, block):
        cfg = write_config(workdir)
        doc = json.loads(cfg.read_text())
        doc[block]["groups"][1]["name"] = doc[block]["groups"][0]["name"]
        cfg.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert repr(str(cfg)) in err and f"{block}.groups[1].name" in err

    @pytest.mark.parametrize("message, edit", [
        ("the top level has unknown fields ['sed']", lambda cfg: cfg.update(sed=4)),
        ("classifier has unknown fields ['lamda']", lambda cfg: cfg["classifier"].update(lamda=1)),
        ("strategy has unknown fields ['weigted']", lambda cfg: cfg["strategy"].update(weigted=False)),
        (
            "strategy.stacking_meta_spec has unknown fields ['lamda']",
            lambda cfg: cfg.update(strategy={
                "kind": "stacking", "stacking_mode": "naive",
                "stacking_meta_spec": {"kind": "logreg", "lamda": 1},
            }),
        ),
        (": data has unknown fields ['lables']", lambda cfg: cfg["data"].update(lables="x")),
        ("test_data has unknown fields ['lables']", lambda cfg: cfg["test_data"].update(lables="x")),
        ("data.groups[1] has unknown fields ['pth']", lambda cfg: cfg["data"]["groups"][1].update(pth="x")),
    ], ids=["top", "classifier", "strategy", "meta_spec", "data", "test_data", "group"])
    def test_unknown_field_exit_2(self, workdir, capsys, message, edit):
        cfg = write_config(workdir)
        doc = json.loads(cfg.read_text())
        edit(doc)
        cfg.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert repr(str(cfg)) in err and message in err
        assert not (workdir / "model.json").exists()

    @pytest.mark.parametrize("message, edit", [
        ("classifier.lam must be > 0", lambda cfg: cfg["classifier"].update(lam=-1)),
        (
            "strategy.stacking_meta_spec.lam must be > 0",
            lambda cfg: cfg.update(strategy={
                "kind": "stacking", "stacking_mode": "naive",
                "stacking_meta_spec": {"kind": "logreg", "lam": -1},
            }),
        ),
        ("strategy.kind must be one of", lambda cfg: cfg["strategy"].update(kind="vote")),
    ], ids=["classifier", "meta_spec", "strategy"])
    def test_bad_field_value_names_its_path_exit_2(self, workdir, capsys, message, edit):
        cfg = write_config(workdir)
        doc = json.loads(cfg.read_text())
        edit(doc)
        cfg.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg)]) == 2
        # the path follows the file name once: no block is named twice
        assert f"{str(cfg)!r}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("verb, drop, setting", [
        ("train", "data", "data.labels"),
        ("train", "model", "model output path"),
        ("predict", "data", "data.groups"),
        ("predict", "out", "output path"),
        ("compare", "test_data", "test_data.labels"),
        ("ablate", "test_data", "test_data.labels"),
    ])
    def test_missing_setting_names_the_config_exit_2(self, workdir, capsys, verb, drop, setting):
        assert main(["train", "--config", str(write_config(workdir))]) == 0
        cfg = write_config(workdir, out=str(workdir / "p.csv"))
        doc = json.loads(cfg.read_text())
        del doc[drop]
        cfg.write_text(json.dumps(doc))
        argv = [verb, "--config", str(cfg)]
        if verb == "predict":
            argv += ["--model", str(workdir / "model.json")]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"config {str(cfg)!r}: missing required setting: {setting}" in err

    def test_unreadable_config_exit_2(self, workdir, capsys):
        missing = workdir / "nowhere.json"
        assert main(["train", "--config", str(missing)]) == 2
        assert f"cannot read config {str(missing)!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [[1, 2], "cfg", 5, None], ids=repr)
    def test_config_that_is_not_an_object_exit_2(self, workdir, capsys, doc):
        cfg = workdir / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"config {str(cfg)!r}: the top level must be a JSON object" in err

    def test_predict_out_exit_2(self, workdir, capsys):
        assert main(["train", "--config", str(write_config(workdir))]) == 0
        cfg = predict_config(workdir)
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "out": [1]}))
        capsys.readouterr()
        assert main(["predict", "--model", str(workdir / "model.json"), "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert repr(str(cfg)) in err and "out" in err


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

    def test_unwritable_out_dir_exit_1(self, tmp_path, capsys):
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps(SMALL_SPEC))
        out = tmp_path / "s.json" / "x"  # under a file, so no directory can be made
        assert main(["gen-data", "--spec", str(spec), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"cannot create directory {str(out / 'train')!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("verb", ["train", "gen-data"])
    def test_undecodable_config_exit_2(self, workdir, capsys, verb):
        if verb == "train":
            bad = write_config(workdir)
            argv = ["train", "--config", str(bad)]
        else:
            bad = workdir / "synth.json"
            argv = ["gen-data", "--spec", str(bad), "--out", str(workdir / "again")]
        bad.write_bytes(b'{"seed": "\xff\xfe"}')
        capsys.readouterr()
        assert main(argv) == 2
        assert str(bad) in capsys.readouterr().err

    def test_bad_spec_exit_2(self, tmp_path, capsys):
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps({"m": 1, "n_per_class": 5}))
        assert main(["gen-data", "--spec", str(spec), "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("path, message", [
        (("m",), "the spec is missing the required field 'm'"),
        (("test_per_class",), "the spec is missing the required field 'test_per_class'"),
        (("views", 1, "dim"), "views[1] is missing the required field 'dim'"),
    ])
    def test_missing_field_named_exit_2(self, tmp_path, capsys, path, message):
        raw = json.loads(json.dumps(SMALL_SPEC))
        node = raw
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps(raw))
        assert main(["gen-data", "--spec", str(spec), "--out", str(tmp_path / "x")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("spec, message", [
        ({**SMALL_SPEC, "separaton": 2.0}, "the spec has unknown fields ['separaton']"),
        (
            {**SMALL_SPEC, "views": [SMALL_SPEC["views"][0], {**SMALL_SPEC["views"][1], "scal": 5}]},
            "views[1] has unknown fields ['scal']",
        ),
        ({"benchmark": "default", "seed": 3, "m": 4}, "the spec has unknown fields ['m']"),
        ({"benchmark": "defualt", "seed": 3}, "benchmark must be 'default', got 'defualt'"),
    ], ids=["spec", "view", "benchmark", "benchmark-name"])
    def test_unknown_field_exit_2(self, tmp_path, capsys, spec, message):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(spec))
        assert main(["gen-data", "--spec", str(path), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert repr(str(path)) in err and message in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("view", ["sig", None, [1, 2]])
    def test_view_not_an_object_exit_2(self, tmp_path, capsys, view):
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps({**SMALL_SPEC, "views": [SMALL_SPEC["views"][0], view]}))
        assert main(["gen-data", "--spec", str(spec), "--out", str(tmp_path / "x")]) == 2
        assert "views[1] must be a JSON object" in capsys.readouterr().err

    def test_overflowing_features_exit_2(self, tmp_path, capsys):
        raw = json.loads(json.dumps(SMALL_SPEC))
        raw["views"][0]["scale"] = 1e308
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps(raw))
        assert main(["gen-data", "--spec", str(spec), "--out", str(tmp_path / "x")]) == 2
        assert "'sig'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("seed", ["abc", None, -1, 1.5, True])
    def test_bad_seed_exit_2(self, tmp_path, capsys, seed):
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps({**SMALL_SPEC, "seed": seed}))
        assert main(["gen-data", "--spec", str(spec), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert repr(str(spec)) in err and "seed" in err

    @pytest.mark.parametrize(
        "field,value",
        [
            ("views[0].dim", 2.5),
            ("views[0].dim", True),
            ("n_per_class", 10.7),
            ("train_per_class", 20.5),
            ("m", "3"),
            ("views[1].scale", float("inf")),
            ("separation", float("nan")),
        ],
    )
    def test_gen_data_number_exit_2(self, tmp_path, capsys, field, value):
        raw = json.loads(json.dumps(SMALL_SPEC))
        if field.startswith("views"):
            raw["views"][int(field[6])][field[9:]] = value
        else:
            raw[field] = value
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps(raw))  # writes inf and nan as Infinity and NaN
        out = tmp_path / "x"
        assert main(["gen-data", "--spec", str(spec), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert repr(str(spec)) in err and field in err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["../../escaped", "sub/escaped", "..", "", "labels", "a\0b", 7])
    def test_view_name_not_a_plain_file_name_exit_2(self, tmp_path, capsys, name):
        spec = tmp_path / "s.json"
        views = [{**SMALL_SPEC["views"][0], "name": name}, SMALL_SPEC["views"][1]]
        spec.write_text(json.dumps({**SMALL_SPEC, "views": views}))
        out = tmp_path / "o" / "x"
        assert main(["gen-data", "--spec", str(spec), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert repr(str(spec)) in err and "views[0].name" in err
        assert not (tmp_path / "o").exists() and not (tmp_path / "escaped.csv").exists()
