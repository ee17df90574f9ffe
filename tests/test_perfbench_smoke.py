"""The benchmark's tiny-size smoke check passes against this checkout.

The traced benchmark wraps library functions by module attribute name
(perfbench/spans.py), so renaming or removing one of them breaks it; this
test catches that in the ordinary test run.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.slow
def test_benchmark_smoke_check_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "smoke.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


def test_every_traced_name_exists(monkeypatch):
    """Each module attribute the tracer would wrap exists, checked without
    installing the wrappers, so a renamed or deleted name fails in well under
    a second."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import spans

    plan = spans._patch_plan(spans.Tracer("names"))
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in plan if not hasattr(owner, attr)]
    assert plan and missing == []


def test_traced_calls_reach_every_counted_layer(monkeypatch):
    """Tiny traced train_ensemble, compare_strategies and ablate calls give
    each named per-layer metric a value above 0, so a rename that leaves a
    wrapper with nothing to count fails here, not as a silent 0 in the
    benchmark."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import spans
    from latefuse import classifiers, ensemble, evaluation, pipeline, synthdata

    views = (synthdata.ViewSpec("a", 3, 0.9), synthdata.ViewSpec("b", 2, 0.5))
    data = synthdata.generate(synthdata.SynthSpec(3, 12, views, seed=1))
    rows = np.arange(data.n)
    train, test = data.take(rows[rows % 3 > 0]), data.take(rows[rows % 3 == 0])
    specs = {
        "logreg": classifiers.ClassifierSpec("logreg"),
        "linear_svm_ovr": classifiers.ClassifierSpec("linear_svm_ovr", c_grid=(1.0,)),
        "adaboost_stumps": classifiers.ClassifierSpec("adaboost_stumps", rounds=3),
        "random_forest": classifiers.ClassifierSpec("random_forest", trees=2),
    }
    weighted = ensemble.EnsembleStrategy("confidence_sum", weighted=True)
    tracer = spans.Tracer("layers")
    with tracer.installed():
        for spec in specs.values():
            pipeline.train_ensemble(train, spec, weighted, 3, 0)
        evaluation.compare_strategies(train, test, specs["logreg"], 3, 0)
        evaluation.ablate(train, test, specs["logreg"], [weighted], None, 3, 0)
    metrics = spans.layer_metrics(tracer)
    names = [f"classifiers.fit_calls.{kind}" for kind in specs] + [
        "classifiers.stump_fits",
        "classifiers.svm_objective_calls",
        "crossval.priority_calls",
        "ensemble.fuse_calls",
        "evaluation.compare_s",
        "evaluation.ablate_s",
        "evaluation.evaluate_s",
        "classifiers.predict_proba_s",
    ]
    assert sorted(specs) == sorted(classifiers.KINDS)
    assert [name for name in names if not metrics[name][0] > 0] == []


def test_traced_predict_reaches_its_counted_layers(monkeypatch, tmp_path):
    """A tiny traced `latefuse predict` gives the bytes read and written and
    the predict_groups time values above 0, so a wrapper whose signature no
    longer matches the call it wraps fails here, not only in the smoke run."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import spans
    from latefuse import classifiers, cli, dataio, ensemble, pipeline, synthdata

    views = (synthdata.ViewSpec("a", 3, 0.9), synthdata.ViewSpec("b", 2, 0.5))
    data = synthdata.generate(synthdata.SynthSpec(3, 8, views, seed=1))
    weighted = ensemble.EnsembleStrategy("confidence_sum", weighted=True)
    e = pipeline.train_ensemble(data, classifiers.ClassifierSpec("logreg"), weighted, 2, 0)
    pipeline.save_ensemble(e, str(tmp_path / "model.json"))
    dataio.write_dataset(data, str(tmp_path / "data"))
    groups = [{"name": v.name, "path": str(tmp_path / "data" / f"{v.name}.csv")} for v in views]
    (tmp_path / "predict.json").write_text(json.dumps({"data": {"groups": groups}}))
    argv = ["predict", "--model", str(tmp_path / "model.json"),
            "--config", str(tmp_path / "predict.json"), "--out", str(tmp_path / "p.csv")]
    tracer = spans.Tracer("predict")
    with tracer.installed():
        assert cli.main(argv) == 0
    metrics = spans.layer_metrics(tracer)
    names = ["dataio.read_bytes", "dataio.write_bytes", "pipeline.predict_groups_s"]
    assert [name for name in names if not metrics[name][0] > 0] == []
