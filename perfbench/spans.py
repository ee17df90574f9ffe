"""Span tracer for the traced benchmark run.

The tracer wraps, for the traced run only, the module attributes through
which latefuse reaches each module's public functions. Every wrapped call
records a span (name, start, end, parent span, run id); a few hot leaf
functions (the per-row probability check, the per-row fusion and the SVM
objective) only add to counters and to their parent's covered time, because
a span object per call would cost more than the call itself.

The program is not edited: the wrappers are installed with ``setattr`` and
removed again when the traced block ends.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    """Spans and counters of one traced workload run, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []  # (id, parent, name, tag, start, end, leaf_s)
        self.counts: dict[str, int] = defaultdict(int)
        self.leaf_s: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span id, leaf seconds under it]
        self._next_id = 0
        self.active = False

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, tag: str = ""):
        if not self.active:
            yield
            return
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        entry = [sid, 0.0]
        self._stack.append(entry)
        start = _clock()
        try:
            yield
        finally:
            end = _clock()
            self._stack.pop()
            self.spans.append((sid, parent, name, tag, start, end, entry[1]))

    def count(self, name: str, n: int = 1) -> None:
        if self.active:
            self.counts[name] += n

    def leaf(self, name: str, seconds: float) -> None:
        """Account a hot call without a span: count, time, parent coverage."""
        self.counts[name] += 1
        self.leaf_s[name] += seconds
        if self._stack:
            self._stack[-1][1] += seconds

    @contextlib.contextmanager
    def paused(self):
        """Run program code (the benchmark's own checks) untraced."""
        was = self.active
        self.active = False
        try:
            yield
        finally:
            self.active = was

    # -- wrapping ----------------------------------------------------------

    def _spanned(self, fn, name, tag_fn=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tag = tag_fn(*args, **kwargs) if tag_fn else ""
            with tracer.span(name, tag):
                out = fn(*args, **kwargs)
            if after:
                after(out, *args, **kwargs)
            return out

        return wrapper

    def _leafed(self, fn, name, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            start = _clock()
            out = fn(*args, **kwargs)
            tracer.leaf(name, _clock() - start)
            if after:
                after(out, *args, **kwargs)
            return out

        return wrapper

    def _counted(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap the program's module attributes for the duration of the block."""
        patches = _patch_plan(self)
        originals = []
        try:
            for owner, attr, make in patches:
                original = getattr(owner, attr)
                originals.append((owner, attr, original))
                setattr(owner, attr, make(original))
            self.active = True
            yield self
        finally:
            self.active = False
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _patch_plan(t: Tracer):
    """(owner, attribute, wrapper factory) for every traced boundary."""
    from latefuse import (
        classifiers,
        cli,
        core,
        crossval,
        dataio,
        ensemble,
        evaluation,
        pipeline,
        synthdata,
    )
    from latefuse.classifiers import adaboost, base, svm

    def rows(out, *_a, **_k):
        t.count("classifiers.proba_rows", out.shape[0] if out.ndim == 2 else 1)

    def svm_history(out, *_a, **_k):
        t.count("classifiers.svm_accepted_epochs", len(out[2]) - 1)

    def read_size(_out, path, *_a, **_k):
        t.count("dataio.read_bytes", _file_size(path))

    def dataset_size(_out, d, out_dir, *_a, **_k):
        names = ["labels"] + [g.name for g in d.groups]
        t.count(
            "dataio.write_bytes",
            sum(_file_size(os.path.join(out_dir, f"{n}.csv")) for n in names),
        )

    def predictions_size(_out, _preds, _names, path, *_a, **_k):
        t.count("dataio.write_bytes", _file_size(path))

    def model_size(_out, _e, path, *_a, **_k):
        t.count("pipeline.model_bytes", _file_size(path))

    def ensemble_groups(train, *_a, **_k):
        return str(len(train.groups))

    def span(name, tag_fn=None, after=None):
        return lambda fn: t._spanned(fn, name, tag_fn, after)

    def leaf(name, after=None):
        return lambda fn: t._leafed(fn, name, after)

    kind_of = lambda spec, *_a, **_k: spec.kind  # noqa: E731
    plan = [
        (core, "standardize_fit", span("core.standardize")),
        (core, "standardize_apply", span("core.standardize")),
        (pipeline, "standardize_fit", span("core.standardize")),
        (pipeline, "standardize_apply", span("core.standardize")),
        (evaluation, "standardize_fit", span("core.standardize")),
        (evaluation, "standardize_apply", span("core.standardize")),
        (synthdata, "generate", span("synthdata.generate")),
        (dataio, "load_dataset", span("dataio.read")),
        (dataio, "load_groups", span("dataio.read")),
        (dataio, "read_feature_file", span("dataio.read_file", after=read_size)),
        (dataio, "read_labels", span("dataio.read_file", after=read_size)),
        (dataio, "write_dataset", span("dataio.write", after=dataset_size)),
        (dataio, "write_predictions", span("dataio.write", after=predictions_size)),
        (classifiers, "train", span("classifiers.train", tag_fn=kind_of)),
        (base.FittedClassifier, "predict_proba", span("classifiers.predict_proba", after=rows)),
        (base, "probability_vector", leaf("classifiers.proba_check")),
        (svm, "train_binary_svm", span("classifiers.train_binary_svm", after=svm_history)),
        (svm, "svm_objective", lambda fn: t._counted(fn, "classifiers.svm_objective_calls")),
        (adaboost, "train_stump", span("classifiers.train_stump")),
        (crossval, "group_priority", span("crossval.group_priority")),
        (ensemble, "confidence_sum", leaf("ensemble.fuse")),
        (ensemble, "rank_sum", leaf("ensemble.fuse")),
        (ensemble, "train_stacking", span("ensemble.train_stacking")),
        (pipeline, "train_ensemble", span("pipeline.train_ensemble", tag_fn=ensemble_groups)),
        (pipeline, "predict_groups", span("pipeline.predict_groups")),
        (pipeline, "load_ensemble", span("pipeline.load_ensemble")),
        (pipeline, "save_ensemble", span("pipeline.save_ensemble", after=model_size)),
        (evaluation, "compare_strategies", span("evaluation.compare")),
        (evaluation, "ablate", span("evaluation.ablate")),
        (evaluation, "evaluate", span("evaluation.evaluate")),
        (cli, "main", span("cli.main")),
    ]
    return plan


# -- turning spans into per-layer metrics ----------------------------------

KINDS = ("logreg", "linear_svm_ovr", "adaboost_stumps", "random_forest")


def layer_metrics(t: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer busy time and work counts from one traced run."""
    by_id = {s[0]: s for s in t.spans}
    children_s: dict[int, float] = defaultdict(float)
    for sid, parent, _n, _t, start, end, _l in t.spans:
        if parent is not None:
            children_s[parent] += end - start

    def dur(s):
        return s[5] - s[4]

    def outermost(names, tag=None):
        """Total time in spans named ``names`` not nested in another of them."""
        total = 0.0
        for s in t.spans:
            if s[2] not in names or (tag is not None and s[3] != tag):
                continue
            p = s[1]
            nested = False
            while p is not None:
                if by_id[p][2] in names:
                    nested = True
                    break
                p = by_id[p][1]
            if not nested:
                total += dur(s)
        return total

    def self_s(name):
        return sum(
            (dur(s) - children_s[s[0]] - s[6] for s in t.spans if s[2] == name), 0.0
        )

    def n_spans(name, tag=None):
        return sum(1 for s in t.spans if s[2] == name and (tag is None or s[3] == tag))

    # classifier fits per group inside each train_ensemble (meta fits excluded)
    fits, groups = 0, 0
    for s in t.spans:
        if s[2] == "pipeline.train_ensemble":
            groups += int(s[3])
    for s in t.spans:
        if s[2] != "classifiers.train":
            continue
        p = s[1]
        while p is not None and by_id[p][2] not in (
            "pipeline.train_ensemble",
            "ensemble.train_stacking",
        ):
            p = by_id[p][1]
        if p is not None and by_id[p][2] == "pipeline.train_ensemble":
            fits += 1

    c = t.counts
    objective_calls = c["classifiers.svm_objective_calls"]
    accepted = c["classifiers.svm_accepted_epochs"]
    m: dict[str, tuple[float, str]] = {
        "core.standardize_s": (outermost({"core.standardize"}), "s"),
        "synthdata.generate_s": (outermost({"synthdata.generate"}), "s"),
        "dataio.read_s": (outermost({"dataio.read", "dataio.read_file"}), "s"),
        "dataio.read_bytes": (c["dataio.read_bytes"], "bytes"),
        "dataio.write_s": (outermost({"dataio.write"}), "s"),
        "dataio.write_bytes": (c["dataio.write_bytes"], "bytes"),
    }
    for kind in KINDS:
        m[f"classifiers.fit_calls.{kind}"] = (n_spans("classifiers.train", kind), "count")
        m[f"classifiers.fit_s.{kind}"] = (outermost({"classifiers.train"}, kind), "s")
    m.update(
        {
            "classifiers.svm_objective_calls": (objective_calls, "count"),
            "classifiers.svm_accepted_epochs": (accepted, "count"),
            "classifiers.svm_step_accept_ratio": (
                accepted / objective_calls if objective_calls else 0.0,
                "ratio",
            ),
            "classifiers.stump_fits": (n_spans("classifiers.train_stump"), "count"),
            "classifiers.stump_fit_s": (outermost({"classifiers.train_stump"}), "s"),
            "classifiers.predict_proba_s": (outermost({"classifiers.predict_proba"}), "s"),
            "classifiers.proba_rows": (c["classifiers.proba_rows"], "count"),
            "classifiers.proba_row_checks": (c["classifiers.proba_check"], "count"),
            "classifiers.proba_check_s": (t.leaf_s["classifiers.proba_check"], "s"),
            "crossval.priority_calls": (n_spans("crossval.group_priority"), "count"),
            "crossval.priority_s": (outermost({"crossval.group_priority"}), "s"),
            "ensemble.fuse_calls": (c["ensemble.fuse"], "count"),
            "ensemble.fuse_s": (t.leaf_s["ensemble.fuse"], "s"),
            "ensemble.stacking_fit_s": (outermost({"ensemble.train_stacking"}), "s"),
            "pipeline.fits_per_group": (fits / groups if groups else 0.0, "count"),
            "pipeline.predict_groups_s": (outermost({"pipeline.predict_groups"}), "s"),
            "pipeline.predict_groups_self_s": (self_s("pipeline.predict_groups"), "s"),
            "pipeline.load_ensemble_s": (outermost({"pipeline.load_ensemble"}), "s"),
            "pipeline.save_ensemble_s": (outermost({"pipeline.save_ensemble"}), "s"),
            "pipeline.model_bytes": (c["pipeline.model_bytes"], "bytes"),
            "evaluation.compare_s": (outermost({"evaluation.compare"}), "s"),
            "evaluation.ablate_s": (outermost({"evaluation.ablate"}), "s"),
            "evaluation.concat_s": (outermost({"evaluation.concat"}), "s"),
            "evaluation.evaluate_s": (outermost({"evaluation.evaluate"}), "s"),
            "cli.self_s": (self_s("cli.main"), "s"),
        }
    )
    return m


def span_records(t: Tracer) -> list[dict]:
    return [
        {
            "id": sid,
            "parent": parent,
            "run": t.run_id,
            "name": name,
            "tag": tag,
            "start": start,
            "end": end,
        }
        for sid, parent, name, tag, start, end, _leaf in t.spans
    ]
