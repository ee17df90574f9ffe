"""Command-line interface.

Verbs: train, predict, evaluate, ablate, compare, gen-data. Runs are driven
by a JSON config file (see README for a complete example); ``--seed``
overrides the config seed of train, ablate and compare, and the spec seed of
gen-data. Exit codes: 0 success, 1 data error (the message
names the offending file, group, or row), 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional

from . import classifiers, dataio, ensemble, evaluation, pipeline, synthdata
from .core import MultiViewDataset, SplitSpec, integer, json_object, stratified_split
from .errors import BadSpec, ConfigError, CorruptModel, InvalidProbabilities, LateFuseError, UnknownGroupName


Block = tuple[Optional[str], list[tuple[str, str]]]  # labels path, (name, path) groups


@dataclass
class RunConfig:
    """The run config read from the file ``path``; an absent data block is
    (None, [])."""

    path: str
    spec: classifiers.ClassifierSpec
    strategy: ensemble.EnsembleStrategy
    k: int
    seed: int
    data: Block
    test_data: Block
    model_path: Optional[str]
    out_path: Optional[str]
    subsets: Optional[list[list[str]]]

    def require(self, value, name: str):
        """``value``; ConfigError naming the file and the setting when it is empty."""
        if not value:
            raise ConfigError(f"config {self.path!r}: missing required setting: {name}")
        return value

    def dataset(self, block: str) -> MultiViewDataset:
        """The dataset of the block ``block``, ``data`` or ``test_data``."""
        labels, groups = getattr(self, block)
        return dataio.load_dataset(
            self.require(labels, f"{block}.labels"), self.require(groups, f"{block}.groups")
        )


# Field readers for the config and the gen-data spec. Each raises BadSpec
# naming the field's path; load_config and cmd_gendata add the file.


def _string(block: dict, key: str, field: str) -> Optional[str]:
    """``block[key]``, a non-empty string, or None when the key is absent."""
    if key not in block:
        return None
    value = block[key]
    if not isinstance(value, str) or not value:
        raise BadSpec(f"{field} must be a non-empty string, got {value!r}")
    return value


def _data_block(block, field: str) -> Block:
    block = json_object(block, field, (), ("labels", "groups"))
    groups = block.get("groups")
    if not isinstance(groups, list) or not groups:
        raise BadSpec(f"{field}.groups must be a non-empty list")
    group_paths = []
    for i, g in enumerate(groups):
        item = f"{field}.groups[{i}]"
        json_object(g, item, ("name", "path"), ())
        name = _string(g, "name", f"{item}.name")
        if name in dict(group_paths):
            raise BadSpec(f"{item}.name {name!r} is listed twice")
        group_paths.append((name, _string(g, "path", f"{item}.path")))
    return _string(block, "labels", f"{field}.labels"), group_paths


def _read_json(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path!r}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # covers JSON and UTF-8 decode errors
        raise ConfigError(f"{what} {path!r} is not valid JSON: {exc}") from exc


def load_config(path: str, seed_override: Optional[int] = None) -> RunConfig:
    raw = _read_json(path, "config")
    try:
        json_object(raw, "the top level", (), (
            "classifier", "strategy", "k", "seed", "data", "test_data", "model", "out", "subsets"
        ))
        spec = classifiers.ClassifierSpec.from_dict(raw.get("classifier", {"kind": "logreg"}))
        strategy = ensemble.EnsembleStrategy.from_dict(
            raw.get("strategy", {"kind": "confidence_sum", "weighted": True})
        )
        k = integer(raw.get("k", 5), "k", 2)
        seed = integer(raw.get("seed", 0) if seed_override is None else seed_override, "seed", 0)
        data = _data_block(raw["data"], "data") if "data" in raw else (None, [])
        test_data = _data_block(raw["test_data"], "test_data") if "test_data" in raw else (None, [])
        subsets = raw.get("subsets")
        if subsets is not None and not (isinstance(subsets, list) and all(
            isinstance(s, list) and all(isinstance(g, str) for g in s) for s in subsets
        )):
            raise BadSpec("subsets must be a list of name lists")
        model, out = _string(raw, "model", "model"), _string(raw, "out", "out")
    except BadSpec as exc:
        raise ConfigError(f"config {path!r}: {exc}") from exc
    return RunConfig(path, spec, strategy, k, seed, data, test_data, model, out, subsets)


def cmd_train(args) -> int:
    cfg = load_config(args.config, args.seed)
    model_path = cfg.require(
        args.model or cfg.model_path, "model output path (--model or config 'model')"
    )
    train = cfg.dataset("data")
    e = pipeline.train_ensemble(train, cfg.spec, cfg.strategy, cfg.k, cfg.seed)
    pipeline.save_ensemble(e, model_path)
    print(f"trained on {train.n} samples, {len(train.groups)} groups, "
          f"{train.label_space.m} classes (k={cfg.k}, seed={cfg.seed})")
    for gm in e.per_group:
        print(f"group {gm.name} priority {gm.priority:.4f}")
    print(f"model written to {model_path}")
    return 0


def cmd_predict(args) -> int:
    cfg = load_config(args.config)
    group_paths = cfg.require(cfg.data[1], "data.groups")
    out_path = cfg.require(args.out or cfg.out_path, "output path (--out or config 'out')")
    e = pipeline.load_ensemble(args.model)
    groups, ids = dataio.load_groups(group_paths)
    try:
        preds = pipeline.predict_groups(e, groups, ids)
    except InvalidProbabilities as exc:
        raise CorruptModel(f"model file {args.model!r} gives invalid probabilities: {exc}") from exc
    dataio.write_predictions(preds, e.label_space.class_names, out_path)
    print(f"wrote {len(preds)} predictions to {out_path}")
    return 0


def cmd_evaluate(args) -> int:
    pred_by_id = dataio.read_predictions(args.predictions)
    label_by_id = dataio.read_labels(args.labels)
    ids = sorted(label_by_id)
    predicted = dataio.join_ids(
        pred_by_id, ids, f"predictions file {args.predictions!r}", "without labels"
    )
    space = dataio.label_space_of(args.labels, [*label_by_id.values(), *predicted])
    truth = [space.index(label_by_id[i]) for i in ids]
    decided = [space.index(name) for name in predicted]
    report = evaluation.evaluate(decided, truth, m=space.m)
    for line in report.lines(space.class_names):
        print(line)
    return 0


def cmd_ablate(args) -> int:
    cfg = load_config(args.config, args.seed)
    train, test = cfg.dataset("data"), cfg.dataset("test_data")
    try:
        report = evaluation.ablate(train, test, cfg.spec, [cfg.strategy], cfg.subsets, cfg.k, cfg.seed)
    except UnknownGroupName as exc:  # only the subset plan raises it
        raise UnknownGroupName(f"config {cfg.path!r}: subsets: {exc}") from exc
    for line in evaluation.format_rows(report.entries, ["groups", "strategy", "accuracy"]):
        print(line)
    return 0


def cmd_compare(args) -> int:
    cfg = load_config(args.config, args.seed)
    train, test = cfg.dataset("data"), cfg.dataset("test_data")
    if args.classifiers:
        rows = evaluation.compare_classifiers(train, test, cfg.strategy, cfg.k, cfg.seed)
        header = ["classifier", "accuracy"]
    else:
        rows = evaluation.compare_strategies(train, test, cfg.spec, cfg.k, cfg.seed)
        header = ["strategy", "accuracy"]
    for line in evaluation.format_rows(rows, header):
        print(line)
    return 0


SYNTH_REQUIRED = ("m", "n_per_class", "train_per_class", "test_per_class")
SYNTH_OPTIONAL = ("views", "separation", "seed")


def _synth_datasets(raw, seed_override) -> tuple[MultiViewDataset, MultiViewDataset]:
    """The train and test sets of the gen-data spec ``raw``. The specs check
    their own fields; an error names the field's path in the spec."""
    json_object(raw, "the spec", (), ("benchmark", *SYNTH_REQUIRED, *SYNTH_OPTIONAL))
    seed = raw.get("seed", 0) if seed_override is None else seed_override
    if "benchmark" in raw:
        json_object(raw, "the spec", (), ("benchmark", "seed"))
        if raw["benchmark"] != "default":
            raise BadSpec(f"benchmark must be 'default', got {raw['benchmark']!r}")
        return synthdata.default_benchmark(seed)
    json_object(raw, "the spec", SYNTH_REQUIRED, SYNTH_OPTIONAL)
    views = raw.get("views")
    if not isinstance(views, list) or not views:
        raise BadSpec("views must be a non-empty list")
    view_specs = []
    for i, v in enumerate(views):
        json_object(v, f"views[{i}]", ("name", "dim", "informativeness"), ("scale",))
        if not dataio.is_file_name(v["name"]):
            raise BadSpec(
                f"views[{i}].name must be a plain file name other than 'labels', got {v['name']!r}"
            )
        try:
            view_specs.append(
                synthdata.ViewSpec(v["name"], v["dim"], v["informativeness"], v.get("scale", 1.0))
            )
        except BadSpec as exc:
            raise BadSpec(f"views[{i}].{exc}") from exc
    spec = synthdata.SynthSpec(
        raw["m"],
        raw["n_per_class"],
        tuple(view_specs),
        raw.get("separation", synthdata.DEFAULT_SEPARATION),
        seed,
    )
    split = SplitSpec(raw["train_per_class"], raw["test_per_class"], seed)
    return stratified_split(synthdata.generate(spec), split)


def cmd_gendata(args) -> int:
    raw = _read_json(args.spec, "spec")
    try:
        train, test = _synth_datasets(raw, args.seed)
    except BadSpec as exc:
        raise ConfigError(f"spec {args.spec!r}: {exc}") from exc
    dataio.write_dataset(train, os.path.join(args.out, "train"))
    dataio.write_dataset(test, os.path.join(args.out, "test"))
    print(
        f"wrote {train.n} train and {test.n} test samples "
        f"({len(train.groups)} groups, {train.label_space.m} classes) to {args.out}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latefuse",
        description="Late-fusion multi-view classification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train an ensemble and write the model file")
    p.add_argument("--config", required=True)
    p.add_argument("--model", help="model output path (overrides config)")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("predict", help="predict with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--config", required=True, help="config whose data.groups point at the features")
    p.add_argument("--out", help="predictions output path")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("evaluate", help="score a predictions file against labels")
    p.add_argument("--predictions", required=True)
    p.add_argument("--labels", required=True)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("ablate", help="accuracy across nested group subsets")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("compare", help="compare ensemble strategies (or classifiers)")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--classifiers", action="store_true",
                   help="compare classifier kinds instead of strategies")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("gen-data", help="generate a synthetic benchmark dataset")
    p.add_argument("--spec", required=True, help="synthetic data spec (JSON)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="override the spec seed")
    p.set_defaults(fn=cmd_gendata)
    return parser


def _utf8_output() -> None:
    """Make standard output and error UTF-8, as the CLI's files are, whatever
    the locale; each keeps its error handler. A stream without
    ``reconfigure``, such as an ``io.StringIO``, takes text as it is."""
    for stream in (sys.stdout, sys.stderr):
        reconfigure = getattr(stream, "reconfigure", None)
        if reconfigure is not None:
            reconfigure(encoding="utf-8", errors=stream.errors)


def main(argv=None) -> int:
    _utf8_output()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LateFuseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
