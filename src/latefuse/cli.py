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
from dataclasses import dataclass, field
from typing import Optional

from . import classifiers, dataio, ensemble, evaluation, pipeline, synthdata
from .core import SplitSpec, integer, stratified_split
from .errors import BadSpec, ConfigError, CorruptModel, InvalidProbabilities, LateFuseError


@dataclass
class RunConfig:
    spec: classifiers.ClassifierSpec
    strategy: ensemble.EnsembleStrategy
    k: int
    seed: int
    labels_path: Optional[str]
    group_paths: list[tuple[str, str]]
    test_labels_path: Optional[str] = None
    test_group_paths: list[tuple[str, str]] = field(default_factory=list)
    model_path: Optional[str] = None
    out_path: Optional[str] = None
    subsets: Optional[list[list[str]]] = None


# Field readers for the config and the gen-data spec. ``where`` names the
# file ("config 'run.json'"); every error names it and the field.


def _object(value, where: str, field: str, required=(), optional=None) -> dict:
    """``value``, a JSON object holding every ``required`` key. With
    ``optional`` given, any other key outside it is an error too; without
    it, the block's own reader checks its keys."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: {field} must be a JSON object, got {value!r}")
    unknown = [] if optional is None else sorted(set(value) - {*required, *optional})
    if unknown:
        raise ConfigError(f"{where}: {field} has unknown fields {unknown}")
    for key in required:
        if key not in value:
            raise ConfigError(f"{where}: {field} is missing the required field {key!r}")
    return value


def _string(block: dict, key: str, where: str, field: str) -> Optional[str]:
    """``block[key]``, a non-empty string, or None when the key is absent."""
    if key not in block:
        return None
    value = block[key]
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{where}: {field} must be a non-empty string, got {value!r}")
    return value


def _data_block(block, where: str, field: str) -> tuple[Optional[str], list[tuple[str, str]]]:
    block = _object(block, where, field, optional=("labels", "groups"))
    groups = block.get("groups")
    if not isinstance(groups, list) or not groups:
        raise ConfigError(f"{where}: {field}.groups must be a non-empty list")
    group_paths = []
    for i, g in enumerate(groups):
        item = f"{field}.groups[{i}]"
        _object(g, where, item, ("name", "path"), ())
        name = _string(g, "name", where, f"{item}.name")
        if name in dict(group_paths):
            raise ConfigError(f"{where}: {item}.name {name!r} is listed twice")
        group_paths.append((name, _string(g, "path", where, f"{item}.path")))
    return _string(block, "labels", where, f"{field}.labels"), group_paths


def _read_json_object(path: str, what: str) -> dict:
    try:
        with open(path, "r") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path!r}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # covers JSON and UTF-8 decode errors
        raise ConfigError(f"{what} {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} {path!r} must be a JSON object")
    return raw


def load_config(path: str, seed_override: Optional[int] = None) -> RunConfig:
    raw = _read_json_object(path, "config")
    where = f"config {path!r}"
    _object(raw, where, "the top level", optional=(
        "classifier", "strategy", "k", "seed", "data", "test_data", "model", "out", "subsets"
    ))
    try:
        spec = classifiers.ClassifierSpec.from_dict(
            _object(raw.get("classifier", {"kind": "logreg"}), where, "classifier")
        )
        strategy = ensemble.EnsembleStrategy.from_dict(
            _object(
                raw.get("strategy", {"kind": "confidence_sum", "weighted": True}),
                where,
                "strategy",
            )
        )
        k = integer(raw.get("k", 5), "k", 2)
        seed = integer(raw.get("seed", 0) if seed_override is None else seed_override, "seed", 0)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    labels_path, group_paths = (None, [])
    if "data" in raw:
        labels_path, group_paths = _data_block(raw["data"], where, "data")
    test_labels, test_groups = (None, [])
    if "test_data" in raw:
        test_labels, test_groups = _data_block(raw["test_data"], where, "test_data")
    subsets = raw.get("subsets")
    if subsets is not None:
        if not isinstance(subsets, list) or not all(
            isinstance(s, list) and all(isinstance(g, str) for g in s) for s in subsets
        ):
            raise ConfigError(f"{where}: subsets must be a list of name lists")
    return RunConfig(
        spec=spec,
        strategy=strategy,
        k=k,
        seed=seed,
        labels_path=labels_path,
        group_paths=group_paths,
        test_labels_path=test_labels,
        test_group_paths=test_groups,
        model_path=_string(raw, "model", where, "model"),
        out_path=_string(raw, "out", where, "out"),
        subsets=subsets,
    )


def _require(value, name: str):
    if not value:
        raise ConfigError(f"missing required setting: {name}")
    return value


def _load_dataset(labels_path, group_paths, field: str):
    """The dataset of the config block ``field`` (``data`` or ``test_data``)."""
    labels = _require(labels_path, f"{field}.labels")
    return dataio.load_dataset(labels, _require(group_paths, f"{field}.groups"))


def cmd_train(args) -> int:
    cfg = load_config(args.config, args.seed)
    model_path = args.model or cfg.model_path
    _require(model_path, "model output path (--model or config 'model')")
    train = _load_dataset(cfg.labels_path, cfg.group_paths, "data")
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
    _require(cfg.group_paths, "data.groups")
    out_path = args.out or cfg.out_path
    _require(out_path, "output path (--out or config 'out')")
    e = pipeline.load_ensemble(args.model)
    groups, ids = dataio.load_groups(cfg.group_paths)
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
    train = _load_dataset(cfg.labels_path, cfg.group_paths, "data")
    test = _load_dataset(cfg.test_labels_path, cfg.test_group_paths, "test_data")
    report = evaluation.ablate(
        train, test, cfg.spec, [cfg.strategy], cfg.subsets, cfg.k, cfg.seed
    )
    for line in evaluation.format_rows(report.entries, ["groups", "strategy", "accuracy"]):
        print(line)
    return 0


def cmd_compare(args) -> int:
    cfg = load_config(args.config, args.seed)
    train = _load_dataset(cfg.labels_path, cfg.group_paths, "data")
    test = _load_dataset(cfg.test_labels_path, cfg.test_group_paths, "test_data")
    if args.classifiers:
        rows = evaluation.compare_classifiers(train, test, cfg.strategy, cfg.k, cfg.seed)
        header = ["classifier", "accuracy"]
    else:
        rows = evaluation.compare_strategies(train, test, cfg.spec, cfg.k, cfg.seed)
        header = ["strategy", "accuracy"]
    for line in evaluation.format_rows(rows, header):
        print(line)
    return 0


def _synth_spec_from_json(
    raw: dict, where: str, seed
) -> tuple[synthdata.SynthSpec, SplitSpec]:
    """Build the specs, which check their own fields; an error names the
    field's path in the spec file."""
    _object(
        raw,
        where,
        "the spec",
        ("m", "n_per_class", "train_per_class", "test_per_class"),
        ("views", "separation", "seed"),
    )
    views = raw.get("views")
    if not isinstance(views, list) or not views:
        raise ConfigError(f"{where}: views must be a non-empty list")
    view_specs = []
    for i, v in enumerate(views):
        _object(v, where, f"views[{i}]", ("name", "dim", "informativeness"), ("scale",))
        name = v["name"]
        if not dataio.is_file_name(name):
            raise ConfigError(
                f"{where}: views[{i}].name must be a plain file name other than 'labels', got {name!r}"
            )
        try:
            view_specs.append(
                synthdata.ViewSpec(name, v["dim"], v["informativeness"], v.get("scale", 1.0))
            )
        except BadSpec as exc:
            raise ConfigError(f"{where}: views[{i}].{exc}") from exc
    spec = synthdata.SynthSpec(
        raw["m"],
        raw["n_per_class"],
        tuple(view_specs),
        raw.get("separation", synthdata.DEFAULT_SEPARATION),
        seed,
    )
    return spec, SplitSpec(raw["train_per_class"], raw["test_per_class"], seed)


def cmd_gendata(args) -> int:
    raw = _read_json_object(args.spec, "spec")
    where = f"spec {args.spec!r}"
    seed = raw.get("seed", 0) if args.seed is None else args.seed
    try:
        if "benchmark" in raw:
            _object(raw, where, "the spec", optional=("benchmark", "seed"))
            if raw["benchmark"] != "default":
                raise ConfigError(f"{where}: benchmark must be 'default', got {raw['benchmark']!r}")
            train, test = synthdata.default_benchmark(seed)
        else:
            spec, split = _synth_spec_from_json(raw, where, seed)
            train, test = stratified_split(synthdata.generate(spec), split)
    except BadSpec as exc:
        raise ConfigError(f"{where}: {exc}") from exc
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


def main(argv=None) -> int:
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
