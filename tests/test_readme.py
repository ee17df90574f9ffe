"""The README's "Library use" example runs as written, so a public name it
uses cannot be removed or renamed without failing the suite; so do its
config and gen-data spec examples, so a field they use cannot be renamed or
dropped either. Its "Errors" table lists exactly the exception classes, each
with its exit code; the model format it states is the one that is written
and read; and its model-file paragraph names every key of every kind's
state. Every name in ``latefuse.__all__`` appears in it."""

import inspect
import pathlib
import re

import numpy as np

import latefuse
from latefuse import errors
from latefuse.classifiers import KINDS, ClassifierSpec, train
from latefuse.core import LabelSpace
from latefuse.cli import load_config, main
from latefuse.pipeline import MODEL_FORMAT_VERSION, load_ensemble

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    section = README.read_text().split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def json_examples(heading: str) -> list[str]:
    """The JSON blocks of the README section ``heading``."""
    section = README.read_text().split(f"\n{heading}\n", 1)[1].split("\n#", 1)[0]
    return re.findall(r"```json\n(.*?)```", section, re.DOTALL)


def test_config_file_example_is_read(tmp_path):
    (example,) = json_examples("### Config file")
    path = tmp_path / "config.json"
    path.write_text(example)
    cfg = load_config(str(path))
    assert (cfg.spec.kind, cfg.strategy.label, cfg.k, cfg.seed) == (
        "logreg", "confidence_sum_weighted", 5, 11
    )
    assert [name for name, _ in cfg.data[1]] == ["informative_a", "informative_b", "weak", "noise"]
    assert cfg.test_data[0] == "data/test/labels.csv" and cfg.model_path == "model.json"
    assert cfg.subsets == [["informative_a"], ["informative_a", "informative_b"]]


def test_synthetic_data_spec_examples_generate(tmp_path, capsys):
    examples = json_examples("### Synthetic data spec")
    assert len(examples) == 2
    for i, example in enumerate(examples):
        spec, out = tmp_path / f"spec{i}.json", tmp_path / f"data{i}"
        spec.write_text(example)
        assert main(["gen-data", "--spec", str(spec), "--out", str(out)]) == 0
        assert (out / "train" / "labels.csv").exists() and (out / "test" / "labels.csv").exists()
    assert sorted(p.name for p in (tmp_path / "data1" / "test").iterdir()) == [
        "labels.csv", "noise.csv", "sig.csv"
    ]


def test_library_use_example_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(library_example(), str(README), "exec"), {})
    priorities, accuracy = capsys.readouterr().out.splitlines()
    assert priorities.startswith("{'informative_a': ")
    assert 0.0 <= float(accuracy) <= 1.0
    assert load_ensemble(str(tmp_path / "model.json")).group_names[0] == "informative_a"


def test_errors_table_lists_every_class_with_its_exit_code():
    section = README.read_text().split("\n## Errors\n", 1)[1]
    rows = re.findall(r"^\| `(\w+)` \| .+ \| (\d) \|$", section, re.MULTILINE)
    classes = [
        cls for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.LateFuseError)
    ]
    assert sorted(name for name, _ in rows) == sorted(cls.__name__ for cls in classes)
    exit_codes = dict(rows)
    for cls in classes:
        assert exit_codes[cls.__name__] == ("2" if issubclass(cls, errors.ConfigError) else "1")


def test_stated_model_format_is_the_one_read():
    text = README.read_text()
    stated = re.findall(r"written and read in format version (\d+) only", text)
    stated += re.findall(r"format version other than (\d+) \|", text)
    assert stated == [str(MODEL_FORMAT_VERSION)] * 2


def test_model_file_paragraph_names_every_state_key():
    paragraph = README.read_text().split("\nModel files are ", 1)[1].split("\n\n", 1)[0]
    X = np.random.default_rng(0).standard_normal((12, 2))
    y = np.arange(12) % 3
    for kind in KINDS:
        spec = ClassifierSpec(kind, c_grid=(1.0,), rounds=2, trees=2)
        state = train(spec, X, y, LabelSpace(("a", "b", "c"))).state()
        assert state and all(f"`{key}`" in paragraph for key in state), (kind, list(state))


def test_every_public_name_is_documented():
    text = README.read_text()
    missing = [
        name for name in latefuse.__all__
        if not re.search(rf"(`|\blf\.){re.escape(name)}\b", text)
    ]
    assert missing == []
