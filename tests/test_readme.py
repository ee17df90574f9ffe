"""The README's "Library use" example runs as written, so a public name it
uses cannot be removed or renamed without failing the suite; its "Errors"
table lists exactly the exception classes, each with its exit code; and the
model format it states is the one that is written and read."""

import inspect
import pathlib
import re

from latefuse import errors
from latefuse.pipeline import MODEL_FORMAT_VERSION, load_ensemble

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    section = README.read_text().split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


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
