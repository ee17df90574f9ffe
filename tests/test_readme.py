"""The README's "Library use" example runs as written, so a public name it
uses cannot be removed or renamed without failing the suite."""

import pathlib
import re

from latefuse.pipeline import load_ensemble

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
