"""The README's examples run against the package as it is."""

import re
from pathlib import Path

import omexarchive as ox

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_library_example_runs(tmp_path, monkeypatch):
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)
    scope = {"sbml_bytes": b"<sbml/>", "sedml_bytes": b"<sedML/>"}
    exec(compile(code, str(README), "exec"), scope)
    assert [e.path for e in ox.master_entries(scope["reopened"].manifest)] == ["simulation.xml"]
    assert (tmp_path / "out" / "models" / "model.xml").read_bytes() == b"<sbml/>"
    assert scope["report"].errors == []
