"""The README's code and module table agree with the package."""

import contextlib
import importlib
import io
import re
from pathlib import Path

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _section(title):
    start = README.index(f"## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end if end >= 0 else None]


def test_the_quickstart_runs():
    block = re.search(r"```python\n(.*?)```", _section("Quickstart"), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block.group(1), "README Quickstart", "exec"), {})
    assert len(out.getvalue().splitlines()) == 2


def test_the_module_table_names_only_what_each_module_has():
    rows = re.findall(r"^\| `(chi2chaos\.\w+)` \| (.*) \|$",
                      _section("Modules"), re.M)
    assert len(rows) == 6
    checked = 0
    for module_name, contents in rows:
        module = importlib.import_module(module_name)
        names = [token for token in re.findall(r"`([^`]+)`", contents)
                 if token.isidentifier()]
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, f"{module_name} has no {missing}"
        checked += len(names)
    assert checked >= 30
