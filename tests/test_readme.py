"""The README's Library example runs and prints what its comments say."""

from __future__ import annotations

import re
from dataclasses import replace
from pathlib import Path

from essencekit import load_project

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The Python block under the README's "## Library" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n")[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_example(capsys):
    scope: dict = {}
    exec(library_example(), scope)
    result = scope["result"]
    assert result.achieved is None
    assert result.next_state == "Raw materials"
    assert len(result.blocking) == 3
    assert capsys.readouterr().out.splitlines() == ["None", "Raw materials", "3"]
    assert load_project(scope["blob"]) == replace(scope["project"],
                                                  assessment=scope["a"])
