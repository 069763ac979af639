"""The README's examples run: the Library example prints what its
comments say, and the command-line designation examples parse."""

from __future__ import annotations

import re
import shlex
from dataclasses import replace
from pathlib import Path

from essencekit import load_project
from essencekit.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def example(heading: str, language: str) -> str:
    """The first ``language`` block under the README's ``heading``."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n")[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_example(capsys):
    scope: dict = {}
    exec(example("Library", "python"), scope)
    result = scope["result"]
    assert result.achieved is None
    assert result.next_state == "Raw materials"
    assert len(result.blocking) == 3
    assert capsys.readouterr().out.splitlines() == ["None", "Raw materials", "3"]
    assert load_project(scope["blob"]) == replace(scope["project"],
                                                  assessment=scope["a"])


def parse_examples() -> list[list[str]]:
    """The arguments of each ``essencekit desig parse`` and ``essencekit
    doc parse`` line of the command-line block that names no file."""
    block = example("Command line", "sh").replace("\\\n", " ")
    lines = (shlex.split(line, comments=True) for line in block.splitlines())
    return [argv[1:] for argv in lines
            if argv[:1] == ["essencekit"] and argv[1:2] in (["desig"], ["doc"])
            and argv[2:3] == ["parse"]
            and not any(arg.endswith(".json") for arg in argv)]


def test_readme_command_line_parse_examples(capsys):
    examples = parse_examples()
    assert sorted({argv[0] for argv in examples}) == ["desig", "doc"]
    for argv in examples:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        if argv[0] == "desig":  # the example is written in canonical form
            assert out.splitlines()[0] == argv[-1]
