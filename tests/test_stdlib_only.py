"""The library imports nothing but the standard library and itself."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "essencekit"


def absolute_imports(source: str) -> list[str]:
    """The top-level names of every absolute import in ``source``."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def test_absolute_imports_are_found_anywhere_in_a_module():
    source = ("import a.b, c\nfrom d.e import f\nfrom . import g\n"
              "def h():\n    from .i import j\n    import k\n")
    assert absolute_imports(source) == ["a", "c", "d", "k"]


def test_src_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 1
    outside = [
        f"{module.relative_to(PACKAGE)}: {name}"
        for module in modules
        for name in absolute_imports(module.read_text(encoding="utf-8"))
        if name not in sys.stdlib_module_names
    ]
    assert outside == []
