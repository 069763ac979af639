"""The rule that an entry's fields are checked by its ``_FIELDS`` table:
no ``_check_*`` function of the operations checks a type by hand, so a
new field gets a table row, not an ``isinstance`` or ``unsupported``."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "essencekit"
HAND_CHECKS = {"isinstance", "unsupported"}


def hand_checks(source: str) -> list[str]:
    """``function:callee`` for each call of a HAND_CHECKS name inside a
    function of ``source`` whose name starts with ``_check_``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_check_"):
            found.extend(
                f"{node.name}:{call.func.id}" for call in ast.walk(node)
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id in HAND_CHECKS)
    return found


def test_hand_checks_are_found_in_check_functions_only():
    source = ("def _check_a(x):\n    if not isinstance(x, str):\n"
              "        raise unsupported(E, 'x', 'text', x)\n"
              "def _check_b(x):\n    check_fields(x, B, E)\n"
              "    def inner():\n        return isinstance(x, int)\n"
              "def other(x):\n    return isinstance(x, str)\n")
    assert hand_checks(source) == [
        "_check_a:isinstance", "_check_a:unsupported", "_check_b:isinstance"]


def test_check_functions_leave_types_to_the_tables():
    found = {name: hand_checks((PACKAGE / name).read_text(encoding="utf-8"))
             for name in ("engine.py", "description.py")}
    assert found == {"engine.py": [], "description.py": []}
