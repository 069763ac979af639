"""The rule that an unhashable key names nothing is stated once, in
``_value.find``: no other code of the library catches ``TypeError`` but
``_schema.emit``, which places a map key that a document cannot hold."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "essencekit"


def type_error_handlers(source: str) -> list[str]:
    """The function around each ``except`` clause of ``source`` that
    names ``TypeError``, alone or in a tuple; "" at module level."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ExceptHandler) and child.type and any(
                    isinstance(name, ast.Name) and name.id == "TypeError"
                    for name in ast.walk(child.type)):
                found.append(function)
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)

    visit(ast.parse(source), "")
    return found


def test_type_error_handlers_are_found_anywhere_in_a_module():
    source = ("try:\n    a()\nexcept TypeError:\n    pass\n"
              "def f():\n    try:\n        b()\n"
              "    except (ValueError, TypeError):\n        pass\n"
              "    except KeyError:\n        pass\n"
              "class C:\n    def g(self):\n        try:\n            c()\n"
              "        except Exception:\n            pass\n"
              "        except TypeError as err:\n            raise err\n")
    assert type_error_handlers(source) == ["", "f", "g"]


def test_only_value_find_catches_type_error():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    handlers = [
        f"{module.name}:{function}"
        for module in modules
        for function in type_error_handlers(module.read_text(encoding="utf-8"))
    ]
    assert handlers == ["_schema.py:emit", "_value.py:find"]
