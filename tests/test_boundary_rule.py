"""The breakdown-tree file format, the chain grammar and the file
formats of designators and document designations have one home,
``designation``: the JSON layer ``_schema`` imports no library module
but ``_value`` and ``errors``, no other module names a tree's
``_arrays`` or the chain pattern ``_CHAIN_RE``, and no other library
module but the CLI and the package's public names names the
designation parsers."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "essencekit"


def library_imports(source: str) -> list[str]:
    """The package modules that ``source``, a module of the package,
    imports at module level or inside a function, sorted: ``a`` for
    ``from .a import x``, ``from . import a``, ``from essencekit.a
    import x``, ``from essencekit import a`` and ``import essencekit.a``;
    ``essencekit`` for ``import essencekit``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top, _, rest = alias.name.partition(".")
                if top == "essencekit":
                    found.append(rest.split(".")[0] or top)
        elif isinstance(node, ast.ImportFrom):
            top, _, rest = (node.module or "").partition(".")
            if node.level:  # relative: the module is the first name
                module = top
            elif top == "essencekit":
                module = rest.split(".")[0]
            else:
                continue
            # from . import a, from essencekit import a: the names
            found.extend([module] if module else
                         [alias.name for alias in node.names])
    return sorted(found)


def names(source: str, name: str) -> bool:
    """True when ``source`` names ``name``: as a variable, an attribute,
    a keyword argument, a string or an imported name."""
    return any(
        isinstance(node, ast.Name) and node.id == name
        or isinstance(node, ast.alias) and node.name == name
        or isinstance(node, ast.Attribute) and node.attr == name
        or isinstance(node, ast.keyword) and node.arg == name
        or isinstance(node, ast.Constant) and node.value == name
        for node in ast.walk(ast.parse(source)))


def test_library_imports_are_found_anywhere_in_a_module():
    source = ("import json\nimport essencekit\nfrom . import errors\n"
              "from ._value import noun\nfrom json import dumps\n"
              "def f():\n    from .designation import BreakdownTree\n"
              "class C:\n    def g(self):\n        import essencekit.store\n"
              "        from essencekit import cli\n"
              "        from essencekit.engine import Assessment\n")
    assert library_imports(source) == [
        "_value", "cli", "designation", "engine", "errors", "essencekit",
        "store"]


def test_names_are_found_in_every_form():
    for source in ("t._arrays", "_arrays = 1", "f(_arrays=1)",
                   "d['_arrays']", "def f():\n    return g(t)._arrays[0]\n",
                   "from .designation import _arrays as a\n"):
        assert names(source, "_arrays"), source
    assert not names("t.arrays\nx = '_arrays_'\n_arrays_of = 1\n", "_arrays")


def test_schema_imports_no_library_module_but_value_and_errors():
    source = (PACKAGE / "_schema.py").read_text(encoding="utf-8")
    assert set(library_imports(source)) <= {"_value", "errors"}


def test_only_designation_names_a_trees_arrays():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    naming = [module.name for module in modules
              if names(module.read_text(encoding="utf-8"), "_arrays")]
    assert naming == ["designation.py"]


def test_only_designation_names_the_chain_pattern():
    naming = [module.name for module in sorted(PACKAGE.glob("*.py"))
              if names(module.read_text(encoding="utf-8"), "_CHAIN_RE")]
    assert naming == ["designation.py"]


def test_only_designation_names_the_designation_parsers():
    # The entry tables name designation's field kinds; the CLI and the
    # package's public names are the parsers' other callers.
    parsers = ("parse_designation", "parse_document_designation",
               "format_document_designation")
    naming = [module.name for module in sorted(PACKAGE.glob("*.py"))
              if module.name not in ("__init__.py", "cli.py")
              and any(names(module.read_text(encoding="utf-8"), parser)
                      for parser in parsers)]
    assert naming == ["designation.py"]


def test_no_module_names_single_chain():
    assert not [module.name for module in sorted(PACKAGE.glob("*.py"))
                if names(module.read_text(encoding="utf-8"), "single_chain")]
