"""The rules that an entry's fields are checked by its ``_FIELDS`` table,
and once: no ``_check_*`` function of the operations checks a type by
hand, so a new field gets a table row, not an ``isinstance`` or
``unsupported``; ``check_fields`` runs in the public operations that
take an entry alone and in the constructors, not in the checks they
share with the load builders, whose entries ``read_entry`` has checked;
no container builds an index lazily, in a ``cached_property``; the
save trusts the constructors, so no kind's ``dump`` checks a type; only
the load's pause and the CLI's exit change the collector's state;
every value class is made by ``_value.value``, has its own docstring,
and shares the methods that ``value`` installs; and no module imports
``dataclasses`` or ``inspect`` when it is loaded, and only ``_value``
names them, in the functions that need them."""

from __future__ import annotations

import ast
from dataclasses import is_dataclass
from functools import cached_property
from pathlib import Path

import essencekit
from essencekit import Assessment, DescriptionModel, KernelDefinition, _value

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


# The public operations that take an entry, and the constructors of the
# containers and of the kernel entries, by module.
OPERATIONS = {
    "description.py": ["DescriptionModel.__post_init__", "add_element",
                       "add_realization_node", "add_view", "add_viewpoint"],
    "engine.py": ["Assessment.__post_init__", "add_instance", "add_work_product",
                  "record_checkpoint"],
    "metamodel.py": ["AlphaDefinition.__post_init__", "Checkpoint.__post_init__",
                     "StateDefinition.__post_init__",
                     "WorkProductDefinition.__post_init__"],
}


def field_checkers(source: str) -> list[str]:
    """The functions of ``source`` that call ``check_fields``, sorted:
    ``name`` for a module function, ``Class.name`` for a method; a call
    in a nested function counts for the one that holds it."""
    functions = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            functions.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            functions.extend((f"{node.name}.{inner.name}", inner)
                             for inner in node.body
                             if isinstance(inner, ast.FunctionDef))
    return sorted(
        name for name, function in functions
        if any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
               and call.func.id == "check_fields" for call in ast.walk(function)))


def test_field_checkers_are_found_in_functions_and_methods():
    source = ("def add(m, x):\n    check_fields(x, X, E)\n"
              "def _check_x(m, x):\n    check_fields(x, X, E)\n"
              "def outer(x):\n    def inner():\n        check_fields(x, X, E)\n"
              "def other(x):\n    return fields(x)\n"
              "class Builder:\n    def add(self, x):\n"
              "        check_fields(x, X, E)\n    def build(self):\n"
              "        return check(self)\n")
    assert field_checkers(source) == ["Builder.add", "_check_x", "add", "outer"]


def test_only_the_operations_that_take_an_entry_check_its_fields():
    found = {}
    for module in sorted(PACKAGE.glob("*.py")):
        checkers = field_checkers(module.read_text(encoding="utf-8"))
        if checkers:
            found[module.name] = checkers
    assert found == OPERATIONS


def test_no_container_index_is_a_cached_property():
    """A container builds every index when it is made, so a value holds
    only what a file holds and no lookup builds one later."""
    assert {cls.__name__: [name for name, attr in vars(cls).items()
                           if isinstance(attr, cached_property)]
            for cls in (Assessment, DescriptionModel, KernelDefinition)} == {
        "Assessment": [], "DescriptionModel": [], "KernelDefinition": []}


SAVE_CHECKS = {"fits", "check", "unsupported", "cannot_save"}


def dump_checks(source: str) -> list[str]:
    """``Class.dump:callee`` for each call of a SAVE_CHECKS name, as a
    function or a method, inside a ``dump`` method of ``source``, and
    ``Class.dump:raise`` for each ``raise`` there."""
    found = []
    for cls in ast.parse(source).body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for method in cls.body:
            if not (isinstance(method, ast.FunctionDef) and method.name == "dump"):
                continue
            for node in ast.walk(method):
                if isinstance(node, ast.Raise):
                    found.append(f"{cls.name}.dump:raise")
                elif isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(
                        func, "attr", None)
                    if name in SAVE_CHECKS:
                        found.append(f"{cls.name}.dump:{name}")
    return found


def test_dump_checks_are_found_in_dump_methods_only():
    source = ("class A:\n    def dump(self, v):\n        if not self.fits(v):\n"
              "            raise cannot_save(v)\n        return v\n"
              "    def check(self, v):\n        raise unsupported(v)\n"
              "class B:\n    def dump(self, v):\n        check(v)\n"
              "        return [x.value for x in v]\n"
              "def dump(v):\n    raise E\n")
    assert dump_checks(source) == [
        "A.dump:raise", "A.dump:fits", "A.dump:cannot_save", "B.dump:check"]


def test_the_save_trusts_the_constructors():
    """Every entry a constructor makes fits its kinds, so a kind's
    ``dump`` only writes; the one refusal left is a designation of
    another DCC table, which a file cannot hold."""
    found = {name: dump_checks((PACKAGE / name).read_text(encoding="utf-8"))
             for name in ("_schema.py", "designation.py", "metamodel.py")}
    assert found == {"_schema.py": [], "designation.py": ["_Designation.dump:raise"],
                     "metamodel.py": []}


COLLECTOR_STATE = {"disable", "enable", "freeze", "unfreeze", "set_threshold"}


def scoped(source: str):
    """Each node of ``source`` with its scope: ``name`` for a function or
    a class, ``Outer.name`` for one inside another, and ``<module>``
    outside them."""

    def visit(node, scope: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                yield from visit(child, child.name if scope == "<module>"
                                 else f"{scope}.{child.name}")
                continue
            yield scope, child
            yield from visit(child, scope)

    return visit(ast.parse(source), "<module>")


def collector_changes(source: str) -> list[str]:
    """``scope:gc.name`` for each use of a COLLECTOR_STATE function of
    ``gc`` in ``source``, called or not, and for each import of one from
    ``gc``, in the scope ``scoped`` gives."""
    found = []
    for scope, node in scoped(source):
        if (isinstance(node, ast.Attribute) and node.attr in COLLECTOR_STATE
                and isinstance(node.value, ast.Name) and node.value.id == "gc"):
            found.append(f"{scope}:gc.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            found.extend(f"{scope}:gc.{alias.name}" for alias in node.names
                         if alias.name in COLLECTOR_STATE)
    return found


def test_collector_changes_are_found_in_every_scope():
    source = ("import gc\nfrom gc import freeze, collect\ngc.enable()\n"
              "def load(x):\n    on = gc.isenabled()\n    gc.disable()\n"
              "    (gc.enable if on else gc.disable)()\n"
              "class Run:\n    def exit(self):\n        gc.collect()\n"
              "        def inner():\n            gc.set_threshold(0)\n")
    assert collector_changes(source) == [
        "<module>:gc.freeze", "<module>:gc.enable", "load:gc.disable",
        "load:gc.enable", "load:gc.disable", "Run.exit.inner:gc.set_threshold"]


def test_only_the_load_and_the_cli_exit_change_the_collector():
    """The collector's state is process-wide: ``load_project`` pauses it
    and restores what it found, and ``cli.run`` freezes it before exit.
    Any other change to it is a new rule here."""
    found = {}
    for module in sorted(PACKAGE.glob("*.py")):
        changes = collector_changes(module.read_text(encoding="utf-8"))
        if changes:
            found[module.name] = changes
    assert found == {"cli.py": ["run:gc.freeze"],
                     "store.py": ["load_project:gc.disable",
                                  "load_project:gc.enable"]}


# Modules of the standard library that importing the library must not load.
UNLOADED = ("dataclasses", "inspect")


def unloaded_uses(source: str) -> list[str]:
    """``scope:module`` for each module of UNLOADED that ``source``
    imports, or names as a name or a text, in the scope ``scoped``
    gives; a relative import names no stdlib module."""
    found = []
    for scope, node in scoped(source):
        if isinstance(node, ast.Import):
            names = [alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module.partition(".")[0]]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Constant):
            names = [node.value]
        else:
            continue
        found.extend(f"{scope}:{name}" for name in names if name in UNLOADED)
    return found


def test_unloaded_uses_are_found_in_every_scope():
    source = ("import inspect\nimport dataclasses as dc, json\n"
              "from inspect import signature\nfrom .dataclasses import x\n"
              "def f():\n    from dataclasses import replace\n"
              "    return sys.modules['inspect']\n"
              "class A:\n    def g(self):\n        return dataclasses.fields(self)\n"
              "def h(inspected):\n    return 'dataclasses are plain text'\n")
    assert unloaded_uses(source) == [
        "<module>:inspect", "<module>:dataclasses", "<module>:inspect",
        "f:dataclasses", "f:inspect", "A.g:dataclasses"]


def test_only_value_loads_dataclasses_and_only_when_it_needs_them():
    """Importing the library, or running a command, loads neither module
    (``tests/test_imports.py``): ``value`` tests for a stdlib field in
    ``sys.modules``, and the rest import ``dataclasses`` when they run,
    to make the dataclass metadata or raise ``FrozenInstanceError``."""
    found = {}
    for module in sorted(PACKAGE.glob("*.py")):
        uses = unloaded_uses(module.read_text(encoding="utf-8"))
        if uses:
            found[module.name] = uses
    assert found == {"_value.py": ["_fields:dataclasses", "_record:dataclasses",
                                   "_setattr:dataclasses", "_delattr:dataclasses"]}


def dataclass_uses(source: str) -> list[str]:
    """``line:dataclass`` for each use of the name ``dataclass`` in
    ``source``, called, as a decorator or imported, and for each
    ``dataclasses.dataclass``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Name) and node.id == "dataclass"
                or isinstance(node, ast.Attribute) and node.attr == "dataclass"):
            found.append(f"{node.lineno}:dataclass")
        elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            found.extend(f"{node.lineno}:dataclass" for alias in node.names
                         if alias.name == "dataclass")
    return found


def value_classes(source: str) -> tuple[list[str], list[str]]:
    """The classes of ``source`` decorated with ``value``, and those of
    them without a docstring of their own."""
    made = [node for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef) and any(
                isinstance(d, ast.Name) and d.id == "value"
                for d in node.decorator_list)]
    return ([node.name for node in made],
            [node.name for node in made if ast.get_docstring(node) is None])


def test_dataclass_uses_and_undocumented_values_are_found():
    source = ('import dataclasses\nfrom dataclasses import dataclass, field\n'
              '@dataclasses.dataclass(frozen=True)\nclass A:\n    x: int\n'
              '@value\nclass B:\n    """B."""\n'
              '@value\nclass C:\n    x: int = field(default=1)\n'
              '@other\nclass D:\n    x: int\n')
    assert sorted(dataclass_uses(source)) == ["2:dataclass", "3:dataclass"]
    assert value_classes(source) == (["B", "C"], ["C"])


# The value classes; each is a public name of the package.
VALUE_CLASSES = [getattr(essencekit, name) for name in essencekit.__all__
                 if isinstance(getattr(essencekit, name), type)
                 and is_dataclass(getattr(essencekit, name))]


def test_only_value_makes_dataclasses_and_each_value_class_is_documented():
    """``value`` records the fields itself, and has ``dataclass`` make
    only the metadata, on first read, from a copy of the class body."""
    made, uses, undocumented = [], [], {}
    for module in sorted(PACKAGE.glob("*.py")):
        source = module.read_text(encoding="utf-8")
        if dataclass_uses(source):
            uses.append(module.name)
        names, bare = value_classes(source)
        made.extend(names)
        if bare:
            undocumented[module.name] = bare
    assert uses == ["_value.py"]
    assert undocumented == {}
    assert sorted(made) == sorted(cls.__name__ for cls in VALUE_CLASSES)
    assert len(made) == 28


# The value classes with an equality, hash or repr of their own.
OWN_METHODS = {"BreakdownNode": ["__eq__", "__hash__", "__repr__"],
               "BreakdownTree": ["__eq__", "__hash__"],
               "MultiAspectDesignation": ["__eq__", "__hash__"]}


def test_every_value_class_shares_the_methods_of_value():
    shared = {"__setattr__": _value._setattr, "__delattr__": _value._delattr,
              "__eq__": _value._eq, "__hash__": _value._hash,
              "__repr__": _value._repr}
    own = {}
    for cls in VALUE_CLASSES:
        for name, method in shared.items():
            if vars(cls)[name] is not method:
                assert vars(cls)[name].__qualname__ == f"{cls.__qualname__}.{name}"
                own.setdefault(cls.__name__, []).append(name)
        assert vars(cls)["__init__"].__qualname__ == f"{cls.__qualname__}.__init__"
    assert own == OWN_METHODS
