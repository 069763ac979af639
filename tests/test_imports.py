"""What the package and each CLI command import: ``import essencekit``
loads no library module, each public name is loaded from its module on
first use, and each command group loads only the modules it uses. None
of them loads ``dataclasses`` or ``inspect``: the value classes make
their dataclass metadata when it is first read."""

from __future__ import annotations

import subprocess
import sys
from importlib import import_module

import pytest

import essencekit

JSON_LAYER = {"_schema", "_value", "errors"}
EVERY_MODULE = JSON_LAYER | {"builtin_kernel", "description", "designation",
                             "engine", "metamodel", "store"}
# Standard library modules that neither the package nor a command loads.
UNLOADED = ("dataclasses", "inspect")
# Run by a child interpreter: the arguments, then the library modules
# loaded after them, and those of UNLOADED, one a line on stderr. The CLI
# module itself is left out, as ``python -m essencekit.cli`` runs it as
# ``__main__``.
LOADED_AFTER = (
    "import sys\n{call}\n"
    "print(*sorted(name[len('essencekit.'):] for name in sys.modules\n"
    "              if name.startswith('essencekit.')\n"
    "              and name != 'essencekit.cli'), sep='\\n', file=sys.stderr)\n"
    f"print(*(name for name in {UNLOADED} if name in sys.modules), sep='\\n',\n"
    "      file=sys.stderr)\n")


def loaded_after(call: str, *argv: str) -> set[str]:
    result = subprocess.run(
        [sys.executable, "-c", LOADED_AFTER.format(call=call), *argv],
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return set(result.stderr.split())


def test_importing_the_package_loads_no_library_module_and_lists_every_name():
    call = ("import essencekit\n"
            "assert set(essencekit.__all__) <= set(dir(essencekit))")
    assert loaded_after(call) == set()


def test_importing_the_store_loads_every_library_module_and_nothing_unloaded():
    assert loaded_after("import essencekit.store") == EVERY_MODULE


@pytest.mark.parametrize("argv, modules", [
    (["desig", "parse", "=F1"], JSON_LAYER | {"designation"}),
    (["doc", "parse", "=F1&MCA"], JSON_LAYER | {"designation"}),
    (["kernel", "show"], JSON_LAYER | {"metamodel", "builtin_kernel"}),
    (["cards", "{project}"], EVERY_MODULE),
    (["assess", "record", "{project}", "--alpha-instance", "sr-1", "--state",
      "Raw materials", "--checkpoint", "RM-1", "--satisfied", "true"],
     EVERY_MODULE),
], ids=["desig", "doc", "kernel", "project", "record"])
def test_each_command_group_loads_only_the_modules_it_uses(
        tmp_path, argv, modules):
    project = tmp_path / "project.json"
    project.write_text(
        '{"format-version": 1, "project-id": "p", "assessment": {"instances": '
        '[{"id": "sr-1", "alpha": "System Realization"}]}}', encoding="utf-8")
    before = project.read_bytes()
    argv = [arg.format(project=project) for arg in argv]
    call = "from essencekit.cli import main\nmain(sys.argv[1:])"
    assert loaded_after(call, *argv) == modules
    assert (project.read_bytes() != before) is ("record" in argv)


def test_the_stdlib_reads_the_fields_of_a_value_class_made_before_it_loaded():
    """A child loads ``dataclasses`` after the value classes, and reads
    ``fields`` of one as of its stdlib twin."""
    call = (
        "from essencekit import CheckpointRecord\n"
        "assert 'dataclasses' not in sys.modules\n"
        "from dataclasses import dataclass, fields\n"
        "@dataclass(frozen=True)\n"
        "class Twin:\n"
        "    alpha_instance: 'str'\n    state: 'str'\n    checkpoint: 'str'\n"
        "    satisfied: 'bool'\n    evidence: 'tuple[str, ...]' = ()\n"
        "    recorded_at: 'int' = 0\n"
        "def described(cls):\n"
        "    return [(f.name, f.type, f.default, f.default_factory, f.init,\n"
        "             f.repr, f.hash, f.compare, f.kw_only, f.metadata)\n"
        "            for f in fields(cls)]\n"
        "assert described(CheckpointRecord) == described(Twin)\n")
    assert set(UNLOADED) <= loaded_after(call)


def test_each_public_name_is_the_object_in_its_module():
    assert len(set(essencekit.__all__)) == len(essencekit.__all__) == 76
    names = dir(essencekit)
    assert names == sorted(names) and set(essencekit.__all__) <= set(names)
    for name in essencekit.__all__:
        module = import_module(f"essencekit.{essencekit._MODULE_OF[name]}")
        assert getattr(essencekit, name) is getattr(module, name), name
    with pytest.raises(AttributeError, match="has no attribute 'load_projects'"):
        getattr(essencekit, "load_projects")


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from essencekit import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(essencekit.__all__)
