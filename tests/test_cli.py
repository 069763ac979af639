"""End-to-end command-line behavior: outputs, exit codes, file rewrites."""

from __future__ import annotations

import ast
import contextlib
import gc
import io
import itertools
import json
import os
import re
import subprocess
import sys
import time
import types
from dataclasses import replace
from pathlib import Path

import pytest

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import genlib
from essencekit import (
    AlphaInstance,
    Aspect,
    BreakdownNode,
    BreakdownTree,
    CheckpointRecord,
    DescriptionKind,
    DescriptionModel,
    Project,
    StructureType,
    View,
    Viewpoint,
    WorkProductInstance,
    add_instance,
    add_view,
    add_viewpoint,
    add_work_product,
    builtin_se_kernel,
    dumps_kernel,
    kernel_to_doc,
    load_project,
    new_project,
    record_checkpoint,
    render_card,
    save_project,
)
from essencekit import cli
from essencekit.cli import main
from essencekit.store import MAX_TREE_DEPTH

ROOT = Path(__file__).resolve().parent.parent
MODULE_ENTRY = ("-m", "essencekit.cli")


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cli_child(*argv: str, entry: tuple[str, ...] = MODULE_ENTRY,
              **options) -> subprocess.CompletedProcess:
    """The CLI run to its end in a child interpreter, started with
    ``entry`` and ``argv``; ``options`` go to ``subprocess.run``."""
    return subprocess.run([sys.executable, *entry, *argv], timeout=60,
                          **options)


def console_script_target() -> tuple[str, str]:
    """The module and function of the ``essencekit`` console script. tomllib
    is not in Python 3.10, so the target is read from pyproject.toml
    directly."""
    scripts = (ROOT / "pyproject.toml").read_text(encoding="utf-8").split(
        "[project.scripts]", 1)[1]
    return re.search(r'^essencekit\s*=\s*"([\w.]+):(\w+)"', scripts,
                     re.MULTILINE).groups()


def console_script_entry() -> tuple[str, ...]:
    """The interpreter arguments that run what pip's generated
    ``essencekit`` wrapper runs."""
    module, function = console_script_target()
    return ("-c", f"import sys\nfrom {module} import {function}\n"
                  f"sys.argv[0] = 'essencekit'\nsys.exit({function}())\n")


def demo_project() -> Project:
    p = new_project("demo")
    a = add_instance(p.assessment,
                     AlphaInstance(id="sr-1", alpha="System Realization"))
    a = add_work_product(a, WorkProductInstance(id="wp-1", definition="Test Report"))
    for cp in ("RM-1", "RM-2", "RM-3", "RM-4"):
        a = record_checkpoint(a, CheckpointRecord(
            "sr-1", "Raw materials", cp, True, evidence=("wp-1",)))
    trees = (
        BreakdownTree(aspect=Aspect.FUNCTION, roots=(BreakdownNode("F1"),)),
        BreakdownTree(aspect=Aspect.PRODUCT, roots=(
            BreakdownNode("12", (BreakdownNode("N4", (BreakdownNode("DN18"),)),)),
            BreakdownNode("13", (BreakdownNode("N4", (BreakdownNode("DN18"),)),)))),
    )
    model = DescriptionModel()
    for name, structure_type in (
            ("cc", StructureType.COMPONENT_CONNECTOR),
            ("mi", StructureType.MODULE_INTERFACE),
            ("al", StructureType.ALLOCATION)):
        model = add_viewpoint(model, Viewpoint(
            name=f"vp-{name}", structure_type=structure_type))
        model = add_view(model, View(name=f"view-{name}", viewpoint=f"vp-{name}"))
    return replace(p, assessment=a, trees=trees, description=model)


def lint_clean_project() -> Project:
    model = DescriptionModel()
    for name, kind in (("practice", DescriptionKind.PRACTICE),
                       ("process", DescriptionKind.PROCESS),
                       ("team", DescriptionKind.TEAM)):
        model = add_viewpoint(model, Viewpoint(name=name, description_kind=kind))
    return replace(new_project("ways"), description=model)


@pytest.fixture
def project_file(tmp_path) -> str:
    path = tmp_path / "project.json"
    path.write_bytes(save_project(demo_project()))
    return str(path)


# kernel


def test_kernel_show_structured_is_exact_kernel_export(capsys):
    code, out, err = run(capsys, "--format", "structured", "kernel", "show")
    assert code == 0
    assert out == dumps_kernel(builtin_se_kernel())
    assert err == ""


def test_kernel_export_validates_clean(capsys, tmp_path):
    kernel_file = tmp_path / "kernel.json"
    kernel_file.write_text(dumps_kernel(builtin_se_kernel()), encoding="utf-8")
    code, out, _ = run(capsys, "kernel", "validate", str(kernel_file))
    assert code == 0
    assert out == "ok\n"


def test_kernel_show_plain_lists_alphas(capsys):
    code, out, _ = run(capsys, "kernel", "show")
    assert code == 0
    assert out.startswith("kernel: Systems Engineering Essence Kernel\n")
    assert "areas: Customer, Solution, Endeavor" in out
    assert "  System Realization (Solution)\n" in out
    assert "  Team (Endeavor) [placeholder]\n" in out
    assert "    sub-alphas: Components, Modules, Allocations" in out


def test_kernel_show_single_alpha(capsys):
    code, out, _ = run(capsys, "kernel", "show", "--alpha", "System Realization")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "System Realization (Solution)"
    assert "  Raw materials" in lines
    assert any(line.startswith("    RM-1: ") for line in lines)
    code, _, err = run(capsys, "kernel", "show", "--alpha", "Ghost")
    assert code == 2
    assert "UNKNOWN_ALPHA" in err


def test_kernel_show_reads_kernel_files(capsys, tmp_path):
    kernel_file = tmp_path / "kernel.json"
    kernel_file.write_text(dumps_kernel(builtin_se_kernel()), encoding="utf-8")
    code, out, _ = run(capsys, "--format", "structured", "kernel", "show",
                       str(kernel_file))
    assert code == 0
    assert out == dumps_kernel(builtin_se_kernel())


def test_kernel_validate_reports_findings(capsys, tmp_path):
    kernel_file = tmp_path / "kernel.json"
    kernel_file.write_text(json.dumps({
        "name": "k",
        "areas": ["Customer", "Solution", "Endeavor"],
        "alphas": [
            {"name": "A", "area": "Solution", "states": []},
        ],
    }), encoding="utf-8")
    code, out, _ = run(capsys, "kernel", "validate", str(kernel_file))
    assert code == 1
    assert "EMPTY_STATES at alphas[0].states" in out
    assert out.rstrip().endswith("findings: 1")


def test_kernel_validate_long_subalpha_chain(capsys, tmp_path):
    kernel_file = tmp_path / "chain.json"
    kernel_file.write_text(dumps_kernel(genlib.chain_kernel(2000)),
                           encoding="utf-8")
    code, out, _ = run(capsys, "kernel", "validate", str(kernel_file))
    assert (code, out) == (0, "ok\n")


def test_kernel_validate_bad_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope", encoding="utf-8")
    code, _, err = run(capsys, "kernel", "validate", str(bad))
    assert code == 2
    assert err.startswith("error: PARSE_ERROR")
    code, _, err = run(capsys, "kernel", "validate", str(tmp_path / "absent.json"))
    assert code == 2
    assert "IO_ERROR" in err


def test_kernel_validate_structured_is_exact(capsys, tmp_path):
    kernel_file = tmp_path / "kernel.json"
    kernel_file.write_text(dumps_kernel(builtin_se_kernel()), encoding="utf-8")
    assert run(capsys, "--format", "structured", "kernel", "validate",
               str(kernel_file)) == (0, '{\n  "ok": true,\n  "findings": []\n}\n', "")
    kernel_file.write_text(json.dumps({
        "name": "k",
        "areas": ["Customer", "Solution", "Endeavor"],
        "alphas": [{"name": "A", "area": "Mars", "states": []}],
    }), encoding="utf-8")
    assert run(capsys, "--format", "structured", "kernel", "validate",
               str(kernel_file)) == (1, """\
{
  "ok": false,
  "findings": [
    {
      "code": "UNKNOWN_AREA",
      "path": "alphas[0].area",
      "message": "alpha 'A' references undefined area 'Mars'"
    },
    {
      "code": "EMPTY_STATES",
      "path": "alphas[0].states",
      "message": "alpha 'A' defines no states"
    }
  ]
}
""", "")


def test_kernel_show_alpha_structured_is_the_alphas_kernel_entry(capsys):
    entry = kernel_to_doc(builtin_se_kernel())["alphas"][3]
    assert entry["name"] == "System Realization"
    assert run(capsys, "--format", "structured", "kernel", "show", "--alpha",
               "System Realization") == (
        0, json.dumps(entry, indent=2, ensure_ascii=False) + "\n", "")


# desig


def test_desig_parse_canonicalizes(capsys):
    code, out, _ = run(capsys, "desig", "parse", "=F1 / -12-N4-DN18 / +M13")
    assert code == 0
    assert out == (
        "=F1 / -12-N4-DN18 / +M13\n"
        "Function: F1\n"
        "Product: 12 N4 DN18\n"
        "Location: M13\n")


def test_desig_parse_rejects_bad_input(capsys):
    code, out, err = run(capsys, "desig", "parse", "=f1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: BAD_SEGMENT")


def test_desig_parse_structured(capsys):
    code, out, _ = run(capsys, "--format", "structured", "desig", "parse",
                       "+M13 / =F1")
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "canonical": "=F1 / +M13",
        "chains": {"Function": ["F1"], "Location": ["M13"]},
    }


def test_desig_parse_dash_text_needs_separator(capsys):
    code, _, _ = run(capsys, "desig", "parse", "--", "-DN18")
    assert code == 0


def test_desig_check_pass_fail_and_missing_tree(capsys, project_file):
    code, out, _ = run(capsys, "desig", "check", project_file, "=F1")
    assert code == 0
    assert out == "=F1: 1 match\nresult: pass\n"

    code, out, _ = run(capsys, "desig", "check", project_file, "--", "-12-N4-DN18")
    assert code == 0
    assert out == "-12-N4-DN18: 1 match\nresult: pass\n"

    code, out, _ = run(capsys, "desig", "check", project_file, "--", "-N4-DN18")
    assert code == 1
    assert out == "-N4-DN18: 2 matches\nresult: fail\n"

    code, out, _ = run(capsys, "desig", "check", project_file,
                       "=F1 / -N4-DN18")
    assert code == 0
    assert out == "=F1: 1 match\n-N4-DN18: 2 matches\nresult: pass\n"

    code, _, err = run(capsys, "desig", "check", project_file, "+M13")
    assert code == 2
    assert "MISSING_TREE" in err


def test_desig_check_structured(capsys, project_file):
    code, out, _ = run(capsys, "--format", "structured", "desig", "check",
                       project_file, "=Z9 / -N4-DN18")
    assert code == 1
    doc = json.loads(out)
    assert doc["pass"] is False
    assert doc["chains"] == [
        {"aspect": "Function", "chain": "=Z9", "matches": 0},
        {"aspect": "Product", "chain": "-N4-DN18", "matches": 2},
    ]
    assert doc["designation"] == "=Z9 / -N4-DN18"


# doc


def test_doc_parse_plain(capsys):
    code, out, _ = run(capsys, "doc", "parse", "=F1&MCA")
    assert code == 0
    assert out == (
        "system: =F1\n"
        "dcc: MCA\n"
        "area: M (mechanical engineering)\n"
        "class: CA (contractual and nontechnical documents)\n")


def test_doc_parse_unlabeled_class(capsys):
    code, out, _ = run(capsys, "doc", "parse", "=F1&AZZ")
    assert code == 0
    assert out.endswith("area: A (overall management)\nclass: ZZ\n")


def test_doc_parse_errors(capsys):
    code, _, err = run(capsys, "doc", "parse", "=F1&XCA")
    assert code == 2
    assert "UNKNOWN_TECHNICAL_AREA" in err
    code, _, err = run(capsys, "doc", "parse", "=F1")
    assert code == 2
    assert "NO_AMPERSAND" in err


def test_doc_parse_custom_table(capsys, tmp_path):
    table = tmp_path / "dcc.json"
    table.write_text(json.dumps({
        "name": "plant",
        "areas": {"X": "process engineering"},
        "classes": {"QA": "quality records"},
    }), encoding="utf-8")
    code, out, _ = run(capsys, "--format", "structured", "doc", "parse",
                       "--dcc-table", str(table), "=F1&XQA")
    assert code == 0
    doc = json.loads(out)
    assert doc["area-label"] == "process engineering"
    assert doc["class-label"] == "quality records"
    assert doc["table"] == "plant"


# assess


def test_assess_state_plain(capsys, project_file):
    code, out, _ = run(capsys, "assess", "state", project_file,
                       "--alpha-instance", "sr-1")
    assert code == 0
    assert out == (
        "instance: sr-1\n"
        "alpha: System Realization\n"
        "achieved: Raw materials\n"
        "next: Parts\n"
        "blocking: 4\n")


def test_assess_state_structured(capsys, project_file):
    code, out, _ = run(capsys, "--format", "structured", "assess", "state",
                       project_file, "--alpha-instance", "sr-1")
    assert code == 0
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
    assert doc["achieved"] == "Raw materials"
    assert doc["achieved-index"] == 0
    assert doc["next"] == "Parts"
    assert [b["checkpoint"] for b in doc["blocking"]] == [
        "P-1", "P-2", "P-3", "P-4"]


def test_assess_state_unknown_instance(capsys, project_file):
    code, _, err = run(capsys, "assess", "state", project_file,
                       "--alpha-instance", "ghost")
    assert code == 2
    assert "UNKNOWN_INSTANCE" in err


def test_assess_record_rewrites_project_file(capsys, project_file):
    code, out, _ = run(capsys, "assess", "record", project_file,
                       "--alpha-instance", "sr-1", "--state", "Parts",
                       "--checkpoint", "P-1", "--satisfied", "true",
                       "--evidence", "wp-1", "--at", "99")
    assert code == 0
    assert out == "recorded sr-1 Parts P-1 satisfied=true\n"
    loaded = load_project(Path(project_file).read_bytes())
    rec = loaded.assessment.records[-1]
    assert (rec.state, rec.checkpoint, rec.satisfied) == ("Parts", "P-1", True)
    assert rec.evidence == ("wp-1",)
    assert rec.recorded_at == 99


def chain_node(depth: int) -> dict:
    """The node map of a one-chain tree N1 ... N<depth>, as a file holds it."""
    node = {"segment": f"N{depth}"}
    for level in range(depth - 1, 0, -1):
        node = {"segment": f"N{level}", "children": [node]}
    return node


SR_1 = {"id": "sr-1", "alpha": "System Realization"}
EVERY_LIST = {
    "format-version": 1, "project-id": "ci",
    "assessment": {
        "instances": [SR_1],
        "work-products": [{"id": "wp-1", "definition": "Test Report",
                           "label": 'Q"1" report', "document-designation": "=F1&MCA"}]},
    "description": {
        "viewpoints": [{"name": "vp1", "structure-type": "Allocation",
                        "concerns": ["cost"], "description-kind": "Team"}],
        "views": [{"name": "v1", "viewpoint": "vp1", "elements": ["e1"]}],
        "elements": [{"id": "e1", "label": "pump", "has-extent": True},
                     {"id": "e2", "has-extent": True}],
        "realization-nodes": [
            {"id": "n1", "designators": {"Product": "-12-N4", "Function": "=F1"}}],
        "coextension": [["e2", "e1"]],
        "bindings": [["e1", "n1"]]}}

# Hand-written project files, with the evidence recorded into each. None
# has a kernel key; they leave out optional keys, list designators and a
# coextension class out of canonical order, and hold a tree at the depth
# limit.
HAND_WRITTEN = {
    "trees": ({"format-version": 1, "project-id": "ci",
               "assessment": {"instances": [SR_1]},
               "trees": {"Product": [
                   {"segment": "12", "children": [
                       {"segment": "N4", "children": [{"segment": "DN18"}]}]},
                   {"segment": "13", "children": [
                       {"segment": "N4", "children": [{"segment": "DN18"}]}]}]}}, ()),
    "every-list": (EVERY_LIST, ("--evidence", "wp-1")),
    "deep": ({"format-version": 1, "project-id": "deep",
              "assessment": {"instances": [SR_1]},
              "trees": {"Product": [chain_node(MAX_TREE_DEPTH)]}}, ()),
    "sparse": ({"format-version": 1, "project-id": "ci",
                "assessment": {
                    "instances": [SR_1],
                    "work-products": [{"id": "wp-1", "definition": "Test Report",
                                       "document-designation": "=F1&MCA"},
                                      {"id": "wp-2", "definition": "Test Report"}],
                    "records": [{"alpha-instance": "sr-1", "state": "Raw materials",
                                 "checkpoint": "RM-2", "satisfied": True}]},
                "description": {"elements": [{"id": "e1", "has-extent": True}]}},
               ("--evidence", "wp-2")),
}
RECORD_RM1 = ("--alpha-instance", "sr-1", "--state", "Raw materials",
              "--checkpoint", "RM-1", "--satisfied", "true", "--at", "1723972800")


def test_assess_record_is_idempotent_on_disk(capsys, project_file, tmp_path):
    argv = ("assess", "record", project_file,
            "--alpha-instance", "sr-1", "--state", "Parts",
            "--checkpoint", "P-2", "--satisfied", "false")
    assert run(capsys, *argv)[0] == 0
    first = Path(project_file).read_bytes()
    written = os.stat(project_file)
    assert run(capsys, *argv) == (0, "recorded sr-1 Parts P-2 satisfied=false\n", "")
    assert Path(project_file).read_bytes() == first
    unchanged = os.stat(project_file)  # not even rewritten
    assert (unchanged.st_ino, unchanged.st_mtime_ns) == (
        written.st_ino, written.st_mtime_ns)

    for name, (doc, evidence) in HAND_WRITTEN.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        record = ("assess", "record", str(path), *RECORD_RM1, *evidence)
        assert run(capsys, *record)[0] == 0
        once = path.read_bytes()
        assert run(capsys, *record)[0] == 0
        assert path.read_bytes() == once
        # The first call wrote the canonical save, which saves as itself.
        text = once.decode("utf-8")
        assert text == json.dumps(json.loads(text), indent=2, ensure_ascii=False) + "\n"
        assert save_project(load_project(once)) == once
        assert run(capsys, "cards", str(path))[0] == 0
    node = json.loads((tmp_path / "every-list.json").read_bytes())[
        "description"]["realization-nodes"][0]
    assert list(node["designators"]) == ["Function", "Product"]
    # The queries read the one record written into the trees file.
    trees = str(tmp_path / "trees.json")
    assert "  [ ] Raw materials 1/4" in run(capsys, "cards", trees)[1].splitlines()
    state = run(capsys, "assess", "state", trees, "--alpha-instance", "sr-1")
    assert "blocking: 3" in state[1].splitlines()
    code, out, _ = run(capsys, "assess", "blocking", trees, "--alpha-instance", "sr-1",
                       "--target", "Parts")
    assert (code, len(out.splitlines())) == (1, 7)


def many_records_document(**more) -> dict:
    """2000 records cycling through the built-in kernel's checkpoints, each
    citing wp-1 but the last, which cites a work product that is not there;
    each record also holds the keys ``more``."""
    keys = [(alpha.name, state.name, cp.id) for alpha in builtin_se_kernel().alphas
            for state in alpha.states for cp in state.checkpoints]
    instances, records = {}, []
    for i, (alpha, state, cp) in zip(range(2000), itertools.cycle(keys)):
        inst = f"{alpha}-{i // len(keys)}"
        instances[inst] = {"id": inst, "alpha": alpha}
        records.append({"alpha-instance": inst, "state": state, "checkpoint": cp,
                        "satisfied": True, "evidence": ["wp-1"], **more})
    records[-1]["evidence"] = ["ghost"]
    return {"format-version": 1, "project-id": "ci", "assessment": {
        "instances": list(instances.values()),
        "work-products": [{"id": "wp-1", "definition": "Test Report"}],
        "records": records}}


# Files load_project refuses: each document, the error's code, its path.
REFUSED_FILES = [
    ({"format-version": 1, "project-id": "ci", "assessment": {
        "instances": [SR_1],
        "records": [{"alpha-instance": "sr-1", "state": "Raw materials",
                     "checkpoint": "RM-1", "satisfied": 1}]}},
     "SCHEMA_ERROR", "assessment.records[0].satisfied"),
    ({"format-version": 1, "project-id": "ci", "description": {
        "viewpoints": [{"name": "vp1", "structure-type": "Allocation"}],
        "views": [{"name": "v1", "viewpoint": "vp1", "elements": ["e1"]}],
        "elements": [{"id": "e1", "has-extent": "yes"}]}},
     "SCHEMA_ERROR", "description.elements[0].has-extent"),
    ({**EVERY_LIST, "description": {**EVERY_LIST["description"], "realization-nodes": [
        {"id": "n1", "designators": {"Product": "-12-N4", "Function": "=F1 / -N4"}}]}},
     "SCHEMA_ERROR", "description.realization-nodes[0].designators.Function"),
    ({"format-version": 1, "project-id": "ci", "assessment": {
        "instances": [SR_1],
        "work-products": [{"id": "wp-1", "definition": "Test Report",
                           "document-designation": "=F1&XCA"}]}},
     "SCHEMA_ERROR: UNKNOWN_TECHNICAL_AREA",
     "assessment.work-products[0].document-designation"),
    (many_records_document(), "SCHEMA_ERROR: UNKNOWN_EVIDENCE",
     "assessment.records[1999]"),
    # With no key left out, the records are read as columns and checked in
    # bulk before the item that is refused is found.
    (many_records_document(**{"recorded-at": 0}), "SCHEMA_ERROR: UNKNOWN_EVIDENCE",
     "assessment.records[1999]"),
]


def test_assess_record_failure_leaves_file_untouched(capsys, project_file, tmp_path):
    before = Path(project_file).read_bytes()
    code, _, err = run(capsys, "assess", "record", project_file,
                       "--alpha-instance", "sr-1", "--state", "Raw materials",
                       "--checkpoint", "ZZ-9", "--satisfied", "true")
    assert code == 2
    assert "UNKNOWN_CHECKPOINT" in err
    assert Path(project_file).read_bytes() == before

    code, _, err = run(capsys, "assess", "record", project_file,
                       "--alpha-instance", "sr-1", "--state", "Parts",
                       "--checkpoint", "P-1", "--satisfied", "true",
                       "--evidence", "ghost")
    assert code == 2
    assert "UNKNOWN_EVIDENCE" in err
    assert Path(project_file).read_bytes() == before

    path = tmp_path / "refused.json"
    for doc, code, where in REFUSED_FILES:
        path.write_text(json.dumps(doc), encoding="utf-8")
        before = path.read_bytes()
        for argv in (("assess", "record", str(path), *RECORD_RM1),
                     ("arch", "check", str(path), "--views", "v1")):
            status, out, err = run(capsys, *argv)
            assert (status, out) == (2, "")
            assert err.startswith(f"error: {code}: ")
            assert err.endswith(f" (at {where})\n")
            assert path.read_bytes() == before


@pytest.mark.skipif(resource is None, reason="needs POSIX resource limits")
def test_assess_record_write_failure_keeps_original(project_file):
    # The child may write only half the project's size to any file, so
    # rewriting the project fails partway (EFBIG) whatever the strategy.
    before = Path(project_file).read_bytes()
    limit = len(before) // 2
    script = (
        "import resource, signal, sys\n"
        "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
        f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, {limit}))\n"
        "from essencekit.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n")
    result = subprocess.run(
        [sys.executable, "-c", script, "assess", "record", project_file,
         "--alpha-instance", "sr-1", "--state", "Parts",
         "--checkpoint", "P-1", "--satisfied", "true"],
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 2
    assert "IO_ERROR" in result.stderr
    assert "Traceback" not in result.stderr
    assert Path(project_file).read_bytes() == before
    assert [p.name for p in Path(project_file).parent.iterdir()] == [
        "project.json"]


RECORD_P1 = ("--alpha-instance", "sr-1", "--state", "Parts", "--checkpoint", "P-1",
             "--satisfied", "true")


def test_assess_record_syncs_the_new_file_before_it_replaces_the_old(
        capsys, monkeypatch, project_file):
    calls = []
    fsync, replace_file = os.fsync, os.replace

    def spy_fsync(fd):
        calls.append(("fsync", os.fstat(fd).st_ino))
        fsync(fd)

    def spy_replace(src, dst):
        calls.append(("replace", os.stat(src).st_ino))
        replace_file(src, dst)

    monkeypatch.setattr(os, "fsync", spy_fsync)
    monkeypatch.setattr(os, "replace", spy_replace)
    assert run(capsys, "assess", "record", project_file, *RECORD_P1)[0] == 0
    written = Path(project_file).stat().st_ino
    assert calls == [("fsync", written), ("replace", written)]


def test_assess_record_sync_failure_keeps_original(capsys, monkeypatch,
                                                   project_file):
    before = Path(project_file).read_bytes()

    def failing_fsync(fd):
        raise OSError(5, "Input/output error")

    monkeypatch.setattr(os, "fsync", failing_fsync)
    code, out, err = run(capsys, "assess", "record", project_file, *RECORD_P1)
    assert (code, out) == (2, "")
    assert err.startswith("error: IO_ERROR: cannot write ")
    assert Path(project_file).read_bytes() == before
    assert [p.name for p in Path(project_file).parent.iterdir()] == [
        "project.json"]


@pytest.mark.parametrize("raw", [False, True])
def test_assess_record_refuses_a_lone_surrogate_in_the_file(tmp_path, raw):
    doc = json.loads(save_project(demo_project()))
    if raw:  # the UTF-8 bytes of a surrogate, which UTF-8 forbids
        doc["assessment"]["work-products"][0]["label"] = "x\udfff"
        data = json.dumps(doc, ensure_ascii=False).encode("utf-8", "surrogatepass")
        where = "assessment.work-products[0].label"
    else:  # a \u escape of a surrogate with no partner
        doc["project-id"] = "demo\ud800"
        data = json.dumps(doc).encode()
        where = "project-id"
    path = tmp_path / "project.json"
    path.write_bytes(data)
    result = cli_child(
        "--format", "structured", "assess", "record", str(path),
        "--alpha-instance", "sr-1", "--state", "Parts", "--checkpoint", "P-1",
        "--satisfied", "true", capture_output=True, text=True)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    error = json.loads(result.stderr)["error"]
    assert (error["code"], error["path"]) == ("SCHEMA_ERROR", where)
    assert path.read_bytes() == data


def test_assess_record_structured(capsys, project_file):
    code, out, _ = run(capsys, "--format", "structured", "assess", "record",
                       project_file, "--alpha-instance", "sr-1",
                       "--state", "Parts", "--checkpoint", "P-3",
                       "--satisfied", "true")
    assert code == 0
    doc = json.loads(out)
    assert doc["recorded"]["checkpoint"] == "P-3"
    assert doc["recorded"]["satisfied"] is True
    assert doc["recorded"]["recorded-at"] == 0


def test_assess_blocking(capsys, project_file):
    code, out, _ = run(capsys, "assess", "blocking", project_file,
                       "--alpha-instance", "sr-1", "--target", "Raw materials")
    assert code == 0
    assert out == "no blocking checkpoints\n"

    code, out, _ = run(capsys, "assess", "blocking", project_file,
                       "--alpha-instance", "sr-1", "--target", "Parts")
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("Parts P-1: ")

    code, _, err = run(capsys, "assess", "blocking", project_file,
                       "--alpha-instance", "sr-1", "--target", "Imaginary")
    assert code == 2
    assert "UNKNOWN_STATE" in err


def test_assess_blocking_structured(capsys, project_file):
    code, out, _ = run(capsys, "--format", "structured", "assess", "blocking",
                       project_file, "--alpha-instance", "sr-1",
                       "--target", "Demonstrable")
    assert code == 1
    doc = json.loads(out)
    assert doc["target"] == "Demonstrable"
    assert doc["count"] == 10
    assert doc["blocking"][0]["state"] == "Parts"


# cards


def test_cards_renders_each_instance(capsys, project_file):
    project = load_project(Path(project_file).read_bytes())
    code, out, _ = run(capsys, "cards", project_file)
    assert code == 0
    assert out == render_card(project.assessment, "sr-1") + "\n"


def test_cards_without_instances(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_bytes(save_project(new_project("empty")))
    code, out, _ = run(capsys, "cards", str(path))
    assert code == 0
    assert out == "(no alpha instances)\n"


def test_cards_deterministic(capsys, project_file):
    first = run(capsys, "cards", project_file)
    second = run(capsys, "cards", project_file)
    assert first == second


def test_cards_structured_is_exact(capsys, project_file, tmp_path):
    card = render_card(load_project(Path(project_file).read_bytes()).assessment,
                       "sr-1")
    assert run(capsys, "--format", "structured", "cards", project_file) == (
        0, '{\n  "cards": [\n    {\n      "instance": "sr-1",\n'
           f'      "card": {json.dumps(card)}\n    }}\n  ]\n}}\n', "")
    path = tmp_path / "empty.json"
    path.write_bytes(save_project(new_project("empty")))
    assert run(capsys, "--format", "structured", "cards", str(path)) == (
        0, '{\n  "cards": []\n}\n', "")


def test_cards_are_separated_by_a_blank_line(capsys, tmp_path):
    p = demo_project()
    a = add_instance(p.assessment, AlphaInstance(id="st-1", alpha="Stakeholders"))
    path = tmp_path / "two.json"
    path.write_bytes(save_project(replace(p, assessment=a)))
    cards = [render_card(a, "sr-1"), render_card(a, "st-1")]
    assert run(capsys, "cards", str(path)) == (
        0, f"{cards[0]}\n\n{cards[1]}\n", "")
    code, out, _ = run(capsys, "--format", "structured", "cards", str(path))
    assert json.loads(out) == {"cards": [
        {"instance": "sr-1", "card": cards[0]},
        {"instance": "st-1", "card": cards[1]}]}


# arch / lint


def test_arch_check_passes_with_all_three_types(capsys, project_file):
    code, out, _ = run(capsys, "arch", "check", project_file,
                       "--views", "view-cc,view-mi,view-al")
    assert code == 0
    assert out == (
        "covered: ComponentConnector, ModuleInterface, Allocation\n"
        "result: pass\n")


def test_arch_check_names_missing_types(capsys, project_file):
    code, out, _ = run(capsys, "arch", "check", project_file,
                       "--views", "view-cc,view-mi")
    assert code == 1
    assert out == (
        "covered: ComponentConnector, ModuleInterface\n"
        "missing: Allocation\n"
        "result: fail\n")


def test_arch_check_empty_view_list(capsys, project_file):
    code, out, _ = run(capsys, "arch", "check", project_file, "--views", "")
    assert code == 1
    assert out.startswith("covered: (none)\n")
    assert "missing: ComponentConnector, ModuleInterface, Allocation" in out


def test_arch_check_unknown_view(capsys, project_file):
    code, _, err = run(capsys, "arch", "check", project_file, "--views", "ghost")
    assert code == 2
    assert "UNKNOWN_REFERENCE" in err


def test_arch_check_structured(capsys, project_file):
    code, out, _ = run(capsys, "--format", "structured", "arch", "check",
                       project_file, "--views", "view-al")
    assert code == 1
    doc = json.loads(out)
    assert doc == {
        "covered": ["Allocation"],
        "missing": ["ComponentConnector", "ModuleInterface"],
        "pass": False,
    }


def test_lint_endeavor_warns_per_missing_kind(capsys, project_file):
    code, out, _ = run(capsys, "lint", "endeavor", project_file)
    assert code == 1
    assert out == (
        "warning: missing endeavor description kind: Practice\n"
        "warning: missing endeavor description kind: Process\n"
        "warning: missing endeavor description kind: Team\n")


def test_lint_endeavor_clean(capsys, tmp_path):
    path = tmp_path / "ways.json"
    path.write_bytes(save_project(lint_clean_project()))
    code, out, _ = run(capsys, "lint", "endeavor", str(path))
    assert code == 0
    assert out == "ok\n"


def test_lint_endeavor_structured_is_exact(capsys, project_file, tmp_path):
    assert run(capsys, "--format", "structured", "lint", "endeavor",
               project_file) == (1, """\
{
  "warnings": [
    "missing endeavor description kind: Practice",
    "missing endeavor description kind: Process",
    "missing endeavor description kind: Team"
  ]
}
""", "")
    path = tmp_path / "ways.json"
    path.write_bytes(save_project(lint_clean_project()))
    assert run(capsys, "--format", "structured", "lint", "endeavor",
               str(path)) == (0, '{\n  "warnings": []\n}\n', "")


# usage and error plumbing


def test_usage_errors_exit_2(capsys):
    assert run(capsys, )[0] == 2
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "kernel")[0] == 2
    assert run(capsys, "arch", "check", "p.json")[0] == 2  # missing --views


def test_structured_errors_are_json_on_stderr(capsys):
    code, out, err = run(capsys, "--format", "structured", "desig", "parse", "=f1")
    assert code == 2
    assert out == ""
    doc = json.loads(err)
    assert doc["error"]["code"] == "BAD_SEGMENT"


def test_structured_error_with_a_path_is_exact(capsys, tmp_path):
    table = tmp_path / "dcc.json"
    table.write_text(json.dumps({"name": "plant", "areas": {"X": 5}}),
                     encoding="utf-8")
    assert run(capsys, "--format", "structured", "doc", "parse",
               "--dcc-table", str(table), "=F1&XQA") == (2, "", """\
{
  "error": {
    "code": "SCHEMA_ERROR",
    "message": "key 'X' must be str",
    "path": "areas.X"
  }
}
""")
    assert run(capsys, "doc", "parse", "--dcc-table", str(table),
               "=F1&XQA") == (
        2, "", "error: SCHEMA_ERROR: key 'X' must be str (at areas.X)\n")


def test_project_parse_error_reported(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops", encoding="utf-8")
    code, _, err = run(capsys, "cards", str(path))
    assert code == 2
    assert "PARSE_ERROR" in err


def test_deeply_nested_project_is_a_parse_error(tmp_path):
    depth = 900
    tree = ('{"segment": "A", "children": [' * (depth - 1) + '{"segment": "A"}'
            + "]}" * (depth - 1))
    path = tmp_path / "deep.json"
    path.write_text('{"format-version": 1, "project-id": "p", '
                    '"trees": {"Product": [' + tree + "]}}", encoding="utf-8")
    result = cli_child("--format", "structured", "desig", "check", str(path),
                       "--", "-A", capture_output=True, text=True)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert json.loads(result.stderr)["error"]["code"] == "PARSE_ERROR"


@pytest.mark.parametrize("depth", [MAX_TREE_DEPTH, MAX_TREE_DEPTH + 1])
def test_desig_check_on_a_tree_at_the_depth_limit(capsys, tmp_path, depth):
    tree = genlib.chain_tree(Aspect.PRODUCT, depth)
    if depth <= MAX_TREE_DEPTH:
        text = save_project(replace(new_project("deep"), trees=(tree,)))
    else:  # save_project refuses it, so write the document by hand
        text = json.dumps({"format-version": 1, "project-id": "deep",
                           "trees": {"Product": [chain_node(depth)]}}).encode()
    path = tmp_path / "deep.json"
    path.write_bytes(text)
    result = cli_child("--format", "structured", "desig", "check", str(path),
                       "--", f"-N{depth - 1}-N{depth}",
                       capture_output=True, text=True)
    assert "Traceback" not in result.stderr
    if depth <= MAX_TREE_DEPTH:
        assert result.returncode == 0
        assert json.loads(result.stdout)["chains"][0]["matches"] == 1
        whole = "".join(f"-N{level}" for level in range(1, depth + 1))
        assert run(capsys, "desig", "check", str(path), "--", whole) == (
            0, f"{whole}: 1 match\nresult: pass\n", "")
    else:
        assert result.returncode == 2
        error = json.loads(result.stderr)["error"]
        assert (error["code"], error["path"]) == ("TREE_TOO_DEEP", "trees.Product")


def test_module_entry_point_runs_as_subprocess():
    result = cli_child("desig", "parse", "=F1", capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "=F1"


def test_console_script_target_refuses_a_mixed_chain_without_traceback():
    result = cli_child("desig", "parse", "=F1-N4", entry=console_script_entry(),
                       capture_output=True, text=True)
    assert result.returncode == 2
    assert "MIXED_CHAIN" in result.stderr and "column 4" in result.stderr
    assert "Traceback" not in result.stderr


def test_the_console_script_is_what_the_module_entry_calls():
    main_block = next(
        node for node in ast.parse(Path(cli.__file__).read_text("utf-8")).body
        if isinstance(node, ast.If)
        and ast.unparse(node.test) == "__name__ == '__main__'")
    called = [node.func.id for node in ast.walk(main_block)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert called == ["run"]
    assert console_script_target() == ("essencekit.cli", "run")


def test_run_exits_with_mains_status_and_main_leaves_the_collector_alone(
        capsys, monkeypatch, project_file):
    frozen = gc.get_freeze_count()
    assert run(capsys, "cards", project_file)[0] == 0
    assert run(capsys, "desig", "parse", "=F1-N4")[0] == 2
    assert gc.get_freeze_count() == frozen
    monkeypatch.setattr(sys, "argv", ["essencekit", "desig", "parse", "=F1-N4"])
    try:
        with pytest.raises(SystemExit) as exit_:
            cli.run()
        assert gc.get_freeze_count() > frozen
    finally:
        gc.unfreeze()
    assert exit_.value.code == 2
    assert capsys.readouterr().err.startswith("error: MIXED_CHAIN: ")


def cards_file(tmp_path, instances: int) -> str:
    path = tmp_path / "cards.json"
    path.write_text(json.dumps({
        "format-version": 1, "project-id": "p", "assessment": {
            "instances": [{"id": f"i{k}", "alpha": "System Realization"}
                          for k in range(instances)]}}), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("entry", ["module", "console-script"])
@pytest.mark.parametrize("argv, status", [
    (["cards", "{many}"], 0),
    (["assess", "blocking", "{project}", "--alpha-instance", "sr-1",
      "--target", "Parts"], 1),
    (["--format", "structured", "desig", "parse", "=F1-N4"], 2),
], ids=["cards", "blocked", "refused"])
def test_each_entry_writes_the_bytes_and_status_of_main(
        capsys, project_file, tmp_path, entry, argv, status):
    # Cards for 1000 instances are more than a pipe holds, so the child
    # writes them into the pipe in parts while the parent reads.
    paths = {"many": cards_file(tmp_path, 1000), "project": project_file}
    argv = [arg.format(**paths) for arg in argv]
    expected = run(capsys, *argv)
    result = cli_child(
        *argv, entry=MODULE_ENTRY if entry == "module" else console_script_entry(),
        capture_output=True, env={**os.environ, "PYTHONIOENCODING": "utf-8"})
    assert expected[0] == status
    assert (result.returncode, result.stdout.decode("utf-8"),
            result.stderr.decode("utf-8")) == expected


FORMATS = pytest.mark.parametrize("fmt", [[], ["--format", "structured"]],
                                  ids=["plain", "structured"])


def assert_io_error(fmt: list[str], returncode: int, stderr: bytes) -> None:
    assert returncode == 2
    text = stderr.decode("ascii")
    assert "Traceback" not in text and "Exception ignored" not in text
    if fmt:
        assert json.loads(text)["error"]["code"] == "IO_ERROR"
    else:
        assert text.startswith("error: IO_ERROR: cannot write output: ")


@FORMATS
def test_main_writes_into_a_text_stream_without_a_buffer(capsys, fmt):
    # io.StringIO has no binary buffer and no encoding: it takes the text.
    expected = run(capsys, *fmt, "desig", "parse", "=F1")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main([*fmt, "desig", "parse", "=F1"])
    assert (status, out.getvalue()) == expected[:2]
    assert expected[0] == 0


@FORMATS
def test_main_writes_an_error_into_a_text_stream_without_a_buffer(capsys, fmt):
    expected = run(capsys, *fmt, "desig", "parse", "F1")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = main([*fmt, "desig", "parse", "F1"])
    assert (status, "", err.getvalue()) == expected
    assert expected[0] == 2 and "BAD_PREFIX" in expected[2]


class RawStub:
    """A raw file for ``_write_output``: each write returns the next of
    ``results``, a count taken or None for a full non-blocking file, or
    raises it; the bytes taken gather in ``data``. ``fileno`` gives
    ``select`` a file to wait on."""

    def __init__(self, fileno: int, *results):
        self.results = iter(results)
        self.data = b""
        self.fileno = lambda: fileno

    def write(self, data) -> int | None:
        result = next(self.results, len(data))
        if isinstance(result, Exception):
            raise result
        if result is not None:
            self.data += bytes(data[:result])
        return result

    def stream(self):
        return types.SimpleNamespace(buffer=types.SimpleNamespace(raw=self),
                                     encoding="utf-8", errors="strict")


@FORMATS
def test_output_into_a_full_non_blocking_file_waits_for_room(
        capsys, monkeypatch, fmt):
    expected = run(capsys, *fmt, "desig", "parse", "=F1")
    waits = []
    real_select = cli.select.select

    def select(*files):
        waits.append(files)
        return real_select(*files)

    monkeypatch.setattr(cli.select, "select", select)
    read_end, write_end = os.pipe()  # a pipe with room: select returns
    try:
        raw = RawStub(write_end, None, 3, None)
        with contextlib.redirect_stdout(raw.stream()):
            status = main([*fmt, "desig", "parse", "=F1"])
    finally:
        os.close(read_end)
        os.close(write_end)
    assert (status, raw.data.decode("utf-8")) == expected[:2]
    assert waits == [((), (raw,), ())] * 2 and expected[0] == 0


def test_a_raw_write_that_fails_is_an_io_error(capsys):
    raw = RawStub(-1, OSError(5, "Input/output error"))
    with contextlib.redirect_stdout(raw.stream()):
        status = main(["desig", "parse", "=F1"])
    captured = capsys.readouterr()
    assert (status, raw.data, captured.out) == (2, b"", "")
    assert captured.err == ("error: IO_ERROR: cannot write output: "
                            "[Errno 5] Input/output error\n")


@FORMATS
def test_output_the_stream_cannot_encode_is_an_io_error(fmt):
    # The alpha's checkpoint texts hold curly quotes, which ASCII lacks.
    result = cli_child(*fmt, "kernel", "show", "--alpha", "System Realization",
                       capture_output=True,
                       env={**os.environ, "PYTHONIOENCODING": "ascii"})
    assert result.stdout == b""
    assert_io_error(fmt, result.returncode, result.stderr)


@FORMATS
@pytest.mark.parametrize("flags", [[], ["-u"]], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command, read", [("cards", 1), ("desig", 0)])
def test_output_into_a_closed_pipe_is_an_io_error(fmt, flags, command, read,
                                                  tmp_path):
    # Cards for 1000 instances are a few hundred KB, more than a pipe
    # holds, so the write is still going when the reader closes after a
    # byte. The few bytes of a parsed designation go to a pipe whose
    # reader has closed before the command starts.
    if command == "cards":
        path = tmp_path / "many.json"
        path.write_text(json.dumps({
            "format-version": 1, "project-id": "p", "assessment": {
                "instances": [{"id": f"i{k}", "alpha": "System Realization"}
                              for k in range(1000)]}}), encoding="utf-8")
        argv = ["cards", str(path)]
    else:
        argv = ["desig", "parse", "=F1"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    if not read:
        os.close(read_end)
    child = subprocess.Popen(
        [sys.executable, *flags, "-m", "essencekit.cli", *fmt, *argv],
        stdout=write_end, stderr=subprocess.PIPE, env=env)
    os.close(write_end)
    try:
        if read:
            assert os.read(read_end, read)
            os.close(read_end)
        stderr = child.communicate(timeout=60)[1]
    finally:
        child.kill()
        child.wait()
    assert_io_error(fmt, child.returncode, stderr)


@pytest.mark.skipif(resource is None, reason="needs POSIX resource usage")
def test_output_into_a_slow_non_blocking_pipe_waits_without_spinning(tmp_path):
    # A pipe holds less than the cards of 1000 instances, so a writer
    # into a non-blocking pipe that is read only after a second must
    # wait for room; spinning on the failed write costs a CPU second.
    path = tmp_path / "many.json"
    path.write_text(json.dumps({
        "format-version": 1, "project-id": "p", "assessment": {
            "instances": [{"id": f"i{k}", "alpha": "System Realization"}
                          for k in range(1000)]}}), encoding="utf-8")
    expected = subprocess.run(
        [sys.executable, "-m", "essencekit.cli", "cards", str(path)],
        capture_output=True, timeout=60).stdout
    read_end, write_end = os.pipe()
    os.set_blocking(write_end, False)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-m", "essencekit.cli", "cards", str(path)],
        stdout=write_end)
    os.close(write_end)
    chunks = []
    try:
        time.sleep(1)
        with os.fdopen(read_end, "rb") as reader:
            chunks.extend(iter(lambda: reader.read(65536), b""))
        child.wait(timeout=60)
    finally:
        child.kill()
        child.wait()
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    assert child.returncode == 0
    assert b"".join(chunks) == expected and len(expected) > 65536
    assert cpu < wall / 2


def test_output_and_errors_into_a_closed_pipe_exit_2():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "essencekit.cli", "desig", "parse", "=F1"],
            stdout=write_end, stderr=write_end, timeout=60)
    finally:
        os.close(write_end)
    assert result.returncode == 2
