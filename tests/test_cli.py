"""End-to-end command-line behavior: outputs, exit codes, file rewrites."""

from __future__ import annotations

import json
import subprocess
import sys
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
    load_project,
    new_project,
    record_checkpoint,
    render_card,
    save_project,
)
from essencekit.cli import main


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_assess_record_is_idempotent_on_disk(capsys, project_file):
    argv = ("assess", "record", project_file,
            "--alpha-instance", "sr-1", "--state", "Parts",
            "--checkpoint", "P-2", "--satisfied", "false")
    assert run(capsys, *argv)[0] == 0
    first = Path(project_file).read_bytes()
    assert run(capsys, *argv)[0] == 0
    assert Path(project_file).read_bytes() == first


def test_assess_record_failure_leaves_file_untouched(capsys, project_file):
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
    result = subprocess.run(
        [sys.executable, "-m", "essencekit.cli", "--format", "structured",
         "desig", "check", str(path), "--", "-A"],
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert json.loads(result.stderr)["error"]["code"] == "PARSE_ERROR"


def test_module_entry_point_runs_as_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "essencekit.cli", "desig", "parse", "=F1"],
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "=F1"
