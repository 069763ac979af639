"""Command-line surface for batch validation and assessment.

Subcommands:
    kernel validate FILE          check a kernel document against the meta-model
    kernel show [FILE]            print the builtin (or a loaded) kernel
    assess record PROJECT ...     record a checkpoint and rewrite the project
    assess state PROJECT ...      computed alpha state for one instance
    assess blocking PROJECT ...   unsatisfied checkpoints up to a target state
    cards PROJECT                 text state cards for every instance
    desig parse TEXT              parse and canonicalize a designation
    desig check PROJECT TEXT      unambiguity check against project trees
    doc parse TEXT                parse a document designation
    arch check PROJECT --views    viable-architecture check over named views
    lint endeavor PROJECT         missing endeavor description kinds

Exit status: 0 = success or passing check; 1 = a check failed (not
viable, ambiguous, blocked target, lint warnings); 2 = usage, parse, or
schema error. Results go to stdout, diagnostics to stderr. The global
``--format structured`` switch emits JSON instead of plain text.

Outputs are deterministic: nothing here reads the clock or the
environment, and record timestamps enter only through ``--at``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from .builtin_kernel import builtin_se_kernel, has_placeholder_states
from .description import endeavor_viewpoint_lint, viable_architecture
from .designation import (
    ASPECT_ORDER,
    BUILTIN_DCC_TABLE,
    check_at_least_one_unambiguous,
    format_designation,
    loads_dcc_table,
    parse_designation,
    parse_document_designation,
)
from .engine import (
    CheckpointRecord,
    alpha_state,
    blocking_checkpoints,
    record_checkpoint,
    render_card,
)
from .errors import EssenceError, KernelError
from .metamodel import (
    dumps_kernel,
    find_alpha,
    kernel_to_doc,
    loads_kernel,
    validate_kernel,
)
from .store import Project, load_project, save_project


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except EssenceError as err:
        _print_error(args.format, err)
        return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="essencekit",
        description="Kernel engine, designation parser, and model validator.",
    )
    parser.add_argument(
        "--format", choices=("plain", "structured"), default="plain",
        help="output format (structured = JSON)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    kernel = commands.add_parser("kernel", help="kernel documents")
    kernel_cmds = commands_of(kernel)
    validate = kernel_cmds.add_parser("validate", help="validate a kernel document")
    validate.add_argument("file")
    validate.set_defaults(handler=_cmd_kernel_validate)
    show = kernel_cmds.add_parser("show", help="print a kernel (builtin by default)")
    show.add_argument("file", nargs="?")
    show.add_argument("--alpha", help="show one alpha in detail")
    show.set_defaults(handler=_cmd_kernel_show)

    assess = commands.add_parser("assess", help="checkpoint assessment")
    assess_cmds = commands_of(assess)
    record = assess_cmds.add_parser("record", help="record one checkpoint")
    record.add_argument("project")
    record.add_argument("--alpha-instance", required=True)
    record.add_argument("--state", required=True)
    record.add_argument("--checkpoint", required=True)
    record.add_argument("--satisfied", required=True, choices=("true", "false"))
    record.add_argument("--evidence", nargs="*", default=[],
                        metavar="WP", help="work product ids")
    record.add_argument("--at", type=int, default=0,
                        help="informational timestamp (integer seconds)")
    record.set_defaults(handler=_cmd_assess_record)
    state = assess_cmds.add_parser("state", help="computed state of an instance")
    state.add_argument("project")
    state.add_argument("--alpha-instance", required=True)
    state.set_defaults(handler=_cmd_assess_state)
    blocking = assess_cmds.add_parser("blocking",
                                      help="blockers up to a target state")
    blocking.add_argument("project")
    blocking.add_argument("--alpha-instance", required=True)
    blocking.add_argument("--target", required=True)
    blocking.set_defaults(handler=_cmd_assess_blocking)

    cards = commands.add_parser("cards", help="state cards for all instances")
    cards.add_argument("project")
    cards.set_defaults(handler=_cmd_cards)

    desig = commands.add_parser("desig", help="reference designations")
    desig_cmds = commands_of(desig)
    text_help = "designation text; put -- before text that starts with '-'"
    dparse = desig_cmds.add_parser("parse", help="parse a designation")
    dparse.add_argument("text", help=text_help)
    dparse.set_defaults(handler=_cmd_desig_parse)
    dcheck = desig_cmds.add_parser("check",
                                   help="unambiguity check against project trees")
    dcheck.add_argument("project")
    dcheck.add_argument("text", help=text_help)
    dcheck.set_defaults(handler=_cmd_desig_check)

    doc = commands.add_parser("doc", help="document designations")
    doc_cmds = commands_of(doc)
    doc_parse = doc_cmds.add_parser("parse", help="parse a document designation")
    doc_parse.add_argument("text", help=text_help)
    doc_parse.add_argument("--dcc-table", help="DCC table file (JSON)")
    doc_parse.set_defaults(handler=_cmd_doc_parse)

    arch = commands.add_parser("arch", help="architecture checks")
    arch_cmds = commands_of(arch)
    arch_check = arch_cmds.add_parser("check", help="viable-architecture check")
    arch_check.add_argument("project")
    arch_check.add_argument("--views", required=True,
                            help="comma-separated view names")
    arch_check.set_defaults(handler=_cmd_arch_check)

    lint = commands.add_parser("lint", help="model lints")
    lint_cmds = commands_of(lint)
    endeavor = lint_cmds.add_parser("endeavor",
                                    help="endeavor description-kind coverage")
    endeavor.add_argument("project")
    endeavor.set_defaults(handler=_cmd_lint_endeavor)

    return parser


def commands_of(parser: argparse.ArgumentParser):
    return parser.add_subparsers(dest="subcommand", required=True)


# Handlers


def _cmd_kernel_validate(args: argparse.Namespace) -> int:
    kernel = loads_kernel(_read_bytes(args.file))
    report = validate_kernel(kernel)
    if args.format == "structured":
        _print_doc({
            "ok": report.ok,
            "findings": [
                {"code": f.code, "path": f.path, "message": f.message}
                for f in report.findings
            ],
        })
    elif report.ok:
        print("ok")
    else:
        for finding in report.findings:
            print(f"{finding.code} at {finding.path}: {finding.message}")
        print(f"findings: {len(report.findings)}")
    return 0 if report.ok else 1


def _cmd_kernel_show(args: argparse.Namespace) -> int:
    if args.file is None:
        kernel = builtin_se_kernel()
    else:
        kernel = loads_kernel(_read_bytes(args.file))
    if args.alpha is not None:
        alpha = find_alpha(kernel, args.alpha)
        if alpha is None:
            raise KernelError("UNKNOWN_ALPHA", f"no alpha named {args.alpha!r}")
        if args.format == "structured":
            doc = kernel_to_doc(kernel)
            alpha_doc = next(a for a in doc["alphas"] if a["name"] == alpha.name)
            _print_doc(alpha_doc)
        else:
            print(f"{alpha.name} ({alpha.area})")
            if alpha.description:
                print(alpha.description)
            if alpha.subalphas:
                print(f"sub-alphas: {', '.join(alpha.subalphas)}")
            print("states:")
            marker = " [placeholder]" if has_placeholder_states(alpha) else ""
            for state in alpha.states:
                print(f"  {state.name}{marker}")
                print(f"    summary: {state.summary}")
                for cp in state.checkpoints:
                    print(f"    {cp.id}: {cp.text}")
        return 0
    if args.format == "structured":
        # Byte-identical kernel export; feed it back to `kernel validate`.
        sys.stdout.write(dumps_kernel(kernel))
    else:
        print(f"kernel: {kernel.name}")
        print(f"areas: {', '.join(area.name for area in kernel.areas)}")
        print("alphas:")
        for alpha in kernel.alphas:
            marker = " [placeholder]" if has_placeholder_states(alpha) else ""
            print(f"  {alpha.name} ({alpha.area}){marker}")
            print(f"    states: {', '.join(alpha.state_names)}")
            if alpha.subalphas:
                print(f"    sub-alphas: {', '.join(alpha.subalphas)}")
    return 0


def _cmd_assess_record(args: argparse.Namespace) -> int:
    project = _load_project_file(args.project)
    rec = CheckpointRecord(
        alpha_instance=args.alpha_instance,
        state=args.state,
        checkpoint=args.checkpoint,
        satisfied=args.satisfied == "true",
        evidence=tuple(args.evidence),
        recorded_at=args.at,
    )
    # Validation failure raises before anything is written back.
    assessment = record_checkpoint(project.assessment, rec)
    _write_bytes(args.project, save_project(replace(project, assessment=assessment)))
    if args.format == "structured":
        _print_doc({
            "recorded": {
                "alpha-instance": rec.alpha_instance,
                "state": rec.state,
                "checkpoint": rec.checkpoint,
                "satisfied": rec.satisfied,
                "evidence": list(rec.evidence),
                "recorded-at": rec.recorded_at,
            }
        })
    else:
        print(f"recorded {rec.alpha_instance} {rec.state} {rec.checkpoint} "
              f"satisfied={args.satisfied}")
    return 0


def _cmd_assess_state(args: argparse.Namespace) -> int:
    project = _load_project_file(args.project)
    result = alpha_state(project.assessment, args.alpha_instance)
    instance = project.assessment.instance(args.alpha_instance)
    if args.format == "structured":
        _print_doc({
            "instance": instance.id,
            "alpha": instance.alpha,
            "achieved": result.achieved,
            "achieved-index": result.achieved_index,
            "next": result.next_state,
            "blocking": _blockers_doc(result.blocking),
        })
    else:
        print(f"instance: {instance.id}")
        print(f"alpha: {instance.alpha}")
        print(f"achieved: {result.achieved if result.achieved else '(none)'}")
        if result.next_state is not None:
            print(f"next: {result.next_state}")
        print(f"blocking: {len(result.blocking)}")
    return 0


def _cmd_assess_blocking(args: argparse.Namespace) -> int:
    project = _load_project_file(args.project)
    blockers = blocking_checkpoints(
        project.assessment, args.alpha_instance, args.target
    )
    if args.format == "structured":
        _print_doc({
            "target": args.target,
            "count": len(blockers),
            "blocking": _blockers_doc(blockers),
        })
    elif blockers:
        for b in blockers:
            print(f"{b.state} {b.checkpoint}: {b.text}")
    else:
        print("no blocking checkpoints")
    return 1 if blockers else 0


def _cmd_cards(args: argparse.Namespace) -> int:
    project = _load_project_file(args.project)
    instances = project.assessment.instances
    cards = [
        (inst.id, render_card(project.assessment, inst.id)) for inst in instances
    ]
    if args.format == "structured":
        _print_doc({
            "cards": [{"instance": inst_id, "card": card} for inst_id, card in cards]
        })
    elif cards:
        print("\n\n".join(card for _, card in cards))
    else:
        print("(no alpha instances)")
    return 0


def _cmd_desig_parse(args: argparse.Namespace) -> int:
    d = parse_designation(args.text)
    canonical = format_designation(d)
    if args.format == "structured":
        _print_doc({
            "canonical": canonical,
            "chains": {
                chain.aspect.value: list(chain.segments)
                for chain in sorted(d.chains, key=lambda c: c.aspect.value)
            },
        })
    else:
        print(canonical)
        by_aspect = d.by_aspect()
        for aspect in ASPECT_ORDER:
            if aspect in by_aspect:
                print(f"{aspect.value}: {' '.join(by_aspect[aspect].segments)}")
    return 0


def _cmd_desig_check(args: argparse.Namespace) -> int:
    project = _load_project_file(args.project)
    d = parse_designation(args.text)
    trees = {tree.aspect: tree for tree in project.trees}
    report = check_at_least_one_unambiguous(trees, d)
    if args.format == "structured":
        _print_doc({
            "designation": format_designation(d),
            "chains": [
                {
                    "aspect": r.chain.aspect.value,
                    "chain": str(r.chain),
                    "matches": r.count,
                }
                for r in report.resolutions
            ],
            "pass": report.ok,
        })
    else:
        for r in report.resolutions:
            noun = "match" if r.count == 1 else "matches"
            print(f"{r.chain}: {r.count} {noun}")
        print(f"result: {'pass' if report.ok else 'fail'}")
    return 0 if report.ok else 1


def _cmd_doc_parse(args: argparse.Namespace) -> int:
    if args.dcc_table is not None:
        table = loads_dcc_table(_read_bytes(args.dcc_table))
    else:
        table = BUILTIN_DCC_TABLE
    dd = parse_document_designation(args.text, table)
    area_label = table.area_label(dd.area)
    class_label = table.class_label(dd.document_class)
    if args.format == "structured":
        _print_doc({
            "system": format_designation(dd.system),
            "dcc": dd.dcc,
            "area": dd.area,
            "area-label": area_label,
            "class": dd.document_class,
            "class-label": class_label,
            "table": table.name,
        })
    else:
        print(f"system: {format_designation(dd.system)}")
        print(f"dcc: {dd.dcc}")
        print(f"area: {dd.area} ({area_label})")
        if class_label is not None:
            print(f"class: {dd.document_class} ({class_label})")
        else:
            print(f"class: {dd.document_class}")
    return 0


def _cmd_arch_check(args: argparse.Namespace) -> int:
    project = _load_project_file(args.project)
    names = args.views.split(",") if args.views else []
    report = viable_architecture(project.description, names)
    if args.format == "structured":
        _print_doc({
            "covered": [t.value for t in report.covered],
            "missing": [t.value for t in report.missing],
            "pass": report.ok,
        })
    else:
        covered = ", ".join(t.value for t in report.covered)
        print(f"covered: {covered if covered else '(none)'}")
        if report.missing:
            print(f"missing: {', '.join(t.value for t in report.missing)}")
        print(f"result: {'pass' if report.ok else 'fail'}")
    return 0 if report.ok else 1


def _cmd_lint_endeavor(args: argparse.Namespace) -> int:
    project = _load_project_file(args.project)
    warnings = endeavor_viewpoint_lint(project.description)
    if args.format == "structured":
        _print_doc({"warnings": list(warnings)})
    elif warnings:
        for warning in warnings:
            print(f"warning: {warning}")
    else:
        print("ok")
    return 1 if warnings else 0


# Plumbing


def _read_bytes(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise EssenceError("IO_ERROR", f"cannot read {path}: {exc}") from exc


def _write_bytes(path: str, data: bytes) -> None:
    """Replace the file whole: a failed write leaves the old bytes."""
    try:
        target = Path(path).resolve()
        fd, temp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            shutil.copymode(target, temp)
            os.replace(temp, target)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(temp)
            raise
    except OSError as exc:
        raise EssenceError("IO_ERROR", f"cannot write {path}: {exc}") from exc


def _load_project_file(path: str) -> Project:
    return load_project(_read_bytes(path))


def _blockers_doc(blockers) -> list[dict]:
    return [
        {"state": b.state, "checkpoint": b.checkpoint, "text": b.text}
        for b in blockers
    ]


def _print_doc(doc: dict) -> None:
    print(json.dumps(doc, indent=2, ensure_ascii=False))


def _print_error(fmt: str, err: EssenceError) -> None:
    if fmt == "structured":
        body: dict = {"code": err.code, "message": err.message}
        if err.path:
            body["path"] = err.path
        print(json.dumps({"error": body}, indent=2, ensure_ascii=False),
              file=sys.stderr)
    else:
        print(f"error: {err}", file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
