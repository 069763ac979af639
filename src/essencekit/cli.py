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
viable, ambiguous, blocked target, lint warnings); 2 = usage, parse,
schema or IO error, unwritable output included. Results go to stdout,
diagnostics to stderr. The global ``--format structured`` switch emits
JSON instead of plain text, through the writer that saves project files.

Outputs are deterministic: nothing here reads the clock or the
environment, and record timestamps enter only through ``--at``.

``run`` is the process entry, for the console script and for
``python -m essencekit.cli``: it exits with ``main``'s status. ``main``
returns the status and may be called in process any number of times.
Each handler imports the library modules it uses: ``desig parse`` and
``doc parse`` load only ``designation`` and the JSON layer, the
``kernel`` commands only the meta-model and the built-in kernel, and the
commands that read a project every module, through ``store``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import select
import shutil
import sys
import tempfile
from pathlib import Path
from typing import NoReturn, Sequence

from ._schema import emit, entry_docs
from .errors import EssenceError, KernelError, ProjectError

# What a handler returns, printing nothing: exit status, structured
# document, plain lines. main writes the one --format asks for.
Output = tuple[int, dict, list[str]]


def run() -> NoReturn:
    """Run ``main`` on the process's arguments and exit with its status.

    The collector's objects are frozen first: the interpreter's shutdown
    then skips its full collections over them, whose memory the exit
    frees anyway."""
    status = main()
    gc.freeze()
    raise SystemExit(status)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        status, doc, lines = args.handler(args)
        _write_output(sys.stdout, args.format, doc, lines)
    except EssenceError as err:
        doc = {"error": {"code": err.code, "message": err.message}}
        if err.path:
            doc["error"]["path"] = err.path
        with contextlib.suppress(EssenceError):
            _write_output(sys.stderr, args.format, doc, [f"error: {err}"])
        return 2
    return status


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


def _cmd_kernel_validate(args: argparse.Namespace) -> Output:
    from .metamodel import loads_kernel, validate_kernel

    kernel = loads_kernel(_read_bytes(args.file))
    report = validate_kernel(kernel)
    doc = {
        "ok": report.ok,
        "findings": [
            {"code": f.code, "path": f.path, "message": f.message}
            for f in report.findings
        ],
    }
    if report.ok:
        return 0, doc, ["ok"]
    lines = [f"{f.code} at {f.path}: {f.message}" for f in report.findings]
    lines.append(f"findings: {len(report.findings)}")
    return 1, doc, lines


def _cmd_kernel_show(args: argparse.Namespace) -> Output:
    from .builtin_kernel import builtin_se_kernel, has_placeholder_states
    from .metamodel import find_alpha, kernel_to_doc, loads_kernel

    if args.file is None:
        kernel = builtin_se_kernel()
    else:
        kernel = loads_kernel(_read_bytes(args.file))
    # The whole document is the kernel export; feed it back to `kernel validate`.
    doc = kernel_to_doc(kernel)
    if args.alpha is not None:
        alpha = find_alpha(kernel, args.alpha)
        if alpha is None:
            raise KernelError("UNKNOWN_ALPHA", f"no alpha named {args.alpha!r}")
        lines = [f"{alpha.name} ({alpha.area})"]
        if alpha.description:
            lines.append(alpha.description)
        if alpha.subalphas:
            lines.append(f"sub-alphas: {', '.join(alpha.subalphas)}")
        lines.append("states:")
        marker = " [placeholder]" if has_placeholder_states(alpha) else ""
        for state in alpha.states:
            lines.append(f"  {state.name}{marker}")
            lines.append(f"    summary: {state.summary}")
            lines.extend(f"    {cp.id}: {cp.text}" for cp in state.checkpoints)
        return 0, next(a for a in doc["alphas"] if a["name"] == alpha.name), lines
    lines = [
        f"kernel: {kernel.name}",
        f"areas: {', '.join(area.name for area in kernel.areas)}",
        "alphas:",
    ]
    for alpha in kernel.alphas:
        marker = " [placeholder]" if has_placeholder_states(alpha) else ""
        lines.append(f"  {alpha.name} ({alpha.area}){marker}")
        lines.append(f"    states: {', '.join(alpha.state_names)}")
        if alpha.subalphas:
            lines.append(f"    sub-alphas: {', '.join(alpha.subalphas)}")
    return 0, doc, lines


def _cmd_assess_record(args: argparse.Namespace) -> Output:
    from ._value import remade
    from .engine import CheckpointRecord, record_checkpoint
    from .store import save_project

    project = _load(args.project)
    rec = CheckpointRecord(
        alpha_instance=args.alpha_instance,
        state=args.state,
        checkpoint=args.checkpoint,
        satisfied=args.satisfied == "true",
        evidence=tuple(args.evidence),
        recorded_at=args.at,
    )
    # Validation failure raises before anything is written back, and a
    # fact already in effect returns the same assessment: nothing to write.
    assessment = record_checkpoint(project.assessment, rec)
    if assessment is not project.assessment:
        project = remade(project, assessment=assessment)
        _write_bytes(args.project, save_project(project))
    return 0, {"recorded": entry_docs((rec,), None, ProjectError)[0]}, [
        f"recorded {rec.alpha_instance} {rec.state} {rec.checkpoint} "
        f"satisfied={args.satisfied}"]


def _cmd_assess_state(args: argparse.Namespace) -> Output:
    from .engine import alpha_state

    project = _load(args.project)
    result = alpha_state(project.assessment, args.alpha_instance)
    instance = project.assessment.instance(args.alpha_instance)
    lines = [
        f"instance: {instance.id}",
        f"alpha: {instance.alpha}",
        f"achieved: {result.achieved if result.achieved else '(none)'}",
    ]
    if result.next_state is not None:
        lines.append(f"next: {result.next_state}")
    lines.append(f"blocking: {len(result.blocking)}")
    return 0, {
        "instance": instance.id,
        "alpha": instance.alpha,
        "achieved": result.achieved,
        "achieved-index": result.achieved_index,
        "next": result.next_state,
        "blocking": _blockers_doc(result.blocking),
    }, lines


def _cmd_assess_blocking(args: argparse.Namespace) -> Output:
    from .engine import blocking_checkpoints

    project = _load(args.project)
    blockers = blocking_checkpoints(
        project.assessment, args.alpha_instance, args.target
    )
    lines = [f"{b.state} {b.checkpoint}: {b.text}" for b in blockers]
    return 1 if blockers else 0, {
        "target": args.target,
        "count": len(blockers),
        "blocking": _blockers_doc(blockers),
    }, lines or ["no blocking checkpoints"]


def _cmd_cards(args: argparse.Namespace) -> Output:
    from .engine import render_card

    project = _load(args.project)
    cards = {
        inst.id: render_card(project.assessment, inst.id)
        for inst in project.assessment.instances
    }
    return 0, {
        "cards": [{"instance": inst_id, "card": card}
                  for inst_id, card in cards.items()]
    }, ["\n\n".join(cards.values()) if cards else "(no alpha instances)"]


def _cmd_desig_parse(args: argparse.Namespace) -> Output:
    from .designation import ASPECT_ORDER, format_designation, parse_designation

    d = parse_designation(args.text)
    canonical = format_designation(d)
    by_aspect = d.by_aspect()
    lines = [canonical]
    lines.extend(f"{aspect.value}: {' '.join(by_aspect[aspect].segments)}"
                 for aspect in ASPECT_ORDER if aspect in by_aspect)
    return 0, {
        "canonical": canonical,
        "chains": {
            chain.aspect.value: list(chain.segments)
            for chain in sorted(d.chains, key=lambda c: c.aspect.value)
        },
    }, lines


def _cmd_desig_check(args: argparse.Namespace) -> Output:
    from .designation import (check_at_least_one_unambiguous,
                              format_designation, parse_designation)

    project = _load(args.project)
    d = parse_designation(args.text)
    trees = {tree.aspect: tree for tree in project.trees}
    report = check_at_least_one_unambiguous(trees, d)
    lines = [
        f"{r.chain}: {r.count} {'match' if r.count == 1 else 'matches'}"
        for r in report.resolutions
    ]
    lines.append(f"result: {'pass' if report.ok else 'fail'}")
    return 0 if report.ok else 1, {
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
    }, lines


def _cmd_doc_parse(args: argparse.Namespace) -> Output:
    from .designation import (BUILTIN_DCC_TABLE, format_designation,
                              loads_dcc_table, parse_document_designation)

    if args.dcc_table is not None:
        table = loads_dcc_table(_read_bytes(args.dcc_table))
    else:
        table = BUILTIN_DCC_TABLE
    dd = parse_document_designation(args.text, table)
    system = format_designation(dd.system)
    area_label = table.area_label(dd.area)
    class_label = table.class_label(dd.document_class)
    return 0, {
        "system": system,
        "dcc": dd.dcc,
        "area": dd.area,
        "area-label": area_label,
        "class": dd.document_class,
        "class-label": class_label,
        "table": table.name,
    }, [
        f"system: {system}",
        f"dcc: {dd.dcc}",
        f"area: {dd.area} ({area_label})",
        f"class: {dd.document_class}"
        + ("" if class_label is None else f" ({class_label})"),
    ]


def _cmd_arch_check(args: argparse.Namespace) -> Output:
    from .description import viable_architecture

    project = _load(args.project)
    names = args.views.split(",") if args.views else []
    report = viable_architecture(project.description, names)
    covered = ", ".join(t.value for t in report.covered)
    lines = [f"covered: {covered if covered else '(none)'}"]
    if report.missing:
        lines.append(f"missing: {', '.join(t.value for t in report.missing)}")
    lines.append(f"result: {'pass' if report.ok else 'fail'}")
    return 0 if report.ok else 1, {
        "covered": [t.value for t in report.covered],
        "missing": [t.value for t in report.missing],
        "pass": report.ok,
    }, lines


def _cmd_lint_endeavor(args: argparse.Namespace) -> Output:
    from .description import endeavor_viewpoint_lint

    project = _load(args.project)
    warnings = endeavor_viewpoint_lint(project.description)
    lines = [f"warning: {warning}" for warning in warnings]
    return 1 if warnings else 0, {"warnings": list(warnings)}, lines or ["ok"]


# Plumbing


def _load(path: str):
    """The project in the file at ``path``; the project commands need
    every library module, through ``store``."""
    from .store import load_project

    return load_project(_read_bytes(path))


def _read_bytes(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise EssenceError("IO_ERROR", f"cannot read {path}: {exc}") from exc


def _write_bytes(path: str, data: bytes) -> None:
    """Replace the file whole, synced first: a failed write leaves the
    old bytes, and a crash the old or the new, never a part."""
    try:
        target = Path(path).resolve()
        fd, temp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            shutil.copymode(target, temp)
            os.replace(temp, target)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(temp)
            raise
    except OSError as exc:
        raise EssenceError("IO_ERROR", f"cannot write {path}: {exc}") from exc


def _write_output(out, fmt: str, doc: dict, lines: list[str]) -> None:
    """Write the output whole to ``out``'s raw file, past the buffer that
    would retry a failed write at exit, or raise IO_ERROR. A text stream
    with no binary buffer, such as ``io.StringIO``, takes the text."""
    text = emit(doc, EssenceError) if fmt == "structured" else "\n".join(lines)
    buffer = getattr(out, "buffer", None)
    try:
        if buffer is None:
            out.write(text + "\n")
            return
        data = memoryview((text + "\n").encode(out.encoding, out.errors))
        raw = getattr(buffer, "raw", buffer)
        while data:  # a raw file may take a part
            written = raw.write(data)
            if written is None:  # non-blocking and full: wait for room
                select.select((), (raw,), ())
            else:
                data = data[written:]
    except (UnicodeEncodeError, OSError) as exc:
        raise EssenceError("IO_ERROR", f"cannot write output: {exc}") from exc


def _blockers_doc(blockers) -> list[dict]:
    return [
        {"state": b.state, "checkpoint": b.checkpoint, "text": b.text}
        for b in blockers
    ]


if __name__ == "__main__":
    run()
