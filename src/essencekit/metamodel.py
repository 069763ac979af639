"""Method meta-model: kernels, alphas, states, checkpoints, work products.

A kernel is the ontology of a discipline: alphas grouped into three fixed
areas of concern, each alpha carrying an ordered list of states, each state
a checklist of checkpoints. Alphas may subordinate other alphas; the
sub-alpha relation must form a forest (every sub-alpha has exactly one
parent, no cycles). Work product definitions name the document kinds that
evidence an alpha.

All types are immutable values: validation results can be cached, and any
value is safe to share between threads. ``validate_kernel`` reports
invariant violations as data rather than raising, so a definition under
construction can be inspected without try/except scaffolding.

Kernel definitions interchange as JSON documents, whose schema the
``_FIELDS`` tables of the value classes state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ._schema import (TEXT, Entries, Kind, Texts, check_fields, decode, encode,
                      entry_docs, read_entry)
from ._value import by_fields, find, tuple_fields
from .errors import KernelError

#: The fixed vocabulary of areas of concern.
AREA_NAMES = ("Customer", "Solution", "Endeavor")


@dataclass(frozen=True)
class AreaOfConcern:
    """One of the three fixed groupings of alphas."""

    name: str

    def __post_init__(self) -> None:
        TEXT.check(self.name, "area", KernelError)


@dataclass(frozen=True)
class Checkpoint:
    """A single checklist criterion within a state.

    ``id`` is a short token unique within its state; ``text`` is the
    checklist sentence exactly as assessed.
    """

    id: str
    text: str

    _FIELDS = (("id", "id", TEXT, "checkpoint id"),
               ("text", "text", TEXT, "checkpoint text"))

    def __post_init__(self) -> None:
        check_fields(self, Checkpoint, KernelError)


@dataclass(frozen=True)
class StateDefinition:
    """A named state with its checklist; order of states is significant."""

    name: str
    summary: str = ""
    checkpoints: tuple[Checkpoint, ...] = ()

    _FIELDS = (("name", "name", TEXT, "state name"),
               ("summary", "summary", TEXT, "state summary"),
               ("checkpoints", "checkpoints", Entries(Checkpoint), "checkpoints"))

    def __post_init__(self) -> None:
        tuple_fields(self, KernelError, ("checkpoints", Checkpoint, "checkpoint"))
        check_fields(self, StateDefinition, KernelError)

    def checkpoint(self, checkpoint_id: str) -> Checkpoint | None:
        for cp in self.checkpoints:
            if cp.id == checkpoint_id:
                return cp
        return None


@dataclass(frozen=True)
class AlphaDefinition:
    """An essential, progress-trackable concern of an endeavor."""

    name: str
    area: str
    description: str = ""
    states: tuple[StateDefinition, ...] = ()
    subalphas: tuple[str, ...] = ()

    _FIELDS = (("name", "name", TEXT, "alpha name"),
               ("area", "area", TEXT, "area"),
               ("description", "description", TEXT, "description"),
               ("states", "states", Entries(StateDefinition), "states"),
               ("subalphas", "subalphas", Texts(
                   "sub-alpha reference", "sub-alpha reference must be text",
                   omit=True), "subalphas"))

    def __post_init__(self) -> None:
        tuple_fields(self, KernelError, ("states", StateDefinition, "state"),
                     ("subalphas", str, "sub-alpha reference"))
        check_fields(self, AlphaDefinition, KernelError)

    @property
    def state_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.states)

    def state(self, name: str) -> StateDefinition | None:
        for s in self.states:
            if s.name == name:
                return s
        return None


@dataclass(frozen=True)
class WorkProductDefinition:
    """A kind of concrete artifact that evidences one alpha."""

    name: str
    evidences: str
    kind: str = "document"

    _FIELDS = (("name", "name", TEXT, "work product name"),
               ("evidences", "evidences", TEXT, "evidenced alpha"),
               ("kind", "kind", TEXT, "work product kind"))

    def __post_init__(self) -> None:
        check_fields(self, WorkProductDefinition, KernelError)


class _Areas(Texts):
    """Areas of concern, which a file holds as the list of their names."""

    def load(self, raw, path, key, error):
        return tuple(map(AreaOfConcern, super().load(raw, path, key, error)))

    def dump(self, values, path, key, error):
        return [[area.name for area in areas] for areas in values]


@dataclass(frozen=True)
class KernelDefinition:
    """A complete method kernel: areas, alphas, and work product kinds."""

    name: str
    areas: tuple[AreaOfConcern, ...]
    alphas: tuple[AlphaDefinition, ...]
    workproducts: tuple[WorkProductDefinition, ...] = ()

    _FIELDS = (("name", "name", TEXT, "kernel name"),
               ("areas", "areas", _Areas("area", "area must be text"), "areas"),
               ("alphas", "alphas", Entries(AlphaDefinition), "alphas"),
               ("workproducts", "workproducts",
                Entries(WorkProductDefinition, omit=True), "work products"))

    def __post_init__(self) -> None:
        TEXT.check(self.name, "kernel name", KernelError)
        tuple_fields(self, KernelError, ("areas", AreaOfConcern, "area"),
                     ("alphas", AlphaDefinition, "alpha"),
                     ("workproducts", WorkProductDefinition, "work product"))
        # Name indices: the first alpha or work product with a name is the
        # one found; validate_kernel reports the others. The checkpoint
        # keys are each (alpha, state, checkpoint) triple a record may name.
        vars(self).update(
            _alphas_by_name={a.name: a for a in reversed(self.alphas)},
            _workproducts_by_name={wp.name: wp for wp in reversed(self.workproducts)},
            _checkpoint_keys=frozenset(
                (alpha.name, state.name, cp.id) for alpha in self.alphas
                for state in alpha.states for cp in state.checkpoints))

    __reduce__ = by_fields

    @property
    def root_alphas(self) -> tuple[AlphaDefinition, ...]:
        """Kernel-level alphas: those not subordinated to any other alpha."""
        subordinated = {name for a in self.alphas for name in a.subalphas}
        return tuple(a for a in self.alphas if a.name not in subordinated)

    def workproduct(self, name: str) -> WorkProductDefinition | None:
        return find(self._workproducts_by_name, name)


@dataclass(frozen=True)
class Finding:
    """One invariant violation: machine-readable code plus element path."""

    code: str
    path: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of ``validate_kernel``: empty findings means a valid kernel."""

    findings: tuple[Finding, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.findings

    def codes(self) -> tuple[str, ...]:
        return tuple(f.code for f in self.findings)


def find_alpha(kernel: KernelDefinition, name: str) -> AlphaDefinition | None:
    """Return the first alpha with exactly this name, or None."""
    if kernel.__class__ is not KernelDefinition:  # one test on every load
        Kind(KernelDefinition).check(kernel, "kernel", KernelError)
    return find(kernel._alphas_by_name, name)


def validate_kernel(kernel: KernelDefinition) -> ValidationReport:
    """Check every meta-model invariant; violations come back as findings.

    Pure: equal kernels yield equal reports. Findings are data, never
    exceptions, so partially built kernels can be inspected freely. A
    ``kernel`` that is no kernel is refused, UNSUPPORTED_VALUE.
    """
    Kind(KernelDefinition).check(kernel, "kernel", KernelError)
    findings: list[Finding] = []

    def flag(code: str, path: str, message: str) -> None:
        findings.append(Finding(code, path, message))

    area_names: list[str] = []
    for i, area in enumerate(kernel.areas):
        path = f"areas[{i}]"
        if area.name not in AREA_NAMES:
            flag("INVALID_AREA", path,
                 f"area {area.name!r} is not one of {', '.join(AREA_NAMES)}")
        if area.name in area_names:
            flag("DUPLICATE_AREA", path, f"area {area.name!r} defined twice")
        area_names.append(area.name)

    seen_alphas: set[str] = set()
    for i, alpha in enumerate(kernel.alphas):
        apath = f"alphas[{i}]"
        if not alpha.name:
            flag("EMPTY_ALPHA_NAME", apath, "alpha has an empty name")
        if alpha.name in seen_alphas:
            flag("DUPLICATE_ALPHA", apath,
                 f"alpha {alpha.name!r} defined more than once")
        seen_alphas.add(alpha.name)
        if alpha.area not in area_names:
            flag("UNKNOWN_AREA", f"{apath}.area",
                 f"alpha {alpha.name!r} references undefined area {alpha.area!r}")
        if not alpha.states:
            flag("EMPTY_STATES", f"{apath}.states",
                 f"alpha {alpha.name!r} defines no states")
        seen_states: set[str] = set()
        for j, state in enumerate(alpha.states):
            spath = f"{apath}.states[{j}]"
            if not state.name:
                flag("EMPTY_STATE_NAME", spath, "state has an empty name")
            if state.name in seen_states:
                flag("DUPLICATE_STATE", spath,
                     f"state {state.name!r} defined twice in alpha {alpha.name!r}")
            seen_states.add(state.name)
            if not state.checkpoints:
                flag("EMPTY_CHECKPOINTS", f"{spath}.checkpoints",
                     f"state {state.name!r} has no checkpoints")
            seen_cps: set[str] = set()
            for k, cp in enumerate(state.checkpoints):
                cpath = f"{spath}.checkpoints[{k}]"
                if not cp.id:
                    flag("EMPTY_CHECKPOINT_ID", cpath, "checkpoint id is empty")
                if not cp.text:
                    flag("EMPTY_CHECKPOINT_TEXT", cpath,
                         f"checkpoint {cp.id!r} has empty text")
                if cp.id in seen_cps:
                    flag("DUPLICATE_CHECKPOINT", cpath,
                         f"checkpoint id {cp.id!r} repeated in state {state.name!r}")
                seen_cps.add(cp.id)

    defined = {a.name for a in kernel.alphas}
    parents: dict[str, list[str]] = {}
    for i, alpha in enumerate(kernel.alphas):
        seen_here: set[str] = set()
        for j, sub in enumerate(alpha.subalphas):
            spath = f"alphas[{i}].subalphas[{j}]"
            if sub not in defined:
                flag("UNKNOWN_SUBALPHA", spath,
                     f"alpha {alpha.name!r} lists undefined sub-alpha {sub!r}")
                continue
            if sub in seen_here:
                flag("DUPLICATE_SUBALPHA", spath,
                     f"alpha {alpha.name!r} lists sub-alpha {sub!r} twice")
                continue
            seen_here.add(sub)
            parents.setdefault(sub, []).append(alpha.name)

    for sub, plist in parents.items():
        if len(plist) > 1:
            flag("SUBALPHA_MULTIPLE_PARENTS", f"alphas[{sub}]",
                 f"sub-alpha {sub!r} has parents {', '.join(sorted(plist))}")

    findings.extend(_cycle_findings(kernel, defined))

    seen_wps: set[str] = set()
    for i, wp in enumerate(kernel.workproducts):
        wpath = f"workproducts[{i}]"
        if not wp.name:
            flag("EMPTY_WORKPRODUCT_NAME", wpath, "work product has an empty name")
        if wp.name in seen_wps:
            flag("DUPLICATE_WORKPRODUCT", wpath,
                 f"work product {wp.name!r} defined twice")
        seen_wps.add(wp.name)
        if wp.evidences not in defined:
            flag("UNKNOWN_EVIDENCED_ALPHA", f"{wpath}.evidences",
                 f"work product {wp.name!r} evidences undefined alpha {wp.evidences!r}")

    return ValidationReport(tuple(findings))


def _cycle_findings(kernel: KernelDefinition, defined: set[str]) -> list[Finding]:
    """Detect cycles in the sub-alpha graph, one finding per cycle found.

    The depth-first walk keeps its own stack, so a long sub-alpha chain
    cannot exhaust the interpreter's.
    """
    graph = {a.name: [s for s in a.subalphas if s in defined]
             for a in kernel.alphas}
    findings: list[Finding] = []
    # 0 = unvisited, 1 = on the trail, 2 = done
    color: dict[str, int] = dict.fromkeys(graph, 0)
    for start in graph:
        if color[start]:
            continue
        color[start] = 1
        trail = [start]
        children = [iter(graph[start])]
        while children:
            for child in children[-1]:
                if color[child] == 1:
                    cycle = trail[trail.index(child):] + [child]
                    findings.append(Finding(
                        "SUBALPHA_CYCLE", f"alphas[{child}]",
                        "sub-alpha cycle: " + " -> ".join(cycle)))
                elif color[child] == 0:
                    color[child] = 1
                    trail.append(child)
                    children.append(iter(graph[child]))
                    break
            else:
                color[trail.pop()] = 2
                children.pop()
    return findings


def subalpha_closure(kernel: KernelDefinition, name: str) -> list[str]:
    """All transitive sub-alphas of an alpha, depth-first, root excluded.

    Raises UNKNOWN_ALPHA if the alpha does not exist. On a valid kernel
    (a forest) every name appears at most once; a visited guard keeps the
    walk terminating even on malformed input.
    """
    Kind(KernelDefinition).check(kernel, "kernel", KernelError)
    by_name = kernel._alphas_by_name
    root = find(by_name, name)
    if root is None:
        raise KernelError("UNKNOWN_ALPHA", f"no alpha named {name!r}")
    ordered: list[str] = []
    visited: set[str] = {name}
    pending = list(reversed(root.subalphas))
    while pending:
        sub = pending.pop()
        if sub in visited:
            continue
        visited.add(sub)
        child = by_name.get(sub)
        if child is None:
            continue
        ordered.append(sub)
        pending.extend(reversed(child.subalphas))
    return ordered


# ---------------------------------------------------------------------------
# Kernel document interchange (JSON): the map of a KernelDefinition, each
# value's keys as its _FIELDS table names them.
# ---------------------------------------------------------------------------


def kernel_from_doc(doc: Any) -> KernelDefinition:
    """Build a kernel value from a parsed document tree.

    Only shape errors raise (SCHEMA_ERROR); semantic invariants are the
    business of ``validate_kernel`` so that a loaded-but-invalid kernel can
    still be reported finding by finding. Keys the schema does not name
    are ignored.
    """
    if not isinstance(doc, dict):
        raise KernelError("SCHEMA_ERROR", "kernel document must be a map")
    return read_entry(KernelDefinition, doc, None, KernelError)


def kernel_to_doc(kernel: KernelDefinition) -> dict[str, Any]:
    """Serialize a kernel to its document tree, keys in schema order."""
    Kind(KernelDefinition).check(kernel, "kernel", KernelError)
    return entry_docs((kernel,), None, KernelError)[0]


def loads_kernel(text: str | bytes) -> KernelDefinition:
    """Parse a kernel document; PARSE_ERROR on bad JSON, SCHEMA_ERROR on shape."""
    return kernel_from_doc(decode(text, KernelError, "kernel document"))


def dumps_kernel(kernel: KernelDefinition) -> str:
    """Render a kernel document; byte-identical for equal kernels.

    A value that a kernel document cannot hold, text with a lone
    surrogate included, is KernelError UNSUPPORTED_VALUE at its path.
    """
    return encode(kernel_to_doc(kernel), KernelError).decode("utf-8")
