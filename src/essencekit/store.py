"""Whole-project persistence: one deterministic document per project.

A project file carries the kernel reference ("builtin" or an inline
kernel definition), the assessment, the per-aspect breakdown trees, and
the description model, as a single JSON document. One table, ``_LISTS``,
states the lists of the assessment and description maps for both
reading and writing. Serialization is canonical: fixed key order,
insertion order for lists, coextension classes and bindings sorted,
two-space indent, UTF-8, newline-terminated. Saving the same project
twice yields identical bytes.

Loading reads the instances, records, elements and realization-nodes
lists as columns, through ``read_columns``, and the builders check a
whole list's references and duplicates at once. The other lists, which
columns do not speed up (README, "What values cost"), a list that leaves
out a key, and one that the reader or a builder would refuse are read item
by item, through ``read_entry`` and the checks of the module operation
that would have added each entry: every dangling reference or invariant
violation surfaces as a SCHEMA_ERROR naming the offending element.
Each value is built once, so loading is linear in file size.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, NamedTuple

from ._schema import (
    BOOL,
    Kind,
    _at,
    check_keys,
    decode,
    encode,
    entries,
    entry_rows,
    get,
    nested,
    nonempty,
    read_columns,
    read_entry,
    text_lists,
)
from ._value import tuple_fields
from .builtin_kernel import builtin_se_kernel
from .description import (
    _BINDING,
    _CLASS,
    DescriptionModel,
    ModelBuilder,
    RealizationNode,
    View,
    ViewElement,
    Viewpoint,
)
from .designation import MAX_TREE_DEPTH  # re-exported as store.MAX_TREE_DEPTH
from .designation import Aspect, BreakdownTree, in_aspect_order, read_trees
from .engine import (
    AlphaInstance,
    Assessment,
    AssessmentBuilder,
    CheckpointRecord,
    WorkProductInstance,
)
from .errors import EssenceError, KernelError, ProjectError
from .metamodel import (
    KernelDefinition,
    kernel_from_doc,
    kernel_to_doc,
    validate_kernel,
)

FORMAT_VERSION = 1

BUILTIN_KERNEL_MARKER = "builtin"


@dataclass(frozen=True)
class Project:
    project_id: str
    assessment: Assessment
    trees: tuple[BreakdownTree, ...] = ()
    description: DescriptionModel = field(default_factory=DescriptionModel)
    builtin_kernel: bool = True

    def __post_init__(self) -> None:
        Kind(str, empty="EMPTY_ID").check(self.project_id, "project id", ProjectError)
        Kind(Assessment).check(self.assessment, "assessment", ProjectError)
        BOOL.check(self.assessment.strict_evidence, "strict_evidence", ProjectError)
        Kind(DescriptionModel).check(self.description, "description", ProjectError)
        tuple_fields(self, ProjectError, ("trees", BreakdownTree, "tree"))
        object.__setattr__(self, "trees", in_aspect_order(
            self.trees, lambda aspect: ProjectError(
                "DUPLICATE_ASPECT", f"two breakdown trees for aspect {aspect.value}",
                path=f"trees.{aspect.value}")))
        if self.assessment.project_id != self.project_id:
            raise ProjectError(
                "PROJECT_ID_MISMATCH",
                f"assessment belongs to project {self.assessment.project_id!r}",
            )
        if not self.builtin_kernel:
            _valid_kernel(self.assessment.kernel)
        elif self.assessment.kernel != builtin_se_kernel():
            raise ProjectError(
                "KERNEL_MISMATCH",
                "project marked builtin-kernel but assessment uses another kernel",
            )

    @property
    def kernel(self) -> KernelDefinition:
        return self.assessment.kernel

    def tree_for(self, aspect: Aspect) -> BreakdownTree | None:
        for tree in self.trees:
            if tree.aspect is aspect:
                return tree
        return None


def new_project(
    project_id: str,
    *,
    kernel: KernelDefinition | None = None,
    strict_evidence: bool = False,
) -> Project:
    """An empty project; a custom kernel's first finding is a KernelError."""
    return Project(
        project_id=project_id,
        assessment=Assessment(
            project_id=project_id,
            kernel=builtin_se_kernel() if kernel is None else _valid_kernel(kernel),
            strict_evidence=strict_evidence,
        ),
        builtin_kernel=kernel is None,
    )


def load_project(data: bytes | str) -> Project:
    """The project a document holds, or its first finding as an error.

    The cyclic collector is paused from decode through build, as nothing
    a load makes forms a cycle, and turned back on only if it was on:
    accepted or refused, the load leaves it as it found it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        doc = decode(data, ProjectError, "project document")
        check_keys(doc, _PROJECT_KEYS, None, ProjectError)
        version = get(doc, "format-version", int, None, ProjectError)
        if version != FORMAT_VERSION:
            raise ProjectError("UNSUPPORTED_VERSION",
                               f"format-version {version} is not {FORMAT_VERSION}")
        project_id = nonempty(doc, "project-id", None, ProjectError)
        kernel, builtin = _load_kernel(doc.get("kernel", BUILTIN_KERNEL_MARKER))
        raw = get(doc, "assessment", dict, None, ProjectError, {})
        assessment = _read_lists(raw, "assessment", AssessmentBuilder(Assessment(
            project_id, kernel,
            strict_evidence=get(raw, "strict-evidence", bool, "assessment",
                                ProjectError, False),
        )), "strict-evidence")
        trees = read_trees(get(doc, "trees", dict, None, ProjectError, {}),
                           ProjectError)
        description = _read_lists(
            get(doc, "description", dict, None, ProjectError, {}),
            "description", ModelBuilder(DescriptionModel()))
        return Project(
            project_id=project_id,
            assessment=assessment,
            trees=trees,
            description=description,
            builtin_kernel=builtin,
        )
    finally:
        if enabled:
            gc.enable()


def save_project(p: Project) -> bytes:
    Kind(Project).check(p, "project", ProjectError)
    doc = {
        "format-version": FORMAT_VERSION,
        "project-id": p.project_id,
        "kernel": (
            BUILTIN_KERNEL_MARKER if p.builtin_kernel else kernel_to_doc(p.kernel)
        ),
        "assessment": {"strict-evidence": p.assessment.strict_evidence},
        "trees": {tree.aspect.value: tree for tree in p.trees},
        "description": {},
    }
    for at, value in (("assessment", p.assessment), ("description", p.description)):
        for key, shape, *_ in _LISTS[at]:
            items = getattr(value, key.replace("-", "_"))
            if isinstance(shape, tuple):
                if isinstance(items, frozenset):  # a set of classes: sorted
                    items = sorted(tuple(sorted(cls)) for cls in items)
                doc[at][key] = text_lists(items)
            else:
                doc[at][key] = entry_rows(items, f"{at}.{key}", ProjectError)
    return encode(doc, ProjectError)


class _List(NamedTuple):
    key: str  # the file key; in snake case, the section value's attribute
    shape: type | tuple  # entry class, or an id list's fewest, most, refusal
    add: Callable  # the builder operation that adds an item
    add_all: Callable | None = None  # ... adds a list read as columns, or False
    after: str = ""  # the list, held later in the file, to read this after


# The lists of the assessment and description maps, in file order.
_LISTS = {
    "assessment": (
        _List("instances", AlphaInstance, AssessmentBuilder.add_instance,
              AssessmentBuilder.add_instances),
        _List("work-products", WorkProductInstance, AssessmentBuilder.add_work_product),
        _List("records", CheckpointRecord, AssessmentBuilder.record_checkpoint,
              AssessmentBuilder.record_checkpoints),
    ),
    "description": (
        _List("viewpoints", Viewpoint, ModelBuilder.add_viewpoint),
        _List("views", View, ModelBuilder.add_view, after="elements"),
        _List("elements", ViewElement, ModelBuilder.add_element,
              ModelBuilder.add_elements),
        _List("realization-nodes", RealizationNode, ModelBuilder.add_realization_node,
              ModelBuilder.add_realization_nodes),
        _List("coextension", _CLASS, ModelBuilder.add_class),
        _List("bindings", _BINDING, lambda model, pair: model.bind_element(*pair)),
    ),
}


# Loading

_PROJECT_KEYS = frozenset({"format-version", "project-id", "kernel",
                           "assessment", "trees", "description"})


def _load_kernel(raw: object) -> tuple[KernelDefinition, bool]:
    if raw == BUILTIN_KERNEL_MARKER:
        return builtin_se_kernel(), True
    if not isinstance(raw, dict):
        raise ProjectError(
            "SCHEMA_ERROR",
            f'kernel must be "{BUILTIN_KERNEL_MARKER}" or an inline kernel map',
            path="kernel",
        )
    return nested(ProjectError, "kernel",
                  lambda: _valid_kernel(kernel_from_doc(raw))), False


def _valid_kernel(kernel: KernelDefinition) -> KernelDefinition:
    Kind(KernelDefinition).check(kernel, "kernel", ProjectError)
    report = validate_kernel(kernel)
    if not report.ok:
        finding = report.findings[0]
        raise KernelError(finding.code, finding.message, path=finding.path)
    return kernel


def _read_lists(raw: dict, at: str, builder: AssessmentBuilder | ModelBuilder,
                *others: str) -> Assessment | DescriptionModel:
    """What ``builder`` builds from the ``at`` map ``raw``, whose keys
    besides its lists' are ``others``: each list read and added as its
    row says, in ``_READ`` order. A list with a list operation is read
    as columns and added whole; when either would refuse an entry, and
    for other lists, each item is read and added in turn, to place a
    refusal at its item and word a builder's, as ``nested`` does."""
    check_keys(raw, {*others, *(row.key for row in _LISTS[at])}, at, ProjectError)
    for (key, shape, add, add_all, _), fields in _READ[at]:
        items = entries(raw, key, dict if fields else list, at, ProjectError, ())
        if add_all:
            read = read_columns(shape, items, ProjectError)
            if read is not None and add_all(builder, read):
                continue
        texts = not fields and {str}.issuperset(map(type, chain.from_iterable(items)))
        try:
            for i, item in enumerate(items):
                if fields:
                    if not fields.issuperset(item):
                        check_keys(item, fields, None, ProjectError)
                    item = read_entry(shape, item, None, ProjectError)
                elif not shape[0] <= len(item) <= shape[1] or not texts and not all(
                        isinstance(text, str) for text in item):
                    raise ProjectError("SCHEMA_ERROR", shape[2])
                add(builder, item)
        except EssenceError as exc:
            own = isinstance(exc, ProjectError)
            raise ProjectError(
                exc.code if own else "SCHEMA_ERROR",
                exc.message if own else f"{exc.code}: {exc.message}",
                path=_at(f"{at}.{key}[{i}]", exc.path)) from exc
    return builder.build()


# Each section's lists in read order, with the keys their entries may hold.
_READ = {at: [(row, isinstance(row.shape, type)
               and frozenset(field[1] for field in row.shape._FIELDS))
              for row in sorted(rows, key=lambda row: (
                  [r.key for r in rows].index(row.after or row.key), row.after))]
         for at, rows in _LISTS.items()}
