"""Whole-project persistence: one deterministic document per project.

A project file carries the kernel reference ("builtin" or an inline
kernel definition), the assessment (instances, work products, records),
the per-aspect breakdown trees, and the description model, as a single
JSON document. Serialization is canonical: fixed key order, insertion
order for lists, coextension classes and bindings sorted, two-space
indent, UTF-8, newline-terminated. Saving the same project twice yields
identical bytes.

Loading checks every entry with the checks of the module operations
that would have built the value, so every dangling reference or
invariant violation surfaces as a SCHEMA_ERROR naming the offending
element; each value is then built once, so loading is linear in the
size of the document.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ._schema import (
    BOOL,
    MAX_TREE_DEPTH,  # re-exported as essencekit.store.MAX_TREE_DEPTH
    Kind,
    check_keys,
    decode,
    encode,
    entries,
    entry_rows,
    enum_of,
    get,
    nested,
    nonempty,
    read_entry,
    text_lists,
)
from ._value import tuple_fields
from .builtin_kernel import builtin_se_kernel
from .description import (
    DescriptionModel,
    ModelBuilder,
    RealizationNode,
    View,
    ViewElement,
    Viewpoint,
)
from .designation import ASPECT_ORDER, Aspect, BreakdownTree
from .engine import (
    AlphaInstance,
    Assessment,
    AssessmentBuilder,
    CheckpointRecord,
    WorkProductInstance,
)
from .errors import KernelError, ProjectError
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
        trees = tuple(sorted(self.trees, key=lambda t: ASPECT_ORDER.index(t.aspect)))
        object.__setattr__(self, "trees", trees)
        for earlier, tree in zip(trees, trees[1:]):
            if tree.aspect is earlier.aspect:
                raise ProjectError(
                    "DUPLICATE_ASPECT",
                    f"two breakdown trees for aspect {tree.aspect.value}",
                    path=f"trees.{tree.aspect.value}",
                )
        if self.assessment.project_id != self.project_id:
            raise ProjectError(
                "PROJECT_ID_MISMATCH",
                f"assessment belongs to project {self.assessment.project_id!r}",
            )
        if self.builtin_kernel and self.assessment.kernel != builtin_se_kernel():
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
    doc = decode(data, ProjectError, "project document")
    check_keys(doc, _PROJECT_KEYS, None, ProjectError)
    version = get(doc, "format-version", int, None, ProjectError)
    if version != FORMAT_VERSION:
        raise ProjectError(
            "UNSUPPORTED_VERSION", f"format-version {version} is not {FORMAT_VERSION}"
        )
    project_id = nonempty(doc, "project-id", None, ProjectError)
    kernel, builtin = _load_kernel(doc.get("kernel", BUILTIN_KERNEL_MARKER))
    assessment = _load_assessment(
        get(doc, "assessment", dict, None, ProjectError, {}),
        project_id=project_id, kernel=kernel,
    )
    trees = _load_trees(get(doc, "trees", dict, None, ProjectError, {}))
    description = _load_description(
        get(doc, "description", dict, None, ProjectError, {})
    )
    return Project(
        project_id=project_id,
        assessment=assessment,
        trees=trees,
        description=description,
        builtin_kernel=builtin,
    )


def save_project(p: Project) -> bytes:
    a, model = p.assessment, p.description
    doc = {
        "format-version": FORMAT_VERSION,
        "project-id": p.project_id,
        "kernel": (
            BUILTIN_KERNEL_MARKER if p.builtin_kernel else kernel_to_doc(p.kernel)
        ),
        "assessment": {
            "strict-evidence": a.strict_evidence,
            "instances": entry_rows(a.instances, "assessment.instances",
                                    ProjectError),
            "work-products": entry_rows(a.work_products,
                                        "assessment.work-products", ProjectError),
            "records": entry_rows(a.records, "assessment.records", ProjectError),
        },
        "trees": {tree.aspect.value: tree for tree in p.trees},
        "description": {
            "viewpoints": entry_rows(model.viewpoints, "description.viewpoints",
                                     ProjectError),
            "views": entry_rows(model.views, "description.views", ProjectError),
            "elements": entry_rows(model.elements, "description.elements",
                                   ProjectError),
            "realization-nodes": entry_rows(
                model.realization_nodes, "description.realization-nodes",
                ProjectError),
            "coextension": text_lists(sorted(tuple(sorted(cls))
                                             for cls in model.coextension),
                                      "description.coextension", ProjectError,
                                      *_TEXT_LISTS["coextension"]),
            "bindings": text_lists(model.bindings, "description.bindings",
                                   ProjectError, *_TEXT_LISTS["bindings"]),
        },
    }
    return encode(doc, ProjectError)


# The description's lists of element ids and node ids: the fewest and
# most items of each, and what a list of another size is refused with.
_TEXT_LISTS = {
    "coextension": (2, float("inf"),
                    "coextension class must list two or more element ids"),
    "bindings": (2, 2, "binding must be a pair of element id and node id"),
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


def _add_entries(raw: dict, at: str, others: set[str],
                 *lists: tuple[str, type, object]) -> None:
    """Read each entry of each ``(key, entry class, add)`` list of ``raw``,
    the map at ``at`` whose other keys are ``others``, and ``add`` it."""
    check_keys(raw, others.union(key for key, _, _ in lists), at, ProjectError)
    for key, cls, add in lists:
        keys = frozenset(key for _, key, _, _ in cls._FIELDS)
        for i, item in enumerate(entries(raw, key, dict, at, ProjectError, ())):
            path = f"{at}.{key}[{i}]"
            check_keys(item, keys, path, ProjectError)
            nested(ProjectError, path, add, read_entry(cls, item, path, ProjectError))


def _load_assessment(
    raw: dict, *, project_id: str, kernel: KernelDefinition
) -> Assessment:
    a = AssessmentBuilder(
        project_id,
        kernel,
        get(raw, "strict-evidence", bool, "assessment", ProjectError, False),
    )
    _add_entries(raw, "assessment", {"strict-evidence"},
                 ("instances", AlphaInstance, a.add_instance),
                 ("work-products", WorkProductInstance, a.add_work_product),
                 ("records", CheckpointRecord, a.record_checkpoint))
    return a.build()


def _load_trees(raw: dict) -> tuple[BreakdownTree, ...]:
    trees = []
    for key, roots in raw.items():
        path = f"trees.{key}"
        aspect = enum_of(key, Aspect, "trees", ProjectError)
        if not isinstance(roots, list):
            raise ProjectError(
                "SCHEMA_ERROR", "tree roots must be a list", path=path
            )
        trees.append(BreakdownTree.from_doc(aspect, roots, path, ProjectError))
    return tuple(trees)


def _load_description(raw: dict) -> DescriptionModel:
    model = ModelBuilder()
    _add_entries(raw, "description", {"coextension", "bindings"},
                 ("viewpoints", Viewpoint, model.add_viewpoint),
                 ("elements", ViewElement, model.add_element),
                 ("views", View, model.add_view),
                 ("realization-nodes", RealizationNode, model.add_realization_node))
    for key, add in (("coextension", model.add_class),
                     ("bindings", lambda pair: model.bind_element(*pair))):
        fewest, most, message = _TEXT_LISTS[key]
        for i, items in enumerate(entries(raw, key, list, "description",
                                          ProjectError, ())):
            path = f"description.{key}[{i}]"
            if (not fewest <= len(items) <= most
                    or not all(isinstance(item, str) for item in items)):
                raise ProjectError("SCHEMA_ERROR", message, path=path)
            nested(ProjectError, path, add, items)
    return model.build()
