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

from collections.abc import Iterable
from dataclasses import dataclass, field
from enum import Enum

from ._schema import (
    MAX_TREE_DEPTH,  # re-exported as essencekit.store.MAX_TREE_DEPTH
    check_keys,
    decode,
    encode,
    entries,
    enum_of,
    get,
    nested,
    nonempty,
    texts,
)
from ._value import unsupported
from .builtin_kernel import builtin_se_kernel
from .description import (
    DescriptionKind,
    DescriptionModel,
    ModelBuilder,
    RealizationNode,
    StructureType,
    View,
    ViewElement,
    Viewpoint,
)
from .designation import (
    ASPECT_ORDER,
    BUILTIN_DCC_TABLE,
    Aspect,
    BreakdownTree,
    DocumentDesignation,
    format_document_designation,
    parse_designation,
    parse_document_designation,
)
from .engine import (
    AlphaInstance,
    Assessment,
    AssessmentBuilder,
    CheckpointRecord,
    SystemLevel,
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
        if not isinstance(self.project_id, str):
            raise unsupported(ProjectError, "project id", "text", self.project_id)
        if not self.project_id:
            raise ProjectError("EMPTY_ID", "project id is empty")
        if not isinstance(self.assessment, Assessment):
            raise unsupported(ProjectError, "assessment", "an Assessment",
                              self.assessment)
        if not isinstance(self.assessment.strict_evidence, bool):
            raise unsupported(ProjectError, "strict_evidence", "a bool",
                              self.assessment.strict_evidence)
        if not isinstance(self.description, DescriptionModel):
            raise unsupported(ProjectError, "description",
                              "a DescriptionModel", self.description)
        if not isinstance(self.trees, Iterable):
            raise unsupported(ProjectError, "trees",
                              "a sequence of BreakdownTrees", self.trees)
        trees = tuple(self.trees)
        for tree in trees:
            if not isinstance(tree, BreakdownTree):
                raise unsupported(ProjectError, "tree", "a BreakdownTree", tree)
        trees = tuple(sorted(trees, key=lambda t: ASPECT_ORDER.index(t.aspect)))
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
    doc = {
        "format-version": FORMAT_VERSION,
        "project-id": p.project_id,
        "kernel": (
            BUILTIN_KERNEL_MARKER if p.builtin_kernel else kernel_to_doc(p.kernel)
        ),
        "assessment": _assessment_doc(p.assessment),
        "trees": {tree.aspect.value: tree for tree in p.trees},
        "description": _description_doc(p.description),
    }
    return encode(doc, ProjectError)


# Loading

_PROJECT_KEYS = frozenset({"format-version", "project-id", "kernel",
                           "assessment", "trees", "description"})
_ASSESSMENT_KEYS = frozenset({"strict-evidence", "instances", "work-products",
                              "records"})
_INSTANCE_KEYS = frozenset({"id", "alpha", "system-level"})
_WORK_PRODUCT_KEYS = frozenset({"id", "definition", "label",
                                "document-designation"})
_RECORD_KEYS = frozenset({"alpha-instance", "state", "checkpoint", "satisfied",
                          "evidence", "recorded-at"})
_DESCRIPTION_KEYS = frozenset({"viewpoints", "views", "elements",
                               "realization-nodes", "coextension", "bindings"})
_VIEWPOINT_KEYS = frozenset({"name", "structure-type", "concerns",
                             "description-kind"})
_ELEMENT_KEYS = frozenset({"id", "label", "has-extent"})
_VIEW_KEYS = frozenset({"name", "viewpoint", "elements"})
_REALIZATION_NODE_KEYS = frozenset({"id", "designators"})


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
    if not isinstance(kernel, KernelDefinition):
        raise unsupported(ProjectError, "kernel", "a KernelDefinition", kernel)
    report = validate_kernel(kernel)
    if not report.ok:
        finding = report.findings[0]
        raise KernelError(finding.code, finding.message, path=finding.path)
    return kernel


def _maps(raw: dict, key: str, at: str, allowed: frozenset[str]):
    """Each map of the entry list ``raw[key]`` with its path, keys checked."""
    for i, item in enumerate(entries(raw, key, dict, at, ProjectError, ())):
        path = f"{at}.{key}[{i}]"
        check_keys(item, allowed, path, ProjectError)
        yield item, path


def _member(item: dict, key: str, path: str, default: Enum):
    """The member of ``default``'s enum that ``item[key]`` names."""
    value = get(item, key, str, path, ProjectError, default.value)
    return enum_of(value, type(default), f"{path}.{key}", ProjectError)


def _load_assessment(
    raw: dict, *, project_id: str, kernel: KernelDefinition
) -> Assessment:
    check_keys(raw, _ASSESSMENT_KEYS, "assessment", ProjectError)
    a = AssessmentBuilder(
        project_id,
        kernel,
        get(raw, "strict-evidence", bool, "assessment", ProjectError, False),
    )
    for item, path in _maps(raw, "instances", "assessment", _INSTANCE_KEYS):
        inst = AlphaInstance(
            id=nonempty(item, "id", path, ProjectError),
            alpha=get(item, "alpha", str, path, ProjectError),
            system_level=_member(item, "system-level", path,
                                 SystemLevel.SYSTEM_OF_INTEREST),
        )
        nested(ProjectError, path, a.add_instance, inst)
    for item, path in _maps(raw, "work-products", "assessment",
                            _WORK_PRODUCT_KEYS):
        text = get(item, "document-designation", str, path, ProjectError, None)
        designation = None if text is None else nested(
            ProjectError, f"{path}.document-designation",
            parse_document_designation, text)
        wp = WorkProductInstance(
            id=nonempty(item, "id", path, ProjectError),
            definition=get(item, "definition", str, path, ProjectError),
            label=get(item, "label", str, path, ProjectError, ""),
            document_designation=designation,
        )
        nested(ProjectError, path, a.add_work_product, wp)
    for item, path in _maps(raw, "records", "assessment", _RECORD_KEYS):
        rec = CheckpointRecord(
            alpha_instance=get(item, "alpha-instance", str, path, ProjectError),
            state=get(item, "state", str, path, ProjectError),
            checkpoint=get(item, "checkpoint", str, path, ProjectError),
            satisfied=get(item, "satisfied", bool, path, ProjectError),
            evidence=tuple(texts(item, "evidence", path, ProjectError,
                                 "evidence ids must be text", ())),
            recorded_at=get(item, "recorded-at", int, path, ProjectError, 0),
        )
        nested(ProjectError, path, a.record_checkpoint, rec)
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
    check_keys(raw, _DESCRIPTION_KEYS, "description", ProjectError)
    model = ModelBuilder()
    for item, path in _maps(raw, "viewpoints", "description", _VIEWPOINT_KEYS):
        vp = Viewpoint(
            name=nonempty(item, "name", path, ProjectError),
            structure_type=_member(item, "structure-type", path,
                                   StructureType.OTHER),
            concerns=tuple(texts(item, "concerns", path, ProjectError,
                                 "concerns must be text", ())),
            description_kind=_member(item, "description-kind", path,
                                     DescriptionKind.OTHER),
        )
        nested(ProjectError, path, model.add_viewpoint, vp)
    for item, path in _maps(raw, "elements", "description", _ELEMENT_KEYS):
        elem = ViewElement(
            id=nonempty(item, "id", path, ProjectError),
            label=get(item, "label", str, path, ProjectError, ""),
            has_extent=get(item, "has-extent", bool, path, ProjectError, False),
        )
        nested(ProjectError, path, model.add_element, elem)
    for item, path in _maps(raw, "views", "description", _VIEW_KEYS):
        view = View(
            name=nonempty(item, "name", path, ProjectError),
            viewpoint=get(item, "viewpoint", str, path, ProjectError),
            elements=tuple(texts(item, "elements", path, ProjectError,
                                 "view elements must be element ids", ())),
        )
        nested(ProjectError, path, model.add_view, view)
    for item, path in _maps(raw, "realization-nodes", "description",
                            _REALIZATION_NODE_KEYS):
        chains = []
        designators = get(item, "designators", dict, path, ProjectError, {})
        for key, text in designators.items():
            chain_path = f"{path}.designators.{key}"
            aspect = enum_of(key, Aspect, f"{path}.designators", ProjectError)
            if not isinstance(text, str):
                raise ProjectError(
                    "SCHEMA_ERROR", "designator must be text", path=chain_path
                )
            parsed = nested(ProjectError, chain_path, parse_designation, text)
            if len(parsed.chains) != 1 or parsed.chains[0].aspect is not aspect:
                raise ProjectError(
                    "SCHEMA_ERROR",
                    f"designator must be a single {aspect.value} chain",
                    path=chain_path,
                )
            chains.append(parsed.chains[0])
        node = RealizationNode(id=nonempty(item, "id", path, ProjectError),
                               designators=tuple(chains))
        nested(ProjectError, path, model.add_realization_node, node)
    for i, members in enumerate(entries(raw, "coextension", list,
                                        "description", ProjectError, ())):
        path = f"description.coextension[{i}]"
        if len(members) < 2 or not all(isinstance(m, str) for m in members):
            raise ProjectError(
                "SCHEMA_ERROR",
                "coextension class must list two or more element ids",
                path=path,
            )
        nested(ProjectError, path, model.add_class, members)
    for i, pair in enumerate(entries(raw, "bindings", list, "description",
                                     ProjectError, ())):
        path = f"description.bindings[{i}]"
        if len(pair) != 2 or not all(isinstance(p, str) for p in pair):
            raise ProjectError(
                "SCHEMA_ERROR",
                "binding must be a pair of element id and node id",
                path=path,
            )
        nested(ProjectError, path, model.bind_element, pair[0], pair[1])
    return model.build()


# Saving


def _assessment_doc(a: Assessment) -> dict:
    instances = [
        {
            "id": inst.id,
            "alpha": inst.alpha,
            "system-level": inst.system_level.value,
        }
        for inst in a.instances
    ]
    work_products = []
    for i, wp in enumerate(a.work_products):
        item = {"id": wp.id, "definition": wp.definition, "label": wp.label}
        designation = wp.document_designation
        if designation is not None:
            path = f"assessment.work-products[{i}].document-designation"
            if not isinstance(designation, DocumentDesignation):
                raise ProjectError(
                    "UNSUPPORTED_VALUE",
                    f"type {type(designation).__name__} cannot be saved",
                    path=path,
                )
            text = format_document_designation(designation)
            # Only the builtin table loads back, so refuse what would not.
            if (designation.table_ref != BUILTIN_DCC_TABLE.name
                    or BUILTIN_DCC_TABLE.area_label(designation.area) is None):
                raise ProjectError(
                    "CUSTOM_DCC_TABLE",
                    f"{text!r} is not a document designation of the builtin "
                    "DCC table",
                    path=path,
                )
            item["document-designation"] = text
        work_products.append(item)
    return {
        "strict-evidence": a.strict_evidence,
        "instances": instances,
        "work-products": work_products,
        "records": [record_doc(rec) for rec in a.records],
    }


def record_doc(rec: CheckpointRecord) -> dict:
    """The map of a checkpoint record, as a project file holds it."""
    return {
        "alpha-instance": rec.alpha_instance,
        "state": rec.state,
        "checkpoint": rec.checkpoint,
        "satisfied": rec.satisfied,
        "evidence": list(rec.evidence),
        "recorded-at": rec.recorded_at,
    }


def _description_doc(model: DescriptionModel) -> dict:
    return {
        "viewpoints": [
            {
                "name": vp.name,
                "structure-type": vp.structure_type.value,
                "concerns": list(vp.concerns),
                "description-kind": vp.description_kind.value,
            }
            for vp in model.viewpoints
        ],
        "views": [
            {
                "name": view.name,
                "viewpoint": view.viewpoint,
                "elements": list(view.elements),
            }
            for view in model.views
        ],
        "elements": [
            {"id": elem.id, "label": elem.label, "has-extent": elem.has_extent}
            for elem in model.elements
        ],
        "realization-nodes": [
            {
                "id": node.id,
                "designators": {
                    chain.aspect.value: str(chain) for chain in node.designators
                },
            }
            for node in model.realization_nodes
        ],
        "coextension": sorted(sorted(cls) for cls in model.coextension),
        "bindings": [list(pair) for pair in model.bindings],
    }
