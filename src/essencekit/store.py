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

import json
from dataclasses import dataclass, field

from ._schema import (
    check_keys,
    decode,
    entries,
    enum_of,
    get,
    nested,
    nonempty,
    texts,
)
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
    BreakdownNode,
    BreakdownTree,
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
    format_version: int = FORMAT_VERSION

    def __post_init__(self) -> None:
        if self.format_version != FORMAT_VERSION:
            raise ProjectError(
                "UNSUPPORTED_VERSION",
                f"format-version {self.format_version} is not {FORMAT_VERSION}",
            )
        trees = tuple(
            sorted(self.trees, key=lambda t: ASPECT_ORDER.index(t.aspect))
        )
        object.__setattr__(self, "trees", trees)
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
    return Project(
        project_id=project_id,
        assessment=Assessment(
            project_id=project_id,
            kernel=kernel if kernel is not None else builtin_se_kernel(),
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
        "format-version": p.format_version,
        "project-id": p.project_id,
        "kernel": (
            BUILTIN_KERNEL_MARKER if p.builtin_kernel else kernel_to_doc(p.kernel)
        ),
        "assessment": _assessment_doc(p.assessment),
        "trees": {
            tree.aspect.value: [_node_doc(root) for root in tree.roots]
            for tree in p.trees
        },
        "description": _description_doc(p.description),
    }
    return (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


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
_NODE_KEYS = frozenset({"segment", "children"})
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
    return nested(ProjectError, "kernel", _valid_kernel, raw), False


def _valid_kernel(doc: dict) -> KernelDefinition:
    kernel = kernel_from_doc(doc)
    report = validate_kernel(kernel)
    if not report.ok:
        finding = report.findings[0]
        raise KernelError(finding.code, finding.message, path=finding.path)
    return kernel


def _load_assessment(
    raw: dict, *, project_id: str, kernel: KernelDefinition
) -> Assessment:
    check_keys(raw, _ASSESSMENT_KEYS, "assessment", ProjectError)
    a = AssessmentBuilder(
        project_id,
        kernel,
        get(raw, "strict-evidence", bool, "assessment", ProjectError, False),
    )
    for i, item in enumerate(entries(raw, "instances", dict, "assessment",
                                     ProjectError, ())):
        path = f"assessment.instances[{i}]"
        check_keys(item, _INSTANCE_KEYS, path, ProjectError)
        inst = AlphaInstance(
            id=nonempty(item, "id", path, ProjectError),
            alpha=get(item, "alpha", str, path, ProjectError),
            system_level=enum_of(
                get(item, "system-level", str, path, ProjectError,
                    SystemLevel.SYSTEM_OF_INTEREST.value),
                SystemLevel, f"{path}.system-level", ProjectError,
            ),
        )
        nested(ProjectError, path, a.add_instance, inst)
    for i, item in enumerate(entries(raw, "work-products", dict, "assessment",
                                     ProjectError, ())):
        path = f"assessment.work-products[{i}]"
        check_keys(item, _WORK_PRODUCT_KEYS, path, ProjectError)
        designation = None
        if "document-designation" in item:
            designation = nested(
                ProjectError, f"{path}.document-designation",
                parse_document_designation,
                get(item, "document-designation", str, path, ProjectError),
            )
        wp = WorkProductInstance(
            id=nonempty(item, "id", path, ProjectError),
            definition=get(item, "definition", str, path, ProjectError),
            label=get(item, "label", str, path, ProjectError, ""),
            document_designation=designation,
        )
        nested(ProjectError, path, a.add_work_product, wp)
    for i, item in enumerate(entries(raw, "records", dict, "assessment",
                                     ProjectError, ())):
        path = f"assessment.records[{i}]"
        check_keys(item, _RECORD_KEYS, path, ProjectError)
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
        trees.append(nested(ProjectError, path, lambda: BreakdownTree(
            aspect=aspect,
            roots=tuple(_node_from_doc(item, f"{path}[{i}]")
                        for i, item in enumerate(roots)),
        )))
    return tuple(trees)


def _node_from_doc(raw: object, path: str) -> BreakdownNode:
    if not isinstance(raw, dict):
        raise ProjectError("SCHEMA_ERROR", "tree node must be a map", path=path)
    check_keys(raw, _NODE_KEYS, path, ProjectError)
    children = tuple(
        _node_from_doc(item, f"{path}.children[{i}]")
        for i, item in enumerate(get(raw, "children", list, path, ProjectError, ()))
    )
    return BreakdownNode(
        segment=get(raw, "segment", str, path, ProjectError), children=children
    )


def _load_description(raw: dict) -> DescriptionModel:
    check_keys(raw, _DESCRIPTION_KEYS, "description", ProjectError)
    model = ModelBuilder()
    for i, item in enumerate(entries(raw, "viewpoints", dict, "description",
                                     ProjectError, ())):
        path = f"description.viewpoints[{i}]"
        check_keys(item, _VIEWPOINT_KEYS, path, ProjectError)
        vp = Viewpoint(
            name=nonempty(item, "name", path, ProjectError),
            structure_type=enum_of(
                get(item, "structure-type", str, path, ProjectError,
                    StructureType.OTHER.value),
                StructureType, f"{path}.structure-type", ProjectError,
            ),
            concerns=tuple(texts(item, "concerns", path, ProjectError,
                                 "concerns must be text", ())),
            description_kind=enum_of(
                get(item, "description-kind", str, path, ProjectError,
                    DescriptionKind.OTHER.value),
                DescriptionKind, f"{path}.description-kind", ProjectError,
            ),
        )
        nested(ProjectError, path, model.add_viewpoint, vp)
    for i, item in enumerate(entries(raw, "elements", dict, "description",
                                     ProjectError, ())):
        path = f"description.elements[{i}]"
        check_keys(item, _ELEMENT_KEYS, path, ProjectError)
        elem = ViewElement(
            id=nonempty(item, "id", path, ProjectError),
            label=get(item, "label", str, path, ProjectError, ""),
            has_extent=get(item, "has-extent", bool, path, ProjectError, False),
        )
        nested(ProjectError, path, model.add_element, elem)
    for i, item in enumerate(entries(raw, "views", dict, "description",
                                     ProjectError, ())):
        path = f"description.views[{i}]"
        check_keys(item, _VIEW_KEYS, path, ProjectError)
        view = View(
            name=nonempty(item, "name", path, ProjectError),
            viewpoint=get(item, "viewpoint", str, path, ProjectError),
            elements=tuple(texts(item, "elements", path, ProjectError,
                                 "view elements must be element ids", ())),
        )
        nested(ProjectError, path, model.add_view, view)
    for i, item in enumerate(entries(raw, "realization-nodes", dict,
                                     "description", ProjectError, ())):
        path = f"description.realization-nodes[{i}]"
        check_keys(item, _REALIZATION_NODE_KEYS, path, ProjectError)
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
        for member in members[1:]:
            nested(ProjectError, path, model.assert_coextension, members[0], member)
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
            text = format_document_designation(designation)
            # Only the builtin table loads back, so refuse what would not.
            if (designation.table_ref != BUILTIN_DCC_TABLE.name
                    or BUILTIN_DCC_TABLE.area_label(designation.area) is None):
                raise ProjectError(
                    "CUSTOM_DCC_TABLE",
                    f"{text!r} is not a document designation of the builtin "
                    "DCC table",
                    path=f"assessment.work-products[{i}].document-designation",
                )
            item["document-designation"] = text
        work_products.append(item)
    records = [
        {
            "alpha-instance": rec.alpha_instance,
            "state": rec.state,
            "checkpoint": rec.checkpoint,
            "satisfied": rec.satisfied,
            "evidence": list(rec.evidence),
            "recorded-at": rec.recorded_at,
        }
        for rec in a.records
    ]
    return {
        "strict-evidence": a.strict_evidence,
        "instances": instances,
        "work-products": work_products,
        "records": records,
    }


def _node_doc(node: BreakdownNode) -> dict:
    doc: dict = {"segment": node.segment}
    if node.children:
        doc["children"] = [_node_doc(child) for child in node.children]
    return doc


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
