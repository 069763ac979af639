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
from .errors import (
    AssessmentError,
    DesignationError,
    EssenceError,
    ModelError,
    ProjectError,
)
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
    try:
        doc = json.loads(data)
    except (ValueError, UnicodeDecodeError, RecursionError) as exc:
        raise ProjectError("PARSE_ERROR", f"invalid project document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProjectError("SCHEMA_ERROR", "project document must be a map")
    _reject_unknown(
        doc,
        {"format-version", "project-id", "kernel", "assessment", "trees",
         "description"},
        "project",
    )
    version = _get(doc, "format-version", int, "project")
    if version != FORMAT_VERSION:
        raise ProjectError(
            "UNSUPPORTED_VERSION", f"format-version {version} is not {FORMAT_VERSION}"
        )
    project_id = _get(doc, "project-id", str, "project")
    if not project_id:
        raise ProjectError("SCHEMA_ERROR", "project-id must be nonempty", path="project-id")
    kernel, builtin = _load_kernel(doc.get("kernel", BUILTIN_KERNEL_MARKER))
    assessment = _load_assessment(
        doc.get("assessment", {}), project_id=project_id, kernel=kernel
    )
    trees = _load_trees(doc.get("trees", {}))
    description = _load_description(doc.get("description", {}))
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


def _load_kernel(raw: object) -> tuple[KernelDefinition, bool]:
    if raw == BUILTIN_KERNEL_MARKER:
        return builtin_se_kernel(), True
    if not isinstance(raw, dict):
        raise ProjectError(
            "SCHEMA_ERROR",
            f'kernel must be "{BUILTIN_KERNEL_MARKER}" or an inline kernel map',
            path="kernel",
        )
    try:
        kernel = kernel_from_doc(raw)
    except EssenceError as exc:
        raise ProjectError(
            "SCHEMA_ERROR", exc.message, path=_prefix("kernel", exc.path)
        ) from exc
    report = validate_kernel(kernel)
    if not report.ok:
        finding = report.findings[0]
        raise ProjectError(
            "SCHEMA_ERROR",
            f"{finding.code}: {finding.message}",
            path=_prefix("kernel", finding.path),
        )
    return kernel, False


def _load_assessment(
    raw: object, *, project_id: str, kernel: KernelDefinition
) -> Assessment:
    if not isinstance(raw, dict):
        raise ProjectError("SCHEMA_ERROR", "assessment must be a map", path="assessment")
    _reject_unknown(
        raw,
        {"strict-evidence", "instances", "work-products", "records"},
        "assessment",
    )
    a = AssessmentBuilder(
        project_id,
        kernel,
        _get(raw, "strict-evidence", bool, "assessment", default=False),
    )
    for i, item in enumerate(_items(raw, "instances", "assessment")):
        path = f"assessment.instances[{i}]"
        _reject_unknown(item, {"id", "alpha", "system-level"}, path)
        inst = AlphaInstance(
            id=_nonempty(item, "id", path),
            alpha=_get(item, "alpha", str, path),
            system_level=_parse_enum(
                _get(item, "system-level", str, path,
                     default=SystemLevel.SYSTEM_OF_INTEREST.value),
                SystemLevel, f"{path}.system-level",
            ),
        )
        _apply(a.add_instance, inst, path=path)
    for i, item in enumerate(_items(raw, "work-products", "assessment")):
        path = f"assessment.work-products[{i}]"
        _reject_unknown(
            item, {"id", "definition", "label", "document-designation"}, path
        )
        designation = None
        if "document-designation" in item:
            text = _get(item, "document-designation", str, path)
            try:
                designation = parse_document_designation(text)
            except DesignationError as exc:
                raise ProjectError(
                    "SCHEMA_ERROR",
                    f"{exc.code}: {exc.message}",
                    path=f"{path}.document-designation",
                ) from exc
        wp = WorkProductInstance(
            id=_nonempty(item, "id", path),
            definition=_get(item, "definition", str, path),
            label=_get(item, "label", str, path, default=""),
            document_designation=designation,
        )
        _apply(a.add_work_product, wp, path=path)
    for i, item in enumerate(_items(raw, "records", "assessment")):
        path = f"assessment.records[{i}]"
        _reject_unknown(
            item,
            {"alpha-instance", "state", "checkpoint", "satisfied", "evidence",
             "recorded-at"},
            path,
        )
        evidence = _get(item, "evidence", list, path, default=[])
        for j, wp_id in enumerate(evidence):
            if not isinstance(wp_id, str):
                raise ProjectError(
                    "SCHEMA_ERROR", "evidence ids must be text",
                    path=f"{path}.evidence[{j}]",
                )
        rec = CheckpointRecord(
            alpha_instance=_get(item, "alpha-instance", str, path),
            state=_get(item, "state", str, path),
            checkpoint=_get(item, "checkpoint", str, path),
            satisfied=_get(item, "satisfied", bool, path),
            evidence=tuple(evidence),
            recorded_at=_get(item, "recorded-at", int, path, default=0),
        )
        _apply(a.record_checkpoint, rec, path=path)
    return a.build()


def _load_trees(raw: object) -> tuple[BreakdownTree, ...]:
    if not isinstance(raw, dict):
        raise ProjectError("SCHEMA_ERROR", "trees must be a map", path="trees")
    trees = []
    for key, roots_raw in raw.items():
        path = f"trees.{key}"
        aspect = _parse_enum(key, Aspect, "trees")
        if not isinstance(roots_raw, list):
            raise ProjectError(
                "SCHEMA_ERROR", "tree roots must be a list", path=path
            )
        try:
            roots = tuple(
                _node_from_doc(item, f"{path}[{i}]")
                for i, item in enumerate(roots_raw)
            )
            trees.append(BreakdownTree(aspect=aspect, roots=roots))
        except DesignationError as exc:
            raise ProjectError(
                "SCHEMA_ERROR", f"{exc.code}: {exc.message}", path=path
            ) from exc
    return tuple(trees)


def _node_from_doc(raw: object, path: str) -> BreakdownNode:
    if not isinstance(raw, dict):
        raise ProjectError("SCHEMA_ERROR", "tree node must be a map", path=path)
    _reject_unknown(raw, {"segment", "children"}, path)
    children_raw = _get(raw, "children", list, path, default=[])
    children = tuple(
        _node_from_doc(item, f"{path}.children[{i}]")
        for i, item in enumerate(children_raw)
    )
    return BreakdownNode(segment=_get(raw, "segment", str, path), children=children)


def _load_description(raw: object) -> DescriptionModel:
    if not isinstance(raw, dict):
        raise ProjectError(
            "SCHEMA_ERROR", "description must be a map", path="description"
        )
    _reject_unknown(
        raw,
        {"viewpoints", "views", "elements", "realization-nodes", "coextension",
         "bindings"},
        "description",
    )
    model = ModelBuilder()
    for i, item in enumerate(_items(raw, "viewpoints", "description")):
        path = f"description.viewpoints[{i}]"
        _reject_unknown(
            item, {"name", "structure-type", "concerns", "description-kind"}, path
        )
        concerns = _get(item, "concerns", list, path, default=[])
        for j, concern in enumerate(concerns):
            if not isinstance(concern, str):
                raise ProjectError(
                    "SCHEMA_ERROR", "concerns must be text",
                    path=f"{path}.concerns[{j}]",
                )
        vp = Viewpoint(
            name=_nonempty(item, "name", path),
            structure_type=_parse_enum(
                _get(item, "structure-type", str, path,
                     default=StructureType.OTHER.value),
                StructureType, f"{path}.structure-type",
            ),
            concerns=tuple(concerns),
            description_kind=_parse_enum(
                _get(item, "description-kind", str, path,
                     default=DescriptionKind.OTHER.value),
                DescriptionKind, f"{path}.description-kind",
            ),
        )
        _apply(model.add_viewpoint, vp, path=path)
    for i, item in enumerate(_items(raw, "elements", "description")):
        path = f"description.elements[{i}]"
        _reject_unknown(item, {"id", "label", "has-extent"}, path)
        elem = ViewElement(
            id=_nonempty(item, "id", path),
            label=_get(item, "label", str, path, default=""),
            has_extent=_get(item, "has-extent", bool, path, default=False),
        )
        _apply(model.add_element, elem, path=path)
    for i, item in enumerate(_items(raw, "views", "description")):
        path = f"description.views[{i}]"
        _reject_unknown(item, {"name", "viewpoint", "elements"}, path)
        elements = _get(item, "elements", list, path, default=[])
        for j, elem_id in enumerate(elements):
            if not isinstance(elem_id, str):
                raise ProjectError(
                    "SCHEMA_ERROR", "view elements must be element ids",
                    path=f"{path}.elements[{j}]",
                )
        view = View(
            name=_nonempty(item, "name", path),
            viewpoint=_get(item, "viewpoint", str, path),
            elements=tuple(elements),
        )
        _apply(model.add_view, view, path=path)
    for i, item in enumerate(_items(raw, "realization-nodes", "description")):
        path = f"description.realization-nodes[{i}]"
        _reject_unknown(item, {"id", "designators"}, path)
        designators_raw = _get(item, "designators", dict, path, default={})
        chains = []
        for key, text in designators_raw.items():
            chain_path = f"{path}.designators.{key}"
            aspect = _parse_enum(key, Aspect, f"{path}.designators")
            if not isinstance(text, str):
                raise ProjectError(
                    "SCHEMA_ERROR", "designator must be text", path=chain_path
                )
            try:
                parsed = parse_designation(text)
            except DesignationError as exc:
                raise ProjectError(
                    "SCHEMA_ERROR", f"{exc.code}: {exc.message}", path=chain_path
                ) from exc
            if len(parsed.chains) != 1 or parsed.chains[0].aspect is not aspect:
                raise ProjectError(
                    "SCHEMA_ERROR",
                    f"designator must be a single {aspect.value} chain",
                    path=chain_path,
                )
            chains.append(parsed.chains[0])
        node = RealizationNode(id=_nonempty(item, "id", path),
                               designators=tuple(chains))
        _apply(model.add_realization_node, node, path=path)
    for i, members in enumerate(_items(raw, "coextension", "description",
                                       item_kind=list)):
        path = f"description.coextension[{i}]"
        if len(members) < 2 or not all(isinstance(m, str) for m in members):
            raise ProjectError(
                "SCHEMA_ERROR",
                "coextension class must list two or more element ids",
                path=path,
            )
        for member in members[1:]:
            _apply(model.assert_coextension, members[0], member, path=path)
    for i, pair in enumerate(_items(raw, "bindings", "description",
                                    item_kind=list)):
        path = f"description.bindings[{i}]"
        if len(pair) != 2 or not all(isinstance(p, str) for p in pair):
            raise ProjectError(
                "SCHEMA_ERROR",
                "binding must be a pair of element id and node id",
                path=path,
            )
        _apply(model.bind_element, pair[0], pair[1], path=path)
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
    for wp in a.work_products:
        item = {"id": wp.id, "definition": wp.definition, "label": wp.label}
        if wp.document_designation is not None:
            item["document-designation"] = format_document_designation(
                wp.document_designation
            )
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


# Document plumbing

_MISSING = object()


def _get(doc: dict, key: str, kind: type, path: str, default: object = _MISSING):
    if key not in doc:
        if default is _MISSING:
            raise ProjectError("SCHEMA_ERROR", f"missing key {key!r}", path=path)
        return default
    value = doc[key]
    if (isinstance(value, bool) and kind is not bool) or not isinstance(value, kind):
        raise ProjectError(
            "SCHEMA_ERROR",
            f"key {key!r} must be {kind.__name__}",
            path=f"{path}.{key}",
        )
    return value


def _nonempty(doc: dict, key: str, path: str) -> str:
    value = _get(doc, key, str, path)
    if not value:
        raise ProjectError(
            "SCHEMA_ERROR", f"key {key!r} must be nonempty", path=f"{path}.{key}"
        )
    return value


def _items(doc: dict, key: str, path: str, item_kind: type = dict) -> list:
    raw = _get(doc, key, list, path, default=[])
    for i, item in enumerate(raw):
        if not isinstance(item, item_kind):
            raise ProjectError(
                "SCHEMA_ERROR",
                f"entry must be a {'map' if item_kind is dict else 'list'}",
                path=f"{path}.{key}[{i}]",
            )
    return raw


def _parse_enum(value: str, enum_type: type, path: str):
    try:
        return enum_type(value)
    except ValueError:
        raise ProjectError(
            "SCHEMA_ERROR",
            f"{value!r} is not a valid {enum_type.__name__}",
            path=path,
        ) from None


def _reject_unknown(doc: dict, allowed: set[str], path: str) -> None:
    for key in doc:
        if key not in allowed:
            raise ProjectError(
                "SCHEMA_ERROR", f"unknown key {key!r}", path=path
            )


def _apply(op, *args, path: str) -> None:
    try:
        op(*args)
    except (AssessmentError, ModelError, DesignationError) as exc:
        raise ProjectError(
            "SCHEMA_ERROR", f"{exc.code}: {exc.message}", path=path
        ) from exc


def _prefix(prefix: str, path: str | None) -> str:
    return f"{prefix}.{path}" if path else prefix
