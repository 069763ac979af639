"""Viewpoints, views, and 4D-coextension over view elements.

A system description is a set of views, each governed by a viewpoint
that fixes its structure type (component-connector, module-interface,
allocation) and, for endeavor descriptions, its kind (practice,
process, team). View elements either denote spatio-temporally extended
individuals (has_extent) or definition-only entities.

Two extended elements asserted coextensive denote the same individual:
coextension classes are merged sets, and a realization-node binding on
any member propagates to the whole class. Definition-only elements can
never join a class or carry a binding.

The architecture check passes only when the examined views cover all
three structure types; fewer is not yet a viable architecture. The
endeavor lint warns for each missing description kind: practice-,
process-, and team-based ways of working are all needed.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Iterable
from enum import Enum

from ._schema import BOOL, TEXT, Kind, Member, Texts, check_fields
from ._value import (add_new, by_fields, derive, find, member, tuple_fields,
                     unsupported, value)
from .designation import DESIGNATORS, Aspect, AspectChain, in_aspect_order
from .errors import ModelError


class StructureType(str, Enum):
    COMPONENT_CONNECTOR = "ComponentConnector"
    MODULE_INTERFACE = "ModuleInterface"
    ALLOCATION = "Allocation"
    OTHER = "Other"


class DescriptionKind(str, Enum):
    PRACTICE = "Practice"
    PROCESS = "Process"
    TEAM = "Team"
    OTHER = "Other"


REQUIRED_STRUCTURE_TYPES = (
    StructureType.COMPONENT_CONNECTOR,
    StructureType.MODULE_INTERFACE,
    StructureType.ALLOCATION,
)

REQUIRED_DESCRIPTION_KINDS = (
    DescriptionKind.PRACTICE,
    DescriptionKind.PROCESS,
    DescriptionKind.TEAM,
)


_NAME = Kind(str, empty="EMPTY_NAME")
_SET = Kind(frozenset)
# The fewest and most ids of a coextension class and of a binding, and
# the refusal of another count, as a project file holds them.
_CLASS = (2, float("inf"), "coextension class must list two or more element ids")
_BINDING = (2, 2, "binding must be a pair of element id and node id")


@value
class Viewpoint:
    """The conventions that govern a view: its structure type and kind."""

    name: str
    structure_type: StructureType = StructureType.OTHER
    concerns: tuple[str, ...] = ()
    description_kind: DescriptionKind = DescriptionKind.OTHER

    _FIELDS = (("name", "name", _NAME, "viewpoint name"),
               ("structure_type", "structure-type", Member(StructureType, str),
                "structure type"),
               ("concerns", "concerns", Texts("concern", "concerns must be text"),
                "concerns"),
               ("description_kind", "description-kind",
                Member(DescriptionKind, str), "description kind"))

    def __post_init__(self) -> None:
        object.__setattr__(self, "structure_type", member(
            self.structure_type, StructureType, ModelError, "structure type"))
        object.__setattr__(self, "description_kind", member(
            self.description_kind, DescriptionKind, ModelError,
            "description kind"))


@value
class View:
    """The elements that one view shows, under its viewpoint."""

    name: str
    viewpoint: str
    elements: tuple[str, ...] = ()

    _FIELDS = (("name", "name", _NAME, "view name"),
               ("viewpoint", "viewpoint", TEXT, "viewpoint name"),
               ("elements", "elements",
                Texts("element id", "view elements must be element ids"),
                "view elements"))


@value
class ViewElement:
    """An element a view shows, with or without spatio-temporal extent."""

    id: str
    label: str = ""
    # True: denotes a spatio-temporally extended individual.
    # False: definition-only entity (pure information has no extent).
    has_extent: bool = False

    _FIELDS = (("id", "id", _NAME, "element id"),
               ("label", "label", TEXT, "element label"),
               ("has_extent", "has-extent", BOOL, "has_extent"))


@value
class RealizationNode:
    """An individual of the realized system, designated per aspect."""

    id: str
    designators: tuple[AspectChain, ...] = ()

    _FIELDS = (("id", "id", _NAME, "node id"),
               ("designators", "designators", DESIGNATORS, "designators"))

    def __post_init__(self) -> None:
        tuple_fields(self, ModelError, ("designators", AspectChain, "designator"))
        object.__setattr__(self, "designators", in_aspect_order(
            self.designators, lambda aspect: ModelError(
                "DUPLICATE_ASPECT",
                f"node {self.id!r} has two {aspect.value} designators")))

    def designator(self, aspect: Aspect) -> AspectChain | None:
        for chain in self.designators:
            if chain.aspect is aspect:
                return chain
        return None


@value
class DescriptionModel:
    """Viewpoints, views, elements, realization nodes, classes and bindings."""

    viewpoints: tuple[Viewpoint, ...] = ()
    views: tuple[View, ...] = ()
    elements: tuple[ViewElement, ...] = ()
    realization_nodes: tuple[RealizationNode, ...] = ()
    # Non-singleton classes only; untouched elements are implicit singletons.
    coextension: frozenset[frozenset[str]] = frozenset()
    # (element id, realization node id), sorted by element id.
    bindings: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        tuple_fields(self, ModelError,
                     ("viewpoints", Viewpoint, "viewpoint"),
                     ("views", View, "view"),
                     ("elements", ViewElement, "element"),
                     ("realization_nodes", RealizationNode, "realization node"),
                     ("bindings", tuple, "binding"))
        _SET.check(self.coextension, "coextension", ModelError)
        if not ({frozenset}.issuperset(map(type, self.coextension))
                and {str}.issuperset(map(type, frozenset().union(*self.coextension)))):
            for cls in self.coextension:
                _SET.check(cls, "coextension class", ModelError)
                for elem in cls:
                    TEXT.check(elem, "element id", ModelError)
        # Each entry is checked, in the order a load reads the lists, as
        # the operation that adds it does, and each id list by its shape;
        # classes go in as a file lists them. The fields and indices are
        # those the load builder makes.
        builder = ModelBuilder(self)
        for field, entries, shape, add in (
                ("viewpoints", self.viewpoints, Viewpoint, builder.add_viewpoint),
                ("elements", self.elements, ViewElement, builder.add_element),
                ("views", self.views, View, builder.add_view),
                ("realization_nodes", self.realization_nodes, RealizationNode,
                 builder.add_realization_node),
                ("coextension", sorted(map(sorted, self.coextension)), _CLASS,
                 builder.add_class),
                ("bindings", self.bindings, _BINDING,
                 lambda pair: builder.bind_element(*pair))):
            for i, entry in enumerate(entries):
                try:
                    if isinstance(shape, type):
                        check_fields(entry, shape, ModelError)
                    elif not shape[0] <= len(entry) <= shape[1] or not all(
                            isinstance(item, str) for item in entry):
                        raise ModelError("UNSUPPORTED_VALUE", shape[2])
                    add(entry)
                except ModelError as exc:
                    raise ModelError(exc.code, exc.message,
                                     path=f"{field}[{i}]") from None
        vars(self).update(vars(builder.build()))

    def viewpoint(self, name: str) -> Viewpoint | None:
        return find(self._viewpoints_by_name, name)

    def view(self, name: str) -> View | None:
        return find(self._views_by_name, name)

    def element(self, elem_id: str) -> ViewElement | None:
        return find(self._elements_by_id, elem_id)

    def realization_node(self, node_id: str) -> RealizationNode | None:
        return find(self._nodes_by_id, node_id)

    def binding_of(self, elem_id: str) -> str | None:
        return find(self._binding, elem_id)

    __reduce__ = by_fields


class ModelBuilder:
    """Builds a description model from entries added in order, deriving
    it from ``value``: the empty model of a load, or the one that
    ``DescriptionModel`` makes.

    Each entry gets the reference and duplicate checks of the matching
    operation, so errors are the same as when folding the ``add_*``,
    ``assert_coextension`` and ``bind_element`` operations. A list
    operation (``add_elements``, ``add_realization_nodes``) checks a
    whole list with one set test per reference; when the item operation
    would refuse an item, it adds none and returns False. Columns do not
    speed up viewpoints and views, short lists. The builder's attributes
    other than ``_value`` are the model's indices, by name, and ``build``
    hands them over, so no constructor checks an entry again.

    Unlike the operations, it checks no entry's fields.
    ``DescriptionModel`` checks them before it adds an entry;
    ``load_project`` adds entries made by ``read_columns`` or
    ``read_entry``. Both set a field to a raw value of its kind's plain
    class (not empty where the kind has an ``empty`` code), a value the
    kind's ``load`` made, or the dataclass default: each fits, so
    ``check_fields`` passes it.
    """

    def __init__(self, value: DescriptionModel) -> None:
        self._value = value
        self._viewpoints_by_name: dict[str, Viewpoint] = {}
        self._views_by_name: dict[str, View] = {}
        self._elements_by_id: dict[str, ViewElement] = {}
        self._nodes_by_id: dict[str, RealizationNode] = {}
        self._class_of: dict[str, frozenset[str]] = {}
        self._binding: dict[str, str] = {}

    def add_viewpoint(self, vp: Viewpoint) -> None:
        _check_viewpoint(self, vp)
        self._viewpoints_by_name[vp.name] = vp

    def add_view(self, view: View) -> None:
        _check_view(self, view)
        self._views_by_name[view.name] = view

    def add_element(self, elem: ViewElement) -> None:
        _check_element(self, elem)
        self._elements_by_id[elem.id] = elem

    def add_realization_node(self, node: RealizationNode) -> None:
        _check_node(self, node)
        self._nodes_by_id[node.id] = node

    def add_elements(self, elems: list[ViewElement]) -> bool:
        return add_new(self._elements_by_id, elems, "id")

    def add_realization_nodes(self, nodes: list[RealizationNode]) -> bool:
        return add_new(self._nodes_by_id, nodes, "id")

    def add_class(self, members: list[str]) -> None:
        """Merge the members' classes in one pass, with the errors of
        asserting each member coextensive with the first in turn. It
        checks no binding: classes go in before bindings, as a project
        file lists them."""
        merged: set[str] = set()
        for member in members:
            _require_extended(self, member)
            if member not in merged:
                merged |= _class(self, member)
        if len(merged) > len(_class(self, members[0])):
            cls = frozenset(merged)
            self._class_of.update(dict.fromkeys(cls, cls))

    def bind_element(self, elem_id: str, node_id: str) -> None:
        if self._binding.get(elem_id) == node_id:
            return  # and so is its whole class
        cls = _check_binding(self, elem_id, node_id)
        self._binding.update(dict.fromkeys(cls, node_id))

    def build(self) -> DescriptionModel:
        indices = vars(self).copy()
        return derive(indices.pop("_value"),
                      viewpoints=tuple(self._viewpoints_by_name.values()),
                      views=tuple(self._views_by_name.values()),
                      elements=tuple(self._elements_by_id.values()),
                      realization_nodes=tuple(self._nodes_by_id.values()),
                      coextension=frozenset(self._class_of.values()),
                      bindings=tuple(sorted(self._binding.items())), **indices)


def add_viewpoint(model: DescriptionModel, vp: Viewpoint) -> DescriptionModel:
    _require_model(model)
    check_fields(vp, Viewpoint, ModelError)
    _check_viewpoint(model, vp)
    return derive(model, viewpoints=model.viewpoints + (vp,),
                  _viewpoints_by_name={**model._viewpoints_by_name, vp.name: vp})


def add_view(model: DescriptionModel, view: View) -> DescriptionModel:
    _require_model(model)
    check_fields(view, View, ModelError)
    _check_view(model, view)
    return derive(model, views=model.views + (view,),
                  _views_by_name={**model._views_by_name, view.name: view})


def add_element(model: DescriptionModel, elem: ViewElement) -> DescriptionModel:
    _require_model(model)
    check_fields(elem, ViewElement, ModelError)
    _check_element(model, elem)
    return derive(model, elements=model.elements + (elem,),
                  _elements_by_id={**model._elements_by_id, elem.id: elem})


def add_realization_node(
    model: DescriptionModel, node: RealizationNode
) -> DescriptionModel:
    _require_model(model)
    check_fields(node, RealizationNode, ModelError)
    _check_node(model, node)
    return derive(model, realization_nodes=model.realization_nodes + (node,),
                  _nodes_by_id={**model._nodes_by_id, node.id: node})


# The reference and duplicate checks take a DescriptionModel or a
# ModelBuilder, and read the indices both keep under the same names.


def _check_viewpoint(model, vp: Viewpoint) -> None:
    if vp.name in model._viewpoints_by_name:
        raise ModelError("DUPLICATE_NAME", f"viewpoint {vp.name!r} already defined")


def _check_view(model, view: View) -> None:
    if view.name in model._views_by_name:
        raise ModelError("DUPLICATE_NAME", f"view {view.name!r} already defined")
    if view.viewpoint not in model._viewpoints_by_name:
        raise ModelError("UNKNOWN_REFERENCE", f"view {view.name!r} cites viewpoint "
                         f"{view.viewpoint!r} which is not defined")
    for elem_id in view.elements:
        if elem_id not in model._elements_by_id:
            raise ModelError(
                "UNKNOWN_REFERENCE",
                f"view {view.name!r} cites element {elem_id!r} which is not defined",
            )


def _check_element(model, elem: ViewElement) -> None:
    if elem.id in model._elements_by_id:
        raise ModelError("DUPLICATE_NAME", f"element id {elem.id!r} already used")


def _check_node(model, node: RealizationNode) -> None:
    if node.id in model._nodes_by_id:
        raise ModelError("DUPLICATE_NAME", f"node id {node.id!r} already used")


def _check_binding(model, elem_id: str, node_id: str) -> frozenset[str]:
    """The class of the element, which the binding extends to."""
    _require_extended(model, elem_id)
    if find(model._nodes_by_id, node_id) is None:
        raise ModelError(
            "UNKNOWN_REFERENCE", f"no realization node {node_id!r}"
        )
    cls = _class(model, elem_id)
    for member in cls:
        bound = model._binding.get(member)
        if bound is not None and bound != node_id:
            raise ModelError(
                "BINDING_CONFLICT",
                f"class of {elem_id!r} is already bound to node {bound!r}",
            )
    return cls


def coextension_class(model: DescriptionModel, elem_id: str) -> frozenset[str]:
    """The element's coextension class; singleton when never asserted."""
    _require_model(model)
    _require_extended(model, elem_id)
    return _class(model, elem_id)


def assert_coextension(
    model: DescriptionModel, elem_a: str, elem_b: str
) -> DescriptionModel:
    """Merge the classes of two extended elements.

    Both elements then denote one individual; any realization-node
    binding spreads to the merged class. Conflicting bindings refuse
    the merge.
    """
    _require_model(model)
    _require_extended(model, elem_a)
    _require_extended(model, elem_b)
    class_a = _class(model, elem_a)
    class_b = _class(model, elem_b)
    if class_a == class_b:
        return model
    node_a = model._binding.get(elem_a)
    node_b = model._binding.get(elem_b)
    if node_a is not None and node_b is not None and node_a != node_b:
        raise ModelError(
            "BINDING_CONFLICT",
            f"classes of {elem_a!r} and {elem_b!r} are bound to different "
            f"realization nodes ({node_a!r}, {node_b!r})",
        )
    merged = class_a | class_b
    class_of = model._class_of.copy()
    class_of.update(dict.fromkeys(merged, merged))
    coextension = model.coextension - {class_a, class_b} | {merged}
    return _successor(model, class_of, coextension, merged,
                      node_a if node_a is not None else node_b)


def bind_element(
    model: DescriptionModel, elem_id: str, node_id: str
) -> DescriptionModel:
    """Bind an extended element (and so its whole class) to a node."""
    _require_model(model)
    cls = _check_binding(model, elem_id, node_id)
    return _successor(model, model._class_of, model.coextension, cls, node_id)


def viable_architecture(
    model: DescriptionModel, views: Iterable[str]
) -> "ArchitectureReport":
    """Minimally one view per structure type, else not yet viable."""
    _require_model(model)
    if not isinstance(views, Iterable):
        raise unsupported(ModelError, "views", "an iterable of view names",
                          views)
    covered: set[StructureType] = set()
    for name in views:
        view = find(model._views_by_name, name)
        if view is None:
            raise ModelError("UNKNOWN_REFERENCE", f"no view {name!r}")
        covered.add(model._viewpoints_by_name[view.viewpoint].structure_type)
    return ArchitectureReport(
        covered=tuple(t for t in REQUIRED_STRUCTURE_TYPES if t in covered),
        missing=tuple(t for t in REQUIRED_STRUCTURE_TYPES if t not in covered),
    )


@value
class ArchitectureReport:
    """The required structure types that the views cover, and miss."""

    covered: tuple[StructureType, ...]
    missing: tuple[StructureType, ...]

    @property
    def ok(self) -> bool:
        return not self.missing


def endeavor_viewpoint_lint(model: DescriptionModel) -> tuple[str, ...]:
    """One warning per missing endeavor description kind; need them all."""
    _require_model(model)
    present = {vp.description_kind for vp in model.viewpoints}
    return tuple(
        f"missing endeavor description kind: {kind.value}"
        for kind in REQUIRED_DESCRIPTION_KINDS
        if kind not in present
    )


def bind_designator(
    model: DescriptionModel, node_id: str, chain: AspectChain
) -> DescriptionModel:
    _require_model(model)
    Kind(AspectChain).check(chain, "designator", ModelError)
    node = model.realization_node(node_id)
    if node is None:
        raise ModelError("UNKNOWN_REFERENCE", f"no realization node {node_id!r}")
    if node.designator(chain.aspect) is not None:
        raise ModelError(
            "ASPECT_ALREADY_BOUND",
            f"node {node_id!r} already has a {chain.aspect.value} designator",
        )
    updated = RealizationNode(id=node.id, designators=node.designators + (chain,))
    nodes = model.realization_nodes
    # The index holds the first node with the id; no node before it is equal.
    pos = nodes.index(node)
    return derive(model, realization_nodes=nodes[:pos] + (updated,) + nodes[pos + 1:],
                  _nodes_by_id={**model._nodes_by_id, node_id: updated})


def _require_model(model: DescriptionModel) -> None:
    if model.__class__ is not DescriptionModel:  # one test on every query
        Kind(DescriptionModel).check(model, "model", ModelError)


def _require_extended(model, elem_id: str) -> ViewElement:
    elem = find(model._elements_by_id, elem_id)
    if elem is None:
        raise ModelError("UNKNOWN_REFERENCE", f"no element {elem_id!r}")
    if not elem.has_extent:
        raise ModelError(
            "NO_EXTENT",
            f"element {elem_id!r} is definition-only and denotes no "
            "spatio-temporal extent",
        )
    return elem


def _class(model, elem_id: str) -> frozenset[str]:
    return model._class_of.get(elem_id) or frozenset({elem_id})


def _successor(
    model: DescriptionModel,
    class_of: dict[str, frozenset[str]],
    coextension: frozenset[frozenset[str]],
    cls: frozenset[str],
    node_id: str | None,
) -> DescriptionModel:
    """The model with these classes and, unless node_id is None, every
    member of cls bound to node_id."""
    binding = model._binding
    bindings = model.bindings
    unbound = sorted(m for m in cls if m not in binding) if node_id is not None else ()
    if unbound:
        binding = binding.copy()
        binding.update(dict.fromkeys(unbound, node_id))
        rows = list(bindings)
        for member in unbound:
            insort(rows, (member, node_id))
        bindings = tuple(rows)
    return derive(model, coextension=coextension, bindings=bindings,
                  _class_of=class_of, _binding=binding)
