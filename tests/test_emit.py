"""The one canonical writer: ``_schema.emit`` and ``_schema.encode``.

``json.dumps(value, indent=2, ensure_ascii=False)`` is the oracle for
every value the writer accepts, a breakdown tree written as the list of
its roots' node maps. A project's entry lists, written column by column
as ``Rows``, have a second oracle: ``emit`` of their ``entry_docs``
maps. A tree, the one part of a document that nests deeply, is written
from its arrays without recursion; what ``json.dumps`` cannot write the
writer refuses with a coded error at the value's path.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genlib
from essencekit import (
    AlphaDefinition,
    AlphaInstance,
    AreaOfConcern,
    Aspect,
    Assessment,
    BreakdownNode,
    BreakdownTree,
    Checkpoint,
    CheckpointRecord,
    DescriptionKind,
    DescriptionModel,
    KernelDefinition,
    KernelError,
    ModelError,
    Project,
    ProjectError,
    RealizationNode,
    StateDefinition,
    StructureType,
    SystemLevel,
    View,
    ViewElement,
    Viewpoint,
    WorkProductDefinition,
    WorkProductInstance,
    bind_element,
    builtin_se_kernel,
    dumps_kernel,
    find_alpha,
    kernel_to_doc,
    new_project,
    parse_designation,
    parse_document_designation,
    save_project,
)
from essencekit._schema import (
    TEXT,
    Rows,
    Texts,
    emit,
    encode,
    entry_docs,
    entry_rows,
)
from essencekit.designation import MAX_TREE_DEPTH
from essencekit.metamodel import AREA_NAMES


def dumps(value) -> str:
    return json.dumps(value, indent=2, ensure_ascii=False)


texts = st.text() | st.sampled_from([
    "", '"', "\\", "\x00", "\x1f", "\x7f", " ", "é", "\U0001F600",
    "\ud800", 'a"b\\c\nd\te'])
scalars = (st.none() | st.booleans() | st.integers()
           | st.integers(min_value=2 ** 64, max_value=2 ** 200)
           | st.integers(min_value=-2 ** 200, max_value=-2 ** 64) | texts)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(texts, inner, max_size=4),
    max_leaves=40)

nodes = st.recursive(
    st.builds(BreakdownNode, st.sampled_from(["A", "B", "C1", "9"])),
    lambda inner: st.builds(
        BreakdownNode, st.sampled_from(["A", "B", "C1", "9"]),
        st.lists(inner, max_size=3, unique_by=lambda n: n.segment)),
    max_leaves=20)
trees = st.builds(
    BreakdownTree, st.sampled_from(list(Aspect)),
    st.lists(nodes, max_size=3, unique_by=lambda n: n.segment).map(tuple))


def node_doc(node: BreakdownNode) -> dict:
    doc: dict = {"segment": node.segment}
    if node.children:
        doc["children"] = [node_doc(child) for child in node.children]
    return doc


def tree_doc(tree: BreakdownTree) -> list:
    return [node_doc(root) for root in tree.roots]


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_emit_equals_json_dumps(value):
    assert emit(value, ProjectError) == dumps(value)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(texts, trees | st.dictionaries(texts, trees, max_size=3),
                       max_size=3))
def test_emit_writes_breakdown_nodes_as_their_maps(forest):
    def as_maps(value):
        if isinstance(value, dict):
            return {key: as_maps(inner) for key, inner in value.items()}
        return tree_doc(value)

    assert emit(forest, ProjectError) == dumps(as_maps(forest))


def test_saves_are_json_dumps_of_their_own_document():
    rng = random.Random(9090)
    for _ in range(30):
        blob = save_project(genlib.random_project(rng))
        assert blob == (dumps(json.loads(blob)) + "\n").encode("utf-8")


def test_kernel_export_is_json_dumps_of_its_document():
    rng = random.Random(77)
    for kernel in [builtin_se_kernel()] + [genlib.random_kernel(rng)
                                           for _ in range(10)]:
        assert dumps_kernel(kernel) == dumps(kernel_to_doc(kernel)) + "\n"
    odd = replace(builtin_se_kernel(), name="k\ud800")
    with pytest.raises(KernelError) as err:
        dumps_kernel(odd)
    assert (err.value.code, err.value.path) == ("UNSUPPORTED_VALUE", "name")


def stack_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def tree_project(*trees: BreakdownTree):
    return replace(new_project("p"), trees=trees)


def test_emit_does_not_recurse():
    # The deepest tree a document holds, far deeper than the 30 frames.
    p = tree_project(genlib.chain_tree(Aspect.PRODUCT, MAX_TREE_DEPTH))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 30)
    try:
        saved = save_project(p)
    finally:
        sys.setrecursionlimit(limit)
    assert saved.count(b'"segment"') == MAX_TREE_DEPTH
    assert saved == (dumps(json.loads(saved)) + "\n").encode("utf-8")
    deeper = tree_project(genlib.chain_tree(Aspect.PRODUCT, MAX_TREE_DEPTH + 1))
    with pytest.raises(ProjectError) as err:
        save_project(deeper)
    assert (err.value.code, err.value.path) == ("TREE_TOO_DEEP", "trees.Product")


@pytest.mark.parametrize("value, message, path", [
    ({"a": [1, b"x"]}, "type bytes cannot be saved", "a[1]"),
    ({"t": [BreakdownTree(Aspect.PRODUCT)]},
     "type BreakdownTree cannot be saved", "t[0]"),
    ({"a": {"b": [Rows(None, [["x"]])]}}, "type Rows cannot be saved", "a.b[0]"),
    ([{"x": object()}], "type object cannot be saved", "[0].x"),
    (1j, "type complex cannot be saved", None),
    ({"t": BreakdownTree(Aspect.PRODUCT,
                         (BreakdownNode("A", (BreakdownNode("B"),)),)),
      "x": {1}},
     "type set cannot be saved", "x"),
    ({"t": [BreakdownNode("A")]}, "type BreakdownNode cannot be saved", "t[0]"),
    ({"a": (1, {2: frozenset()})}, "type frozenset cannot be saved", "a[1].2"),
    ({(1, 2): 1}, "map keys must be text", None),
    ({"a": [{(1,): 2}]}, "map keys must be text", "a[0]"),
    ({"a": {"b": {3: 1}}}, "map keys must be text", "a.b"),
])
def test_emit_refuses_what_it_cannot_write(value, message, path):
    with pytest.raises(KernelError) as err:
        emit(value, KernelError)
    assert (err.value.code, err.value.message, err.value.path) == (
        "UNSUPPORTED_VALUE", message, path)


def test_emit_writes_a_value_held_twice():
    shared = {"k": [1]}
    for doc in ([shared, shared], {"a": shared, "b": {"c": shared}}):
        assert emit(doc, ProjectError) == dumps(doc)


def test_encode_refuses_lone_surrogates_at_their_path():
    assert encode({"p": ["\U0001F600"]}, ProjectError) == (
        dumps({"p": ["\U0001F600"]}) + "\n").encode("utf-8")
    with pytest.raises(ProjectError) as err:
        encode({"p": ["ok", "a\udfff"]}, ProjectError)
    assert (err.value.code, err.value.message, err.value.path) == (
        "UNSUPPORTED_VALUE", "text holds a lone surrogate", "p[1]")


def test_tree_depth_is_counted_per_tree():
    # Trees of the deepest size side by side: the depth of one tree does
    # not carry over to the next.
    def chain(aspect, depth=MAX_TREE_DEPTH):
        return genlib.chain_tree(aspect, depth)

    flat = BreakdownTree(Aspect.FUNCTION, (BreakdownNode("R"),))
    saved = save_project(tree_project(flat, chain(Aspect.PRODUCT),
                                      chain(Aspect.LOCATION)))
    assert json.loads(saved)["trees"] == {
        "Function": [{"segment": "R"}],
        "Product": tree_doc(chain(Aspect.PRODUCT)),
        "Location": tree_doc(chain(Aspect.LOCATION))}
    deeper = tree_project(chain(Aspect.FUNCTION),
                          chain(Aspect.PRODUCT, MAX_TREE_DEPTH + 1),
                          chain(Aspect.LOCATION))
    with pytest.raises(ProjectError) as err:
        save_project(deeper)
    assert (err.value.code, err.value.path) == ("TREE_TOO_DEEP", "trees.Product")
    assert err.value.message == (
        f"breakdown tree is more than {MAX_TREE_DEPTH} levels deep")


# Text a file holds: quotes, backslashes, control characters, line
# breaks, U+2028 and astral characters; no lone surrogate.
file_texts = st.text(max_size=6) | st.sampled_from([
    "", '"', "\\", "\x00", "\x1f", "\n", "\u2028", "\U0001F600", 'a"b\\c\nd\te'])
text_tuples = st.lists(file_texts, max_size=3).map(tuple)
designations = st.none() | st.sampled_from(["=F1&MCA", "=F1=12&ACA"]).map(
    parse_document_designation)
chains = st.lists(st.sampled_from(["=F1", "-12-N4", "+M13"]), unique=True,
                  max_size=3).map(lambda texts: tuple(
                      parse_designation(text).chains[0] for text in texts))
names = st.lists(file_texts.filter(bool), min_size=1, max_size=3, unique=True)
ids = st.lists(file_texts.filter(bool), max_size=4, unique=True)


@st.composite
def kernels(draw) -> KernelDefinition:
    """A kernel that validate_kernel passes, named with file texts."""
    alphas = tuple(AlphaDefinition(
        name, draw(st.sampled_from(AREA_NAMES)), draw(file_texts),
        tuple(StateDefinition(state, draw(file_texts), tuple(
            Checkpoint(cp, draw(file_texts.filter(bool))) for cp in draw(names)))
            for state in draw(names))) for name in draw(names))
    return KernelDefinition(
        draw(file_texts), tuple(map(AreaOfConcern, AREA_NAMES)), alphas,
        tuple(WorkProductDefinition(name, draw(st.sampled_from(alphas)).name,
                                    draw(file_texts)) for name in draw(ids)))


@st.composite
def projects(draw) -> Project:
    """A project of file texts whose entries cite only what it holds."""
    kernel = draw(st.none() | kernels())
    k = kernel or builtin_se_kernel()

    def some(items, most=3) -> tuple:
        return tuple(draw(st.lists(st.sampled_from(items), max_size=most))) \
            if items else ()

    instances = tuple(AlphaInstance(i, draw(st.sampled_from(k.alphas)).name,
                                    draw(st.sampled_from(list(SystemLevel))))
                      for i in draw(ids))
    wps = tuple(WorkProductInstance(i, name, draw(file_texts), draw(designations))
                for i, name in zip(draw(ids), some([w.name for w in k.workproducts],
                                                   4)))
    records = []
    for inst in some(instances, 4):
        state = draw(st.sampled_from(find_alpha(k, inst.alpha).states))
        records.append(CheckpointRecord(
            inst.id, state.name, draw(st.sampled_from(state.checkpoints)).id,
            draw(st.booleans()), some([w.id for w in wps]), draw(st.integers())))
    viewpoints = tuple(Viewpoint(name, draw(st.sampled_from(list(StructureType))),
                                 draw(text_tuples),
                                 draw(st.sampled_from(list(DescriptionKind))))
                       for name in draw(ids))
    elements = tuple(ViewElement(i, draw(file_texts), draw(st.booleans()))
                     for i in draw(ids))
    views = tuple(View(name, vp.name, some([e.id for e in elements]))
                  for name, vp in zip(draw(ids), some(viewpoints, 4)))
    nodes = tuple(RealizationNode(i, draw(chains)) for i in draw(ids))
    extended = [e.id for e in elements if e.has_extent]
    model = DescriptionModel(viewpoints, views, elements, nodes, frozenset(
        frozenset(draw(st.lists(st.sampled_from(extended), min_size=2, max_size=3,
                                unique=True)))
        for _ in range(draw(st.integers(0, 3) if len(extended) > 1 else st.just(0)))))
    for elem, node in zip(some(extended), some([n.id for n in nodes])):
        try:
            model = bind_element(model, elem, node)
        except ModelError:  # its class is bound to another node
            pass
    return Project("p", Assessment("p", k, instances, wps, tuple(records)),
                   description=model, builtin_kernel=kernel is None)


def document_of(p) -> dict:
    """The project document of ``p`` as maps: the entry lists as
    ``entry_docs`` makes them."""
    a, model = p.assessment, p.description

    def docs(key: str, values: tuple) -> list[dict]:
        return entry_docs(values, key, ProjectError)

    return {
        "format-version": 1, "project-id": p.project_id,
        "kernel": "builtin" if p.builtin_kernel else kernel_to_doc(p.kernel),
        "assessment": {
            "strict-evidence": a.strict_evidence,
            "instances": docs("assessment.instances", a.instances),
            "work-products": docs("assessment.work-products", a.work_products),
            "records": docs("assessment.records", a.records)},
        "trees": {},
        "description": {
            "viewpoints": docs("description.viewpoints", model.viewpoints),
            "views": docs("description.views", model.views),
            "elements": docs("description.elements", model.elements),
            "realization-nodes": docs("description.realization-nodes",
                                      model.realization_nodes),
            "coextension": sorted(sorted(cls) for cls in model.coextension),
            "bindings": [list(pair) for pair in model.bindings]}}


@settings(max_examples=200, deadline=None)
@given(projects())
def test_entry_lists_are_written_as_their_maps_would_be(p):
    saved = save_project(p)
    assert saved == (dumps(json.loads(saved)) + "\n").encode("utf-8")
    assert saved == encode(document_of(p), ProjectError)


@dataclass(frozen=True)
class Tagged:
    """Entries whose omit fields come first and last."""

    tags: tuple = ()
    name: str = ""
    notes: tuple = ()

    _FIELDS = (("tags", "tags", Texts("tag", "", omit=True), "tags"),
               ("name", "name", TEXT, "name"),
               ("notes", "notes", Texts("note", "", omit=True), "notes"))


def test_an_omit_field_left_out_writes_no_separator():
    values = (Tagged(), Tagged(("a",)), Tagged((), "n", ("b", "c")),
              Tagged(("d",), "m", ("e",)))
    rows = entry_rows(values, "x", ProjectError)
    docs = entry_docs(values, "x", ProjectError)
    for at in (lambda v: v, lambda v: {"x": v}, lambda v: {"x": {"y": v}}):
        assert emit(at(rows), ProjectError) == emit(at(docs), ProjectError)
        assert emit(at(rows), ProjectError) == dumps(at(docs))
