"""Shape errors of the kernel, project and DCC table readers.

One table pins the error class, code and path of every reader rule on
each document kind; a mutation fuzz over valid documents checks that no
input escapes the documented error contract, and that text holding a
lone surrogate, escaped or as raw bytes, is refused where it sits.
"""

from __future__ import annotations

import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genlib
from essencekit import (
    AlphaInstance,
    Aspect,
    AspectChain,
    CheckpointRecord,
    DescriptionKind,
    DesignationError,
    EssenceError,
    KernelError,
    ProjectError,
    RealizationNode,
    StructureType,
    SystemLevel,
    View,
    ViewElement,
    Viewpoint,
    WorkProductInstance,
    builtin_se_kernel,
    kernel_to_doc,
    load_project,
    loads_dcc_table,
    loads_kernel,
    parse_document_designation,
    save_project,
    validate_kernel,
)
from essencekit._schema import entry_docs, read_entry

READERS = {
    "project": (load_project, ProjectError),
    "kernel": (loads_kernel, KernelError),
    "dcc": (loads_dcc_table, DesignationError),
}

CHECKPOINT = {"id": "S-1", "text": "done"}
STATE = {"name": "S", "summary": "s", "checkpoints": [CHECKPOINT]}
ALPHA = {"name": "A", "area": "Solution", "states": [STATE]}
KERNEL = {"name": "k", "areas": ["Customer", "Solution", "Endeavor"],
          "alphas": [ALPHA]}
RECORD = {"alpha-instance": "i", "state": "Raw materials",
          "checkpoint": "RM-1", "satisfied": True}
INSTANCE = {"id": "i", "alpha": "System Realization"}
DCC = {"name": "plant", "areas": {"X": "process"}}


def project(**keys) -> dict:
    return {"format-version": 1, "project-id": "p", **keys}


def assessment(**lists) -> dict:
    return project(assessment=lists)


def description(**lists) -> dict:
    return project(description=lists)


def kernel(**keys) -> dict:
    return {**KERNEL, **keys}


def with_alpha(**keys) -> dict:
    return kernel(alphas=[{**ALPHA, **keys}])


def dcc(**keys) -> dict:
    return {**DCC, **keys}


# (document kind, reader rule, document, code, path)
SHAPE_ERRORS = [
    ("project", "not JSON", "{nope", "PARSE_ERROR", None),
    ("project", "root not a map", [1, 2], "SCHEMA_ERROR", None),
    ("project", "missing key", {"project-id": "p"}, "SCHEMA_ERROR", None),
    ("project", "missing key", assessment(instances=[{"id": "i"}]),
     "SCHEMA_ERROR", "assessment.instances[0]"),
    ("project", "wrong type", project(**{"format-version": "1"}),
     "SCHEMA_ERROR", "format-version"),
    ("project", "wrong type", project(assessment=[]),
     "SCHEMA_ERROR", "assessment"),
    ("project", "wrong type", assessment(
        instances=[INSTANCE], records=[{**RECORD, "state": 5}]),
     "SCHEMA_ERROR", "assessment.records[0].state"),
    ("project", "wrong type", project(trees={"Product": {}}),
     "SCHEMA_ERROR", "trees.Product"),
    ("project", "wrong type", project(
        trees={"Product": [{"segment": "A", "children": {}}]}),
     "SCHEMA_ERROR", "trees.Product[0].children"),
    ("project", "bool as int", project(**{"format-version": True}),
     "SCHEMA_ERROR", "format-version"),
    ("project", "bool as int", assessment(
        instances=[INSTANCE], records=[{**RECORD, "recorded-at": False}]),
     "SCHEMA_ERROR", "assessment.records[0].recorded-at"),
    ("project", "empty text", project(**{"project-id": ""}),
     "SCHEMA_ERROR", "project-id"),
    ("project", "empty text", description(elements=[{"id": ""}]),
     "SCHEMA_ERROR", "description.elements[0].id"),
    ("project", "non-map item", assessment(instances=[5]),
     "SCHEMA_ERROR", "assessment.instances[0]"),
    ("project", "non-map item", project(trees={"Product": [[]]}),
     "SCHEMA_ERROR", "trees.Product[0]"),
    ("project", "non-map item", description(coextension=[{}]),
     "SCHEMA_ERROR", "description.coextension[0]"),
    ("project", "non-text item", assessment(
        instances=[INSTANCE], records=[{**RECORD, "evidence": ["w", 5]}]),
     "SCHEMA_ERROR", "assessment.records[0].evidence[1]"),
    ("project", "non-text item", description(
        viewpoints=[{"name": "v", "concerns": [None]}]),
     "SCHEMA_ERROR", "description.viewpoints[0].concerns[0]"),
    ("project", "non-text item", description(
        views=[{"name": "w", "viewpoint": "v", "elements": [1]}]),
     "SCHEMA_ERROR", "description.views[0].elements[0]"),
    ("project", "bad enum", assessment(
        instances=[{**INSTANCE, "system-level": "Galaxy"}]),
     "SCHEMA_ERROR", "assessment.instances[0].system-level"),
    ("project", "bad enum", project(trees={"Shape": []}),
     "SCHEMA_ERROR", "trees"),
    ("project", "bad enum", description(**{"realization-nodes": [
            {"id": "n", "designators": {"Shape": "-A"}}]}),
     "SCHEMA_ERROR", "description.realization-nodes[0].designators"),
    ("project", "unknown key", project(notes=[]), "SCHEMA_ERROR", None),
    ("project", "unknown key", assessment(instances=[{**INSTANCE, "x": 1}]),
     "SCHEMA_ERROR", "assessment.instances[0]"),
    ("project", "unknown key", project(trees={"Product": [
        {"segment": "A", "x": 1}]}),
     "SCHEMA_ERROR", "trees.Product[0]"),
    ("project", "bad DCC code", assessment(**{
        "work-products": [{"id": "w", "definition": "Test Report",
                           "document-designation": "=F1&XCA"}]}),
     "SCHEMA_ERROR", "assessment.work-products[0].document-designation"),
    ("project", "unversioned", project(**{"format-version": 2}),
     "UNSUPPORTED_VERSION", None),
    ("project", "bad kernel", project(kernel=5), "SCHEMA_ERROR", "kernel"),
    ("project", "missing key", project(kernel={"areas": [], "alphas": []}),
     "SCHEMA_ERROR", "kernel"),
    ("project", "wrong type", project(kernel=kernel(name=7)),
     "SCHEMA_ERROR", "kernel.name"),
    ("project", "invalid kernel", project(kernel=kernel(areas=["Moon"])),
     "SCHEMA_ERROR", "kernel.areas[0]"),
    ("kernel", "not JSON", "{nope", "PARSE_ERROR", None),
    ("kernel", "root not a map", [], "SCHEMA_ERROR", None),
    ("kernel", "missing key", {"name": "k"}, "SCHEMA_ERROR", None),
    ("kernel", "missing key", kernel(alphas=[{"area": "Solution"}]),
     "SCHEMA_ERROR", "alphas[0]"),
    ("kernel", "wrong type", kernel(name=7), "SCHEMA_ERROR", "name"),
    ("kernel", "wrong type", kernel(areas="Customer"), "SCHEMA_ERROR", "areas"),
    ("kernel", "wrong type", with_alpha(states=[
        {**STATE, "checkpoints": [{"id": 5, "text": "t"}]}]),
     "SCHEMA_ERROR", "alphas[0].states[0].checkpoints[0].id"),
    ("kernel", "bool as text", kernel(name=True), "SCHEMA_ERROR", "name"),
    ("kernel", "non-map item", kernel(alphas=[5]), "SCHEMA_ERROR", "alphas[0]"),
    ("kernel", "non-map item", with_alpha(states=["S"]),
     "SCHEMA_ERROR", "alphas[0].states[0]"),
    ("kernel", "non-text item", kernel(areas=["Customer", 5]),
     "SCHEMA_ERROR", "areas[1]"),
    ("kernel", "non-text item", with_alpha(subalphas=[["B"]]),
     "SCHEMA_ERROR", "alphas[0].subalphas[0]"),
    ("dcc", "not JSON", "{nope", "PARSE_ERROR", None),
    ("dcc", "root not a map", ["A"], "SCHEMA_ERROR", None),
    ("dcc", "missing key", {"name": "plant"}, "SCHEMA_ERROR", None),
    ("dcc", "wrong type", dcc(areas=["X"]), "SCHEMA_ERROR", "areas"),
    ("dcc", "wrong type", dcc(classes="CA"), "SCHEMA_ERROR", "classes"),
    ("dcc", "wrong type", dcc(areas={"X": 5}), "SCHEMA_ERROR", "areas.X"),
    ("dcc", "bool as text", dcc(name=False), "SCHEMA_ERROR", "name"),
    ("dcc", "empty text", dcc(name=""), "SCHEMA_ERROR", "name"),
    ("dcc", "empty text", dcc(areas={"X": ""}), "SCHEMA_ERROR", "areas.X"),
    ("dcc", "no areas", dcc(areas={}), "SCHEMA_ERROR", "areas"),
    ("dcc", "bad DCC code", dcc(areas={"XY": "two"}), "SCHEMA_ERROR", "areas"),
    ("dcc", "bad DCC code", dcc(classes={"C": "one"}), "SCHEMA_ERROR",
     "classes"),
    ("project", "lone surrogate", project(**{"project-id": "p\ud800"}),
     "SCHEMA_ERROR", "project-id"),
    ("project", "lone surrogate", project(kernel=kernel(name="k\udfff")),
     "SCHEMA_ERROR", "kernel.name"),
    ("kernel", "lone surrogate", with_alpha(description="\udc00"),
     "SCHEMA_ERROR", "alphas[0].description"),
    ("dcc", "lone surrogate", dcc(areas={"X": "\ud800"}), "SCHEMA_ERROR",
     "areas.X"),
    ("project", "designator not text", description(**{"realization-nodes": [
            {"id": "n", "designators": {"Product": ["-A"]}}]}),
     "SCHEMA_ERROR", "description.realization-nodes[0].designators.Product"),
    ("project", "binding not a pair", description(bindings=[["e"]]),
     "SCHEMA_ERROR", "description.bindings[0]"),
    ("project", "binding not a pair", description(bindings=[["e", 5]]),
     "SCHEMA_ERROR", "description.bindings[0]"),
    ("project", "bad DCC code", assessment(**{
        "work-products": [{"id": "w", "definition": "Test Report",
                           "document-designation": ""}]}),
     "SCHEMA_ERROR", "assessment.work-products[0].document-designation"),
    ("project", "wrong type", assessment(**{
        "work-products": [{"id": "w", "definition": "Test Report",
                           "document-designation": None}]}),
     "SCHEMA_ERROR", "assessment.work-products[0].document-designation"),
    ("project", "unknown key", assessment(notes=[]), "SCHEMA_ERROR", "assessment"),
    ("project", "unknown key", description(notes=[]), "SCHEMA_ERROR",
     "description"),
    ("project", "wrong type", description(views={}), "SCHEMA_ERROR",
     "description.views"),
    ("project", "unknown key", description(elements=[{"id": "e", "x": 1}]),
     "SCHEMA_ERROR", "description.elements[0]"),
    ("project", "wrong type", assessment(**{"strict-evidence": 1}),
     "SCHEMA_ERROR", "assessment.strict-evidence"),
]


@pytest.mark.parametrize(
    "kind, rule, doc, code, path", SHAPE_ERRORS,
    ids=[f"{kind}-{rule}-{i}" for i, (kind, rule, *_) in enumerate(SHAPE_ERRORS)])
def test_shape_error_table(kind, rule, doc, code, path):
    reader, error = READERS[kind]
    text = doc if isinstance(doc, str) else json.dumps(doc)
    with pytest.raises(EssenceError) as err:
        reader(text)
    assert type(err.value) is error
    assert (err.value.code, err.value.path) == (code, path), err.value


@pytest.mark.parametrize("kind", sorted(READERS))
def test_memory_error_while_decoding_is_a_parse_error(kind, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(json, "loads", exhausted)
    read, error = READERS[kind]
    with pytest.raises(error) as err:
        read("{}")
    assert err.value.code == "PARSE_ERROR"


@pytest.mark.parametrize("kind, what", [
    ("project", "project document"), ("kernel", "kernel document"),
    ("dcc", "DCC table")])
def test_loaders_refuse_input_that_is_neither_text_nor_bytes(kind, what):
    read, error = READERS[kind]
    for data, name in ((5, "int"), (None, "NoneType"), (memoryview(b"{}"),
                                                        "memoryview")):
        with pytest.raises(error) as err:
            read(data)
        assert (err.value.code, err.value.message, err.value.path) == (
            "UNSUPPORTED_VALUE", f"{what} must be text or bytes, not {name}",
            None)
    with pytest.raises(error) as err:  # bytearray is read as bytes are
        read(bytearray(b"[]"))
    assert err.value.code == "SCHEMA_ERROR"


def test_kernel_documents_accept_unknown_keys():
    k = loads_kernel(json.dumps(kernel(notes="free text")))
    assert k.name == "k"
    assert loads_dcc_table(json.dumps(dcc(notes=1))).name == "plant"


def test_entry_messages_are_stable():
    def message(doc: dict) -> str:
        with pytest.raises(ProjectError) as err:
            load_project(json.dumps(doc))
        return err.value.message

    assert message(assessment(instances=[5])) == "entry must be a map"
    assert message(project(trees={"Product": [5]})) == "tree node must be a map"
    assert message(project(trees={"Product": 5})) == "tree roots must be a list"
    assert message(description(coextension=[5])) == "entry must be a list"
    assert message(description(views={})) == "key 'views' must be list"
    assert message(assessment(instances=[INSTANCE], records=[
        {**RECORD, "evidence": [5]}])) == "evidence ids must be text"
    assert message(description(views=[
        {"name": "w", "viewpoint": "v", "elements": [1]}])) == (
        "view elements must be element ids")
    assert message(assessment(instances=[{"id": "i"}])) == "missing key 'alpha'"
    assert message(assessment(instances=[{**INSTANCE, "id": 5}])) == (
        "key 'id' must be str")


# Mutation fuzz: only EssenceError, with a documented code, may escape.

CODES = {
    "project": {"PARSE_ERROR", "SCHEMA_ERROR", "UNSUPPORTED_VERSION"},
    "kernel": {"PARSE_ERROR", "SCHEMA_ERROR"},
    "dcc": {"PARSE_ERROR", "SCHEMA_ERROR"},
}

# Lone surrogates, and a valid pair (an astral character) that must load.
SURROGATE_TEXTS = ["\ud800", "x\udfff", "\U0001F600"]
KEYS = ["id", "name", "x", "A", "\udc80"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
    | st.sampled_from(["", "builtin", "Product", "Shape", "A", "AA", "x",
                       "=F1&ACA", "=F1&XCA", "-12/+M1", "System Realization",
                       "RM-1", "inst-0", "el-0", "rn-0", "vp-0",
                       *SURROGATE_TEXTS]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS), inner, max_size=3),
    max_leaves=6)

NO_SURROGATE = object()


def lone(text: str) -> bool:
    return any(0xD800 <= ord(c) <= 0xDFFF for c in text)


def first_lone_surrogate(value, path=None):
    """The path of the first text in document order that holds a lone
    surrogate, a key counting as its map; NO_SURROGATE if none does."""
    if isinstance(value, str):
        return path if lone(value) else NO_SURROGATE
    if isinstance(value, dict):
        if any(lone(key) for key in value):
            return path
        found = (first_lone_surrogate(v, k if path is None else f"{path}.{k}")
                 for k, v in value.items())
    elif isinstance(value, list):
        found = (first_lone_surrogate(v, f"{path}[{i}]")
                 for i, v in enumerate(value))
    else:
        return NO_SURROGATE
    return next((p for p in found if p is not NO_SURROGATE), NO_SURROGATE)


def valid_document(kind: str, rng: random.Random) -> dict:
    if kind == "project":
        return json.loads(save_project(genlib.random_project(rng)))
    if kind == "kernel":
        source = (builtin_se_kernel() if rng.random() < 0.3
                  else genlib.random_kernel(rng))
        return kernel_to_doc(source)
    return {"name": "plant",
            "areas": {letter: f"area {letter}"
                      for letter in rng.sample("ABMXZ", rng.randint(1, 3))},
            "classes": {"CA": "contracts"} if rng.random() < 0.5 else {}}


@st.composite
def mutated(draw, kind: str) -> tuple[str | bytes, object]:
    """A mutated document as escaped text or as raw UTF-8 bytes, and the
    path where a reader must refuse a lone surrogate (NO_SURROGATE when
    it holds none, or is cut short)."""
    doc = valid_document(kind, random.Random(draw(st.integers(0, 2 ** 32))))
    for _ in range(draw(st.integers(1, 3))):
        # Walk down to a random container, then edit one of its slots.
        node = doc
        while True:
            slots = list(node) if isinstance(node, dict) else range(len(node))
            children = [s for s in slots if isinstance(node[s], (dict, list))]
            if not children or draw(st.integers(0, 3)) == 0:
                break
            node = node[draw(st.sampled_from(children))]
        op = draw(st.sampled_from(["replace", "delete", "insert", "copy"]))
        slots = list(node) if isinstance(node, dict) else list(range(len(node)))
        if op == "insert" or not slots:
            if isinstance(node, dict):
                node[draw(st.sampled_from(KEYS))] = draw(json_values)
            else:
                node.insert(draw(st.integers(0, len(node))), draw(json_values))
        elif op == "delete":
            del node[draw(st.sampled_from(slots))]
        elif op == "copy" and isinstance(node, list):
            node.append(json.loads(json.dumps(node[draw(st.sampled_from(slots))])))
        else:
            node[draw(st.sampled_from(slots))] = draw(json_values)
    surrogate = first_lone_surrogate(doc)
    if draw(st.booleans()):
        data = json.dumps(doc)  # a surrogate as a \u escape
    else:
        data = json.dumps(doc, ensure_ascii=False).encode("utf-8",
                                                          "surrogatepass")
    if draw(st.integers(0, 9)) == 0:
        data = data[:draw(st.integers(0, len(data)))]
        surrogate = NO_SURROGATE
    return data, surrogate


def check_contract(kind: str, case: tuple[str | bytes, object]):
    data, surrogate = case
    reader, error = READERS[kind]
    try:
        value = reader(data)
    except EssenceError as err:
        assert type(err) is error, repr(err)
        assert err.code in CODES[kind], repr(err)
        if surrogate is not NO_SURROGATE:
            assert (err.code, err.message, err.path) == (
                "SCHEMA_ERROR", "text holds a lone surrogate", surrogate), err
        return None
    assert surrogate is NO_SURROGATE
    return value


@settings(max_examples=150, deadline=None)
@given(mutated("project"))
def test_mutated_projects_stay_in_contract(case):
    p = check_contract("project", case)
    if p is not None:
        # Whatever loads must save and load back to the same value.
        assert load_project(save_project(p)) == p


@settings(max_examples=150, deadline=None)
@given(mutated("kernel"))
def test_mutated_kernels_stay_in_contract(case):
    k = check_contract("kernel", case)
    if k is not None:
        validate_kernel(k)


@settings(max_examples=100, deadline=None)
@given(mutated("dcc"))
def test_mutated_dcc_tables_stay_in_contract(case):
    table = check_contract("dcc", case)
    if table is not None:
        for letter in table.areas:
            assert parse_document_designation(
                f"=F1&{letter}CA", table).table_ref == table.name


# Each entry class states its fields once, in its _FIELDS table.

def full_entries() -> list:
    """One value of each entry class, every field one a file writes."""
    k = builtin_se_kernel()
    return [
        AlphaInstance("i", "Team", SystemLevel.USING_SYSTEM),
        WorkProductInstance("w", "Test Report", "l",
                            parse_document_designation("=F1&MCA")),
        CheckpointRecord("i", "s", "c", True, ("w",), 3),
        Viewpoint("v", StructureType.ALLOCATION, ("c",), DescriptionKind.TEAM),
        View("v", "vp", ("e",)),
        ViewElement("e", "l", True),
        RealizationNode("n", (AspectChain(Aspect.PRODUCT, ("A",)),)),
        k.alphas[0].states[0].checkpoints[0], k.alphas[0].states[0],
        next(a for a in k.alphas if a.subalphas), k.workproducts[0], k,
    ]


@pytest.mark.parametrize("entry", full_entries(),
                         ids=lambda entry: type(entry).__name__)
def test_each_table_names_every_field_once_and_is_what_a_file_holds(entry):
    cls = type(entry)
    names = [f.name for f in dataclasses.fields(cls)]
    assert [attr for attr, *_ in cls._FIELDS] == names
    # read_entry takes a missing key's default from the class attribute.
    assert [hasattr(cls, f.name) for f in dataclasses.fields(cls)] == [
        f.default is not dataclasses.MISSING for f in dataclasses.fields(cls)]
    error = KernelError if cls.__module__.endswith("metamodel") else ProjectError
    doc = entry_docs((entry,), None, error)[0]
    assert list(doc) == [key for _, key, *_ in cls._FIELDS]
    assert read_entry(cls, json.loads(json.dumps(doc)), "e", error) == entry
