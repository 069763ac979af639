"""Project persistence: canonical saves, validated loads, round-trips."""

from __future__ import annotations

import copy
import json
import pickle
import random
import re
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import genlib
from essencekit import (
    AlphaInstance,
    Aspect,
    AspectChain,
    Assessment,
    BreakdownNode,
    BreakdownTree,
    CheckpointRecord,
    AssessmentError,
    DescriptionKind,
    DescriptionModel,
    DesignationError,
    DocumentDesignation,
    EssenceError,
    KernelError,
    ModelError,
    Project,
    ProjectError,
    RealizationNode,
    StructureType,
    SystemLevel,
    View,
    ViewElement,
    Viewpoint,
    WorkProductInstance,
    add_element,
    add_instance,
    add_realization_node,
    add_view,
    add_viewpoint,
    add_work_product,
    assert_coextension,
    bind_element,
    builtin_se_kernel,
    kernel_to_doc,
    load_project,
    loads_dcc_table,
    new_project,
    parse_designation,
    parse_document_designation,
    record_checkpoint,
    render_card,
    resolve,
    save_project,
)
from essencekit import designation, store
from essencekit._schema import check_fields, read_columns
from essencekit.designation import _read_tree as read_tree
from essencekit.designation import read_trees
from essencekit.store import MAX_TREE_DEPTH

MINIMAL = '{"format-version": 1, "project-id": "p"}'


def sample_project() -> Project:
    p = new_project("demo")
    a = p.assessment
    a = add_instance(a, AlphaInstance(id="sr-1", alpha="System Realization"))
    a = add_work_product(a, WorkProductInstance(
        id="wp-1", definition="Test Report", label="acceptance run",
        document_designation=parse_document_designation("=F1&MCA")))
    a = record_checkpoint(a, CheckpointRecord(
        "sr-1", "Raw materials", "RM-1", True, evidence=("wp-1",),
        recorded_at=42))
    trees = (BreakdownTree(aspect=Aspect.PRODUCT, roots=(
        BreakdownNode("12", (BreakdownNode("N4", (BreakdownNode("DN18"),)),)),)),)
    model = add_element(DescriptionModel(), ViewElement(id="e1", has_extent=True))
    model = add_element(model, ViewElement(id="e2", has_extent=True))
    model = add_realization_node(model, RealizationNode(
        id="n1", designators=(AspectChain(Aspect.PRODUCT, ("12", "N4")),)))
    model = assert_coextension(model, "e1", "e2")
    model = bind_element(model, "e1", "n1")
    return replace(p, assessment=a, trees=trees, description=model)


def load_error(text: str | bytes) -> ProjectError:
    with pytest.raises(ProjectError) as err:
        load_project(text)
    return err.value


def test_save_load_identity():
    p = sample_project()
    assert load_project(save_project(p)) == p


def test_save_is_deterministic_and_newline_terminated():
    p = sample_project()
    blob = save_project(p)
    assert blob == save_project(p)
    assert blob.endswith(b"\n")
    assert blob.decode("utf-8").startswith('{\n  "format-version": 1,')


def test_save_of_load_is_canonical_fixpoint():
    blob = save_project(sample_project())
    assert save_project(load_project(blob)) == blob


def test_minimal_document_loads_with_defaults():
    p = load_project(MINIMAL)
    assert p.project_id == "p"
    assert p.builtin_kernel
    assert p.kernel == builtin_se_kernel()
    assert p.assessment.instances == ()
    assert p.trees == ()
    assert p.description.elements == ()
    # Normalization: saving the minimal document spells everything out.
    full = json.loads(save_project(p))
    assert full["kernel"] == "builtin"
    assert full["assessment"]["strict-evidence"] is False


def test_builtin_kernel_is_stored_as_marker():
    doc = json.loads(save_project(sample_project()))
    assert doc["kernel"] == "builtin"


def test_inline_kernel_round_trips():
    rng = random.Random(8807)
    kernel = genlib.random_kernel(rng)
    p = new_project("inline", kernel=kernel)
    doc = json.loads(save_project(p))
    assert isinstance(doc["kernel"], dict)
    assert doc["kernel"]["name"] == kernel.name
    loaded = load_project(save_project(p))
    assert loaded.kernel == kernel
    assert not loaded.builtin_kernel


def test_inline_kernel_with_long_subalpha_chain_loads():
    p = new_project("chain", kernel=genlib.chain_kernel(2000))
    assert load_project(save_project(p)) == p


def test_a_project_refuses_the_kernel_new_project_refuses():
    """A project on an inline kernel holds only a kernel that new_project
    and load_project take, so each one that saves loads again."""
    kernel = builtin_se_kernel()
    twice = replace(kernel, alphas=kernel.alphas + kernel.alphas[:1])
    refusals = []
    for make in (lambda: new_project("p", kernel=twice),
                 lambda: Project("p", Assessment("p", twice), builtin_kernel=False)):
        with pytest.raises(KernelError) as err:
            make()
        refusals.append((err.value.code, err.value.message, err.value.path))
    assert refusals == [("DUPLICATE_ALPHA", f"alpha {kernel.alphas[0].name!r} "
                         "defined more than once", f"alphas[{len(kernel.alphas)}]")] * 2


def test_an_invalid_inline_kernel_is_the_loads_first_error():
    kernel = builtin_se_kernel()
    twice = replace(kernel, alphas=kernel.alphas + kernel.alphas[:1])
    doc = json.loads(save_project(sample_project()))
    doc["kernel"] = kernel_to_doc(twice)
    doc["assessment"]["instances"].append({"id": 7, "alpha": "Nowhere"})
    err = load_error(json.dumps(doc))
    assert (err.code, err.message, err.path) == (
        "SCHEMA_ERROR", f"DUPLICATE_ALPHA: alpha {kernel.alphas[0].name!r} "
        "defined more than once", f"kernel.alphas[{len(kernel.alphas)}]")


def test_save_refuses_designations_of_other_dcc_tables():
    plant = loads_dcc_table(
        '{"name": "plant", "areas": {"A": "general", "X": "process"}}')
    designations = (
        parse_document_designation("=F1&XCA", plant),  # would not load
        parse_document_designation("=F1&ACA", plant),  # would lose its table
        DocumentDesignation(system=parse_designation("=F1"), dcc="XCA"),
    )
    for designation in designations:
        p = new_project("dcc")
        a = add_work_product(p.assessment, WorkProductInstance(
            id="wp", definition="Test Report",
            document_designation=designation))
        with pytest.raises(ProjectError) as err:
            save_project(replace(p, assessment=a))
        assert err.value.code == "CUSTOM_DCC_TABLE"
        assert err.value.path == (
            "assessment.work-products[0].document-designation")


def test_save_refuses_text_that_utf8_cannot_hold():
    for p, path in (
            (new_project("p\ud800"), "project-id"),
            (replace(new_project("p"), description=add_element(
                DescriptionModel(), ViewElement(id="e1", label="a\udfff"))),
             "description.elements[0].label"),
            (replace(new_project("p"), description=DescriptionModel(
                elements=(ViewElement("e1", has_extent=True),),
                realization_nodes=(RealizationNode("n\ud800"),),
                bindings=(("e1", "n\ud800"),))),
             "description.realization-nodes[0].id")):
        with pytest.raises(ProjectError) as err:
            save_project(p)
        assert (err.value.code, err.value.message, err.value.path) == (
            "UNSUPPORTED_VALUE", "text holds a lone surrogate", path)
    astral = new_project("p\U0001F600")
    assert load_project(save_project(astral)) == astral


def test_save_refuses_values_a_document_cannot_hold():
    """The container refuses such a value when it is made, naming the
    entry, so no project that save_project takes holds one."""
    a = sample_project().assessment
    with pytest.raises(AssessmentError) as err:
        replace(a, records=(replace(a.records[0], recorded_at=1.5),))
    assert (err.value.code, err.value.message, err.value.path) == (
        "UNSUPPORTED_VALUE", "recorded_at must be an int, not float", "records[0]")


@pytest.mark.parametrize("entries, path", [
    ({"instances": (AlphaInstance(5, "Team"),)}, "instances[0]"),
    ({"work_products": (WorkProductInstance("w", "Test Report", None),)},
     "work_products[0]"),
    ({"records": (CheckpointRecord("i", "s", "c", 1),)}, "records[0]"),
    ({"records": (CheckpointRecord("i", "s", "c", True, ["w"]),)}, "records[0]"),
    ({"records": (CheckpointRecord("i", "Raw materials", "RM-1", True),
                  CheckpointRecord("i", "s", "c", True, ("w", 5)))}, "records[1]"),
    ({"elements": (ViewElement("e", has_extent=1),)}, "elements[0]"),
    ({"views": (View("v", "vp", ("e",)), View("w", None))}, "views[1]"),
    ({"viewpoints": (Viewpoint("v", concerns=(None,)),)}, "viewpoints[0]"),
    ({"bindings": (("e", "n"), ("a",))}, "bindings[1]"),
    ({"bindings": (("e", 5),)}, "bindings[0]"),
    ({"coextension": frozenset({frozenset({"a"})})}, "coextension[0]"),
], ids=["instance-id-int", "label-none", "satisfied-int", "evidence-list",
        "evidence-item-int", "has-extent-int", "viewpoint-none", "concern-none",
        "binding-of-one", "binding-node-int", "class-of-one"])
def test_save_refuses_entry_fields_a_file_cannot_hold(entries, path):
    """The containers refuse, when they are made, what loading refuses,
    naming the entry; so no project that save_project takes holds it.
    The entries before the refused one are sound."""
    held = {"instances": (AlphaInstance("i", "System Realization"),),
            "viewpoints": (Viewpoint("vp"),),
            "elements": (ViewElement("e", has_extent=True),),
            "realization_nodes": (RealizationNode("n"),), **entries}
    a = {k: v for k, v in held.items() if k in Assessment.__annotations__}
    with pytest.raises(EssenceError) as err:
        replace(new_project("p").assessment, **a)
        DescriptionModel(**{k: v for k, v in held.items() if k not in a})
    assert (err.value.code, err.value.path) == ("UNSUPPORTED_VALUE", path)


def test_save_refuses_a_document_designation_of_another_type():
    """The assessment refuses it when it is made, naming the entry."""
    a = sample_project().assessment
    with pytest.raises(AssessmentError) as err:
        replace(a, work_products=(replace(
            a.work_products[0], document_designation="=F1&MCA"),))
    assert (err.value.code, err.value.message, err.value.path) == (
        "UNSUPPORTED_VALUE", "document designation must be a "
        "DocumentDesignation, not str", "work_products[0]")


def test_load_refuses_lone_surrogates_where_they_sit():
    escaped = '{"format-version": 1, "project-id": "p\\ud800"}'
    raw = ('{"format-version": 1, "project-id": "p", "assessment": '
           '{"instances": [{"id": "i\udfff", "alpha": "System Realization"}]}}')
    for data, path in (
            (escaped, "project-id"),
            (escaped.encode("utf-16"), "project-id"),
            (raw, "assessment.instances[0].id"),
            (raw.encode("utf-8", "surrogatepass"), "assessment.instances[0].id"),
            ('{"format-version": 1, "project-id": "p", "\udc80": 1}', None)):
        err = load_error(data)
        assert (err.code, err.message, err.path) == (
            "SCHEMA_ERROR", "text holds a lone surrogate", path)
    # An escaped pair is one astral character, as it is in raw UTF-8.
    pair = load_project('{"format-version": 1, "project-id": "p\\ud83d\\ude00"}')
    assert pair.project_id == "p\U0001F600"
    assert load_project(save_project(pair)) == pair


def test_loading_rejects_wrong_version():
    err = load_error('{"format-version": 2, "project-id": "p"}')
    assert err.code == "UNSUPPORTED_VERSION"
    err = load_error('{"project-id": "p"}')
    assert err.code == "SCHEMA_ERROR"
    err = load_error('{"format-version": true, "project-id": "p"}')
    assert err.code == "SCHEMA_ERROR"


def test_loading_rejects_bad_json():
    assert load_error("{nope").code == "PARSE_ERROR"
    assert load_error(b"\xff\xfe").code == "PARSE_ERROR"
    assert load_error("[1, 2]").code == "SCHEMA_ERROR"


def test_loading_rejects_unknown_keys():
    err = load_error('{"format-version": 1, "project-id": "p", "notes": []}')
    assert err.code == "SCHEMA_ERROR"
    assert "notes" in err.message


def test_loading_rejects_empty_project_id():
    err = load_error('{"format-version": 1, "project-id": ""}')
    assert err.code == "SCHEMA_ERROR"
    assert err.path == "project-id"


def test_dangling_record_names_its_path():
    doc = {
        "format-version": 1,
        "project-id": "p",
        "assessment": {
            "instances": [{"id": "i-1", "alpha": "System Realization"}],
            "records": [
                {"alpha-instance": "i-1", "state": "Raw materials",
                 "checkpoint": "RM-1", "satisfied": True},
                {"alpha-instance": "i-1", "state": "Raw materials",
                 "checkpoint": "ZZ-9", "satisfied": True},
            ],
        },
    }
    err = load_error(json.dumps(doc))
    assert err.code == "SCHEMA_ERROR"
    assert err.path == "assessment.records[1]"
    assert "UNKNOWN_CHECKPOINT" in err.message


def test_record_against_unknown_instance_is_schema_error():
    doc = {
        "format-version": 1,
        "project-id": "p",
        "assessment": {
            "records": [
                {"alpha-instance": "ghost", "state": "Raw materials",
                 "checkpoint": "RM-1", "satisfied": True},
            ],
        },
    }
    err = load_error(json.dumps(doc))
    assert "UNKNOWN_INSTANCE" in err.message


def test_unknown_alpha_instance_is_schema_error():
    doc = {
        "format-version": 1,
        "project-id": "p",
        "assessment": {"instances": [{"id": "i-1", "alpha": "Ghost"}]},
    }
    err = load_error(json.dumps(doc))
    assert err.path == "assessment.instances[0]"
    assert "UNKNOWN_ALPHA" in err.message


def test_invalid_inline_kernel_is_schema_error():
    doc = {
        "format-version": 1,
        "project-id": "p",
        "kernel": {
            "name": "k",
            "areas": ["Customer", "Solution", "Endeavor"],
            "alphas": [
                {"name": "A", "area": "Solution", "states": [
                    {"name": "S", "summary": "s",
                     "checkpoints": [{"id": "S-1", "text": "t"}]}]},
                {"name": "A", "area": "Solution", "states": [
                    {"name": "S", "summary": "s",
                     "checkpoints": [{"id": "S-1", "text": "t"}]}]},
            ],
        },
    }
    err = load_error(json.dumps(doc))
    assert err.code == "SCHEMA_ERROR"
    assert "DUPLICATE_ALPHA" in err.message
    assert err.path.startswith("kernel.")


def test_bad_document_designation_is_schema_error():
    doc = {
        "format-version": 1,
        "project-id": "p",
        "assessment": {
            "work-products": [
                {"id": "wp", "definition": "Test Report",
                 "document-designation": "=F1&XCA"},
            ],
        },
    }
    err = load_error(json.dumps(doc))
    assert "UNKNOWN_TECHNICAL_AREA" in err.message
    assert err.path == "assessment.work-products[0].document-designation"


def test_bad_enum_value_is_schema_error():
    doc = {
        "format-version": 1,
        "project-id": "p",
        "assessment": {
            "instances": [
                {"id": "i", "alpha": "Team", "system-level": "Galaxy"},
            ],
        },
    }
    err = load_error(json.dumps(doc))
    assert err.code == "SCHEMA_ERROR"
    assert "Galaxy" in err.message


def test_tree_errors_are_schema_errors():
    base = {"format-version": 1, "project-id": "p"}
    dup = dict(base, trees={"Product": [{"segment": "A"}, {"segment": "A"}]})
    err = load_error(json.dumps(dup))
    assert "DUPLICATE_SIBLING" in err.message
    bad_aspect = dict(base, trees={"Shape": []})
    assert load_error(json.dumps(bad_aspect)).code == "SCHEMA_ERROR"
    bad_segment = dict(base, trees={"Product": [{"segment": "a"}]})
    assert "BAD_SEGMENT" in load_error(json.dumps(bad_segment)).message


def test_designator_must_be_single_matching_chain():
    base = {"format-version": 1, "project-id": "p"}
    wrong_aspect = dict(base, description={
        "realization-nodes": [{"id": "n", "designators": {"Product": "=F1"}}]})
    err = load_error(json.dumps(wrong_aspect))
    assert "single Product chain" in err.message
    multi = dict(base, description={
        "realization-nodes": [{"id": "n", "designators": {"Product": "-12/+M1"}}]})
    assert load_error(json.dumps(multi)).code == "SCHEMA_ERROR"


DESIGNATOR_TOKENS = ["=", "-", "+", "/", " / ", " ", "F1", "12", "N4", "a",
                     "=F1", "-12-N4", "+M13"]


@settings(max_examples=500, deadline=None)
@example({"Function": "=F1 /"})
@example({"Product": "=F1", "Function": "=F1"})
@example({"Location": "+M13+A1", "Product": "-12-N4"})
@given(st.dictionaries(
    st.sampled_from(["Function", "Product", "Location", "function", "", "Shape"]),
    st.one_of(st.text(alphabet="=+-/ AZ09az", max_size=12),
              st.lists(st.sampled_from(DESIGNATOR_TOKENS), max_size=6).map("".join),
              st.sampled_from([None, 5, ["=F1"], {"Function": "=F1"}])),
    max_size=3))
def test_designators_load_as_the_general_parser_reads_them(designators):
    doc = {"format-version": 1, "project-id": "p", "description": {
        "realization-nodes": [{"id": "n", "designators": designators}]}}
    try:
        expected = RealizationNode("n", genlib.reference_designators(
            designators, "description.realization-nodes[0].designators",
            ProjectError))
    except ProjectError as exc:
        err = load_error(json.dumps(doc))
        assert (type(err), err.code, err.message, err.path) == (
            type(exc), exc.code, exc.message, exc.path)
    else:
        assert load_project(json.dumps(doc)).description.realization_nodes == (
            expected,)


def test_coextension_class_needs_two_members():
    doc = {
        "format-version": 1,
        "project-id": "p",
        "description": {
            "elements": [{"id": "e1", "has-extent": True}],
            "coextension": [["e1"]],
        },
    }
    err = load_error(json.dumps(doc))
    assert err.path == "description.coextension[0]"


def test_coextension_of_definition_only_element_is_schema_error():
    doc = {
        "format-version": 1,
        "project-id": "p",
        "description": {
            "elements": [{"id": "e1", "has-extent": True}, {"id": "e2"}],
            "coextension": [["e1", "e2"]],
        },
    }
    err = load_error(json.dumps(doc))
    assert "NO_EXTENT" in err.message


def test_conflicting_bindings_rejected_at_load():
    doc = {
        "format-version": 1,
        "project-id": "p",
        "description": {
            "elements": [{"id": "e1", "has-extent": True}],
            "realization-nodes": [{"id": "n1"}, {"id": "n2"}],
            "bindings": [["e1", "n1"], ["e1", "n2"]],
        },
    }
    err = load_error(json.dumps(doc))
    assert "BINDING_CONFLICT" in err.message
    assert err.path == "description.bindings[1]"


def test_strict_evidence_round_trips():
    p = new_project("strict", strict_evidence=True)
    assert load_project(save_project(p)).assessment.strict_evidence is True


def test_kernel_mismatch_guard():
    other = Assessment(project_id="x", kernel=genlib.random_kernel(
        random.Random(9901)))
    with pytest.raises(ProjectError) as err:
        Project(project_id="x", assessment=other, builtin_kernel=True)
    assert err.value.code == "KERNEL_MISMATCH"


def test_project_refuses_an_assessment_of_another_project():
    p = new_project("a")
    with pytest.raises(ProjectError) as err:
        replace(p, assessment=replace(p.assessment, project_id="b"))
    assert (err.value.code, err.value.path) == ("PROJECT_ID_MISMATCH", None)
    assert err.value.message == "assessment belongs to project 'b'"


def test_empty_project_id_is_refused():
    with pytest.raises(ProjectError) as err:
        new_project("")
    assert (err.value.code, err.value.path) == ("EMPTY_ID", None)
    with pytest.raises(ProjectError) as err:
        Project(project_id="", assessment=Assessment(
            project_id="", kernel=builtin_se_kernel()))
    assert err.value.code == "EMPTY_ID"


def test_new_project_refuses_an_invalid_custom_kernel():
    kernel = builtin_se_kernel()
    twice = replace(kernel, alphas=kernel.alphas + kernel.alphas[:1])
    with pytest.raises(KernelError) as err:
        new_project("q", kernel=twice)
    assert (err.value.code, err.value.path) == ("DUPLICATE_ALPHA", "alphas[15]")
    custom = genlib.random_kernel(random.Random(9901))
    p = new_project("q", kernel=custom)
    assert load_project(save_project(p)) == p


def test_trees_are_kept_in_aspect_order():
    p = new_project("t")
    p = replace(p, trees=(
        BreakdownTree(aspect=Aspect.LOCATION, roots=(BreakdownNode("M1"),)),
        BreakdownTree(aspect=Aspect.FUNCTION, roots=(BreakdownNode("F1"),))))
    assert [t.aspect for t in p.trees] == [Aspect.FUNCTION, Aspect.LOCATION]
    assert p.tree_for(Aspect.FUNCTION).roots[0].segment == "F1"
    assert p.tree_for(Aspect.PRODUCT) is None
    loaded = load_project(save_project(p))
    assert loaded.trees == p.trees


def test_one_tree_per_aspect():
    product = [BreakdownTree(aspect=Aspect.PRODUCT, roots=(BreakdownNode(s),))
               for s in ("A", "B")]
    trees = (product[0], BreakdownTree(aspect=Aspect.FUNCTION), product[1])
    with pytest.raises(ProjectError) as err:
        replace(new_project("p"), trees=trees)
    assert (err.value.code, err.value.path) == ("DUPLICATE_ASPECT", "trees.Product")
    assert err.value.message == "two breakdown trees for aspect Product"


def test_the_first_repeated_aspect_in_canonical_order_is_named():
    """Location repeats first in the input, Product first in canonical
    order; the canonical one is named, for a node as for a project."""
    chains = tuple(parse_designation(text).chains[0]
                   for text in ("+L1", "-P1", "+L2", "-P2"))
    with pytest.raises(ModelError) as err:
        RealizationNode("n", chains)
    assert (err.value.code, err.value.message, err.value.path) == (
        "DUPLICATE_ASPECT", "node 'n' has two Product designators", None)
    trees = tuple(BreakdownTree(aspect) for aspect in (
        Aspect.LOCATION, Aspect.PRODUCT, Aspect.LOCATION, Aspect.PRODUCT))
    with pytest.raises(ProjectError) as err:
        replace(new_project("p"), trees=trees)
    assert (err.value.code, err.value.message, err.value.path) == (
        "DUPLICATE_ASPECT", "two breakdown trees for aspect Product",
        "trees.Product")


def deep_project(depth: int) -> Project:
    return replace(new_project("deep"),
                   trees=(genlib.chain_tree(Aspect.PRODUCT, depth),))


def test_tree_at_the_depth_limit_round_trips():
    p = deep_project(MAX_TREE_DEPTH)
    blob = save_project(p)
    loaded = load_project(blob)
    assert len(loaded.trees[0].paths()[-1]) == MAX_TREE_DEPTH
    assert save_project(loaded) == blob
    # The loaded value compares, hashes, prints and pickles.
    assert loaded == p and hash(loaded.trees) == hash(p.trees)
    assert repr(loaded.trees) == repr(p.trees)
    assert pickle.loads(pickle.dumps(loaded)) == p


@pytest.mark.parametrize("depth", [MAX_TREE_DEPTH + 1, 1500])
def test_save_refuses_trees_deeper_than_the_limit(depth):
    with pytest.raises(ProjectError) as err:
        save_project(deep_project(depth))
    assert (err.value.code, err.value.path) == ("TREE_TOO_DEEP", "trees.Product")


def test_save_names_the_tree_that_is_too_deep():
    deep = genlib.chain_tree(Aspect.LOCATION, MAX_TREE_DEPTH + 1)
    p = replace(new_project("deep"), trees=(
        BreakdownTree(aspect=Aspect.FUNCTION, roots=(BreakdownNode("F1"),)),
        BreakdownTree(aspect=Aspect.LOCATION,
                      roots=(BreakdownNode("M1"),) + deep.roots)))
    with pytest.raises(ProjectError) as err:
        save_project(p)
    assert (err.value.code, err.value.path) == ("TREE_TOO_DEEP", "trees.Location")
    assert err.value.message == (
        f"breakdown tree is more than {MAX_TREE_DEPTH} levels deep")


def test_save_refuses_entry_fields_before_a_tree_too_deep():
    """Entry lists are checked before any tree is written, so of an entry
    field a file cannot hold, a designation of another DCC table, and a
    tree too deep, the field is refused first."""
    plant = loads_dcc_table('{"name": "plant", "areas": {"A": "general"}}')
    p = deep_project(MAX_TREE_DEPTH + 1)
    p = replace(p, assessment=add_work_product(p.assessment, WorkProductInstance(
        id="wp", definition="Test Report",
        document_designation=parse_document_designation("=F1&ACA", plant))))
    with pytest.raises(ProjectError) as err:
        save_project(p)
    assert (err.value.code, err.value.path) == (
        "CUSTOM_DCC_TABLE", "assessment.work-products[0].document-designation")


def test_load_refuses_trees_deeper_than_the_limit():
    depth = MAX_TREE_DEPTH + 1
    tree = ('{"segment": "A", "children": [' * (depth - 1) + '{"segment": "A"}'
            + "]}" * (depth - 1))
    err = load_error('{"format-version": 1, "project-id": "p", "trees": '
                     '{"Function": [{"segment": "F1"}], "Location": ['
                     + tree + "]}}")
    assert (err.code, err.path) == ("TREE_TOO_DEEP", "trees.Location")


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 3))
def test_tree_load_errors_are_the_recursive_readers(rng, faults):
    aspects = rng.sample(list(Aspect), rng.randint(1, 3))
    project = replace(new_project("p"), trees=tuple(
        genlib.random_tree(rng, aspect, max_nodes=20) for aspect in aspects))
    doc = json.loads(save_project(project))
    kinds = {genlib.plant_tree_fault(rng, doc["trees"]) for _ in range(faults)}
    blob = json.dumps(doc)
    with pytest.raises(ProjectError) as expected:
        genlib.reference_trees(json.loads(blob)["trees"])
    err = load_error(blob)
    assert (err.code, err.message, err.path) == (
        expected.value.code, expected.value.message, expected.value.path), kinds


def test_canonical_saves_read_every_tree_in_one_pass(monkeypatch):
    # A tree that the one-pass reader refuses is read again node by node,
    # which loads it as well, only slower: no canonical save may take it.
    read = []

    def spy(roots):
        read.append(read_tree(roots))
        return read[-1]

    monkeypatch.setattr(designation, "_read_tree", spy)
    rng = random.Random(3030)
    projects = [genlib.random_project(rng) for _ in range(40)]
    projects.append(replace(new_project("p"), trees=(
        BreakdownTree(Aspect.FUNCTION, ()),
        genlib.chain_tree(Aspect.PRODUCT, MAX_TREE_DEPTH))))
    for p in projects:
        read.clear()
        assert load_project(save_project(p)) == p
        assert len(read) == len(p.trees)
        assert all(arrays is not None for arrays in read)
    assert read[0] == ([], [])
    assert sum(len(p.trees) for p in projects) > 40


def test_loaded_trees_build_no_nodes():
    rng = random.Random(4417)
    trees = 0
    for _ in range(10):
        blob = save_project(genlib.random_project(rng))
        p = load_project(blob)
        twin = load_project(blob)
        trees += len(p.trees)
        for tree in p.trees:
            for path in tree.paths():
                chain = AspectChain(tree.aspect, path[-2:])
                assert path in resolve(tree, chain)
        assert save_project(p) == blob
        assert p == twin and hash(p.trees) == hash(twin.trees)
        assert pickle.loads(pickle.dumps(p)) == copy.deepcopy(p) == p
        assert not any("roots" in vars(tree) for tree in p.trees + twin.trees)
        folded = genlib.fold_project(blob).trees
        assert p.trees == folded
        assert [t.roots for t in p.trees] == [t.roots for t in folded]
    assert trees > 10


def test_every_tree_holds_its_arrays_from_construction():
    built = [BreakdownTree(aspect=Aspect.FUNCTION), sample_project().trees[0],
             genlib.chain_tree(Aspect.LOCATION, 3)]
    loaded = load_project(save_project(
        replace(new_project("p"), trees=built))).trees
    read, = read_trees({"Product": [{"segment": "A"}]}, ProjectError)
    for tree in built + list(loaded) + [read]:
        assert "_arrays" in vars(tree)
        assert "_arrays" in vars(pickle.loads(pickle.dumps(tree)))
    assert all("roots" in vars(tree) for tree in built)
    assert not any("roots" in vars(tree) for tree in list(loaded) + [read])
    assert list(loaded) == built and read.paths() == (("A",),)


def test_value_operations_on_a_deep_tree_do_not_recurse():
    tree = genlib.chain_tree(Aspect.LOCATION, 1500)
    twin = genlib.chain_tree(Aspect.LOCATION, 1500)
    assert tree == twin and hash(tree) == hash(twin)
    assert tree != genlib.chain_tree(Aspect.LOCATION, 1499)
    # The same segments in the same order, in another shape.
    flat = BreakdownTree(aspect=Aspect.LOCATION, roots=tuple(
        BreakdownNode(segment) for segment in tree.paths()[-1]))
    assert flat != tree and flat.paths() != tree.paths()
    assert pickle.loads(pickle.dumps(tree)) == tree
    assert copy.deepcopy(tree) == tree


def test_random_projects_round_trip():
    rng = random.Random(1206)
    for _ in range(30):
        p = genlib.random_project(rng)
        blob = save_project(p)
        loaded = load_project(blob)
        assert loaded == p
        assert save_project(loaded) == blob


def test_load_equals_fold_of_public_operations():
    rng = random.Random(5150)
    for _ in range(60):
        doc = json.loads(save_project(genlib.random_project(rng)))
        genlib.supersede_records(rng, doc)
        blob = json.dumps(doc)
        loaded = load_project(blob)
        assert loaded == genlib.fold_project(blob)
        assert save_project(loaded) == save_project(genlib.fold_project(blob))


def test_load_refuses_the_entry_the_fold_refuses():
    rng = random.Random(6262)
    kinds = set()
    for _ in range(120):
        doc = json.loads(save_project(genlib.random_project(rng)))
        kinds.add(genlib.mutate_document(rng, doc))
        blob = json.dumps(doc)
        with pytest.raises(ProjectError) as folded:
            genlib.fold_project(blob)
        err = load_error(blob)
        assert (err.code, err.message, err.path) == (
            folded.value.code, folded.value.message, folded.value.path)
    assert len(kinds) == 7


# The lists of entries in a project file, with their classes and the
# error class of the operations that add them.
ENTRY_LISTS = {
    ("assessment", "instances"): (AlphaInstance, AssessmentError),
    ("assessment", "work-products"): (WorkProductInstance, AssessmentError),
    ("assessment", "records"): (CheckpointRecord, AssessmentError),
    ("description", "viewpoints"): (Viewpoint, ModelError),
    ("description", "views"): (View, ModelError),
    ("description", "elements"): (ViewElement, ModelError),
    ("description", "realization-nodes"): (RealizationNode, ModelError),
}
JSON_VALUES = (5, True, None, "", [], {})
_ABSENT = object()  # a key left out


def entries_of(p: Project):
    """Each entry of the lists of ``p``, with its class and error class."""
    for (at, key), (cls, error) in ENTRY_LISTS.items():
        for entry in getattr(getattr(p, at), key.replace("-", "_")):
            yield entry, cls, error


def test_every_field_default_fits_its_kind():
    for cls, _ in ENTRY_LISTS.values():
        for attr, _, kind, _ in cls._FIELDS:
            if hasattr(cls, attr):
                default = getattr(cls, attr)
                assert kind.fits(default) and (default or not kind.empty), attr


def test_fields_of_another_json_class_are_refused_by_the_reader():
    """The load builders check no fields: a field of one entry in each
    list set to each JSON value, or left out, is refused by the reader,
    never by ``check_fields``, and a project that loads holds only
    entries that ``check_fields`` passes."""
    rng = random.Random(2424)
    loaded = refused = 0
    for _ in range(40):
        doc = json.loads(save_project(genlib.random_project(rng)))
        for (at, key), (cls, _) in ENTRY_LISTS.items():
            items = doc[at][key]
            if not items:
                continue
            item = rng.choice(items)
            field = rng.choice(cls._FIELDS)[1]
            original = item.get(field, _ABSENT)
            for value in (*JSON_VALUES, _ABSENT):
                if value.__class__ is original.__class__ and value == original:
                    continue
                if value is _ABSENT:
                    del item[field]
                else:
                    item[field] = value
                try:
                    p = load_project(json.dumps(doc))
                except ProjectError as err:
                    refused += 1
                    assert not err.message.startswith(
                        ("UNSUPPORTED_VALUE:", "EMPTY_ID:", "EMPTY_NAME:")), (
                            err.code, err.message, err.path)
                else:
                    loaded += 1
                    for entry_class_error in entries_of(p):
                        check_fields(*entry_class_error)
            if original is _ABSENT:
                item.pop(field, None)
            else:
                item[field] = original
    assert loaded and refused


def test_load_refuses_the_first_of_two_faults_the_fold_refuses():
    # With two faults, the first refused depends on the order in which
    # the loader reads the lists: views after elements, all before
    # coextension and bindings, as the fold does.
    rng = random.Random(7373)
    for _ in range(300):
        doc = json.loads(save_project(genlib.random_project(rng)))
        genlib.mutate_document(rng, doc)
        genlib.mutate_document(rng, doc)
        blob = json.dumps(doc)
        with pytest.raises(ProjectError) as folded:
            genlib.fold_project(blob)
        err = load_error(blob)
        assert (err.code, err.message, err.path) == (
            folded.value.code, folded.value.message, folded.value.path)


# The column reader against the per-item reader: every entry list read
# as columns must load or be refused as when each item is read in turn.

def outcome(blob: str):
    """The saved bytes of the project ``blob`` holds, or its refusal."""
    try:
        return save_project(load_project(blob))
    except EssenceError as err:
        return type(err), err.code, err.message, err.path


def per_item_outcome(monkeypatch, blob: str):
    """``outcome(blob)`` with the column reader declining every list."""
    with monkeypatch.context() as patch:
        patch.setattr(store, "read_columns", lambda *args: None)
        return outcome(blob)


def field_class_mutations(rng: random.Random):
    """Saved random projects with one field of one entry of a list set to
    another JSON value or left out, as the reader's refusal test plants."""
    for _ in range(10):
        doc = json.loads(save_project(genlib.random_project(rng)))
        for (at, key), (cls, _) in ENTRY_LISTS.items():
            if not doc[at][key]:
                continue
            item = rng.choice(doc[at][key])
            field = rng.choice(cls._FIELDS)[1]
            original = item.get(field, _ABSENT)
            for value in (*JSON_VALUES, _ABSENT):
                if value is _ABSENT:
                    item.pop(field, None)
                else:
                    item[field] = value
                yield json.dumps(doc)
            if original is _ABSENT:
                item.pop(field, None)
            else:
                item[field] = original


def targeted_record_documents():
    """Valid and refused records, instances and evidence, by name."""
    sr = {"alpha-instance": "sr-1", "state": "Raw materials", "checkpoint": "RM-1",
          "satisfied": True, "evidence": ["wp-1"], "recorded-at": 1}
    base = {"instances": [{"id": "sr-1", "alpha": "System Realization"}],
            "work-products": [{"id": "wp-1", "definition": "Test Report"}],
            "records": [sr, dict(sr, checkpoint="RM-2")]}
    cases = {
        "repeated-key": dict(base, records=[sr, dict(sr, checkpoint="RM-2"),
                                            dict(sr, satisfied=False)]),
        "unknown-evidence-last": dict(base, records=[
            *base["records"], dict(sr, checkpoint="RM-3", evidence=["ghost"])]),
        "recorded-at-true": dict(base, records=[sr, dict(sr, **{"recorded-at": True})]),
        "no-evidence-key": dict(base, records=[
            {k: v for k, v in sr.items() if k != "evidence"}]),
        "empty-instance-id": dict(base, instances=[
            *base["instances"], {"id": "", "alpha": "Team"}]),
        "unknown-system-level": dict(base, instances=[
            *base["instances"], {"id": "t-1", "alpha": "Team",
                                 "system-level": "Galaxy"}]),
    }
    return {name: json.dumps({"format-version": 1, "project-id": "p",
                              "assessment": assessment})
            for name, assessment in cases.items()}


def test_the_column_reader_loads_and_refuses_as_the_per_item_reader(monkeypatch):
    rng = random.Random(8686)
    blobs = [save_project(genlib.random_project(rng)) for _ in range(40)]
    for _ in range(120):
        doc = json.loads(save_project(genlib.random_project(rng)))
        genlib.mutate_document(rng, doc)
        blobs.append(json.dumps(doc))
    blobs += field_class_mutations(rng)
    blobs += targeted_record_documents().values()
    loaded = 0
    for blob in blobs:
        shipped = outcome(blob)
        assert shipped == per_item_outcome(monkeypatch, blob), blob
        loaded += isinstance(shipped, bytes)
    assert 40 < loaded < len(blobs)


def spy_on_read_columns(monkeypatch) -> list:
    """The ``(class, entries or None)`` of each list the loader offers the
    column reader, appended as loads run."""
    read = []

    def spy(cls, *args):
        read.append((cls, read_columns(cls, *args)))
        return read[-1][1]

    monkeypatch.setattr(store, "read_columns", spy)
    return read


def test_targeted_record_documents_load_or_are_refused_as_named(monkeypatch):
    read = spy_on_read_columns(monkeypatch)
    blobs = targeted_record_documents()
    p = load_project(blobs["repeated-key"])
    assert [(rec.checkpoint, rec.satisfied) for rec in p.assessment.records] == [
        ("RM-1", False), ("RM-2", True)]
    assert dict(read)[CheckpointRecord] is not None  # read as columns
    read.clear()
    assert load_project(blobs["no-evidence-key"]).assessment.records[0].evidence == ()
    assert dict(read)[CheckpointRecord] is None  # a left-out key: item by item
    for name, path, message in (
            ("unknown-evidence-last", "assessment.records[2]",
             "UNKNOWN_EVIDENCE: evidence 'ghost' is not a work product id"),
            ("recorded-at-true", "assessment.records[1].recorded-at",
             "key 'recorded-at' must be int"),
            ("empty-instance-id", "assessment.instances[1].id",
             "key 'id' must be nonempty"),
            ("unknown-system-level", "assessment.instances[1].system-level",
             "'Galaxy' is not a valid SystemLevel")):
        err = load_error(blobs[name])
        assert (err.code, err.path, err.message) == ("SCHEMA_ERROR", path, message)


def test_canonical_saves_read_as_columns_exactly_the_four_lists_where_it_pays(
        monkeypatch):
    # Viewpoints, views and work products are short lists, which the
    # per-item reader reads as fast: only the other four are columns.
    read = spy_on_read_columns(monkeypatch)
    rng = random.Random(2525)
    for _ in range(40):
        p = genlib.random_project(rng)
        read.clear()
        assert load_project(save_project(p)) == p
        assert [cls for cls, _ in read] == [
            AlphaInstance, CheckpointRecord, ViewElement, RealizationNode]
        assert all(isinstance(entries, list) for _, entries in read)

# Enum fields: a member, or a member's value, which becomes the member.

def project_with(field: str, value: object) -> Project:
    """A project whose only value of ``field`` is ``value``."""
    p = new_project("p")
    if field == "chain.aspect":
        node = RealizationNode("n", (AspectChain(value, ("A",)),))
        return replace(p, description=add_realization_node(DescriptionModel(), node))
    if field == "tree.aspect":
        return replace(p, trees=(BreakdownTree(value, (BreakdownNode("A"),)),))
    if field == "instance.system_level":
        inst = AlphaInstance("i", "Team", system_level=value)
        return replace(p, assessment=add_instance(p.assessment, inst))
    vp = Viewpoint("vp", **{field.split(".")[1]: value})
    return replace(p, description=add_viewpoint(DescriptionModel(), vp))


ENUM_FIELDS = {
    "chain.aspect": (Aspect, DesignationError),
    "tree.aspect": (Aspect, DesignationError),
    "instance.system_level": (SystemLevel, AssessmentError),
    "viewpoint.structure_type": (StructureType, ModelError),
    "viewpoint.description_kind": (DescriptionKind, ModelError),
}
ENUMS = (Aspect, SystemLevel, StructureType, DescriptionKind)


@pytest.mark.parametrize("field", ENUM_FIELDS)
def test_enum_fields_take_a_members_value_as_the_member(field):
    enum, error = ENUM_FIELDS[field]
    member = list(enum)[-1]
    p = project_with(field, member.value)
    assert p == project_with(field, member)
    assert load_project(save_project(p)) == p
    with pytest.raises(error) as err:
        project_with(field, "Nope")
    assert err.value.code == "BAD_ENUM"
    assert "'Nope'" in err.value.message


def test_values_with_enum_fields_given_as_text_answer():
    assert str(AspectChain("Product", ("A", "B"))) == "-A-B"
    p = project_with("instance.system_level", "UsingSystem")
    card = render_card(p.assessment, "i")
    assert card.splitlines()[0] == "Team [i] (UsingSystem)"
    tree = BreakdownTree("Location", (BreakdownNode("A"),))
    assert resolve(tree, AspectChain(Aspect.LOCATION, ("A",))) == (("A",),)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(ENUM_FIELDS)), st.one_of(
    st.sampled_from([m for enum in ENUMS for m in enum]),
    st.sampled_from([m.value for enum in ENUMS for m in enum]),
    st.text(max_size=12), st.none(), st.integers(), st.booleans(),
    st.lists(st.text(max_size=3), max_size=2)))
def test_enum_fields_refuse_or_round_trip(field, value):
    """Built directly, a value either refuses an enum field with a coded
    error or saves and loads again as it is."""
    enum, error = ENUM_FIELDS[field]
    try:
        p = project_with(field, value)
    except EssenceError as err:
        assert type(err) is error and err.code == "BAD_ENUM"
        assert not any(value == m.value for m in enum)
        return
    assert any(value == m.value for m in enum)
    assert load_project(save_project(p)) == p


@pytest.mark.parametrize("make", [
    lambda: new_project(5),
    lambda: new_project(["p"]),
    lambda: new_project("p", strict_evidence=1),
    lambda: new_project("p", kernel=5),
    lambda: Project("p", 5),
    lambda: Project("p", None),
    lambda: Project("p", new_project("p").assessment, trees=(5,)),
    lambda: Project("p", new_project("p").assessment, description=5),
    lambda: Project("p", new_project("p").assessment, trees=None),
    lambda: save_project(5),
], ids=["id-int", "id-list", "strict-evidence-int", "kernel-int",
        "assessment-int", "assessment-none", "tree-int", "description-int",
        "trees-none", "save-int"])
def test_new_project_refuses_what_a_file_cannot_hold(make):
    with pytest.raises(ProjectError) as err:
        make()
    assert (err.value.code, err.value.path) == ("UNSUPPORTED_VALUE", None)


def test_project_keeps_trees_given_as_an_iterator():
    tree = BreakdownTree(Aspect.PRODUCT, (BreakdownNode("A"),))
    assessment = new_project("p").assessment
    assert Project("p", assessment, trees=iter([tree])).trees == (tree,)


# Entries built directly and added by their operations: each either is
# refused with a coded error or saves and loads again as it is.

SCALARS = st.one_of(st.text(max_size=4), st.integers(), st.booleans(),
                    st.none())
ANY = st.one_of(SCALARS, st.lists(SCALARS, max_size=2),
                st.lists(SCALARS, max_size=2).map(tuple))
P_CHAIN = AspectChain(Aspect.PRODUCT, ("A",))
L_CHAIN = AspectChain(Aspect.LOCATION, ("B",))
NODE = BreakdownNode("B", (BreakdownNode("C"),))
ITEM = st.one_of(ANY, st.sampled_from(["e", "wp", P_CHAIN, NODE]))
# Tuples of any items, and fields that are no tuple: None, a list, a text.
ITEMS = st.one_of(st.lists(ITEM, min_size=1, max_size=3).map(tuple),
                  st.none(), st.lists(ITEM, max_size=3), st.text(max_size=3))


def field(*holds, other=ANY):
    """Values a field can hold, and the strategy of any other value."""
    return holds, other


def items(*holds):
    return field(*holds, other=ITEMS)


def with_assessment(p: Project, op, value) -> Project:
    return replace(p, assessment=op(p.assessment, value))


def with_model(p: Project, op, value) -> Project:
    return replace(p, description=op(p.description, value))


def with_tree(p: Project, *roots) -> Project:
    return replace(p, trees=(BreakdownTree(Aspect.PRODUCT, roots),))


ENTRIES = {
    "project": ((field("p", "q", ""),), lambda p, pid: new_project(pid)),
    "instance": ((field("j", "i", ""), field("Team", "Work", "Ghost")),
                 lambda p, *v: with_assessment(p, add_instance,
                                               AlphaInstance(*v))),
    "work-product": ((field("wp2", "wp", ""), field("Test Report", "Ghost"),
                      field("", "label")),
                     lambda p, *v: with_assessment(p, add_work_product,
                                                   WorkProductInstance(*v))),
    "record": ((field("i", "j"), field("Unspecified"), field("U-1"),
                field(True, False), items((), ("wp",)), field(0, 17)),
               lambda p, *v: with_assessment(p, record_checkpoint,
                                             CheckpointRecord(*v))),
    "viewpoint": ((field("vp2", "vp", ""), items((), ("c", ""))),
                  lambda p, name, concerns: with_model(
                      p, add_viewpoint, Viewpoint(name, concerns=concerns))),
    "view": ((field("v", ""), field("vp", "nope"), items((), ("e",))),
             lambda p, *v: with_model(p, add_view, View(*v))),
    "element": ((field("e2", "e", ""), field("", "x"), field(True, False)),
                lambda p, *v: with_model(p, add_element, ViewElement(*v))),
    "node": ((field("n", ""), items((), (P_CHAIN,), (P_CHAIN, L_CHAIN))),
             lambda p, *v: with_model(p, add_realization_node,
                                      RealizationNode(*v))),
    "tree-node": ((field("A", "B1", "a"), items((), (BreakdownNode("C"),))),
                  lambda p, *v: with_tree(p, BreakdownNode(*v))),
    "tree": ((items((BreakdownNode("A"),), (BreakdownNode("A"), NODE)),),
             lambda p, roots: replace(p, trees=(
                 BreakdownTree(Aspect.PRODUCT, roots),))),
}


def entry_base() -> Project:
    """A project with one entry of each kind that the entries cite."""
    p = new_project("p")
    a = add_instance(p.assessment, AlphaInstance("i", "Team"))
    a = add_work_product(a, WorkProductInstance("wp", "Test Report"))
    model = add_viewpoint(DescriptionModel(), Viewpoint("vp"))
    model = add_element(model, ViewElement("e", has_extent=True))
    return replace(p, assessment=a, description=model)


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_entries_refuse_or_round_trip(entry, data):
    """Each field a value it can hold, but at most one drawn from any."""
    fields, add = ENTRIES[entry]
    other = data.draw(st.sets(st.sampled_from(range(len(fields))), max_size=1))
    values = [data.draw(any_value if i in other else st.sampled_from(holds))
              for i, (holds, any_value) in enumerate(fields)]
    try:
        p = add(entry_base(), *values)
    except EssenceError as err:
        assert re.fullmatch(r"[A-Z]+(_[A-Z]+)*", err.code)
        return
    assert load_project(save_project(p)) == p
