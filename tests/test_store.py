"""Project persistence: canonical saves, validated loads, round-trips."""

from __future__ import annotations

import json
import random
from dataclasses import replace

import pytest

import genlib
from essencekit import (
    AlphaInstance,
    Aspect,
    AspectChain,
    Assessment,
    BreakdownNode,
    BreakdownTree,
    CheckpointRecord,
    DescriptionModel,
    DocumentDesignation,
    Project,
    ProjectError,
    RealizationNode,
    ViewElement,
    WorkProductInstance,
    add_element,
    add_instance,
    add_realization_node,
    add_work_product,
    assert_coextension,
    bind_element,
    builtin_se_kernel,
    load_project,
    loads_dcc_table,
    new_project,
    parse_designation,
    parse_document_designation,
    record_checkpoint,
    save_project,
)

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


def test_unsupported_version_in_constructor():
    with pytest.raises(ProjectError) as err:
        Project(project_id="x",
                assessment=Assessment(project_id="x", kernel=builtin_se_kernel()),
                format_version=2)
    assert err.value.code == "UNSUPPORTED_VERSION"


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
