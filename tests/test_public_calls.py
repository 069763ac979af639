"""Every public function keeps the error contract for an argument of
another class: it answers, or raises an ``EssenceError``, never a bare
Python error."""

from __future__ import annotations

import inspect

import pytest

import essencekit
from essencekit import (
    BUILTIN_DCC_TABLE,
    AlphaInstance,
    Aspect,
    AspectChain,
    BreakdownNode,
    BreakdownTree,
    CheckpointRecord,
    DescriptionModel,
    EssenceError,
    RealizationNode,
    StructureType,
    View,
    ViewElement,
    Viewpoint,
    WorkProductInstance,
    add_element,
    add_instance,
    add_realization_node,
    add_view,
    add_viewpoint,
    builtin_se_kernel,
    dumps_kernel,
    kernel_to_doc,
    new_project,
    parse_designation,
    parse_document_designation,
    save_project,
)


def valid_arguments() -> dict[str, tuple]:
    """Arguments each public function takes without refusal."""
    kernel = builtin_se_kernel()
    a = add_instance(new_project("p").assessment,
                     AlphaInstance("i-1", "System Realization"))
    model = add_viewpoint(DescriptionModel(), Viewpoint(
        "vp", structure_type=StructureType.ALLOCATION))
    for elem in ("e1", "e2"):
        model = add_element(model, ViewElement(elem, has_extent=True))
    model = add_view(model, View("v", "vp", ("e1",)))
    model = add_realization_node(model, RealizationNode("n1"))
    tree = BreakdownTree(Aspect.PRODUCT, (BreakdownNode("A"),))
    chain = AspectChain(Aspect.PRODUCT, ("A",))
    designation = parse_designation("-A")
    return {
        "add_element": (model, ViewElement("e9")),
        "add_instance": (a, AlphaInstance("i-2", "Team")),
        "add_realization_node": (model, RealizationNode("n9")),
        "add_view": (model, View("v9", "vp")),
        "add_viewpoint": (model, Viewpoint("vp9")),
        "add_work_product": (a, WorkProductInstance("wp", "Test Report")),
        "alpha_state": (a, "i-1"),
        "assert_coextension": (model, "e1", "e2"),
        "bind_designator": (model, "n1", chain),
        "bind_element": (model, "e1", "n1"),
        "blocking_checkpoints": (a, "i-1", "Parts"),
        "builtin_se_kernel": (),
        "check_at_least_one_unambiguous": ({Aspect.PRODUCT: tree}, designation),
        "coextension_class": (model, "e1"),
        "dumps_kernel": (kernel,),
        "endeavor_viewpoint_lint": (model,),
        "find_alpha": (kernel, "Team"),
        "format_designation": (designation,),
        "format_document_designation": (parse_document_designation("=F1&MCA"),),
        "has_placeholder_states": (kernel.alphas[0],),
        "kernel_from_doc": (kernel_to_doc(kernel),),
        "kernel_to_doc": (kernel,),
        "load_project": (save_project(new_project("p")),),
        "loads_dcc_table": ('{"areas": {"A": "general"}}',),
        "loads_kernel": (dumps_kernel(kernel),),
        "new_project": ("p",),
        "parse_designation": ("-A",),
        "parse_document_designation": ("=F1&MCA", BUILTIN_DCC_TABLE),
        "record_checkpoint": (a, CheckpointRecord(
            "i-1", "Raw materials", "RM-1", True)),
        "render_card": (a, "i-1"),
        "resolve": (tree, chain),
        "save_project": (new_project("p"),),
        "subalpha_closure": (kernel, kernel.alphas[0].name),
        "validate_kernel": (kernel,),
        "viable_architecture": (model, ["v"]),
    }


FUNCTIONS = sorted(name for name in essencekit.__all__
                   if callable(getattr(essencekit, name))
                   and not inspect.isclass(getattr(essencekit, name)))


def test_every_public_function_has_valid_arguments():
    assert sorted(valid_arguments()) == FUNCTIONS


@pytest.mark.parametrize("name", FUNCTIONS)
def test_an_argument_of_another_class_is_refused_with_a_coded_error(name):
    function, args = getattr(essencekit, name), valid_arguments()[name]
    function(*args)
    for slot in range(len(args)):
        try:
            function(*args[:slot], 5, *args[slot + 1:])
        except EssenceError:
            pass
