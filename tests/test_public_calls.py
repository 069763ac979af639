"""Every public function keeps the error contract for an argument of
another class: it answers, or raises an ``EssenceError``, never a bare
Python error."""

from __future__ import annotations

import inspect
from dataclasses import replace

import pytest

import essencekit
from essencekit import (
    BUILTIN_DCC_TABLE,
    AlphaInstance,
    AreaOfConcern,
    Aspect,
    AspectChain,
    BreakdownNode,
    BreakdownTree,
    CheckpointRecord,
    DescriptionModel,
    EssenceError,
    KernelError,
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
    add_work_product,
    bind_element,
    builtin_se_kernel,
    dumps_kernel,
    find_alpha,
    kernel_to_doc,
    new_project,
    parse_designation,
    parse_document_designation,
    record_checkpoint,
    save_project,
)


def containers() -> dict[str, object]:
    """A kernel, an assessment, a model and a project that every public
    function takes without refusal."""
    a = add_instance(new_project("p").assessment,
                     AlphaInstance("i-1", "System Realization"))
    a = add_work_product(a, WorkProductInstance("wp-1", "Test Report"))
    a = record_checkpoint(a, CheckpointRecord(
        "i-1", "Raw materials", "RM-1", True, ("wp-1",)))
    model = add_viewpoint(DescriptionModel(), Viewpoint(
        "vp", structure_type=StructureType.ALLOCATION))
    for elem in ("e1", "e2"):
        model = add_element(model, ViewElement(elem, has_extent=True))
    model = add_view(model, View("v", "vp", ("e1",)))
    model = add_realization_node(model, RealizationNode("n1"))
    model = bind_element(model, "e1", "n1")
    return {"kernel": builtin_se_kernel(), "assessment": a, "model": model,
            "project": new_project("p")}


def valid_arguments(**changed: object) -> dict[str, tuple]:
    """Arguments each public function takes without refusal, or with
    the ``changed`` containers in place of those of ``containers()``."""
    held = {**containers(), **changed}
    kernel, a, model = held["kernel"], held["assessment"], held["model"]
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
        "kernel_from_doc": (kernel_to_doc(builtin_se_kernel()),),
        "kernel_to_doc": (kernel,),
        "load_project": (save_project(new_project("p")),),
        "loads_dcc_table": ('{"areas": {"A": "general"}}',),
        "loads_kernel": (dumps_kernel(builtin_se_kernel()),),
        "new_project": ("p",),
        "parse_designation": ("-A",),
        "parse_document_designation": ("=F1&MCA", BUILTIN_DCC_TABLE),
        "record_checkpoint": (a, CheckpointRecord(
            "i-1", "Raw materials", "RM-1", True)),
        "render_card": (a, "i-1"),
        "resolve": (tree, chain),
        "save_project": (held["project"],),
        "subalpha_closure": (kernel, kernel.alphas[0].name),
        "validate_kernel": (kernel,),
        "viable_architecture": (model, [view.name for view in model.views]),
    }


X = ["x"]  # an id, name or key that cannot be hashed
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
        for odd in (5, X):
            try:
                function(*args[:slot], odd, *args[slot + 1:])
            except EssenceError:
                pass


def odd_kernels():
    """Calls that would put ``X`` in each name or id field of the builtin
    kernel, each with its label, which is how the refusal names the
    field."""
    kernel = builtin_se_kernel()
    alpha = find_alpha(kernel, "System Realization")
    state = alpha.states[0]
    wp = kernel.workproducts[0]
    yield "kernel name", lambda: replace(kernel, name=X)
    yield "area", lambda: AreaOfConcern(X)
    yield "alpha name", lambda: replace(alpha, name=X)
    yield "state name", lambda: replace(state, name=X)
    yield "checkpoint id", lambda: replace(state.checkpoints[0], id=X)
    yield "work product name", lambda: replace(wp, name=X)
    yield "evidenced alpha", lambda: replace(wp, evidences=X)


def odd_containers():
    """Calls that would make a container hold an entry no index can key
    (``X`` in each id, name or key field, or a binding that is not a pair
    of ids) or one a file cannot hold (a dangling reference); each with
    its label and the path its refusal names."""
    held = containers()
    a, model = held["assessment"], held["model"]
    for label, make in odd_kernels():
        yield f"kernel {label}", make, None
    record = a.records[0]
    for value, rows in (
            (a, (("instance id", "instances", AlphaInstance(X, "Team")),
                 ("work product id", "work_products",
                  WorkProductInstance(X, "Test Report")),
                 ("record instance", "records", replace(record, alpha_instance=X)),
                 ("record state", "records", replace(record, state=X)),
                 ("record checkpoint", "records", replace(record, checkpoint=X)),
                 ("record of no instance", "records",
                  replace(record, alpha_instance="ghost")))),
            (model, (("viewpoint name", "viewpoints", Viewpoint(X)),
                     ("view name", "views", View(X, "vp")),
                     ("view viewpoint", "views", View("w", X)),
                     ("undefined viewpoint", "views", View("w", "nope")),
                     ("element id", "elements", ViewElement(X, has_extent=True)),
                     ("node id", "realization_nodes", RealizationNode(X)),
                     ("binding of one id", "bindings", ("e1",)),
                     ("binding of three ids", "bindings", ("e1", "n1", "x")),
                     ("binding element", "bindings", (X, "n1"))))):
        for label, field, entry in rows:
            entries = getattr(value, field)
            yield label, lambda value=value, field=field, entries=entries + (
                entry,): replace(value, **{field: entries}), f"{field}[{len(entries)}]"


# Each value accessor, the container that has it, and a key it finds.
ACCESSORS = (("assessment", "instance", "i-1"), ("assessment", "work_product", "wp-1"),
             ("model", "viewpoint", "vp"), ("model", "view", "v"),
             ("model", "element", "e1"), ("model", "realization_node", "n1"),
             ("model", "binding_of", "e1"), ("kernel", "workproduct", "Test Report"))


@pytest.mark.parametrize("make, path", [(make, path) for _, make, path in odd_containers()],
                         ids=[label for label, _, _ in odd_containers()])
def test_calls_on_entries_no_index_can_key_keep_the_error_contract(make, path):
    """No container holds such an entry: making one is refused with a
    coded error that names the entry. Every accessor finds what it finds,
    and nothing for ``X``."""
    with pytest.raises(EssenceError) as err:
        make()
    assert err.value.path == path
    held = containers()
    for holder, accessor, key in ACCESSORS:
        answer = getattr(held[holder], accessor)
        assert answer(key) is not None
        assert answer(X) is None


@pytest.mark.parametrize("label, make", list(odd_kernels()),
                         ids=[label for label, _ in odd_kernels()])
def test_a_kernel_no_index_can_key_is_refused_as_kernel_to_doc_refuses_it(label, make):
    """The kernel entry refuses a name that is not text when it is made,
    with kernel_to_doc's code, naming the field; so validate_kernel,
    new_project and kernel_to_doc never meet one."""
    with pytest.raises(KernelError) as err:
        make()
    assert (err.value.code, err.value.message) == (
        "UNSUPPORTED_VALUE", f"{label} must be text, not list")
