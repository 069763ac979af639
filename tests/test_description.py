"""Description models: coextension classes, bindings, coverage checks."""

from __future__ import annotations

import random

import pytest

import genlib
from essencekit import (
    Aspect,
    AspectChain,
    DescriptionKind,
    DescriptionModel,
    ModelError,
    RealizationNode,
    StructureType,
    View,
    ViewElement,
    Viewpoint,
    add_element,
    add_realization_node,
    add_view,
    add_viewpoint,
    assert_coextension,
    bind_designator,
    bind_element,
    coextension_class,
    endeavor_viewpoint_lint,
    viable_architecture,
)
from essencekit.description import ModelBuilder


def model_with_elements(*ids: str, plain: tuple[str, ...] = ()) -> DescriptionModel:
    model = DescriptionModel()
    for elem_id in ids:
        model = add_element(model, ViewElement(id=elem_id, has_extent=True))
    for elem_id in plain:
        model = add_element(model, ViewElement(id=elem_id, has_extent=False))
    return model


def test_add_operations_reject_duplicates():
    model = add_viewpoint(DescriptionModel(), Viewpoint(name="vp"))
    with pytest.raises(ModelError) as err:
        add_viewpoint(model, Viewpoint(name="vp"))
    assert err.value.code == "DUPLICATE_NAME"
    model = add_element(model, ViewElement(id="e1"))
    with pytest.raises(ModelError) as err:
        add_element(model, ViewElement(id="e1"))
    assert err.value.code == "DUPLICATE_NAME"
    model = add_view(model, View(name="v", viewpoint="vp"))
    with pytest.raises(ModelError) as err:
        add_view(model, View(name="v", viewpoint="vp"))
    assert err.value.code == "DUPLICATE_NAME"
    model = add_realization_node(model, RealizationNode(id="n1"))
    with pytest.raises(ModelError) as err:
        add_realization_node(model, RealizationNode(id="n1"))
    assert err.value.code == "DUPLICATE_NAME"


# The builders behind load_project check no fields, so the tests named
# "by_operation_and_builder" call the operations alone; the loader's
# field checks are the reader's (tests/test_store.py,
# test_fields_of_another_json_class_are_refused_by_the_reader).
@pytest.mark.parametrize("op, value", [
    (add_viewpoint, Viewpoint(name="")),
    (add_view, View(name="", viewpoint="vp")),
    (add_element, ViewElement(id="")),
    (add_realization_node, RealizationNode(id="")),
], ids=["viewpoint", "view", "element", "node"])
def test_empty_names_are_refused_by_operation_and_builder(op, value):
    model = add_viewpoint(DescriptionModel(), Viewpoint(name="vp"))
    with pytest.raises(ModelError) as err:
        op(model, value)
    assert (err.value.code, err.value.path) == ("EMPTY_NAME", None)


@pytest.mark.parametrize("op, value", [
    (add_element, ViewElement(id="e", label=7)),
    (add_element, ViewElement(id="e", has_extent=1)),
    (add_element, ViewElement(id=["e"])),
    (add_viewpoint, Viewpoint(name="v", concerns=(1,))),
    (add_realization_node, RealizationNode(id=5)),
    (add_view, View(name="v", viewpoint=["vp"])),
    (add_view, View(name="v", viewpoint="vp", elements=([1],))),
    (add_viewpoint, Viewpoint(name="v", concerns=None)),
    (add_viewpoint, Viewpoint(name="v", concerns=["c"])),
    (add_view, View(name="v", viewpoint="vp", elements=None)),
    (add_view, View(name="v", viewpoint="vp", elements=[])),
    (add_element, "e"),
    (add_viewpoint, None),
    (add_view, Viewpoint(name="v")),
    (add_realization_node, 5),
], ids=["label-int", "has-extent-int", "element-id-list", "concern-int",
        "node-id-int", "viewpoint-list", "view-element-list", "concerns-none",
        "concerns-list", "view-elements-none", "view-elements-list",
        "element-text", "viewpoint-none", "view-viewpoint", "node-int"])
def test_values_a_file_cannot_hold_are_refused_by_operation_and_builder(
        op, value):
    model = add_viewpoint(DescriptionModel(), Viewpoint(name="vp"))
    with pytest.raises(ModelError) as err:
        op(model, value)
    assert (err.value.code, err.value.path) == ("UNSUPPORTED_VALUE", None)


def test_realization_node_refuses_a_designator_that_is_no_chain():
    with pytest.raises(ModelError) as err:
        RealizationNode(id="n", designators=("x",))
    assert err.value.code == "UNSUPPORTED_VALUE"


def test_realization_node_keeps_designators_given_as_an_iterator():
    chain = AspectChain(Aspect.PRODUCT, ("A",))
    node = RealizationNode(id="n", designators=iter([chain]))
    assert node.designators == (chain,)


@pytest.mark.parametrize("make, path", [
    (lambda m: RealizationNode(id="n", designators=None), None),
    (lambda m: bind_designator(m, "n1", "-A"), None),
    (lambda m: viable_architecture(m, 5), None),
    (lambda m: DescriptionModel(views=5), None),
    (lambda m: DescriptionModel(viewpoints=None), None),
    (lambda m: DescriptionModel(elements=("e",)), "elements[0]"),
    (lambda m: DescriptionModel(realization_nodes=(ViewElement("n"),)),
     "realization_nodes[0]"),
    (lambda m: DescriptionModel(bindings=5), None),
    (lambda m: DescriptionModel(bindings=(["e", "n"],)), "bindings[0]"),
    (lambda m: DescriptionModel(coextension=5), None),
    (lambda m: DescriptionModel(coextension=frozenset({("a", "b")})), None),
    (lambda m: DescriptionModel(coextension=frozenset({frozenset({"a", 5})})), None),
    (lambda m: endeavor_viewpoint_lint(5), None),
], ids=["designators-none", "designator-text", "views-int", "model-views-int",
        "model-viewpoints-none", "model-element-text", "model-node-element",
        "model-bindings-int", "model-binding-list", "model-coextension-int",
        "model-class-tuple", "model-class-member-int", "lint-int"])
def test_arguments_of_other_types_are_refused(make, path):
    """A container item of another class is refused at its place in the
    field, a value that is no container at no path."""
    model = add_realization_node(DescriptionModel(), RealizationNode(id="n1"))
    with pytest.raises(ModelError) as err:
        make(model)
    assert (err.value.code, err.value.path) == ("UNSUPPORTED_VALUE", path)


def test_add_view_checks_references():
    model = model_with_elements("e1")
    with pytest.raises(ModelError) as err:
        add_view(model, View(name="v", viewpoint="ghost"))
    assert err.value.code == "UNKNOWN_REFERENCE"
    model = add_viewpoint(model, Viewpoint(name="vp"))
    with pytest.raises(ModelError) as err:
        add_view(model, View(name="v", viewpoint="vp", elements=("ghost",)))
    assert err.value.code == "UNKNOWN_REFERENCE"
    model = add_view(model, View(name="v", viewpoint="vp", elements=("e1",)))
    assert model.view("v").elements == ("e1",)


def test_untouched_element_is_a_singleton_class():
    model = model_with_elements("e1", "e2")
    assert coextension_class(model, "e1") == frozenset({"e1"})
    assert model.coextension == frozenset()


def test_assert_coextension_merges_classes():
    model = model_with_elements("e1", "e2", "e3")
    model = assert_coextension(model, "e1", "e2")
    assert coextension_class(model, "e1") == frozenset({"e1", "e2"})
    assert coextension_class(model, "e2") == frozenset({"e1", "e2"})
    model = assert_coextension(model, "e2", "e3")
    assert coextension_class(model, "e1") == frozenset({"e1", "e2", "e3"})
    assert model.coextension == frozenset({frozenset({"e1", "e2", "e3"})})


def test_assert_coextension_is_idempotent_and_symmetric():
    model = model_with_elements("e1", "e2")
    once = assert_coextension(model, "e1", "e2")
    assert assert_coextension(once, "e1", "e2") == once
    assert assert_coextension(once, "e2", "e1") == once
    assert assert_coextension(model, "e2", "e1") == once


def test_two_pair_classes_merge_into_one():
    model = model_with_elements("a", "b", "c", "d")
    model = assert_coextension(model, "a", "b")
    model = assert_coextension(model, "c", "d")
    assert len(model.coextension) == 2
    model = assert_coextension(model, "b", "c")
    assert model.coextension == frozenset({frozenset({"a", "b", "c", "d"})})


def test_self_coextension_changes_nothing():
    model = model_with_elements("e1")
    assert assert_coextension(model, "e1", "e1") == model


def test_definition_only_elements_have_no_extent_to_share():
    model = model_with_elements("e1", plain=("d1", "d2"))
    for pair in (("d1", "e1"), ("e1", "d1"), ("d1", "d2")):
        with pytest.raises(ModelError) as err:
            assert_coextension(model, *pair)
        assert err.value.code == "NO_EXTENT"
    with pytest.raises(ModelError) as err:
        coextension_class(model, "d1")
    assert err.value.code == "NO_EXTENT"
    with pytest.raises(ModelError) as err:
        bind_element(model, "d1", "n1")
    assert err.value.code == "NO_EXTENT"


@pytest.mark.parametrize("query", [
    lambda m: coextension_class(m, ["e1"]),
    lambda m: assert_coextension(m, "e1", ["e1"]),
    lambda m: assert_coextension(m, {"e1": 1}, "e1"),
    lambda m: bind_element(m, ["e1"], "n1"),
    lambda m: bind_element(m, "e1", ["n1"]),
    lambda m: viable_architecture(m, [["v"]]),
    lambda m: bind_designator(m, ["n1"], AspectChain(Aspect.PRODUCT, ("A",))),
], ids=["class", "coextension-second", "coextension-first", "bind-element",
        "bind-node", "view", "bind-designator"])
def test_queries_refuse_an_unhashable_id_as_unknown(query):
    model = add_realization_node(model_with_elements("e1"),
                                 RealizationNode(id="n1"))
    with pytest.raises(ModelError) as err:
        query(model)
    assert err.value.code == "UNKNOWN_REFERENCE"
    assert err.value.message.startswith(("no element [", "no element {",
                                         "no realization node [", "no view ["))


@pytest.mark.parametrize("key", [["e1"], {"e1": 1}, {"e1"}],
                         ids=["list", "dict", "set"])
def test_accessors_find_nothing_for_an_unhashable_id(key):
    model = add_realization_node(model_with_elements("e1"),
                                 RealizationNode(id="e1"))
    model = add_viewpoint(bind_element(model, "e1", "e1"), Viewpoint("e1"))
    model = add_view(model, View("e1", "e1"))
    for lookup in (model.viewpoint, model.view, model.element,
                   model.realization_node, model.binding_of):
        assert lookup(key) is None


def test_unknown_elements_are_flagged():
    model = model_with_elements("e1")
    with pytest.raises(ModelError) as err:
        assert_coextension(model, "e1", "ghost")
    assert err.value.code == "UNKNOWN_REFERENCE"
    with pytest.raises(ModelError) as err:
        coextension_class(model, "ghost")
    assert err.value.code == "UNKNOWN_REFERENCE"


def test_binding_propagates_to_class():
    model = model_with_elements("e1", "e2", "e3")
    model = add_realization_node(model, RealizationNode(id="n1"))
    model = assert_coextension(model, "e1", "e2")
    model = bind_element(model, "e1", "n1")
    assert model.binding_of("e2") == "n1"
    assert model.binding_of("e3") is None
    # A later merge carries the binding onto the newcomer.
    model = assert_coextension(model, "e2", "e3")
    assert model.binding_of("e3") == "n1"


def test_rebinding_same_node_is_idempotent():
    model = model_with_elements("e1")
    model = add_realization_node(model, RealizationNode(id="n1"))
    bound = bind_element(model, "e1", "n1")
    assert bind_element(bound, "e1", "n1") == bound


def test_binding_conflicts_are_refused():
    model = model_with_elements("e1", "e2")
    model = add_realization_node(model, RealizationNode(id="n1"))
    model = add_realization_node(model, RealizationNode(id="n2"))
    model = bind_element(model, "e1", "n1")
    with pytest.raises(ModelError) as err:
        bind_element(model, "e1", "n2")
    assert err.value.code == "BINDING_CONFLICT"
    model = bind_element(model, "e2", "n2")
    with pytest.raises(ModelError) as err:
        assert_coextension(model, "e1", "e2")
    assert err.value.code == "BINDING_CONFLICT"


def test_bind_element_checks_node():
    model = model_with_elements("e1")
    with pytest.raises(ModelError) as err:
        bind_element(model, "e1", "ghost")
    assert err.value.code == "UNKNOWN_REFERENCE"


def test_classes_match_fixpoint_oracle():
    rng = random.Random(6601)
    for _ in range(100):
        model, extended, plain = genlib.random_elements(rng, max_elements=40)
        pairs = []
        for _ in range(rng.randrange(30) if extended else 0):
            x, y = rng.choice(extended), rng.choice(extended)
            model = assert_coextension(model, x, y)
            pairs.append((x, y))
        assert model.coextension == genlib.closure_oracle(pairs)
        # Classes partition: pairwise disjoint, extended members only.
        seen: set[str] = set()
        for cls in model.coextension:
            assert len(cls) > 1
            assert not (cls & seen)
            seen |= cls
        assert seen <= set(extended)
        for elem_id in plain:
            with pytest.raises(ModelError):
                coextension_class(model, elem_id)


def test_builder_classes_match_the_fold_of_pairs():
    """ModelBuilder.add_class merges a class as asserting each member
    coextensive with the first would, refusals included. Classes go in
    before bindings, as a project file holds them."""
    rng = random.Random(6602)
    refused = 0
    for _ in range(300):
        model, extended, plain = genlib.random_elements(rng, max_elements=12)
        builder = ModelBuilder(DescriptionModel())
        for elem in model.elements:
            builder.add_element(elem)
        for node_id in ("n1", "n2"):
            model = add_realization_node(model, RealizationNode(id=node_id))
            builder.add_realization_node(RealizationNode(id=node_id))
        ids = extended + plain + ["ghost"]
        steps = ["class"] * rng.randrange(1, 5) + ["bind"] * rng.randrange(4)
        for step in steps:
            if step == "bind":
                args = (rng.choice(extended or ids), rng.choice(("n1", "n2")))
                expected = outcome(bind_element, model, *args)
                got = outcome(builder.bind_element, *args)
            else:
                pool = extended if extended and rng.random() < 0.8 else ids
                members = [rng.choice(pool) for _ in range(rng.randrange(2, 6))]
                expected = model
                for member in members[1:]:
                    expected = outcome(assert_coextension, expected,
                                       members[0], member)
                    if isinstance(expected, tuple):
                        break
                got = outcome(builder.add_class, members)
            if isinstance(expected, tuple):  # refused: code and message
                assert got == expected
                refused += 1
                break
            assert got is None
            model = expected
        else:
            assert builder.build() == model
    assert refused > 30


def outcome(fn, *args):
    """fn's result, or the code and message of the ModelError it raised."""
    try:
        return fn(*args)
    except ModelError as exc:
        return exc.code, exc.message


def arch_model() -> DescriptionModel:
    model = DescriptionModel()
    kinds = (
        ("cc", StructureType.COMPONENT_CONNECTOR),
        ("mi", StructureType.MODULE_INTERFACE),
        ("al", StructureType.ALLOCATION),
        ("other", StructureType.OTHER),
    )
    for name, structure_type in kinds:
        model = add_viewpoint(model, Viewpoint(
            name=f"vp-{name}", structure_type=structure_type))
        model = add_view(model, View(name=f"view-{name}", viewpoint=f"vp-{name}"))
    return model


def test_viable_architecture_needs_all_three_structure_types():
    model = arch_model()
    report = viable_architecture(model, ["view-cc", "view-mi", "view-al"])
    assert report.ok
    assert report.covered == (
        StructureType.COMPONENT_CONNECTOR,
        StructureType.MODULE_INTERFACE,
        StructureType.ALLOCATION)
    assert report.missing == ()


def test_viable_architecture_names_missing_types():
    model = arch_model()
    report = viable_architecture(model, ["view-cc", "view-mi"])
    assert not report.ok
    assert report.missing == (StructureType.ALLOCATION,)
    report = viable_architecture(model, [])
    assert report.missing == (
        StructureType.COMPONENT_CONNECTOR,
        StructureType.MODULE_INTERFACE,
        StructureType.ALLOCATION)


def test_other_structure_type_does_not_cover_anything():
    model = arch_model()
    report = viable_architecture(model, ["view-other"])
    assert report.covered == ()
    assert len(report.missing) == 3


def test_viable_architecture_unknown_view():
    with pytest.raises(ModelError) as err:
        viable_architecture(arch_model(), ["ghost"])
    assert err.value.code == "UNKNOWN_REFERENCE"


def test_adding_views_never_unmakes_viability():
    rng = random.Random(7703)
    for _ in range(100):
        model = DescriptionModel()
        names = []
        for i in range(rng.randint(1, 8)):
            structure_type = rng.choice(tuple(StructureType))
            model = add_viewpoint(model, Viewpoint(
                name=f"vp{i}", structure_type=structure_type))
            model = add_view(model, View(name=f"v{i}", viewpoint=f"vp{i}"))
            names.append(f"v{i}")
        series = [viable_architecture(model, names[:k + 1]).ok
                  for k in range(len(names))]
        for before, after in zip(series, series[1:]):
            assert after >= before


def test_endeavor_lint_reports_each_missing_kind():
    model = DescriptionModel()
    assert endeavor_viewpoint_lint(model) == (
        "missing endeavor description kind: Practice",
        "missing endeavor description kind: Process",
        "missing endeavor description kind: Team")
    model = add_viewpoint(model, Viewpoint(
        name="p", description_kind=DescriptionKind.PRACTICE))
    assert endeavor_viewpoint_lint(model) == (
        "missing endeavor description kind: Process",
        "missing endeavor description kind: Team")
    model = add_viewpoint(model, Viewpoint(
        name="q", description_kind=DescriptionKind.PROCESS))
    model = add_viewpoint(model, Viewpoint(
        name="r", description_kind=DescriptionKind.TEAM))
    assert endeavor_viewpoint_lint(model) == ()


def test_other_description_kind_does_not_count():
    model = add_viewpoint(DescriptionModel(), Viewpoint(
        name="x", description_kind=DescriptionKind.OTHER))
    assert len(endeavor_viewpoint_lint(model)) == 3


def test_realization_node_designators():
    node = RealizationNode(id="n1", designators=(
        AspectChain(Aspect.LOCATION, ("M13",)),
        AspectChain(Aspect.FUNCTION, ("F1",))))
    assert [c.aspect for c in node.designators] == [
        Aspect.FUNCTION, Aspect.LOCATION]
    assert node.designator(Aspect.FUNCTION).segments == ("F1",)
    assert node.designator(Aspect.PRODUCT) is None
    with pytest.raises(ModelError) as err:
        RealizationNode(id="n2", designators=(
            AspectChain(Aspect.FUNCTION, ("F1",)),
            AspectChain(Aspect.FUNCTION, ("F2",))))
    assert err.value.code == "DUPLICATE_ASPECT"


def test_bind_designator_one_chain_per_aspect():
    model = add_realization_node(DescriptionModel(), RealizationNode(id="n1"))
    model = bind_designator(model, "n1", AspectChain(Aspect.PRODUCT, ("12", "N4")))
    model = bind_designator(model, "n1", AspectChain(Aspect.FUNCTION, ("F1",)))
    node = model.realization_node("n1")
    assert [str(c) for c in node.designators] == ["=F1", "-12-N4"]
    with pytest.raises(ModelError) as err:
        bind_designator(model, "n1", AspectChain(Aspect.FUNCTION, ("F2",)))
    assert err.value.code == "ASPECT_ALREADY_BOUND"
    with pytest.raises(ModelError) as err:
        bind_designator(model, "ghost", AspectChain(Aspect.FUNCTION, ("F1",)))
    assert err.value.code == "UNKNOWN_REFERENCE"
