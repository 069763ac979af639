"""Values built from one another keep answering for themselves.

Assessments and description models keep an index per tuple field, and
kernels one of their alphas and one of their work products, by name;
in a kernel, the first alpha or work product with a name is the one
found. An operation hands
its result an updated copy of the index of each field it changes, and
the parent's indices of the others. These tests
grow trees of values by random operations on random earlier values, and
check every value against a plain list kept beside it, or against
``dataclasses.replace(value)``, which builds every index afresh.
"""

from __future__ import annotations

import copy
import pickle
import random
import sys
import threading
from dataclasses import fields, replace

import pytest

import genlib
from essencekit import (
    AlphaDefinition,
    AlphaInstance,
    AreaOfConcern,
    Aspect,
    Assessment,
    Checkpoint,
    CheckpointRecord,
    DescriptionModel,
    EssenceError,
    KernelDefinition,
    RealizationNode,
    StateDefinition,
    View,
    ViewElement,
    Viewpoint,
    WorkProductDefinition,
    WorkProductInstance,
    add_element,
    add_instance,
    add_realization_node,
    add_view,
    add_viewpoint,
    add_work_product,
    alpha_state,
    assert_coextension,
    bind_designator,
    bind_element,
    builtin_se_kernel,
    coextension_class,
    find_alpha,
    load_project,
    new_project,
    record_checkpoint,
    render_card,
    save_project,
    subalpha_closure,
    validate_kernel,
)


def base_assessment() -> Assessment:
    a = Assessment(project_id="t", kernel=builtin_se_kernel())
    for i in range(3):
        a = add_instance(a, AlphaInstance(id=f"i{i}", alpha="System Realization"))
    return a


KEYS = [
    (f"i{i}", state.name, cp.id)
    for i in range(3)
    for state in find_alpha(builtin_se_kernel(), "System Realization").states
    for cp in state.checkpoints
]


def expected_records(records: list, rec: CheckpointRecord) -> list:
    for i, old in enumerate(records):
        if old.key == rec.key:
            return records[:i] + [rec] + records[i + 1:]
    return records + [rec]


def test_branching_record_histories_stay_apart():
    rng = random.Random(77)
    values = [(base_assessment(), [])]
    for _ in range(400):
        a, records = rng.choice(values)
        rec = CheckpointRecord(*rng.choice(KEYS[:40]), rng.random() < 0.7)
        values.append((record_checkpoint(a, rec), expected_records(records, rec)))
    for a, records in values:
        assert list(a.records) == records
        last = {rec.key: rec for rec in records}
        for key in KEYS[:40]:
            found = [r for r in a.records if r.key == key]
            assert (found[0] if found else None) == last.get(key)
        for i in range(3):
            fresh = replace(a, records=tuple(records))
            assert alpha_state(a, f"i{i}") == alpha_state(fresh, f"i{i}")


def test_branching_element_lists_stay_apart():
    rng = random.Random(78)
    values = [(DescriptionModel(), [])]
    for i in range(300):
        model, ids = rng.choice(values)
        values.append((add_element(model, ViewElement(id=f"e{i}")), ids + [f"e{i}"]))
    for model, ids in values:
        assert [e.id for e in model.elements] == ids
        for i in range(300):
            assert (model.element(f"e{i}") is not None) == (f"e{i}" in ids)


def test_raw_duplicate_records_take_the_last():
    a = base_assessment()
    state = find_alpha(a.kernel, "System Realization").states[0]
    done = tuple(CheckpointRecord("i0", state.name, cp.id, True)
                 for cp in state.checkpoints)
    first_undone = replace(done[0], satisfied=False)
    a = replace(a, records=(first_undone,) + done)
    assert alpha_state(a, "i0").achieved == state.name
    a = replace(a, records=done + (first_undone,))
    assert alpha_state(a, "i0").achieved is None
    # Recording replaces the effective (last) record for the key.
    a = record_checkpoint(a, done[0])
    assert alpha_state(a, "i0").achieved == state.name


def alpha(name: str, state: str, subalphas: tuple[str, ...] = ()):
    return AlphaDefinition(name, "Solution", states=(StateDefinition(
        state, "", (Checkpoint("c", "text"),)),), subalphas=subalphas)


def test_repeated_kernel_names_resolve_to_the_first():
    """A kernel built in code, and never validated, that names an alpha
    and a work product twice: every lookup finds the first of them, and
    validate_kernel still reports the second."""
    first, second = alpha("A", "S1", ("B",)), alpha("A", "S2", ("C",))
    wp_first = WorkProductDefinition("W", evidences="A")
    wp_second = WorkProductDefinition("W", evidences="B", kind="model")
    kernel = KernelDefinition(
        "k", (AreaOfConcern("Solution"),),
        (first, alpha("B", "S"), second, alpha("C", "S")), (wp_first, wp_second))
    assert find_alpha(kernel, "A") is first
    assert kernel.workproduct("W") is wp_first
    assert subalpha_closure(kernel, "A") == ["B"]
    a = add_instance(Assessment("t", kernel), AlphaInstance("i", "A"))
    assert render_card(a, "i").splitlines()[1:] == [
        "  [ ] S1 0/1", "Achieved: (none)", "Next: S1"]
    a = record_checkpoint(a, CheckpointRecord("i", "S1", "c", True))
    assert alpha_state(a, "i").achieved == "S1"
    with pytest.raises(EssenceError) as err:
        record_checkpoint(a, CheckpointRecord("i", "S2", "c", True))
    assert err.value.code == "UNKNOWN_CHECKPOINT"
    assert [(f.code, f.path) for f in validate_kernel(kernel).findings] == [
        ("DUPLICATE_ALPHA", "alphas[2]"),
        ("DUPLICATE_WORKPRODUCT", "workproducts[1]")]


def loaded_model() -> DescriptionModel:
    """A model with two coextension classes and bindings, saved and loaded."""
    model = DescriptionModel()
    for i in range(6):
        model = add_element(model, ViewElement(id=f"e{i}", has_extent=True))
    model = add_realization_node(model, RealizationNode(id="n0"))
    for x, y in (("e0", "e1"), ("e1", "e2"), ("e3", "e4")):
        model = assert_coextension(model, x, y)
    model = bind_element(model, "e0", "n0")
    model = bind_element(model, "e5", "n0")
    saved = save_project(replace(new_project("t"), description=model))
    return load_project(saved).description


def loaded_assessment() -> Assessment:
    """Three instances, a work product and records, saved and loaded."""
    a = add_work_product(base_assessment(),
                         WorkProductInstance(id="w0", definition="Test Report"))
    for key in KEYS[:3]:
        a = record_checkpoint(a, CheckpointRecord(*key, True, ("w0",)))
    saved = save_project(replace(new_project("t"), assessment=a))
    return load_project(saved).assessment


def model_answers(model: DescriptionModel) -> list:
    return [(coextension_class(model, f"e{i}"), model.binding_of(f"e{i}"))
            for i in range(6)]


def kernel_answers(kernel) -> list:
    return [find_alpha(kernel, "System Realization"),
            kernel.workproduct("Test Report"),
            subalpha_closure(kernel, "System Definition")]


def test_values_pickle_and_copy_as_their_tuples():
    a = base_assessment()
    for key in KEYS[:5]:
        a = record_checkpoint(a, CheckpointRecord(*key, True))
    model = loaded_model()
    assert model.coextension and model.bindings
    for value, answers in ((a, lambda v: alpha_state(v, "i0")),
                           (model, model_answers),
                           (replace(builtin_se_kernel()), kernel_answers)):
        answers(value)  # every index the answers read is built
        # The indices are invisible: the value is what its fields say.
        fresh = replace(value)
        assert value == fresh
        assert hash(value) == hash(fresh)
        assert repr(value) == repr(fresh)
        for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value),
                      copy.copy(value)):
            assert clone == value
            assert answers(clone) == answers(value)


def test_pickles_and_copies_carry_the_fields_only():
    """A pickle holds a container's fields and no index; its constructor
    makes each clone, and builds every index again."""
    a = base_assessment()
    for key in KEYS[:5]:
        a = record_checkpoint(a, CheckpointRecord(*key, True))
    for value, answers in ((a, lambda v: alpha_state(v, "i0")),
                           (loaded_model(), model_answers),
                           (replace(builtin_se_kernel()), kernel_answers)):
        answers(value)
        names = {f.name for f in fields(value)}
        indices = set(value.__dict__) - names
        assert indices  # the answers built them
        blob = pickle.dumps(value)
        assert not [name for name in indices if name.encode() in blob]
        for clone in (pickle.loads(blob), copy.deepcopy(value), copy.copy(value)):
            assert set(clone.__dict__) == names | indices
            assert [clone.__dict__[name] for name in indices] == [
                value.__dict__[name] for name in indices]
            assert clone == value
            assert answers(clone) == answers(value)


def test_threads_extending_one_value_do_not_see_each_other():
    template = base_assessment()
    count = 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(300):
            base = replace(template, records=())
            alpha_state(base, "i0")  # build the index before the race
            barrier = threading.Barrier(count, timeout=30)
            results: list = [None] * count

            def worker(n: int) -> None:
                barrier.wait()
                results[n] = record_checkpoint(
                    base, CheckpointRecord(*KEYS[n], True))

            threads = [threading.Thread(target=worker, args=(n,))
                       for n in range(count)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            for n, a in enumerate(results):
                assert [rec.key for rec in a.records] == [KEYS[n]]
                fresh = replace(a, records=a.records)
                assert alpha_state(a, KEYS[n][0]) == alpha_state(fresh, KEYS[n][0])
            assert base.records == ()
    finally:
        sys.setswitchinterval(interval)


def test_list_fields_are_stored_as_tuples():
    kernel = builtin_se_kernel()
    inst = AlphaInstance(id="i0", alpha="System Realization")
    wp = WorkProductInstance(id="w0", definition="Test Report")
    rec = CheckpointRecord(*KEYS[0], True)
    for field, items in (("instances", [inst]), ("work_products", [wp]),
                         ("records", [rec])):
        a = Assessment(project_id="t", kernel=kernel,
                       **{"instances": (inst,), field: items})
        assert getattr(a, field) == tuple(items)
        assert isinstance(getattr(a, field), tuple)
        hash(a)
        a = record_checkpoint(a, CheckpointRecord(*KEYS[1], True))
        a = add_work_product(a, replace(wp, id="w1"))
        assert a.records[-1].key == KEYS[1]
        assert a.work_product("w1") is not None
        hash(a)
    elem = ViewElement(id="e0", has_extent=True)
    for field, items in (("viewpoints", [Viewpoint(name="vp")]),
                         ("views", [View(name="v", viewpoint="vp")]),
                         ("elements", [elem]),
                         ("realization_nodes", [RealizationNode(id="n0")])):
        model = DescriptionModel(**{"viewpoints": (Viewpoint(name="vp"),),
                                    field: items})
        assert getattr(model, field) == tuple(items)
        assert isinstance(getattr(model, field), tuple)
        hash(model)
        model = add_element(model, replace(elem, id="e1"))
        model = add_realization_node(model, RealizationNode(id="n1"))
        assert model.element("e1") is not None
        assert model.realization_node("n1") is not None
        hash(model)


def outcome(fn, *args):
    """fn's answer, or the code of the error it raised."""
    try:
        return fn(*args)
    except EssenceError as exc:
        return exc.code


INSTANCE_IDS = [f"i{i}" for i in range(6)]
WORK_PRODUCT_IDS = [f"w{i}" for i in range(4)]
WORK_PRODUCT_KINDS = [wp.name for wp in builtin_se_kernel().workproducts]
ALPHA_NAMES = ["System Realization", "Requirements", "Team"]


def assessment_answers(a: Assessment) -> list:
    return ([a.instance(i) for i in INSTANCE_IDS]
            + [a.work_product(w) for w in WORK_PRODUCT_IDS]
            + [outcome(alpha_state, a, i) for i in INSTANCE_IDS])


def grow_assessment(rng: random.Random, a: Assessment):
    """A random operation's kind and its result on a."""
    op = rng.choice(("instance", "work product", "record", "record"))
    if op == "instance":
        return op, add_instance(a, AlphaInstance(
            id=rng.choice(INSTANCE_IDS), alpha=rng.choice(ALPHA_NAMES)))
    if op == "work product":
        return op, add_work_product(a, WorkProductInstance(
            id=rng.choice(WORK_PRODUCT_IDS),
            definition=rng.choice(WORK_PRODUCT_KINDS)))
    if not a.instances:
        return op, a
    inst = rng.choice(a.instances)
    # Few checkpoints per instance, so records supersede one another often.
    state = rng.choice(find_alpha(a.kernel, inst.alpha).states[:2])
    cp = rng.choice(state.checkpoints[:2])
    evidence = tuple(wp.id for wp in a.work_products if rng.random() < 0.3)
    rec = CheckpointRecord(inst.id, state.name, cp.id, rng.random() < 0.8,
                           evidence)
    kind = ("superseding record" if any(r.key == rec.key for r in a.records)
            else "new record")
    return kind, record_checkpoint(a, rec)


ELEMENT_IDS = [f"e{i}" for i in range(10)]
NODE_IDS = [f"n{i}" for i in range(4)]
VIEWPOINT_NAMES = [f"vp{i}" for i in range(3)]
VIEW_NAMES = [f"v{i}" for i in range(4)]


def description_answers(model: DescriptionModel) -> list:
    return ([model.viewpoint(name) for name in VIEWPOINT_NAMES]
            + [model.view(name) for name in VIEW_NAMES]
            + [model.element(e) for e in ELEMENT_IDS]
            + [model.realization_node(n) for n in NODE_IDS]
            + [model.binding_of(e) for e in ELEMENT_IDS]
            + [outcome(coextension_class, model, e) for e in ELEMENT_IDS])


def grow_model(rng: random.Random, model: DescriptionModel):
    """A random operation's kind and its result on model."""
    op = rng.choice(("viewpoint", "view", "element", "element", "node",
                     "designator", "coextension", "coextension", "binding"))
    # Mostly the model's own elements and nodes, so few calls are refused.
    elements = [e.id for e in model.elements if e.has_extent] or ELEMENT_IDS
    nodes = [n.id for n in model.realization_nodes] or NODE_IDS
    if op == "viewpoint":
        return op, add_viewpoint(model, Viewpoint(name=rng.choice(VIEWPOINT_NAMES)))
    if op == "view":
        cited = tuple(e.id for e in model.elements if rng.random() < 0.3)
        return op, add_view(model, View(name=rng.choice(VIEW_NAMES),
                                        viewpoint=rng.choice(VIEWPOINT_NAMES),
                                        elements=cited))
    if op == "element":
        return op, add_element(model, ViewElement(
            id=rng.choice(ELEMENT_IDS), has_extent=rng.random() < 0.85))
    if op == "node":
        return op, add_realization_node(
            model, RealizationNode(id=rng.choice(NODE_IDS)))
    if op == "designator":
        chain = genlib.random_chain(rng, rng.choice(tuple(Aspect)))
        return op, bind_designator(model, rng.choice(nodes), chain)
    if op == "coextension":
        return op, assert_coextension(model, rng.choice(elements),
                                      rng.choice(elements))
    return op, bind_element(model, rng.choice(elements), rng.choice(nodes))


@pytest.mark.parametrize("start, grow, answers, kinds", [
    (Assessment(project_id="t", kernel=builtin_se_kernel()), grow_assessment,
     assessment_answers,
     {"instance", "work product", "new record", "superseding record"}),
    (DescriptionModel(), grow_model, description_answers,
     {"viewpoint", "view", "element", "node", "designator", "coextension",
      "binding"}),
    (loaded_assessment(), grow_assessment, assessment_answers,
     {"instance", "work product", "new record", "superseding record"}),
    (loaded_model(), grow_model, description_answers,
     {"viewpoint", "view", "element", "node", "designator", "coextension",
      "binding"}),
], ids=["assessment", "description", "loaded-assessment", "loaded-description"])
def test_successors_answer_as_fresh_values(start, grow, answers, kinds):
    rng = random.Random(79)
    values = [start]
    seen: set = set()
    while len(values) < 400:
        parent = rng.choice(values)
        try:
            kind, value = grow(rng, parent)
        except EssenceError:
            continue
        if value is parent:
            continue
        values.append(value)
        seen.add(kind)
        # Build every index now, so later successors carry built ones.
        assert answers(value) == answers(replace(value))
    assert seen == kinds
    # A successor that wrote into a shared index would show here.
    for value in values:
        assert answers(value) == answers(replace(value))


def test_loaded_values_hold_their_builders_indices():
    """load_project hands each value every index its builder filled, under
    the value's own names: those the constructor builds."""
    for value, names in (
            (loaded_assessment(), {"_instances_by_id", "_work_products_by_id",
                                   "_record_positions"}),
            (loaded_model(), {"_viewpoints_by_name", "_views_by_name",
                              "_elements_by_id", "_nodes_by_id", "_class_of",
                              "_binding"})):
        assert set(value.__dict__) - {f.name for f in fields(value)} == names
        fresh = replace(value)
        assert set(fresh.__dict__) == set(value.__dict__)
        for name in names:
            assert value.__dict__[name] == fresh.__dict__[name]


def test_load_constructs_only_the_empty_values(monkeypatch):
    """load_project constructs one empty assessment and one empty model,
    and derives the loaded values from them: no constructor checks a
    loaded entry again."""
    project = replace(new_project("t"), assessment=loaded_assessment(),
                      description=loaded_model())
    saved = save_project(project)
    made = []
    for cls in (Assessment, DescriptionModel):
        def spy(value, check=cls.__post_init__):
            made.append(value)
            check(value)
        monkeypatch.setattr(cls, "__post_init__", spy)
    loaded = load_project(saved)
    monkeypatch.undo()
    assert loaded == project
    assert made == [Assessment("t", builtin_se_kernel()), DescriptionModel()]
