"""Assessment engine: recording, state derivation, blocking, cards."""

from __future__ import annotations

import random
from dataclasses import fields, replace

import pytest

import genlib
from essencekit import (
    AlphaDefinition,
    AlphaInstance,
    AreaOfConcern,
    Assessment,
    AssessmentError,
    CheckpointRecord,
    KernelDefinition,
    SystemLevel,
    WorkProductInstance,
    add_instance,
    add_work_product,
    alpha_state,
    blocking_checkpoints,
    builtin_se_kernel,
    find_alpha,
    record_checkpoint,
    render_card,
    validate_kernel,
)


def fresh(instance_id: str = "i-1", alpha: str = "System Realization",
          *, strict: bool = False) -> Assessment:
    a = Assessment(project_id="t", kernel=builtin_se_kernel(),
                   strict_evidence=strict)
    return add_instance(a, AlphaInstance(id=instance_id, alpha=alpha))


def satisfy_through(a: Assessment, instance_id: str, last_state: str) -> Assessment:
    alpha = find_alpha(a.kernel, a.instance(instance_id).alpha)
    for state in alpha.states:
        for cp in state.checkpoints:
            a = record_checkpoint(a, CheckpointRecord(
                instance_id, state.name, cp.id, True))
        if state.name == last_state:
            break
    return a


def rec(state: str, checkpoint: str, satisfied: bool = True,
        **kwargs) -> CheckpointRecord:
    return CheckpointRecord("i-1", state, checkpoint, satisfied, **kwargs)


def test_add_instance_checks_alpha():
    a = Assessment(project_id="t", kernel=builtin_se_kernel())
    with pytest.raises(AssessmentError) as err:
        add_instance(a, AlphaInstance(id="x", alpha="Ghost"))
    assert err.value.code == "UNKNOWN_ALPHA"


# The builders behind load_project check no fields, so the tests named
# "by_operation_and_builder" call the operations alone; the loader's
# field checks are the reader's (tests/test_store.py,
# test_fields_of_another_json_class_are_refused_by_the_reader).
@pytest.mark.parametrize("op, value", [
    (add_instance, AlphaInstance(id="", alpha="System Realization")),
    (add_work_product, WorkProductInstance(id="", definition="Test Report")),
], ids=["instance", "work-product"])
def test_empty_ids_are_refused_by_operation_and_builder(op, value):
    a = Assessment(project_id="t", kernel=builtin_se_kernel())
    with pytest.raises(AssessmentError) as err:
        op(a, value)
    assert (err.value.code, err.value.path) == ("EMPTY_ID", None)


@pytest.mark.parametrize("op, value", [
    (record_checkpoint, rec("Raw materials", "RM-1", 1)),
    (record_checkpoint, rec("Raw materials", "RM-1", None)),
    (record_checkpoint, rec("Raw materials", "RM-1", recorded_at="x")),
    (record_checkpoint, rec("Raw materials", "RM-1", recorded_at=True)),
    (record_checkpoint, rec("Raw materials", "RM-1", recorded_at=1.5)),
    (add_work_product, WorkProductInstance(
        id="wp", definition="Test Report", document_designation="=A1&AAA")),
    (record_checkpoint, rec("Raw materials", "RM-1", evidence=None)),
    (record_checkpoint, rec("Raw materials", "RM-1", evidence=["wp"])),
    (record_checkpoint, rec("Raw materials", "RM-1", evidence="wp")),
    (add_instance, 5),
    (add_work_product, None),
    (record_checkpoint, "x"),
], ids=["satisfied-int", "satisfied-none", "recorded-at-text",
        "recorded-at-bool", "recorded-at-float", "designation-text",
        "evidence-none", "evidence-list", "evidence-text", "instance-int",
        "work-product-none", "record-text"])
def test_values_a_file_cannot_hold_are_refused_by_operation_and_builder(
        op, value):
    a = fresh()
    with pytest.raises(AssessmentError) as err:
        op(a, value)
    assert (err.value.code, err.value.path) == ("UNSUPPORTED_VALUE", None)


@pytest.mark.parametrize("op, value", [
    (add_instance, AlphaInstance(id=5, alpha="System Realization")),
    (add_instance, AlphaInstance(id=["i"], alpha="System Realization")),
    (add_instance, AlphaInstance(id="i-2", alpha=["System Realization"])),
    (add_work_product, WorkProductInstance(
        id="wp", definition="Test Report", label=5)),
    (add_work_product, WorkProductInstance(id="wp", definition=["Test Report"])),
    (record_checkpoint, CheckpointRecord(["i-1"], "Raw materials", "RM-1", True)),
    (record_checkpoint, rec("Raw materials", "RM-1", evidence=(["wp"],))),
    (record_checkpoint, rec(5, "RM-1")),
    (record_checkpoint, rec("Raw materials", None)),
], ids=["instance-id-int", "instance-id-list", "instance-alpha-list",
        "label-int", "definition-list", "record-instance-list",
        "evidence-item-list", "record-state-int", "record-checkpoint-none"])
def test_text_fields_a_file_cannot_hold_are_refused_by_operation_and_builder(
        op, value):
    a = fresh()
    with pytest.raises(AssessmentError) as err:
        op(a, value)
    assert (err.value.code, err.value.path) == ("UNSUPPORTED_VALUE", None)


@pytest.mark.parametrize("make, path", [
    (lambda k: Assessment("t", k, instances=None), None),
    (lambda k: Assessment("t", k, work_products=5), None),
    (lambda k: Assessment("t", k, records=("x",)), "records[0]"),
    (lambda k: Assessment("t", k, instances=(CheckpointRecord("i", "s", "c", True),)),
     "instances[0]"),
    (lambda k: alpha_state(5, "i-1"), None),
    (lambda k: render_card(None, "i-1"), None),
    (lambda k: blocking_checkpoints("a", "i-1", "Parts"), None),
    (lambda k: add_instance(Assessment("t", 5), AlphaInstance("i", "Team")), None),
], ids=["instances-none", "work-products-int", "record-text", "instance-record",
        "alpha-state", "render-card", "blocking-checkpoints", "kernel-int"])
def test_values_of_another_class_are_refused(make, path):
    with pytest.raises(AssessmentError) as err:
        make(builtin_se_kernel())
    assert (err.value.code, err.value.path) == ("UNSUPPORTED_VALUE", path)


def test_add_instance_rejects_duplicate_id():
    a = fresh()
    with pytest.raises(AssessmentError) as err:
        add_instance(a, AlphaInstance(id="i-1", alpha="Team"))
    assert err.value.code == "DUPLICATE_INSTANCE"


def test_add_work_product_checks_definition():
    a = fresh()
    with pytest.raises(AssessmentError) as err:
        add_work_product(a, WorkProductInstance(id="wp", definition="Ghost"))
    assert err.value.code == "UNKNOWN_DEFINITION"
    a = add_work_product(a, WorkProductInstance(id="wp", definition="Test Report"))
    with pytest.raises(AssessmentError) as err:
        add_work_product(a, WorkProductInstance(id="wp", definition="Test Report"))
    assert err.value.code == "DUPLICATE_WORK_PRODUCT"


def test_record_is_idempotent():
    a = fresh()
    record = rec("Raw materials", "RM-1")
    once = record_checkpoint(a, record)
    twice = record_checkpoint(once, record)
    assert twice is once
    assert len(twice.records) == 1


def test_a_record_is_already_effective_only_when_each_field_is_equal():
    a = add_work_product(fresh(), WorkProductInstance("wp", "Test Report"))
    record = rec("Raw materials", "RM-1", evidence=("wp",), recorded_at=5)
    a = record_checkpoint(a, record)
    assert record_checkpoint(a, replace(record)) is a
    changed = {"satisfied": False, "evidence": (), "recorded_at": 6}
    key = {"alpha_instance", "state", "checkpoint"}
    assert {f.name for f in fields(CheckpointRecord)} == key | set(changed)
    for name, other in changed.items():
        again = record_checkpoint(a, replace(record, **{name: other}))
        assert again is not a and again.records == (replace(record, **{name: other}),)


def test_record_supersedes_in_place():
    a = record_checkpoint(fresh(), rec("Raw materials", "RM-1"))
    a = record_checkpoint(a, rec("Raw materials", "RM-2"))
    a = record_checkpoint(a, rec("Raw materials", "RM-1", False))
    assert len(a.records) == 2
    assert [r.checkpoint for r in a.records] == ["RM-1", "RM-2"]
    assert a.records[0].satisfied is False


def test_record_error_codes():
    a = fresh()
    cases = [
        (rec("Raw materials", "ZZ-9"), "UNKNOWN_CHECKPOINT"),
        (rec("Imaginary", "RM-1"), "UNKNOWN_CHECKPOINT"),
        (rec("Parts", "RM-1"), "UNKNOWN_CHECKPOINT"),
        (rec("Raw materials", "RM-1", evidence=("wp-9",)), "UNKNOWN_EVIDENCE"),
        (CheckpointRecord("ghost", "Raw materials", "RM-1", True),
         "UNKNOWN_INSTANCE"),
    ]
    for record, code in cases:
        with pytest.raises(AssessmentError) as err:
            record_checkpoint(a, record)
        assert err.value.code == code, record


def test_empty_assessment_has_no_achieved_state():
    a = fresh()
    result = alpha_state(a, "i-1")
    assert result.achieved is None
    assert result.achieved_index == -1
    assert result.next_state == "Raw materials"
    raw = find_alpha(a.kernel, "System Realization").state("Raw materials")
    assert [b.checkpoint for b in result.blocking] == [
        cp.id for cp in raw.checkpoints]
    assert [b.text for b in result.blocking] == [
        cp.text for cp in raw.checkpoints]
    assert all(b.state == "Raw materials" for b in result.blocking)


def test_alpha_state_unknown_instance():
    with pytest.raises(AssessmentError) as err:
        alpha_state(fresh(), "ghost")
    assert err.value.code == "UNKNOWN_INSTANCE"


@pytest.mark.parametrize("query", [
    lambda a, i: alpha_state(a, i),
    lambda a, i: render_card(a, i),
    lambda a, i: blocking_checkpoints(a, i, "Parts"),
], ids=["alpha-state", "render-card", "blocking-checkpoints"])
@pytest.mark.parametrize("instance_id", [["i-1"], {"i-1": 1}, {"i-1"}],
                         ids=["list", "dict", "set"])
def test_state_queries_refuse_an_unhashable_instance_id(query, instance_id):
    with pytest.raises(AssessmentError) as err:
        query(fresh(), instance_id)
    assert (err.value.code, err.value.message) == (
        "UNKNOWN_INSTANCE", f"no alpha instance {instance_id!r}")


@pytest.mark.parametrize("instance_id", [["i-1"], {"i-1": 1}, {"i-1"}],
                         ids=["list", "dict", "set"])
def test_accessors_find_nothing_for_an_unhashable_id(instance_id):
    a = add_work_product(fresh(), WorkProductInstance("i-1", "Test Report"))
    assert a.instance(instance_id) is None
    assert a.work_product(instance_id) is None


def test_an_instance_whose_alpha_the_kernel_lacks_is_refused_at_construction():
    # So no query meets an instance of an alpha the kernel lacks.
    with pytest.raises(AssessmentError) as err:
        Assessment(project_id="t", kernel=builtin_se_kernel(),
                   instances=(AlphaInstance(id="i-1", alpha="Ghost"),))
    assert (err.value.code, err.value.message, err.value.path) == (
        "UNKNOWN_ALPHA", "kernel defines no alpha 'Ghost'", "instances[0]")


def test_first_state_achieved_when_its_checklist_is_done():
    a = satisfy_through(fresh(), "i-1", "Raw materials")
    result = alpha_state(a, "i-1")
    assert result.achieved == "Raw materials"
    assert result.achieved_index == 0
    assert result.next_state == "Parts"
    assert [b.checkpoint for b in result.blocking] == ["P-1", "P-2", "P-3", "P-4"]


def test_later_state_alone_does_not_count():
    a = fresh()
    alpha = find_alpha(a.kernel, "System Realization")
    for cp in alpha.state("Parts").checkpoints:
        a = record_checkpoint(a, rec("Parts", cp.id))
    result = alpha_state(a, "i-1")
    assert result.achieved is None
    assert result.next_state == "Raw materials"


def test_partial_next_state_blocking_lists_only_unsatisfied():
    a = satisfy_through(fresh(), "i-1", "Demonstrable")
    a = record_checkpoint(a, rec("Ready", "R-2"))
    a = record_checkpoint(a, rec("Ready", "R-5"))
    result = alpha_state(a, "i-1")
    assert result.achieved == "Demonstrable"
    assert result.next_state == "Ready"
    assert [b.checkpoint for b in result.blocking] == [
        "R-1", "R-3", "R-4", "R-6", "R-7", "R-8"]


def test_full_satisfaction_reaches_final_state():
    a = satisfy_through(fresh(), "i-1", "Retired")
    result = alpha_state(a, "i-1")
    assert result.achieved == "Retired"
    assert result.achieved_index == 5
    assert result.next_state is None
    assert result.blocking == ()


def test_unsatisfied_record_regresses_state():
    a = satisfy_through(fresh(), "i-1", "Parts")
    assert alpha_state(a, "i-1").achieved == "Parts"
    a = record_checkpoint(a, rec("Raw materials", "RM-3", False))
    result = alpha_state(a, "i-1")
    assert result.achieved is None
    assert [b.checkpoint for b in result.blocking] == ["RM-3"]


def test_blocking_checkpoints_spans_states_up_to_target():
    a = fresh()
    blockers = blocking_checkpoints(a, "i-1", "Parts")
    assert [(b.state, b.checkpoint) for b in blockers] == [
        ("Raw materials", "RM-1"), ("Raw materials", "RM-2"),
        ("Raw materials", "RM-3"), ("Raw materials", "RM-4"),
        ("Parts", "P-1"), ("Parts", "P-2"), ("Parts", "P-3"), ("Parts", "P-4")]


def test_blocking_checkpoints_empty_when_target_achieved():
    a = satisfy_through(fresh(), "i-1", "Parts")
    assert blocking_checkpoints(a, "i-1", "Raw materials") == ()
    assert blocking_checkpoints(a, "i-1", "Parts") == ()
    assert len(blocking_checkpoints(a, "i-1", "Retired")) == 6 + 8 + 4 + 6


def test_blocking_checkpoints_unknown_state():
    with pytest.raises(AssessmentError) as err:
        blocking_checkpoints(fresh(), "i-1", "Conceived")
    assert err.value.code == "UNKNOWN_STATE"


def test_strict_evidence_mode_discounts_bare_claims():
    a = fresh(alpha="Team", strict=True)
    a = add_work_product(a, WorkProductInstance(id="wp", definition="Test Report"))
    a = record_checkpoint(a, rec("Unspecified", "U-1"))
    assert alpha_state(a, "i-1").achieved is None
    a = record_checkpoint(a, rec("Unspecified", "U-1", evidence=("wp",)))
    assert alpha_state(a, "i-1").achieved == "Unspecified"


def test_relaxed_mode_ignores_evidence():
    a = fresh(alpha="Team")
    a = record_checkpoint(a, rec("Unspecified", "U-1"))
    assert alpha_state(a, "i-1").achieved == "Unspecified"
    assert alpha_state(a, "i-1").next_state is None


def test_work_products_never_drive_state():
    # Metonymy guard: deleting every work product (and the evidence that
    # points at it) must not move any alpha state in relaxed mode.
    rng = random.Random(1105)
    for _ in range(60):
        a, instance_id = genlib.random_assessment(rng)
        scrubbed = replace(
            a,
            work_products=(),
            records=tuple(replace(r, evidence=()) for r in a.records))
        assert alpha_state(scrubbed, instance_id) == alpha_state(a, instance_id)


def test_recording_timestamps_never_affect_state():
    base = fresh()
    early = satisfy_through(base, "i-1", "Parts")
    late = base
    for r in early.records:
        late = record_checkpoint(late, replace(r, recorded_at=r.recorded_at + 999))
    assert alpha_state(early, "i-1") == alpha_state(late, "i-1")


def test_achieved_index_matches_prefix_oracle():
    rng = random.Random(2204)
    for i in range(150):
        a, instance_id = genlib.random_assessment(rng, strict=i % 3 == 0)
        alpha = find_alpha(a.kernel, a.instance(instance_id).alpha)
        effective = genlib.effective_satisfied(a, instance_id)
        expected = genlib.prefix_oracle(alpha, effective)
        result = alpha_state(a, instance_id)
        assert result.achieved_index == expected
        if expected + 1 < len(alpha.states):
            next_def = alpha.states[expected + 1]
            assert result.next_state == next_def.name
            assert [b.checkpoint for b in result.blocking] == [
                cp.id for cp in next_def.checkpoints
                if (next_def.name, cp.id) not in effective]
        else:
            assert result.next_state is None
            assert result.blocking == ()


def test_satisfying_more_never_lowers_state():
    rng = random.Random(3303)
    for _ in range(200):
        a, instance_id = genlib.random_assessment(rng)
        alpha = find_alpha(a.kernel, a.instance(instance_id).alpha)
        effective = genlib.effective_satisfied(a, instance_id)
        open_keys = [
            (s.name, cp.id) for s in alpha.states for cp in s.checkpoints
            if (s.name, cp.id) not in effective]
        if not open_keys:
            continue
        state, checkpoint = rng.choice(open_keys)
        before = alpha_state(a, instance_id).achieved_index
        more = record_checkpoint(a, CheckpointRecord(
            instance_id, state, checkpoint, True))
        assert alpha_state(more, instance_id).achieved_index >= before


def test_replaying_records_reproduces_state():
    rng = random.Random(4402)
    for _ in range(40):
        a, instance_id = genlib.random_assessment(rng)
        fresh_a = replace(a, records=())
        for r in a.records:
            fresh_a = record_checkpoint(fresh_a, r)
        assert alpha_state(fresh_a, instance_id) == alpha_state(a, instance_id)


@pytest.mark.parametrize("strict", [False, True], ids=["relaxed", "strict"])
def test_blocking_and_cards_match_the_effective_record_oracle(strict):
    """For every target state, the blockers and each card line equal
    what the fold of the last records per key gives."""
    rng = random.Random(1313 + strict)
    for _ in range(120):
        a, instance_id = genlib.random_assessment(rng, strict=strict)
        inst = a.instances[0]
        alpha = find_alpha(a.kernel, inst.alpha)
        done = genlib.effective_satisfied(a, instance_id)
        achieved = genlib.prefix_oracle(alpha, done)
        opened = [(s.name, cp.id, cp.text) for s in alpha.states
                  for cp in s.checkpoints if (s.name, cp.id) not in done]
        for i, state in enumerate(alpha.states):
            upto = {s.name for s in alpha.states[:i + 1]}
            assert list(blocking_checkpoints(a, instance_id, state.name)) == [
                b for b in opened if b[0] in upto]
        width = max(len(s.name) for s in alpha.states)
        card = [f"{alpha.name} [{instance_id}] ({inst.system_level.value})"]
        for i, s in enumerate(alpha.states):
            count = sum((s.name, cp.id) in done for cp in s.checkpoints)
            mark = "x" if i <= achieved else " "
            card.append(f"  [{mark}] {s.name.ljust(width)} "
                        f"{count}/{len(s.checkpoints)}")
        card.append("Achieved: " + (alpha.states[achieved].name
                                    if achieved >= 0 else "(none)"))
        if achieved + 1 < len(alpha.states):
            card.append(f"Next: {alpha.states[achieved + 1].name}")
        assert render_card(a, instance_id).split("\n") == card


EXPECTED_EMPTY_SD_CARD = (
    "System Definition [sd-1] (SystemOfInterest)\n"
    "  [ ] Conceived             0/5\n"
    "  [ ] Consistent            0/7\n"
    "  [ ] Used for Production   0/5\n"
    "  [ ] Used for Verification 0/4\n"
    "  [ ] Used for Operation    0/3\n"
    "  [ ] Used for Disposal     0/4\n"
    "Achieved: (none)\n"
    "Next: Conceived"
)


def test_render_card_empty_assessment():
    a = fresh("sd-1", "System Definition")
    assert render_card(a, "sd-1") == EXPECTED_EMPTY_SD_CARD


def test_render_card_progress_and_final_state():
    a = satisfy_through(fresh(), "i-1", "Retired")
    card = render_card(a, "i-1")
    lines = card.splitlines()
    assert lines[0] == "System Realization [i-1] (SystemOfInterest)"
    assert lines[1] == "  [x] Raw materials 4/4"
    assert lines[-1] == "Achieved: Retired"
    assert all("[x]" in line for line in lines[1:7])
    assert "Next:" not in card


def test_render_card_partial_counts():
    a = satisfy_through(fresh(), "i-1", "Raw materials")
    a = record_checkpoint(a, rec("Parts", "P-1"))
    card = render_card(a, "i-1")
    assert "  [x] Raw materials 4/4" in card
    assert "  [ ] Parts         1/4" in card
    assert card.endswith("Achieved: Raw materials\nNext: Parts")


def test_render_card_shows_system_level():
    a = Assessment(project_id="t", kernel=builtin_se_kernel())
    a = add_instance(a, AlphaInstance(
        id="us", alpha="Stakeholders", system_level=SystemLevel.USING_SYSTEM))
    assert render_card(a, "us").splitlines()[0] == "Stakeholders [us] (UsingSystem)"


def test_render_card_of_an_alpha_with_no_states():
    """A kernel built in code, which validation refuses, still renders."""
    kernel = KernelDefinition("k", (AreaOfConcern("Solution"),),
                              (AlphaDefinition("A", "Solution"),))
    assert "EMPTY_STATES" in validate_kernel(kernel).codes()
    a = Assessment("p", kernel, instances=(AlphaInstance("i", "A"),))
    result = alpha_state(a, "i")
    assert (result.achieved, result.next_state) == (None, None)
    assert render_card(a, "i") == "A [i] (SystemOfInterest)\nAchieved: (none)"


def test_render_card_deterministic():
    rng = random.Random(5501)
    a, instance_id = genlib.random_assessment(rng)
    assert render_card(a, instance_id) == render_card(a, instance_id)
