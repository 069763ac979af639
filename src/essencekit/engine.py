"""Checkpoint-driven alpha state assessment.

Alphas progress through their ordered states; a state is achieved only
when it and every state before it have all checkpoints satisfied. The
achieved state is computed from checkpoint records alone, never from
the existence of work products: work products may evidence records, but
an alpha's state is independent of the degree of documentation (the
metonymy guard). In strict-evidence mode the guard points the other
way: a satisfied record with no evidence counts as unsatisfied.

Assessments are immutable values; recording returns a new assessment
with the record effective for its (instance, state, checkpoint) key.
"""

from __future__ import annotations

from enum import Enum
from itertools import chain
from operator import attrgetter
from typing import NamedTuple

from ._schema import BOOL, INT, TEXT, Kind, Member, Texts, check_fields
from ._value import (add_new, by_fields, derive, find, member, tuple_fields,
                     unsupported, value)
from .designation import DOCUMENT_DESIGNATION, DocumentDesignation
from .errors import AssessmentError
from .metamodel import AlphaDefinition, Checkpoint, KernelDefinition, find_alpha


class SystemLevel(str, Enum):
    # An endeavor watches two systems: the one being engineered and the
    # stakeholders' system that uses it (where validation happens).
    SYSTEM_OF_INTEREST = "SystemOfInterest"
    USING_SYSTEM = "UsingSystem"


_ID = Kind(str, empty="EMPTY_ID")


@value
class AlphaInstance:
    """An instance of a kernel alpha in one system of the endeavor."""

    id: str
    alpha: str
    system_level: SystemLevel = SystemLevel.SYSTEM_OF_INTEREST

    _FIELDS = (("id", "id", _ID, "instance id"),
               ("alpha", "alpha", TEXT, "alpha name"),
               ("system_level", "system-level", Member(SystemLevel, str),
                "system level"))

    def __post_init__(self) -> None:
        object.__setattr__(self, "system_level", member(
            self.system_level, SystemLevel, AssessmentError, "system level"))


@value
class WorkProductInstance:
    """A concrete artifact of a kernel work product kind."""

    id: str
    definition: str
    label: str = ""
    document_designation: DocumentDesignation | None = None

    _FIELDS = (("id", "id", _ID, "work product id"),
               ("definition", "definition", TEXT, "work product definition"),
               ("label", "label", TEXT, "work product label"),
               ("document_designation", "document-designation",
                DOCUMENT_DESIGNATION, "document designation"))


@value
class CheckpointRecord:
    """One assessed checkpoint of an alpha instance's state."""

    alpha_instance: str
    state: str
    checkpoint: str
    satisfied: bool
    evidence: tuple[str, ...] = ()
    recorded_at: int = 0  # informational only; never affects computation

    _FIELDS = (("alpha_instance", "alpha-instance", TEXT, "alpha instance"),
               ("state", "state", TEXT, "state"),
               ("checkpoint", "checkpoint", TEXT, "checkpoint"),
               ("satisfied", "satisfied", BOOL, "satisfied"),
               ("evidence", "evidence",
                Texts("evidence id", "evidence ids must be text"), "evidence"),
               ("recorded_at", "recorded-at", INT, "recorded_at"))

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.alpha_instance, self.state, self.checkpoint)


@value
class Assessment:
    """A project's alpha instances, work products and effective records."""

    project_id: str
    kernel: KernelDefinition
    instances: tuple[AlphaInstance, ...] = ()
    work_products: tuple[WorkProductInstance, ...] = ()
    records: tuple[CheckpointRecord, ...] = ()
    strict_evidence: bool = False

    def __post_init__(self) -> None:
        Kind(KernelDefinition).check(self.kernel, "kernel", AssessmentError)
        tuple_fields(self, AssessmentError,
                     ("instances", AlphaInstance, "instance"),
                     ("work_products", WorkProductInstance, "work product"),
                     ("records", CheckpointRecord, "record"))
        # Each entry is checked, in file order, as the operation that adds
        # it does. The fields and indices are those the load builder makes:
        # a record replaces the earlier one with its key in place.
        builder = AssessmentBuilder(self)
        for field, cls, add in (
                ("instances", AlphaInstance, builder.add_instance),
                ("work_products", WorkProductInstance, builder.add_work_product),
                ("records", CheckpointRecord, builder.record_checkpoint)):
            for i, entry in enumerate(getattr(self, field)):
                try:
                    check_fields(entry, cls, AssessmentError)
                    add(entry)
                except AssessmentError as exc:
                    raise AssessmentError(exc.code, exc.message,
                                          path=f"{field}[{i}]") from None
        vars(self).update(vars(builder.build()))

    def instance(self, instance_id: str) -> AlphaInstance | None:
        return find(self._instances_by_id, instance_id)

    def work_product(self, wp_id: str) -> WorkProductInstance | None:
        return find(self._work_products_by_id, wp_id)

    __reduce__ = by_fields


_ASSESSMENT = Kind(Assessment)
_ALPHA, _EVIDENCE = attrgetter("alpha"), attrgetter("evidence")
_KEY = attrgetter("alpha_instance", "state", "checkpoint")  # CheckpointRecord.key


class AssessmentBuilder:
    """Builds an assessment over ``value``'s kernel from entries added in
    order; ``value`` is the empty assessment of a load, or the one that
    ``Assessment`` makes.

    Each entry gets the reference and duplicate checks of the matching
    operation, so errors are the same as when folding ``add_instance``,
    ``add_work_product`` and ``record_checkpoint``. A list operation
    (``add_instances``, ``record_checkpoints``) checks a whole list with
    one set test per reference; when the item operation would refuse an
    item, it adds none and returns False. Columns do not speed up work
    products, a short list. ``build`` derives the value from ``value``
    and hands it every map, records' included, as its index; no
    constructor checks an entry again.

    Unlike the operations, it checks no entry's fields. ``Assessment``
    checks them before it adds an entry; ``load_project`` adds entries
    made by ``read_columns`` or ``read_entry``. Both set a field to a raw
    value of its kind's plain class (not empty where the kind has an
    ``empty`` code), a value the kind's ``load`` made, or the dataclass
    default: each fits, so ``check_fields`` passes it.
    """

    def __init__(self, value: Assessment):
        self._value, self.kernel = value, value.kernel
        self._instances_by_id: dict[str, AlphaInstance] = {}
        self._work_products_by_id: dict[str, WorkProductInstance] = {}
        # A record replaces the one with its key in place, as in the value.
        self._records: dict[tuple[str, str, str], CheckpointRecord] = {}

    def add_instance(self, inst: AlphaInstance) -> None:
        _check_instance(self, inst)
        self._instances_by_id[inst.id] = inst

    def add_work_product(self, wp: WorkProductInstance) -> None:
        _check_work_product(self, wp)
        self._work_products_by_id[wp.id] = wp

    def record_checkpoint(self, rec: CheckpointRecord) -> None:
        _check_record(self, rec)
        self._records[rec.key] = rec

    def add_instances(self, instances: list[AlphaInstance]) -> bool:
        return all(find_alpha(self.kernel, name) is not None
                   for name in set(map(_ALPHA, instances))) and add_new(
                       self._instances_by_id, instances, "id")

    def record_checkpoints(self, records: list[CheckpointRecord]) -> bool:
        keys = list(map(_KEY, records))
        by_id = self._instances_by_id
        if not (by_id.keys() >= {key[0] for key in keys}
                and self.kernel._checkpoint_keys >= {
                    (by_id[instance].alpha, state, checkpoint)
                    for instance, state, checkpoint in set(keys)}
                and self._work_products_by_id.keys() >= set(
                    chain.from_iterable(map(_EVIDENCE, records)))):
            return False
        self._records.update(zip(keys, records))
        return True

    def build(self) -> Assessment:
        return derive(self._value, instances=tuple(self._instances_by_id.values()),
                      work_products=tuple(self._work_products_by_id.values()),
                      records=tuple(self._records.values()),
                      _instances_by_id=self._instances_by_id,
                      _work_products_by_id=self._work_products_by_id,
                      _record_positions={key: i for i, key in enumerate(self._records)})


class Blocker(NamedTuple):
    state: str
    checkpoint: str
    text: str


@value
class StateResult:
    """An alpha instance's achieved state and what blocks the next."""

    achieved: str | None
    achieved_index: int  # -1 when no state is achieved
    next_state: str | None
    blocking: tuple[Blocker, ...]


def add_instance(a: Assessment, inst: AlphaInstance) -> Assessment:
    _ASSESSMENT.check(a, "assessment", AssessmentError)
    check_fields(inst, AlphaInstance, AssessmentError)
    _check_instance(a, inst)
    return derive(a, instances=a.instances + (inst,),
                  _instances_by_id={**a._instances_by_id, inst.id: inst})


def add_work_product(a: Assessment, wp: WorkProductInstance) -> Assessment:
    _ASSESSMENT.check(a, "assessment", AssessmentError)
    check_fields(wp, WorkProductInstance, AssessmentError)
    _check_work_product(a, wp)
    return derive(a, work_products=a.work_products + (wp,),
                  _work_products_by_id={**a._work_products_by_id, wp.id: wp})


def record_checkpoint(a: Assessment, rec: CheckpointRecord) -> Assessment:
    """Make rec the effective record for its key; idempotent for equal rec."""
    check_fields(rec, CheckpointRecord, AssessmentError)
    _check_record(a, rec)
    records = a.records
    pos = a._record_positions.get(rec.key)
    if pos is None:
        positions = {**a._record_positions, rec.key: len(records)}
        return derive(a, records=records + (rec,), _record_positions=positions)
    # The keys match, so the records are equal when the other fields are.
    old = records[pos]
    if (old.satisfied, old.evidence, old.recorded_at) == (
            rec.satisfied, rec.evidence, rec.recorded_at):
        return a
    # Positions do not move, so the index carries over.
    return derive(a, records=records[:pos] + (rec,) + records[pos + 1:])


# The reference and duplicate checks take an Assessment or an
# AssessmentBuilder, and read the indices both keep under the same names.


def _check_instance(a, inst: AlphaInstance) -> None:
    if find_alpha(a.kernel, inst.alpha) is None:
        raise AssessmentError(
            "UNKNOWN_ALPHA", f"kernel defines no alpha {inst.alpha!r}"
        )
    if inst.id in a._instances_by_id:
        raise AssessmentError(
            "DUPLICATE_INSTANCE", f"instance id {inst.id!r} already used"
        )


def _check_work_product(a, wp: WorkProductInstance) -> None:
    if a.kernel.workproduct(wp.definition) is None:
        raise AssessmentError(
            "UNKNOWN_DEFINITION",
            f"kernel defines no work product {wp.definition!r}",
        )
    if wp.id in a._work_products_by_id:
        raise AssessmentError(
            "DUPLICATE_WORK_PRODUCT", f"work product id {wp.id!r} already used"
        )


def _check_record(a, rec: CheckpointRecord) -> None:
    alpha = _alpha_of(a, rec.alpha_instance)
    state = alpha.state(rec.state)
    if state is None:
        raise AssessmentError(
            "UNKNOWN_CHECKPOINT",
            f"alpha {alpha.name!r} has no state {rec.state!r}",
        )
    if state.checkpoint(rec.checkpoint) is None:
        raise AssessmentError(
            "UNKNOWN_CHECKPOINT",
            f"state {state.name!r} has no checkpoint {rec.checkpoint!r}",
        )
    for wp_id in rec.evidence:
        if wp_id not in a._work_products_by_id:
            raise AssessmentError(
                "UNKNOWN_EVIDENCE", f"evidence {wp_id!r} is not a work product id"
            )


def alpha_state(a: Assessment, instance_id: str) -> StateResult:
    """Largest fully satisfied prefix of the alpha's state list."""
    alpha = _alpha_of(a, instance_id)
    return _state_result(alpha, _open_checkpoints(a, instance_id, alpha))


def blocking_checkpoints(
    a: Assessment, instance_id: str, target_state: str
) -> tuple[Blocker, ...]:
    """Unsatisfied checkpoints in every state up to and including target."""
    alpha = _alpha_of(a, instance_id)
    blockers: list[Blocker] = []
    for state, open_ in zip(alpha.states, _open_checkpoints(a, instance_id, alpha)):
        blockers.extend(_blockers(state.name, open_))
        if state.name == target_state:
            break
    else:
        raise AssessmentError(
            "UNKNOWN_STATE", f"alpha {alpha.name!r} has no state {target_state!r}"
        )
    return tuple(blockers)


def render_card(a: Assessment, instance_id: str) -> str:
    """Plain-text state card; deterministic for a given assessment."""
    alpha = _alpha_of(a, instance_id)
    inst = a.instance(instance_id)
    walk = _open_checkpoints(a, instance_id, alpha)
    result = _state_result(alpha, walk)
    width = max((len(state.name) for state in alpha.states), default=0)
    lines = [f"{alpha.name} [{inst.id}] ({inst.system_level.value})"]
    for i, (state, open_) in enumerate(zip(alpha.states, walk)):
        total = len(state.checkpoints)
        mark = "x" if i <= result.achieved_index else " "
        lines.append(f"  [{mark}] {state.name:<{width}} {total - len(open_)}/{total}")
    lines.append(f"Achieved: {result.achieved if result.achieved else '(none)'}")
    if result.next_state is not None:
        lines.append(f"Next: {result.next_state}")
    return "\n".join(lines)


def _alpha_of(a, instance_id: str) -> AlphaDefinition:
    if not isinstance(a, (Assessment, AssessmentBuilder)):
        raise unsupported(AssessmentError, "assessment", "an Assessment", a)
    inst = find(a._instances_by_id, instance_id)
    if inst is None:
        raise AssessmentError(
            "UNKNOWN_INSTANCE", f"no alpha instance {instance_id!r}"
        )
    return a.kernel._alphas_by_name[inst.alpha]


def _open_checkpoints(
    a: Assessment, instance_id: str, alpha: AlphaDefinition
) -> list[list[Checkpoint]]:
    """Per state of the alpha, its checkpoints not effectively satisfied:
    a key's last record counts, and in strict-evidence mode only a
    record with evidence."""
    positions, records = a._record_positions, a.records
    strict = a.strict_evidence
    walk = []
    for state in alpha.states:
        open_ = []
        for cp in state.checkpoints:
            pos = positions.get((instance_id, state.name, cp.id))
            rec = None if pos is None else records[pos]
            if rec is None or not rec.satisfied or strict and not rec.evidence:
                open_.append(cp)
        walk.append(open_)
    return walk


def _state_result(alpha: AlphaDefinition, walk: list[list[Checkpoint]]) -> StateResult:
    """The states before the first with an open checkpoint are achieved."""
    n = next((i for i, open_ in enumerate(walk) if open_), len(walk))
    achieved = alpha.states[n - 1].name if n else None
    if n == len(walk):
        return StateResult(achieved, n - 1, None, ())
    name = alpha.states[n].name
    return StateResult(achieved, n - 1, name, _blockers(name, walk[n]))


def _blockers(state: str, open_: list[Checkpoint]) -> tuple[Blocker, ...]:
    return tuple(Blocker(state, cp.id, cp.text) for cp in open_)
