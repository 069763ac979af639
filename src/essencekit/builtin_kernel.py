"""Built-in systems engineering kernel: 7 kernel alphas plus sub-alphas.

The two Solution-area alphas carry full state machines with their
checklists; checkpoint ids follow the scheme ``<state initials>-<ordinal>``
(first checkpoint of "Raw materials" is ``RM-1``). The Customer and
Endeavor alphas, and all sub-alphas, ship with a single "Unspecified"
placeholder state: the built-in kernel does not define checklists for
them, and the placeholder summary says so. Load a refined kernel document
to assess those alphas in earnest.
"""

from __future__ import annotations

from functools import lru_cache

from ._schema import Kind
from .errors import KernelError
from .metamodel import (
    AlphaDefinition,
    AreaOfConcern,
    Checkpoint,
    KernelDefinition,
    StateDefinition,
    WorkProductDefinition,
)

KERNEL_NAME = "Systems Engineering Essence Kernel"

PLACEHOLDER_STATE = "Unspecified"
PLACEHOLDER_SUMMARY = (
    "Placeholder: the built-in kernel defines no state table for this alpha."
)
PLACEHOLDER_CHECKPOINT = (
    "A kernel definition refining this alpha's states has been loaded."
)

# Each state is (name, checklist). The first checklist sentence doubles as
# the state summary: source tables present one checkpoint column per state
# and the leading sentence is its summary-level criterion.
SYSTEM_REALIZATION_STATES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("Raw materials", (
        "Raw materials for system realization are available and allow "
        "manufacturing of the parts with required properties.",
        "Facilities for manufacturing parts from the raw materials are available.",
        "Parts production and logistic schedule has been agreed.",
        "Parts manufacturing facilities are ready to start.",
    )),
    ("Parts", (
        "Parts have been produced and are ready for integration.",
        "Parts of the system have been produced and/or purchased and checked.",
        "Integration schedule has been agreed.",
        "Integration facilities are ready to start.",
    )),
    ("Demonstrable", (
        "The system has been assembled from the parts and is ready for testing.",
        "Some functions of the system can be exercised and key characteristics "
        "can be measured.",
        "Key system characteristics have been demonstrated.",
        "Critical interfaces have been demonstrated.",
        "The integration with other existing systems has been demonstrated.",
        "The relevant stakeholders agree that system has been tested.",
    )),
    ("Ready", (
        "The system (as a whole) has been accepted for deployment in a live "
        "environment.",
        "The functionality of the system has been tested.",
        "Level of defects is acceptable for the stakeholders.",
        "Setup and other user documentation is available.",
        "The stakeholder representatives accept the system as fit-for-purpose.",
        "Configuration of the system to be handed over to the stakeholders is known.",
        "The stakeholder representatives plan to make the system operational.",
        "The system is fully supported to the agreed service levels.",
    )),
    ("Operational", (
        "The system is in use in a live environment.",
        "The system has been made available to the stakeholders that intended "
        "to use it.",
        "At least one example of the system is fully operational.",
        "The system is fully supported to the agreed service levels.",
    )),
    ("Retired", (
        "The realized system is no longer supported and disposed and/or recycled.",
        "The system realization has been replaced or discontinued.",
        "The system is no longer supported.",
        "There are no “official” stakeholders who still use the system.",
        "Updates/ modifications to the system will no longer be produced.",
        "All material components of the system are re-used or have been "
        "properly disposed.",
    )),
)

SYSTEM_DEFINITION_STATES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("Conceived", (
        "It is clear how the system will be defined.",
        "It is clear what success is for the new system.",
        "Viewpoints are agreed upon.",
        "The approach to concord descriptions among the stakeholders has been agreed.",
        "The description of change management mechanisms have been agreed.",
    )),
    ("Consistent", (
        "Consistent System definition has been created.",
        "Descriptions are documented and available for the team and stakeholders.",
        "The origin of the description is clear.",
        "Descriptions are examined.",
        "Contradictory descriptions have been identified and are dealt with.",
        "The team understands descriptions and agrees to implement them.",
        "The system implementing the descriptions is accepted by the "
        "stakeholders as worth realizing.",
    )),
    ("Used for Production", (
        "System definition is used for system production.",
        "Enough of the descriptions are ready for starting system realization.",
        "Realization technologies have been defined.",
        "Those responsible for system realization part of the team acknowledges "
        "that available descriptions are sufficient to realize the system.",
        "Issues occurring during system realization lead to the re-work and "
        "actualization of the system definition.",
    )),
    ("Used for Verification", (
        "System definition is used for testing.",
        "There are no missed parts of the system definition that make testing "
        "impossible.",
        "Tests, success criteria and test methods have been defined.",
        "Stakeholders agree with test scope.",
    )),
    ("Used for Operation", (
        "System definition is used by stakeholders for operation.",
        "System definition is used for gathering information about state of the "
        "operational system realization.",
        "System definition is within the information about the state of the "
        "operational system and is used for making decisions about maintenance, "
        "repair, and modernization.",
    )),
    ("Used for Disposal", (
        "System definition is used for system disposal.",
        "System definition is used for making decisions about system disposal "
        "or operation extension.",
        "System definition shows absence of undesirable consequences "
        "(e.g. environment pollution) through system disposal.",
        "System definition is used for planning and performing disposal or "
        "recycling of the system realization.",
    )),
)


def state_initials(state_name: str) -> str:
    """Checkpoint id stem: first letter of each word, uppercased."""
    return "".join(word[0] for word in state_name.split()).upper()


def _state(name: str, checklist: tuple[str, ...]) -> StateDefinition:
    stem = state_initials(name)
    checkpoints = tuple(
        Checkpoint(id=f"{stem}-{i}", text=text)
        for i, text in enumerate(checklist, start=1)
    )
    return StateDefinition(name=name, summary=checklist[0], checkpoints=checkpoints)


def _placeholder_states() -> tuple[StateDefinition, ...]:
    stem = state_initials(PLACEHOLDER_STATE)
    return (StateDefinition(
        name=PLACEHOLDER_STATE,
        summary=PLACEHOLDER_SUMMARY,
        checkpoints=(Checkpoint(id=f"{stem}-1", text=PLACEHOLDER_CHECKPOINT),),
    ),)


def has_placeholder_states(alpha: AlphaDefinition) -> bool:
    """True when the alpha carries only the built-in placeholder state."""
    Kind(AlphaDefinition).check(alpha, "alpha", KernelError)
    return alpha.state_names == (PLACEHOLDER_STATE,)


@lru_cache(maxsize=1)
def builtin_se_kernel() -> KernelDefinition:
    """The shipped systems engineering kernel; deterministic constant."""
    placeholder = _placeholder_states()
    alphas = (
        # Kernel-level alphas, by area of concern.
        AlphaDefinition(
            name="Opportunity", area="Customer",
            description="The circumstances that make the endeavor worth undertaking.",
            states=placeholder,
            subalphas=("Stakeholder/User Needs",)),
        AlphaDefinition(
            name="Stakeholders", area="Customer",
            description="The parties that affect, use, or are affected by the system.",
            states=placeholder),
        AlphaDefinition(
            name="System Definition", area="Solution",
            description="The information side of the system: requirements, "
                        "architecture, and non-architectural design.",
            states=tuple(_state(n, c) for n, c in SYSTEM_DEFINITION_STATES),
            subalphas=("Requirements", "Architecture", "Non-architectural Design")),
        AlphaDefinition(
            name="System Realization", area="Solution",
            description="The realized system itself, existing in space and time "
                        "as components, modules, and allocations.",
            states=tuple(_state(n, c) for n, c in SYSTEM_REALIZATION_STATES),
            subalphas=("Components", "Modules", "Allocations")),
        AlphaDefinition(
            name="Team", area="Endeavor",
            description="The group of people carrying out the endeavor.",
            states=placeholder),
        AlphaDefinition(
            name="Work", area="Endeavor",
            description="Everything the team does to produce and sustain the system.",
            states=placeholder),
        AlphaDefinition(
            name="Way of Working", area="Endeavor",
            description="The practices and tools the team uses to conduct its work.",
            states=placeholder,
            subalphas=("Viewpoint",)),
        # Sub-alphas, grouped under their parents.
        AlphaDefinition(
            name="Stakeholder/User Needs", area="Customer",
            description="What the using system must provide for its stakeholders; "
                        "the yardstick of validation.",
            states=placeholder),
        AlphaDefinition(
            name="Requirements", area="Solution",
            description="The black-box definition of the system of interest; "
                        "the yardstick of verification.",
            states=placeholder),
        AlphaDefinition(
            name="Architecture", area="Solution",
            description="The essential engineering decisions; changing them forces "
                        "a near-complete redesign.",
            states=placeholder),
        AlphaDefinition(
            name="Non-architectural Design", area="Solution",
            description="The large remainder of design decisions that can change "
                        "without major redesign.",
            states=placeholder),
        AlphaDefinition(
            name="Components", area="Solution",
            description="The functional-aspect breakdown of the realization.",
            states=placeholder),
        AlphaDefinition(
            name="Modules", area="Solution",
            description="The product-aspect breakdown of the realization.",
            states=placeholder),
        AlphaDefinition(
            name="Allocations", area="Solution",
            description="The location-aspect breakdown of the realization.",
            states=placeholder),
        AlphaDefinition(
            name="Viewpoint", area="Endeavor",
            description="A reusable way of description that governs how views "
                        "are produced and read.",
            states=placeholder),
    )
    workproducts = (
        WorkProductDefinition("System Description", evidences="System Definition"),
        WorkProductDefinition("Requirements Specification", evidences="Requirements"),
        WorkProductDefinition("Architecture Description", evidences="Architecture"),
        WorkProductDefinition("Production Program", evidences="Non-architectural Design",
                              kind="machine program"),
        WorkProductDefinition("Test Report", evidences="System Realization"),
    )
    return KernelDefinition(
        name=KERNEL_NAME,
        areas=tuple(AreaOfConcern(n) for n in ("Customer", "Solution", "Endeavor")),
        alphas=alphas,
        workproducts=workproducts,
    )
