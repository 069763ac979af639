"""essencekit: a method-engineering kernel engine and model validator.

The package ships a systems engineering kernel (alphas, states,
checkpoints), computes alpha states from checkpoint records, parses and
resolves multi-aspect reference designations, validates document
designation codes, and checks description models for architecture
viability, endeavor coverage, and 4D coextension consistency. Projects
persist as single deterministic JSON documents; the ``essencekit``
command exposes everything for batch use.

Each public name is imported from its module on first use (PEP 562), so
a caller of one module, such as ``essencekit.designation``, loads only
what that module imports.
"""

from importlib import import_module as _import_module

_PUBLIC = {
    "builtin_kernel": (
        "PLACEHOLDER_STATE", "builtin_se_kernel", "has_placeholder_states"),
    "description": (
        "ArchitectureReport", "DescriptionKind", "DescriptionModel",
        "RealizationNode", "StructureType", "View", "ViewElement",
        "Viewpoint", "add_element", "add_realization_node", "add_view",
        "add_viewpoint", "assert_coextension", "bind_designator",
        "bind_element", "coextension_class", "endeavor_viewpoint_lint",
        "viable_architecture"),
    "designation": (
        "BUILTIN_DCC_TABLE", "Aspect", "AspectChain", "BreakdownNode",
        "BreakdownTree", "ChainResolution", "DccTable", "DocumentDesignation",
        "MultiAspectDesignation", "UnambiguityReport",
        "check_at_least_one_unambiguous", "format_designation",
        "format_document_designation", "loads_dcc_table", "parse_designation",
        "parse_document_designation", "resolve"),
    "engine": (
        "AlphaInstance", "Assessment", "Blocker", "CheckpointRecord",
        "StateResult", "SystemLevel", "WorkProductInstance", "add_instance",
        "add_work_product", "alpha_state", "blocking_checkpoints",
        "record_checkpoint", "render_card"),
    "errors": (
        "AssessmentError", "DesignationError", "EssenceError", "KernelError",
        "ModelError", "ProjectError"),
    "metamodel": (
        "AlphaDefinition", "AreaOfConcern", "Checkpoint", "Finding",
        "KernelDefinition", "StateDefinition", "ValidationReport",
        "WorkProductDefinition", "dumps_kernel", "find_alpha",
        "kernel_from_doc", "kernel_to_doc", "loads_kernel",
        "subalpha_closure", "validate_kernel"),
    "store": ("Project", "load_project", "new_project", "save_project"),
}
# Each public name, with the module that defines it.
_MODULE_OF = {name: module for module, names in _PUBLIC.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
