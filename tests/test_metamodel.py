"""Meta-model invariants, kernel validation findings, and document I/O."""

from __future__ import annotations

from dataclasses import replace

import pytest

import genlib
from essencekit import (
    AlphaDefinition,
    AreaOfConcern,
    Checkpoint,
    KernelDefinition,
    KernelError,
    StateDefinition,
    WorkProductDefinition,
    builtin_se_kernel,
    dumps_kernel,
    find_alpha,
    kernel_from_doc,
    kernel_to_doc,
    loads_kernel,
    subalpha_closure,
    validate_kernel,
)
from essencekit.metamodel import AREA_NAMES


def state(name: str = "S0", checkpoint_ids: tuple[str, ...] = ("S0-1",)):
    return StateDefinition(
        name=name, summary=f"{name} summary",
        checkpoints=tuple(Checkpoint(id=c, text=f"criterion {c}") for c in checkpoint_ids))


def alpha(name: str, area: str = "Solution", subalphas: tuple[str, ...] = (),
          states: tuple[StateDefinition, ...] | None = None) -> AlphaDefinition:
    return AlphaDefinition(
        name=name, area=area,
        states=states if states is not None else (state(),),
        subalphas=subalphas)


def kernel_of(*alphas: AlphaDefinition,
              areas: tuple[str, ...] = AREA_NAMES,
              workproducts: tuple[WorkProductDefinition, ...] = ()):
    return KernelDefinition(
        name="test kernel",
        areas=tuple(AreaOfConcern(a) for a in areas),
        alphas=tuple(alphas),
        workproducts=workproducts)


def test_builtin_kernel_has_zero_findings():
    assert validate_kernel(builtin_se_kernel()).findings == ()


def test_duplicate_alpha_flagged():
    report = validate_kernel(kernel_of(alpha("Team"), alpha("Team")))
    assert "DUPLICATE_ALPHA" in report.codes()


def test_two_element_subalpha_cycle_flagged():
    report = validate_kernel(kernel_of(
        alpha("A", subalphas=("B",)), alpha("B", subalphas=("A",))))
    assert "SUBALPHA_CYCLE" in report.codes()


def test_self_cycle_flagged():
    report = validate_kernel(kernel_of(alpha("A", subalphas=("A",))))
    assert "SUBALPHA_CYCLE" in report.codes()


def test_unknown_area_flagged():
    report = validate_kernel(kernel_of(alpha("A", area="Marketing")))
    assert "UNKNOWN_AREA" in report.codes()


def test_invalid_area_name_flagged():
    report = validate_kernel(kernel_of(alpha("A"), areas=AREA_NAMES + ("Vendor",)))
    assert "INVALID_AREA" in report.codes()


def test_duplicate_area_flagged():
    report = validate_kernel(kernel_of(alpha("A"), areas=AREA_NAMES + ("Customer",)))
    assert "DUPLICATE_AREA" in report.codes()


def test_empty_states_flagged():
    report = validate_kernel(kernel_of(alpha("A", states=())))
    assert "EMPTY_STATES" in report.codes()


def test_duplicate_state_flagged():
    report = validate_kernel(kernel_of(
        alpha("A", states=(state("S0"), state("S0")))))
    assert "DUPLICATE_STATE" in report.codes()


def test_empty_checkpoints_flagged():
    bad = StateDefinition(name="S0", summary="s", checkpoints=())
    report = validate_kernel(kernel_of(alpha("A", states=(bad,))))
    assert "EMPTY_CHECKPOINTS" in report.codes()


def test_duplicate_checkpoint_id_flagged():
    report = validate_kernel(kernel_of(
        alpha("A", states=(state("S0", ("S0-1", "S0-1")),))))
    assert "DUPLICATE_CHECKPOINT" in report.codes()


def test_unknown_subalpha_flagged():
    report = validate_kernel(kernel_of(alpha("A", subalphas=("Ghost",))))
    assert "UNKNOWN_SUBALPHA" in report.codes()


def test_subalpha_with_two_parents_flagged():
    report = validate_kernel(kernel_of(
        alpha("A", subalphas=("C",)), alpha("B", subalphas=("C",)), alpha("C")))
    assert "SUBALPHA_MULTIPLE_PARENTS" in report.codes()


def test_workproduct_findings():
    report = validate_kernel(kernel_of(
        alpha("A"),
        workproducts=(
            WorkProductDefinition(name="Doc", evidences="Ghost"),
            WorkProductDefinition(name="Doc", evidences="A"),
        )))
    assert "UNKNOWN_EVIDENCED_ALPHA" in report.codes()
    assert "DUPLICATE_WORKPRODUCT" in report.codes()


def test_findings_carry_paths():
    report = validate_kernel(kernel_of(alpha("A"), alpha("A")))
    finding = next(f for f in report.findings if f.code == "DUPLICATE_ALPHA")
    assert finding.path == "alphas[1]"


def test_validate_kernel_is_pure():
    kernel = builtin_se_kernel()
    assert validate_kernel(kernel) == validate_kernel(kernel)


def test_find_alpha_exact_name_only():
    kernel = builtin_se_kernel()
    assert find_alpha(kernel, "System Realization").name == "System Realization"
    assert find_alpha(kernel, "Software System") is None
    assert find_alpha(kernel, "") is None
    assert find_alpha(kernel, "system realization") is None


def test_find_alpha_total_over_kernel():
    kernel = builtin_se_kernel()
    for a in kernel.alphas:
        assert find_alpha(kernel, a.name) is a


def test_closure_on_builtin_kernel():
    kernel = builtin_se_kernel()
    assert subalpha_closure(kernel, "System Definition") == [
        "Requirements", "Architecture", "Non-architectural Design"]
    assert subalpha_closure(kernel, "System Realization") == [
        "Components", "Modules", "Allocations"]
    assert subalpha_closure(kernel, "Team") == []


def test_closure_is_depth_first_and_duplicate_free():
    kernel = kernel_of(
        alpha("A", subalphas=("B", "D")),
        alpha("B", subalphas=("C",)),
        alpha("C"),
        alpha("D"))
    assert subalpha_closure(kernel, "A") == ["B", "C", "D"]


def test_long_subalpha_chain_walks_without_recursion():
    kernel = genlib.chain_kernel(2000)
    assert validate_kernel(kernel).ok
    assert subalpha_closure(kernel, "A0") == [f"A{i}" for i in range(1, 2000)]
    last = replace(kernel.alphas[-1], subalphas=("A0",))
    looped = replace(kernel, alphas=kernel.alphas[:-1] + (last,))
    report = validate_kernel(looped)
    assert report.codes() == ("SUBALPHA_CYCLE",)
    assert report.findings[0].path == "alphas[A0]"
    assert report.findings[0].message.endswith("A1998 -> A1999 -> A0")


def test_closure_unknown_alpha():
    with pytest.raises(KernelError) as err:
        subalpha_closure(builtin_se_kernel(), "Ghost")
    assert err.value.code == "UNKNOWN_ALPHA"


def test_closure_never_contains_root():
    kernel = builtin_se_kernel()
    for a in kernel.alphas:
        closure = subalpha_closure(kernel, a.name)
        assert a.name not in closure
        assert len(closure) == len(set(closure))


def test_doc_round_trip():
    kernel = builtin_se_kernel()
    assert kernel_from_doc(kernel_to_doc(kernel)) == kernel
    assert loads_kernel(dumps_kernel(kernel)) == kernel


def test_dumps_kernel_deterministic():
    assert dumps_kernel(builtin_se_kernel()) == dumps_kernel(builtin_se_kernel())
    assert dumps_kernel(builtin_se_kernel()).endswith("\n")


def test_loads_kernel_parse_error():
    with pytest.raises(KernelError) as err:
        loads_kernel("{not json")
    assert err.value.code == "PARSE_ERROR"
    with pytest.raises(KernelError) as err:
        loads_kernel(b"\xff\xfe\x00")
    assert err.value.code == "PARSE_ERROR"
    with pytest.raises(KernelError) as err:  # nesting beyond the decoder
        loads_kernel("[" * 5000 + "]" * 5000)
    assert err.value.code == "PARSE_ERROR"


def test_loads_kernel_schema_errors():
    with pytest.raises(KernelError) as err:
        loads_kernel('{"name": "k"}')
    assert err.value.code == "SCHEMA_ERROR"
    with pytest.raises(KernelError) as err:
        loads_kernel('{"name": "k", "areas": "Customer", "alphas": []}')
    assert err.value.code == "SCHEMA_ERROR"
    with pytest.raises(KernelError) as err:
        loads_kernel('{"name": 7, "areas": [], "alphas": []}')
    assert err.value.code == "SCHEMA_ERROR"
