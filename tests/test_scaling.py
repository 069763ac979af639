"""Loading and saving grow linearly with the document; resolving, with
the matches.

Every test times an operation on a small input and on one four times
its size, in five rounds that each time the small input and then the
large one, and compares each side's fastest time: a slow spell of the
host then slows both sides of a round, and one stall costs one sample.

The records and model tests time load_project on a document and on
one four times its size: records, records whose last one names an
unknown checkpoint, which are read again one at a time to place the
refusal, a model of many small coextension classes, and a model of one
class of all its elements, unbound or bound to one node. The kernel test times load_project plus a state
card of every instance on a project with an inline kernel of 1000
alphas and on one with 4000. The tree tests time save_project on a
project with a tree of 16 000 nodes and on one with a tree four times
its size, and load_project on their saved documents. The save tests
time save_project on the loaded records and model documents of 4800
and 19 200 records or elements. The batch test gives an assessment's
constructor the 1200 and 4800 loaded records in one batch, each record
followed by one superseding it. Linear work costs about 4x, quadratic
about 16x; the bound of 8x sits between them.
The resolve test times 200 resolves of the same chain, with the same
matches, on a tree and on one four times its size: it must cost under
2x, where a scan of every path costs about 4x. No absolute time is
checked, so the tests hold on slow or busy machines.
"""

from __future__ import annotations

import json
from dataclasses import replace
from itertools import chain
from time import perf_counter

import pytest

from essencekit import (
    Aspect,
    AspectChain,
    Assessment,
    BreakdownNode,
    BreakdownTree,
    ProjectError,
    builtin_se_kernel,
    load_project,
    new_project,
    render_card,
    resolve,
    save_project,
)

N = 1200
BOUND = 8


def records_document(n: int) -> str:
    """n records over instances of the builtin alphas, 8 per instance."""
    keys = {
        alpha.name: [(s.name, cp.id) for s in alpha.states
                     for cp in s.checkpoints][:8]
        for alpha in builtin_se_kernel().alphas
    }
    alphas = [name for name in keys if len(keys[name]) == 8]
    instances, records = [], []
    for i in range(n // 8):
        alpha = alphas[i % len(alphas)]
        instances.append({"id": f"i{i}", "alpha": alpha})
        for state, cp in keys[alpha]:
            records.append({"alpha-instance": f"i{i}", "state": state,
                            "checkpoint": cp, "satisfied": True})
    return json.dumps({"format-version": 1, "project-id": "p", "assessment": {
        "instances": instances, "records": records}})


def model_document(n: int) -> str:
    """n extended elements in classes of four, half the classes bound."""
    elements = [{"id": f"e{i}", "has-extent": True} for i in range(n)]
    nodes = [{"id": f"n{i}"} for i in range(0, n, 4)]
    classes = [[f"e{j}" for j in range(i, min(i + 4, n))]
               for i in range(0, n, 4)]
    bindings = [[f"e{i}", f"n{i}"] for i in range(0, n, 8)]
    return json.dumps({"format-version": 1, "project-id": "p", "description": {
        "elements": elements, "realization-nodes": nodes,
        "coextension": classes, "bindings": bindings}})


def best_of_rounds(op, *values) -> list[float]:
    """The best of five calls of op on each value. Each round calls it
    on every value in turn, so a slow spell of the host hits all."""
    best = [float("inf")] * len(values)
    for _ in range(5):
        for i, value in enumerate(values):
            start = perf_counter()
            op(value)
            best[i] = min(best[i], perf_counter() - start)
    return best


def assert_linear(op, small, large) -> None:
    small_seconds, large_seconds = best_of_rounds(op, small, large)
    assert large_seconds < BOUND * small_seconds


def test_loading_records_is_linear():
    small, large = records_document(N), records_document(4 * N)
    assert len(load_project(large).assessment.records) == 4 * N
    assert_linear(load_project, small, large)


def record_batch(a) -> Assessment:
    """``a``'s records given again as one batch to an assessment with
    none, each followed by its undoing, which supersedes it in place."""
    batch = [(rec, replace(rec, satisfied=False)) for rec in a.records]
    return replace(a, records=tuple(chain.from_iterable(batch)))


def test_a_batch_of_records_is_linear():
    small, large = (load_project(records_document(k)).assessment
                    for k in (N, 4 * N))
    assert record_batch(large).records == tuple(
        replace(rec, satisfied=False) for rec in large.records)
    assert_linear(record_batch, small, large)


def unknown_checkpoint_last(n: int) -> str:
    """records_document(n) whose last record names an unknown checkpoint."""
    doc = json.loads(records_document(n))
    doc["assessment"]["records"][-1]["checkpoint"] = "ZZ-9"
    return json.dumps(doc)


def refusal(blob: str) -> ProjectError:
    with pytest.raises(ProjectError) as err:
        load_project(blob)
    return err.value


def test_refusing_the_last_record_is_linear():
    # The columns pass their class tests and the bulk reference check
    # fails, so the records are read again one at a time.
    small, large = unknown_checkpoint_last(N), unknown_checkpoint_last(4 * N)
    err = refusal(large)
    assert (err.path, err.message.split(":")[0]) == (
        f"assessment.records[{4 * N - 1}]", "UNKNOWN_CHECKPOINT")
    assert_linear(refusal, small, large)


def test_loading_a_description_model_is_linear():
    small, large = model_document(N), model_document(4 * N)
    assert len(load_project(large).description.bindings) == 2 * N
    assert_linear(load_project, small, large)


def kernel_document(n: int) -> str:
    """An inline kernel of n alphas, each with one state of four
    checkpoints, an instance of each alpha, and every checkpoint recorded."""
    alphas, instances, records = [], [], []
    for i in range(n):
        checkpoints = [{"id": f"C{k}", "text": "done"} for k in range(4)]
        alphas.append({"name": f"A{i}", "area": "Solution",
                       "states": [{"name": "S", "checkpoints": checkpoints}]})
        instances.append({"id": f"i{i}", "alpha": f"A{i}"})
        records.extend({"alpha-instance": f"i{i}", "state": "S",
                        "checkpoint": f"C{k}", "satisfied": True}
                       for k in range(4))
    kernel = {"name": "custom", "areas": ["Customer", "Solution", "Endeavor"],
              "alphas": alphas}
    return json.dumps({"format-version": 1, "project-id": "p", "kernel": kernel,
                       "assessment": {"instances": instances, "records": records}})


def load_and_cards(blob: str) -> None:
    a = load_project(blob).assessment
    for inst in a.instances:
        render_card(a, inst.id)


def test_a_custom_kernel_loads_and_renders_in_linear_time():
    n = 1000
    small, large = kernel_document(n), kernel_document(4 * n)
    a = load_project(large).assessment
    assert len(a.kernel.alphas) == len(a.instances) == 4 * n
    assert render_card(a, f"i{4 * n - 1}").endswith("Achieved: S")
    assert_linear(load_and_cards, small, large)


def one_class_document(n: int, bound: bool) -> str:
    """n extended elements in one coextension class; when bound, the
    class is bound to one node with a binding per member, as saved."""
    ids = [f"e{i}" for i in range(n)]
    return json.dumps({"format-version": 1, "project-id": "p", "description": {
        "elements": [{"id": e, "has-extent": True} for e in ids],
        "realization-nodes": [{"id": "n0"}],
        "coextension": [ids],
        "bindings": [[e, "n0"] for e in ids] if bound else []}})


@pytest.mark.parametrize("bound", [False, True], ids=["unbound", "bound"])
def test_loading_one_large_coextension_class_is_linear(bound):
    small, large = one_class_document(N, bound), one_class_document(4 * N, bound)
    model = load_project(large).description
    assert len(model.coextension) == 1
    assert len(model.bindings) == (4 * N if bound else 0)
    assert_linear(load_project, small, large)


def filler_tree(n: int) -> BreakdownTree:
    """About n nodes: 16 roots, each with a chain A<r> / X and n / 16
    filler leaves. The chain ``-X`` matches 16 nodes, whatever n is."""
    per_root = n // 16
    roots = tuple(
        BreakdownNode(f"R{r}", (BreakdownNode(f"A{r}", (BreakdownNode("X"),)),)
                      + tuple(BreakdownNode(f"F{j}") for j in range(per_root)))
        for r in range(16))
    return BreakdownTree(aspect=Aspect.PRODUCT, roots=roots)


def test_resolve_cost_follows_matches_not_tree_size():
    n = 4000
    small, large = filler_tree(n), filler_tree(4 * n)
    chain = AspectChain(Aspect.PRODUCT, ("X",))
    assert len(resolve(small, chain)) == len(resolve(large, chain)) == 16
    assert len(large.paths()) > 4 * n

    def resolve_200(tree: BreakdownTree) -> None:
        for _ in range(200):
            resolve(tree, chain)

    small_seconds, large_seconds = best_of_rounds(resolve_200, small, large)
    assert large_seconds < 2 * small_seconds


def test_saving_a_tree_is_linear():
    # Large enough that no save is short next to a scheduler time slice.
    n = 16000
    small, large = (replace(new_project("p"), trees=(filler_tree(k),))
                    for k in (n, 4 * n))
    assert load_project(save_project(large)).trees == (filler_tree(4 * n),)
    assert_linear(save_project, small, large)


def test_loading_a_tree_is_linear():
    n = 16000
    small, large = (
        save_project(replace(new_project("p"), trees=(filler_tree(k),)))
        for k in (n, 4 * n))
    assert load_project(large).trees == (filler_tree(4 * n),)
    assert_linear(load_project, small, large)


@pytest.mark.parametrize("document", [records_document, model_document],
                         ids=["records", "elements"])
def test_saving_entry_lists_is_linear(document):
    # Large enough that no save is short next to a scheduler time slice.
    n = 4 * N
    small, large = (load_project(document(k)) for k in (n, 4 * n))
    assert load_project(save_project(large)) == large
    assert_linear(save_project, small, large)
