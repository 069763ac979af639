"""A batch of entries given to a container's constructor, as in
``dataclasses.replace(a, records=a.records + batch)``, is the fold of
the single operations over them: the same value, records in the same
positions, and the same first refusal, which names the entry.

The inputs are ``genlib.random_project`` documents, clean and with a
bad entry planted by ``genlib.mutate_document``; ``genlib.fold_lists``
is the fold, in the order the constructors take the lists.
"""

from __future__ import annotations

import json
import random
from dataclasses import replace

import pytest

import genlib
from essencekit import (
    AlphaInstance,
    AssessmentError,
    CheckpointRecord,
    DescriptionModel,
    EssenceError,
    ModelError,
    RealizationNode,
    View,
    ViewElement,
    Viewpoint,
    WorkProductInstance,
    new_project,
    save_project,
)


def outcome(make):
    """What ``make()`` makes, or its refusal's class, code, message and path."""
    try:
        return make()
    except EssenceError as exc:
        return type(exc), exc.code, exc.message, exc.path


def constructed(value, lists: dict):
    """``value`` with ``lists`` in place of its lists, through the
    constructor: a coextension class as a set of ids, as a model holds it."""
    fields = {field: tuple(items) for field, items in lists.items()}
    if "coextension" in fields:
        fields["coextension"] = frozenset(map(frozenset, fields["coextension"]))
    return replace(value, **fields)


def cases(seed: int, count: int):
    """Each project's empty assessment and model, with the document's
    lists for each, a coextension class sorted as a file holds it and a
    binding a pair, as a model holds it; every other document has one bad
    entry planted."""
    rng = random.Random(seed)
    for i in range(count):
        p = genlib.random_project(rng)
        doc = json.loads(save_project(p))
        if i % 2:
            genlib.mutate_document(rng, doc)
        lists = genlib.document_lists(doc)
        lists["description"]["coextension"] = sorted(
            map(sorted, {frozenset(cls) for cls in lists["description"]["coextension"]}))
        lists["description"]["bindings"] = list(map(tuple, lists["description"]["bindings"]))
        yield (rng, (replace(p.assessment, instances=(), work_products=(), records=()),
                     lists["assessment"]),
               (DescriptionModel(), lists["description"]))


def test_a_container_made_whole_is_the_fold_of_its_entries():
    refused = 0
    for _, *containers in cases(4101, 150):
        for empty, lists in containers:
            expected = outcome(lambda: genlib.fold_lists(empty, lists))
            assert outcome(lambda: constructed(empty, lists)) == expected
            refused += isinstance(expected, tuple)
    assert 40 < refused < 150


def test_a_batch_on_one_list_is_the_fold_of_its_single_operations():
    """The value holds every list before the batch's in full and the
    batch's list up to a random cut; the lists after it are empty, as a
    batch on a list is re-checked with the lists the constructor takes
    after it. The batch is on the list that holds the planted entry, if
    the constructor refuses one, else on a random list."""
    batches = refused = 0
    for rng, *containers in cases(4102, 150):
        for empty, lists in containers:
            order = [field for field, _ in genlib.FOLDS[type(empty)]]
            whole = outcome(lambda: constructed(empty, lists))
            field = (whole[3].split("[")[0] if isinstance(whole, tuple)
                     else rng.choice(order))
            cut = rng.randint(0, len(lists[field]))
            head = {f: lists[f] for f in order[:order.index(field)]}
            base = outcome(lambda: constructed(empty, {**head, field: lists[field][:cut]}))
            if isinstance(base, tuple):
                continue
            batch = lists[field][cut:]
            expected = outcome(lambda: genlib.fold_lists(base, {field: batch}))
            got = outcome(lambda: constructed(base, {field: [
                *(map(sorted, base.coextension) if field == "coextension"
                  else getattr(base, field)), *batch]}))
            if isinstance(expected, tuple):  # the paths count from the batch
                assert got[:3] == expected[:3]
                refused += 1
            else:
                assert got == expected
            batches += 1
    assert batches > 200 and refused > 20


def test_a_superseding_record_keeps_its_position():
    a = new_project("p").assessment
    a = replace(a, instances=(AlphaInstance("i", "System Realization"),))
    first, second = (CheckpointRecord("i", "Raw materials", cp, True)
                     for cp in ("RM-1", "RM-2"))
    undone = replace(first, satisfied=False)
    batch = replace(a, records=(first, second, undone))
    assert batch.records == (undone, second)
    assert batch == genlib.fold_lists(a, {"records": [first, second, undone]})


@pytest.mark.parametrize("make, error, code, path", [
    (lambda a, m: replace(a, instances=(AlphaInstance("i", "Team"),) * 2),
     AssessmentError, "DUPLICATE_INSTANCE", "instances[1]"),
    (lambda a, m: replace(a, work_products=(WorkProductInstance("w", "Ghost"),)),
     AssessmentError, "UNKNOWN_DEFINITION", "work_products[0]"),
    (lambda a, m: replace(a, records=(CheckpointRecord("i", "Parts", "ZZ-9", True),)),
     AssessmentError, "UNKNOWN_CHECKPOINT", "records[0]"),
    (lambda a, m: replace(m, viewpoints=m.viewpoints * 2),
     ModelError, "DUPLICATE_NAME", "viewpoints[1]"),
    (lambda a, m: replace(m, views=(View("v", "vp", ("e1", "ghost")),)),
     ModelError, "UNKNOWN_REFERENCE", "views[0]"),
    (lambda a, m: replace(m, elements=m.elements + (ViewElement("e1"),)),
     ModelError, "DUPLICATE_NAME", "elements[3]"),
    (lambda a, m: replace(m, realization_nodes=m.realization_nodes * 2),
     ModelError, "DUPLICATE_NAME", "realization_nodes[2]"),
    (lambda a, m: replace(m, coextension=frozenset({frozenset({"e1", "e3"})})),
     ModelError, "NO_EXTENT", "coextension[0]"),
    (lambda a, m: replace(m, bindings=(("e1", "n1"), ("e2", "n2"))),
     ModelError, "BINDING_CONFLICT", "bindings[1]"),
], ids=["instances", "work_products", "records", "viewpoints", "views",
        "elements", "realization_nodes", "coextension", "bindings"])
def test_a_constructor_names_the_entry_it_refuses(make, error, code, path):
    a = new_project("p").assessment
    a = replace(a, instances=(AlphaInstance("i", "System Realization"),))
    m = DescriptionModel(
        viewpoints=(Viewpoint("vp"),),
        elements=(ViewElement("e1", has_extent=True),
                  ViewElement("e2", has_extent=True), ViewElement("e3")),
        realization_nodes=(RealizationNode("n1"), RealizationNode("n2")),
        coextension=frozenset({frozenset({"e1", "e2"})}))
    with pytest.raises(error) as err:
        make(a, m)
    assert (err.value.code, err.value.path) == (code, path)
    assert str(err.value).endswith(f"(at {path})")
