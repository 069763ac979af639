"""Values built from one another keep answering for themselves.

Assessments and description models share their keyed indices with the
values built from them. These tests grow trees of values by random
operations on random earlier values, and check every value against a
plain list kept beside it.
"""

from __future__ import annotations

import copy
import pickle
import random
import sys
import threading
from dataclasses import replace

from essencekit import (
    AlphaInstance,
    Assessment,
    CheckpointRecord,
    DescriptionModel,
    ViewElement,
    add_element,
    add_instance,
    alpha_state,
    builtin_se_kernel,
    find_alpha,
    record_checkpoint,
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


def test_values_pickle_and_copy_as_their_tuples():
    a = base_assessment()
    for key in KEYS[:5]:
        a = record_checkpoint(a, CheckpointRecord(*key, True))
    for clone in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
        assert clone == a
        assert clone.records == a.records
        assert alpha_state(clone, "i0") == alpha_state(a, "i0")


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
