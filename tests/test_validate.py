import random

import pytest

from conftest import build_repertoire, install_segment, random_edit, random_task
from autodidact.bits import nibble
from autodidact.tasks import solves
from autodidact.validate import (
    BudgetExhausted,
    preservation_run,
    demonstrate,
    full_revalidation,
    rebuild_usage,
    revalidate_set,
    update_usage,
)
from autodidact.vm import Changed, SetEntry, SetSlot, apply_modification

BIG = 10**9


def full_verdict(q, s_prev, task, repertoire):
    """The naive oracle for the whole acceptance obligation."""
    prev, _ = solves(s_prev, task)
    new, _ = solves(q, task)
    return (not prev.success) and new.success and full_revalidation(q, repertoire)


def fresh_task(rng, items):
    return random_task(rng, {i.entry_key for i in items})


def test_identical_candidate_is_rejected():
    rng = random.Random(0)
    solver, items, usage = build_repertoire(rng, 2)
    task, _ = fresh_task(rng, items)
    report = demonstrate(solver, solver, task, items, usage, Changed(), BIG)
    assert not report.accepted  # novel and solves_new cannot both hold


def test_untouched_components_mean_no_revalidation():
    rng = random.Random(1)
    solver, items, usage = build_repertoire(rng, 3)
    task, code = fresh_task(rng, items)
    q, changed = install_segment(solver, code, task.identifier.to_hex())
    assert revalidate_set(usage, changed) == set()
    report = demonstrate(q, solver, task, items, usage, changed, BIG)
    assert report.accepted
    assert report.revalidated_tasks == ()
    assert report.preserved


def test_touched_components_force_exactly_their_tasks():
    rng = random.Random(2)
    solver, items, usage = build_repertoire(rng, 4)
    victim = items[1]
    slot = sorted(usage.rows[victim.index][0])[0] - 1
    q, changed = apply_modification(solver, [SetSlot(slot, (1, ()))])  # HALT it
    todo = revalidate_set(usage, changed)
    assert victim.index in todo
    # Verdict must match the full-revalidation oracle either way.
    task, _ = fresh_task(rng, items)
    report = demonstrate(q, solver, task, items, usage, changed, BIG)
    assert report.accepted == full_verdict(q, solver, task, items)


def test_entry_reroute_forces_that_task():
    rng = random.Random(3)
    solver, items, usage = build_repertoire(rng, 3)
    victim = items[0]
    q, changed = apply_modification(solver, [SetEntry(victim.entry_key, 0)])
    if changed.entry_keys:
        assert victim.index in revalidate_set(usage, changed)


def test_revalidate_set_is_a_plain_union():
    rng = random.Random(4)
    _solver, _items, usage = build_repertoire(rng, 4)
    usage.by_component[3] = {1}
    usage.by_component[5] = {1, 4}
    got = revalidate_set(usage, Changed(slots=frozenset({3, 5})))
    assert got == {1, 4}
    assert revalidate_set(usage, Changed()) == set()


def test_update_usage_first_task():
    from autodidact.validate import UsageIndex

    usage = UsageIndex()
    update_usage(usage, {1: (frozenset({1, 2}), "9:0000")})
    assert usage.by_component == {1: {1}, 2: {1}}
    assert usage.by_entry == {"9:0000": {1}}


def test_update_usage_drops_stale_components():
    from autodidact.validate import UsageIndex

    usage = UsageIndex()
    update_usage(usage, {2: (frozenset({5, 6}), "k")})
    update_usage(usage, {2: (frozenset({6}), "k")})
    assert 5 not in usage.by_component
    assert usage.by_component[6] == {2}


def test_usage_records_equal_an_index_of_each_tasks_last_usage():
    # However often tasks are refreshed, rerouted or moved between slots,
    # the index equals one built afresh from each task's last usage.
    from autodidact.validate import UsageIndex

    rng = random.Random(8)
    usage, last = UsageIndex(), {}
    for _ in range(400):
        task = rng.randrange(1, 9)
        components = frozenset(rng.sample(range(1, 13), rng.randrange(0, 5)))
        key = rng.choice(["a", "b", "c"])
        usage.record(task, components, key)
        last[task] = (components, key)
        fresh = UsageIndex()
        for t, (comps, k) in last.items():
            fresh.record(t, comps, k)
        assert usage.by_component == fresh.by_component  # no empty rows left either
        assert usage.by_entry == fresh.by_entry


def test_incremental_index_equals_rebuild_oracle():
    rng = random.Random(5)
    solver, items, usage = build_repertoire(rng, 5)
    assert usage == rebuild_usage(solver, items)[0]


def test_budget_exhaustion_rejects_rather_than_accepts():
    rng = random.Random(6)
    solver, items, usage = build_repertoire(rng, 2)
    task, code = fresh_task(rng, items)
    q, changed = install_segment(solver, code, task.identifier.to_hex())
    with pytest.raises(BudgetExhausted):
        demonstrate(q, solver, task, items, usage, changed, budget=3)


def test_paranoid_mode_runs_the_oracle_inline():
    rng = random.Random(7)
    solver, items, usage = build_repertoire(rng, 2)
    task, code = fresh_task(rng, items)
    q, changed = install_segment(solver, code, task.identifier.to_hex())
    report = demonstrate(q, solver, task, items, usage, changed, BIG, paranoid=True)
    assert report.accepted


def test_incremental_equals_full_randomized():
    # A smaller in-module version of the acceptance property: random
    # (solver, edit, repertoire) triples, incremental verdict == naive oracle.
    rng = random.Random(99)
    agree = 0
    for trial in range(150):
        solver, items, usage = build_repertoire(rng, rng.randrange(1, 4))
        edits = random_edit(rng, solver, items)
        try:
            q, changed = apply_modification(solver, edits)
        except Exception:
            continue
        task, _code = fresh_task(rng, items)
        report = demonstrate(q, solver, task, items, usage, changed, BIG)
        assert report.accepted == full_verdict(q, solver, task, items)
        agree += 1
    assert agree > 100  # most random edits must actually apply


def test_monotone_repertoire_after_acceptance():
    # Variant I shape: after acceptance, the new solver still passes every task.
    rng = random.Random(8)
    solver, items, usage = build_repertoire(rng, 3)
    task, code = fresh_task(rng, items)
    q, changed = install_segment(solver, code, task.identifier.to_hex())
    report = demonstrate(q, solver, task, items, usage, changed, BIG)
    assert report.accepted
    for item in items:
        rep, _ = preservation_run(q, item)
        assert rep.success


def test_demonstrate_charges_validation_steps():
    rng = random.Random(9)
    solver, items, usage = build_repertoire(rng, 2)
    task, code = fresh_task(rng, items)
    q, changed = install_segment(solver, code, task.identifier.to_hex())
    report = demonstrate(q, solver, task, items, usage, changed, BIG)
    assert report.steps_spent > 0
