import random

import pytest

from conftest import build_repertoire
from autodidact.codec import encode
from autodidact.meta import (
    M_E_APP,
    M_E_APPI,
    M_E_CLONE,
    M_E_MAP,
    M_E_TPL,
    M_E_TPLC,
    M_E_TPLW,
    M_MPUSH,
    M_RD_TASK,
    M_T_COPY,
    M_T_GRID,
    M_USTORE,
    M_V_DESC,
    META_ISA,
    MalformedEdit,
    MalformedTask,
    MetaContext,
    Meter,
    ScratchStore,
    decode_meta,
    run_meta,
    undo_storage,
    well_formed,
)
from autodidact.patterns import PATTERN_COUNT
from autodidact.validate import BudgetExhausted
from autodidact.vm import SolverProgram


def meta_bits(inventor, modifier, directives=()):
    return (
        encode(inventor, META_ISA)
        + encode(modifier, META_ISA)
        + encode(directives, META_ISA)
    )


def make_ctx(repertoire=(), solver=None, segments=(), external=None):
    return MetaContext(
        solver=solver or SolverProgram(),
        repertoire=list(repertoire),
        segments=list(segments),
        scratch=ScratchStore(),
        t_pattern=64,
        n_pattern=1024,
        t_grid=48,
        n_grid=1024,
        eps_wow=5,
        external_task=external,
    )


def run(inventor, modifier, directives=(), ctx=None, budget=10_000):
    bits = meta_bits(inventor, modifier, directives)
    meta = decode_meta(bits)
    return run_meta(*meta.parts, ctx or make_ctx(), Meter(budget))


def test_decode_meta_splits_three_parts():
    bits = meta_bits([(M_T_COPY, (0,))], [(M_E_TPL, (0,))], [(M_V_DESC, ())])
    meta = decode_meta(bits)
    assert [c for c, _ in meta.inventor] == [M_T_COPY]
    assert [c for c, _ in meta.modifier] == [M_E_TPL]
    assert [c for c, _ in meta.directives] == [M_V_DESC]
    assert meta.opcode_sequence.count(0) == 3


def test_grammar_requires_one_task_op_last():
    good = decode_meta(meta_bits([(M_T_COPY, (0,))], [(M_E_TPL, (0,))]))
    assert well_formed(good)
    no_task = decode_meta(meta_bits([(M_MPUSH, (1,))], [(M_E_TPL, (0,))]))
    assert not well_formed(no_task)
    no_edit = decode_meta(meta_bits([(M_T_COPY, (0,))], [(M_MPUSH, (1,))]))
    assert not well_formed(no_edit)


def test_grammar_domain_restrictions():
    grid = decode_meta(meta_bits([(M_T_GRID, (0,))], [(M_E_TPL, (2,))]))
    assert well_formed(grid, domain="mixed")
    assert well_formed(grid, domain="gridworld")
    assert not well_formed(grid, domain="pattern")
    pat = decode_meta(meta_bits([(M_T_COPY, (0,))], [(M_E_TPL, (0,))]))
    assert not well_formed(pat, domain="gridworld")


def test_grammar_external_mode_requires_empty_inventor():
    cand = decode_meta(meta_bits([], [(M_E_TPL, (0,))]))
    assert well_formed(cand, external=True)
    assert not well_formed(cand, external=False)
    with_task = decode_meta(meta_bits([(M_T_COPY, (0,))], [(M_E_TPL, (0,))]))
    assert not well_formed(with_task, external=True)


def test_out_of_range_pattern_address_is_malformed():
    with pytest.raises(MalformedTask):
        run([(M_T_COPY, (PATTERN_COUNT,))], [(M_E_TPL, (0,))])


def test_copy_proposal_builds_the_expected_task():
    proposal = run([(M_T_COPY, (3,))], [(M_E_TPL, (0,))])
    task = proposal.task
    assert task.kind == "pattern"
    assert task.i1 == 3 and task.i2 == task.o
    assert proposal.appended == 17  # the loop template
    assert proposal.append_start == 0


def test_duplicate_task_identity_is_malformed():
    first = run([(M_T_COPY, (0,))], [(M_E_TPL, (0,))])
    ctx = make_ctx()
    ctx.known_identities = frozenset({first.task.identity()})
    with pytest.raises(MalformedTask):
        run([(M_T_COPY, (0,))], [(M_E_TPL, (0,))], ctx=ctx)


def test_archive_reads_are_step_charged():
    rng = random.Random(1)
    solver, items, _usage = build_repertoire(rng, 2)
    ctx = make_ctx(items, solver)
    inventor = [(M_MPUSH, (1,)), (M_RD_TASK, ()), (M_T_COPY, (0,))]
    bits = meta_bits(inventor, [(M_E_TPL, (0,))])
    meter = Meter(10_000)
    run_meta(*decode_meta(bits).parts, ctx, meter)
    # three inventor ops, one extra read charge, one edit op
    assert meter.spent == 5


def test_budget_exhaustion_inside_the_inventor():
    with pytest.raises(BudgetExhausted):
        run([(M_MPUSH, (1,)), (M_MPUSH, (2,)), (M_T_COPY, (0,))], [(M_E_TPL, (0,))], budget=2)


def test_wide_templates_and_bad_parameters():
    proposal = run([(M_T_COPY, (3,))], [(M_E_TPLW, (0, 5))])
    assert proposal.appended == 19  # unrolled skip-5 copy
    with pytest.raises(MalformedEdit):
        run([(M_T_COPY, (3,))], [(M_E_TPLW, (1, 0))])
    with pytest.raises(MalformedEdit):
        run([(M_T_COPY, (3,))], [(M_E_TPLC, (0, 5))])  # width beyond nibble


def test_grid_template_requires_decision_task():
    with pytest.raises(MalformedEdit):
        run([(M_T_COPY, (0,))], [(M_E_TPL, (2,))])


def test_clone_copies_a_stored_segment_and_charges_reads():
    rng = random.Random(2)
    solver, items, _usage = build_repertoire(rng, 1)
    ctx = make_ctx(items, solver, segments=[(0, solver.component_count)])
    bits = meta_bits([(M_T_COPY, (0,))], [(M_E_CLONE, (0,))])
    meter = Meter(10_000)
    proposal = run_meta(*decode_meta(bits).parts, ctx, meter)
    assert proposal.appended == solver.component_count
    assert meter.spent == 2 + solver.component_count


def test_e_map_reuses_a_segment_and_suppresses_auto_entry():
    rng = random.Random(3)
    solver, items, _usage = build_repertoire(rng, 1)
    ctx = make_ctx(items, solver, segments=[(0, solver.component_count)])
    proposal = run(
        [(M_T_COPY, (0,))], [(M_E_MAP, (0,))], ctx=ctx
    )
    from autodidact.vm import SetEntry

    entries = [e for e in proposal.edits if isinstance(e, SetEntry)]
    assert entries == [SetEntry(proposal.task.identifier.to_hex(), 0)]


def test_append_ops_validate_aripity():
    with pytest.raises(MalformedEdit):
        run([(M_T_COPY, (0,))], [(M_E_APP, (1,))])  # PUSH needs E_APPI
    proposal = run([(M_T_COPY, (0,))], [(M_E_APPI, (1, 7)), (M_E_APP, (0,))])
    assert proposal.appended == 2
    assert proposal.edits[0].instruction == (2, (7,))
    assert proposal.edits[1].instruction == (1, ())


def test_external_phase_uses_the_given_task():
    from conftest import random_task

    task, _code = random_task(random.Random(4), set())
    ctx = make_ctx(external=task)
    proposal = run([], [(M_E_TPL, (0,))], ctx=ctx)
    assert proposal.task is task


def test_a_directive_is_billed_and_only_v_desc_is_one():
    # V_DESC costs one step and changes nothing else; any other op in the
    # third subprogram faults.
    inventor, modifier = [(M_T_COPY, (0,))], [(M_E_TPL, (0,))]
    plain, hinted = Meter(10_000), Meter(10_000)
    bare = run_meta(*decode_meta(meta_bits(inventor, modifier)).parts, make_ctx(), plain)
    desc = run_meta(
        *decode_meta(meta_bits(inventor, modifier, [(M_V_DESC, ())])).parts, make_ctx(), hinted
    )
    assert hinted.spent == plain.spent + 1
    assert (desc.task, desc.edits) == (bare.task, bare.edits)
    with pytest.raises(MalformedEdit, match="directive"):
        run(inventor, modifier, [(M_MPUSH, (1,))])


# -- scratch store and undo ---------------------------------------------------


def test_undo_noop_for_clean_candidate():
    store = ScratchStore()
    before = store.digest()
    assert undo_storage(store) == 0
    assert store.digest() == before


def test_undo_reverses_exactly_k_writes():
    store = ScratchStore()
    store.write(3, 17)
    store.write(3, 99)
    store.write(10, 4)
    assert len(store.journal) == 3
    assert undo_storage(store) == 3
    assert store.cells == [0] * len(store.cells)
    assert store.journal == []


def test_undo_restores_digest_over_many_random_candidates():
    rng = random.Random(8)
    store = ScratchStore()
    store.write(0, 42)
    store.journal.clear()  # pre-existing state, not part of any candidate
    baseline = store.digest()
    for _ in range(10_000):
        for _w in range(rng.randrange(0, 5)):
            store.write(rng.randrange(64), rng.randrange(1 << 16))
        undo_storage(store)
        assert store.journal == []
    assert store.digest() == baseline


def test_ustore_is_journaled_through_the_interpreter():
    ctx = make_ctx()
    inventor = [
        (M_MPUSH, (9,)),  # value
        (M_MPUSH, (2,)),  # address
        (M_USTORE, ()),
        (M_T_COPY, (0,)),
    ]
    bits = meta_bits(inventor, [(M_E_TPL, (0,))])
    run_meta(*decode_meta(bits).parts, ctx, Meter(100))
    assert ctx.scratch.cells[2] == 9
    assert len(ctx.scratch.journal) == 1
    undo_storage(ctx.scratch)
    assert ctx.scratch.cells[2] == 0
