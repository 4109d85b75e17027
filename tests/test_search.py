import hashlib
import random
from bisect import bisect_left
from dataclasses import replace
from fractions import Fraction
from typing import Optional

import pytest

from autodidact.bits import BitString, nibble
from autodidact.candidates import static_record
from autodidact.codec import encode
from autodidact import candidates, search
from autodidact.config import RunConfig
from autodidact.engine import Engine
from autodidact.meta import (
    M_E_TPL,
    M_T_CONST,
    M_T_COPY,
    M_T_GRID,
    META_ISA,
    MetaContext,
    MetaProgram,
    Meter,
    Proposal,
    ScratchStore,
    decode_meta,
    invent_task,
    program,
    run_meta,
    undo_storage,
    well_formed,
)
from autodidact.prior import Prior
from autodidact.search import (
    EXTERNAL_KEY,
    BoundaryVerdicts,
    SearchCeilingReached,
    SearchProblem,
    candidate_space,
    ceil_fraction,
    max_affordable_bits,
    missing_segment,
    oops_search,
    segment_at,
    static_verdict,
    stochastic_search,
)
from autodidact.tasks import FAULTED, PatternTask, least_grant, report_within
from autodidact.templates import copy_query_loop, grid_walk
from autodidact.validate import BudgetExhausted, RepertoireItem
from autodidact.vm import Append, SetEntry, SolverProgram, apply_modification

from conftest import execute, install_segment
from reference_buckets import ReferenceBuckets


def spy_on_candidates(monkeypatch, spy):
    """Route every search.try_candidate call through one spy.

    The spy is called as spy(meta, problem, budget, caches, run): ``meta``
    is the candidate's MetaProgram, run() makes the call itself, and
    run(budget, caches) runs the candidate afresh under another budget and
    tables.  Each returns (record, acceptance).
    """
    real = search.try_candidate

    def patched(entry, total, problem, budget, caches=None, keep=None):
        def run(*other):
            if other:
                return real(entry, total, problem, *other)
            return real(entry, total, problem, budget, caches, keep)

        return spy(program(entry, total), problem, budget, caches, run)

    monkeypatch.setattr(search, "try_candidate", patched)


def segment_verdict(rec, modifier, segments):
    """(verdict, steps, reason) of a segment verdict, as the scheduler decides one."""
    at = segment_at(rec)
    reason = None if at is None else missing_segment(modifier, at, segments)
    return None if reason is None else ("rejected", rec.certain, reason)


def make_ctx():
    return MetaContext(
        solver=SolverProgram(),
        repertoire=[],
        segments=[],
        scratch=ScratchStore(),
        t_pattern=64,
        n_pattern=1024,
        t_grid=48,
        n_grid=1024,
        eps_wow=5,
    )


def planted_problem(needed_steps: int, ctx=None):
    """A judge accepting exactly one known candidate if it can afford
    needed_steps of extra validation work."""
    target = decode_meta(
        encode([(M_T_COPY, (0,))], META_ISA)
        + encode([(M_E_TPL, (0,))], META_ISA)
        + encode([], META_ISA)
    )

    def judge(q, changed, proposal, meter, caches):
        meter.charge(needed_steps)
        if getattr(proposal.task, "i1", None) == 0 and proposal.appended == 17:
            return {"winner": True}
        return None

    return target, SearchProblem(ctx=ctx or make_ctx(), prior=Prior(META_ISA), judge=judge)


def test_budget_arithmetic_fail_then_succeed():
    # A candidate needing 9 steps with P(p) = 1/8 cannot finish with budget
    # ceil(1/8 * 64) = 8 but can with ceil(1/8 * 128) = 16.
    p = Fraction(1, 8)
    assert ceil_fraction(p * 64) == 8 < 9 <= ceil_fraction(p * 128)


def test_ceil_fraction():
    assert ceil_fraction(Fraction(7, 2)) == 4
    assert ceil_fraction(Fraction(4, 2)) == 2
    assert ceil_fraction(Fraction(1, 1000)) == 1


def test_oops_finds_the_planted_candidate_with_doubling_trace():
    target, problem = planted_problem(needed_steps=40)
    acc, stats = oops_search(problem, step_ceiling=2**60)
    assert acc.details == {"winner": True}
    assert acc.meta.code == target.code
    # t_lim trace is exactly 1, 2, 4, 8, ...
    trace = stats.t_lim_trace
    assert trace[0] == 1
    assert all(b == 2 * a for a, b in zip(trace, trace[1:]))
    assert stats.budget_violations == 0


def test_the_budget_law_counter_sees_an_over_bill():
    # A judge that bills past its grant breaks the budget law: the scheduler
    # must count the candidate's real bill, not the budget in its place.
    target, problem = planted_problem(needed_steps=4)
    honest = problem.judge
    over = []

    def judge(q, changed, proposal, meter, caches):
        if over or proposal.appended == 17:  # the planted winner stays honest
            return honest(q, changed, proposal, meter, caches)
        meter.spent = meter.budget + 1
        over.append(proposal)
        return None

    problem.judge = judge
    acc, stats = oops_search(problem, step_ceiling=2**60)
    assert acc.meta.code == target.code
    assert over and stats.budget_violations == 1


def test_oops_total_work_bounded_by_f_over_p():
    # Order-optimality at toy scale: total work <= c * f / P(winner).
    target, problem = planted_problem(needed_steps=25)
    acc, stats = oops_search(problem, step_ceiling=2**60)
    f = 2 + 25  # meta ops plus judged work
    bound = f / float(Fraction(1, 1 << target.code.length))
    measured_c = stats.steps_total / bound
    assert measured_c <= 4.0


def test_first_found_semantics_stable_under_bigger_ceiling():
    _target, problem1 = planted_problem(needed_steps=12)
    acc1, _ = oops_search(problem1, step_ceiling=2**50)
    _t2, problem2 = planted_problem(needed_steps=12)
    acc2, _ = oops_search(problem2, step_ceiling=2**60)
    assert acc1.meta.code == acc2.meta.code


def test_ceiling_raises_gracefully():
    def never(q, changed, proposal, meter, caches):
        return None

    problem = SearchProblem(ctx=make_ctx(), prior=Prior(META_ISA), judge=never)
    with pytest.raises(SearchCeilingReached):
        oops_search(problem, step_ceiling=2**20)


def test_rejected_candidates_leave_no_trace():
    ctx = make_ctx()
    before = ctx.scratch.digest()
    solver_digest = ctx.solver.digest()

    def reject_all(q, changed, proposal, meter, caches):
        return None

    problem = SearchProblem(ctx=ctx, prior=Prior(META_ISA), judge=reject_all, paranoid=True)
    with pytest.raises(SearchCeilingReached):
        oops_search(problem, step_ceiling=2**18)
    assert ctx.scratch.digest() == before
    assert ctx.solver.digest() == solver_digest
    assert ctx.scratch.journal == []


def test_budget_conservation_per_candidate():
    seen = []

    def on_candidate(meta, record, budget, undone):
        seen.append((record.steps, budget))

    target, problem = planted_problem(needed_steps=33)
    problem.on_candidate = on_candidate
    oops_search(problem, step_ceiling=2**60)
    assert seen
    assert all(steps <= budget for steps, budget in seen)


def test_enumeration_is_shortlex_and_well_formed():
    space = candidate_space("mixed", False)
    stream = list(space.candidates(38))
    assert len(stream) == len({(m.code.value, m.code.length) for m in stream})
    lengths = [m.code.length for m in stream]
    assert lengths == sorted(lengths)
    rng = random.Random(0)
    for meta in rng.sample(stream, min(200, len(stream))):
        assert well_formed(meta, "mixed", False)
        assert decode_meta(meta.code).opcode_sequence == meta.opcode_sequence


@pytest.mark.parametrize("domain", ["mixed", "pattern", "gridworld"])
@pytest.mark.parametrize("external", [False, True], ids=["internal", "external"])
def test_counted_buckets_equal_the_built_groups(domain, external):
    # External buckets stop lower: their modifiers take every body bit, and
    # the modifier bodies of 39-bit buckets alone take seconds to build.
    space = candidates.CandidateSpace(domain, external)
    reference = ReferenceBuckets(candidates.CandidateSpace(domain, external))
    for total in range(15, 37 if external else 40):
        counted = space.counted_bucket(total)
        entries, records = reference.bucket(total)
        groups: dict = {}
        for entry, rec in zip(entries, records):
            groups.setdefault(rec, []).append(entry)
        assert dict(counted) == {rec: len(group) for rec, group in groups.items()}, total
        for rec, n in counted:
            group = space.group(total, rec)
            assert group == groups[rec], (total, rec)
            assert len(group) == n
            for _v, i1, i2, i3 in group[::13]:
                assert static_record(i1, i2, i3) == rec
        assert space.whole_bucket(total) == entries, total


@pytest.mark.parametrize("external", [False, True], ids=["internal", "external"])
def test_counting_below_a_value_equals_bisecting_the_built_group(external):
    # What a mid-bucket winner bills of a group it never built.
    space = candidates.CandidateSpace("pattern", external)
    rng = random.Random(3)
    for total in range(24, 38):
        values = [v for v, _i1, _i2, _i3 in space.whole_bucket(total)]
        if not values:
            continue
        probes = rng.sample(values, min(16, len(values))) + [0, values[-1], 1 << total]
        for rec, _n in space.counted_bucket(total):
            group = [v for v, _i1, _i2, _i3 in space.group(total, rec)]
            for value in probes:
                assert space.count_below(total, rec, value) == bisect_left(group, value)


# At 1,300 only the entries counted so far make external bucket 29 trip.
@pytest.mark.parametrize("guard", [500, 1_300, 30_000])
def test_counting_trips_the_bucket_guard_where_building_does(monkeypatch, guard):
    monkeypatch.setattr(candidates, "BUCKET_GUARD", guard)
    tripped = []
    for external in (False, True):
        counting, building = (candidates.CandidateSpace("mixed", external) for _ in range(2))
        reference = ReferenceBuckets(candidates.CandidateSpace("mixed", external))
        for total in range(15, 36 if external else 39):
            expected = reference.trips_the_guard(total)
            for method in (counting.counted_bucket, building.whole_bucket):
                try:
                    method(total)
                    raised = False
                except SearchCeilingReached:
                    raised = True
                assert raised == expected, (external, total, method)
            tripped.append(expected)
    assert any(tripped) and not all(tripped)


# At 105,000 only the entries counted so far make bucket 38 trip.
@pytest.mark.parametrize("guard, t_lim", [(3_000, 2**33), (105_000, 2**38)])
def test_the_bucket_guard_stops_a_search_at_the_same_doubling(monkeypatch, guard, t_lim):
    # The doubling at which a search stops was pinned before buckets were
    # counted: the bucket that trips the guard first becomes affordable there.
    monkeypatch.setattr(candidates, "BUCKET_GUARD", guard)
    monkeypatch.setattr(search, "_spaces", {})
    _target, problem = planted_problem(needed_steps=2**40)
    events = []
    with pytest.raises(SearchCeilingReached, match="resource guard"):
        oops_search(problem, step_ceiling=2**60, log=events.append)
    assert events[-1]["t_lim"] == t_lim


def test_a_uniform_run_builds_only_groups_that_run(tmp_path, monkeypatch):
    # Groups decided in bulk are billed from their counts, so a group is
    # built only when one of its entries must run; paranoid mode runs every
    # entry, builds every counted group, and must agree byte for byte.
    archives = []
    ran = set()

    def spy(meta, problem, budget, caches, run):
        ran.add((meta.code.length, meta.code.value))
        return run()

    spy_on_candidates(monkeypatch, spy)
    for paranoid in (False, True):
        spaces: dict = {}
        monkeypatch.setattr(search, "_spaces", spaces)
        ran.clear()
        cfg = RunConfig(
            variant="I",
            domain="mixed",
            max_tasks=3,
            paranoid=paranoid,
            archive_path=str(tmp_path / f"{paranoid}.jsonl"),
            metrics_path=str(tmp_path / f"{paranoid}.csv"),
        )
        assert Engine(cfg).run().accepted == 3
        space = spaces[("mixed", False)]
        counted = {(total, rec) for total, groups in space._counted.items() for rec, _n in groups}
        if paranoid:
            assert set(space._buckets) == counted
        else:
            assert set(space._buckets) < counted
            for (total, _rec), group in space._buckets.items():
                assert any((total, v) in ran for v, _i1, _i2, _i3 in group), total
        with open(cfg.archive_path, "rb") as fh:
            archives.append(fh.read())
    assert archives[0] == archives[1]


def test_max_affordable_bits_uniform():
    prior = Prior(META_ISA)
    space = candidate_space("mixed", False)
    assert max_affordable_bits(prior, 2**33, space) == 33
    assert max_affordable_bits(prior, 2**33 + 5, space) == 33


def test_max_affordable_bits_adapted_covers_every_member():
    from autodidact.meta import MetaProgram

    prior = Prior(META_ISA, adapted=True)
    for _ in range(6):
        prior.adapt([1, 6, 0, 0, 0])
    space = candidate_space("mixed", False)
    t_lim = 2**40
    cutoff = max_affordable_bits(prior, t_lim, space)
    # Everything affordable sits at or below the cutoff; spot-check a window
    # of lengths just beyond it.
    for total in range(cutoff + 1, cutoff + 6):
        for v, i1, i2, i3 in space.whole_bucket(total)[:400]:
            meta = MetaProgram(BitString(v, total), i1, i2, i3)
            p = prior.program_prior(meta.opcode_sequence, meta.nibble_count)
            assert p * t_lim < 1


def test_stochastic_same_seed_same_outcome():
    results = []
    for _ in range(2):
        target, problem = planted_problem(needed_steps=10)
        acc, stats = stochastic_search(
            problem, seed=5, phase_index=1, candidate_budget=64, max_candidates=200_000
        )
        results.append((acc.meta.code.to_hex(), stats.candidates_run))
    assert results[0] == results[1]


def test_stochastic_uses_the_same_judge():
    target, problem = planted_problem(needed_steps=10)
    acc, _stats = stochastic_search(
        problem, seed=5, phase_index=1, candidate_budget=64, max_candidates=200_000
    )
    assert acc.details == {"winner": True}


def test_a_stochastic_phase_samples_by_the_prior_weights(monkeypatch):
    def never(q, changed, proposal, meter, caches):
        return None

    problem = SearchProblem(ctx=make_ctx(), prior=Prior(META_ISA), judge=never)
    space = candidate_space(problem.domain, False)
    kept = space.task_ops[-1]
    for code in space.task_ops:
        if code != kept:
            problem.prior.weights[code] = 0
    sampled = []
    real = search._sample_candidate

    def spy(rng, weights, space):
        meta = real(rng, weights, space)
        sampled.append(meta)
        return meta

    monkeypatch.setattr(search, "_sample_candidate", spy)
    with pytest.raises(SearchCeilingReached):
        stochastic_search(problem, seed=3, phase_index=1, max_candidates=300)
    assert len(sampled) == 300
    assert {meta.inventor[-1][0] for meta in sampled} == {kept}


def test_stochastic_ceiling():
    def never(q, changed, proposal, meter, caches):
        return None

    problem = SearchProblem(ctx=make_ctx(), prior=Prior(META_ISA), judge=never)
    with pytest.raises(SearchCeilingReached):
        stochastic_search(problem, seed=1, phase_index=1, max_candidates=50)


# ---------------------------------------------------------------------------
# Static verdicts against execution
# ---------------------------------------------------------------------------


def mid_run_ctx():
    """A mixed-domain context three acceptances in: a copy task, a grid task
    and a task too tight to tighten further, with their code installed."""
    ctx = make_ctx()
    copy = invent_task(M_T_COPY, (0,), ctx)
    grid = invent_task(M_T_GRID, (0,), ctx)
    tight = PatternTask(3, nibble(4), nibble(3), ctx.eps_wow - 2, 1024)
    walk = grid_walk(grid.world, grid.goal.target_cell)
    solver, _ = install_segment(SolverProgram(), copy_query_loop(), copy.identifier.to_hex())
    solver, _ = install_segment(solver, walk, grid.identifier.to_hex())
    repertoire = [
        RepertoireItem(index=i, task=task, trace=None)
        for i, task in enumerate((copy, grid, tight), start=1)
    ]
    return MetaContext(
        solver=solver,
        repertoire=repertoire,
        segments=[(0, len(copy_query_loop())), (len(copy_query_loop()), len(walk))],
        scratch=ScratchStore(),
        t_pattern=64,
        n_pattern=1024,
        t_grid=48,
        n_grid=1024,
        eps_wow=5,
        known_identities=frozenset(item.task.identity() for item in repertoire),
    )


EDIT_FAULTS = {
    "malformed_edit: no template 3",
    "malformed_edit: no wide template 1",
    "malformed_edit: constant width beyond the source nibble",
    "malformed_edit: opcode needs an immediate; use E_APPI",
    "malformed_edit: opcode takes no immediate; use E_APP",
}
TASK_FAULTS = {
    "malformed_task: pattern address 12 outside the database",
    "malformed_task: no repertoire task 4",
}
DUPLICATE = "malformed_task: task already in the repertoire"


def _context(name):
    if name == "empty":
        expected = {"budget", "malformed_edit: no segment 0"} | EDIT_FAULTS | TASK_FAULTS
        return make_ctx(), False, 38, expected
    if name == "mid_run":
        untightenable = "malformed_task: tightened bound fell below 1"
        no_segment = "malformed_edit: no segment 2"
        expected = {"budget", DUPLICATE, untightenable, no_segment} | EDIT_FAULTS | TASK_FAULTS
        return mid_run_ctx(), False, 38, expected
    if name == "external":
        ctx = make_ctx()
        ctx.external_task = invent_task(M_T_CONST, (7,), make_ctx())
        return ctx, True, 35, {"budget"} | EDIT_FAULTS
    ctx = mid_run_ctx()
    ctx.external_task = ctx.repertoire[0].task
    return ctx, True, 30, {DUPLICATE}


def _entries_with_records(space, total):
    """Every entry of a bucket with its StaticRecord, group by group."""
    for rec, _n in space.counted_bucket(total):
        for entry in space.group(total, rec):
            yield entry, rec


# Bucket sizes grow about 1.5x per bit; the limits keep each context near a
# second while covering every op: E_TPLC first fits a self-inventing
# candidate at 37 bits, and E_SET on an empty solver followed by a directive
# (RD_SIZE MDUP E_SET, V_DESC) an external one at 35.  Where the record
# leaves the run undecided, the entry-level segment verdict is checked too:
# the empty context has no segment and mid_run two, so segment 0 is missing
# in one and segment 2 in the other.
@pytest.mark.parametrize("context", ["empty", "mid_run", "external", "external_known"])
def test_static_verdicts_equal_executed_records(context):
    ctx, external, max_bits, expected = _context(context)
    problem = SearchProblem(ctx=ctx, prior=Prior(META_ISA), judge=lambda *args: None)
    space = candidate_space("mixed", external)
    boundary = BoundaryVerdicts(ctx)
    reasons = set()
    for total in range(15, max_bits + 1):
        for (v, i1, i2, i3), rec in _entries_with_records(space, total):
            meta = MetaProgram(BitString(v, total), i1, i2, i3)
            for budget in range(1, rec.certain + 2):
                decided = static_verdict(rec, budget, boundary)
                if decided is None:
                    decided = segment_verdict(rec, i2, len(ctx.segments))
                if decided is None:
                    continue
                record, acc = execute(meta, problem, budget)
                assert acc is None
                assert (record.verdict, record.steps, record.reason) == decided, (
                    meta.code.to_hex(),
                    budget,
                )
                reasons.add(decided[2])
    assert ctx.scratch.journal == []
    assert expected <= reasons


@pytest.mark.parametrize("context", ["empty", "mid_run", "external"])
def test_append_only_records_bill_exactly_certain_and_only_append(context):
    # What the table rule relies on: once its key passes the boundary, an
    # append-only candidate's run_meta bills exactly ``certain`` and proposes
    # its key's task with Appends and the automatic SetEntry only.
    ctx, external, max_bits, _expected = _context(context)
    space = candidate_space("mixed", external)
    boundary = BoundaryVerdicts(ctx)
    base = ctx.solver.component_count
    checked = 0
    for total in range(15, max_bits + 1):
        for (v, i1, i2, i3), rec in _entries_with_records(space, total):
            if not rec.append_only or boundary[rec.key][1] is not None:
                continue
            meta = MetaProgram(BitString(v, total), i1, i2, i3)
            meter = Meter(rec.certain)
            proposal = run_meta(*meta.parts, ctx, meter)
            task = ctx.external_task if rec.key == EXTERNAL_KEY else invent_task(*rec.key, ctx)
            *appends, entry = proposal.edits
            assert meter.spent == rec.certain, meta.code.to_hex()
            assert proposal.task is task
            assert appends and all(isinstance(e, Append) for e in appends)
            assert entry == SetEntry(task.entry_key, base)
            checked += 1
            undo_storage(ctx.scratch)
    assert checked > 1000


def test_a_table_bill_decides_without_runs_and_one_step_high_is_caught(monkeypatch):
    # The planted judge bills 14 steps before anything else, as if read off a
    # table.  A table_bill of 14 decides exactly the candidates that judge
    # cuts: the phase is billed the same with fewer runs, and paranoid mode
    # agrees.  One of 15 also "decides" the two-op candidates at budget 16,
    # which the judge rejects instead.
    ran = []

    def spying_try(meta, problem, budget, caches, run):
        ran.append(meta.code)
        return run()

    spy_on_candidates(monkeypatch, spying_try)
    searched = []
    for owed, paranoid in ((None, False), (14, False), (14, True)):
        _target, problem = planted_problem(needed_steps=14)
        if owed is not None:
            problem.table_bill = lambda task, caches: owed
        problem.paranoid = paranoid
        ran.clear()
        acc, stats = oops_search(problem, step_ceiling=2**60)
        searched.append((acc.meta, stats, len(ran)))
    (plain_meta, plain, plain_runs), (meta, decided, runs), (paranoid_meta, checked, _) = searched
    assert plain_meta == meta == paranoid_meta
    assert plain == decided == checked
    assert runs < plain_runs

    _target, problem = planted_problem(needed_steps=14)
    problem.table_bill = lambda task, caches: 15
    problem.paranoid = True
    with pytest.raises(AssertionError, match="table verdict"):
        oops_search(problem, step_ceiling=2**60)


def test_on_candidate_sees_every_candidate_of_a_mixed_run(tmp_path, monkeypatch):
    executed, calls, phases = set(), [], []

    def counting_try(meta, problem, budget, caches, run):
        executed.add((meta.code, budget))
        return run()

    def hooked_search(problem, step_ceiling, log=None):
        problem.on_candidate = lambda *args: calls.append(args)
        acc, stats = oops_search(problem, step_ceiling, log)
        phases.append(stats)
        return acc, stats

    spy_on_candidates(monkeypatch, counting_try)
    monkeypatch.setattr("autodidact.engine.oops_search", hooked_search)
    cfg = RunConfig(
        variant="I",
        domain="mixed",
        max_tasks=2,
        archive_path=str(tmp_path / "a.jsonl"),
        metrics_path=str(tmp_path / "m.csv"),
    )
    assert Engine(cfg).run().accepted == 2
    assert len(calls) == sum(stats.candidates_run for stats in phases)
    static = [c for c in calls if (c[0].code, c[2]) not in executed]
    assert len(executed) < len(static)
    for meta, record, budget, undone in static[::97]:
        assert undone == 0
        assert record.verdict in ("budget", "rejected")
        assert decode_meta(meta.code) == meta
        assert well_formed(meta, "mixed", False)


@pytest.mark.parametrize("adapted", [False, True])
def test_paranoid_mode_executes_static_verdicts_as_an_oracle(monkeypatch, adapted):
    _target, problem = planted_problem(needed_steps=12)
    problem.paranoid = True
    problem.prior = Prior(META_ISA, adapted=adapted)
    problem.prior.adapt([M_T_COPY, 0, M_E_TPL, 0, 0])
    calls = []
    problem.on_candidate = lambda *args: calls.append(args)
    _acc, stats = oops_search(problem, step_ceiling=2**60)
    assert len(calls) == stats.candidates_run

    def wrong(rec, budget, boundary):
        decided = static_verdict(rec, budget, boundary)
        return None if decided is None else ("rejected", 0, "wrong")

    monkeypatch.setattr(search, "static_verdict", wrong)
    _target, problem = planted_problem(needed_steps=12)
    problem.paranoid = True
    with pytest.raises(AssertionError, match="static verdict"):
        oops_search(problem, step_ceiling=2**60)


class HitCountingDict(dict):
    hits = 0

    def get(self, key, default=None):
        if key in self:
            HitCountingDict.hits += 1
        return super().get(key, default)

    def __getitem__(self, key):
        HitCountingDict.hits += 1
        return super().__getitem__(key)


def test_stochastic_search_keeps_one_cache_per_phase(tmp_path, monkeypatch):
    made = []

    def fresh():
        made.append(1)
        return {
            "edits": HitCountingDict(),
            "codes": {},
            "prev": HitCountingDict(),
            "novelty": HitCountingDict(),
        }

    monkeypatch.setattr(search, "fresh_caches", fresh)
    monkeypatch.setattr(HitCountingDict, "hits", 0)
    cfg = RunConfig(
        variant="I",
        domain="mixed",
        searcher="stochastic",
        seed=5,
        max_tasks=3,
        archive_path=str(tmp_path / "a.jsonl"),
        metrics_path=str(tmp_path / "m.csv"),
    )
    assert Engine(cfg).run().accepted == 3
    assert len(made) == 3
    assert HitCountingDict.hits > 0


# ---------------------------------------------------------------------------
# Bulk verdicts and floors against execution
# ---------------------------------------------------------------------------


def _novelty_table_bill(problem, task, caches):
    """The judge's first-stage bill for task, read straight off its tables."""
    engine = problem.judge.__self__
    run = caches["prev"].get(task.identity())
    if engine.config.variant == "I":
        hit = caches["novelty"].get(task.identity())
        if hit is not None:
            return hit[1]
        return None if run is None else report_within(run, least_grant(run, task.t), task.t)[1]
    return None if run is None else least_grant(run, engine.config.t_max)


def _classified_run(tmp_path, monkeypatch, name, **overrides):
    """Grow an engine run, sorting every candidate visit by how it was decided.

    Returns (archive bytes, per-phase stats, visits): each visit is
    (phase, code, budget, (verdict, steps, reason), kind) with kind
    "executed", "static" (a bulk StaticRecord verdict), "parked" (cut
    below the floor an earlier run of the same candidate reported),
    "segment" (a run that would fault on a missing segment at the op its
    record's walk stopped at) or "table" (an append-only candidate whose
    task's novelty bill was in a table at its turn and more than its budget
    leaves).  No candidate that the table or the segment rule decides may
    run: a run that faults on a missing segment after exactly ``certain``
    steps faulted at that op.
    """
    calls, executed, phases, ctxs = [], [], [], []
    real_try, real_search = search.try_candidate, search.oops_search

    def spying_try(meta, problem, budget, caches, run):
        rec = static_record(meta.inventor, meta.modifier, meta.directives)
        if rec.append_only and not problem.paranoid:
            ctx = problem.ctx
            task = ctx.external_task if rec.key == EXTERNAL_KEY else invent_task(*rec.key, ctx)
            owed = _novelty_table_bill(problem, task, caches)
            if owed is not None and task.entry_key not in ctx.solver.frozen_entry_keys:
                assert rec.certain + owed <= budget, ("ran a table-decided candidate", budget)
        record, acc = run()
        if not problem.paranoid and record.reason.startswith("malformed_edit: no segment"):
            assert record.steps != rec.certain, ("ran a segment-decided candidate", record)
        executed.append((len(phases), meta.code, budget, record.floor))
        return record, acc

    def hooked_search(problem, step_ceiling, log=None):
        phase = len(phases)
        # The engine's repertoire and segment lists grow at the commit.
        ctx = problem.ctx
        phase_ctx = replace(
            ctx, repertoire=list(ctx.repertoire), segments=list(ctx.segments), task_memo={}
        )
        ctxs.append(BoundaryVerdicts(phase_ctx))
        problem.on_candidate = lambda meta, record, budget, undone: calls.append(
            (phase, meta, budget, (record.verdict, record.steps, record.reason), undone)
        )
        acc, stats = real_search(problem, step_ceiling, log)
        phases.append(stats)
        return acc, stats

    spy_on_candidates(monkeypatch, spying_try)
    monkeypatch.setattr("autodidact.engine.oops_search", hooked_search)
    cfg = RunConfig(
        archive_path=str(tmp_path / f"{name}.jsonl"),
        metrics_path=str(tmp_path / f"{name}.csv"),
        **{"max_tasks": 3, **overrides},
    )
    try:
        assert Engine(cfg).run().accepted == cfg.max_tasks
    finally:
        monkeypatch.setattr(search, "try_candidate", real_try)
        monkeypatch.setattr("autodidact.engine.oops_search", real_search)
    floors = {(phase, code, budget): floor for phase, code, budget, floor in executed}
    last_floor = {}  # (phase, code) -> the floor its latest run so far reported
    visits = []
    for phase, meta, budget, record, undone in calls:
        code = meta.code
        if (phase, code, budget) in floors:
            kind = "executed"
            last_floor[(phase, code)] = floors[(phase, code, budget)]
        else:
            assert undone == 0
            rec = static_record(meta.inventor, meta.modifier, meta.directives)
            floor = last_floor.get((phase, code))
            segments = len(ctxs[phase].ctx.segments)
            if static_verdict(rec, budget, ctxs[phase]) is not None:
                kind = "static"
            elif floor is not None and floor > budget:
                kind = "parked"
            elif segment_verdict(rec, meta.modifier, segments) is not None:
                kind = "segment"
            else:
                assert rec.append_only, code.to_hex()
                kind = "table"
        visits.append((phase, code, budget, record, kind))
    with open(cfg.archive_path, "rb") as fh:
        return fh.read(), phases, visits


KINDS = ("executed", "static", "parked", "segment", "table")


# Every judge cut carries a floor, so every run parks some candidates.  In
# prefix mode the table rule must step aside for tasks whose entry key is
# frozen.
@pytest.mark.parametrize(
    "overrides, kinds_seen",
    [
        ({"variant": "I", "domain": "gridworld"}, set(KINDS)),
        ({"variant": "I", "domain": "gridworld", "adapt_prior": True}, set(KINDS)),
        ({"variant": "II", "domain": "gridworld"}, set(KINDS)),
        ({"variant": "I", "domain": "pattern", "prefix_mode": True, "max_tasks": 2}, set(KINDS)),
    ],
    ids=["v1-uniform", "v1-adapted", "v2", "v1-prefix"],
)
def test_bulk_and_parked_verdicts_equal_paranoid_executions(
    tmp_path, monkeypatch, overrides, kinds_seen
):
    archive, phases, visits = _classified_run(tmp_path, monkeypatch, "fast", **overrides)
    assert len(visits) == sum(stats.candidates_run for stats in phases)
    kinds = {kind: sum(1 for v in visits if v[4] == kind) for kind in KINDS}
    assert {kind for kind, n in kinds.items() if n} == kinds_seen, kinds
    assert kinds["executed"] < kinds["static"]
    for phase, _code, budget, (verdict, steps, reason), kind in visits:
        if kind in ("parked", "table"):
            assert (verdict, steps) == ("budget", budget)
        if kind == "segment":
            assert verdict == "rejected" and reason.startswith("malformed_edit: no segment")

    # Paranoid mode runs every candidate, decided or not, and raises on any
    # mismatch; the records it runs must be the ones billed without a run.
    paranoid_archive, paranoid_phases, paranoid_visits = _classified_run(
        tmp_path, monkeypatch, "paranoid", paranoid=True, **overrides
    )
    assert paranoid_archive == archive
    assert [s.candidates_run for s in paranoid_phases] == [s.candidates_run for s in phases]
    assert {v[4] for v in paranoid_visits} == {"executed"}
    ran = {(phase, code, budget): record for phase, code, budget, record, _k in paranoid_visits}
    for phase, code, budget, record, kind in visits:
        assert ran[(phase, code, budget)] == record, (kind, code.to_hex(), budget)


def floor_problem(floor: int, winner_floor: int):
    """Every candidate that reaches the judge concludes at exactly ``floor``
    steps, the planted winner at ``winner_floor``; the bills come from a
    per-candidate table, so their cuts carry those floors."""
    target, problem = planted_problem(needed_steps=0)
    planted_judge = problem.judge

    def judge(q, changed, proposal, meter, caches):
        winner = planted_judge(q, changed, proposal, meter, caches)
        meter.charge(max((winner_floor if winner else floor) - meter.spent, 0), known=True)
        return winner

    problem.judge = judge
    return target, problem


def spy_parked(monkeypatch, problem) -> list:
    """Hook the problem; returns its visits as (code, budget, steps, parked)."""
    ran, visits = set(), []

    def spying_try(meta, problem, budget, caches, run):
        ran.add(meta.code)
        return run()

    def hook(meta, record, budget, undone):
        parked = undone == 0 and meta.code in ran and record.verdict == "budget"
        visits.append((meta.code, budget, record.steps, parked))

    spy_on_candidates(monkeypatch, spying_try)
    problem.on_candidate = hook
    return visits


def test_a_floor_one_step_too_high_is_caught_by_paranoid_mode(monkeypatch):
    real_try = search.try_candidate
    target, problem = floor_problem(16, 16)
    visits = spy_parked(monkeypatch, problem)
    acc, stats = oops_search(problem, step_ceiling=2**60)
    assert acc.meta.code == target.code
    # Cut at budget 4, parked at 8, run at 16.
    assert max(budget for _code, budget, _steps, parked in visits if parked) == 8

    monkeypatch.setattr(search, "try_candidate", real_try)
    _target, problem = floor_problem(16, 16)
    problem.paranoid = True
    acc_paranoid, paranoid_stats = oops_search(problem, step_ceiling=2**60)
    assert acc_paranoid.meta.code == target.code
    assert paranoid_stats == stats

    def one_step_too_high(meta, problem, budget, caches, run):
        record, acc = run()
        if record.floor is not None:
            record.floor += 1
        return record, acc

    spy_on_candidates(monkeypatch, one_step_too_high)
    _target, problem = floor_problem(16, 16)
    problem.paranoid = True
    with pytest.raises(AssertionError, match="parked below its floor"):
        oops_search(problem, step_ceiling=2**60)


# Small runs of each variant, with the sha256 prefixes of their archives as
# they were before held entries resumed at the judge.
RESUMED_RUNS = [
    (dict(variant="I", domain="mixed", max_tasks=3), "0a6db3a3f92dcc24"),
    (dict(variant="II", domain="gridworld", max_tasks=4), "55dd458f3692bbbc"),
]


def _grow(tmp_path, **overrides) -> str:
    """Grow a run; returns the sha256 prefix of its archive."""
    cfg = RunConfig(
        archive_path=str(tmp_path / "a.jsonl"),
        metrics_path=str(tmp_path / "m.csv"),
        **overrides,
    )
    assert Engine(cfg).run().accepted == cfg.max_tasks
    with open(cfg.archive_path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


@pytest.mark.parametrize("overrides, digest", RESUMED_RUNS, ids=["v1-mixed-3", "v2-grid-4"])
def test_judge_cut_candidates_resume_at_the_judge(tmp_path, monkeypatch, overrides, digest):
    # A candidate cut by the judge with a floor the next doubling reaches is
    # executed there without running its meta program again.
    counts = {"run_meta": 0, "executions": 0}
    real_run_meta = search.run_meta

    def counting_meta(*args):
        counts["run_meta"] += 1
        return real_run_meta(*args)

    def counting_try(meta, problem, budget, caches, run):
        counts["executions"] += 1
        return run()

    monkeypatch.setattr(search, "run_meta", counting_meta)
    spy_on_candidates(monkeypatch, counting_try)
    assert _grow(tmp_path, **overrides) == digest
    assert 0 < counts["run_meta"] < counts["executions"]


@pytest.mark.parametrize("tamper", ["bill", "record"])
def test_a_tampered_held_entry_is_caught_by_paranoid_mode(tmp_path, monkeypatch, tamper):
    # The held table keeps a bill one step high, or another candidate's edit
    # record; paranoid mode still runs a held entry's meta program and must
    # see that it reaches the judge otherwise.
    held = []

    class Tampered(dict):
        def __setitem__(self, key, value):
            bill, proposal = value
            if tamper == "bill":
                value = (bill + 1, proposal)
            else:
                other = [p.record for p in held if p.record is not proposal.record]
                if other:
                    value = (bill, replace(proposal, record=other[-1]))
                held.append(proposal)
            super().__setitem__(key, value)

    real_fresh = search.fresh_caches

    def fresh():
        caches = real_fresh()
        caches["held"] = Tampered()
        return caches

    monkeypatch.setattr(search, "fresh_caches", fresh)
    overrides, _digest = RESUMED_RUNS[0]
    with pytest.raises(AssertionError, match="held bill"):
        _grow(tmp_path, paranoid=True, **overrides)


def test_a_mid_bucket_winner_bills_only_the_candidates_before_it(monkeypatch):
    # When the planted candidate wins at budget 16, bucket-mates after it in
    # shortlex order are parked below their floor of 64 and must not be
    # billed.
    target, problem = floor_problem(64, 16)
    visits = spy_parked(monkeypatch, problem)
    acc, stats = oops_search(problem, step_ceiling=2**60)
    # The winner is the hook's last visit.
    assert acc.meta.code == target.code and visits[-1][:2] == (target.code, 16)
    assert len(visits) == stats.candidates_run
    assert sum(steps for _code, _budget, steps, _parked in visits) == stats.steps_total
    # Parked after the winner at the doubling before, and so also at its own.
    assert any(
        parked and budget == 8 and code.length == target.code.length and code > target.code
        for code, budget, _steps, parked in visits
    )


def test_a_mid_bucket_winner_bills_only_the_counted_groups_before_it(monkeypatch):
    # Append-only candidates of every other task are cut by their table bill
    # at every doubling, so they never run and their groups stay counted.
    # At the winner's doubling, those after it in shortlex order must not be
    # billed, with or without the hook (which makes every group be built).
    def only_the_winners_task_runs(task, caches):
        return None if getattr(task, "i1", None) == 0 else 10**9

    target, problem = planted_problem(needed_steps=0)
    problem.table_bill = only_the_winners_task_runs
    acc, stats = oops_search(problem, step_ceiling=2**60)
    assert acc.meta.code == target.code

    target, problem = planted_problem(needed_steps=0)
    problem.table_bill = only_the_winners_task_runs
    visits = spy_parked(monkeypatch, problem)
    _acc, hooked = oops_search(problem, step_ceiling=2**60)
    assert hooked == stats
    assert len(visits) == stats.candidates_run
    assert sum(steps for _code, _budget, steps, _parked in visits) == stats.steps_total


def test_a_winner_late_in_its_bucket_bills_the_counted_groups_before_it(monkeypatch):
    # T_CONST 7 comes after every T_COPY, T_WOW and T_GRID inventor of its
    # bucket, and the table bill cuts every other task's append-only groups
    # at every doubling, so they stay counted.  At the winner's doubling
    # they are billed part by part up to the winner, never built, and must
    # bill what the hook, which builds every group, sees.
    ctx = make_ctx()
    task = invent_task(M_T_CONST, (7,), ctx)
    target = decode_meta(
        encode([(M_T_CONST, (7,))], META_ISA)
        + encode([(M_E_TPL, (0,))], META_ISA)
        + encode([], META_ISA)
    )

    def judge(q, changed, proposal, meter, caches):
        if proposal.task.identity() == task.identity() and proposal.appended == 17:
            return {"winner": True}
        return None

    def only_the_winners_task_runs(proposed, caches):
        return None if proposed.identity() == task.identity() else 10**9

    counts = []
    count_below = candidates.CandidateSpace.count_below

    def counting(space, total, rec, value):
        counts.append(count_below(space, total, rec, value))
        return counts[-1]

    monkeypatch.setattr(candidates.CandidateSpace, "count_below", counting)
    runs = []
    for hooked in (False, True):
        monkeypatch.setattr(search, "_spaces", {})
        problem = SearchProblem(ctx=ctx, prior=Prior(META_ISA), judge=judge)
        problem.table_bill = only_the_winners_task_runs
        visits = spy_parked(monkeypatch, problem) if hooked else None
        acc, stats = oops_search(problem, step_ceiling=2**60)
        assert acc.meta.code == target.code
        runs.append(stats)
    assert runs[0] == runs[1]
    assert len(visits) == runs[0].candidates_run
    assert sum(steps for _code, _budget, steps, _parked in visits) == runs[0].steps_total
    assert sum(counts) > 0


def _judging_engine(tmp_path, variant, rng, paranoid=True):
    """An engine, paranoid by default, on a built repertoire, with tasks to propose.

    Two of the new tasks are routed at code the previous solver times out
    or faults on (at step 5); variant II also re-proposes two stored tasks.
    """
    from conftest import build_repertoire, random_task
    from autodidact.costs import measure_task
    from autodidact.isa import SOLVER_ISA

    cfg = RunConfig(
        variant=variant,
        domain="mixed",
        max_tasks=0,
        alpha=Fraction(3, 2),
        paranoid=paranoid,
        archive_path=str(tmp_path / "a.jsonl"),
        metrics_path=str(tmp_path / "m.csv"),
    )
    eng = Engine(cfg)
    eng.solver, eng.repertoire, eng.usage = build_repertoire(rng, 5)
    used = {item.entry_key for item in eng.repertoire}
    proposed = []  # (task, code that solves it)
    for _ in range(4):
        task, code = random_task(rng, used)
        used.add(task.identifier.to_hex())
        proposed.append((task, code))
    for (task, _code), text in zip(proposed, ("JMP -1", "PUSH 1\nPUSH 2\nPOP\nPOP\nPOP")):
        code = SOLVER_ISA.assemble(text)
        eng.solver, _ = install_segment(eng.solver, code, task.identifier.to_hex())
    if variant == "II":
        proposed += [(item.task, None) for item in eng.repertoire[:2]]
        for item in eng.repertoire:
            m, _t, _r = measure_task(eng.solver, item.task, eng._params(), item.trace)
            eng.cost_measures[item.task.identity()] = m
    return eng, proposed


def test_variant_two_keeps_its_ledger_and_previous_solver_runs_in_the_phase_tables(
    tmp_path, monkeypatch
):
    # The first judge call of a phase builds the ledger into the phase's
    # tables, and the previous solver's run on a new task goes to ``prev``,
    # as in variant I: the run a live measure at t_max makes.
    from autodidact.costs import measure_task
    from autodidact.meta import Meter
    from autodidact.tasks import run_record

    built = []
    real = Engine._phase_ledger

    def counting(self):
        built.append(len(self.entries) + 1)
        return real(self)

    monkeypatch.setattr(Engine, "_phase_ledger", counting)
    cfg = RunConfig(
        variant="II",
        domain="pattern",
        max_tasks=3,
        archive_path=str(tmp_path / "a.jsonl"),
        metrics_path=str(tmp_path / "m.csv"),
    )
    assert Engine(cfg).run().accepted == 3
    assert built == [1, 2, 3]

    built.clear()
    (tmp_path / "built").mkdir()
    eng, proposed = _judging_engine(tmp_path / "built", "II", random.Random(53))
    caches = search.fresh_caches()
    for task, code in proposed[:4]:  # the new tasks: a timeout, a fault and two others
        start = eng.solver.component_count
        edits = [Append(i) for i in code] + [SetEntry(task.identifier.to_hex(), start)]
        proposal = Proposal(task, edits, len(code), start)
        eng._judge_v2(None, None, proposal, Meter(10**9), caches)
        live = measure_task(eng.solver, task, eng._params())[2]
        assert caches["prev"][task.identity()] == run_record(live)
    assert built == [1]  # one ledger for the four calls on these tables
    assert set(caches["ledger"].probes) >= {task.identity() for task, _code in proposed}


def _judge_calls(eng, proposed, rng, n):
    """n random judge calls, (proposal, budget, caches); each 20 share one
    phase's tables."""
    from conftest import random_edit
    from autodidact.meta import Proposal
    from autodidact.vm import FrozenViolation, InvalidResult

    for i in range(n):
        if i % 20 == 0:
            caches = search.fresh_caches()
        task, code = rng.choice(proposed)
        edits = random_edit(rng, eng.solver, eng.repertoire)
        if code is not None and rng.random() < 0.4:  # install a solution, as acceptances do
            start = eng.solver.component_count
            install = [Append(i) for i in code] + [SetEntry(task.identifier.to_hex(), start)]
            edits = install + (edits if rng.random() < 0.5 else [])
        try:
            apply_modification(eng.solver, edits)
        except (InvalidResult, FrozenViolation):
            continue
        proposal = Proposal(task, edits, 0, None)
        yield proposal, rng.choice([0, 1, 3, 20, 60, 150, 400, 2000, 10**6]), caches


def _copy_tables(caches: dict) -> dict:
    """The phase's tables as they stand, for judge calls that must not touch them."""
    import copy

    edits = {}
    for script, record in caches["edits"].items():
        twin = edits[script] = copy.copy(record)
        twin.pairs, twin.runs = dict(record.pairs), dict(record.runs)
    return {"edits": edits, "prev": dict(caches["prev"]), "novelty": dict(caches["novelty"])}


def _judge(eng, proposal, budget, caches):
    """(verdict, floor) of one direct judge call; the verdict is None when cut."""
    from autodidact.meta import Meter

    judge = eng._judge_v1 if eng.config.variant == "I" else eng._judge_v2
    proposal.record = None  # a direct call finds its record in the caches
    try:
        return judge(None, None, proposal, Meter(budget), caches) is not None, None
    except BudgetExhausted as exc:
        assert exc.floor is not None, "a judge cut without a floor"
        return None, exc.floor


@pytest.mark.parametrize("variant", ["I", "II"])
def test_judge_cuts_on_a_built_repertoire_have_exact_floors(tmp_path, variant):
    # Every judge cut carries a floor.  On the tables as the cut left them,
    # a judge one step below the floor is cut with the same floor, and one
    # at the floor concludes.  The exception is variant I's capped case: the
    # novelty cache lacks the task and the previous solver faults, so the
    # floor is where the novelty stage first concludes, and there it does.
    # The engine is paranoid, so every table answer is also run live.
    rng = random.Random(47)
    eng, proposed = _judging_engine(tmp_path, variant, rng)
    seen = {"cut": 0, "capped": 0, "concluded": 0}
    for proposal, budget, caches in _judge_calls(eng, proposed, rng, 500):
        verdict, floor = _judge(eng, proposal, budget, caches)
        if floor is None:
            seen["concluded"] += 1
            continue
        assert floor > budget
        identity = proposal.task.identity()
        run = caches["prev"].get(identity)
        capped = (
            variant == "I"
            and identity not in caches["novelty"]
            and run is not None
            and run[0] == FAULTED
        )
        below = _judge(eng, proposal, floor - 1, _copy_tables(caches))
        assert below == (None, floor), (identity, budget, floor, below)
        tables = _copy_tables(caches)
        at = _judge(eng, proposal, floor, tables)
        if capped:
            assert identity in tables["novelty"]
            seen["capped"] += 1
        else:
            assert at[1] is None, (identity, budget, floor, at)
        seen["cut"] += 1
    assert seen["cut"] > 50 and seen["concluded"] > 50, seen
    assert (seen["capped"] > 5) == (variant == "I"), seen


def _table_state(caches: dict) -> tuple:
    """Every entry of the phase's tables, as plain values."""
    edits = {
        script: (record.fault, record.todo, record.size, dict(record.pairs), dict(record.runs))
        for script, record in caches["edits"].items()
    }
    return edits, dict(caches["prev"]), dict(caches["novelty"])


@pytest.mark.parametrize("variant", ["I", "II"])
def test_a_repeated_pair_below_its_stored_floor_is_cut_with_it(tmp_path, monkeypatch, variant):
    # A judge cut whose floor is final for the phase stores it in its pair's
    # slot: always in variant II, and in variant I once the novelty cache
    # holds the task.  A later call on that pair with less left is cut with
    # that floor, counted from the candidate's start, without judging: it
    # runs no stage and writes no table entry, and a live judge on the same
    # tables gives the same floor.  With the floor left, the pair is judged
    # and concludes.
    from autodidact.meta import Meter
    from autodidact.validate import CUT

    rng = random.Random(50)
    eng, proposed = _judging_engine(tmp_path, variant, rng, paranoid=False)
    judge = eng._judge_v1 if variant == "I" else eng._judge_v2
    name = "_demonstrate" if variant == "I" else "_ledger_verdict"
    decide, decided = getattr(eng, name), []
    monkeypatch.setattr(eng, name, lambda *args: decided.append(args) or decide(*args))
    stored = unstored = 0
    for proposal, budget, caches in _judge_calls(eng, proposed, rng, 400):
        floor = _judge(eng, proposal, budget, caches)[1]
        if floor is None:
            continue
        identity = proposal.task.identity()
        edit = caches["edits"][tuple(proposal.edits)]
        if variant == "I" and identity not in caches["novelty"]:
            assert identity not in edit.pairs
            unstored += 1
            continue
        verdict, billed = edit.pairs[identity]
        if verdict is not CUT:  # a pair-cache hit, cut at its bill
            assert billed == floor
            continue
        assert billed == floor
        for spent in (0, 5):
            meter = Meter(spent + floor - 1)
            meter.charge(spent)
            tables, runs = _table_state(caches), len(decided)
            with pytest.raises(BudgetExhausted) as cut:
                judge(None, None, proposal, meter, caches)
            assert cut.value.floor == spent + floor
            assert len(decided) == runs and _table_state(caches) == tables
            meter = Meter(spent + floor - 1)
            meter.charge(spent)
            with pytest.raises(BudgetExhausted) as live:
                decide(edit, proposal.task, meter, _copy_tables(caches))
            assert live.value.floor == spent + floor
        judge(None, None, proposal, Meter(floor), _copy_tables(caches))  # no cut
        assert len(decided) == runs + 1
        stored += 1
    assert stored > 30, stored
    assert (unstored > 5) == (variant == "I"), unstored


@pytest.mark.parametrize("variant", ["I", "II"])
def test_a_table_answer_one_step_off_is_caught_by_paranoid_mode(tmp_path, monkeypatch, variant):
    from autodidact import validate

    rng = random.Random(48)
    eng, proposed = _judging_engine(tmp_path, variant, rng)
    real_within = validate.report_within

    def one_step_more(run, budget, bound):
        ok, billed = real_within(run, budget, bound)
        return ok, billed if ok is None else billed + 1

    monkeypatch.setattr(validate, "report_within", one_step_more)
    with pytest.raises(AssertionError, match="run table gave"):
        for proposal, budget, caches in _judge_calls(eng, proposed, rng, 200):
            _judge(eng, proposal, budget, caches)


@pytest.mark.parametrize("variant", ["I", "II"])
def test_a_segment_table_record_one_step_off_is_caught_by_paranoid_mode(tmp_path, variant):
    # Paranoid mode checks every table answer against a live run of the
    # built q, those read off the run's segment table included: a table
    # whose records run one step longer than the segment does is caught.
    # With the true table, the same judge calls pass.
    from autodidact.validate import SegmentTable

    class OneStepOff(SegmentTable):
        read = 0  # records read off the table

        def record(self, code, task, trace=None, index=0):
            run = super().record(code, task, trace, index)
            if run is not None:
                self.read += 1
                run = (run[0], run[1] + 1, *run[2:])
            return run

    for table in (SegmentTable(), OneStepOff()):
        rng = random.Random(48)
        eng, proposed = _judging_engine(tmp_path, variant, rng)
        eng.segment_table = table
        calls = _judge_calls(eng, proposed, rng, 200)
        if type(table) is SegmentTable:
            for proposal, budget, caches in calls:
                _judge(eng, proposal, budget, caches)
            continue
        with pytest.raises(AssertionError, match="run table gave"):
            for proposal, budget, caches in calls:
                _judge(eng, proposal, budget, caches)
        assert table.read > 0


@pytest.mark.parametrize("variant", ["I", "II"])
def test_judge_floors_are_exact(tmp_path, monkeypatch, variant):
    # Right after a cut that carries a floor, the same candidate is cut by
    # the same stage one step below the floor, and gets past that stage at
    # the floor.  The re-runs get copies of the caches, so the run itself is
    # unchanged.  (A solver that ends at step 0 gives a floor equal to the
    # budget, which parks nothing.)
    checked = []

    def checking_try(meta, problem, budget, caches, run):
        record, acc = run()
        assert record.floor is None or record.floor >= budget
        if record.floor is not None and record.floor > budget:
            floor = record.floor
            below, _ = run(floor - 1, _copy_tables(caches))
            assert (below.verdict, below.steps, below.floor) == ("budget", floor - 1, floor)
            at, _ = run(floor, _copy_tables(caches))
            assert at.verdict != "budget" or at.floor != floor, (meta.code.to_hex(), floor)
            checked.append(floor)
        return record, acc

    spy_on_candidates(monkeypatch, checking_try)
    cfg = RunConfig(
        variant=variant,
        domain="gridworld",
        max_tasks=3,
        archive_path=str(tmp_path / "a.jsonl"),
        metrics_path=str(tmp_path / "m.csv"),
    )
    assert Engine(cfg).run().accepted == 3
    assert len(checked) > 100


def _watch_table_answers(monkeypatch) -> list:
    """Record (run, success or None when cut) of each table answer a judge reads."""
    from autodidact import validate

    answers = []
    real = validate.table_answer

    def spy(run, live, budget, bound, paranoid=False):
        answer = real(run, live, budget, bound, paranoid)
        answers.append((run, answer[0]))
        return answer

    monkeypatch.setattr(validate, "table_answer", spy)
    return answers


def _check_table_bill(eng, task, caches, answers) -> Optional[int]:
    """Check the table bill of task on the phase's tables; returns it, or
    None when there is none to check.

    An append-only proposal for the task is judged with no pair entries:
    one step short of the bill the novelty stage cuts it, and at the bill
    it gets past that stage.  The stage is watched through the table
    answers the judge reads: the novelty stage's own answer is read off the
    previous solver's run, and every later stage is asked only once the
    judge got past novelty.  A variant I novelty hit reads no run; it
    concludes the stage when the judge concludes or asks a later stage.
    While the variant I novelty cache lacks the task, the stage concludes
    under the run's least grant and writes the bill to the cache (a run
    that halts at step 0 bills 0 but needs a grant of 1).
    """
    owed = eng._table_bill(task, caches)
    solver = eng.solver
    if owed is None or task.entry_key in solver.frozen_entry_keys:
        return None
    identity = task.identity()
    judge = eng._judge_v1 if eng.config.variant == "I" else eng._judge_v2
    novelty_run = caches["prev"][identity]
    edits = [Append(ins) for ins in copy_query_loop()]
    edits.append(SetEntry(task.entry_key, solver.component_count))
    q, changed = apply_modification(solver, edits)
    uncached = eng.config.variant == "I" and identity not in caches["novelty"]
    concluding = least_grant(novelty_run, task.t) if uncached else owed
    for left in (owed - 1, concluding):
        if left < 0:
            continue
        tables = search.fresh_caches()
        tables["prev"].update(caches["prev"])
        tables["novelty"].update(caches["novelty"])
        proposal = Proposal(task, edits, len(edits) - 1, solver.component_count)
        answers.clear()
        try:
            judge(q, changed, proposal, Meter(left), tables)
            floor = None
        except BudgetExhausted as exc:
            floor = exc.floor
        passed = floor is None or any(
            run is not novelty_run or ok is not None for run, ok in answers
        )
        where = (identity, owed, left, floor, answers)
        assert passed == (left == concluding), where
        if left < owed:
            assert floor >= owed, where
            assert tables["novelty"] == caches["novelty"], where
        elif uncached:
            assert tables["novelty"][identity][1] == owed, where
    return owed


@pytest.mark.parametrize("variant", ["I", "II"])
def test_the_table_bill_is_the_least_the_judges_first_stage_needs(tmp_path, monkeypatch, variant):
    # After each phase's search, every task the scheduler asked about whose
    # table entry exists has its bill checked on the phase's last tables;
    # in variant I also on the tables as they stood when the bill was first
    # read off the previous solver's run alone.
    answers = _watch_table_answers(monkeypatch)
    checked, early_checks = [], []
    real_search = search.oops_search

    def checking_search(problem, step_ceiling, log=None):
        seen = {}
        early = {}  # identity -> (task, tables) before the novelty cache held it
        real_bill = problem.table_bill

        def recording_bill(task, caches):
            identity = task.identity()
            owed = real_bill(task, caches)
            if variant == "I" and owed is not None and identity not in caches["novelty"]:
                tables = {k: dict(caches[k]) for k in ("prev", "novelty")}
                early.setdefault(identity, (task, tables))
            seen[identity] = (task, caches)
            return owed

        problem.table_bill = recording_bill
        acc, stats = real_search(problem, step_ceiling, log)
        engine = problem.judge.__self__
        early_checks.append(len(early))
        for task, caches in list(early.values()) + list(seen.values()):
            owed = _check_table_bill(engine, task, caches, answers)
            if owed is not None:
                checked.append(owed)
        return acc, stats

    monkeypatch.setattr("autodidact.engine.oops_search", checking_search)
    cfg = RunConfig(
        variant=variant,
        domain="mixed",
        max_tasks=4,
        archive_path=str(tmp_path / "a.jsonl"),
        metrics_path=str(tmp_path / "m.csv"),
    )
    assert Engine(cfg).run().accepted == 4
    assert len(checked) > 20
    assert (sum(early_checks) > 5) == (variant == "I"), early_checks


@pytest.mark.parametrize("variant", ["I", "II"])
def test_the_table_bill_is_exact_where_the_previous_solver_faults(tmp_path, monkeypatch, variant):
    # On a built repertoire whose solver times out on one proposed task and
    # faults on another, the table bill of each call's task is checked on
    # the tables the call left.  A variant I novelty run that faults bills
    # its whole grant, so the cache's bill is above the run's least grant.
    answers = _watch_table_answers(monkeypatch)
    rng = random.Random(49)
    eng, proposed = _judging_engine(tmp_path, variant, rng)
    bills = {}
    for proposal, budget, caches in _judge_calls(eng, proposed, rng, 200):
        _judge(eng, proposal, budget, caches)
        task = proposal.task
        owed = _check_table_bill(eng, task, caches, answers)
        if owed is not None:
            bills.setdefault(task.identity(), set()).add(owed)
    faulting = proposed[1][0].identity()
    assert (len(bills[faulting]) > 1) == (variant == "I"), bills
