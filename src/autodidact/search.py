"""Search over candidate programs: a doubling-budget scheduler and a stochastic baseline.

The scheduler realizes time-optimal ordered search: per phase it doubles a
time limit, materializes the set H of candidates p with P(p) * t_lim >= 1,
and gives each at most ceil(P(p) * t_lim) steps covering task invention,
solver modification and validation together.  Candidates run in shortlex
order; the first one whose validation succeeds wins, so re-running with a
larger ceiling can never change an already-accepted archive prefix.

Determinism of verdicts lets conclusively rejected candidates be skipped on
later doublings without changing any observable behaviour; only candidates
whose earlier attempt was cut by the budget are retried.

A candidate is skipped only when its verdict is known, and it is then billed
exactly what a run would bill.  There is one rule: every skipped candidate
is either rejected statically or below an exact floor, the least budget
under which its run can conclude, and is then cut and billed its budget.  A
floor comes from one of three sources: the record's certain steps, an
append-only task's table bill, or the judge floor a run reported.  Each is
exact for the reason given below, and each doubling decides a group of
entries that share a StaticRecord, a prior and a reported floor in one go:
a group without a floor gets static_verdict, a group with one is cut while
its budget is below it, either kind then gets the table rule, and what is
still undecided goes entry by entry: a missing segment rejects an entry
statically (segment verdicts), and the rest runs.  Decided runs write
nothing that outlives them, so only their count matters: a group decided
in bulk is billed count x steps, and when a
winner appears mid-bucket the entries valued below it are counted, by
bisecting a built group or, part by part, from a counted one
(CandidateSpace.count_below).  So a group decided in bulk needs no entries,
only its size.  In uniform mode a bucket's groups, their sizes and their
parts are counted from classes of inventor and modifier bodies that walk
alike (CandidateSpace.counted_bucket), and a group is built from its parts
only when it must run, or when paranoid mode or the hook must see every
entry.  A winner always comes from a run, so its group is built.

Static verdicts and certain steps.  Every meta op bills one step before it
acts, and most ops either cannot fault or fault on their immediates alone
(meta.static_fault); only a few read the archive, the solver or its
segments (meta.reads_context).  Each candidate therefore has a StaticRecord,
composed from the walks of its inventor and modifier bodies: the unit
charges certain to be billed before the first context read, and the first
context-free fault.  The one check in between that depends on the phase,
the inventor/modifier boundary, reads only the inventor's task op, so it is
resolved once per task key and phase.  A
candidate whose budget is below its certain charges is cut, and one whose
fault is within budget is rejected, with exactly the verdict, step bill and
reason a run would produce: a run is deterministic, bills nothing before
those points that the record does not count, and rewinds its scratch
writes, so skipping it is observationally identical to running it.

Segment verdicts.  Where a record's walk stopped in the modifier, once its
key passes the boundary, the run reaches the op it stopped at, the
modifier's op ``certain - key_steps - 1``, after billing exactly
``certain`` steps.  When that op is E_MAP(s) or E_CLONE(s) and the phase
has no segment s (s >= len(ctx.segments), fixed for the phase), the run
faults there with ``malformed_edit: no segment s`` (missing_segment).  So
an entry of a running group is rejected with that bill and reason without
a run.  The index is the record's, worked out once per running group
(segment_at), and a group whose key is still unknown has none; only the op
at that index is looked at per entry, because s is in the entry's bits and
not in its record: records are not split by s.

The judge runs nothing twice in a phase.  Each edit script gets one
record per phase (EditRecord, in the ``edits`` table), and each stage of
the judge, the previous solver on a proposed task, the modified solver on
it and on every stored task the edit may touch, runs once at its task's
whole bound, or once per run where it runs an appended segment alone
(Segment runs).  Every grant is then answered from that run by the
prefix rule (tasks.report_within): a run granted fewer steps is a prefix of
the whole one, because runs are deterministic, so the answer is what a live
run under the grant returns, verdict, bill and cut alike.  The tables hold
nothing but such runs, the edit's outcome, and the verdict tables the judge
kept before (pair and novelty caches), so they change no verdict.

Segment runs.  Nearly every script the search proposes appends a segment
and routes the proposed task's key at its first slot, |s|
(vm.appended_segment).  apply_modification accepts such a script unless the
key is frozen and its row moves, and its changed set is the appended slots
plus the key if its row moves, so both are worked out from the script, and
q is built only for a stage that needs it (validate.SegmentEdit).  A run of
q on a task with that key starts at slot |s|.  Jumps are relative, the run
halts when pc reaches the end of q, the used flags count slots, and the
environment is the task's: none of these depends on |s|.  So as long as the
run never jumps below |s|, it is the run of the segment alone, a solver
routed at slot 0, shifted by |s|, in steps, output, faults and component
count; only the size bound differs, and q succeeds iff the segment alone
does and |q| < n.  The segment alone meets a jump below its start as a bad
jump, and that is the only way the two runs part, so a segment run that
ends in a bad jump is not used: q runs instead, whether it goes on into s
or times out right after the jump.  The segment's run depends only on its
code, the task and the stored trace it replays, so the engine's
SegmentTable keeps it for the whole run, and every phase reads the same
record.  No verdict or bill changes, and paranoid mode still checks every
answer against a live run of the built q.

Judge floors.  So every judge cut knows its floor (BudgetExhausted.floor):
the least budget under which the whole chain of stages concludes, each
stage's least grant on top of what the stages before it bill under theirs.
A pair-cache hit's floor is its cached bill.  Below its floor the candidate
is cut at every budget: its run is deterministic up to the judge, each
stage's run never changes within the phase, and what the judge can meet
later instead bills at least as much, since a pair entry written since
bills a whole chain of stages, each at least its least grant.  Such a run
writes no table entry that depends on its grant either, so skipping it
below its floor changes nothing.  The one entry whose bill depends on the
grant is variant I's novelty cache when the previous solver faults: the
first run that concludes the novelty stage writes the bill it was granted.
So while the cache lacks such a task, the floor stops at the budget where
the novelty stage first concludes; past it, the candidate runs and writes
the entry as it would have.  Cuts inside the meta program carry no floor.

Cut floors in the pair table.  A judge cut's floor, counted from the
judge's start, is a property of its (edit script, task) pair once it is
final for the phase: always in variant II, and in variant I once the
novelty cache holds the task (before that the capped floor can still
rise).  The cut then stores it in the pair's slot of EditRecord.pairs, and
a later call on the pair with less left is cut with that floor without
judging (Engine._judge): the stages would answer from the same runs and
stop at the same place, and such a call writes nothing.  Paranoid mode
judges it anyway and compares the floors.

Table bills.  An append-only record (StaticRecord.append_only) walks to its
end with no fault, no context read and no E_TRUNC, so once its key passes
the boundary its run_meta bills exactly ``certain`` steps and proposes the
key's task with Appends and the automatic SetEntry.  apply_modification
accepts that edit unless the task's entry key is frozen (prefix mode), and
the judge starts with budget - certain steps left.  The judge's first stage
is novelty, and SearchProblem.table_bill reports the least bill B with
which it concludes on the task, once the previous solver's run on the task
is in a table: in variant I, whose novelty cache can answer a grant of 0,
the cache's bill once it holds the task and until then what that run bills
under its least grant; in variant II that least grant.  So certain + B is a
floor: below it the novelty stage cuts the run, and so does a pair-cache
hit, which the judge reads first, since every pair bill for the task
includes a novelty bill of at least B.  A table entry is written at most
once per phase and never changes, and B only rises when the novelty cache
is written, so a group whose B exists when its unit's visit starts is
decided in one go; members visited before the entry is written run, and
those after it are decided at their own turn.

Resumed judging.  Within a phase a candidate's meta run is fixed: META_ISA
has no jumps, every op bills before it acts, the context is fixed for the
phase and scratch is rewound after every candidate.  So each run of an
entry that reaches the judge does so with the same bill and the same
proposal, edit script and task alike, in the same shortlex order, and
writes the same table entries on the way.  A judge cut whose floor is
within the budget the next doubling grants the entry keeps that bill and
proposal (the phase's ``held`` table); that doubling runs the entry, since
its budget is not below the floor, and resumes it at the judge: the bill
is charged in one go and the stored pair is judged, with no run_meta, no
edit-script lookup and no scratch to rewind.  A cut whose floor lies
beyond the next doubling keeps nothing, because its entry is parked there
and most such entries never run again in their phase; a concluded
candidate keeps nothing either.  When paranoid mode or the hook must see
every entry, a held entry's meta program still runs, so the hook gets the
real ``undone`` count, and paranoid mode checks that it reaches the judge
with the held bill, edit record and task.

Everything else still runs, one at a time in shortlex order, because the
pair and novelty tables make verdicts depend on the order of execution.
An entry cut at its turn, by a run or by a table entry written during the
visit, joins the live group of its record, prior and reported floor.  An
entry runs from its three subprograms; its MetaProgram is built only for
the winner and for the on_candidate hook.  The hook still sees every
candidate in that order; skipped ones arrive with undone = 0.  Paranoid
mode runs all of them too and checks the records agree.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Optional

from .candidates import (
    EXTERNAL_KEY,
    CandidateSpace,
    SearchCeilingReached,
    StaticRecord,
)
from .isa import ARG_BITS, OPCODE_BITS, TERMINATOR
from .meta import (
    META_ISA,
    M_E_CLONE,
    M_E_MAP,
    M_V_DESC,
    MalformedEdit,
    MalformedTask,
    MetaContext,
    MetaProgram,
    Meter,
    Proposal,
    check_invented,
    invent_task,
    opcode_sequence,
    program,
    run_meta,
    undo_storage,
)
from .prior import Prior
from .validate import BudgetExhausted, EditRecord, SegmentEdit
from .vm import (
    FrozenViolation,
    InvalidResult,
    SolverProgram,
    appended_segment,
    apply_modification,
)


@dataclass
class Acceptance:
    meta: MetaProgram
    proposal: Proposal
    solver: SolverProgram
    details: object  # the judge's record for the commit (validate.Details)


@dataclass
class PhaseStats:
    t_lim_trace: list = field(default_factory=list)
    candidates_run: int = 0
    steps_total: int = 0
    budget_violations: int = 0
    t_lim: int = 0  # value at acceptance


# Judge: (q, changed, proposal, meter, caches) -> details or None when
# rejected; raises BudgetExhausted when the verdict is out of reach for now.
# ``caches`` is the phase's fresh_caches() dict, and proposal.record the
# edit script's EditRecord in it.
Judge = Callable[..., Optional[object]]


@dataclass
class SearchProblem:
    ctx: MetaContext
    prior: Prior
    judge: Judge
    domain: str = "mixed"
    paranoid: bool = False
    on_candidate: Optional[Callable] = None  # instrumentation hook
    # (task, caches) -> the least bill with which the judge's first stage can
    # conclude on that task, read off this phase's tables; None while no
    # table has it.  Without it, append-only candidates always run.
    table_bill: Optional[Callable] = None


# ---------------------------------------------------------------------------
# Static verdicts: what a record and the phase decide before a run
# ---------------------------------------------------------------------------


class BoundaryVerdicts(dict):
    """Task key -> (its task, the boundary check's fault reason).

    The task is None when the task op faults, and the reason is None when
    the check passes.  Built lazily once per phase: a task op reads only its
    immediates and the phase's fixed context, so every candidate with the
    same key gets the same task and verdict.
    """

    def __init__(self, ctx: MetaContext):
        super().__init__()
        self.ctx = ctx

    def __missing__(self, key: tuple) -> tuple:
        ctx = self.ctx
        task = None
        try:
            task = ctx.external_task if key == EXTERNAL_KEY else invent_task(*key, ctx)
            check_invented(task, ctx)
            reason = None
        except MalformedTask as exc:
            reason = f"malformed_task: {exc}"
        self[key] = (task, reason)
        return task, reason


def static_verdict(rec: StaticRecord, budget: int, boundary: BoundaryVerdicts):
    """(verdict, steps, reason) when the record decides the run, else None."""
    certain, fault, key, key_steps, _append_only = rec
    if key is not None:
        bad = boundary[key][1]
        if bad is not None:
            certain, fault = key_steps, bad
    if budget < certain:
        return "budget", budget, "budget"
    if fault is not None:
        return "rejected", certain, fault
    return None


SEGMENT_OPS = (M_E_MAP, M_E_CLONE)


def segment_at(rec: StaticRecord) -> Optional[int]:
    """The index of the modifier op where the record's walk stopped, once
    its key is known, else None: the segment verdict's record half, the
    same for every entry of a group.

    A walk that stopped on a fault stopped at an op that is neither E_MAP
    nor E_CLONE, and one that reached its end holds neither, so for them
    the index is out of range or names another op.
    """
    at = rec.certain - rec.key_steps - 1
    return at if rec.key is not None and at >= 0 else None


def missing_segment(modifier: tuple, at: int, segments: int) -> Optional[str]:
    """The fault reason when modifier op ``at`` is E_MAP(s) or E_CLONE(s)
    with s >= ``segments``, the phase's number of installed segments."""
    if at < len(modifier):
        code, args = modifier[at]
        if code in SEGMENT_OPS and args[0] >= segments:
            return f"malformed_edit: no segment {args[0]}"
    return None


_spaces: dict = {}


def candidate_space(domain: str, external: bool) -> CandidateSpace:
    key = (domain, external)
    if key not in _spaces:
        _spaces[key] = CandidateSpace(domain, external)
    return _spaces[key]


# ---------------------------------------------------------------------------
# Affordability cutoffs
# ---------------------------------------------------------------------------


def max_affordable_bits(prior: Prior, t_lim: int, space: CandidateSpace) -> int:
    """Largest encoded length any member of H = {P(p) * t_lim >= 1} can have.

    Uniform mode is exact (P = 2**-L).  Adapted mode bounds P(p) by a
    max-probability dynamic program over body bits; the program prior is a
    product over tokens, so the bound does not care how body bits split
    across the three subprograms.  Enumeration can stop once a full window
    of the widest token fails, because any longer program multiplies in at
    least one more sub-unit factor.
    """
    if not prior.adapted:
        return t_lim.bit_length() - 1  # floor(log2 t_lim)
    qmax: dict[int, Fraction] = {}
    for c in META_ISA.by_code:
        w = META_ISA.width(c)
        p = prior.opcode_prob(c) * Fraction(1, 1 << (w - OPCODE_BITS))
        qmax[w] = max(qmax.get(w, Fraction(0)), p)
    term_p = prior.opcode_prob(TERMINATOR)
    window = max(qmax)
    limit = Fraction(1, t_lim)
    head = term_p**3

    best = [Fraction(1)]  # best[b] = max token-product over bodies of b bits
    last_ok = 3 * OPCODE_BITS
    misses = 0
    b = 0
    while misses <= window and b < 600:
        b += 1
        m = Fraction(0)
        for w, q in qmax.items():
            if w <= b:
                cand = q * best[b - w]
                if cand > m:
                    m = cand
        best.append(m)
        if head * m >= limit:
            last_ok = b + 3 * OPCODE_BITS
            misses = 0
        else:
            misses += 1
    return last_ok


def ceil_fraction(f: Fraction) -> int:
    return -((-f.numerator) // f.denominator)


# ---------------------------------------------------------------------------
# The shared per-candidate pipeline
# ---------------------------------------------------------------------------


@dataclass
class CandidateRecord:
    verdict: str  # "accepted" | "rejected" | "budget"
    steps: int
    reason: str = ""
    floor: Optional[int] = None  # a judge cut's least concluding budget


def fresh_caches() -> dict:
    """Per-phase tables shared by all candidates of one phase.

    ``edits`` maps an edit script (a tuple of edits) to its EditRecord: the
    edit's fault or, built when a stage first needs it, the modified
    solver; the revalidation set, the pair cache (task identity -> the
    judge's conclusive verdict and bill, or a cut's floor once it is final
    for the phase) and one run of the modified solver per task at the
    task's whole bound.  So each script is applied at most once per phase
    while its record holds q, each (script, task) run once, and a pair is
    judged again only with at least its floor left.  A run that starts at a
    segment the script appends and stays in it is read off the engine's
    SegmentTable, which outlives the phase (see Segment runs); ``codes``
    keeps one copy of each segment the phase's records hold.
    ``prev`` maps a task identity to the previous solver's run at the
    task's whole bound (t_max in variant II), for both judges, and
    ``novelty`` to variant I's first conclusive novelty verdict and step
    bill.  ``ledger`` is variant II's engine.PhaseLedger, which the phase's
    first judge call builds.  Every judge stage is answered from these
    runs by the prefix rule (tasks.report_within), which returns what a live
    run under the stage's grant returns.  Candidates differing only in dead
    compute prefixes share a record and so hit the pair cache.
    ``held`` maps a scheduled candidate, (total, value), to its meta bill
    and Proposal (task and edit record) while its last run was a judge cut
    whose floor the next doubling's budget reaches; that run resumes at the
    judge (see Resumed judging).  It holds nothing else, so it stays small.

    A pair or novelty hit is charged the bill of the first conclusive run
    and gets its verdict, which is not always what a fresh run under the
    hit's own allowance gives: a faulting run bills its whole grant, which
    depends on the allowance it ran under, so a fresh run can bill a
    different amount and can even be cut where the hit is rejected.
    Archives record these bills, so making hits exact changes archive bytes.
    """
    return {"edits": {}, "codes": {}, "prev": {}, "novelty": {}, "held": {}, "ledger": None}


def edit_record(caches: dict, edits, solver: SolverProgram) -> EditRecord:
    """The phase's record of an edit script for solver, made on first use.

    A script that appends a segment and routes a key at it gets its fault
    from the script alone (vm.appended_segment), and its q is built when a
    stage first needs it; any other script is applied now.  Every
    application, a lazy or released record's included, goes through this
    module's apply_modification.
    """
    table = caches["edits"]
    script = tuple(edits)
    record = table.get(script)
    if record is None:
        try:
            code = appended_segment(solver, script)
            if code is None:
                q, changed = apply_modification(solver, script)
                record = EditRecord(q, changed, None, script, solver, apply_modification)
            else:
                # A phase routes many keys at a few segments: one copy of each.
                code = caches["codes"].setdefault(code, code)
                record = SegmentEdit(code, script, solver, apply_modification)
        except (FrozenViolation, InvalidResult) as exc:
            record = EditRecord(fault=f"bad_edit: {exc}")
        table[script] = record
    return record


def try_candidate(
    entry: tuple,
    total: int,
    problem: SearchProblem,
    budget: int,
    caches: Optional[dict] = None,
    keep: Optional[int] = None,
) -> tuple[CandidateRecord, Optional[Acceptance]]:
    """Run one candidate under a step budget, then unwind its scratch writes.

    The candidate is a ``total``-bit bucket entry (value, inventor,
    modifier, directives); run_meta reads only the three subprograms, and
    the MetaProgram is built only for the winner and the on_candidate hook.
    All effects of a rejected candidate are confined to the journaled scratch
    store, which is always rewound, so rejection leaves the engine state
    bit-identical.  The edit script is looked up once in the phase's
    ``edits`` table and applied only on a miss; the judge finds its record
    on the proposal.  The engine's judges release the record's q after
    each call, so they may be passed q = changed = None.

    ``keep`` is the budget the next doubling grants the entry, None outside
    the doubling scheduler.  With it, a judge cut whose floor is at most
    ``keep`` holds the run's meta bill and proposal in the ``held`` table,
    and the entry's next call resumes at the judge: it charges the bill and
    judges the held proposal without running the meta program.  When
    paranoid mode or the hook must see the run, the meta program runs
    anyway, and paranoid mode raises unless it reaches the judge with the
    held bill, edit record and task.
    """
    ctx = problem.ctx
    paranoid, hook = problem.paranoid, problem.on_candidate
    digest_before = ctx.scratch.digest() if paranoid else None
    meter = Meter(budget)
    record: CandidateRecord
    accepted: Optional[Acceptance] = None
    if caches is None:
        caches = fresh_caches()
    held = None
    if keep is not None:
        key = (total, entry[0])
        held = caches["held"].pop(key, None)
    try:
        if held is not None and not paranoid and hook is None:
            bill, proposal = held
            meter.charge(bill)
        else:
            proposal = run_meta(entry[1], entry[2], entry[3], ctx, meter)
            proposal.record = edit_record(caches, proposal.edits, ctx.solver)
            bill = meter.spent
            if held is not None:  # paranoid mode or the hook must see the run
                if paranoid:
                    _check_held(held, bill, proposal)
                held = None
        edit = proposal.record
        details = None
        if edit.fault is None:
            details = problem.judge(edit.q, edit.changed, proposal, meter, caches)
        if details is not None:
            record = CandidateRecord("accepted", meter.spent)
            accepted = Acceptance(program(entry, total), proposal, edit.applied()[0], details)
        else:
            record = CandidateRecord("rejected", meter.spent, edit.fault or "validation")
    except MalformedTask as exc:
        record = CandidateRecord("rejected", meter.spent, f"malformed_task: {exc}")
    except MalformedEdit as exc:
        record = CandidateRecord("rejected", meter.spent, f"malformed_edit: {exc}")
    except BudgetExhausted as exc:
        record = CandidateRecord("budget", budget, "budget", exc.floor)
        # Only the judge's cuts carry a floor.
        if keep is not None and exc.floor is not None and exc.floor <= keep:
            # Held, the proposal shares its record's script instead of
            # keeping this run's equal copy alive.
            proposal.edits = proposal.record.script
            caches["held"][key] = (bill, proposal)
    finally:
        undone = undo_storage(ctx.scratch) if ctx.scratch.journal else 0
    if paranoid:
        if held is not None:
            raise AssertionError(f"held bill {held[0]} but the run gave {record}")
        if ctx.scratch.digest() != digest_before:
            raise AssertionError("scratch storage not restored bit-exactly")
    if hook is not None:
        hook(program(entry, total), record, budget, undone)
    return record, accepted


def _check_held(held: tuple, bill: int, proposal: Proposal) -> None:
    """Paranoid mode: a held entry's run must reach the judge as it was held."""
    kept_bill, kept = held
    reached = (bill, proposal.task.identity(), proposal.record)
    if reached != (kept_bill, kept.task.identity(), kept.record):
        raise AssertionError(
            f"held bill {kept_bill} for task {kept.task.identity()}, but the run reached "
            f"the judge with {bill} for task {reached[1]}"
            + ("" if proposal.record is kept.record else " and another edit record")
        )


# ---------------------------------------------------------------------------
# The doubling scheduler
# ---------------------------------------------------------------------------


class _Unit:
    """The live candidates of one bucket that first became affordable together.

    ``live`` holds (StaticRecord, prior, members, floor) groups, one per set
    of entries that every doubling decides alike.  ``members`` are the
    group's entries in shortlex order, or just their number while the group
    holds every entry of its record: each group of a uniform unit does until
    it runs, and is built (CandidateSpace.group) only then.  ``floor`` is the
    least budget at which the judge can conclude, as an executed entry's cut
    reported it, or None when no run has reported one; the prior is None in
    uniform mode, where P(p) = 2**-total exactly.  Each doubling decides a
    group by one rule: without a floor by static_verdict, with one as cut
    while the budget is below it, then either kind by its task's table bill;
    of what is still undecided, each entry gets its group's segment check
    (segment_at, missing_segment), and the rest runs.
    """

    __slots__ = ("total", "live")

    def __init__(self, total: int, live: list):
        self.total = total
        self.live = live


def oops_search(
    problem: SearchProblem,
    step_ceiling: int,
    log: Optional[Callable] = None,
) -> tuple[Acceptance, PhaseStats]:
    """One phase of ordered search: double t_lim until a candidate validates.

    Each doubling visits the live candidates in the order they first became
    affordable, those of one doubling in shortlex order: in uniform mode
    that is plain shortlex, and in adapted mode the earlier cohorts' retries
    come before the newly affordable programs.  Conclusively rejected
    candidates would return the same verdict at any budget (everything is
    deterministic), so they are never visited again.  Each live group is
    decided by the one rule of _Unit and billed in bulk; only the rest run,
    one at a time.  A uniform bucket is counted when it becomes affordable,
    and each of its groups is built only when it must run; an adapted
    bucket's groups are all built then, because its priors are per entry.
    """
    stats = PhaseStats()
    space = candidate_space(problem.domain, problem.ctx.external_task is not None)
    prior = problem.prior
    uniform = not prior.adapted
    paranoid, hook = problem.paranoid, problem.on_candidate
    see = paranoid or hook is not None  # every entry decided without a run must be seen
    t_lim = 1
    stats.t_lim_trace.append(t_lim)
    caches = fresh_caches()
    ctx, table_bill = problem.ctx, problem.table_bill
    boundary = BoundaryVerdicts(ctx)
    segments = len(ctx.segments)
    units: list[_Unit] = []  # in visiting order
    deferred: dict[int, list] = {}  # adapted mode: total -> its unaffordable groups
    enumerated_upto = 3 * OPCODE_BITS - 1

    def table_cut(rec: StaticRecord, budget: int) -> bool:
        """For an append-only record: True when its task's table bill, if a
        table holds it yet, is more than the budget leaves."""
        if table_bill is None:
            return False
        task = boundary[rec.key][0]
        # apply_modification may refuse the automatic SetEntry of a frozen key.
        if task is None or task.entry_key in ctx.solver.frozen_entry_keys:
            return False
        owed = table_bill(task, caches)
        return owed is not None and rec.certain + owed > budget

    def check_known(entry: tuple, total: int, budget: int, decided: tuple, what: str) -> None:
        if paranoid:
            # The executed run is the oracle; it also feeds the hook.
            record, _ = try_candidate(entry, total, problem, budget, caches)
            if (record.verdict, record.steps, record.reason) != decided:
                raise AssertionError(f"{what} {decided} but the run gave {record}")
        else:
            hook(program(entry, total), CandidateRecord(*decided), budget, 0)

    def entries_of(total: int, group: tuple) -> list:
        """A group's entries; a count stands for all of its record's."""
        rec, _p, members, _floor = group
        return space.group(total, rec) if type(members) is int else members

    def bill(total: int, known: list, below: Optional[int]) -> None:
        """Bill the entries decided without a run, those valued below ``below`` only."""
        for group, _budget, (_verdict, steps, _reason), _what in known:
            members = group[2]
            if below is None:
                n = members if type(members) is int else len(members)
            elif type(members) is int:
                n = space.count_below(total, group[0], below)
            else:
                n = bisect_left(members, below, key=itemgetter(0))
            stats.candidates_run += n
            stats.steps_total += n * steps

    def visit(unit: _Unit) -> Optional[Acceptance]:
        total = unit.total

        def budget_of(p, t: int) -> int:
            # t is a power of two at least 2**total, so t >> total is
            # exactly ceil(2**-total * t).
            return t >> total if p is None else ceil_fraction(p * t)

        # known: (group, budget, (verdict, steps, reason), what decided it)
        known: list = []
        # (group, budget, the next doubling's budget, segment_at) of the
        # groups left undecided
        runs: list = []
        live: list = []  # groups decided "budget", live at the next doubling
        for group in unit.live:
            rec, p, _members, floor = group
            budget = budget_of(p, t_lim)
            if floor is None:
                decided, what = static_verdict(rec, budget, boundary), "static verdict"
            elif budget < floor:
                decided, what = ("budget", budget, "budget"), "parked below its floor"
            else:
                decided = None
            if decided is None and rec.append_only and table_cut(rec, budget):
                decided, what = ("budget", budget, "budget"), "table verdict"
            if decided is None:
                runs.append((group, budget, budget_of(p, 2 * t_lim), segment_at(rec)))
                continue
            known.append((group, budget, decided, what))
            if decided[0] == "budget":
                live.append(group)
        # Only groups that run, or every group when every entry must be
        # seen, are built.  A bucket's entries share one length, so value
        # order is shortlex order, and no two share a value, so the sort
        # compares the int values alone.  A group's entries share its
        # budgets and its segment index.
        visits = [(e[0], e, run, None) for run in runs for e in entries_of(total, run[0])]
        if see:
            visits += [(e[0], e, None, k) for k in known for e in entries_of(total, k[0])]
        visits.sort()
        cut: dict = {}  # (record, prior, floor) -> the entries cut at their turn
        for v, entry, run, item in visits:
            if item is not None:
                check_known(entry, total, *item[1:])
                continue
            group, budget, keep, at = run
            rec = group[0]
            # A running group's key passed the boundary: static_verdict or
            # an earlier run of the group said so.
            reason = None if at is None else missing_segment(entry[2], at, segments)
            if reason is not None:
                decided, what = ("rejected", rec.certain, reason), "segment verdict"
            elif rec.append_only and table_cut(rec, budget):
                # The entry may be written since the visit began.
                decided, what = ("budget", budget, "budget"), "table verdict"
            else:
                decided = None
            if decided is None:
                record, acc = try_candidate(entry, total, problem, budget, caches, keep)
            else:
                record, acc = CandidateRecord(*decided), None
                if see:
                    check_known(entry, total, budget, decided, what)
            stats.candidates_run += 1
            stats.steps_total += record.steps
            if record.steps > budget:
                stats.budget_violations += 1
            if acc is not None:
                bill(total, known, v)
                stats.t_lim = t_lim
                return acc
            if record.verdict == "budget":
                cut.setdefault((rec, group[1], record.floor), []).append(entry)
        bill(total, known, None)
        live.extend((rec, p, entries, floor) for (rec, p, floor), entries in cut.items())
        unit.live = live
        return None

    def affordable(total: int) -> list:
        """Split adapted-mode groups by prior; defer the ones not yet affordable."""
        ready: list = []
        later: list = []
        for rec, _n in space.counted_bucket(total):
            by_prior: dict = {}
            for entry in space.group(total, rec):
                _v, i1, i2, i3 = entry
                seq = opcode_sequence(i1, i2, i3)
                nibbles = (total - OPCODE_BITS * len(seq)) // ARG_BITS
                by_prior.setdefault(prior.program_prior(seq, nibbles), []).append(entry)
            for p, members in by_prior.items():
                (ready if p * t_lim >= 1 else later).append((rec, p, members, None))
        if later:
            deferred[total] = later
        return ready

    while True:
        t_lim *= 2
        if t_lim > step_ceiling:
            raise SearchCeilingReached(
                f"no acceptable pair within t_lim ceiling {step_ceiling}"
            )
        stats.t_lim_trace.append(t_lim)
        max_bits = max_affordable_bits(prior, t_lim, space)
        if log:
            log({"event": "doubling", "t_lim": t_lim, "max_bits": max_bits})

        # Earlier cohorts first: in uniform mode their candidates are all
        # shorter than anything new.
        for unit in units:
            acc = visit(unit)
            if acc is not None:
                return acc, stats
        units = [unit for unit in units if unit.live]
        # This doubling's cohort: adapted mode's previously enumerated but
        # then-unaffordable programs, then the newly reachable lengths.
        for total in sorted(deferred):
            later = deferred[total]
            ready = [g for g in later if g[1] * t_lim >= 1]
            if not ready:
                continue
            later = [g for g in later if g[1] * t_lim < 1]
            if later:
                deferred[total] = later
            else:
                del deferred[total]
            unit = _Unit(total, ready)
            acc = visit(unit)
            if acc is not None:
                return acc, stats
            units.append(unit)
        for total in range(enumerated_upto + 1, max_bits + 1):
            if uniform:
                counted = space.counted_bucket(total)
                unit = _Unit(total, [(rec, None, n, None) for rec, n in counted])
            else:
                unit = _Unit(total, affordable(total))
            acc = visit(unit)
            if acc is not None:
                return acc, stats
            units.append(unit)
        enumerated_upto = max(enumerated_upto, max_bits)


# ---------------------------------------------------------------------------
# Stochastic baseline
# ---------------------------------------------------------------------------


def _sample_candidate(
    rng: random.Random, weights: dict, space: CandidateSpace
) -> MetaProgram:
    def weighted(codes):
        return rng.choices(codes, weights=[weights[c] for c in codes], k=1)[0]

    def rand_args(code):
        return tuple(rng.randrange(16) for _ in range(META_ISA.by_code[code].nibbles))

    inventor = []
    if not space.external:
        for _ in range(rng.choices([0, 1, 2], weights=[16, 2, 1], k=1)[0]):
            c = weighted(space.compute_ops)
            inventor.append((c, rand_args(c)))
        t = weighted(space.task_ops)
        inventor.append((t, rand_args(t)))
    modifier = []
    e = weighted(space.edit_ops)
    modifier.append((e, rand_args(e)))
    while rng.random() < 0.2:
        c = weighted(space.edit_ops + space.compute_ops)
        modifier.append((c, rand_args(c)))
    directives = ((M_V_DESC, ()),) if rng.random() < 1 / 16 else ()

    from .codec import encode

    code = encode(inventor, META_ISA) + encode(modifier, META_ISA) + encode(
        directives, META_ISA
    )
    return MetaProgram(code, tuple(inventor), tuple(modifier), tuple(directives))


def stochastic_search(
    problem: SearchProblem,
    seed: int,
    phase_index: int,
    candidate_budget: int = 4096,
    max_candidates: int = 200_000,
    log: Optional[Callable] = None,
) -> tuple[Acceptance, PhaseStats]:
    """Hill-climbing baseline: sample (task, edit) proposals by the prior's
    opcode weights and keep the first accepted one.

    The engine's commit counts the winner's opcodes in those weights, which
    shifts the proposal distribution toward it.  Reseeded per phase from
    (seed, phase index) so an interrupted run resumes on exactly the same
    trajectory.  Acceptance goes through the very same judge as the ordered
    scheduler.
    """
    stats = PhaseStats()
    space = candidate_space(problem.domain, problem.ctx.external_task is not None)
    rng = random.Random(f"{seed}:{phase_index}")
    caches = fresh_caches()
    for trial in range(max_candidates):
        meta = _sample_candidate(rng, problem.prior.weights, space)
        entry = (meta.code.value, *meta.parts)
        record, acc = try_candidate(entry, meta.code.length, problem, candidate_budget, caches)
        stats.candidates_run += 1
        stats.steps_total += record.steps
        if acc is not None:
            stats.t_lim = candidate_budget
            return acc, stats
    raise SearchCeilingReached(f"no acceptance within {max_candidates} samples")
