"""Correctness demonstration: novelty, new-task success, and no skill lost.

The usage index keeps, for every solver component k, the list of repertoire
tasks whose current solutions execute component k at least once, plus the
tasks reachable through each entry-table key.  An edit then only forces
re-checking the union of the lists it touched; everything else is provably
unaffected because runs are deterministic and slot-local.  A dedicated
full-revalidation oracle (also used by paranoid mode and the audit tool)
re-tests everything and must always agree.

The judge answers every stage from run tables: one record per run at the
task's whole bound, made by tasks.record_run straight from the
interpreter's result.  Only what needs more than the record runs live: the
winner's runs (its Details), paranoid mode's check of every table answer,
and rebuild_usage.  A run of a modified solver that starts at a segment its
edit appended, and stays in it, is the segment's own run: the run's
SegmentTable keeps it across phases, and the edit's modified solver is
built only for a run that needs it (SegmentEdit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import costs
from .tasks import (
    FAULTED,
    DecisionTask,
    SolveReport,
    Trace,
    least_grant,
    record_run,
    replay_check,
    report_within,
    segment_record,
    solves,
)
from .vm import Changed, SolverProgram, segment_changed


class BudgetExhausted(Exception):
    """Validation ran out of steps before reaching a verdict: reject, retry later.

    ``floor``, when set, is the least budget under which the run gets past
    the cut: the judge's whole chain of stages concludes there, or, where a
    table entry the run would write depends on its grant, that stage does.
    Every run under a smaller budget is cut the same way and writes nothing.
    Every judge cut carries one; cuts inside the meta program do not.

    The scheduler raises one per cut and never prints it, so the message is
    only built when something asks for it.
    """

    def __init__(self, steps_spent: int, floor: Optional[int] = None):
        self.steps_spent = steps_spent
        self.floor = floor

    def __str__(self) -> str:
        return f"validation budget exhausted after {self.steps_spent} steps"


@dataclass
class RepertoireItem:
    """Working state for one learned task."""

    index: int  # 1-based position in the repertoire
    task: object
    trace: Optional[Trace]  # decision tasks only

    @property
    def entry_key(self) -> str:
        return self.task.entry_key


class UsageIndex:
    """Component index k -> task indices, plus entry key -> task indices.

    ``rows`` keeps each task's current components and entry key, the one
    record of what each task's run uses, so that refreshing a task touches
    only its own old and new rows.
    """

    def __init__(self):
        self.by_component: dict[int, set[int]] = {}
        self.by_entry: dict[str, set[int]] = {}
        self.rows: dict[int, tuple[frozenset, str]] = {}  # task index -> its usage

    def record(self, task_index: int, components: frozenset, entry_key: str) -> None:
        """Install or refresh one task's usage, dropping its stale rows."""
        old = self.rows.get(task_index)
        if old is not None:
            old_components, old_key = old
            for k in old_components - components:
                _drop(self.by_component, k, task_index)
            if old_key != entry_key:
                _drop(self.by_entry, old_key, task_index)
        for k in components:
            self.by_component.setdefault(k, set()).add(task_index)
        self.by_entry.setdefault(entry_key, set()).add(task_index)
        self.rows[task_index] = (components, entry_key)

    def snapshot(self) -> tuple:
        return (
            tuple(sorted((k, tuple(sorted(v))) for k, v in self.by_component.items() if v)),
            tuple(sorted((k, tuple(sorted(v))) for k, v in self.by_entry.items() if v)),
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, UsageIndex) and self.snapshot() == other.snapshot()


def _drop(rows: dict, key, task_index: int) -> None:
    """Take task_index out of rows[key], and the row out once it is empty."""
    members = rows.get(key)
    if members is not None:
        members.discard(task_index)
        if not members:
            del rows[key]


def rebuild_usage(
    solver: SolverProgram, repertoire: list[RepertoireItem], params=None
) -> tuple[UsageIndex, dict]:
    """Recompute the whole index from stored solutions (the rebuild oracle).

    Given CostParams, tasks are measured as the cost variant judges them
    (``costs.measure_task``) and their measures come back by task identity;
    otherwise they are re-run or replayed, and the dict is empty.
    """
    fresh = UsageIndex()
    measures = {}
    for item in repertoire:
        if params is None:
            report, _trace = preservation_run(solver, item)
        else:
            measure, _trace, report = costs.measure_task(solver, item.task, params, item.trace)
            measures[item.task.identity()] = measure
        fresh.record(item.index, report.components_used, item.entry_key)
    return fresh, measures


def update_usage(
    usage: UsageIndex, per_task_usage: dict[int, tuple[frozenset, str]]
) -> UsageIndex:
    """Fold fresh per-task usage into the index; rows gain and lose members."""
    for task_index, (components, entry_key) in sorted(per_task_usage.items()):
        usage.record(task_index, components, entry_key)
    return usage


def revalidate_set(usage: UsageIndex, changed: Changed) -> set[int]:
    """Tasks that must be re-checked after an edit: the union of touched rows.

    Append-only edits under a frozen prefix touch no populated row, so the
    result is empty and old tasks are safe by construction.
    """
    out: set[int] = set()
    for k in changed.slots:
        out |= usage.by_component.get(k, set())
    for key in changed.entry_keys:
        out |= usage.by_entry.get(key, set())
    return out


# ---------------------------------------------------------------------------
# Demonstration
# ---------------------------------------------------------------------------


# The verdict a pair-cache slot holds for a cut: its bill is then the floor.
CUT = "cut"


class EditRecord:
    """One edit script applied to the phase's solver, and what judging it ran.

    Built once per script and phase, on the first candidate that proposes
    it.  ``fault`` holds the rejection reason of an edit apply_modification
    would refuse, and ``q`` and ``changed`` are its result.  The script is
    applied when its record is made, to find its fault, except in a
    SegmentEdit, which builds q only when a stage needs it.
    ``todo`` is the sorted revalidation set, filled on first use, and
    ``size`` is L(q) - L(s), filled from the script (vm.size_change) by the
    first judge call on the edit that concludes.
    ``pairs`` maps a task identity to the judge's conclusive verdict and
    bill (the pair cache), or to (CUT, floor) once a judge cut of that pair
    had a floor that is final for the phase: the least budget, counted from
    the judge's start, under which the pair concludes.  ``runs`` holds one
    run_record of q per task at the task's whole bound, keyed by task
    identity for a proposed task and by repertoire index for a stored one.

    The tables outlive q: a record made with ``apply`` may release q and
    changed, and applied() rebuilds them from ``script`` and ``base``, the
    phase's solver, when a stage needs them again.  A phase keeps thousands
    of records, and each q would be a copy of the phase's solver.
    """

    __slots__ = (
        "q", "changed", "fault", "script", "base", "apply", "todo", "size", "pairs", "runs"
    )

    def __init__(self, q=None, changed=None, fault=None, script=(), base=None, apply=None):
        self.q = q
        self.changed = changed
        self.fault = fault
        self.script = script
        self.base = base
        self.apply = apply
        self.todo = None
        self.size = None
        self.pairs: dict = {}
        self.runs: dict = {}

    def applied(self) -> tuple:
        """(q, changed), applying the script if they are not built."""
        if self.q is None:
            self.q, self.changed = self.apply(self.base, self.script)
        return self.q, self.changed

    def release(self) -> None:
        if self.apply is not None:
            self.q = self.changed = None

    def changes(self) -> Changed:
        """changed, applying the script if it is not built."""
        return self.applied()[1]

    def revalidation(self, usage: UsageIndex) -> tuple:
        if self.todo is None:
            self.todo = tuple(sorted(revalidate_set(usage, self.changes())))
        return self.todo

    def q_record(self, task, trace=None, index: int = 0, table: Optional["SegmentTable"] = None):
        """record_run(q, task, trace): q's run on the task at its whole bound.

        ``index`` is the repertoire index of a stored task whose ``trace``
        is replayed, and ``table`` the run's SegmentTable; only a
        SegmentEdit reads them.
        """
        return record_run(self.applied()[0], task, trace)


class SegmentEdit(EditRecord):
    """The EditRecord of a script that appends a segment and routes a key at it.

    ``code`` is the segment, vm.appended_segment's reading of the script:
    its fault and changed set come from the script alone, and q_record reads
    a run that starts at the segment, on a task whose key is the routed one,
    off the run's SegmentTable when it stays in the segment.  So q is built
    only for a run that leaves the segment, a revalidation that starts in
    s, the winner's Details or paranoid mode's live check.
    """

    __slots__ = ("code",)

    def __init__(self, code: tuple, script: tuple, base: SolverProgram, apply):
        super().__init__(None, None, None, script, base, apply)
        self.code = code

    def changes(self) -> Changed:
        return segment_changed(self.base, self.script)

    def q_record(self, task, trace=None, index: int = 0, table: Optional["SegmentTable"] = None):
        if table is not None and self.script[-1].key == task.entry_key:
            run = table.record(self.code, task, trace, index)
            if run is not None:
                kind, executed, success, count = run
                size = len(self.base.instructions) + len(self.code)
                return kind, executed, success and size < task.n, count
        return record_run(self.applied()[0], task, trace)


# What the segment table holds for a segment whose run jumps out of it.
LEAVES = ()


class SegmentTable:
    """Runs of appended segments on their own, for the whole run.

    Phases restart at t_lim = 1 and judge the same (segment, task) pairs
    again, and a segment's run does not depend on the solver it is appended
    to (tasks.segment_record).  So the table keeps tasks.segment_record of
    (code, task, stored trace) for every segment a q stage ran, by the
    code, the repertoire index whose stored trace is replayed (0 for a live
    run) and the task's identity, which covers its bounds; LEAVES for a run
    that jumps out of its segment.  The index names one trace for the whole
    run, because a stored task keeps its trace.  It is nested by code and
    index, and equal records are shared, so that it keeps one copy of each
    code and each distinct record: a run judges many tasks on each of a
    few distinct segments, and few distinct records come out.
    """

    __slots__ = ("by_code", "shared")

    def __init__(self):
        self.by_code: dict = {}  # code -> index -> task identity -> record
        self.shared: dict = {}  # record -> itself

    def record(self, code: tuple, task, trace=None, index: int = 0) -> Optional[tuple]:
        """segment_record(code, task, trace), or None for a run that leaves
        the segment; ``index`` is the stored task's when trace is its trace."""
        by_index = self.by_code.get(code)
        if by_index is None:
            by_index = self.by_code[code] = {}
        replayed = index if trace is not None else 0
        by_task = by_index.get(replayed)
        if by_task is None:
            by_task = by_index[replayed] = {}
        identity = task.identity()
        run = by_task.get(identity)
        if run is None:
            run = segment_record(code, task, trace) or LEAVES
            run = by_task[identity] = self.shared.setdefault(run, run)
        return None if run is LEAVES else run


def table_run(runs: dict, key, record) -> tuple:
    """runs[key], made on first use by record(), the tasks.record_run of the
    stage's run at the whole bound: a table keeps only that record, so the
    run builds nothing that only a live report keeps."""
    run = runs.get(key)
    if run is None:
        run = runs[key] = record()
    return run


def table_answer(run: tuple, live, budget: int, bound: int, paranoid: bool = False):
    """A stage's answer under ``budget``, read off its run by the prefix rule.

    ``run`` is the run_record of ``live(None)``, the stage at the whole
    bound, and ``live(budget)`` returns the stage's SolveReport.  Paranoid
    mode runs it under ``budget`` too and raises on any difference, the
    component count of a conclusive run included.  Returns (success or None
    when cut, steps billed).
    """
    answer = report_within(run, budget, bound)
    if paranoid:
        rep = live(budget)
        seen = (rep.success if rep.conclusive else None, rep.steps)
        if seen != answer or (rep.conclusive and len(rep.components_used) != run[3]):
            raise AssertionError(f"run table gave {answer} of {run}, a live run {rep}")
    return answer


class Chain:
    """A judge's stages in order, each answered under what the ones before left.

    Both acceptance rules judge this way.  Each stage is answered from its
    run at the whole bound (table_answer) under ``left`` and billed to it;
    the first stage that does not conclude cuts the chain, and the stages
    after a cut are answered by nothing.  Every stage, cut or not, stacks
    its floor: it needs its least grant on top of what the stages before it
    bill under theirs.  ``floor`` is the least budget under which the chain
    so far concludes and ``least`` what it bills there; both start at
    ``billed``, a bill already read off a cache, which is charged first.

    ``spent`` is what the candidate was billed before the judge, so a cut is
    raised once, with its floor counted from the candidate's start.  ``pair``
    is the pair-cache slot, (EditRecord.pairs, task identity), in which a cut
    stores its floor; pass it only when that floor is final for the phase.
    """

    __slots__ = ("budget", "left", "cut", "floor", "least", "paranoid", "spent", "pair")

    def __init__(
        self,
        budget: int,
        billed: int = 0,
        paranoid: bool = False,
        spent: int = 0,
        pair: Optional[tuple] = None,
    ):
        self.budget = budget
        self.cut = billed > budget
        self.left = budget if self.cut else budget - billed
        self.floor = self.least = billed
        self.paranoid = paranoid
        self.spent = spent
        self.pair = pair

    def stage(self, run: tuple, live, bound: int, last: bool = True) -> tuple:
        """The next stage's (success, steps billed), its floor stacked.

        Once the chain is cut, a stage bills 0 and its success is its run's,
        which still decides where a judge's chain stops, and so the floor.
        """
        need = least_grant(run, bound, last)
        self.floor = max(self.floor, self.least + need)
        self.least += report_within(run, need, bound)[1]
        if not self.cut:
            ok, billed = table_answer(run, live, self.left, bound, self.paranoid)
            if ok is not None:
                self.left -= billed
                return ok, billed
            self.cut = True
        return run[2], 0

    def conclude(self, cap: Optional[int] = None) -> int:
        """Steps the chain billed; a cut raises BudgetExhausted with its floor,
        or with ``cap`` where a table entry the run would write depends on
        its grant (such a floor is never stored)."""
        if self.cut:
            if cap is None:
                cap = self.floor
                if self.pair is not None:
                    pairs, identity = self.pair
                    pairs[identity] = (CUT, cap)
            raise BudgetExhausted(self.spent + self.budget, self.spent + cap)
        return self.budget - self.left


@dataclass
class Details:
    """What an accepted judge call hands to the commit, from live runs of the winner.

    Both judges build one, and the commit reads only these four fields.
    ``usage`` maps a repertoire index to the components its run under the
    winner used, for every usage row the acceptance changes: each stored
    task run again, and the new task's row, at ``len(repertoire) + 1`` when
    the task is new.  ``meta`` holds the judge's fields of the entry's
    meta: ``wow``, ``steps``, ``validation_steps``, ``revalidated`` (distinct
    stored tasks run again) and ``forgotten`` in both variants; variant II
    adds ``solved_count``, ``sum_t_old_before``, ``sum_t_old_after`` and
    ``cost_params``.  ``ledger`` is variant II's (str(c), str(c*), the
    measures under the winner by task identity), else None.
    """

    trace: Optional[Trace]  # the new task's fresh trace, or None
    usage: dict
    meta: dict
    ledger: Optional[tuple] = None


@dataclass
class ValidationReport:
    """Variant I's verdict; ``details`` is set on acceptance only."""

    novel: bool = False
    solves_new: bool = False
    preserved: bool = False
    revalidated_tasks: tuple = ()
    steps_spent: int = 0
    details: Optional[Details] = None

    @property
    def accepted(self) -> bool:
        return self.novel and self.solves_new and self.preserved


def preservation_run(
    solver: SolverProgram, item: RepertoireItem, budget: Optional[int] = None
) -> tuple[SolveReport, Optional[Trace]]:
    """Pattern tasks are re-run; decision tasks replay their stored trace."""
    if isinstance(item.task, DecisionTask):
        return replay_check(solver, item.task, item.trace, budget), item.trace
    return solves(solver, item.task, budget)


def demonstrate(
    q: SolverProgram,
    s_prev: SolverProgram,
    task,
    repertoire: list[RepertoireItem],
    usage: UsageIndex,
    changed: Changed,
    budget: int,
    paranoid: bool = False,
    novelty_cache: Optional[dict] = None,
    prev_runs: Optional[dict] = None,
    edit: Optional[EditRecord] = None,
    spent: int = 0,
    segment_table: Optional[SegmentTable] = None,
) -> ValidationReport:
    """Run the full acceptance obligation for candidate q against task.

    Checks, in order of cost: the previous solver fails the task within its
    bounds, q solves it, and every task whose solution the edit could touch
    still passes.  All step usage is charged against ``budget``; running dry
    before a verdict raises BudgetExhausted (the candidate is rejected now
    and retried when the scheduler doubles its allowance).

    Every stage is answered by the prefix rule (tasks.report_within) from
    one run at the task's whole bound: ``prev_runs`` maps a task identity
    to the previous solver's run, and ``edit.runs`` holds q's (q and changed
    then come from ``edit``), each read off ``segment_table`` where it can
    be (EditRecord.q_record).  ``novelty_cache`` maps a task identity to
    the first conclusive novelty verdict and its bill.  Without them the
    tables last for this call only.

    The stages run as one Chain, so a cut carries its floor, the least
    budget under which the whole chain concludes, counted from ``spent``,
    what the candidate was billed before the judge.  Once the cache holds
    the task, the chain starts at the cached bill, and its floor is final
    for the phase, so a cut stores it in the pair's slot of ``edit.pairs``.
    One exception: while the cache lacks the task, a novelty run that
    faults bills its whole grant, and the first run to conclude writes that
    bill to the cache; so the floor stops where the novelty stage concludes.
    Only an accepted report carries Details, from live runs of the winner:
    the new task's trace, every usage row the acceptance changes, and the
    entry's judge fields.
    """
    if novelty_cache is None:
        novelty_cache = {}
    if prev_runs is None:
        prev_runs = {}
    if edit is None:
        edit = EditRecord(q, changed)
    report = ValidationReport()
    cap = None  # where a faulting novelty run would first conclude

    # Novelty: identical candidates cannot be both novel and newly solving.
    identity = task.identity()
    hit = novelty_cache.get(identity)
    if hit is None:
        chain = Chain(budget, paranoid=paranoid, spent=spent)
        live = lambda b: solves(s_prev, task, b)[0]  # noqa: E731
        run = table_run(prev_runs, identity, lambda: record_run(s_prev, task))
        prev_solves, billed = chain.stage(run, live, task.t)
        if not chain.cut:
            hit = novelty_cache[identity] = (prev_solves, billed)
        elif run[0] == FAULTED:
            cap = max(1, run[1])
    if hit is not None:  # this and later runs bill what the cache holds
        prev_solves, billed = hit
        chain = Chain(budget, billed, paranoid, spent, pair=(edit.pairs, identity))

    # Then q on the new task, then every stored task the edit may touch, in
    # order; the chain stops at its first failure.
    report.novel = not prev_solves
    todo, done = (), []
    if report.novel:
        live = lambda b: solves(edit.applied()[0], task, b)[0]  # noqa: E731
        record = lambda: edit.q_record(task, table=segment_table)  # noqa: E731
        report.solves_new = chain.stage(table_run(edit.runs, identity, record), live, task.t)[0]
    if report.solves_new:
        todo = edit.revalidation(usage)
        report.preserved = True
        for j in todo:
            item = repertoire[j - 1]  # an item's index is its 1-based position
            done.append(j)
            live = lambda b, item=item: preservation_run(edit.applied()[0], item, b)[0]  # noqa: E731
            run = table_run(
                edit.runs, j, lambda: edit.q_record(item.task, item.trace, j, segment_table)
            )
            if not chain.stage(run, live, item.task.t)[0]:
                report.preserved = False
                break
    report.steps_spent = chain.conclude(cap)
    report.revalidated_tasks = tuple(done)

    if report.accepted:
        q = edit.applied()[0]
        new, trace = solves(q, task)
        rows = {j: preservation_run(q, repertoire[j - 1])[0].components_used for j in done}
        rows[len(repertoire) + 1] = new.components_used
        meta = {
            "wow": task.entry_key in usage.by_entry,
            "steps": new.steps,
            "validation_steps": report.steps_spent,
            "revalidated": len(done),
            "forgotten": 0,
        }
        report.details = Details(trace, rows, meta)
        if paranoid and not full_revalidation(q, repertoire):
            raise AssertionError(
                "incremental revalidation accepted a candidate the full oracle rejects"
            )
    return report


def full_revalidation(q: SolverProgram, repertoire: list[RepertoireItem]) -> bool:
    """The naive oracle: re-test q on every stored task, no index involved."""
    for item in repertoire:
        rep, _ = preservation_run(q, item)
        if not rep.success:
            return False
    return True
