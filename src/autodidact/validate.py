"""Correctness demonstration: novelty, new-task success, and no skill lost.

The usage index keeps, for every solver component k, the list of repertoire
tasks whose current solutions execute component k at least once, plus the
tasks reachable through each entry-table key.  An edit then only forces
re-checking the union of the lists it touched; everything else is provably
unaffected because runs are deterministic and slot-local.  A dedicated
full-revalidation oracle (also used by paranoid mode and the audit tool)
re-tests everything and must always agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import costs
from .tasks import (
    FAULTED,
    DecisionTask,
    SolveReport,
    Trace,
    least_grant,
    replay_check,
    report_within,
    run_record,
    solves,
)
from .vm import Changed, SolverProgram


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

    index: int  # 1-based phase index
    task: object
    trace: Optional[Trace]  # decision tasks only
    components_used: frozenset = frozenset()
    origin: str = "self"

    @property
    def entry_key(self) -> str:
        return self.task.entry_key


class UsageIndex:
    """Component index k -> task indices, plus entry key -> task indices."""

    def __init__(self):
        self.by_component: dict[int, set[int]] = {}
        self.by_entry: dict[str, set[int]] = {}

    def record(self, task_index: int, components: frozenset, entry_key: str) -> None:
        """Install or refresh one task's usage, dropping stale rows."""
        for k, members in list(self.by_component.items()):
            if task_index in members and k not in components:
                members.discard(task_index)
                if not members:
                    del self.by_component[k]
        for k in components:
            self.by_component.setdefault(k, set()).add(task_index)
        for key, members in list(self.by_entry.items()):
            if task_index in members and key != entry_key:
                members.discard(task_index)
                if not members:
                    del self.by_entry[key]
        self.by_entry.setdefault(entry_key, set()).add(task_index)

    def snapshot(self) -> tuple:
        return (
            tuple(sorted((k, tuple(sorted(v))) for k, v in self.by_component.items() if v)),
            tuple(sorted((k, tuple(sorted(v))) for k, v in self.by_entry.items() if v)),
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, UsageIndex) and self.snapshot() == other.snapshot()


def rebuild_usage(
    solver: SolverProgram, repertoire: list[RepertoireItem], params=None
) -> tuple[UsageIndex, dict]:
    """Recompute the whole index from stored solutions (the rebuild oracle).

    Each item's ``components_used`` is refreshed from its run.
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
        item.components_used = report.components_used
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


class EditRecord:
    """One edit script applied to the phase's solver, and what judging it ran.

    Built once per script and phase, on the first candidate that proposes
    it.  ``q`` and ``changed`` are apply_modification's result, or ``fault``
    holds the (exception type, message) it raised.  ``todo`` is the sorted
    revalidation set and ``size`` is L(q) - L(s), each filled on first use.
    ``pairs`` maps a task identity to the judge's conclusive verdict and
    bill (the pair cache), and ``runs`` holds one run_record of q per task
    at the task's whole bound, keyed by task identity for a proposed task
    and by repertoire index for a stored one.

    The tables outlive q: a record made with ``apply`` may release q and
    changed, and applied() rebuilds them from ``script`` and ``base``, the
    phase's solver, on the rare table miss after that.  A phase keeps
    thousands of records, and q is a whole solver.
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
        """(q, changed), applying the script again if they were released."""
        if self.q is None:
            self.q, self.changed = self.apply(self.base, self.script)
        return self.q, self.changed

    def release(self) -> None:
        if self.apply is not None:
            self.q = self.changed = None

    def revalidation(self, usage: UsageIndex) -> tuple:
        if self.todo is None:
            self.todo = tuple(sorted(revalidate_set(usage, self.applied()[1])))
        return self.todo


def table_run(runs: dict, key, live) -> tuple:
    """runs[key], made on first use from live(None), a run at the whole bound."""
    run = runs.get(key)
    if run is None:
        run = runs[key] = run_record(live(None))
    return run


class ChainFloor:
    """The least budget under which a judge's chain of stages concludes.

    Stages are added in order, cut or not: each stage needs its least grant
    on top of what the stages before it bill under theirs.  ``floor`` is
    that budget so far and ``least`` what the stages bill under it; both
    start at what the judge billed before the first stage added.
    """

    __slots__ = ("floor", "least")

    def __init__(self, billed: int = 0):
        self.floor = self.least = billed

    def add(self, run: tuple, bound: int, last: bool = True) -> None:
        need = least_grant(run, bound, last)
        self.floor = max(self.floor, self.least + need)
        self.least += report_within(run, need, bound)[1]


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


@dataclass
class ValidationReport:
    novel: bool = False
    solves_new: bool = False
    preserved: bool = False
    revalidated_tasks: tuple = ()
    steps_spent: int = 0
    new_outcome: Optional[SolveReport] = None
    new_trace: Optional[Trace] = None
    revalidation_reports: dict = field(default_factory=dict)

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
    then come from ``edit``).  ``novelty_cache`` maps a task identity to the
    first conclusive novelty verdict and its bill.  Without them the tables
    last for this call only.

    A cut carries its floor, the least budget under which the whole chain
    concludes: each stage needs its least grant (the cached bill for
    novelty) on top of what the stages before it bill under theirs.  One
    exception: while the cache lacks the task, a novelty run that faults
    bills its whole grant, and the first run to conclude writes that bill
    to the cache; so the floor stops where the novelty stage concludes.
    Only an accepted report carries the new task's SolveReport, its trace
    and the revalidation reports, from live runs of the winner.
    """
    if novelty_cache is None:
        novelty_cache = {}
    if prev_runs is None:
        prev_runs = {}
    if edit is None:
        edit = EditRecord(q, changed)
    report = ValidationReport()
    left = budget
    cut = False
    cap = None  # where a faulting novelty run would first conclude

    # Novelty: identical candidates cannot be both novel and newly solving.
    identity = task.identity()
    hit = novelty_cache.get(identity)
    if hit is not None:
        prev_solves, billed = hit
        cut = billed > left
    else:
        live = lambda b: solves(s_prev, task, b)[0]  # noqa: E731
        run = table_run(prev_runs, identity, live)
        prev_ok, billed = table_answer(run, live, left, task.t, paranoid)
        if prev_ok is not None:
            prev_solves = prev_ok
            novelty_cache[identity] = (prev_solves, billed)
        else:
            cut, prev_solves = True, run[2]
            if run[0] == FAULTED:
                cap = max(1, run[1])
    if identity in novelty_cache:  # later runs bill what the cache holds
        chain = ChainFloor(novelty_cache[identity][1])
    else:
        chain = ChainFloor()
        chain.add(run, task.t)
    if not cut:
        left -= billed

    def stage(key, live, bound) -> bool:
        """Bill one stage of q's, or note its cut; returns its verdict."""
        nonlocal left, cut
        run = table_run(edit.runs, key, live)
        if cut:  # the verdicts still set the chain, and so the floor
            ok = run[2]
        else:
            ok, billed = table_answer(run, live, left, bound, paranoid)
            if ok is None:
                cut, ok = True, run[2]
            else:
                left -= billed
        chain.add(run, bound)
        return ok

    # Then q on the new task, then every stored task the edit may touch, in
    # order; the chain stops at its first failure.
    report.novel = not prev_solves
    todo, done = (), []
    if report.novel:
        live = lambda b: solves(edit.applied()[0], task, b)[0]  # noqa: E731
        report.solves_new = stage(identity, live, task.t)
    if report.solves_new:
        todo = edit.revalidation(usage)
        by_index = {item.index: item for item in repertoire} if todo else {}
        report.preserved = True
        for j in todo:
            item = by_index[j]
            done.append(j)
            live = lambda b, item=item: preservation_run(edit.applied()[0], item, b)[0]  # noqa: E731
            if not stage(j, live, item.task.t):
                report.preserved = False
                break
    if cut:
        raise BudgetExhausted(budget, chain.floor if cap is None else cap)
    report.revalidated_tasks = tuple(done)
    report.steps_spent = budget - left

    if report.accepted:
        q = edit.applied()[0]
        report.new_outcome, report.new_trace = solves(q, task)
        for j in done:
            report.revalidation_reports[j] = preservation_run(q, by_index[j])[0]
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
