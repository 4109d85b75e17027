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
from .tasks import DecisionTask, SolveReport, Trace, replay_check, solves
from .vm import Changed, SolverProgram


class BudgetExhausted(Exception):
    """Validation ran out of steps before reaching a verdict: reject, retry later.

    ``floor``, when set, is the least budget at which the cut stage can
    conclude.  Only cuts read off a table written once per phase carry one,
    and every later run under a smaller budget is cut the same way.

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
    steps: int = 0
    origin: str = "self"

    @property
    def entry_key(self) -> str:
        return self.task.entry_key


class UsageIndex:
    """Component index k -> task indices, plus entry key -> task indices."""

    def __init__(self):
        self.by_component: dict[int, set[int]] = {}
        self.by_entry: dict[str, set[int]] = {}

    def tasks_for_component(self, k: int) -> set[int]:
        return self.by_component.get(k, set())

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

    Each item's ``components_used`` and ``steps`` are refreshed from its run.
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
        item.steps = report.steps
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
) -> ValidationReport:
    """Run the full acceptance obligation for candidate q against task.

    Checks, in order of cost: the previous solver fails the task within its
    bounds, q solves it, and every task whose solution the edit could touch
    still passes.  All step usage is charged against ``budget``; running dry
    before a verdict raises BudgetExhausted (the candidate is rejected now
    and retried when the scheduler doubles its allowance).
    """
    report = ValidationReport()
    meter = budget

    # Novelty: identical candidates cannot be both novel and newly solving.
    identity = task.identity()
    if novelty_cache is not None and identity in novelty_cache:
        prev_solves, billed = novelty_cache[identity]
        meter -= billed
        if meter < 0:
            raise BudgetExhausted(budget, billed)
    else:
        prev_report, _ = solves(s_prev, task, meter)
        meter -= prev_report.steps
        if not prev_report.conclusive:
            raise BudgetExhausted(budget - meter)
        prev_solves, billed = prev_report.success, prev_report.steps
        if novelty_cache is not None:
            novelty_cache[identity] = (prev_solves, billed)
    report.novel = not prev_solves
    if not report.novel:
        report.steps_spent = budget - meter
        return report

    new_report, new_trace = solves(q, task, meter)
    meter -= new_report.steps
    if not new_report.conclusive:
        raise BudgetExhausted(budget - meter)
    report.solves_new = new_report.success
    report.new_outcome = new_report
    report.new_trace = new_trace
    if not report.solves_new:
        report.steps_spent = budget - meter
        return report

    todo = sorted(revalidate_set(usage, changed))
    by_index = {item.index: item for item in repertoire}
    preserved = True
    done = []
    for j in todo:
        item = by_index[j]
        rep, _ = preservation_run(q, item, meter)
        meter -= rep.steps
        done.append(j)
        report.revalidation_reports[j] = rep
        if not rep.conclusive:
            raise BudgetExhausted(budget - meter)
        if not rep.success:
            preserved = False
            break
    report.revalidated_tasks = tuple(done)
    report.preserved = preserved
    report.steps_spent = budget - meter

    if paranoid and report.accepted:
        full = full_revalidation(q, repertoire)
        if not full:
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
