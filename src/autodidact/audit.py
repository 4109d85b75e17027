"""Archive re-verification: replay every acceptance with no shortcuts.

The audit reads nothing but the archive (tasks, traces and solver snapshots
are all inside), rebuilds each phase's before/after solvers, and re-checks
the full acceptance obligation with naive full revalidation, no usage index
involved.  For cost-based entries it recomputes both ledger values exactly
and compares them to the stored strings.  Entry i's c and entry i+1's c*
measure the same solver object, so the second takes over each measure of
the first made with the same task identity, trace and CostParams; only the
new task's live measure is always made afresh.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .archive import Replay, load_archive
from .costs import cost, measure_task, measure_whole
from .tasks import DecisionTask, record_run, solves
from .validate import RepertoireItem, preservation_run
from .vm import EMPTY_SOLVER


@dataclass
class AuditFailure:
    phase: int
    check: str
    detail: str


@dataclass
class AuditReport:
    phases: int = 0
    novelty_confirmed: int = 0
    preservation_checked: int = 0
    cost_rows_checked: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def first_failing_phase(self) -> int:
        return min((f.phase for f in self.failures), default=0)


def audit_archive(archive_path) -> AuditReport:
    """Re-verify every frozen acceptance from the archive alone.

    The variant is the archive's: Replay lets every entry carry a ledger
    (cost fields) or none, as the first entry does.  For the no-forgetting
    variant each phase must show: the previous solver fails the new task
    within bounds, the frozen solver handles it, and the frozen solver still
    passes every earlier task (patterns re-run, decisions replayed against
    their stored traces).  An entry that does not decode raises
    ArchiveCorrupt, and so does a solver snapshot without the slot count
    and size its entry records (ArchiveEntry.checked_solver).  Each snapshot
    is decoded past the code it shares with the one before it, with the
    outcome of a whole decode.
    """
    report = AuditReport()
    entries = load_archive(archive_path)
    report.phases = len(entries)
    replay = Replay(entries)
    prev_solver = EMPTY_SOLVER
    measured = (None, {})  # the previous cost entry's solver and c measures
    for entry, _candidate, task, trace, params, ledger in replay:
        solver = entry.checked_solver(prev_solver)
        if params is None:
            _audit_strict_entry(
                report, entry.i, prev_solver, solver, task, trace, replay.repertoire
            )
        else:
            measured = _audit_cost_entry(
                report, entry, prev_solver, solver, task, trace, replay, params, ledger, measured
            )
        prev_solver = solver
    return report


def _audit_strict_entry(report, i, prev_solver, solver, task, trace, repertoire):
    if record_run(prev_solver, task)[2]:
        report.failures.append(
            AuditFailure(i, "novelty", "previous solver already solves the new task")
        )
    else:
        report.novelty_confirmed += 1

    if isinstance(task, DecisionTask):
        new_item = RepertoireItem(index=0, task=task, trace=trace)
        rep, _ = preservation_run(solver, new_item)
        if not rep.success:
            report.failures.append(
                AuditFailure(i, "solves_new", "stored trace does not replay on the frozen solver")
            )
    else:
        rep, _ = solves(solver, task)
        if not rep.success:
            report.failures.append(
                AuditFailure(i, "solves_new", "frozen solver fails its own new task")
            )

    for item in repertoire:
        rep, _ = preservation_run(solver, item)
        report.preservation_checked += 1
        if not rep.success:
            report.failures.append(
                AuditFailure(
                    i, "preservation", f"task {item.index} lost at phase {i}"
                )
            )


def _audit_cost_entry(
    report, entry, prev_solver, solver, task, trace, replay, params, ledger, measured
):
    """Check one ledger entry's c and c*; returns (solver, its c measures),
    which the next entry's c* may take over (``measured`` is this entry's)."""
    i = entry.i
    identity = task.identity()
    known = replay.items.get(identity)
    is_new = known is None

    task_set = {ident: (item.task, item.trace) for ident, item in replay.items.items()}
    task_set[identity] = (task, trace if is_new else known.trace)

    def total(which_solver, live_new: bool, earlier: dict) -> tuple[Fraction, dict]:
        """(cost, the measures made with a stored trace or none needed),
        taking over each of ``earlier``'s made with the same trace and params."""
        measures, kept = {}, {}
        for ident, (t, tr) in sorted(task_set.items()):
            if ident == identity and live_new:
                # The solve that froze this entry ran live.
                measures[ident] = measure_whole(which_solver, t, params)
                continue
            hit = earlier.get(ident)
            if hit is not None and hit[0] == tr and hit[1] == params:
                m = hit[2]
            else:
                m = measure_task(which_solver, t, params, tr)[0]
            measures[ident] = m
            kept[ident] = (tr, params, m)
        return cost(which_solver, measures, replay.origins, params), kept

    earlier_solver, earlier = measured
    c_star, _ = total(prev_solver, is_new, earlier if earlier_solver is prev_solver else {})
    c, kept = total(solver, False, {})
    report.cost_rows_checked += 1
    if str(c) != entry.c or str(c_star) != entry.c_star:
        report.failures.append(
            AuditFailure(
                i,
                "cost",
                f"recomputed c={c} c*={c_star}, stored c={entry.c} c*={entry.c_star}",
            )
        )
    stored_c, stored_c_star = ledger
    if not (stored_c_star - stored_c > params.epsilon):
        report.failures.append(
            AuditFailure(i, "savings", "stored ledger row violates the strict savings rule")
        )
    return solver, kept
