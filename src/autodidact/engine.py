"""The growth loop: invent, modify, demonstrate, freeze, repeat.

Variant I accepts the first candidate pair whose new task is unsolvable by
the previous solver, solvable by the modified one, and loses no previously
learned task.  Variant II replaces that gate with explicit cost accounting:
accept when the whole-repertoire cost drops by more than epsilon, forgetting
allowed.  Both share the same searchers, candidate language, usage-indexed
incremental revalidation, scratch-undo isolation, and append-only archive.
Each judge hands the commit one record, validate.Details: the entry's judge
fields, the usage rows the acceptance changes and, in variant II, the
ledger; so one commit serves both variants.  A commit and a resume learn
from each frozen entry through one step.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .archive import (
    AlreadySolvable,
    ArchiveCorrupt,
    ArchiveEntry,
    ExternalTask,
    Replay,
    append_entry,
    load_archive,
    load_external_queue,
    repair_archive,
)
from .config import ConfigError, RunConfig
from .costs import (
    CostParams,
    TaskMeasure,
    contribution,
    cost,
    measure_task,
    measure_whole,
    saves,
    task_with_cost_bounds,
)
from .meta import META_ISA, MetaContext, MetaProgram, Meter, ScratchStore
from .prior import Prior
from .search import (
    Acceptance,
    PhaseStats,
    SearchCeilingReached,
    SearchProblem,
    edit_record,
    oops_search,
    stochastic_search,
)
from .tasks import Task, least_grant, record_run, report_within, solves
from .validate import (
    CUT,
    BudgetExhausted,
    Chain,
    Details,
    RepertoireItem,
    SegmentTable,
    UsageIndex,
    demonstrate,
    rebuild_usage,
    table_run,
    update_usage,
)
from .vm import EMPTY_SOLVER, SolverProgram


@dataclass
class PhaseLedger:
    """Variant II's ledger under the current solver, fixed for one phase.

    The solver, the repertoire and every stored measure stay put until the
    phase commits, so the phase's first judge call works out once, into the
    phase tables: the cost of the whole repertoire, and each task's
    contribution and cost-bounded probe task.  A proposed task joins both on
    its first call, its contribution read off the previous solver's run on
    it in the tables' ``prev``.  A judge call then costs what it re-measures,
    whatever the size of the repertoire or the solver.
    """

    params: CostParams
    origins: dict  # task identity -> "self" | "external"
    base: Fraction  # cost(s, every repertoire task)
    contrib: dict  # identity -> contribution under s, an int
    items: dict  # identity -> RepertoireItem
    probes: dict  # identity -> task_with_cost_bounds(task)


@dataclass
class RunResult:
    accepted: int  # this run's acceptances, not counting resumed entries
    ceiling_reached: bool
    entries: list


class Engine:
    def __init__(self, config: RunConfig, log: Optional[Callable] = None):
        self.config = config.validate()
        self.log = log or (lambda event: None)
        self.solver: SolverProgram = EMPTY_SOLVER
        self.repertoire: list[RepertoireItem] = []
        self.usage = UsageIndex()
        self.segments: list[tuple[int, int]] = []
        self.prior = Prior(META_ISA, adapted=config.adapt_prior)
        self.scratch = ScratchStore()
        self.entries: list[ArchiveEntry] = []
        self.external_rewards: dict[str, int] = {}
        self.task_origin: dict[str, str] = {}
        self.cost_measures: dict[str, TaskMeasure] = {}
        self.skipped_external: list[str] = []
        self.segment_table = SegmentTable()
        # A malformed queue fails here, before resume may repair the archive.
        self.queue = load_external_queue(config.external_tasks_path)
        if config.resume:
            self._resume()

    # -- state reconstruction -------------------------------------------

    def _resume(self) -> None:
        path = self.config.archive_path
        entries = load_archive(path)
        replay = Replay(entries)
        for entry, candidate, _task, _trace, _params, _ledger in replay:
            self._learn(entry, candidate)
        if entries and replay.ledger != (self.config.variant == "II"):
            # Appending would mix ledger entries with entries without one.
            raise ConfigError(
                f"cannot resume a variant {'II' if replay.ledger else 'I'} archive "
                f"as variant {self.config.variant}"
            )
        if replay.frozen not in (None, self.config.prefix_mode):
            # Appending would mix snapshots that freeze everything with ones that do not.
            mode = "with" if self.config.prefix_mode else "without"
            raise ConfigError(f"cannot resume an archive of the other prefix mode {mode} --prefix-mode")
        if entries:
            last = entries[-1]
            self.solver = last.solver_program()
            size = (self.solver.component_count, self.solver.size_bits)
            if (last.meta.get("solver_slots"), last.meta.get("solver_bits")) != size:
                # The next entry's appended span would start at the wrong slot.
                raise ArchiveCorrupt(
                    last.i, f"solver_slots and solver_bits are not the snapshot's {size}"
                )
        # Only an archive that decoded throughout may be rewritten.
        if repair_archive(path, entries):
            self.log({"event": "archive_repaired", "entries": len(entries)})
        self.entries = entries
        if not entries:
            return
        self.repertoire = replay.repertoire
        self.task_origin = replay.origins
        self.external_rewards = replay.external_rewards
        params = self._params() if self.config.variant == "II" else None
        self.usage, self.cost_measures = rebuild_usage(self.solver, self.repertoire, params)
        self.log({"event": "resumed", "phases": len(entries)})

    def _params(self) -> CostParams:
        return self.config.cost_params(self.external_rewards)

    # -- main loop ---------------------------------------------------------

    def run(self) -> RunResult:
        cfg = self.config
        ceiling = False
        resumed = len(self.entries)
        while len(self.entries) < cfg.max_tasks:
            phase = len(self.entries) + 1
            external = self._next_external(self.queue)
            self.log(
                {
                    "event": "phase_start",
                    "i": phase,
                    "origin": "external" if external else "self",
                }
            )
            try:
                acceptance, stats = self._search_phase(phase, external)
            except SearchCeilingReached:
                self.log({"event": "ceiling", "i": phase})
                ceiling = True
                break
            if stats.budget_violations:
                # Some candidate billed more than ceil(P(p) * t_lim) steps.
                if cfg.paranoid:
                    raise AssertionError(
                        f"phase {phase}: {stats.budget_violations} candidates broke the budget law"
                    )
                self.log(
                    {"event": "budget_violation", "i": phase, "count": stats.budget_violations}
                )
            self._commit(acceptance, stats, "external" if external else "self")
            self.log(
                {
                    "event": "accepted",
                    "i": phase,
                    "kind": acceptance.proposal.task.kind,
                    "candidates": stats.candidates_run,
                    "t_lim": stats.t_lim,
                    "steps": stats.steps_total,
                }
            )
        return RunResult(len(self.entries) - resumed, ceiling, self.entries)

    def _next_external(self, queue: list[ExternalTask]) -> Optional[ExternalTask]:
        """First queued task the current solver cannot already handle.

        Tasks the solver solves within bounds are reported and skipped; this
        covers both genuinely trivial injections and queue entries that were
        already frozen on a previous run of the same queue file.
        """
        for item in queue:
            identity = item.task.identity()
            if identity in self.skipped_external:
                continue
            if self._already_solvable(item.task):
                self.skipped_external.append(identity)
                self.log(
                    {
                        "event": "external_rejected",
                        "reason": "AlreadySolvable",
                        "identity": identity,
                    }
                )
                continue
            return item
        return None

    def _already_solvable(self, task: Task) -> bool:
        """Whether the solver solves the task at its whole bound (t_max in
        variant II), by a run that computes no state digest."""
        if self.config.variant == "II":
            return measure_whole(self.solver, task, self._params()).solved
        return record_run(self.solver, task)[2]

    def _search_phase(self, phase: int, external: Optional[ExternalTask]):
        cfg = self.config
        if external is not None:
            identity = external.task.identity()
            self.task_origin[identity] = "external"
            if external.reward is not None:
                self.external_rewards[identity] = external.reward
        ctx = MetaContext(
            solver=self.solver,
            repertoire=self.repertoire,
            segments=self.segments,
            scratch=self.scratch,
            t_pattern=cfg.t_pattern,
            n_pattern=cfg.n_pattern,
            t_grid=cfg.t_grid,
            n_grid=cfg.n_grid,
            eps_wow=cfg.eps_wow,
            known_identities=(
                frozenset(item.task.identity() for item in self.repertoire)
                if cfg.variant == "I"
                else frozenset()
            ),
            external_task=external.task if external else None,
            wow_tightens=cfg.variant == "I",
        )
        judge = self._judge_v1 if cfg.variant == "I" else self._judge_v2
        problem = SearchProblem(
            ctx=ctx,
            prior=self.prior,
            judge=judge,
            domain=cfg.domain,
            paranoid=cfg.paranoid,
            table_bill=self._table_bill,
        )
        if cfg.searcher == "oops":
            return oops_search(problem, cfg.step_ceiling, self.log)
        return stochastic_search(
            problem,
            cfg.seed,
            phase,
            cfg.stoch_candidate_budget,
            cfg.stoch_max_candidates,
            self.log,
        )

    def _table_bill(self, task: Task, caches: dict) -> Optional[int]:
        """The least bill with which the judge's first stage can conclude on task.

        Read off this phase's tables, without running anything; None while
        they have no entry for the task.  The first stage of the judge's
        validate.Chain is novelty, answered from the previous solver's run
        on the task in ``prev``.  In variant I the chain starts at the
        novelty cache's bill once the cache holds the task; until then the
        first run to conclude writes to the cache what the previous
        solver's run at the task's whole bound bills under its grant: a
        halt or a timeout bills the same under every concluding grant, a
        fault its whole grant.  So the bill is the cache's, or else what
        that run bills under its least grant (the chain's ``least`` after
        the stage), which no later entry undercuts.  Variant II has no
        novelty cache, and its run is at t_max and answers a grant of 0
        with a cut, so the bill is the least grant itself.  A repertoire
        task in variant II skips novelty, and ``prev`` never holds one.
        Every pair-cache bill for the task includes a novelty bill at least
        this large, so a candidate that reaches the judge with fewer steps
        left is cut whichever table answers it.
        """
        identity = task.identity()
        hit = caches["novelty"].get(identity)
        if hit is not None:
            return hit[1]
        run = caches["prev"].get(identity)
        if run is None:
            return None
        if self.config.variant == "I":
            return report_within(run, least_grant(run, task.t), task.t)[1]
        return least_grant(run, self.config.t_max)

    # -- the judges ------------------------------------------------------------

    def _judge(self, proposal, meter: Meter, caches, decide):
        """One judge call: a pair-cache answer, or decide(edit, task, meter, caches).

        ``decide`` judges under what the meter has left and returns (Details
        or None, steps billed), or raises BudgetExhausted with a floor
        counted from the meter's spent steps; a cut whose floor is final for
        the phase stores it in the pair's slot (validate.Chain).  A
        conclusive verdict and bill go to the pair cache.  A slot answers a
        call when it holds a verdict, charged its bill, or a floor above what
        the meter has left, which cuts the call with that floor; paranoid
        mode runs decide on such a cut too and compares the floors.
        """
        edit = proposal.record or edit_record(caches, proposal.edits, self.solver)
        identity = proposal.task.identity()
        hit = edit.pairs.get(identity)
        if hit is not None:
            details, billed = hit
            if details is not CUT:
                meter.charge(billed, known=True)
                return details
            if billed > meter.left:
                if self.config.paranoid:
                    self._check_cut(edit, proposal.task, meter, caches, decide, billed)
                meter.charge(billed, known=True)  # raises with the stored floor
        try:
            details, billed = decide(edit, proposal.task, meter, caches)
        finally:
            edit.release()
        meter.charge(billed)
        edit.pairs[identity] = (details, billed)
        return details

    @staticmethod
    def _check_cut(edit, task: Task, meter: Meter, caches, decide, floor: int) -> None:
        """Paranoid mode: a cut by a stored pair floor must be the judge's own."""
        try:
            decide(edit, task, meter, caches)
            seen = "a verdict"
        except BudgetExhausted as exc:
            if exc.floor == meter.spent + floor:
                return
            seen = f"a cut with floor {exc.floor}"
        finally:
            edit.release()
        raise AssertionError(f"pair floor {meter.spent + floor} but the judge gave {seen}")

    def _judge_v1(self, q, changed, proposal, meter: Meter, caches):
        return self._judge(proposal, meter, caches, self._demonstrate)

    def _judge_v2(self, q, changed, proposal, meter: Meter, caches):
        return self._judge(proposal, meter, caches, self._ledger_verdict)

    # -- Variant I ----------------------------------------------------------

    def _demonstrate(self, edit, task: Task, meter: Meter, caches):
        report = demonstrate(
            edit.q,
            self.solver,
            task,
            self.repertoire,
            self.usage,
            edit.changed,
            meter.left,
            paranoid=self.config.paranoid,
            novelty_cache=caches["novelty"],
            prev_runs=caches["prev"],
            edit=edit,
            spent=meter.spent,
            segment_table=self.segment_table,
        )
        return report.details, report.steps_spent

    # -- Variant II ----------------------------------------------------------

    def _phase_ledger(self) -> PhaseLedger:
        params = self._params()
        items = {item.task.identity(): item for item in self.repertoire}
        origins = self.task_origin
        return PhaseLedger(
            params=params,
            origins=origins,
            base=cost(self.solver, self.cost_measures, origins, params),
            contrib={
                identity: contribution(m, identity, origins, params)
                for identity, m in self.cost_measures.items()
            },
            items=items,
            probes={
                identity: task_with_cost_bounds(item.task, params)
                for identity, item in items.items()
            },
        )

    def _ledger_verdict(self, edit, task: Task, meter: Meter, caches):
        new_id = task.identity()
        ledger = caches.get("ledger")
        if ledger is None:
            ledger = caches["ledger"] = self._phase_ledger()
        params = ledger.params
        probe = ledger.probes.get(new_id)
        if probe is None:
            probe = ledger.probes[new_id] = task_with_cost_bounds(task, params)

        def q_stage(key, probe, trace):
            live = lambda b: measure_task(edit.applied()[0], probe, params, trace, b)[2]  # noqa: E731
            record = lambda: edit.q_record(probe, trace, key, self.segment_table)  # noqa: E731
            return live, table_run(edit.runs, key, record)

        # The stages, each run at the whole t_max: the previous solver on a
        # new task (c* is its ledger with the task in it), q on every stored
        # task the edit may touch, and q on the proposed task.  A fault bills
        # its whole grant, so one before the last stage leaves the stages
        # after it anything only when granted all of t_max.  A re-proposed
        # task keeps being judged against its original trace, so the ledger
        # stays exactly reproducible from the archive alone.
        known = ledger.items.get(new_id)
        stages = []
        if known is None:
            live = lambda b: measure_task(self.solver, probe, params, None, b)[2]  # noqa: E731
            run = table_run(caches["prev"], new_id, lambda: record_run(self.solver, probe))
            stages.append((live, run))
            if new_id not in ledger.contrib:
                full = TaskMeasure.of_run(run, params.t_max)
                ledger.contrib[new_id] = contribution(full, new_id, ledger.origins, params)
        else:
            m_prev = self.cost_measures[new_id]
        redone = [self.repertoire[j - 1] for j in edit.revalidation(self.usage)]
        for item in redone:
            stages.append(q_stage(item.index, ledger.probes[item.task.identity()], item.trace))
        if known is None:
            stages.append(q_stage(new_id, probe, None))
        else:
            stages.append(q_stage(known.index, probe, known.trace))
        # Every stage's run is fixed for the phase, so a cut's floor is final.
        chain = Chain(
            meter.left, paranoid=self.config.paranoid, spent=meter.spent, pair=(edit.pairs, new_id)
        )
        last = len(stages) - 1
        answers = []
        for n, (live, run) in enumerate(stages):
            answers.append(chain.stage(run, live, params.t_max, n == last))
        billed = chain.conclude()
        found = [TaskMeasure(ok, steps, run[3]) for (ok, steps), (_, run) in zip(answers, stages)]
        if known is None:
            m_prev = found.pop(0)
        measures = {item.task.identity(): m for item, m in zip(redone, found)}
        measures[new_id] = found[-1]

        # Every other task keeps its contribution, so c differs from c* only
        # in L(q) - L(s) and in the tasks measured again; saves() decides
        # c* - c > epsilon from those two integers.  The record works out
        # L(q) - L(s) once per edit, on the first call to conclude.
        moved = sum(
            contribution(m, identity, ledger.origins, params) - ledger.contrib[identity]
            for identity, m in measures.items()
        )
        accepted = saves(edit.size_change(), moved, params)
        if not (accepted or self.config.paranoid):
            return None, billed
        # c* is the ledger with the new task in it, c the same under q; an
        # accepted entry records both, and paranoid mode checks them.
        c_star = ledger.base
        if known is None:
            c_star += params.alpha * ledger.contrib[new_id]
        c = c_star + edit.size + params.alpha * moved
        if self.config.paranoid:
            q = edit.applied()[0]
            self._check_ledger(ledger, q, new_id, m_prev, measures, c, c_star, accepted)
        if not accepted:
            return None, billed

        # Accepted: the winner's runs again, live, for what the run table
        # does not keep: the components each run used, and the trace.
        q = edit.applied()[0]
        usage = {}
        for item in redone:
            probe_j = ledger.probes[item.task.identity()]
            usage[item.index] = measure_task(q, probe_j, params, item.trace)[2].components_used
        trace_for_new = known.trace if known is not None else None
        _m, new_trace, rep_new = measure_task(q, probe, params, trace_for_new)
        new_row = known.index if known is not None else len(self.repertoire) + 1
        usage[new_row] = rep_new.components_used
        old = self.cost_measures
        q_measures = {**old, **measures}
        before = sum(m.t_prime(params) for m in old.values())
        after = sum(q_measures[i].t_prime(params) for i in old)
        lost = [i for i, m in measures.items() if i in old and old[i].solved and not m.solved]
        meta = {
            "wow": after < before,
            "steps": measures[new_id].t_prime(params),
            "validation_steps": billed,
            # distinct stored tasks run again: a re-proposed task may be in redone
            "revalidated": len(usage) - (known is None),
            "forgotten": len(lost),
            "solved_count": sum(1 for m in q_measures.values() if m.solved),
            "sum_t_old_before": before,
            "sum_t_old_after": after,
            "cost_params": params.to_json(),
        }
        return Details(new_trace, usage, meta, (str(c), str(c_star), q_measures)), billed

    def _check_ledger(self, ledger, q, new_id, m_prev, measures, c, c_star, accepted) -> None:
        """Paranoid mode: the phase ledger must equal the full cost() sums,
        and the integer verdict the Fraction one."""
        params, origins = ledger.params, ledger.origins
        star = dict(self.cost_measures)
        star.setdefault(new_id, m_prev)
        q_measures = {**star, **measures}
        full = [cost(q, q_measures, origins, params), cost(self.solver, star, origins, params)]
        if full != [c, c_star]:
            raise AssertionError(f"phase ledger gave c={c} c*={c_star}, full cost() {full}")
        if accepted != (c_star - c > params.epsilon):
            raise AssertionError(f"integer verdict {accepted} but c={c} c*={c_star}")

    # -- commit ----------------------------------------------------------------

    def _commit(self, acc: Acceptance, stats: PhaseStats, origin: str) -> None:
        cfg = self.config
        task = acc.proposal.task
        identity = task.identity()
        i = len(self.entries) + 1
        self.task_origin.setdefault(identity, origin)

        details: Details = acc.details
        duplicate = any(item.task.identity() == identity for item in self.repertoire)

        self.solver = acc.solver.frozen_copy() if cfg.prefix_mode else acc.solver

        if not duplicate:
            self.repertoire.append(RepertoireItem(len(self.repertoire) + 1, task, details.trace))
        rows = {j: (comps, self.repertoire[j - 1].entry_key) for j, comps in details.usage.items()}
        update_usage(self.usage, rows)

        meta_info = {
            **details.meta,
            "kind": task.kind,
            "entry_key": task.entry_key,
            "search_steps": stats.steps_total,
            "candidates": stats.candidates_run,
            "t_lim": stats.t_lim,
            "solver_slots": self.solver.component_count,
            "solver_bits": self.solver.size_bits,
            "duplicate": duplicate,
        }
        if acc.proposal.appended:
            meta_info["appended"] = [acc.proposal.append_start, acc.proposal.appended]
        if identity in self.external_rewards:
            meta_info["reward"] = self.external_rewards[identity]
        c = c_star = None
        if details.ledger is not None:
            c, c_star, self.cost_measures = details.ledger

        entry = ArchiveEntry(
            i=i,
            origin=origin,
            meta_code=acc.meta.code.to_hex(),
            solver=self.solver.to_json(),
            task=task.to_json(),
            trace=details.trace.to_json() if details.trace is not None else None,
            c=c,
            c_star=c_star,
            meta=meta_info,
        )
        append_entry(cfg.archive_path, entry, self.entries)
        self._learn(entry, acc.meta)

    def _learn(self, entry: ArchiveEntry, candidate: MetaProgram) -> None:
        """What a frozen entry teaches the search beyond its solver: the segment
        its edit appended and its candidate's opcodes, counted in the prior.
        A commit learns from the entry it wrote, a resume from each it replays.
        """
        span = entry.meta.get("appended")
        if span:
            self.segments.append((span[0], span[1]))
        self.prior.adapt(candidate.opcode_sequence)


def inject_external_task(
    queue: list[ExternalTask],
    task: Task,
    reward: Optional[int] = None,
    solver: Optional[SolverProgram] = None,
) -> list[ExternalTask]:
    """Queue an externally defined task for the next search phases.

    When a solver is supplied, a task it already handles within bounds is
    refused with AlreadySolvable instead of being queued.
    """
    if solver is not None:
        report, _ = solves(solver, task)
        if report.success:
            raise AlreadySolvable(task.identity())
    queue.append(ExternalTask(task, reward))
    return queue
