"""Tasks, traces, goal predicates and solvability checks.

Two domains.  A pattern task asks the solver to map an identifier (database
address I1 plus 4-bit query I2) to a target bitstring O within t steps, with
the whole solver staying under n components.  A decision task drops the
solver into a gridworld and judges the recorded trace with a goal predicate.

A task's identity is the digest of its canonical serialization, bounds and
environment included, so tightening a bound or touching a wall makes a
different task.  Identifiers are tagged with a leading domain bit so pattern
and decision identifiers never collide in the solver's entry table.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional, Union

from .bits import BitString
from .grid import GridWorld, LiveEnv, ReplayEnv
from .patterns import PATTERN_COUNT, MissingPattern, get_pattern
from .vm import HALT_EXPLICIT, RunOutcome, SolverProgram, run_solver

PREDICATE_BUDGET = 4096  # elementary checks evaluate_goal may spend on one trace


class BelowThreshold(ValueError):
    """Requested efficiency gain smaller than the configured wow threshold."""


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Trace:
    """Recorded (observation, reward, state digest, action) steps of one solution."""

    steps: tuple = ()

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def actions(self) -> tuple:
        return tuple(s[3] for s in self.steps)

    @property
    def rewards(self) -> tuple:
        return tuple(s[1] for s in self.steps)

    def to_json(self) -> list:
        return [[x, r, u, y] for (x, r, u, y) in self.steps]

    @classmethod
    def from_json(cls, data: list) -> "Trace":
        return cls(tuple((int(x), int(r), str(u), int(y)) for (x, r, u, y) in data))


# ---------------------------------------------------------------------------
# Task types
# ---------------------------------------------------------------------------

_PATTERN_TAG = BitString(0, 1)
_DECISION_TAG = BitString(1, 1)


def _set_identifier(task, identifier: BitString) -> None:
    """Store the bits a task feeds the solver and their entry-table key.

    Every run reads both, so they are worked out once, when the task is made.
    """
    object.__setattr__(task, "identifier", identifier)
    object.__setattr__(task, "entry_key", identifier.to_hex())


@dataclass(frozen=True)
class PatternTask:
    i1: int  # pattern database address
    i2: BitString  # 4-bit query
    o: BitString  # target output
    t: int  # step bound
    n: int  # solver size bound, in components
    identifier: BitString = field(init=False, repr=False, compare=False)  # tag, I1, I2
    entry_key: str = field(init=False, repr=False, compare=False)  # identifier.to_hex()

    def __post_init__(self):
        if self.t < 1 or self.n < 1:
            raise ValueError("bounds must be >= 1")
        get_pattern(self.i1)  # MissingPattern on a bad address
        _set_identifier(self, _PATTERN_TAG + BitString(self.i1, 4) + self.i2)

    @property
    def kind(self) -> str:
        return "pattern"

    def identity(self) -> str:
        cached = self.__dict__.get("_identity")
        if cached is None:
            payload = json.dumps(
                ["pattern", self.i1, self.i2.to_hex(), self.o.to_hex(), self.t, self.n]
            )
            cached = hashlib.sha256(payload.encode()).hexdigest()[:16]
            object.__setattr__(self, "_identity", cached)
        return cached

    def to_json(self) -> dict:
        return {
            "kind": "pattern",
            "i1": self.i1,
            "i2": self.i2.to_hex(),
            "o": self.o.to_hex(),
            "t": self.t,
            "n": self.n,
        }


@dataclass(frozen=True)
class GoalSpec:
    """Restricted goal family: reach a target cell without dipping below a reward floor."""

    target_cell: tuple  # (x, y)
    min_reward: int = 0

    def to_json(self) -> dict:
        return {"target_cell": list(self.target_cell), "min_reward": self.min_reward}

    @classmethod
    def from_json(cls, data: dict) -> "GoalSpec":
        return cls(tuple(data["target_cell"]), int(data.get("min_reward", 0)))


@dataclass(frozen=True)
class DecisionTask:
    ident: BitString  # identifier read by the solver
    goal: GoalSpec
    t: int
    n: int
    world: GridWorld
    identifier: BitString = field(init=False, repr=False, compare=False)  # tag, ident
    entry_key: str = field(init=False, repr=False, compare=False)  # identifier.to_hex()

    def __post_init__(self):
        if self.t < 1 or self.n < 1:
            raise ValueError("bounds must be >= 1")
        _set_identifier(self, _DECISION_TAG + self.ident)

    @property
    def kind(self) -> str:
        return "decision"

    def identity(self) -> str:
        cached = self.__dict__.get("_identity")
        if cached is None:
            payload = json.dumps(
                [
                    "decision",
                    self.ident.to_hex(),
                    self.goal.to_json(),
                    self.t,
                    self.n,
                    self.world.digest(),
                ],
                sort_keys=True,
            )
            cached = hashlib.sha256(payload.encode()).hexdigest()[:16]
            object.__setattr__(self, "_identity", cached)
        return cached

    def initial_obs(self) -> int:
        return self.world.observation(self.world.start)

    def to_json(self) -> dict:
        return {
            "kind": "decision",
            "i": self.ident.to_hex(),
            "goal": self.goal.to_json(),
            "t": self.t,
            "n": self.n,
            "env": self.world.to_json(),
        }


Task = Union[PatternTask, DecisionTask]


def task_from_json(data: dict) -> Task:
    if data["kind"] == "pattern":
        return PatternTask(
            i1=int(data["i1"]),
            i2=BitString.from_hex(data["i2"]),
            o=BitString.from_hex(data["o"]),
            t=int(data["t"]),
            n=int(data["n"]),
        )
    if data["kind"] == "decision":
        return DecisionTask(
            ident=BitString.from_hex(data["i"]),
            goal=GoalSpec.from_json(data["goal"]),
            t=int(data["t"]),
            n=int(data["n"]),
            world=GridWorld.from_json(data["env"]),
        )
    raise ValueError(f"unknown task kind {data.get('kind')!r}")


# ---------------------------------------------------------------------------
# Solvability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolveReport:
    success: bool
    steps: int
    components_used: frozenset
    outcome: Optional[RunOutcome] = None
    conclusive: bool = True


def _clean_halt(outcome: RunOutcome) -> bool:
    # Stored solutions must terminate through HALT: execution that merely
    # falls off the current program end would change meaning under append
    # edits, which would break incremental revalidation.
    return outcome.halted and outcome.halt_reason == HALT_EXPLICIT


def solves_pattern(
    solver: SolverProgram, task: PatternTask, budget: Optional[int] = None
) -> SolveReport:
    """Success iff the solver is under the size bound and computes O within t steps.

    ``budget`` caps the run below the task bound when the caller's own step
    meter is nearly empty; a cut run that did not finish is inconclusive.
    """
    if task.i1 >= PATTERN_COUNT:
        raise MissingPattern(task.i1)
    granted = task.t if budget is None else min(task.t, budget)
    if granted < 1:
        return SolveReport(False, 0, frozenset(), None, conclusive=False)
    outcome = run_solver(solver, task.identifier, None, granted, task.entry_key)
    conclusive = outcome.halted or outcome.fault or granted == task.t
    ok = (
        solver.component_count < task.n
        and _clean_halt(outcome)
        and outcome.output == task.o
    )
    return SolveReport(ok, outcome.steps_used, outcome.components_used, outcome, conclusive)


def solve_decision(
    solver: SolverProgram, task: DecisionTask, budget: Optional[int] = None
) -> tuple[SolveReport, Trace]:
    """Live run in the task's world; returns the recorded trace alongside."""
    granted = task.t if budget is None else min(task.t, budget)
    if granted < 1:
        return SolveReport(False, 0, frozenset(), None, conclusive=False), Trace()
    env = LiveEnv(task.world, task.goal.target_cell)
    outcome = run_solver(solver, task.identifier, env, granted, task.entry_key)
    trace = Trace(tuple(env.trace_steps))
    conclusive = outcome.halted or outcome.fault or granted == task.t
    ok = (
        solver.component_count < task.n
        and _clean_halt(outcome)
        and evaluate_goal(task.goal, trace, task.world)
    )
    return SolveReport(ok, outcome.steps_used, outcome.components_used, outcome, conclusive), trace


def evaluate_goal(goal: GoalSpec, trace: Trace, world: GridWorld) -> bool:
    """Deterministic goal check over a trace; never loops beyond its budget."""
    ok, _ = evaluate_goal_ex(goal, trace, world)
    return ok


def evaluate_goal_ex(goal: GoalSpec, trace: Trace, world: GridWorld) -> tuple[bool, str]:
    if len(trace.steps) > PREDICATE_BUDGET:
        return False, "predicate_divergence"
    if not trace.steps:
        return False, "empty_trace"
    target_index = world.cell_index(goal.target_cell)
    for (_x, r, _u, _y) in trace.steps:
        if r < goal.min_reward:
            return False, "reward_floor"
    final_obs = trace.steps[-1][0]
    if (final_obs >> 4) != target_index:
        return False, "wrong_final_cell"
    return True, "ok"


def replay_check(
    solver: SolverProgram, task: DecisionTask, recorded: Trace, budget: Optional[int] = None
) -> SolveReport:
    """Environment-free preservation check against a stored trace.

    The recorded observations and rewards are fed back step by step; the
    check passes only when the solver re-emits exactly the recorded action
    sequence, halts cleanly within bounds, consumes the whole trace, and the
    trace itself satisfies the goal.  For deterministic environments this
    equals live re-execution success of the solver that recorded the trace.
    """
    granted = task.t if budget is None else min(task.t, budget)
    if granted < 1:
        return SolveReport(False, 0, frozenset(), None, conclusive=False)
    env = ReplayEnv(recorded.steps, task.initial_obs())
    outcome = run_solver(solver, task.identifier, env, granted, task.entry_key)
    conclusive = outcome.halted or outcome.fault or granted == task.t
    ok = (
        solver.component_count < task.n
        and _clean_halt(outcome)
        and env.exact
        and evaluate_goal(task.goal, recorded, task.world)
    )
    return SolveReport(ok, outcome.steps_used, outcome.components_used, outcome, conclusive)


def solves(
    solver: SolverProgram, task: Task, budget: Optional[int] = None
) -> tuple[SolveReport, Optional[Trace]]:
    """Domain dispatch used by validation, audit and the engine."""
    if isinstance(task, PatternTask):
        return solves_pattern(solver, task, budget), None
    report, trace = solve_decision(solver, task, budget)
    return report, trace


# ---------------------------------------------------------------------------
# The prefix rule: every budget answered from one run at the whole bound
# ---------------------------------------------------------------------------

HALTED, FAULTED, TIMED_OUT = 0, 1, 2  # how a run at the whole bound ended


def run_record(report: SolveReport) -> tuple:
    """What the prefix rule needs of one run at the task's whole bound.

    A small tuple (how the run ended, steps executed, success, number of
    components used): per-phase run tables hold thousands of them.
    """
    outcome = report.outcome
    kind = HALTED if outcome.halted else FAULTED if outcome.fault else TIMED_OUT
    return kind, outcome.executed, report.success, len(outcome.components_used)


def report_within(run: tuple, budget: Optional[int], bound: int) -> tuple[Optional[bool], int]:
    """What a live solves or replay_check under ``budget`` returns, read off ``run``.

    ``run`` is the run_record of one run at the whole ``bound``.  A run
    granted g = min(bound, budget) steps is a prefix of that run, because
    runs are deterministic, so: a halt at step e <= g is returned as it is
    and bills e; a fault at e <= g fails and bills g; a timeout is
    conclusive only when g is the whole bound; anything else, a grant of 0
    included, which runs nothing, is cut and bills g.  Returns (success, or
    None when the run is cut; steps billed).
    """
    grant = bound if budget is None or budget > bound else budget
    kind, executed, success, _components = run
    if grant >= 1:
        if kind == TIMED_OUT:
            if grant == bound:
                return False, bound
        elif executed <= grant:
            return (success, executed) if kind == HALTED else (False, grant)
    return None, grant


def least_grant(run: tuple, bound: int, last: bool = True) -> int:
    """The least grant under which report_within concludes on ``run``.

    A halt or a fault at step e needs max(1, e) and a timeout the whole
    bound.  A fault bills its whole grant, so a fault followed by another
    stage (``last`` false) leaves that stage anything only when its grant
    was the whole bound.  Below this grant the run is cut at every grant.
    """
    kind, executed, _success, _components = run
    if kind == TIMED_OUT or (kind == FAULTED and not last):
        return bound
    return max(1, executed)


# ---------------------------------------------------------------------------
# Efficiency ("wow") tasks
# ---------------------------------------------------------------------------


def make_efficiency_task(task: Task, time_saving: int = 0, size_saving: int = 0, eps_wow: int = 5) -> Task:
    """A copy of the task with strictly tighter resource bounds.

    Gains below the wow threshold are refused so the engine cannot accept
    chains of negligible improvements.
    """
    if time_saving < eps_wow and size_saving < 1:
        raise BelowThreshold(
            f"saving ({time_saving} steps, {size_saving} components) is under the threshold"
        )
    new_t = task.t - time_saving if time_saving else task.t
    new_n = task.n - size_saving if size_saving else task.n
    if new_t < 1 or new_n < 1:
        raise BelowThreshold("tightened bound fell below 1")
    if isinstance(task, PatternTask):
        return PatternTask(task.i1, task.i2, task.o, new_t, new_n)
    return DecisionTask(task.ident, task.goal, new_t, new_n, task.world)
