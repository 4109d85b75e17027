"""Cost accounting for the cost-based acceptance variant.

Cost(s, TSET) = L(s) + alpha * sum over T of (t'(T) - r(T)), with t' clamped
to t_max for unsolved tasks and r the novelty or user reward.  ``contribution``
and ``cost`` are the only code that turns a task's measure into r and its
term; the judge, its paranoid check and the audit all call them.  The
ledger is exact in integers: L(s), t', r and so every term t' - r are
integers, and only alpha, epsilon, c and c* are rationals (Fractions).  The
judge decides c* - c > epsilon with ``saves``, in integers scaled by the
denominators of alpha and epsilon, so the strict inequality can never flip
on rounding, and stored ledgers can be reproduced bit for bit from the
archive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .tasks import DecisionTask, PatternTask, Task, record_run, replay_check, report_within, solves
from .vm import SolverProgram

L_MAX = 256  # every ledger entry records it in cost_params, and no term reads it


@dataclass(frozen=True)
class CostParams:
    alpha: Fraction = Fraction(1)
    epsilon: Fraction = Fraction(1)
    t_max: int = 500
    r_new: int = 1000
    external_rewards: dict = field(default_factory=dict)  # task identity -> reward

    def __post_init__(self):
        if self.alpha <= 0 or self.epsilon <= 0:
            raise ValueError("alpha and epsilon must be positive")
        if self.r_new <= self.t_max:
            raise ValueError("r_new must exceed t_max")

    def to_json(self) -> dict:
        """What a ledger entry stores, so the archive alone recomputes it."""
        return {
            "alpha": str(self.alpha),
            "epsilon": str(self.epsilon),
            "t_max": self.t_max,
            "l_max": L_MAX,
            "r_new": self.r_new,
        }

    @classmethod
    def from_json(cls, data: dict, external_rewards: Optional[dict] = None) -> "CostParams":
        """The stored parameters; an l_max other than L_MAX raises ValueError."""
        l_max = data["l_max"]
        if type(l_max) is not int or l_max != L_MAX:
            raise ValueError(f"l_max {l_max!r} is not {L_MAX}")
        return cls(
            alpha=parse_ratio(data["alpha"]),
            epsilon=parse_ratio(data["epsilon"]),
            t_max=int(data["t_max"]),
            r_new=int(data["r_new"]),
            external_rewards=dict(external_rewards or {}),
        )


@dataclass(frozen=True)
class TaskMeasure:
    """One task's contribution inputs: solved flag, runtime, component count.

    The cost reads only ``solved`` and ``steps``.  ``components`` is kept as
    a check value: a measure read off a run table carries the component
    count of that run, and the tests compare it with a live measure's and
    compare the measures a resumed engine rebuilds with the live ones.
    """

    solved: bool
    steps: int
    components: int

    @classmethod
    def of_run(cls, run: tuple, t_max: int) -> "TaskMeasure":
        """The measure of a run at the whole t_max, read off its run record."""
        return cls(*report_within(run, None, t_max), run[3])

    def t_prime(self, params: CostParams) -> int:
        return self.steps if self.solved else params.t_max


def measure_task(
    solver: SolverProgram,
    task: Task,
    params: CostParams,
    trace=None,
    budget: Optional[int] = None,
):
    """Measure t' for one task under the given solver.

    Decision tasks with a stored trace are measured by replay (divergence
    counts as unsolved); everything else runs live under the t_max budget.
    Returns (measure, fresh trace or None, underlying solve report); an
    inconclusive report means the caller's budget cut the run short.
    """
    probe = task_with_cost_bounds(task, params)
    if isinstance(task, DecisionTask) and trace is not None:
        rep = replay_check(solver, probe, trace, budget)
        return TaskMeasure(rep.success, rep.steps, len(rep.components_used)), None, rep
    rep, new_trace = solves(solver, probe, budget)
    return TaskMeasure(rep.success, rep.steps, len(rep.components_used)), new_trace, rep


def measure_whole(solver: SolverProgram, task: Task, params: CostParams, trace=None) -> TaskMeasure:
    """measure_task's measure without a budget, from one tasks.record_run:
    no report, trace or state digest is built."""
    run = record_run(solver, task_with_cost_bounds(task, params), trace)
    return TaskMeasure.of_run(run, params.t_max)


def task_with_cost_bounds(task: Task, params: CostParams) -> Task:
    """The cost variant drops per-task bounds: judge within t_max, any size.

    Size limits must not sneak back in through the task object, otherwise
    solver growth could silently flip cached measures of untouched tasks.
    A task that already carries these bounds is returned as it is.
    """
    big_n = 1 << 30
    if task.t == params.t_max and task.n == big_n:
        return task
    if isinstance(task, DecisionTask):
        return DecisionTask(task.ident, task.goal, params.t_max, big_n, task.world)
    return PatternTask(task.i1, task.i2, task.o, params.t_max, big_n)


def reward(measure: TaskMeasure, identity: str, origins: dict, params: CostParams) -> int:
    """r(T): r_new for a solved task the system invented, the user's reward
    for a solved external task (an integer), nothing for an unsolved one.

    ``origins`` maps task identity to "self" or "external"; a missing
    identity is self-invented.
    """
    if not measure.solved:
        return 0
    if origins.get(identity, "self") == "external":
        return params.external_rewards.get(identity, 0)
    return params.r_new


def contribution(measure: TaskMeasure, identity: str, origins: dict, params: CostParams) -> int:
    """One task's term of the ledger, the integer t' - r(T)."""
    return measure.t_prime(params) - reward(measure, identity, origins, params)


def cost(
    solver: SolverProgram,
    measures: dict[str, TaskMeasure],
    origins: dict,
    params: CostParams,
) -> Fraction:
    """L(s) + alpha * sum of per-task (t' - r); empty task set costs L(s)."""
    terms = sum(contribution(m, identity, origins, params) for identity, m in measures.items())
    return Fraction(solver.size_bits) + params.alpha * terms


def saves(size_change: int, moved: int, params: CostParams) -> bool:
    """c* - c > epsilon, decided in integers.

    A candidate q differs from s in L(q) - L(s) (``size_change``) and in the
    terms of the tasks measured again, whose new terms sum to ``moved`` more
    than their old ones, so c* - c = -(size_change + alpha * moved).  With
    alpha = a/b and epsilon = e/f, multiplying the inequality by b * f > 0
    leaves only integers.
    """
    alpha, epsilon = params.alpha, params.epsilon
    b, f = alpha.denominator, epsilon.denominator
    return (size_change * b + alpha.numerator * moved) * f + epsilon.numerator * b < 0


def parse_ratio(text: str) -> Fraction:
    """Accept integers, decimals, or "p/q" strings (used by config and audit)."""
    text = str(text).strip()
    if "/" in text:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    return Fraction(text)
