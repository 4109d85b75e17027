import random
from fractions import Fraction

import pytest

from conftest import build_repertoire
from autodidact.costs import (
    CostParams,
    TaskMeasure,
    contribution,
    cost,
    measure_task,
    parse_ratio,
    saves,
)
from autodidact.bits import nibble
from autodidact.grid import WORLDS
from autodidact.isa import SOLVER_ISA
from autodidact.tasks import (
    DecisionTask,
    GoalSpec,
    PatternTask,
    least_grant,
    replay_check,
    report_within,
    run_record,
    solves,
)
from autodidact.templates import copy_query_loop, grid_walk
from autodidact.vm import SolverProgram


def solver_of_bits(n_bits):
    # HALT instructions are 5 bits each plus the 5-bit terminator.
    assert n_bits % 5 == 0 and n_bits >= 5
    return SolverProgram(((1, ()),) * (n_bits // 5 - 1))


def test_cost_formula_direct_substitution():
    # alpha=1, L(s)=20 bits, one solved self-invented task with t'=5 and
    # r_new=1000 gives 20 + (5 - 1000) = -975.
    params = CostParams(alpha=Fraction(1), epsilon=Fraction(1), r_new=1000)
    solver = solver_of_bits(20)
    assert solver.size_bits == 20
    measures = {"t1": TaskMeasure(True, 5, 3)}
    origins = {"t1": "self"}
    assert cost(solver, measures, origins, params) == Fraction(-975)


def test_unsolved_task_contributes_t_max():
    params = CostParams(t_max=500)
    solver = solver_of_bits(20)
    measures = {"t1": TaskMeasure(False, 7, 0)}
    origins = {"t1": "self"}
    assert cost(solver, measures, origins, params) == 20 + 500


def test_empty_task_set_costs_solver_bits():
    params = CostParams()
    solver = solver_of_bits(35)
    assert cost(solver, {}, {}, params) == 35


def test_contribution_takes_r_from_the_task_origin():
    # t' - r: r_new for a solved self-invented task, the user's reward for a
    # solved external one (0 when none was given), nothing when unsolved.
    params = CostParams(t_max=500, r_new=1000, external_rewards={"ext": 9})
    origins = {"ext": "external", "bare": "external", "own": "self"}
    solved, failed = TaskMeasure(True, 5, 3), TaskMeasure(False, 7, 0)
    assert contribution(solved, "own", origins, params) == 5 - 1000
    assert contribution(solved, "new", origins, params) == 5 - 1000
    assert contribution(solved, "ext", origins, params) == 5 - 9
    assert contribution(solved, "bare", origins, params) == 5
    for identity in origins:
        assert contribution(failed, identity, origins, params) == 500


def test_acceptance_boundary_is_strict():
    params = CostParams(epsilon=Fraction(1))
    # savings of exactly epsilon are rejected: the rule is c* - c > epsilon
    assert not (Fraction(1) > params.epsilon)
    assert Fraction(101, 100) > params.epsilon


def solver_of_exact_bits(n_bits):
    # HALT is 5 bits and PUSH k 9, plus the 5-bit terminator; 5a + 9b covers
    # every size from 32 bits on.
    for pushes in range(5):
        halts, rest = divmod(n_bits - 5 - 9 * pushes, 5)
        if rest == 0 and halts >= 0:
            solver = SolverProgram(((2, (1,)),) * pushes + ((1, ()),) * halts)
            assert solver.size_bits == n_bits
            return solver
    raise ValueError(n_bits)


@pytest.mark.parametrize("alpha", [Fraction(3, 2), Fraction(1, 3), Fraction(8)])
@pytest.mark.parametrize("epsilon", [Fraction(1), Fraction(1, 2), Fraction(5, 3)])
def test_the_integer_verdict_equals_the_fraction_ledger(alpha, epsilon):
    # saves(L(q) - L(s), moved, params) decides c* - c > epsilon, with c and
    # c* summed by cost() in Fractions: self-invented and external tasks
    # (rewards given or not), solved and unsolved, under s and under q, with
    # q smaller or larger than s.  Half the trials size q so that c* - c
    # lands on epsilon or within a step of it, where a scaling slip flips
    # the verdict.
    rng = random.Random(20261019)
    rewards = {"e0": 7, "e1": 30, "e2": 0}
    params = CostParams(alpha=alpha, epsilon=epsilon, t_max=20, r_new=25, external_rewards=rewards)
    idents = ["s0", "s1", "s2", "e0", "e1", "e2", "e3"]
    origins = {i: "external" if i.startswith("e") else "self" for i in idents}

    def measure():
        return TaskMeasure(rng.random() < 0.6, rng.randrange(params.t_max + 1), 0)

    seen = {"shrinks": 0, "saved": 0, "not_saved": 0, "beside_epsilon": 0}
    for trial in range(200):
        before = {i: measure() for i in rng.sample(idents, rng.randrange(1, len(idents) + 1))}
        after = dict(before)
        for i in rng.sample(sorted(before), rng.randrange(len(before) + 1)):
            after[i] = measure()
        moved = sum(
            contribution(after[i], i, origins, params) - contribution(before[i], i, origins, params)
            for i in before
        )
        near = -(epsilon + alpha * moved)  # the size change that puts c* - c on epsilon
        size_change = rng.choice(
            [near.numerator // near.denominator + rng.choice([-1, 0, 1, 2]), rng.randrange(-60, 60)]
        )
        s = solver_of_exact_bits(2000)
        q = solver_of_exact_bits(2000 + size_change)
        savings = cost(s, before, origins, params) - cost(q, after, origins, params)
        assert savings == -(size_change + alpha * moved)
        assert saves(size_change, moved, params) == (savings > epsilon), (size_change, moved)
        seen["shrinks"] += size_change < 0
        seen["saved" if savings > epsilon else "not_saved"] += 1
        seen["beside_epsilon"] += abs(savings - epsilon) <= 1
    assert min(seen.values()) >= 10, seen


def test_r_new_must_exceed_t_max():
    with pytest.raises(ValueError):
        CostParams(t_max=1000, r_new=1000)


def test_t_prime_falls_back_to_t_max():
    params = CostParams(t_max=500)
    solved = TaskMeasure(True, 12, 9)
    failed = TaskMeasure(False, 500, 0)
    assert solved.t_prime(params) == 12
    assert failed.t_prime(params) == 500


def test_measure_task_uses_replay_for_stored_decisions():
    rng = random.Random(13)
    solver, items, _usage = build_repertoire(rng, 3)
    params = CostParams()
    for item in items:
        m, _t, rep = measure_task(solver, item.task, params, item.trace)
        assert m.solved
        direct, _ = solves(solver, item.task)
        assert m.steps == direct.steps


_WORLD = WORLDS[0]


@pytest.mark.parametrize(
    "code",
    [
        copy_query_loop(),  # halts; solves the pattern task
        grid_walk(_WORLD, _WORLD.goals[0]),  # halts; solves the decision task
        SOLVER_ISA.assemble("PUSH 1\nOUTPUT\nHALT"),  # halts with a wrong answer
        SOLVER_ISA.assemble("PUSH 1\nPUSH 2\nPOP\nPOP\nPOP"),  # faults at step 5
        SOLVER_ISA.assemble("PUSH 1\nJMP -2"),  # times out
        SOLVER_ISA.assemble("PUSH 0\nOUTPUT\nPUSH 1\nOUTPUT"),  # falls off the end
        (),  # ends after 0 steps
    ],
)
def test_measure_within_equals_a_live_measure_at_every_grant(code):
    # One run at the whole bound answers every smaller budget exactly as a
    # live run under that budget would: same verdict, same bill, same cut,
    # for solves, replay_check and measure_task (live and replayed), and
    # the least grant is the first budget that concludes.
    params = CostParams(t_max=100)
    pattern = PatternTask(1, nibble(5), nibble(5), 64, 1024)
    decision = DecisionTask(nibble(0) + nibble(0), GoalSpec(_WORLD.goals[0]), 48, 1024, _WORLD)
    for task in (pattern, decision):
        solver = SolverProgram(tuple(code), {task.identifier.to_hex(): 0} if code else {})
        report, trace = solves(solver, task)
        checks = [(lambda b: solves(solver, task, b)[0], task.t)]
        traces = [None]
        if trace is not None:
            checks.append((lambda b: replay_check(solver, task, trace, b), task.t))
            traces.append(trace)
        for live, bound in checks:
            run = run_record(live(None))
            for b in range(0, bound + 2):
                rep = live(b)
                want = (rep.success if rep.conclusive else None, rep.steps)
                assert report_within(run, b, bound) == want, (task.kind, b)
                assert (want[0] is None) == (b < least_grant(run, bound)), (task.kind, b)
        for stored in traces:
            _m, _tr, rep = measure_task(solver, task, params, stored)
            run = run_record(rep)
            for b in range(0, params.t_max + 2):
                live, _tr, live_rep = measure_task(solver, task, params, stored, b)
                want = (live if live_rep.conclusive else None, live_rep.steps)
                solved, billed = report_within(run, b, params.t_max)
                got = (None if solved is None else TaskMeasure(solved, billed, run[3]), billed)
                assert got == want, (task.kind, stored is not None, b)


def test_a_fault_before_another_stage_needs_the_whole_bound():
    # A fault bills its whole grant, so a stage after it gets anything only
    # when the fault was granted the whole bound.
    solver = SolverProgram(tuple(SOLVER_ISA.assemble("POP")))
    task = PatternTask(1, nibble(5), nibble(5), 64, 1024)
    run = run_record(solves(solver, task)[0])
    assert least_grant(run, task.t) == 1
    assert least_grant(run, task.t, last=False) == task.t
    assert report_within(run, 1, task.t) == (False, 1)
    assert report_within(run, task.t - 1, task.t) == (False, task.t - 1)


def test_parse_ratio_accepts_fractions_and_decimals():
    assert parse_ratio("3/4") == Fraction(3, 4)
    assert parse_ratio("2.5") == Fraction(5, 2)
    assert parse_ratio(7) == 7
