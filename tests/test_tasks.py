import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from autodidact import isa as I
from autodidact.bits import BitString, nibble
from autodidact.grid import (
    ACT_E,
    ACT_N,
    ACT_NOOP,
    EnvState,
    GOALS_PER_WORLD,
    WORLDS,
    env_step,
    shortest_path,
)
from autodidact.isa import SOLVER_ISA
from autodidact.patterns import MissingPattern, PATTERN_COUNT
from autodidact.tasks import (
    FAULTED,
    HALTED,
    TIMED_OUT,
    BelowThreshold,
    DecisionTask,
    GoalSpec,
    PatternTask,
    Trace,
    evaluate_goal,
    evaluate_goal_ex,
    make_efficiency_task,
    record_run,
    replay_check,
    report_within,
    run_record,
    solve_decision,
    solves,
    solves_pattern,
    task_from_json,
)
from autodidact.templates import const_nibble, copy_query_loop, grid_walk, negate_query
from autodidact.vm import SolverProgram


def bfs_oracle(world, src, dst):
    """Independent breadth-first search used to cross-check path lengths."""
    from collections import deque

    seen = {src}
    q = deque([(src, 0)])
    while q:
        pos, d = q.popleft()
        if pos == dst:
            return d
        for dx, dy in ((0, -1), (0, 1), (1, 0), (-1, 0)):
            nxt = (pos[0] + dx, pos[1] + dy)
            if not world.blocked(*nxt) and nxt not in seen:
                seen.add(nxt)
                q.append((nxt, d + 1))
    return None


def copy_task(i1=3, query="1011", t=64, n=1024):
    return PatternTask(i1, BitString.from_str(query), BitString.from_str(query), t, n)


# -- pattern tasks -----------------------------------------------------------


def test_copy_solver_solves_copy_task():
    solver = SolverProgram(copy_query_loop())
    report = solves_pattern(solver, copy_task())
    assert report.success
    assert report.steps == 63


def test_size_bound_fails_regardless_of_output():
    solver = SolverProgram(copy_query_loop())
    small = copy_task(n=len(copy_query_loop()))  # component count not < n
    assert not solves_pattern(solver, small).success


def test_time_bound_is_strict():
    solver = SolverProgram(copy_query_loop())
    assert solves_pattern(solver, copy_task(t=63)).success
    assert not solves_pattern(solver, copy_task(t=62)).success


def test_missing_pattern_address():
    with pytest.raises(MissingPattern):
        PatternTask(PATTERN_COUNT, nibble(0), nibble(0), 8, 8)


def test_task_identity_includes_bounds_and_env():
    a = copy_task(t=64)
    b = copy_task(t=60)
    assert a.identity() != b.identity()
    w0, w1 = WORLDS[0], WORLDS[1]
    d0 = DecisionTask(nibble(0) + nibble(0), GoalSpec(w0.goals[0]), 48, 1024, w0)
    d1 = DecisionTask(nibble(0) + nibble(0), GoalSpec(w0.goals[0]), 48, 1024, w1)
    assert d0.identity() != d1.identity()  # changed environment = different task


def test_task_json_round_trip():
    for task in [copy_task(), DecisionTask(nibble(1) + nibble(2), GoalSpec(WORLDS[1].goals[2]), 48, 512, WORLDS[1])]:
        back = task_from_json(task.to_json())
        assert back.identity() == task.identity()


# -- environment -------------------------------------------------------------


def test_env_noop_keeps_position():
    env = EnvState(WORLDS[0], WORLDS[0].start, WORLDS[0].goals[0])
    obs, reward, nxt = env_step(env, ACT_NOOP)
    assert reward == 0
    assert nxt.agent == env.agent


def test_env_wall_bump_costs_one():
    env = EnvState(WORLDS[0], (0, 0), (3, 3))
    obs, reward, nxt = env_step(env, ACT_N)  # off the top edge
    assert reward == -1
    assert nxt.agent == (0, 0)


def test_env_reaching_goal_rewards_plus_one():
    env = EnvState(WORLDS[0], (2, 0), (3, 0))
    obs, reward, nxt = env_step(env, ACT_E)
    assert reward == 1
    assert nxt.agent == (3, 0)


def test_observation_packs_cell_and_walls():
    world = WORLDS[0]
    obs = world.observation((0, 0))
    assert obs >> 4 == 0
    assert obs & 0x8 and obs & 0x1  # north and west blocked in the corner
    assert not (obs & 0x4) and not (obs & 0x2)


def test_shortest_path_matches_bfs_oracle_everywhere():
    for world in WORLDS:
        for gi in range(GOALS_PER_WORLD):
            goal = world.goals[gi]
            moves = shortest_path(world, world.start, goal)
            oracle = bfs_oracle(world, world.start, goal)
            assert moves is not None and oracle is not None
            assert len(moves) == oracle


def test_full_walk_reaches_goal_with_final_reward():
    world = WORLDS[2]
    goal = world.goals[1]
    moves = shortest_path(world, world.start, goal)
    env = EnvState(world, world.start, goal)
    rewards = []
    for m in moves:
        _obs, r, env = env_step(env, m)
        rewards.append(r)
    assert env.agent == goal
    assert rewards[-1] == 1 and all(r == 0 for r in rewards[:-1])


# -- goals and traces ---------------------------------------------------------


def _trace(world, goal, moves):
    env = EnvState(world, world.start, goal)
    steps = []
    for m in moves:
        obs, r, env = env_step(env, m)
        steps.append((obs, r, "u", m))
    return Trace(tuple(steps))


def test_goal_satisfied_on_clean_arrival():
    world = WORLDS[0]
    goal = world.goals[0]
    trace = _trace(world, goal, shortest_path(world, world.start, goal))
    assert evaluate_goal(GoalSpec(goal), trace, world)


def test_goal_rejects_empty_trace():
    assert not evaluate_goal(GoalSpec(WORLDS[0].goals[0]), Trace(), WORLDS[0])


def test_goal_rejects_negative_reward_step():
    world = WORLDS[0]
    goal = world.goals[0]
    moves = [ACT_N] + shortest_path(world, world.start, goal)  # bump first
    trace = _trace(world, goal, moves)
    ok, why = evaluate_goal_ex(GoalSpec(goal), trace, world)
    assert not ok and why == "reward_floor"


def test_goal_never_diverges_within_budget():
    world = WORLDS[0]
    big = Trace(tuple((0, 0, "u", ACT_NOOP) for _ in range(10_000)))
    ok, why = evaluate_goal_ex(GoalSpec(world.goals[0]), big, world)
    assert not ok and why == "predicate_divergence"


def test_trace_serialization_round_trip():
    world = WORLDS[1]
    goal = world.goals[0]
    trace = _trace(world, goal, shortest_path(world, world.start, goal))
    assert Trace.from_json(trace.to_json()) == trace


# -- replay --------------------------------------------------------------------


def grid_task(world_index=0, goal_index=0, t=48, n=1024):
    world = WORLDS[world_index]
    return DecisionTask(
        nibble(world_index) + nibble(goal_index),
        GoalSpec(world.goals[goal_index]),
        t,
        n,
        world,
    )


def test_replay_identity():
    task = grid_task()
    solver = SolverProgram(grid_walk(task.world, task.goal.target_cell))
    live, trace = solve_decision(solver, task)
    assert live.success
    replay = replay_check(solver, task, trace)
    assert replay.success
    assert replay.steps == live.steps  # cost equals the live run, no grid needed


def test_replay_detects_divergence():
    task = grid_task()
    solver = SolverProgram(grid_walk(task.world, task.goal.target_cell))
    _live, trace = solve_decision(solver, task)
    other = SolverProgram(grid_walk(task.world, task.world.goals[1]))
    assert not replay_check(other, task, trace).success


def test_replay_equals_live_success_for_the_recording_solver():
    # Oracle equivalence on random blind-walk programs.
    rng = random.Random(5)
    for _ in range(120):
        task = grid_task(rng.randrange(4), rng.randrange(4), t=40)
        moves = [rng.randrange(5) for _ in range(rng.randrange(0, 9))]
        lines = []
        for m in moves:
            lines += [f"PUSH {m}", "ACT", "POP"]
        lines.append("HALT")
        solver = SolverProgram(SOLVER_ISA.assemble("\n".join(lines)))
        live, trace = solve_decision(solver, task)
        assert replay_check(solver, task, trace).success == live.success


# -- efficiency tasks -----------------------------------------------------------


def test_time_saving_at_threshold_accepted():
    base = copy_task(t=100)
    tighter = make_efficiency_task(base, time_saving=10, eps_wow=10)
    assert tighter.t == 90
    assert tighter.identity() != base.identity()


def test_time_saving_below_threshold_rejected():
    with pytest.raises(BelowThreshold):
        make_efficiency_task(copy_task(t=100), time_saving=5, eps_wow=10)


def test_component_saving_counts_as_wow():
    base = copy_task(n=64)
    smaller = make_efficiency_task(base, size_saving=1, eps_wow=10)
    assert smaller.n == 63 and smaller.t == base.t


# -- run-table records against live reports ----------------------------------

_CODES = SOLVER_ISA.codes()
_INSTRUCTION = st.sampled_from(_CODES).flatmap(
    lambda c: st.tuples(
        st.just(c), st.tuples(*[st.integers(0, 15)] * SOLVER_ISA.by_code[c].nibbles)
    )
)


def _live_report(solver, task, trace, budget):
    """The live run a run table stands for: a replay against a stored trace,
    else solves."""
    if trace is not None and isinstance(task, DecisionTask):
        return replay_check(solver, task, trace, budget)
    return solves(solver, task, budget)[0]


def _raised(fn):
    try:
        return fn()
    except Exception as exc:  # the record and the live report must raise alike
        return type(exc), str(exc)


def _check_record(solver, task, trace, budgets):
    """record_run equals run_record of the live report at the whole bound,
    computes no state digest, raises as the live report raises, and answers
    every budget as a live run under it does (the prefix rule)."""
    from unittest import mock

    from autodidact import vm

    def no_digest(*_state):
        raise AssertionError("a run-table record computed a state digest")

    want = _raised(lambda: run_record(_live_report(solver, task, trace, None)))
    with mock.patch.object(vm, "_quick_state_digest", no_digest):
        got = _raised(lambda: record_run(solver, task, trace))
    assert got == want
    if isinstance(got[0], type):
        return got
    for budget in budgets:
        rep = _live_report(solver, task, trace, budget)
        assert report_within(got, budget, task.t) == (
            rep.success if rep.conclusive else None,
            rep.steps,
        )
    return got


@st.composite
def _record_cases(draw):
    """(solver, task, stored trace or None, budgets) for a pattern task, a
    live decision task or a replayed one.  The solver is a template that
    solves the task, random code, or both; its start may be routed, its
    code may end in a backward jump (long runs, timeouts), and n is drawn
    near the solver's size, so the size bound decides some runs."""
    domain = draw(st.sampled_from(["pattern", "live", "replay"]))
    if domain == "pattern":
        i2 = nibble(draw(st.integers(0, 15)))
        o = BitString(draw(st.integers(0, 15)), 4)
        template = draw(
            st.sampled_from([const_nibble(o.value), copy_query_loop(), negate_query()])
        )
    else:
        world = WORLDS[draw(st.integers(0, len(WORLDS) - 1))]
        goal = world.goals[draw(st.integers(0, GOALS_PER_WORLD - 1))]
        template = grid_walk(world, goal)
    head = tuple(draw(st.lists(_INSTRUCTION, max_size=4)))
    body = template if draw(st.booleans()) else tuple(draw(st.lists(_INSTRUCTION, max_size=12)))
    code = head + body
    if draw(st.integers(0, 5)) == 0:
        code += ((I.OP_JMP, ((-1 - draw(st.integers(0, min(7, len(code))))) & 0xF,)),)
    m = len(code)
    n = draw(st.sampled_from([max(1, m - 1), max(1, m), m + 1, 1024]))
    t = draw(st.integers(1, 150))
    if domain == "pattern":
        task = PatternTask(draw(st.integers(0, PATTERN_COUNT - 1)), i2, o, t, n)
    else:
        ident = BitString(draw(st.integers(0, 255)), 8)
        task = DecisionTask(ident, GoalSpec(goal, draw(st.sampled_from([-1, 0]))), t, n, world)
    entries = {task.entry_key: len(head)} if draw(st.booleans()) else {}
    solver = SolverProgram(code, entries)
    trace = None
    if domain == "replay":
        source = draw(st.sampled_from(["own", "template", "random"]))
        if source == "random":
            steps = draw(
                st.lists(
                    st.tuples(
                        st.integers(0, 255), st.sampled_from([-1, 0, 1]), st.just(""),
                        st.integers(0, 4),
                    ),
                    max_size=6,
                )
            )
            trace = Trace(tuple(steps))
        else:
            recorder = solver if source == "own" else SolverProgram(template)
            trace = solve_decision(recorder, DecisionTask(ident, task.goal, 200, 1024, world))[1]
    budgets = draw(st.lists(st.integers(0, t + 5), max_size=4))
    return solver, task, trace, budgets


@settings(
    max_examples=400,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_record_cases())
def test_a_run_table_record_is_the_live_reports(case):
    _check_record(*case)


def test_run_table_records_cover_every_way_a_run_ends():
    # Fixed cases for what random generation may miss: a fault, a timeout,
    # a solver that solves the task but sits at its size bound n, a missing
    # pattern, and successes in all three domains.
    world = WORLDS[0]
    walk = SolverProgram(grid_walk(world, world.goals[0]))
    grid = DecisionTask(nibble(1) + nibble(0), GoalSpec(world.goals[0]), 40, 1024, world)
    trace = solve_decision(walk, grid)[1]
    copy = SolverProgram(copy_query_loop())
    copy_t = copy_task(t=64)
    missing = copy_task()
    object.__setattr__(missing, "i1", PATTERN_COUNT)
    cases = {
        "success": (copy, copy_t, None),
        "live": (walk, grid, None),
        "replay": (walk, grid, trace),
        "fault": (SolverProgram(SOLVER_ISA.assemble("POP\nHALT")), copy_t, None),
        "timeout": (SolverProgram(SOLVER_ISA.assemble("PUSH 1\nJMP -2")), copy_t, None),
        "size bound": (copy, copy_task(t=64, n=copy.component_count), None),
        "replay diverges": (SolverProgram(SOLVER_ISA.assemble("PUSH 9\nACT\nHALT")), grid, trace),
        "missing pattern": (copy, missing, None),
    }
    got = {name: _check_record(*case, range(0, 70, 7)) for name, case in cases.items()}
    assert got["success"][0] == HALTED and got["success"][2]
    assert got["live"][2] and got["replay"][2]
    assert got["fault"][0] == FAULTED and got["timeout"][0] == TIMED_OUT
    assert got["size bound"][0] == HALTED and not got["size bound"][2]
    assert got["replay diverges"][0] == HALTED and not got["replay diverges"][2]
    assert got["missing pattern"][0] is MissingPattern


# -- segment runs against runs of the built q --------------------------------


def _check_segment_runs(prefixes, code, task, trace, index):
    """For each solver s in ``prefixes``, q = s with ``code`` appended and
    the task's key routed at it: the answer its edit record reads off one
    segment table, shared by every s, is record_run on the built q, raised
    errors included.  The table stores a record exactly when the code run
    alone does not end in a bad jump, and then q is never built."""
    from autodidact.search import edit_record, fresh_caches
    from autodidact.tasks import _recorded
    from autodidact.validate import LEAVES, SegmentTable
    from autodidact.vm import BAD_JUMP, Append, SetEntry, apply_modification

    table = SegmentTable()
    for s in prefixes:
        script = [Append(i) for i in code] + [SetEntry(task.entry_key, len(s.instructions))]
        q, _changed = apply_modification(s, script)
        edit = edit_record(fresh_caches(), script, s)
        assert edit.code == code and edit.q is None
        got = _raised(lambda: edit.q_record(task, trace, index, table))
        assert got == _raised(lambda: record_run(q, task, trace))
        if isinstance(got[0], type):
            continue
        stored = table.by_code[code][index if trace is not None else 0][task.identity()]
        alone = _recorded(SolverProgram(code), task, trace)[0]
        assert (stored is LEAVES) == (alone.halt_reason == BAD_JUMP)
        assert (edit.q is None) == (stored is not LEAVES)
    return got


@st.composite
def _segment_cases(draw):
    """(prefix solvers, segment code, task, stored trace or None, index) for
    a pattern task, a live decision task or a replayed one.  The segment is
    a template that solves the task, random code, or both, and may end in a
    backward jump that lands below its start; the prefixes are random code
    of different lengths, whose rows may route the task's key elsewhere, and
    n is drawn near the size of q."""
    domain = draw(st.sampled_from(["pattern", "live", "replay"]))
    if domain == "pattern":
        i2 = nibble(draw(st.integers(0, 15)))
        o = BitString(draw(st.integers(0, 15)), 4)
        template = draw(
            st.sampled_from([const_nibble(o.value), copy_query_loop(), negate_query()])
        )
    else:
        world = WORLDS[draw(st.integers(0, len(WORLDS) - 1))]
        goal = world.goals[draw(st.integers(0, GOALS_PER_WORLD - 1))]
        template = grid_walk(world, goal)
    head = tuple(draw(st.lists(_INSTRUCTION, max_size=3)))
    body = template if draw(st.booleans()) else tuple(draw(st.lists(_INSTRUCTION, max_size=10)))
    code = head + body
    if draw(st.integers(0, 3)) == 0:
        code += ((draw(st.sampled_from([I.OP_JMP, I.OP_JZ])), (draw(st.integers(8, 15)),)),)
    t = draw(st.integers(1, 150))
    ident = BitString(draw(st.integers(0, 255)), 8)
    if domain == "pattern":
        task = PatternTask(draw(st.integers(0, PATTERN_COUNT - 1)), i2, o, t, 1)
    else:
        task = DecisionTask(ident, GoalSpec(goal, draw(st.sampled_from([-1, 0]))), t, 1, world)
    prefixes = []
    for _ in range(draw(st.integers(1, 3))):
        prefix = tuple(draw(st.lists(_INSTRUCTION, max_size=12)))
        rows = {}
        if draw(st.booleans()):
            rows[task.entry_key] = draw(st.integers(0, len(prefix)))
        prefixes.append(SolverProgram(prefix, rows))
    size = len(prefixes[0].instructions) + len(code)
    n = draw(st.sampled_from([max(1, size), size + 1, 1024]))
    task = replace(task, n=n)
    trace, index = None, 0
    if domain == "replay":
        recorder = SolverProgram(draw(st.sampled_from([code, template])))
        trace = solve_decision(recorder, DecisionTask(ident, task.goal, 200, 1024, world))[1]
        index = draw(st.integers(1, 9))
    return prefixes, code, task, trace, index


@settings(
    max_examples=300,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_segment_cases())
def test_a_segment_table_answer_is_the_record_of_the_built_q(case):
    _check_segment_runs(*case)


def test_a_segment_run_that_jumps_below_its_start_is_never_stored():
    # Appended at s = PUSH 1, OUTPUT, HALT, the segment JMP -4 jumps to
    # slot 0 of q, which then runs s and outputs 1: alone, it jumps to -3,
    # a bad jump.  Granted one step, q times out after that jump, where
    # the segment alone faults.  A jump past the end is bad in both.  None
    # of these is stored, and each answer is q's own record.
    s = SolverProgram(SOLVER_ISA.assemble("PUSH 1\nOUTPUT\nHALT"))
    back = SOLVER_ISA.assemble("JMP -4")
    ahead = SOLVER_ISA.assemble("JMP 7")
    task = PatternTask(0, nibble(0), BitString(1, 1), 10, 100)
    assert _check_segment_runs([s], back, task, None, 0) == (HALTED, 4, True, 4)
    timeout = replace(task, t=1)
    assert _check_segment_runs([s], back, timeout, None, 0) == (TIMED_OUT, 1, False, 1)
    assert _check_segment_runs([s], ahead, task, None, 0) == (FAULTED, 1, False, 1)
    # Runs that stay in the segment are stored; a missing pattern raises.
    assert _check_segment_runs([s], SOLVER_ISA.assemble("PUSH 1\nOUTPUT\nHALT"), task, None, 0)[2]
    missing = copy_task()
    object.__setattr__(missing, "i1", PATTERN_COUNT)
    assert _check_segment_runs([s], copy_query_loop(), missing, None, 0)[0] is MissingPattern
