"""Shared builders: synthetic-but-consistent repertoires without running search."""

import random

import pytest

from autodidact.bits import nibble
from autodidact.grid import GOALS_PER_WORLD, WORLDS
from autodidact.patterns import PATTERN_COUNT
from autodidact.tasks import DecisionTask, GoalSpec, PatternTask, solves
from autodidact.templates import const_nibble, copy_query_loop, grid_walk, negate_query
from autodidact.validate import RepertoireItem, UsageIndex
from autodidact.vm import Append, SetEntry, SolverProgram, apply_modification


def install_segment(solver, instructions, entry_key):
    """Append a code block and route one identifier at it (like an acceptance)."""
    edits = [Append(ins) for ins in instructions]
    edits.append(SetEntry(entry_key, solver.component_count))
    return apply_modification(solver, edits)


def execute(meta, problem, budget, caches=None):
    """Run a MetaProgram through search.try_candidate, as a bucket entry of its length."""
    from autodidact import search

    entry = (meta.code.value, *meta.parts)
    return search.try_candidate(entry, meta.code.length, problem, budget, caches)


def random_task(rng: random.Random, used_identifiers, t_pattern=64, t_grid=48):
    """A solvable random task plus the template code that solves it.

    Deduplicates on the identifier: one routed program cannot answer the same
    identifier two different ways, so a fresh task needs a fresh identifier.
    """
    while True:
        kind = rng.choice(["const", "copy", "neg", "grid"])
        if kind == "grid":
            w = rng.randrange(len(WORLDS))
            g = rng.randrange(GOALS_PER_WORLD)
            world = WORLDS[w]
            task = DecisionTask(
                nibble(w) + nibble(g), GoalSpec(world.goals[g]), t_grid, 1024, world
            )
            code = grid_walk(world, world.goals[g])
        else:
            i1 = rng.randrange(PATTERN_COUNT)
            i2 = nibble(rng.randrange(16))
            if kind == "const":
                o = nibble(rng.randrange(16))
                code = const_nibble(o.value)
            elif kind == "copy":
                o = i2
                code = copy_query_loop()
            else:
                o = nibble(~i2.value)
                code = negate_query()
            task = PatternTask(i1, i2, o, t_pattern, 1024)
        if task.identifier.to_hex() not in used_identifiers:
            return task, code


def build_repertoire(rng: random.Random, n_tasks: int):
    """A solver, repertoire and usage index that are mutually consistent."""
    solver = SolverProgram()
    items = []
    usage = UsageIndex()
    used = set()
    for index in range(1, n_tasks + 1):
        task, code = random_task(rng, used)
        used.add(task.identifier.to_hex())
        solver, _changed = install_segment(solver, code, task.identifier.to_hex())
        report, trace = solves(solver, task)
        assert report.success, "builder produced an unsolvable task"
        item = RepertoireItem(index=index, task=task, trace=trace)
        items.append(item)
        usage.record(index, report.components_used, item.entry_key)
    return solver, items, usage


def random_edit(rng: random.Random, solver: SolverProgram, items):
    """A random edit script mixing appends, overwrites, truncations, reroutes."""
    from autodidact.isa import SOLVER_ISA
    from autodidact.vm import SetSlot, Truncate

    edits = []
    kind = rng.choice(["append", "set", "truncate", "reroute", "mixed"])
    codes = SOLVER_ISA.codes()

    def rand_instr():
        c = rng.choice(codes)
        nb = SOLVER_ISA.by_code[c].nibbles
        return (c, tuple(rng.randrange(16) for _ in range(nb)))

    m = solver.component_count
    if kind in ("append", "mixed") or m == 0:
        for _ in range(rng.randrange(1, 6)):
            edits.append(Append(rand_instr()))
    if kind in ("set", "mixed") and m:
        for _ in range(rng.randrange(1, 3)):
            edits.append(SetSlot(rng.randrange(m), rand_instr()))
    if kind == "truncate" and m:
        edits.append(Truncate(rng.randrange(m + 1)))
    if kind == "reroute" and items:
        victim = rng.choice(items)
        edits.append(SetEntry(victim.entry_key, rng.randrange(m + 1)))
    if not edits:
        edits.append(Append(rand_instr()))
    return edits


@pytest.fixture
def rng():
    return random.Random(1234)
