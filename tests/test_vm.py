import random

import pytest

from autodidact.bits import BitString
from autodidact import isa as I
from autodidact.isa import SOLVER_ISA
from autodidact.vm import (
    Append,
    EMPTY_SOLVER,
    FrozenViolation,
    InvalidResult,
    SetEntry,
    SetSlot,
    SolverProgram,
    Truncate,
    apply_modification,
    run_solver,
)

EMPTY = BitString()


def asm(text):
    return SolverProgram(SOLVER_ISA.assemble(text))


@pytest.mark.parametrize("input_bits", ["", "0", "110101"])
def test_push_output_halt_hand_stepped(input_bits):
    # Three instructions, three steps: output "1", all slots used, whatever
    # the input happens to be.
    prog = asm("PUSH 1\nOUTPUT\nHALT")
    out = run_solver(prog, BitString.from_str(input_bits), None, 10)
    assert out.output == BitString.from_str("1")
    assert out.halted and out.halt_reason == "halt"
    assert out.steps_used == 3
    assert out.components_used == {1, 2, 3}


def test_empty_program_halts_immediately():
    out = run_solver(EMPTY_SOLVER, BitString.from_str("101"), None, 5)
    assert out.halted
    assert out.output == EMPTY
    assert out.steps_used == 0


def test_infinite_loop_hits_the_budget():
    prog = asm("JMP -1")
    out = run_solver(prog, EMPTY, None, 50)
    assert not out.halted
    assert out.steps_used == 50
    assert out.halt_reason == "budget"


def test_budget_exactness():
    # steps_used never exceeds the budget; a short budget means halted=False.
    prog = asm("PUSH 1\nOUTPUT\nHALT")
    out = run_solver(prog, EMPTY, None, 2)
    assert not out.halted and out.steps_used == 2
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randrange(1, 9)
        body = "\n".join(rng.choice(["PUSH 1", "POP", "DUP", "INC", "OUTPUT"]) for _ in range(n))
        budget = rng.randrange(1, 12)
        res = run_solver(asm(body), EMPTY, None, budget)
        assert res.steps_used <= budget
        if res.steps_used < budget:
            assert res.halted


def test_faults_consume_the_whole_budget():
    for text, reason in [
        ("POP", "stack_underflow"),
        ("PUSH 0\nDEC\nLOAD", "mem_fault"),  # address 0xffff
        ("READBIT", "input_exhausted"),
        ("ACT", "no_env"),
        ("JMP 7", "bad_jump"),
    ]:
        out = run_solver(asm(text), EMPTY, None, 40)
        assert not out.halted
        assert out.halt_reason == reason
        assert out.steps_used == 40  # billed in full
        assert out.executed < 40


def test_determinism():
    prog = asm("READBIT\nJZ 2\nPUSH 1\nOUTPUT\nHALT")
    inp = BitString.from_str("1")
    a = run_solver(prog, inp, None, 16)
    b = run_solver(prog, inp, None, 16)
    assert a == b


def test_arithmetic_wraps_sixteen_bits():
    prog = asm("PUSH 0\nDEC\nOUTPUT\nHALT")
    out = run_solver(prog, EMPTY, None, 8)
    assert out.output == BitString.from_str("1")  # 0xffff & 1


def test_memory_store_load():
    prog = asm("PUSH 7\nPUSH 3\nSTORE\nPUSH 3\nLOAD\nOUTPUT\nHALT")
    out = run_solver(prog, EMPTY, None, 16)
    assert out.halted
    assert out.output == BitString.from_str("1")  # 7 & 1


def test_entry_table_routes_by_identifier():
    prog = SolverProgram(
        SOLVER_ISA.assemble("PUSH 0\nOUTPUT\nHALT\nPUSH 1\nOUTPUT\nHALT"),
        entries={BitString.from_str("1").to_hex(): 3},
    )
    a = run_solver(prog, BitString.from_str("0"), None, 8)
    b = run_solver(prog, BitString.from_str("1"), None, 8)
    assert a.output.to01() == "0" and b.output.to01() == "1"
    assert b.components_used == {4, 5, 6}


def test_usage_soundness_by_mutation():
    # Replacing any unused slot with a trap (ACT faults without an
    # environment) or a HALT tripwire leaves the outcome identical, so the
    # reported usage set has no false negatives.
    rng = random.Random(17)
    codes = [c for c in SOLVER_ISA.codes()]
    for _ in range(120):
        prog_instrs = []
        for _ in range(rng.randrange(1, 10)):
            c = rng.choice(codes)
            args = tuple(rng.randrange(16) for _ in range(SOLVER_ISA.by_code[c].nibbles))
            prog_instrs.append((c, args))
        prog = SolverProgram(tuple(prog_instrs))
        inp = BitString.from_bits(rng.randrange(2) for _ in range(6))
        base = run_solver(prog, inp, None, 30)
        for slot in range(len(prog_instrs)):
            if slot + 1 in base.components_used:
                continue
            for trap in ((15, ()), (1, ())):  # ACT faults here; HALT would end the run
                mutated = list(prog_instrs)
                mutated[slot] = trap
                again = run_solver(SolverProgram(tuple(mutated)), inp, None, 30)
                assert again == base


# -- modification ----------------------------------------------------------


def test_empty_edit_is_identity():
    prog = asm("PUSH 1\nHALT")
    new, changed = apply_modification(prog, [])
    assert new == prog
    assert not changed.slots and not changed.entry_keys


def test_append_only_changes_new_indices():
    prog = asm("PUSH 1\nHALT")
    new, changed = apply_modification(prog, [Append((3, ())), Append((4, ()))])
    assert changed.slots == {3, 4}
    assert new.component_count == 4
    assert prog.component_count == 2  # original untouched


def test_single_slot_overwrite_diff():
    # Oracle: compare slot by slot.
    prog = asm("PUSH 1\nPUSH 2\nHALT")
    new, changed = apply_modification(prog, [SetSlot(1, (2, (7,)))])
    diff = {
        i + 1
        for i, (a, b) in enumerate(zip(prog.instructions, new.instructions))
        if a != b
    }
    assert changed.slots == diff == {2}


def test_truncate_marks_removed_slots():
    prog = asm("PUSH 1\nPUSH 2\nHALT")
    new, changed = apply_modification(prog, [Truncate(1)])
    assert new.component_count == 1
    assert changed.slots == {2, 3}


def test_frozen_prefix_rejects_overwrites_but_allows_appends():
    prog = asm("PUSH 1\nHALT").frozen_copy()
    with pytest.raises(FrozenViolation):
        apply_modification(prog, [SetSlot(0, (1, ()))])
    with pytest.raises(FrozenViolation):
        apply_modification(prog, [Truncate(1)])
    new, changed = apply_modification(prog, [Append((1, ()))])
    assert changed.slots == {3}


def test_frozen_entries_cannot_be_repointed():
    key = BitString.from_str("1").to_hex()
    prog = SolverProgram(SOLVER_ISA.assemble("HALT\nHALT"), entries={key: 0}).frozen_copy()
    with pytest.raises(FrozenViolation):
        apply_modification(prog, [SetEntry(key, 1)])
    # A fresh key is fine.
    fresh = BitString.from_str("0").to_hex()
    new, changed = apply_modification(prog, [SetEntry(fresh, 1)])
    assert changed.entry_keys == {fresh}


def test_invalid_instructions_are_rejected():
    prog = asm("HALT")
    with pytest.raises(InvalidResult):
        apply_modification(prog, [Append((99, ()))])
    with pytest.raises(InvalidResult):
        apply_modification(prog, [Append((2, ()))])  # PUSH needs an immediate
    with pytest.raises(InvalidResult):
        apply_modification(prog, [SetEntry("1:80", 5)])  # beyond program end


def test_a_row_outside_the_code_is_rejected_when_the_solver_is_made():
    # A row points at a slot from 0 to the program's end, where a run halts
    # at once.  Any other row is rejected when the solver is made, naming
    # its key, so a run never starts outside the code.
    code = SOLVER_ISA.assemble("PUSH 1\nOUTPUT\nHALT")
    for slot in (-1, len(code) + 1):
        with pytest.raises(InvalidResult, match=f"^entry 1:80 points at slot {slot}, beyond"):
            SolverProgram(code, {"1:80": slot})
    for row in (1.5, True, "1"):  # a run would index the code with it
        with pytest.raises(InvalidResult, match="^entry 1:80 points at .*, which is no slot"):
            SolverProgram(code, {"1:80": row})
    run = run_solver(SolverProgram(code, {"1:80": len(code)}), BitString.from_str("1"), None, 9)
    assert (run.halted, run.halt_reason, run.steps_used) == (True, "end", 0)


def test_edit_ops_are_immutable_tuples_kept_apart_by_kind():
    # Edit ops are NamedTuples: fields read by name and by position, and no
    # field can be assigned to.  Ops of different kinds never compare equal,
    # so scripts that differ only in an op's kind are distinct keys of the
    # phase's edits table, each with its own record, and the size change
    # worked out from each accepted script is its q's.  Every script's
    # record is made from its reading, with no q built: its fault (a frozen
    # key among them) is apply_modification's, and so are its changed set
    # and the q it builds on first use.  A script that appends a segment and
    # routes a key at slot |s| keeps the segment as its code, and so does
    # any script whose q is s with code appended and no other row moved.
    from autodidact.search import edit_record, fresh_caches

    ins = (2, (7,))
    assert tuple(SetSlot(1, ins)) == (1, ins) and SetSlot(1, ins).instruction == ins
    assert Append(ins).instruction == ins and Truncate(2).new_len == 2
    assert SetEntry("1:80", 3).key == "1:80" and SetEntry("1:80", 3).slot == 3
    for op, name in [
        (SetSlot(1, ins), "index"),
        (Append(ins), "instruction"),
        (Truncate(2), "new_len"),
        (SetEntry("1:80", 3), "slot"),
    ]:
        with pytest.raises(AttributeError):
            setattr(op, name, 0)
    key = BitString.from_str("1").to_hex()
    frozen = BitString.from_str("0").to_hex()
    pool = (
        [SetSlot(k, i) for k in range(3) for i in (ins, (1, ()))]
        + [Append(i) for i in (ins, (1, ()))]
        + [Truncate(n) for n in range(3)]
        + [SetEntry(k, n) for k in (key, frozen) for n in range(4)]
    )
    for a in pool:
        assert [b for b in pool if b == a] == [a]
    code = SOLVER_ISA.assemble("PUSH 1\nPUSH 2\nHALT")
    prog = SolverProgram(code, {frozen: 1}, 0, frozenset({frozen}))
    caches = fresh_caches()
    scripts = [(a,) for a in pool] + [(a, b) for a in pool for b in pool]
    for script in scripts:
        edit_record(caches, list(script), prog)
    assert list(caches["edits"]) == scripts
    lazy = {"routed": 0, "segment": 0, "frozen": 0}
    for script, record in caches["edits"].items():
        assert record.q is None
        routed = _routed(prog, script)
        try:
            q, changed = apply_modification(prog, script)
        except (InvalidResult, FrozenViolation) as exc:
            assert record.fault == f"bad_edit: {exc}"
            lazy["frozen"] += routed
            continue
        assert record.fault is None and record.changes() == changed
        if record.code is not None:
            assert q.instructions == code + record.code and record.q is None
            lazy["segment"] += 1
            lazy["routed"] += routed
        else:
            assert not routed
        assert record.applied() == (q, changed)
        assert prog.size_bits + record.size_change() == q.size_bits
    # SetEntry at |s| alone or after either Append, for the free and the
    # frozen key.  The other segments are the scripts made only of Appends,
    # SetSlots that write what a slot holds, the frozen key's row set where
    # it is, and the free key routed at |s| before or after other such ops.
    assert lazy == {"routed": 3, "segment": 33, "frozen": 3}


def test_a_routing_only_record_holds_no_q_until_a_stage_applies_it(monkeypatch):
    # SetEntry(k, j) with j < |s| moves a row and appends nothing: its
    # record is read from the script alone, and q is built, through the
    # search module's apply_modification, only when a stage calls applied().
    from autodidact import search
    from autodidact.search import edit_record, fresh_caches

    builds = []

    def counting(prev, edits):
        builds.append(edits)
        return apply_modification(prev, edits)

    monkeypatch.setattr(search, "apply_modification", counting)
    prog = asm("PUSH 1\nOUTPUT\nHALT")
    key = BitString.from_str("1").to_hex()
    script = (SetEntry(key, 1),)
    record = edit_record(fresh_caches(), script, prog)
    assert record.q is None and record.changed is None and builds == []
    assert record.fault is None and record.code is None
    q, changed = record.applied()
    assert builds == [script] and (q, changed) == apply_modification(prog, script)
    assert record.changes() == changed and builds == [script]
    record.release()
    assert record.q is None and record.changed is None


def test_disassembly_round_trips():
    text = "PUSH 3\nJZ -2\nREADBIT\nOUTPUT\nHALT"
    prog = asm(text)
    assert prog.disassemble() == text
    assert SOLVER_ISA.assemble(prog.disassemble()) == prog.instructions


def test_disassembly_golden():
    # The mnemonic format is a stable external surface.
    from autodidact.templates import copy_query_loop

    golden = (
        "PUSH 5\nDUP\nJZ 4\nREADBIT\nPOP\nDEC\nJMP -6\nPOP\n"
        "PUSH 4\nDUP\nJZ 4\nREADBIT\nOUTPUT\nDEC\nJMP -6\nPOP\nHALT"
    )
    assert SolverProgram(copy_query_loop()).disassemble() == golden


def test_solver_serialization_round_trip():
    prog = SolverProgram(
        SOLVER_ISA.assemble("PUSH 1\nOUTPUT\nHALT"),
        entries={"1:00": 0},
        frozen_prefix_len=3,
        frozen_entry_keys=frozenset({"1:00"}),
    )
    back = SolverProgram.from_json(prog.to_json())
    assert back == prog
    assert back.frozen_prefix_len == 3
    assert back.frozen_entry_keys == {"1:00"}


def test_vm_fuzz_invariants():
    # Arbitrary decodable programs under arbitrary budgets and inputs never
    # raise, never overrun their budget, and satisfy the halting accounting:
    # fewer billed steps than the budget means the run terminated cleanly.
    from autodidact.grid import WORLDS, LiveEnv

    rng = random.Random(20260808)
    codes = SOLVER_ISA.codes()
    for trial in range(400):
        instrs = []
        for _ in range(rng.randrange(0, 14)):
            c = rng.choice(codes)
            args = tuple(rng.randrange(16) for _ in range(SOLVER_ISA.by_code[c].nibbles))
            instrs.append((c, args))
        entries = {}
        if instrs and rng.random() < 0.3:
            entries[BitString(rng.randrange(4), 2).to_hex()] = rng.randrange(len(instrs) + 1)
        prog = SolverProgram(tuple(instrs), entries)
        inp = BitString.from_bits(rng.randrange(2) for _ in range(rng.randrange(0, 10)))
        budget = rng.randrange(1, 80)
        env = None
        if rng.random() < 0.4:
            world = WORLDS[rng.randrange(len(WORLDS))]
            env = LiveEnv(world, world.goals[rng.randrange(len(world.goals))])
        out = run_solver(prog, inp, env, budget)
        assert out.steps_used <= budget
        assert out.executed <= out.steps_used
        if out.steps_used < budget:
            assert out.halted
        if not out.halted:
            assert out.steps_used == budget
        assert out.components_used <= set(range(1, len(instrs) + 1))
        # determinism across a replay of the same configuration
        env2 = None
        if env is not None:
            env2 = LiveEnv(env.state.world, env.state.goal)
        assert run_solver(prog, inp, env2, budget) == out


def _outcome(fn, prev, edits):
    try:
        program, changed = fn(prev, edits)
    except (InvalidResult, FrozenViolation) as exc:
        return type(exc), str(exc)
    return (
        repr(program.instructions),
        sorted(program.entries.items()),
        program.frozen_prefix_len,
        program.frozen_entry_keys,
        changed,
    )


def test_apply_modification_matches_the_reference_over_random_scripts():
    # Same program, Changed, exception type and message as the frozen
    # reference (tests/reference_edits.py) on scripts full of bad input: bad
    # nibbles, bool immediates, unknown or malformed instructions, frozen
    # slots and rows, out-of-range slots and truncations, rows past the end,
    # unknown edit ops.  The size change worked out from the script matches
    # the size recomputed in full.
    rng = random.Random(20261018)
    codes = SOLVER_ISA.codes()
    keys = [BitString(v, 3).to_hex() for v in range(5)]

    def instr():
        roll = rng.random()
        c = rng.choice(codes)
        nb = SOLVER_ISA.by_code[c].nibbles
        if roll < 0.6:
            return (c, tuple(rng.randrange(16) for _ in range(nb)))
        if roll < 0.7:
            return (c, tuple(rng.choice([True, False]) for _ in range(nb)))
        if roll < 0.75:
            return (c, [rng.randrange(16) for _ in range(nb)])
        return rng.choice(
            [(0, ()), (17, ()), (99, ()), (2, ()), (1, (3,)), (2, (16,)), (2, (-1,)),
             (9, (1.5,)), None, "x", (2,), (2, (1,), 0)]
        )

    # The first word of each outcome, by kind of script, and what came of
    # the scripts that append a segment and route a key at prev's end.
    seen = {True: set(), False: set(), "segment": set()}
    for trial in range(3000):
        m = rng.randrange(0, 8)
        instrs = tuple((c, tuple(rng.randrange(16) for _ in range(SOLVER_ISA.by_code[c].nibbles)))
                       for c in (rng.choice(codes) for _ in range(m)))
        entries = {k: rng.randrange(m + 1) for k in rng.sample(keys, rng.randrange(3))}
        frozen = rng.randrange(m + 1) if rng.random() < 0.3 else 0
        frozen_keys = frozenset(k for k in entries if rng.random() < 0.3)
        prev = SolverProgram(instrs, entries, frozen, frozen_keys)
        # Half the scripts only append and set entries: the edits that
        # check only the rows they write.
        appends_only = rng.random() < 0.5
        edits = []
        for _ in range(rng.randrange(0, 6)):
            kind = rng.random()
            if appends_only:
                kind = 0.0 if kind < 0.6 else 0.8
            n = m + len(edits)
            if kind < 0.35:
                edits.append(Append(instr()))
            elif kind < 0.55:
                edits.append(SetSlot(rng.randrange(-1, n + 2), instr()))
            elif kind < 0.7:
                edits.append(Truncate(rng.randrange(-1, n + 2)))
            elif kind < 0.95:
                edits.append(SetEntry(rng.choice(keys), rng.randrange(-1, n + 3)))
            else:
                edits.append(("SetSlot", 0))
        if appends_only and rng.random() < 0.3:  # a segment routed at prev's end
            edits = [op for op in edits if type(op) is Append] + [SetEntry(rng.choice(keys), m)]
        outcome = _check_edit(prev, edits)
        word = outcome[1].split()[0] if isinstance(outcome[0], type) else "ok"
        seen[appends_only].add(word)
        if _routed(prev, edits):
            seen["segment"].add("frozen" if outcome[0] is FrozenViolation else word)
    # Both kinds of script reach every check that can reject them, and so do
    # routed segments: a frozen key, a bad instruction.
    assert seen[True] == {"ok", "entry", "bad"}
    assert seen[False] == {"ok", "entry", "bad", "slot", "cannot", "truncation", "unknown"}
    assert seen["segment"] == {"ok", "frozen", "bad"}


def _routed(prev, edits) -> bool:
    """Whether the script appends and then routes a key at prev's end."""
    return bool(edits) and type(edits[-1]) is SetEntry and edits[-1].slot == len(
        prev.instructions
    ) and all(type(op) is Append for op in edits[:-1])


def _check_edit(prev, edits):
    """apply_modification, and the record the search makes of the script,
    against the frozen reference (tests/reference_edits.py): the record's
    fault, changed set and size change, and, where q is prev with code
    appended, that code, made of the shared instruction tuples q holds."""
    import reference_edits
    from autodidact.search import edit_record, fresh_caches

    outcome = _outcome(apply_modification, prev, edits)
    assert outcome == _outcome(reference_edits.apply_modification, prev, edits), (
        prev.to_json(), edits
    )
    try:
        hash(tuple(edits))
    except TypeError:  # a list of immediates: no key of the phase's edits table
        return outcome
    record = edit_record(fresh_caches(), edits, prev)
    assert record.q is None
    if isinstance(outcome[0], type):
        assert record.fault == f"bad_edit: {outcome[1]}"
        return outcome
    q, changed = reference_edits.apply_modification(prev, edits)
    assert record.fault is None and record.changes() == changed
    assert prev.size_bits + record.size_change() == q.size_bits
    assert _outcome(lambda *_: record.applied(), prev, edits) == outcome
    start = len(prev.instructions)
    if record.code is not None:
        # q is prev with the code appended, and at most the record's key
        # moved, to prev's end.  The code holds the shared instruction
        # tuples the record's own q holds (reference_edits has its own).
        assert q.instructions == prev.instructions + record.code
        assert all(a is b for a, b in zip(record.code, record.applied()[0].instructions[start:]))
        assert changed.entry_keys == ({record.key} if record.key is not None else set())
        assert record.key is None or q.entries[record.key] == start
    else:
        assert not _routed(prev, edits)
    return outcome


# ---------------------------------------------------------------------------
# The interpreter against its frozen reference (tests/reference_vm.py)
# ---------------------------------------------------------------------------


# Every observable of a run, by name: RunOutcome builds output and
# components_used on access from its raw fields.
OBSERVABLES = (
    "output", "steps_used", "executed", "components_used", "halted", "halt_reason", "fault"
)


def _outcome_fields(outcome):
    return tuple(getattr(outcome, f) for f in OBSERVABLES)


def _random_instructions(rng, n):
    codes = SOLVER_ISA.codes()
    out = []
    for _ in range(n):
        c = rng.choice(codes)
        out.append((c, tuple(rng.randrange(16) for _ in range(SOLVER_ISA.by_code[c].nibbles))))
    return tuple(out)


def _differential_cases(rng, trials):
    """(program, input, entry_key, budget, task item or None) over random and
    template-built solvers, the latter randomly edited."""
    from conftest import build_repertoire, random_edit

    for trial in range(trials):
        if trial % 2:
            instrs = _random_instructions(rng, rng.randrange(0, 20))
            if trial % 6 == 1:
                # A body of up to 7 slots looped back to its start by a JMP
                # or JZ of -1..-8: long runs that fill the stack and act
                # many times.
                body = instrs[: rng.randrange(8)]
                jump = rng.choice((I.OP_JMP, I.OP_JZ))
                instrs = body + ((jump, ((-1 - len(body)) & 0xF,)),)
            entries = {}
            if instrs and rng.random() < 0.5:
                entries[BitString(rng.randrange(4), 2).to_hex()] = rng.randrange(len(instrs) + 1)
            prog = SolverProgram(instrs, entries)
            inp = BitString.from_bits(rng.randrange(2) for _ in range(rng.randrange(0, 12)))
            item = None
        else:
            solver, items, _usage = build_repertoire(rng, rng.randrange(1, 4))
            item = rng.choice(items)
            prog = solver
            if rng.random() < 0.6:
                try:
                    prog, _changed = apply_modification(solver, random_edit(rng, solver, items))
                except (InvalidResult, FrozenViolation):
                    pass
            inp = item.task.identifier
        key = rng.choice([None, inp.to_hex(), BitString(rng.randrange(4), 2).to_hex()])
        yield prog, inp, key, rng.randrange(1, 200), item


def test_run_solver_equals_the_reference_interpreter():
    # Every observable of a run and every live trace step, digests included,
    # equal the pre-rewrite interpreter's, with no environment, a live
    # gridworld and a replayed trace, over random and template-built programs.
    import dataclasses

    import reference_vm as ref
    from autodidact.grid import WORLDS, LiveEnv, ReplayEnv
    from autodidact.tasks import DecisionTask

    assert {f.name for f in dataclasses.fields(ref.RunOutcome)} | {"fault"} == set(OBSERVABLES)
    rng = random.Random(20261019)
    reasons, acts = set(), 0
    for prog, inp, key, budget, item in _differential_cases(rng, 900):
        decision = item is not None and isinstance(item.task, DecisionTask)
        if decision:
            world, goal = item.task.world, item.task.goal.target_cell
        else:
            world = WORLDS[rng.randrange(len(WORLDS))]
            goal = world.goals[rng.randrange(len(world.goals))]
        for kind in ("none", "live", "replay"):
            if kind == "none":
                env, ref_env = None, None
            elif kind == "live":
                env, ref_env = LiveEnv(world, goal), ref.LiveEnv(world, goal)
            else:
                if decision and rng.random() < 0.7:
                    steps, obs = item.trace.steps, item.task.initial_obs()
                else:
                    steps = tuple(
                        (rng.randrange(256), rng.choice((-1, 0, 1)), "", rng.randrange(5))
                        for _ in range(rng.randrange(0, 6))
                    )
                    obs = rng.randrange(256)
                env, ref_env = ReplayEnv(steps, obs), ref.ReplayEnv(steps, obs)
            got = run_solver(prog, inp, env, budget, key)
            want = ref.run_solver(prog, inp, ref_env, budget, key)
            assert _outcome_fields(got) == _outcome_fields(want)
            if kind == "live":
                assert env.trace_steps == ref_env.trace_steps
                assert env.state == ref_env.state
                acts += len(env.trace_steps)
            elif kind == "replay":
                assert (env.pos, env.diverged, env.exact) == (
                    ref_env.pos, ref_env.diverged, ref_env.exact
                )
            reasons.add(want.halt_reason)
    # The cases reach every way a run ends, and live runs act.
    assert reasons >= {"halt", "end", "budget", "stack_underflow", "stack_overflow",
                       "bad_jump", "input_exhausted", "no_env", "mem_fault"}
    assert acts > 100


def test_a_replay_run_computes_no_state_digest(monkeypatch):
    # A live run records the solver-state digest at every ACT; a replay of
    # its trace reproduces the run without computing a single digest.
    from autodidact import vm
    from autodidact.grid import LiveEnv, ReplayEnv
    from autodidact.tasks import DecisionTask, replay_check

    from conftest import build_repertoire

    rng = random.Random(17)
    replayed = 0
    while replayed < 5:
        solver, items, _usage = build_repertoire(rng, 3)
        for item in items:
            if not isinstance(item.task, DecisionTask):
                continue
            task, trace = item.task, item.trace
            assert trace.steps and all(len(u) == 12 for _x, _r, u, _y in trace.steps)

            def no_digest(*_state):
                raise AssertionError("a replay computed a state digest")

            with monkeypatch.context() as patched:
                patched.setattr(vm, "_quick_state_digest", no_digest)
                assert replay_check(solver, task, trace).success
                env = ReplayEnv(trace.steps, task.initial_obs())
                run_solver(solver, task.identifier, env, task.t, task.entry_key)
                assert env.exact
                # The patch is on the live path: a live run calls it.
                with pytest.raises(AssertionError, match="computed a state digest"):
                    live = LiveEnv(task.world, task.goal.target_cell)
                    run_solver(solver, task.identifier, live, task.t, task.entry_key)
            replayed += 1
