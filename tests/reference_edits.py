"""A frozen copy of ``vm.apply_modification`` before edits cost O(edit).

It copies prev's slots into a list, dispatches each op by isinstance, and
range-checks every entry row of the result.  The differential test in
tests/test_vm.py holds the shipped apply_modification to it: the same
program, the same Changed, and the same exception type and message.  Only
the program's constructor differs: this copy builds the result with the
public SolverProgram constructor.
"""

from itertools import product

from autodidact.isa import SOLVER_ISA
from autodidact.vm import (
    Append,
    Changed,
    FrozenViolation,
    InvalidResult,
    SetEntry,
    SetSlot,
    SolverProgram,
    Truncate,
)


def _check_instruction(instr) -> tuple:
    try:
        code, args = instr
        spec = SOLVER_ISA.by_code.get(code)
        if spec is None or len(args) != spec.nibbles:
            raise InvalidResult(f"bad instruction {instr!r}")
        for a in args:
            if not 0 <= int(a) < 16:
                raise InvalidResult(f"bad immediate in {instr!r}")
        return (code, tuple(int(a) for a in args))
    except (TypeError, ValueError) as exc:
        raise InvalidResult(f"bad instruction {instr!r}") from exc


_CANONICAL = {
    (code, args): (code, args)
    for code, spec in SOLVER_ISA.by_code.items()
    for args in product(range(16), repeat=spec.nibbles)
}


def _canonical(instr) -> tuple:
    try:
        hit = _CANONICAL.get(instr)
    except TypeError:  # unhashable parts, e.g. a list of immediates
        hit = None
    return hit if hit is not None else _check_instruction(instr)


def apply_modification(prev: SolverProgram, edits) -> tuple:
    slots = list(prev.instructions)
    entries = dict(prev.entries)
    changed_slots: set = set()
    changed_keys: set = set()

    for op in edits:
        if isinstance(op, SetSlot):
            if not 0 <= op.index < len(slots):
                raise InvalidResult(f"slot {op.index} out of range")
            if op.index < prev.frozen_prefix_len:
                raise FrozenViolation(f"slot {op.index} is frozen")
            new = _canonical(op.instruction)
            if slots[op.index] != new:
                slots[op.index] = new
                changed_slots.add(op.index + 1)
        elif isinstance(op, Append):
            slots.append(_canonical(op.instruction))
            changed_slots.add(len(slots))
        elif isinstance(op, Truncate):
            if not 0 <= op.new_len <= len(slots):
                raise InvalidResult(f"cannot truncate to {op.new_len}")
            if op.new_len < prev.frozen_prefix_len:
                raise FrozenViolation("truncation into the frozen prefix")
            for k in range(op.new_len, len(slots)):
                changed_slots.add(k + 1)
            del slots[op.new_len :]
        elif isinstance(op, SetEntry):
            if op.key in prev.frozen_entry_keys and entries.get(op.key) != op.slot:
                raise FrozenViolation(f"entry for {op.key} is frozen")
            if entries.get(op.key) != op.slot:
                entries[op.key] = op.slot
                changed_keys.add(op.key)
        else:
            raise InvalidResult(f"unknown edit op {op!r}")

    for key, slot in entries.items():
        if not 0 <= slot <= len(slots):
            raise InvalidResult(f"entry {key} points at slot {slot}, beyond program end")

    program = SolverProgram(tuple(slots), entries, prev.frozen_prefix_len, prev.frozen_entry_keys)
    return program, Changed(frozenset(changed_slots), frozenset(changed_keys))
