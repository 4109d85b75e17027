"""The problem solver: a deterministic, step-budgeted stack VM.

A solver is an instruction sequence (one instruction slot = one addressable
component, indexed from 1) plus an entry table mapping task identifier bits to
a start slot.  Feeding an identifier whose key is in the table starts
execution at the mapped slot; unknown identifiers start at slot 0.  The entry
table is how one program serves many tasks without hand-searched dispatch
code: the architecture routes, the code computes.

Runs are pure functions of (program, input, environment value, budget).
Adversarial programs are expected: stack faults, bad jumps, exhausted input
and missing environments are not Python errors, they end the run with
halted=False and a diagnostic.  A faulted or timed-out run is billed its full
step budget, so ``halted is False`` always means the budget is gone.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import product
from typing import Optional

from .bits import BitString
from .codec import decode, encode, program_bits
from . import isa as I
from .isa import SOLVER_ISA, signed_nibble

STACK_DEPTH = 64
MEMORY_CELLS = 64
WORD_MASK = 0xFFFF
ENTRY_BITS = 16  # accounting size of one entry-table row in L(s)

HALT_EXPLICIT = "halt"
HALT_END = "end"
DIAG_BUDGET = "budget"

_CONCLUSIVE_FAULTS = frozenset(
    {
        "stack_underflow",
        "stack_overflow",
        "mem_fault",
        "bad_jump",
        "input_exhausted",
        "no_env",
    }
)


class FrozenViolation(ValueError):
    """An edit touched a frozen slot or a frozen entry-table row."""


class InvalidResult(ValueError):
    """An edit produced something that is not a well-formed solver."""


class SolverProgram:
    """Immutable solver: instruction slots, entry table, frozen prefix."""

    __slots__ = (
        "instructions",
        "entries",
        "frozen_prefix_len",
        "frozen_entry_keys",
        "_code",
    )

    def __init__(
        self,
        instructions: tuple = (),
        entries: Optional[dict] = None,
        frozen_prefix_len: int = 0,
        frozen_entry_keys: frozenset = frozenset(),
    ):
        object.__setattr__(self, "instructions", tuple(instructions))
        object.__setattr__(self, "entries", dict(entries or {}))
        object.__setattr__(self, "frozen_prefix_len", frozen_prefix_len)
        object.__setattr__(self, "frozen_entry_keys", frozenset(frozen_entry_keys))
        object.__setattr__(self, "_code", None)

    @classmethod
    def _owning(cls, instructions: tuple, entries: dict, frozen_prefix_len, frozen_entry_keys):
        """__init__ without its defensive copies, for callers that own the parts."""
        program = object.__new__(cls)
        object.__setattr__(program, "instructions", instructions)
        object.__setattr__(program, "entries", entries)
        object.__setattr__(program, "frozen_prefix_len", frozen_prefix_len)
        object.__setattr__(program, "frozen_entry_keys", frozen_entry_keys)
        object.__setattr__(program, "_code", None)
        return program

    def __setattr__(self, name, val):
        raise AttributeError("SolverProgram is immutable")

    # -- views ---------------------------------------------------------

    @property
    def component_count(self) -> int:
        return len(self.instructions)

    @property
    def code(self) -> BitString:
        if self._code is None:
            object.__setattr__(self, "_code", encode(self.instructions))
        return self._code

    @property
    def size_bits(self) -> int:
        """L(s): encoded instruction stream plus a fixed charge per entry row."""
        return program_bits(self.instructions) + ENTRY_BITS * len(self.entries)

    def entry_for(self, input_bits: BitString) -> int:
        return self.entries.get(input_bits.to_hex(), 0)

    def disassemble(self) -> str:
        return SOLVER_ISA.disassemble(self.instructions)

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(self.code.to_hex().encode())
        for key in sorted(self.entries):
            h.update(f"|{key}={self.entries[key]}".encode())
        return h.hexdigest()[:16]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SolverProgram)
            and self.instructions == other.instructions
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.instructions, tuple(sorted(self.entries.items()))))

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "code": self.code.to_hex(),
            "entries": {k: v for k, v in sorted(self.entries.items())},
            "frozen_prefix_len": self.frozen_prefix_len,
            "frozen_entry_keys": sorted(self.frozen_entry_keys),
        }

    @classmethod
    def from_json(cls, data: dict) -> "SolverProgram":
        bits = BitString.from_hex(data["code"])
        decoded = decode(bits)
        if decoded.consumed_bits != bits.length:
            raise InvalidResult("solver code has trailing bits")
        return cls(
            decoded.instructions,
            dict(data.get("entries", {})),
            int(data.get("frozen_prefix_len", 0)),
            frozenset(data.get("frozen_entry_keys", ())),
        )

    def frozen_copy(self) -> "SolverProgram":
        """Freeze everything: append-only growth from here on (prefix mode)."""
        return SolverProgram(
            self.instructions,
            self.entries,
            len(self.instructions),
            frozenset(self.entries),
        )


EMPTY_SOLVER = SolverProgram()


# ---------------------------------------------------------------------------
# Edits
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SetSlot:
    index: int  # 0-based slot
    instruction: tuple


@dataclass(frozen=True, slots=True)
class Append:
    instruction: tuple


@dataclass(frozen=True, slots=True)
class Truncate:
    new_len: int


@dataclass(frozen=True, slots=True)
class SetEntry:
    key: str  # identifier bits in "len:hex" form
    slot: int


@dataclass(frozen=True)
class Changed:
    """What an edit touched: 1-based component indices plus entry keys."""

    slots: frozenset = frozenset()
    entry_keys: frozenset = frozenset()
    length_changed: bool = False

    def __bool__(self) -> bool:
        return bool(self.slots or self.entry_keys)


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


# Every well-formed instruction, mapped to itself: a hit is already in the
# canonical (code, int nibbles) form, so only the rest needs _check_instruction.
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


def apply_modification(prev: SolverProgram, edits) -> tuple[SolverProgram, Changed]:
    """Apply an edit script to a copy of prev; prev itself is untouched.

    Returns the new program together with the exact set of changed component
    indices (1-based) and changed entry-table keys.  Frozen slots and frozen
    entry rows reject the whole edit.
    """
    slots = list(prev.instructions)
    entries = dict(prev.entries)
    changed_slots: set[int] = set()
    changed_keys: set[str] = set()
    length_changed = False

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
            length_changed = True
        elif isinstance(op, Truncate):
            if not 0 <= op.new_len <= len(slots):
                raise InvalidResult(f"cannot truncate to {op.new_len}")
            if op.new_len < prev.frozen_prefix_len:
                raise FrozenViolation("truncation into the frozen prefix")
            for k in range(op.new_len, len(slots)):
                changed_slots.add(k + 1)
            if op.new_len != len(slots):
                length_changed = True
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

    new_program = SolverProgram._owning(
        tuple(slots), entries, prev.frozen_prefix_len, prev.frozen_entry_keys
    )
    return new_program, Changed(
        frozenset(changed_slots), frozenset(changed_keys), length_changed
    )


def size_change(prev: SolverProgram, new: SolverProgram, changed: Changed) -> int:
    """new.size_bits - prev.size_bits for new, changed = apply_modification(prev, ...).

    Every slot outside ``changed.slots`` holds the same instruction in both
    programs, so the work is in proportion to the edit, not to the solver.
    """
    old_slots, new_slots = prev.instructions, new.instructions
    delta = ENTRY_BITS * (len(new.entries) - len(prev.entries))
    for k in changed.slots:
        if k <= len(new_slots):
            delta += SOLVER_ISA.width(new_slots[k - 1][0])
        if k <= len(old_slots):
            delta -= SOLVER_ISA.width(old_slots[k - 1][0])
    return delta


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunOutcome:
    output: BitString
    steps_used: int  # billed steps; equals the budget when halted is False
    executed: int  # instructions actually executed
    components_used: frozenset  # 1-based slot indices
    halted: bool
    halt_reason: str  # "halt", "end", "budget", or a fault code
    action_log: tuple = ()

    @property
    def fault(self) -> bool:
        return self.halt_reason in _CONCLUSIVE_FAULTS


def run_solver(
    program: SolverProgram,
    input_bits: BitString,
    env=None,
    step_budget: int = 1,
    entry_key: Optional[str] = None,
) -> RunOutcome:
    """Run the solver on one input under a hard step budget.

    Deterministic: identical (program, input, env initial state, budget)
    always produce an identical outcome.  The environment, when present, is
    driven through its sense()/act() methods; each ACT or SENSE costs one
    step like every other instruction.  ``entry_key`` is
    ``input_bits.to_hex()``, for callers that keep it (a task's entry_key).
    """
    if step_budget < 1:
        raise ValueError("step_budget must be >= 1")
    instrs = program.instructions
    m = len(instrs)
    pc = program.entry_for(input_bits) if entry_key is None else program.entries.get(entry_key, 0)
    if pc > m:
        pc = 0

    stack: list[int] = []
    memory = [0] * MEMORY_CELLS
    in_val, in_len = input_bits.value, input_bits.length
    cursor = 0
    out_val = 0
    out_len = 0
    used = bytearray(m)
    steps = 0
    actions: list[int] = []

    halted = False
    reason = DIAG_BUDGET

    while True:
        if pc == m:
            halted = True
            reason = HALT_END
            break
        if steps >= step_budget:
            reason = DIAG_BUDGET
            break
        code, args = instrs[pc]
        used[pc] = 1
        steps += 1
        next_pc = pc + 1

        if code == I.OP_PUSH:
            if len(stack) >= STACK_DEPTH:
                reason = "stack_overflow"
                break
            stack.append(args[0])
        elif code == I.OP_HALT:
            halted = True
            reason = HALT_EXPLICIT
            break
        elif code == I.OP_JZ:
            if not stack:
                reason = "stack_underflow"
                break
            if stack.pop() == 0:
                next_pc = pc + 1 + signed_nibble(args[0])
                if not 0 <= next_pc <= m:
                    reason = "bad_jump"
                    break
        elif code == I.OP_JMP:
            next_pc = pc + 1 + signed_nibble(args[0])
            if not 0 <= next_pc <= m:
                reason = "bad_jump"
                break
        elif code == I.OP_READBIT:
            if cursor >= in_len:
                reason = "input_exhausted"
                break
            if len(stack) >= STACK_DEPTH:
                reason = "stack_overflow"
                break
            stack.append((in_val >> (in_len - 1 - cursor)) & 1)
            cursor += 1
        elif code == I.OP_OUTPUT:
            if not stack:
                reason = "stack_underflow"
                break
            out_val = (out_val << 1) | (stack.pop() & 1)
            out_len += 1
        elif code == I.OP_POP:
            if not stack:
                reason = "stack_underflow"
                break
            stack.pop()
        elif code == I.OP_DUP:
            if not stack:
                reason = "stack_underflow"
                break
            if len(stack) >= STACK_DEPTH:
                reason = "stack_overflow"
                break
            stack.append(stack[-1])
        elif code == I.OP_SWAP:
            if len(stack) < 2:
                reason = "stack_underflow"
                break
            stack[-1], stack[-2] = stack[-2], stack[-1]
        elif code == I.OP_INC:
            if not stack:
                reason = "stack_underflow"
                break
            stack[-1] = (stack[-1] + 1) & WORD_MASK
        elif code == I.OP_DEC:
            if not stack:
                reason = "stack_underflow"
                break
            stack[-1] = (stack[-1] - 1) & WORD_MASK
        elif code == I.OP_ADD:
            if len(stack) < 2:
                reason = "stack_underflow"
                break
            b = stack.pop()
            stack[-1] = (stack[-1] + b) & WORD_MASK
        elif code == I.OP_LOAD:
            if not stack:
                reason = "stack_underflow"
                break
            addr = stack.pop()
            if addr >= MEMORY_CELLS:
                reason = "mem_fault"
                break
            stack.append(memory[addr])
        elif code == I.OP_STORE:
            if len(stack) < 2:
                reason = "stack_underflow"
                break
            addr = stack.pop()
            val = stack.pop()
            if addr >= MEMORY_CELLS:
                reason = "mem_fault"
                break
            memory[addr] = val
        elif code == I.OP_ACT:
            if env is None:
                reason = "no_env"
                break
            if not stack:
                reason = "stack_underflow"
                break
            action = stack.pop() % 5
            digest = _quick_state_digest(stack, memory, cursor, pc, steps)
            reward = env.act(action, digest)
            actions.append(action)
            stack.append(reward & WORD_MASK)
        elif code == I.OP_SENSE:
            if env is None:
                reason = "no_env"
                break
            if len(stack) >= STACK_DEPTH:
                reason = "stack_overflow"
                break
            stack.append(env.sense() & WORD_MASK)
        else:  # pragma: no cover - table and interpreter kept in sync
            raise AssertionError(f"unhandled opcode {code}")

        pc = next_pc

    executed = steps
    billed = steps if halted else step_budget
    comps = []
    i = used.find(1)
    while i >= 0:
        comps.append(i + 1)
        i = used.find(1, i + 1)
    return RunOutcome(
        output=BitString(out_val, out_len),
        steps_used=billed,
        executed=executed,
        components_used=frozenset(comps),
        halted=halted,
        halt_reason=reason,
        action_log=tuple(actions),
    )


def _quick_state_digest(stack, memory, cursor, pc, steps) -> str:
    h = hashlib.sha256()
    h.update(repr((tuple(stack), tuple(memory), cursor, pc, steps)).encode())
    return h.hexdigest()[:12]
