"""The problem solver: a deterministic, step-budgeted stack VM.

A solver is an instruction sequence (one instruction slot = one addressable
component, indexed from 1) plus an entry table mapping task identifier bits to
a start slot.  Feeding an identifier whose key is in the table starts
execution at the mapped slot; unknown identifiers start at slot 0.  A row
points at a slot from 0 to the program's end, which SolverProgram checks
once, when the solver is made: a run starts where its row points, and an
edit checks only the rows it moves, or every row when it shortens the
solver.  The entry table is how one program serves many tasks without
hand-searched dispatch code: the architecture routes, the code computes.

Runs are pure functions of (program, input, environment value, budget).
Adversarial programs are expected: stack faults, bad jumps, exhausted input
and missing environments are not Python errors, they end the run with
halted=False and a diagnostic.  A faulted or timed-out run is billed its full
step budget, so ``halted is False`` always means the budget is gone.

A RunOutcome keeps the interpreter's raw result and builds its output bits
and component set only when they are read, so a run-table record
(tasks.record_run), which reads neither, pays for neither.  An edit script
is read once, in O(edit), by read_edit: its fault, what q holds beyond
prev and q's changed set, without building q; apply_modification is that
reading plus a build, and size_change sizes what the reading holds.  The
commonest script the search proposes appends a segment and routes one key
at it (Reading.segment).  Relative jumps, the end-of-program halt and the
used flags do not depend on where code starts, so a run of q that starts
at the segment and never jumps below it is the segment's run as a solver
of its own (tasks.segment_record).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import partial
from itertools import compress, product
from typing import NamedTuple, Optional

from .bits import BitString
from .codec import decode, encode, program_bits
from .isa import (
    OPCODE_BITS,
    OP_ACT,
    OP_ADD,
    OP_DEC,
    OP_DUP,
    OP_HALT,
    OP_INC,
    OP_JMP,
    OP_JZ,
    OP_LOAD,
    OP_OUTPUT,
    OP_POP,
    OP_PUSH,
    OP_READBIT,
    OP_SENSE,
    OP_STORE,
    OP_SWAP,
    SOLVER_ISA,
)

STACK_DEPTH = 64
MEMORY_CELLS = 64
WORD_MASK = 0xFFFF
ENTRY_BITS = 16  # accounting size of one entry-table row in L(s)

HALT_EXPLICIT = "halt"
HALT_END = "end"
DIAG_BUDGET = "budget"
BAD_JUMP = "bad_jump"  # a jump past either end of the program

_CONCLUSIVE_FAULTS = frozenset(
    {
        "stack_underflow",
        "stack_overflow",
        "mem_fault",
        BAD_JUMP,
        "input_exhausted",
        "no_env",
    }
)


class FrozenViolation(ValueError):
    """An edit touched a frozen slot or a frozen entry-table row."""


class InvalidResult(ValueError):
    """An edit produced something that is not a well-formed solver."""


class SolverProgram:
    """Immutable solver: instruction slots, entry table, frozen prefix.

    An entry row that is no int from 0 to len(instructions) raises
    InvalidResult, naming its key."""

    __slots__ = ("instructions", "entries", "frozen_prefix_len", "frozen_entry_keys", "_code")

    def __init__(
        self,
        instructions: tuple = (),
        entries: Optional[dict] = None,
        frozen_prefix_len: int = 0,
        frozen_entry_keys: frozenset = frozenset(),
    ):
        instructions, entries = tuple(instructions), dict(entries or {})
        end = len(instructions)
        for key, slot in entries.items():
            if type(slot) is not int:
                raise InvalidResult(f"entry {key} points at {slot!r}, which is no slot")
            if not 0 <= slot <= end:
                raise InvalidResult(f"entry {key} points at slot {slot}, beyond program end")
        object.__setattr__(self, "instructions", instructions)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "frozen_prefix_len", frozen_prefix_len)
        object.__setattr__(self, "frozen_entry_keys", frozenset(frozen_entry_keys))
        object.__setattr__(self, "_code", None)

    @classmethod
    def _owning(cls, instructions: tuple, entries: dict, frozen_prefix_len, frozen_entry_keys):
        """__init__ without its copies and row check, for apply_modification,
        whose reading has checked every row that might not fit q."""
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
        code = self._code
        bits = code.length if code is not None else program_bits(self.instructions)
        return bits + ENTRY_BITS * len(self.entries)

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
    def from_json(cls, data: dict, after: Optional["SolverProgram"] = None) -> "SolverProgram":
        """The snapshot's solver; ``after`` may be the solver decoded before it.

        When the code starts with after's code without its terminator, only
        the rest is decoded.  The code is prefix-free and decoded in order,
        so the result, and any error a damaged snapshot raises, equal a
        decode of the whole code.  A row outside the code raises
        InvalidResult, as it does for any solver made.
        """
        bits = BitString.from_hex(data["code"])
        head, start = (), 0
        if after is not None:
            shared = after.code.length - OPCODE_BITS
            if 0 < shared <= bits.length and (
                bits.value >> (bits.length - shared) == after.code.value >> OPCODE_BITS
            ):
                head, start = after.instructions, shared
        decoded = decode(bits, start=start)
        if start + decoded.consumed_bits != bits.length:
            raise InvalidResult("solver code has trailing bits")
        program = cls(
            head + decoded.instructions,
            dict(data.get("entries", {})),
            int(data.get("frozen_prefix_len", 0)),
            data.get("frozen_entry_keys", ()),
        )
        object.__setattr__(program, "_code", bits)  # the whole code decoded: it is canonical
        return program

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


# Edit ops are NamedTuples, so an edit script, a tuple of ops, hashes and
# compares in C when the phase looks it up.  Ops of different kinds never
# compare equal, because their fields differ in type: SetSlot's index is an
# int where SetEntry's key is a str, and Append's instruction a tuple where
# Truncate's new_len is an int.


class SetSlot(NamedTuple):
    index: int  # 0-based slot
    instruction: tuple


class Append(NamedTuple):
    instruction: tuple


class Truncate(NamedTuple):
    new_len: int


class SetEntry(NamedTuple):
    key: str  # identifier bits in "len:hex" form
    slot: int


@dataclass(frozen=True)
class Changed:
    """What an edit touched: 1-based component indices plus entry keys."""

    slots: frozenset = frozenset()
    entry_keys: frozenset = frozenset()

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
# Edits write these shared tuples, so q and a segment cut from it hold the
# same objects.
_CANONICAL = {
    (code, args): (code, args)
    for code, spec in SOLVER_ISA.by_code.items()
    for args in product(range(16), repeat=spec.nibbles)
}


def _canonical(instr) -> tuple:
    try:
        return _CANONICAL[instr]
    except (KeyError, TypeError):  # TypeError: unhashable parts, e.g. a list of immediates
        return _CANONICAL[_check_instruction(instr)]


class Reading(NamedTuple):
    """An edit script read against prev (read_edit), without building q.

    q keeps prev's slots below ``low``, the lowest point the script
    truncated to, but for those in ``patched``, and from ``low`` on it is
    ``tail``.  ``rows`` maps each key whose row the script moves to its new
    slot.  The script changes the 1-based slots of prev in ``slots`` and
    the first ``grown`` slots past prev's end, every slot it appended."""

    low: int
    patched: dict
    tail: tuple
    rows: dict
    slots: set
    grown: int

    def segment(self) -> tuple:
        """(code, key) when q is prev with ``code`` appended, no other slot
        changed and no row moved but key's, to code's first slot (key None:
        no row moved); else (None, None)."""
        tail, rows = self.tail, self.rows
        # No slot of prev changed, so none was truncated: tail was appended.
        if self.slots or self.grown != len(tail) or len(rows) > 1:
            return None, None
        for key, slot in rows.items():
            return (tail, key) if slot == self.low else (None, None)
        return tail, None


_new_tuple = tuple.__new__  # a Reading without NamedTuple's slow Python-level __new__


def read_edit(prev: SolverProgram, edits) -> Reading:
    """The one reading of an edit script against prev, in O(edit).

    Raises what apply_modification raises: frozen slots and rows reject the
    whole edit, and so does a row past q's end.  Only the rows the script
    moves are checked, unless q is shorter than prev: every row of prev
    fits prev, so it fits a q at least as long."""
    old = prev.instructions
    low = high = end = len(old)  # high: the longest q was before a truncation
    frozen_len, entries = prev.frozen_prefix_len, prev.entries
    patched, tail, rows, slots = {}, [], {}, set()
    for op in edits:
        kind = type(op)
        if kind is Append:
            tail.append(_canonical(op.instruction))
        elif kind is SetEntry:
            key, slot = op
            if rows.get(key, entries.get(key)) != slot:
                if key in prev.frozen_entry_keys:
                    raise FrozenViolation(f"entry for {key} is frozen")
                rows[key] = slot
        elif kind is SetSlot:
            index = op.index
            if not 0 <= index < low + len(tail):
                raise InvalidResult(f"slot {index} out of range")
            if index < frozen_len:
                raise FrozenViolation(f"slot {index} is frozen")
            new = _canonical(op.instruction)
            if index >= low:  # a slot truncated or appended: changed already
                tail[index - low] = new
            elif patched.get(index, old[index]) != new:
                patched[index] = new
                slots.add(index + 1)
        elif kind is Truncate:
            new_len, length = op.new_len, low + len(tail)
            if not 0 <= new_len <= length:
                raise InvalidResult(f"cannot truncate to {new_len}")
            if new_len < frozen_len:
                raise FrozenViolation("truncation into the frozen prefix")
            slots.update(range(new_len + 1, end + 1))  # past end: appended, counted in grown
            high = max(high, length)
            if new_len < low:
                low, tail = new_len, []
                patched = {k: v for k, v in patched.items() if k < low}
            else:
                del tail[new_len - low :]
        else:
            raise InvalidResult(f"unknown edit op {op!r}")
    length = low + len(tail)
    for slot in ({**entries, **rows} if length < end else rows).values():
        if not 0 <= slot <= length:
            table = {**entries, **rows}
            bad = next(k for k, slot in table.items() if not 0 <= slot <= length)
            raise InvalidResult(f"entry {bad} points at slot {table[bad]}, beyond program end")
    return _new_tuple(Reading, (low, patched, tuple(tail), rows, slots, max(high, length) - end))


def size_change(prev: SolverProgram, low: int, patched: dict, tail: tuple, keys) -> int:
    """L(q) - L(prev) without building q, for q as a Reading holds it
    (``size_change(prev, *reading[:4])``), its rows moved for ``keys``:
    the rows q adds and the widths of the slots written, less those of
    the slots they replace."""
    old = prev.instructions
    size = ENTRY_BITS * len(set(keys).difference(prev.entries)) + program_bits(tail) - OPCODE_BITS
    if low < len(old) or patched:  # slots of prev cut or rewritten: the terminators cancel
        size += OPCODE_BITS + program_bits(patched.values()) - program_bits(old[low:])
        size -= program_bits(map(old.__getitem__, patched))
    return size


def apply_modification(prev: SolverProgram, edits) -> tuple[SolverProgram, Changed]:
    """Apply an edit script to a copy of prev; prev itself is untouched.

    Returns the new program together with the exact set of changed component
    indices (1-based) and changed entry-table keys: the script's reading,
    then a build that copies prev's slots only where the script patched one.
    """
    low, patched, tail, rows, slots, grown = read_edit(prev, edits)
    end = len(prev.instructions)
    head = prev.instructions[:low]
    if patched:
        head = list(head)
        for index, instruction in patched.items():
            head[index] = instruction
        head = tuple(head)
    entries = {**prev.entries, **rows}
    q = SolverProgram._owning(head + tail, entries, prev.frozen_prefix_len, prev.frozen_entry_keys)
    return q, Changed(frozenset((*slots, *range(end + 1, end + grown + 1))), frozenset(rows))


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


class RunOutcome(NamedTuple):
    """One run as the interpreter leaves it.

    ``output`` and ``components_used`` are built on access from the raw
    output bits and the per-slot flags, so a caller that needs neither, a
    run-table record, pays for neither.
    """

    out_value: int  # the output bits, first bit most significant
    out_length: int
    steps_used: int  # billed steps; equals the budget when halted is False
    executed: int  # instructions actually executed
    used: bytearray  # used[k] is 1 when slot k (0-based) executed
    halted: bool
    halt_reason: str  # "halt", "end", "budget", or a fault code

    @property
    def output(self) -> BitString:
        return BitString(self.out_value, self.out_length)

    @property
    def components_used(self) -> frozenset:
        """The 1-based slots the run executed."""
        # Runs touch a few neighbouring slots of a long solver: read the flags
        # only from the first slot used to the last (none: an empty window).
        used = self.used
        first = used.find(1)
        end = used.rfind(1) + 1
        return frozenset(compress(range(first + 1, end + 1), used[first:end]))

    @property
    def component_count(self) -> int:
        return self.used.count(1)

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
    step like every other instruction.  ``env.act(action, digest)`` gets a
    zero-argument function for the solver-state digest at that ACT, so only
    an environment that records the digest pays for it.  ``entry_key`` is
    ``input_bits.to_hex()``, for callers that keep it (a task's entry_key).

    The dispatch tests opcodes in their measured order of dynamic frequency.
    """
    if step_budget < 1:
        raise ValueError("step_budget must be >= 1")
    instrs = program.instructions
    m = len(instrs)
    pc = program.entry_for(input_bits) if entry_key is None else program.entries.get(entry_key, 0)

    stack: list[int] = []
    memory = [0] * MEMORY_CELLS
    in_val, in_len = input_bits.value, input_bits.length
    cursor = 0
    out_val = 0
    out_len = 0
    used = bytearray(m)
    steps = 0

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

        if code == OP_READBIT:
            if cursor >= in_len:
                reason = "input_exhausted"
                break
            if len(stack) >= STACK_DEPTH:
                reason = "stack_overflow"
                break
            stack.append((in_val >> (in_len - 1 - cursor)) & 1)
            cursor += 1
        elif code == OP_POP:
            if not stack:
                reason = "stack_underflow"
                break
            stack.pop()
        elif code == OP_JZ:
            if not stack:
                reason = "stack_underflow"
                break
            if stack.pop() == 0:
                offset = args[0]  # a signed nibble, -8..7
                next_pc += offset - 16 if offset >= 8 else offset
                if not 0 <= next_pc <= m:
                    reason = BAD_JUMP
                    break
        elif code == OP_PUSH:
            if len(stack) >= STACK_DEPTH:
                reason = "stack_overflow"
                break
            stack.append(args[0])
        elif code == OP_JMP:
            offset = args[0]
            next_pc += offset - 16 if offset >= 8 else offset
            if not 0 <= next_pc <= m:
                reason = BAD_JUMP
                break
        elif code == OP_OUTPUT:
            if not stack:
                reason = "stack_underflow"
                break
            out_val = (out_val << 1) | (stack.pop() & 1)
            out_len += 1
        elif code == OP_DUP:
            if not stack:
                reason = "stack_underflow"
                break
            if len(stack) >= STACK_DEPTH:
                reason = "stack_overflow"
                break
            stack.append(stack[-1])
        elif code == OP_DEC:
            if not stack:
                reason = "stack_underflow"
                break
            stack[-1] = (stack[-1] - 1) & WORD_MASK
        elif code == OP_ACT:
            if env is None:
                reason = "no_env"
                break
            if not stack:
                reason = "stack_underflow"
                break
            action = stack.pop() % 5
            digest = partial(_quick_state_digest, stack, memory, cursor, pc, steps)
            reward = env.act(action, digest)
            stack.append(reward & WORD_MASK)
        elif code == OP_HALT:
            halted = True
            reason = HALT_EXPLICIT
            break
        elif code == OP_SWAP:
            if len(stack) < 2:
                reason = "stack_underflow"
                break
            stack[-1], stack[-2] = stack[-2], stack[-1]
        elif code == OP_INC:
            if not stack:
                reason = "stack_underflow"
                break
            stack[-1] = (stack[-1] + 1) & WORD_MASK
        elif code == OP_ADD:
            if len(stack) < 2:
                reason = "stack_underflow"
                break
            b = stack.pop()
            stack[-1] = (stack[-1] + b) & WORD_MASK
        elif code == OP_LOAD:
            if not stack:
                reason = "stack_underflow"
                break
            addr = stack.pop()
            if addr >= MEMORY_CELLS:
                reason = "mem_fault"
                break
            stack.append(memory[addr])
        elif code == OP_STORE:
            if len(stack) < 2:
                reason = "stack_underflow"
                break
            addr = stack.pop()
            val = stack.pop()
            if addr >= MEMORY_CELLS:
                reason = "mem_fault"
                break
            memory[addr] = val
        elif code == OP_SENSE:
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

    return RunOutcome(
        out_val, out_len, steps if halted else step_budget, steps, used, halted, reason
    )


def _quick_state_digest(stack, memory, cursor, pc, steps) -> str:
    """The solver state at an ACT, as a live trace records it."""
    h = hashlib.sha256()
    h.update(repr((tuple(stack), tuple(memory), cursor, pc, steps)).encode())
    return h.hexdigest()[:12]
