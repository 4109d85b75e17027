"""The candidate language: programs that invent a task and edit the solver.

A candidate bitstring decodes into three self-delimiting subprograms run in
order: the task inventor, the solver modifier, and validation directives.
The inventor must leave exactly one proposed task; the modifier builds an
edit script (possibly splicing canned templates or cloning stored segments);
directives may only reorder validation, never weaken it, because the
correctness check itself is engine-enforced.

Candidates run against a shared scratch store U whose writes are journaled;
after every candidate (accepted or not) the journal is unwound, so a rejected
candidate leaves the engine bit-identical to before.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

from .bits import BitString, nibble
from .codec import DecodeError, decode
from .grid import GOALS_PER_WORLD, WORLD_COUNT, WORLDS
from .isa import SOLVER_ISA, InstructionSet, OpSpec
from .patterns import PATTERN_COUNT
from .tasks import DecisionTask, GoalSpec, PatternTask, Task, make_efficiency_task
from .templates import TEMPLATE_NAMES, const_nibble, instantiate, instantiate_wide
from .validate import BudgetExhausted, RepertoireItem
from .vm import Append, SetEntry, SetSlot, SolverProgram, Truncate

META_STACK_DEPTH = 64
SCRATCH_CELLS = 64
WORD_MASK = 0xFFFF

# Opcodes.  Task inventors first, then solver edits, then general compute,
# then archive reads and directives.  Lower codes enumerate earlier, so the
# order below is also the tie-break order of the search.  Compact templates
# take one nibble; the fast unrolled variants deliberately cost a second
# nibble so that speed-ups are longer descriptions than first solutions.
M_T_COPY = 1
M_T_WOW = 2
M_T_GRID = 3
M_T_CONST = 4
M_T_NEG = 5
M_E_TPL = 6
M_E_TPLC = 7
M_E_TPLW = 8
M_E_MAP = 9
M_E_APP = 10
M_E_APPI = 11
M_E_CLONE = 12
M_E_SET = 13
M_E_TRUNC = 14
M_MPUSH = 15
M_MSHL = 16
M_MDUP = 17
M_MADD = 18
M_ULOAD = 19
M_USTORE = 20
M_RD_TASK = 21
M_RD_SIZE = 22
M_RD_SOLV = 23
M_V_DESC = 24

META_ISA = InstructionSet(
    "meta",
    [
        OpSpec(M_T_COPY, "T_COPY", 1),
        OpSpec(M_T_WOW, "T_WOW", 1),
        OpSpec(M_T_GRID, "T_GRID", 1),
        OpSpec(M_T_CONST, "T_CONST", 1),
        OpSpec(M_T_NEG, "T_NEG", 1),
        OpSpec(M_E_TPL, "E_TPL", 1),
        OpSpec(M_E_TPLC, "E_TPLC", 2),
        OpSpec(M_E_TPLW, "E_TPLW", 2),
        OpSpec(M_E_MAP, "E_MAP", 1),
        OpSpec(M_E_APP, "E_APP", 1),
        OpSpec(M_E_APPI, "E_APPI", 2),
        OpSpec(M_E_CLONE, "E_CLONE", 1),
        OpSpec(M_E_SET, "E_SET", 0),
        OpSpec(M_E_TRUNC, "E_TRUNC", 0),
        OpSpec(M_MPUSH, "MPUSH", 1),
        OpSpec(M_MSHL, "MSHL", 1),
        OpSpec(M_MDUP, "MDUP", 0),
        OpSpec(M_MADD, "MADD", 0),
        OpSpec(M_ULOAD, "ULOAD", 0),
        OpSpec(M_USTORE, "USTORE", 0),
        OpSpec(M_RD_TASK, "RD_TASK", 0),
        OpSpec(M_RD_SIZE, "RD_SIZE", 0),
        OpSpec(M_RD_SOLV, "RD_SOLV", 0),
        OpSpec(M_V_DESC, "V_DESC", 0),
    ],
)

TASK_OPS = frozenset({M_T_COPY, M_T_WOW, M_T_GRID, M_T_CONST, M_T_NEG})
EDIT_OPS = frozenset(
    {
        M_E_TPL,
        M_E_TPLC,
        M_E_TPLW,
        M_E_MAP,
        M_E_APP,
        M_E_APPI,
        M_E_CLONE,
        M_E_SET,
        M_E_TRUNC,
    }
)
COMPUTE_OPS = frozenset(
    {M_MPUSH, M_MSHL, M_MDUP, M_MADD, M_ULOAD, M_USTORE, M_RD_TASK, M_RD_SIZE, M_RD_SOLV}
)
DIRECTIVE_OPS = frozenset({M_V_DESC})

PATTERN_TASK_OPS = frozenset({M_T_COPY, M_T_CONST, M_T_NEG})
GRID_TASK_OPS = frozenset({M_T_GRID})


class MalformedTask(ValueError):
    """The inventor failed to produce a well-formed, non-duplicate task."""


class MalformedEdit(ValueError):
    """The modifier failed to produce a well-formed edit."""


# ---------------------------------------------------------------------------
# Scratch storage with an undo journal
# ---------------------------------------------------------------------------


class ScratchStore:
    """Fixed array of cells shared by all candidates, with journaled writes."""

    def __init__(self, cells: int = SCRATCH_CELLS):
        self.cells = [0] * cells
        self.journal: list[tuple[int, int]] = []

    def read(self, addr: int) -> int:
        return self.cells[addr % len(self.cells)]

    def write(self, addr: int, value: int) -> None:
        addr %= len(self.cells)
        self.journal.append((addr, self.cells[addr]))
        self.cells[addr] = value & WORD_MASK

    def digest(self) -> str:
        return hashlib.sha256(repr(self.cells).encode()).hexdigest()[:16]


def undo_storage(store: ScratchStore) -> int:
    """Rewind every journaled write, newest first; returns the write count."""
    n = len(store.journal)
    for addr, old in reversed(store.journal):
        store.cells[addr] = old
    store.journal.clear()
    return n


# ---------------------------------------------------------------------------
# Decoding and the candidate grammar
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetaProgram:
    code: BitString
    inventor: tuple  # decoded instruction tuples
    modifier: tuple
    directives: tuple

    @property
    def parts(self) -> tuple:
        """(inventor, modifier, directives): what run_meta executes."""
        return self.inventor, self.modifier, self.directives

    @property
    def opcode_sequence(self) -> tuple:
        return opcode_sequence(self.inventor, self.modifier, self.directives)

    @property
    def nibble_count(self) -> int:
        return sum(
            len(args) for part in (self.inventor, self.modifier, self.directives) for _, args in part
        )


def program(entry: tuple, total: int) -> MetaProgram:
    """The MetaProgram of a ``total``-bit bucket entry (value, inventor, modifier, directives)."""
    return MetaProgram(BitString(entry[0], total), entry[1], entry[2], entry[3])


def opcode_sequence(inventor: tuple, modifier: tuple, directives: tuple) -> tuple:
    """Every opcode in encoding order, the three terminators included."""
    seq = [c for c, _ in inventor] + [0]
    seq += [c for c, _ in modifier] + [0]
    seq += [c for c, _ in directives] + [0]
    return tuple(seq)


def decode_meta(bits: BitString) -> MetaProgram:
    """Split a candidate into its three subprograms; all bits must be used."""
    p1 = decode(bits, META_ISA)
    p2 = decode(bits, META_ISA, p1.consumed_bits)
    start = p1.consumed_bits + p2.consumed_bits
    p3 = decode(bits, META_ISA, start)
    if start + p3.consumed_bits != bits.length:
        raise DecodeError("trailing bits after the third subprogram")
    return MetaProgram(bits, p1.instructions, p2.instructions, p3.instructions)


def well_formed(meta: MetaProgram, domain: str = "mixed", external: bool = False) -> bool:
    """Membership in the candidate set the scheduler actually searches.

    The language is deliberately restricted: the inventor ends with exactly
    one task op (none at all when the task comes from the external queue),
    the modifier contains at least one edit op, and the directive part only
    carries ordering hints.
    """
    allowed_tasks = set(TASK_OPS)
    if domain == "pattern":
        allowed_tasks -= GRID_TASK_OPS
    elif domain == "gridworld":
        allowed_tasks -= PATTERN_TASK_OPS

    inv_codes = [c for c, _ in meta.inventor]
    if external:
        if inv_codes:
            return False
    else:
        if not inv_codes or inv_codes[-1] not in allowed_tasks:
            return False
        if any(c not in COMPUTE_OPS for c in inv_codes[:-1]):
            return False

    mod_codes = [c for c, _ in meta.modifier]
    if not any(c in EDIT_OPS for c in mod_codes):
        return False
    if any(c not in (EDIT_OPS | COMPUTE_OPS) for c in mod_codes):
        return False

    return all(c in DIRECTIVE_OPS for c, _ in meta.directives)


# ---------------------------------------------------------------------------
# Candidate execution
# ---------------------------------------------------------------------------


@dataclass
class MetaContext:
    """Read access a candidate gets: current solver, the archive so far, defaults."""

    solver: SolverProgram
    repertoire: list  # of RepertoireItem
    segments: list  # [(start_slot, length), ...] of installed code blocks
    scratch: ScratchStore
    t_pattern: int
    n_pattern: int
    t_grid: int
    n_grid: int
    eps_wow: int
    known_identities: frozenset = frozenset()
    external_task: Optional[Task] = None
    # Variant I tightens bounds for efficiency proposals; the cost-based
    # variant re-proposes the task unchanged and lets the ledger decide.
    wow_tightens: bool = True
    # Inventor ops are pure functions of (op, args) within one phase.
    task_memo: dict = field(default_factory=dict)


@dataclass
class Proposal:
    task: Task
    edits: list
    appended: int  # number of appended slots
    append_start: Optional[int]
    # The phase's validate.EditRecord for these edits, set by the search.
    record: Optional[object] = field(default=None, compare=False, repr=False)


class Meter:
    """Per-candidate step meter; billing never exceeds the granted budget."""

    __slots__ = ("budget", "left", "spent")

    def __init__(self, budget: int):
        self.budget = budget
        self.left = budget
        self.spent = 0

    def charge(self, n: int = 1, known: bool = False) -> None:
        """Bill n steps, or raise BudgetExhausted when fewer are left.

        ``known`` marks a bill read off a per-phase table: its cut carries
        the floor spent + n.
        """
        if n > self.left:
            floor = self.spent + n if known else None
            self.spent = self.budget
            self.left = 0
            raise BudgetExhausted(self.spent, floor)
        self.left -= n
        self.spent += n


# ---------------------------------------------------------------------------
# Context-free checks, shared by run_meta and the scheduler's static verdicts
# ---------------------------------------------------------------------------

# Ops whose fault or step bill depends on the context: they read the archive,
# the solver or its installed segments.  Every other compute or edit op bills
# exactly one step and faults, if at all, on its own immediates (see
# static_fault); the values it leaves on the stack only shape the edits.
CONTEXT_OPS = frozenset({M_RD_TASK, M_RD_SOLV, M_E_MAP, M_E_CLONE, M_E_SET})
GRID_TEMPLATE = TEMPLATE_NAMES.index("grid_walk")  # plans on the proposed task


def reads_context(code: int, args: tuple) -> bool:
    """True when a compute or edit op's verdict or bill can depend on the context."""
    return code in CONTEXT_OPS or (code == M_E_TPL and args[0] == GRID_TEMPLATE)


def static_fault(code: int, args: tuple) -> Optional[str]:
    """The fault an op raises whatever the context, as its message; else None."""
    if code in (M_T_COPY, M_T_CONST, M_T_NEG):
        if args[0] >= PATTERN_COUNT:
            return f"pattern address {args[0]} outside the database"
    elif code == M_T_GRID:
        w, g = args[0] >> 2, args[0] & 3
        if w >= WORLD_COUNT or g >= GOALS_PER_WORLD:
            return f"no world {w} goal {g}"
    elif code == M_E_TPL:
        if args[0] >= len(TEMPLATE_NAMES):
            return f"no template {args[0]}"
    elif code == M_E_TPLC:
        if args[1] > 4:
            return "constant width beyond the source nibble"
    elif code == M_E_TPLW:
        if args[0] != 0:
            return f"no wide template {args[0]}"
    elif code == M_E_APP:
        if SOLVER_ISA.by_code[args[0] + 1].nibbles != 0:
            return "opcode needs an immediate; use E_APPI"
    elif code == M_E_APPI:
        if SOLVER_ISA.by_code[args[0] + 1].nibbles != 1:
            return "opcode takes no immediate; use E_APP"
    return None


def invent_task(code: int, args: tuple, ctx: MetaContext) -> Task:
    """The task a task op proposes; a pure function of (op, args) within a phase."""
    memo_key = (code, args)
    task = ctx.task_memo.get(memo_key)
    if task is None:
        task = _build_task(code, args, ctx)
        ctx.task_memo[memo_key] = task
    return task


def check_invented(task: Optional[Task], ctx: MetaContext) -> None:
    """The inventor/modifier boundary: exactly one task, and a new one."""
    if task is None:
        raise MalformedTask("inventor finished without a task")
    if task.identity() in ctx.known_identities:
        raise MalformedTask("task already in the repertoire")


def _build_task(code: int, args: tuple, ctx: MetaContext) -> Task:
    msg = static_fault(code, args)
    if msg is not None:
        raise MalformedTask(msg)
    if code == M_T_COPY:
        k = args[0]
        return PatternTask(k, nibble(k), nibble(k), ctx.t_pattern, ctx.n_pattern)
    if code == M_T_CONST:
        v = args[0]
        return PatternTask(v, nibble(v + 1), nibble(v), ctx.t_pattern, ctx.n_pattern)
    if code == M_T_NEG:
        k = args[0]
        # Query is the complement of the address nibble so negate tasks get
        # their own identifier space instead of capturing copy identifiers.
        return PatternTask(k, nibble(~k), nibble(k), ctx.t_pattern, ctx.n_pattern)
    if code == M_T_GRID:
        w, g = args[0] >> 2, args[0] & 3
        world = WORLDS[w]
        ident = BitString(w, 4) + BitString(g, 4)
        return DecisionTask(ident, GoalSpec(world.goals[g]), ctx.t_grid, ctx.n_grid, world)
    if code == M_T_WOW:
        j = args[0]
        if not 1 <= j <= len(ctx.repertoire):
            raise MalformedTask(f"no repertoire task {j}")
        base = ctx.repertoire[j - 1].task
        if not ctx.wow_tightens:
            return base
        try:
            return make_efficiency_task(base, time_saving=ctx.eps_wow, eps_wow=ctx.eps_wow)
        except ValueError as exc:
            raise MalformedTask(str(exc)) from exc
    raise MalformedTask(f"opcode {code} does not invent")


def run_meta(
    inventor: tuple, modifier: tuple, directives: tuple, ctx: MetaContext, meter: Meter
) -> Proposal:
    """Execute the three subprograms, charging every operation to the meter.

    The subprograms are decoded instruction tuples, a MetaProgram's
    ``parts``, or a bucket entry's; the candidate's bits are not needed.

    Archive reads, template instantiation and path planning all cost steps.
    Raises MalformedTask or MalformedEdit on conclusive nonsense and
    BudgetExhausted when the meter runs dry mid-way.
    """
    stack: list[int] = []
    task: Optional[Task] = None
    edits: list = []
    explicit_map = False
    appended = 0
    append_start: Optional[int] = None
    base_len = ctx.solver.component_count

    def fault(msg: str, in_inventor: bool):
        return MalformedTask(msg) if in_inventor else MalformedEdit(msg)

    def pop(in_inventor: bool) -> int:
        if not stack:
            raise fault("meta stack underflow", in_inventor)
        return stack.pop()

    def push(v: int, in_inventor: bool) -> None:
        if len(stack) >= META_STACK_DEPTH:
            raise fault("meta stack overflow", in_inventor)
        stack.append(v & WORD_MASK)

    def exec_compute(code: int, args: tuple, in_inv: bool) -> None:
        if code == M_MPUSH:
            push(args[0], in_inv)
        elif code == M_MSHL:
            push((pop(in_inv) << 4) | args[0], in_inv)
        elif code == M_MDUP:
            v = pop(in_inv)
            push(v, in_inv)
            push(v, in_inv)
        elif code == M_MADD:
            b, a = pop(in_inv), pop(in_inv)
            push(a + b, in_inv)
        elif code == M_ULOAD:
            push(ctx.scratch.read(pop(in_inv)), in_inv)
        elif code == M_USTORE:
            addr = pop(in_inv)
            ctx.scratch.write(addr, pop(in_inv))
        elif code == M_RD_TASK:
            j = pop(in_inv)
            if not 1 <= j <= len(ctx.repertoire):
                raise fault(f"no archive entry {j}", in_inv)
            meter.charge(1)  # the read itself
            ident = ctx.repertoire[j - 1].task.identifier
            push(ident.value, in_inv)
        elif code == M_RD_SIZE:
            push(ctx.solver.component_count, in_inv)
        elif code == M_RD_SOLV:
            k = pop(in_inv)
            if base_len == 0:
                raise fault("solver is empty", in_inv)
            meter.charge(1)
            op, opargs = ctx.solver.instructions[k % base_len]
            push(((op - 1) << 4) | (opargs[0] if opargs else 0), in_inv)
        else:  # pragma: no cover
            raise AssertionError(code)

    # -- inventor ------------------------------------------------------
    if ctx.external_task is not None:
        task = ctx.external_task
    for code, args in inventor:
        meter.charge(1)
        if code in COMPUTE_OPS:
            exec_compute(code, args, True)
        elif code in TASK_OPS:
            task = invent_task(code, args, ctx)
        else:
            raise MalformedTask(f"op {code} not allowed while inventing")
    check_invented(task, ctx)

    # -- modifier --------------------------------------------------------
    def do_append(instrs) -> None:
        nonlocal appended, append_start
        if append_start is None:
            append_start = base_len + appended
        for ins in instrs:
            edits.append(Append(ins))
            appended += 1

    for code, args in modifier:
        meter.charge(1)
        if code in COMPUTE_OPS:
            exec_compute(code, args, False)
            continue
        if code not in EDIT_OPS:
            raise MalformedEdit(f"op {code} not allowed while modifying")
        msg = static_fault(code, args)
        if msg is not None:
            raise MalformedEdit(msg)
        if code == M_E_TPL:
            try:
                instrs, extra = instantiate(args[0], task)
            except ValueError as exc:
                raise MalformedEdit(str(exc)) from exc
            meter.charge(extra)
            do_append(instrs)
        elif code == M_E_TPLC:
            do_append(const_nibble(*args))
        elif code == M_E_TPLW:
            do_append(instantiate_wide(*args))
        elif code == M_E_MAP:
            s = args[0]
            if s >= len(ctx.segments):
                raise MalformedEdit(f"no segment {s}")
            edits.append(SetEntry(task.entry_key, ctx.segments[s][0]))
            explicit_map = True
        elif code == M_E_APP:
            do_append([(args[0] + 1, ())])
        elif code == M_E_APPI:
            do_append([(args[0] + 1, (args[1],))])
        elif code == M_E_CLONE:
            s = args[0]
            if s >= len(ctx.segments):
                raise MalformedEdit(f"no segment {s}")
            start, length = ctx.segments[s]
            meter.charge(length)  # reading stored code is not free
            do_append(list(ctx.solver.instructions[start : start + length]))
        elif code == M_E_SET:
            slot_raw = pop(False)
            packed = pop(False)
            if base_len == 0:
                raise MalformedEdit("cannot overwrite an empty solver")
            op = ((packed >> 4) & 0xF) + 1
            arg = packed & 0xF
            spec = SOLVER_ISA.by_code[op]
            instr = (op, (arg,) if spec.nibbles else ())
            edits.append(SetSlot(slot_raw % base_len, instr))
        elif code == M_E_TRUNC:
            n = pop(False)
            edits.append(Truncate(n % (base_len + 1)))

    # Route the new task at its appended code unless mapped explicitly.
    if appended and not explicit_map:
        edits.append(SetEntry(task.entry_key, append_start))

    # -- directives --------------------------------------------------------
    for code, _args in directives:
        meter.charge(1)
        if code != M_V_DESC:
            raise MalformedEdit(f"op {code} not allowed as a directive")

    return Proposal(task, edits, appended, append_start)
