"""The solver interpreter as it stood before its lean dispatch, kept as a reference.

A frozen copy of ``vm.run_solver`` with its ``RunOutcome`` dataclass, which
computed a solver-state digest at every ACT and handed the string to the
environment, together with the two environments of that interface.  The
tests run it next to ``vm.run_solver`` and require equal outcomes and equal
live traces, digests included.  Nothing in ``src/`` imports it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from autodidact import isa as I
from autodidact.bits import BitString
from autodidact.grid import EnvState, env_step
from autodidact.isa import signed_nibble
from autodidact.vm import (
    _CONCLUSIVE_FAULTS,
    DIAG_BUDGET,
    HALT_END,
    HALT_EXPLICIT,
    MEMORY_CELLS,
    STACK_DEPTH,
    WORD_MASK,
    SolverProgram,
)


class LiveEnv:
    """The live gridworld view of that interface: act() takes the digest itself."""

    def __init__(self, world, goal):
        self.state = EnvState(world, world.start, goal)
        self.trace_steps: list[tuple] = []

    def sense(self) -> int:
        return self.state.world.observation(self.state.agent)

    def act(self, action: int, solver_digest: str) -> int:
        obs, reward, self.state = env_step(self.state, action)
        self.trace_steps.append((obs, reward, solver_digest, action))
        return reward


class ReplayEnv:
    """The replay view of that interface."""

    def __init__(self, steps: tuple, initial_obs: int):
        self.steps = steps
        self.initial_obs = initial_obs
        self.pos = 0
        self.diverged = False

    def sense(self) -> int:
        if self.pos == 0:
            return self.initial_obs
        return self.steps[self.pos - 1][0]

    def act(self, action: int, _solver_digest: str) -> int:
        if self.pos >= len(self.steps):
            self.diverged = True
            return 0
        obs, reward, _u, recorded_action = self.steps[self.pos]
        if action != recorded_action:
            self.diverged = True
        self.pos += 1
        return reward

    @property
    def exact(self) -> bool:
        return not self.diverged and self.pos == len(self.steps)


@dataclass(frozen=True)
class RunOutcome:
    output: BitString
    steps_used: int  # billed steps; equals the budget when halted is False
    executed: int  # instructions actually executed
    components_used: frozenset  # 1-based slot indices
    halted: bool
    halt_reason: str  # "halt", "end", "budget", or a fault code

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
    )


def _quick_state_digest(stack, memory, cursor, pc, steps) -> str:
    h = hashlib.sha256()
    h.update(repr((tuple(stack), tuple(memory), cursor, pc, steps)).encode())
    return h.hexdigest()[:12]
