"""Instruction tables for the fixed-width prefix code.

Every program is a sequence of 5-bit opcodes, each followed by zero or more
4-bit immediate nibbles, closed by the dedicated terminator code 0.  Because
decoding always stops at the first terminator, the set of exact encodings is
prefix-free, which keeps the 2**-L(p) program prior well defined.
"""

from __future__ import annotations

from dataclasses import dataclass

OPCODE_BITS = 5
ARG_BITS = 4
TERMINATOR = 0


@dataclass(frozen=True)
class OpSpec:
    code: int
    name: str
    nibbles: int  # number of 4-bit immediates following the opcode
    signed_arg: bool = False  # immediate reads as two's complement (-8..7)


class InstructionSet:
    """One opcode table: lookup by code or mnemonic, widths, assembly text."""

    def __init__(self, name: str, ops: list[OpSpec]):
        self.name = name
        self.by_code: dict[int, OpSpec] = {}
        self.by_name: dict[str, OpSpec] = {}
        for op in ops:
            if op.code == TERMINATOR:
                raise ValueError("code 0 is reserved for the terminator")
            if op.code in self.by_code or op.name in self.by_name:
                raise ValueError(f"duplicate op {op}")
            if not 0 < op.code < (1 << OPCODE_BITS):
                raise ValueError(f"opcode {op.code} out of range")
            self.by_code[op.code] = op
            self.by_name[op.name] = op
        self.nibbles: dict[int, int] = {op.code: op.nibbles for op in ops}

    def width(self, code: int) -> int:
        return OPCODE_BITS + ARG_BITS * self.by_code[code].nibbles

    def codes(self) -> list[int]:
        return sorted(self.by_code)

    def __contains__(self, code: int) -> bool:
        return code in self.by_code

    def __len__(self) -> int:
        return len(self.by_code) + 1  # including the terminator

    # -- text form ----------------------------------------------------

    def disassemble(self, instructions) -> str:
        """One instruction per line, stable across versions (used in logs and golden tests)."""
        lines = []
        for code, args in instructions:
            spec = self.by_code[code]
            shown = [str(signed_nibble(a)) if spec.signed_arg else str(a) for a in args]
            lines.append(" ".join([spec.name] + shown))
        return "\n".join(lines)

    def assemble(self, text: str) -> tuple:
        """Parse mnemonics into canonical instructions (immediates as raw nibbles)."""
        out = []
        for raw in text.splitlines():
            line = raw.split(";")[0].strip()
            if not line:
                continue
            parts = line.split()
            spec = self.by_name.get(parts[0].upper())
            if spec is None:
                raise KeyError(f"unknown mnemonic {parts[0]!r}")
            args = []
            for a in parts[1:]:
                v = int(a)
                if not -8 <= v < 16:
                    raise ValueError(f"immediate {v} does not fit a nibble")
                args.append(v & 0xF)
            if len(args) != spec.nibbles:
                raise ValueError(f"{spec.name} takes {spec.nibbles} args, got {len(args)}")
            out.append((spec.code, tuple(args)))
        return tuple(out)


# ---------------------------------------------------------------------------
# The problem solver's instruction set: a small stack machine.
#
# 16 opcodes; PUSH takes an immediate nibble, JZ and JMP a signed 4-bit
# relative offset (-8..7, measured from the following slot).  Everything else
# works on the stack, 64 cells of 16-bit wrapping memory, the input cursor,
# the output tape, or the task environment.
# ---------------------------------------------------------------------------

OP_HALT = 1
OP_PUSH = 2
OP_POP = 3
OP_DUP = 4
OP_SWAP = 5
OP_INC = 6
OP_DEC = 7
OP_ADD = 8
OP_JZ = 9
OP_JMP = 10
OP_LOAD = 11
OP_STORE = 12
OP_READBIT = 13
OP_OUTPUT = 14
OP_ACT = 15
OP_SENSE = 16

SOLVER_ISA = InstructionSet(
    "solver",
    [
        OpSpec(OP_HALT, "HALT", 0),
        OpSpec(OP_PUSH, "PUSH", 1),
        OpSpec(OP_POP, "POP", 0),
        OpSpec(OP_DUP, "DUP", 0),
        OpSpec(OP_SWAP, "SWAP", 0),
        OpSpec(OP_INC, "INC", 0),
        OpSpec(OP_DEC, "DEC", 0),
        OpSpec(OP_ADD, "ADD", 0),
        OpSpec(OP_JZ, "JZ", 1, signed_arg=True),
        OpSpec(OP_JMP, "JMP", 1, signed_arg=True),
        OpSpec(OP_LOAD, "LOAD", 0),
        OpSpec(OP_STORE, "STORE", 0),
        OpSpec(OP_READBIT, "READBIT", 0),
        OpSpec(OP_OUTPUT, "OUTPUT", 0),
        OpSpec(OP_ACT, "ACT", 0),
        OpSpec(OP_SENSE, "SENSE", 0),
    ],
)


def signed_nibble(raw: int) -> int:
    """Two's-complement reading of a 4-bit immediate (-8..7)."""
    return raw - 16 if raw >= 8 else raw
