"""Self-delimiting program codec: bitstrings to instruction streams and back.

decode() reads 5-bit opcode groups (plus any immediate nibbles) until it hits
the terminator code, so every valid encoding carries its own end marker and no
valid encoding is a proper prefix of another.  enumerate_programs() walks the
whole program space in shortlex order, which is exactly the order a
length-prior search wants.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterator, NamedTuple

from .bits import BitString
from .isa import ARG_BITS, OPCODE_BITS, SOLVER_ISA, TERMINATOR, InstructionSet


class DecodeError(ValueError):
    pass


class IncompleteProgram(DecodeError):
    """Bits ran out before a terminator: the candidate needs more bits."""


class InvalidOpcode(DecodeError):
    """An opcode value outside the instruction table."""


class UnknownOpcode(KeyError):
    """encode() was handed an instruction not in the table."""


class DecodedProgram(NamedTuple):
    instructions: tuple[tuple[int, tuple[int, ...]], ...]
    consumed_bits: int


def decode(bits: BitString, isa: InstructionSet = SOLVER_ISA, start: int = 0) -> DecodedProgram:
    """Decode the self-delimiting program at bit ``start`` of ``bits``.

    Trailing bits after the terminator are ignored; consumed_bits reports how
    far decoding actually read, from ``start``.
    """
    value, length = bits.value, bits.length
    nibbles = isa.nibbles
    opcode_mask = (1 << OPCODE_BITS) - 1
    pos = start
    out = []
    while True:
        if pos + OPCODE_BITS > length:
            raise IncompleteProgram(f"ran out of bits at {pos}")
        pos += OPCODE_BITS
        code = (value >> (length - pos)) & opcode_mask
        if code == TERMINATOR:
            return DecodedProgram(tuple(out), pos - start)
        n = nibbles.get(code)
        if n is None:
            raise InvalidOpcode(f"opcode {code} at bit {pos - OPCODE_BITS}")
        if not n:
            out.append((code, ()))
            continue
        if pos + ARG_BITS * n > length:
            missing = pos + ARG_BITS * ((length - pos) // ARG_BITS)
            raise IncompleteProgram(f"ran out of bits in immediate at {missing}")
        if n == 1:
            pos += ARG_BITS
            out.append((code, ((value >> (length - pos)) & 0xF,)))
            continue
        args = []
        for _ in range(n):
            pos += ARG_BITS
            args.append((value >> (length - pos)) & 0xF)
        out.append((code, tuple(args)))


def encode(instructions, isa: InstructionSet = SOLVER_ISA) -> BitString:
    """Exact inverse of decode on programs: appends the terminator."""
    value = 0
    length = 0
    for code, args in instructions:
        spec = isa.by_code.get(code)
        if spec is None:
            raise UnknownOpcode(code)
        if len(args) != spec.nibbles:
            raise UnknownOpcode(f"{spec.name} expects {spec.nibbles} immediates")
        value = (value << OPCODE_BITS) | code
        length += OPCODE_BITS
        for a in args:
            if not 0 <= a < 16:
                raise UnknownOpcode(f"immediate {a} out of nibble range")
            value = (value << ARG_BITS) | a
            length += ARG_BITS
    value = (value << OPCODE_BITS) | TERMINATOR
    length += OPCODE_BITS
    return BitString(value, length)


def program_bits(instructions, isa: InstructionSet = SOLVER_ISA) -> int:
    """Encoded length in bits, terminator included."""
    n = OPCODE_BITS
    for code, _args in instructions:
        n += isa.width(code)
    return n


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _feasible_totals(isa_name_and_widths: tuple, limit: int) -> frozenset:
    widths = isa_name_and_widths
    ok = {0}
    for total in range(1, limit + 1):
        if any(total - w in ok for w in widths if w <= total):
            ok.add(total)
    return frozenset(ok)


def _body_widths(isa: InstructionSet) -> tuple:
    return tuple(sorted({isa.width(c) for c in isa.by_code}))


def _gen_bodies(isa: InstructionSet, bits_left: int, feasible) -> Iterator[list]:
    """All instruction sequences of exactly bits_left body bits, in lex order."""
    if bits_left == 0:
        yield []
        return
    for code in isa.codes():
        w = isa.width(code)
        rest = bits_left - w
        if rest < 0 or rest not in feasible:
            continue
        nargs = isa.by_code[code].nibbles
        if nargs == 0:
            head = (code, ())
            for tail in _gen_bodies(isa, rest, feasible):
                yield [head] + tail
        elif nargs == 1:
            for a in range(16):
                head = (code, (a,))
                for tail in _gen_bodies(isa, rest, feasible):
                    yield [head] + tail
        else:
            for a in range(16):
                for b in range(16):
                    head = (code, (a, b))
                    for tail in _gen_bodies(isa, rest, feasible):
                        yield [head] + tail


def enumerate_programs(
    max_len_bits: int, isa: InstructionSet = SOLVER_ISA
) -> Iterator[BitString]:
    """Every exactly-consuming encoding of at most max_len_bits bits.

    Yields each program once, in shortlex order (shorter first, then
    lexicographic with 0 before 1).  Opcode-aligned generation gives
    lexicographic order for free because ties are broken token by token.
    """
    if max_len_bits < OPCODE_BITS:
        return
    widths = _body_widths(isa)
    feasible = _feasible_totals(widths, max_len_bits)
    for total in range(OPCODE_BITS, max_len_bits + 1):
        body = total - OPCODE_BITS
        if body not in feasible:
            continue
        for instrs in _gen_bodies(isa, body, feasible):
            yield encode(instrs, isa)


def kraft_sum(max_len_bits: int, isa: InstructionSet = SOLVER_ISA) -> Fraction:
    """Sum of 2**-L(p) over all programs up to the given bit bound (exact)."""
    total = Fraction(0)
    for prog in enumerate_programs(max_len_bits, isa):
        total += Fraction(1, 1 << prog.length)
    return total


def kraft_tail_bound(isa: InstructionSet = SOLVER_ISA) -> Fraction:
    """Upper bound on the Kraft sum over the full infinite program set.

    Each instruction slot carries at most (#ops) * 2**-width of probability
    mass; summing the geometric series over program lengths bounds the tail.
    """
    per_slot = Fraction(0)
    for code in isa.by_code:
        per_slot += Fraction(1, 1 << isa.width(code))
    if per_slot >= 1:
        raise ValueError("instruction table too dense for a geometric tail bound")
    term = Fraction(1, 1 << OPCODE_BITS)
    return term / (1 - per_slot)
