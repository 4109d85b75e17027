"""Probability prior over candidate programs.

The prior keeps one weight per opcode (terminators included); whenever a
candidate is frozen, every instruction it used gets its weight multiplied by
gamma.  The stochastic searcher samples opcodes by these weights in both
modes.  Uniform mode assigns P(p) = 2**-L(p) whatever the weights, exact in
rational arithmetic so budget ceilings never flip on floating-point noise.
Adapted mode reads P(p) off the weights, renormalized back to their original
total mass, so the Kraft bound survives any number of adaptations.
"""

from __future__ import annotations

from fractions import Fraction

from .isa import ARG_BITS, OPCODE_BITS, TERMINATOR, InstructionSet

GAMMA = 2


class Prior:
    def __init__(self, isa: InstructionSet, adapted: bool = False):
        self.isa = isa
        self.adapted = adapted
        self.codes = [TERMINATOR] + isa.codes()
        self.weights = {c: 1 for c in self.codes}
        # Total opcode mass is fixed at (#codes) / 2**OPCODE_BITS forever.
        self._mass = Fraction(len(self.codes), 1 << OPCODE_BITS)
        self._dist: dict[int, Fraction] = {}
        self._renormalize()

    def _renormalize(self) -> None:
        total = sum(self.weights.values())
        self._dist = {c: self._mass * Fraction(w, total) for c, w in self.weights.items()}
        self._arg = Fraction(1, 1 << ARG_BITS)

    # -- queries -------------------------------------------------------

    def opcode_prob(self, code: int) -> Fraction:
        return self._dist[code]

    def program_prior(self, token_codes, nibble_count: int) -> Fraction:
        """P(p) for a program decoded into the given opcode sequence.

        ``token_codes`` must include every terminator the encoding contains.
        In uniform mode this equals 2**-L(p) exactly.
        """
        if not self.adapted:
            bits = OPCODE_BITS * len(token_codes) + ARG_BITS * nibble_count
            return Fraction(1, 1 << bits)
        p = Fraction(1)
        for c in token_codes:
            p *= self._dist[c]
        return p * self._arg ** nibble_count

    # -- adaptation ------------------------------------------------------

    def adapt(self, token_codes) -> None:
        """Count the just-frozen program's instructions in the weights.

        Only adapted mode renormalizes, so only there does P(p) change.
        """
        for c in token_codes:
            self.weights[c] *= GAMMA
        if self.adapted:
            self._renormalize()

    def kraft_mass_per_token(self) -> Fraction:
        """Total opcode mass; < 1 guarantees the program-space Kraft bound."""
        return sum(self._dist.values(), Fraction(0))
