"""The shipped pattern database: 12 fixed 8x8 binary images addressed by index.

Pattern tasks carry a database address I1 plus a 4-bit query I2; the database
is versioned with the repository so task identities are stable.  Addresses
outside the table raise MissingPattern.
"""

from __future__ import annotations


class MissingPattern(KeyError):
    """Pattern address outside the shipped database."""


# Row-major 8x8 bitmaps, one 64-bit integer each (bit 63 = top-left pixel).
PATTERNS: tuple[int, ...] = (
    0x0000000000000000,  # 0: blank
    0xFFFFFFFFFFFFFFFF,  # 1: full
    0xFF818181818181FF,  # 2: box
    0x8040201008040201,  # 3: diagonal
    0x0102040810204080,  # 4: anti-diagonal
    0x18181818181818FF,  # 5: tee
    0xAA55AA55AA55AA55,  # 6: checker
    0x00183C7E7E3C1800,  # 7: diamond
    0xFF00FF00FF00FF00,  # 8: stripes
    0x8181818181818181,  # 9: rails
    0x003C424242423C00,  # 10: ring
    0x0066660000666600,  # 11: eyes
)

PATTERN_COUNT = len(PATTERNS)
PATTERN_ADDRESS_BITS = 4


def get_pattern(address: int) -> int:
    if not 0 <= address < PATTERN_COUNT:
        raise MissingPattern(address)
    return PATTERNS[address]
