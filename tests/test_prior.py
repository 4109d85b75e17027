from fractions import Fraction

from autodidact.codec import decode, enumerate_programs
from autodidact.meta import META_ISA
from autodidact.prior import Prior


def program_tokens(bits, isa):
    prog = decode(bits, isa)
    codes = [c for c, _ in prog.instructions] + [0]
    nibbles = sum(len(a) for _, a in prog.instructions)
    return codes, nibbles


def test_length_prior_is_two_to_minus_length():
    prior = Prior(META_ISA)
    assert prior.length_prior(3) == Fraction(1, 8)
    assert prior.length_prior(0) == 1


def test_uniform_program_prior_matches_length_prior():
    prior = Prior(META_ISA)
    for bits in enumerate_programs(19, META_ISA):
        codes, nibbles = program_tokens(bits, META_ISA)
        assert prior.program_prior(codes, nibbles) == Fraction(1, 1 << bits.length)


def test_empty_program_has_raw_weight_one():
    prior = Prior(META_ISA, adapted=True)
    assert prior.raw_weight([]) == 1


def test_adaptation_doubles_the_opcode_weight_before_renormalization():
    prior = Prior(META_ISA, adapted=True)
    before = prior.weights[6]
    prior.adapt([6])
    assert prior.weights[6] == 2 * before


def test_adaptation_disabled_changes_nothing():
    prior = Prior(META_ISA, adapted=False)
    p = prior.program_prior([6, 0, 0, 0], 1)
    prior.adapt([6, 6, 6])
    assert prior.program_prior([6, 0, 0, 0], 1) == p
    # The weights still count the frozen opcodes, which the stochastic
    # searcher samples by, but P(p) stays 2**-L(p).
    assert prior.weights[6] == 8
    assert all(w == 1 for c, w in prior.weights.items() if c != 6)
    for bits in enumerate_programs(19, META_ISA):
        codes, nibbles = program_tokens(bits, META_ISA)
        assert prior.program_prior(codes, nibbles) == Fraction(1, 1 << bits.length)


def test_kraft_mass_survives_one_hundred_adaptations():
    prior = Prior(META_ISA, adapted=True)
    initial = prior.kraft_mass_per_token()
    assert initial < 1
    for i in range(100):
        prior.adapt([1 + (i % 5), 0, 6, 0, 0])
    assert prior.kraft_mass_per_token() == initial
    # Numeric check over the enumerable head of program space.
    head = Fraction(0)
    for bits in enumerate_programs(24, META_ISA):
        codes, nibbles = program_tokens(bits, META_ISA)
        head += prior.program_prior(codes, nibbles)
    assert head <= 1


def test_candidate_set_membership_by_budget_rule():
    # H = {p : P(p) * t_lim >= 1}; with the uniform prior and t_lim = 2**10,
    # H over raw programs is exactly those of length <= 10 bits.
    prior = Prior(META_ISA)
    t_lim = 1 << 10
    brute = []
    for bits in enumerate_programs(14, META_ISA):
        codes, nibbles = program_tokens(bits, META_ISA)
        if prior.program_prior(codes, nibbles) * t_lim >= 1:
            brute.append(bits)
    assert brute
    assert all(b.length <= 10 for b in brute)
    assert {b.length for b in brute} == {5, 10}


def test_adapted_prior_prefers_seen_opcodes():
    prior = Prior(META_ISA, adapted=True)
    flat = prior.opcode_prob(6)
    for _ in range(4):
        prior.adapt([6])
    assert prior.opcode_prob(6) > flat
    assert prior.opcode_prob(9) < flat
