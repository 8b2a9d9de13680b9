"""check_kolmogorov output pinned: verdicts and witnesses as qmachine 0.3.0
printed them, certificates as 0.10.0 prints them.

Verdict, witness and certificate (lower, upper, expression) are recorded
for the flagship, the degenerate triad of the inconsistent-input test and
GOLDEN_CASES seeded random rational triads with 0-5 random conditionals;
a few are pinned as explicit values, the rest as one sha256 of their
reprs.  Any change to the exact elimination that moves a single bound,
witness atom or certificate atom fails here.
"""

import hashlib
import random
from fractions import Fraction

from qmachine.embedding import (
    VARIABLES,
    Certificate,
    CondProb,
    KolmogorovVerdict,
    TriadData,
    check_kolmogorov,
    paper_triad,
)

GOLDEN_SEED = 20250
GOLDEN_CASES = 200
EVENTS = tuple((name, positive) for name in VARIABLES for positive in (True, False))
DENOMINATORS = (2, 4, 10, 25, 100, 997)
CONSTANT_ROW = "0"  # the expression of a certificate that is a constant row

# Recorded with qmachine 0.10.0: (feasible, constant-row, all) verdict
# counts, a few verdicts by index, and the sha256 of all reprs joined by
# newlines.  Verdicts and witnesses are those 0.3.0 printed, and the sha256
# of the feasible verdicts' reprs alone was recorded with 0.9.0.  0.4.0
# changed the 97 certificates 0.3.0 took from a rerun on another atom (52)
# or a placeholder (45).  0.10.0 changed 80 certificates of the 140, 33
# on the paper target and 47 constant rows of another value, to constant
# rows: an equality contradiction (a null combination y of the masks with
# y . b != 0, 114 triads here) is certified as 0 <= -|y . b| before any
# bound is read, and a derived constant row r < 0 as 0 <= r / (D L).
RECORDED_COUNTS = (60, 130, 200)
RECORDED_SHA256 = "39cfe8d9c222d2762d35a039836b80fcd066ae92caaf4a4f6adaf0e5a55640c2"
RECORDED_FEASIBLE_SHA256 = "0de81edefc8839e8a921bc73c2af306e3df8c298cdfcf2903efb095f9cd62825"
_F = Fraction
RECORDED_EXAMPLES = {
    # Equality contradictions.  0.9.0 certified 0 and 2 on the paper target,
    # and 6 as the constant row 0 <= -7/20.
    0: KolmogorovVerdict(False, certificate=Certificate(_F(0), _F(-276, 997), CONSTANT_ROW)),
    2: KolmogorovVerdict(False, certificate=Certificate(_F(0), _F(-9001, 39880), CONSTANT_ROW)),
    5: KolmogorovVerdict(False, certificate=Certificate(_F(0), _F(-17577, 99700), CONSTANT_ROW)),
    6: KolmogorovVerdict(False, certificate=Certificate(_F(0), _F(-1, 2), CONSTANT_ROW)),
    # No conditionals: the witness comes from pairing inequalities alone.
    1: KolmogorovVerdict(True, witness=(_F(1, 50), _F(1, 50), _F(4, 25), _F(1, 5), _F(1, 50), _F(1, 50), _F(1, 5), _F(9, 25))),
    # Paper-target certificates: 11 read off a line, 45 after eliminating a
    # second free atom.
    11: KolmogorovVerdict(False, certificate=Certificate(_F(1984787, 2492500), _F(27823, 49850), "not U & V & W")),
    45: KolmogorovVerdict(False, certificate=Certificate(_F(0), _F(-13, 625), "not U & V & W")),
    19: KolmogorovVerdict(
        True,
        witness=(_F(81, 2500), _F(81, 2500), _F(36, 625), _F(36, 625), _F(1213, 5000), _F(2213, 5000), _F(337, 5000), _F(337, 5000)),
    ),
}


def random_rational_triad(rnd: random.Random) -> TriadData:
    """Rational marginals in (0, 1) and 0-5 conditionals on any pair of
    events, the same variable on both sides included, so that feasible,
    infeasible and constant-contradiction verdicts all occur."""

    def prob(low: int) -> Fraction:
        den = rnd.choice(DENOMINATORS)
        return Fraction(rnd.randint(low, den - low), den)

    marginals = {name: prob(1) for name in VARIABLES}
    conds = tuple(CondProb(rnd.choice(EVENTS), rnd.choice(EVENTS), prob(0)) for _ in range(rnd.randint(0, 5)))
    return TriadData(marginals, conds)


def golden_triads() -> list[TriadData]:
    rnd = random.Random(GOLDEN_SEED)
    return [random_rational_triad(rnd) for _ in range(GOLDEN_CASES)]


def degenerate_triad() -> TriadData:
    f = Fraction
    return TriadData(
        {"U": f(19, 25), "V": f(1, 100), "W": f(77, 100)},
        (
            CondProb(("W", False), ("V", True), f(2, 25)),
            CondProb(("V", True), ("V", True), f(39, 100)),
            CondProb(("V", False), ("W", False), f(2, 5)),
            CondProb(("U", False), ("V", False), f(3, 5)),
            CondProb(("W", False), ("U", False), f(7, 100)),
        ),
    )


def test_flagship_certificate_is_pinned():
    assert check_kolmogorov(paper_triad()) == KolmogorovVerdict(
        False, certificate=Certificate(Fraction(7, 25), Fraction(11, 100), "not U & V & W")
    )


def test_degenerate_triad_certificate_is_pinned():
    # P(V | V) = 39/100 asks for 39/10000 of mass on V, whose marginal is
    # 1/100.  0.9.0 certified 0 <= -177/500 on the paper target instead.
    assert check_kolmogorov(degenerate_triad()) == KolmogorovVerdict(
        False, certificate=Certificate(Fraction(0), Fraction(-61, 10000), CONSTANT_ROW)
    )


def test_random_rational_triads_match_recorded_output():
    verdicts = [check_kolmogorov(t) for t in golden_triads()]
    feasible = [v for v in verdicts if v.feasible]
    constant = [v for v in verdicts if not v.feasible and v.certificate.expression == CONSTANT_ROW]
    assert (len(feasible), len(constant), len(verdicts)) == RECORDED_COUNTS
    for index, expected in RECORDED_EXAMPLES.items():
        assert verdicts[index] == expected, index
    assert all(v.certificate.lower > v.certificate.upper for v in verdicts if not v.feasible)
    assert _digest(feasible) == RECORDED_FEASIBLE_SHA256
    assert _digest(verdicts) == RECORDED_SHA256


def _digest(verdicts) -> str:
    return hashlib.sha256("\n".join(repr(v) for v in verdicts).encode()).hexdigest()
