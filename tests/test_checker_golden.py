"""check_kolmogorov output pinned as qmachine 0.3.0 printed it, with the
constant-contradiction certificates as 0.4.0 prints them.

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

# Recorded with qmachine 0.4.0: (feasible, constant-row, all) verdict
# counts, a few verdicts by index, and the sha256 of all reprs joined by
# newlines.  Verdicts and witnesses are those 0.3.0 printed; 0.4.0 changed
# only the 97 certificates 0.3.0 took from a rerun on another atom (52) or
# a placeholder (45), where the paper target's bounds do not cross.
RECORDED_COUNTS = (60, 97, 200)
RECORDED_SHA256 = "bd5ec7db46d6385f8190f1966ff75a2179920d596244b98a6b3274e0eaf35239"
_F = Fraction
RECORDED_EXAMPLES = {
    # Paper-target certificate.
    0: KolmogorovVerdict(False, certificate=Certificate(_F(0), _F(-9, 25), "not U & V & W")),
    # No conditionals: the witness comes from pairing inequalities alone.
    1: KolmogorovVerdict(True, witness=(_F(1, 50), _F(1, 50), _F(4, 25), _F(1, 5), _F(1, 50), _F(1, 50), _F(1, 5), _F(9, 25))),
    2: KolmogorovVerdict(False, certificate=Certificate(_F(502, 4985), _F(0), "not U & V & W")),
    # Constant rows: 0.3.0 printed a placeholder for 5 and a certificate on
    # the not U & not V & not W atom for 6.
    5: KolmogorovVerdict(False, certificate=Certificate(_F(0), _F(-17577, 99700), CONSTANT_ROW)),
    6: KolmogorovVerdict(False, certificate=Certificate(_F(0), _F(-7, 20), CONSTANT_ROW)),
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
    assert check_kolmogorov(degenerate_triad()) == KolmogorovVerdict(
        False, certificate=Certificate(Fraction(0), Fraction(-177, 500), "not U & V & W")
    )


def test_random_rational_triads_match_recorded_output():
    verdicts = [check_kolmogorov(t) for t in golden_triads()]
    feasible = [v for v in verdicts if v.feasible]
    constant = [v for v in verdicts if not v.feasible and v.certificate.expression == CONSTANT_ROW]
    assert (len(feasible), len(constant), len(verdicts)) == RECORDED_COUNTS
    for index, expected in RECORDED_EXAMPLES.items():
        assert verdicts[index] == expected, index
    digest = hashlib.sha256("\n".join(repr(v) for v in verdicts).encode()).hexdigest()
    assert digest == RECORDED_SHA256
