"""Exact feasibility checks for a triad of marginals and conditionals.

check_kolmogorov asks whether one joint probability space over three
events can reproduce the given marginals and Bayes-rule conditionals; the
unknowns are the eight atom probabilities of the U/V/W sign table, and
feasibility is decided by exact Fourier-Motzkin elimination over
rationals.  Each equality constraint is substituted when its atom is
eliminated, so the row count stays linear; inequalities are paired only
for atoms no remaining equality involves.  Rows are canonical integer
rows (numerators over one common denominator, reduced by their gcd),
built once from the triad, each event an 8-atom mask: elimination,
back-substitution and the witness check all run on them in Python ints,
and only the bounds and witness reported are Fractions.  An infeasible
verdict's certificate is a crossed pair of implied bounds on one atom,
or a derived row 0 <= r with r < 0.

check_hilbert2d asks whether the symmetric transition-probability table
(all cyclically adjacent pairs gamma^2, all skew pairs delta^2) can be
realized by three orthonormal bases of a 2-D complex inner-product space;
the five relative phases collapse to one solvability condition on a
cosine.

Everything here is exact rational arithmetic: the interesting verdicts
hinge on strict inequality gaps, and no tolerance should be able to blur
them.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Union

VARIABLES = ("U", "V", "W")
N_ATOMS = 8

RationalLike = Union[Fraction, int, str]

# An event is a variable name with a truth flag: ("U", False) means "not U".
Event = tuple[str, bool]


def to_fraction(value: RationalLike) -> Fraction:
    """Exact conversion; floats are rejected so no silent rounding sneaks in."""
    if isinstance(value, float):
        raise TypeError("pass probabilities as str/Fraction/int so they stay exact")
    return Fraction(value)


def parse_event(text: str) -> Event:
    name = text.strip()
    positive = True
    if name.lower().startswith("not "):
        positive = False
        name = name[4:].strip()
    if name not in VARIABLES:
        raise ValueError(f"unknown event {text!r}; expected one of {VARIABLES} (optionally 'not ...')")
    return name, positive


def event_label(ev: Event) -> str:
    return ev[0] if ev[1] else f"not {ev[0]}"


def atom_label(index: int) -> str:
    bits = [(index >> (2 - i)) & 1 for i in range(3)]
    return " & ".join(name if bit else f"not {name}" for name, bit in zip(VARIABLES, bits))


@functools.cache
def _mask(*events: Event) -> tuple[int, ...]:
    """The 0/1 indicator of the atoms where every listed event holds (all for no event)."""
    return tuple([int(all(bool(i >> (2 - VARIABLES.index(n)) & 1) == pos for n, pos in events)) for i in range(N_ATOMS)])


@dataclass(frozen=True)
class CondProb:
    """One conditional constraint: P(event | given) = p."""

    event: Event
    given: Event
    p: Fraction


@dataclass
class TriadData:
    """Marginals of U, V, W plus a map of conditional probabilities.

    All probabilities are exact rationals; decimal inputs should be parsed
    to fractions before they get here.
    """

    marginals: Mapping[str, Fraction]
    conditionals: tuple[CondProb, ...]

    def __post_init__(self) -> None:
        self.marginals = {k: to_fraction(v) for k, v in self.marginals.items()}
        for name in VARIABLES:
            if name not in self.marginals:
                raise ValueError(f"missing marginal for {name}")
        for p in list(self.marginals.values()) + [c.p for c in self.conditionals]:
            if not 0 <= p <= 1:
                raise ValueError(f"probability {p} outside [0, 1]")

    def marginal_of(self, ev: Event) -> Fraction:
        m = self.marginals[ev[0]]
        return m if ev[1] else 1 - m


def paper_triad() -> TriadData:
    """The flagship instance: three half/half experiments whose pairwise
    conditionals are 0.78 / 0.22 / 0.22."""
    half = Fraction(1, 2)
    return TriadData(
        marginals={"U": half, "V": half, "W": half},
        conditionals=(
            CondProb(("V", True), ("W", True), Fraction("0.78")),
            CondProb(("U", True), ("W", True), Fraction("0.22")),
            CondProb(("U", False), ("V", True), Fraction("0.22")),
        ),
    )


@dataclass(frozen=True)
class LinearConstraint:
    """Equality  coeffs . atoms = rhs  over the eight atom probabilities."""

    coeffs: tuple[Fraction, ...]
    rhs: Fraction
    label: str


def _equalities(t: TriadData) -> list[tuple[tuple[int, ...], Fraction]]:
    """Each equality constraint as (atom mask, rhs): total mass, the
    marginals, then each conditional turned into an intersection mass using
    the given conditioning marginal."""
    eqs = [(_mask(), Fraction(1))]
    eqs += [(_mask((name, True)), t.marginals[name]) for name in VARIABLES]
    eqs += [(_mask(c.event, c.given), c.p * t.marginal_of(c.given)) for c in t.conditionals]
    return eqs


def joint_constraints(t: TriadData) -> list[LinearConstraint]:
    """Equality constraints over the eight atoms: total mass, marginals, and
    each conditional turned into an intersection mass using the given
    conditioning marginal (atoms are additionally nonnegative)."""
    labels = ["total mass"] + [f"marginal {name}" for name in VARIABLES]
    labels += [
        f"P({event_label(c.event)} | {event_label(c.given)}) * P({event_label(c.given)})" for c in t.conditionals
    ]
    return [
        LinearConstraint(tuple([Fraction(m) for m in mask]), rhs, label)
        for (mask, rhs), label in zip(_equalities(t), labels)
    ]


# ---------------------------------------------------------------------------
# Exact Fourier-Motzkin elimination.  Rows encode  coeffs . x <= rhs  as
# (nums, den): the eight coefficient numerators and the rhs numerator over
# one common denominator den > 0, reduced so that gcd(*nums, den) == 1.
# That form is unique, so two rows are equal exactly when their rational
# coefficients and rhs are, and the elimination runs on Python ints.  The
# rows are built once from the triad: an equality mask . x = a/b is the
# row (b mask, a) over b, already reduced since gcd(a, b) == 1, and its
# negation; the witness check reads the same rows.
# Tuples are built from lists: tuple(generator) allocates ten slots and
# shrinks, and the shrunk tuples pile up in size freelists nothing reuses.

Row = tuple[tuple[int, ...], int]
RHS = N_ATOMS
Ratio = tuple[int, int]  # a bound as (numerator, positive denominator)

# The eight rows -x_i <= 0.
_NONNEGATIVE: list[Row] = [(tuple([-1 if j == i else 0 for j in range(N_ATOMS + 1)]), 1) for i in range(N_ATOMS)]


def _negated(row: Row) -> Row:
    nums, den = row
    return tuple([-n for n in nums]), den


def _system_rows(t: TriadData) -> list[Row]:
    """The system as rows: each equality of joint_constraints, in order, as
    itself and its negation, then the eight rows -x_i <= 0."""
    rows: list[Row] = []
    for mask, rhs in _equalities(t):
        row = (tuple([rhs.denominator * m for m in mask] + [rhs.numerator]), rhs.denominator)
        rows += [row, _negated(row)]
    return rows + _NONNEGATIVE


def _eliminate(rows: list[Row], var: int) -> tuple[list[Row], list[Row]]:
    """Project the system onto the remaining variables; returns (projected
    rows, the rows that involved `var`, kept for back-substitution).

    When an equality (a row whose exact negation is also present) involves
    `var`, it is substituted: every upper row meets only the equality's
    lower half and every lower row its upper half.  That is the same exact
    projection as pairing all uppers with all lowers, and it keeps the row
    count linear.  Substitution maps equality pairs to equality pairs, so
    later steps find theirs again.
    """
    uppers, lowers, rest = [], [], []
    for row in rows:
        c = row[0][var]
        if c > 0:
            uppers.append(row)
        elif c < 0:
            lowers.append(row)
        else:
            rest.append(row)
    lower_set = set(lowers)
    up = next((row for row in uppers if _negated(row) in lower_set), None)
    if up is None:
        pairs = [(u, lo) for u in uppers for lo in lowers]
    else:
        down = _negated(up)
        pairs = [(u, down) for u in uppers if u != up] + [(up, lo) for lo in lowers if lo != down]
    combined = []
    for (un, ud), (ln, ld) in pairs:
        scale_u = -ln[var]
        scale_l = un[var]
        nums = [scale_u * a + scale_l * b for a, b in zip(un, ln)]
        den = ud * ld
        g = math.gcd(*nums, den)
        combined.append((tuple(nums), den) if g == 1 else (tuple([n // g for n in nums]), den // g))
    return rest + combined, uppers + lowers


def _bounds(rows: list[Row], var: int, known: list[int], den: int) -> tuple[Optional[Ratio], Optional[Ratio]]:
    """(max lower bound, min upper bound) on `var` from the rows that
    involve it, every other atom a row involves taken at known[i] / den, or
    None where no row bounds that side.  Each row's bound (rhs - rest) /
    coeff is an integer ratio, and the tightest on each side is picked by
    cross-multiplying."""
    lower: Optional[Ratio] = None
    upper: Optional[Ratio] = None
    for nums, _ in rows:
        c = nums[var]
        if c == 0:
            continue
        num = nums[RHS] * den - sum([a * x for a, x in zip(nums, known)])  # known[var] is 0
        if c > 0:
            if upper is None or num * upper[1] < upper[0] * c * den:
                upper = (num, c * den)
        elif lower is None or num * lower[1] < lower[0] * c * den:  # -num / (-c den) > lower
            lower = (-num, -c * den)
    return lower, upper


def _project_to_atom(rows: list[Row], target: int):
    stack = []
    for var in range(N_ATOMS):
        if var == target:
            continue
        rows, used = _eliminate(rows, var)
        stack.append((var, used))
    # Every row left involves the target alone or no atom at all.
    lower, upper = (None if b is None else Fraction(*b) for b in _bounds(rows, target, [0] * N_ATOMS, 1))
    violated = next((Fraction(nums[RHS], den) for nums, den in rows if nums[target] == 0 and nums[RHS] < 0), None)
    return lower, upper, violated, stack


def _back_substitute(stack, target: int, target_value: Fraction) -> tuple[Fraction, ...]:
    """Set each eliminated atom, last first, to the midpoint of its bounds
    given the atoms already set, keeping the atoms as integers known / den
    over one common denominator."""
    known = [0] * N_ATOMS
    known[target], den = target_value.numerator, target_value.denominator
    for var, used_rows in reversed(stack):
        # Both bounds exist: the system holds total mass and every x_i >= 0,
        # so each projection is bounded, and on a feasible system the atom's
        # fiber over the atoms already set is a nonempty bounded interval,
        # which the rows that involved it bound from above and from below.
        lo, hi = _bounds(used_rows, var, known, den)
        value = Fraction(lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1])
        scale = value.denominator // math.gcd(den, value.denominator)
        known, den = [k * scale for k in known], den * scale
        known[var] = value.numerator * (den // value.denominator)
    return tuple([Fraction(k, den) for k in known])


@dataclass(frozen=True)
class Certificate:
    """Contradictory implied bounds: every joint would need
    lower <= expression <= upper with lower > upper."""

    lower: Fraction
    upper: Fraction
    expression: str


@dataclass(frozen=True)
class KolmogorovVerdict:
    feasible: bool
    witness: Optional[tuple[Fraction, ...]] = None
    certificate: Optional[Certificate] = None


# The atom the flagship contradiction lives on: not-U & V & W.
_PAPER_TARGET = 0b011


def check_kolmogorov(t: TriadData) -> KolmogorovVerdict:
    """Exact feasibility of a joint distribution reproducing the triad.

    Eliminates atoms so that the not-U & V & W atom survives last, matching
    the order of the flagship derivation; its implied bound pair is the
    certificate when contradictory, else a derived row 0 <= r with r < 0.
    """
    rows = _system_rows(t)
    lower, upper, violated, stack = _project_to_atom(rows, _PAPER_TARGET)
    if lower is not None and upper is not None and lower > upper:
        return KolmogorovVerdict(False, certificate=Certificate(lower, upper, atom_label(_PAPER_TARGET)))
    if violated is not None:
        return KolmogorovVerdict(False, certificate=Certificate(Fraction(0), violated, "0"))
    if lower is None or upper is None:  # total mass bounds every atom
        raise RuntimeError(f"the elimination left {atom_label(_PAPER_TARGET)} unbounded")
    witness = _back_substitute(stack, _PAPER_TARGET, (lower + upper) / 2)
    _check_witness(t, rows, witness)
    return KolmogorovVerdict(True, witness=witness)


def _check_witness(t: TriadData, rows: list[Row], witness: tuple[Fraction, ...]) -> None:
    """Raise unless the witness satisfies every row of the system exactly.
    Over one common denominator den the witness is an integer vector, and
    a row nums . x <= rhs holds iff nums . (den x) <= rhs * den."""
    den = math.lcm(*[x.denominator for x in witness])
    scaled = [x.numerator * (den // x.denominator) for x in witness]
    for i, (nums, _) in enumerate(rows):
        if sum([a * w for a, w in zip(nums, scaled)]) > nums[RHS] * den:
            n_eq = len(rows) - N_ATOMS  # equality rows come first, two per constraint
            broken = joint_constraints(t)[i // 2].label if i < n_eq else f"{atom_label(i - n_eq)} >= 0"
            raise RuntimeError(f"the witness breaks {broken}")


@dataclass(frozen=True)
class HilbertVerdict:
    feasible: bool
    gamma2: Fraction
    delta2: Fraction
    required_cosine: Optional[Fraction]  # None at gamma^2 = 1, where no phase is asked for


def check_hilbert2d(gamma2: RationalLike) -> HilbertVerdict:
    """Solvability of the symmetric three-basis configuration in 2-D.

    With adjacent transition probabilities gamma^2 and skew ones
    delta^2 = 1 - gamma^2, the relative phases must satisfy
    cos(phase) = (delta^2 - delta^4 - gamma^4) / (2 delta^2 gamma^2),
    which for 0 < g < 1 simplifies to (1 - 2 g) / (2 (1 - g)).  Feasible
    iff that cosine lies in [-1, 1], i.e. gamma^2 <= 3/4.  The simplified
    form also holds at gamma^2 = 0 (orthogonal neighbours make the skew
    pair equal: feasible, cosine 1/2).  At gamma^2 = 1 the neighbours
    coincide while the skew pair must be orthogonal: infeasible, with no
    required cosine.  Values outside [0, 1] raise ValueError.
    """
    g = to_fraction(gamma2)
    if not 0 <= g <= 1:
        raise ValueError("gamma^2 must lie in [0, 1]")
    d = 1 - g
    required = (1 - 2 * g) / (2 * d) if d else None
    return HilbertVerdict(required is not None and abs(required) <= 1, g, d, required)


class ModelClass(enum.Enum):
    KOLMOGOROVIAN = "kolmogorovian"
    HILBERTIAN_2D = "hilbertian-2d"
    BOTH = "both"
    NEITHER = "neither"


def model_class(kolmogorov: KolmogorovVerdict, hilbert: HilbertVerdict) -> ModelClass:
    """Combine two feasibility verdicts already computed."""
    if kolmogorov.feasible and hilbert.feasible:
        return ModelClass.BOTH
    if kolmogorov.feasible:
        return ModelClass.KOLMOGOROVIAN
    if hilbert.feasible:
        return ModelClass.HILBERTIAN_2D
    return ModelClass.NEITHER


def classify(t: TriadData, gamma2: RationalLike) -> ModelClass:
    """Run both feasibility checks and combine their verdicts."""
    return model_class(check_kolmogorov(t), check_hilbert2d(gamma2))
