"""Exact feasibility checks for a triad of marginals and conditionals.

check_kolmogorov asks whether one joint probability space over three
events can reproduce the given marginals and Bayes-rule conditionals; the
unknowns are the eight atom probabilities of the U/V/W sign table, and
feasibility is decided by exact Fourier-Motzkin elimination over
rationals.  Each equality constraint is substituted when its atom is
eliminated, so the row count stays linear; inequalities are paired only
for atoms no remaining equality involves.  Rows are canonical integer
rows (numerators over one common denominator, reduced by their gcd), so
the elimination runs on Python ints and stays exact; only the bounds it
reports are Fractions.  An infeasible verdict's certificate is a crossed
pair of implied bounds on one atom, or a derived row 0 <= r with r < 0.

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


def _atoms_of(*events: Event) -> list[int]:
    """Atom indices where every listed event holds."""
    out = []
    for idx in range(N_ATOMS):
        ok = True
        for name, positive in events:
            bit = (idx >> (2 - VARIABLES.index(name))) & 1
            if bool(bit) != positive:
                ok = False
                break
        if ok:
            out.append(idx)
    return out


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


def joint_constraints(t: TriadData) -> list[LinearConstraint]:
    """Equality constraints over the eight atoms: total mass, marginals, and
    each conditional turned into an intersection mass using the given
    conditioning marginal (atoms are additionally nonnegative)."""
    cons = [LinearConstraint(tuple([Fraction(1)] * N_ATOMS), Fraction(1), "total mass")]
    for name in VARIABLES:
        coeffs = [Fraction(0)] * N_ATOMS
        for idx in _atoms_of((name, True)):
            coeffs[idx] = Fraction(1)
        cons.append(LinearConstraint(tuple(coeffs), t.marginals[name], f"marginal {name}"))
    for c in t.conditionals:
        coeffs = [Fraction(0)] * N_ATOMS
        for idx in _atoms_of(c.event, c.given):
            coeffs[idx] = Fraction(1)
        rhs = c.p * t.marginal_of(c.given)
        label = f"P({event_label(c.event)} | {event_label(c.given)}) * P({event_label(c.given)})"
        cons.append(LinearConstraint(tuple(coeffs), rhs, label))
    return cons


# ---------------------------------------------------------------------------
# Exact Fourier-Motzkin elimination.  Rows encode  coeffs . x <= rhs  as
# (nums, den): the eight coefficient numerators and the rhs numerator over
# one common denominator den > 0, reduced so that gcd(*nums, den) == 1.
# That form is unique, so two rows are equal exactly when their rational
# coefficients and rhs are, and the elimination runs on Python ints.
# Tuples are built from lists: tuple(generator) allocates ten slots and
# shrinks, and the shrunk tuples pile up in size freelists nothing reuses.

Row = tuple[tuple[int, ...], int]
RHS = N_ATOMS


def _row(values) -> Row:
    """The canonical integer row of a sequence of Fractions."""
    den = math.lcm(*[v.denominator for v in values])
    return tuple([v.numerator * (den // v.denominator) for v in values]), den


def _negated(row: Row) -> Row:
    nums, den = row
    return tuple([-n for n in nums]), den


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
    negated_lowers = {_negated(row) for row in lowers}
    up = next((row for row in uppers if row in negated_lowers), None)
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
        combined.append((tuple([n // g for n in nums]), den // g))
    return rest + combined, uppers + lowers


def _bounds(rows: list[Row], var: int, values: Mapping[int, Fraction]) -> tuple[Optional[Fraction], Optional[Fraction]]:
    """(max lower bound, min upper bound) on `var` from the rows that
    involve it, every other atom a row involves taken at its `values`."""
    # The known values as integers over one common denominator, so each
    # row's bound (rhs - rest) / coeff is a single Fraction.
    den = math.lcm(*[v.denominator for v in values.values()])
    known = [0] * N_ATOMS
    for i, v in values.items():
        known[i] = v.numerator * (den // v.denominator)
    lower: Optional[Fraction] = None
    upper: Optional[Fraction] = None
    for nums, _ in rows:
        c = nums[var]
        if c == 0:
            continue
        rest = sum(a * x for a, x in zip(nums, known))  # known[var] is 0
        bound = Fraction(nums[RHS] * den - rest, c * den)
        if c > 0:
            upper = bound if upper is None else min(upper, bound)
        else:
            lower = bound if lower is None else max(lower, bound)
    return lower, upper


def _system_rows(equalities: list[LinearConstraint]) -> list[Row]:
    """The system as rows: each equality as itself and its negation, in
    order, then the eight rows -x_i <= 0."""
    rows: list[Row] = []
    for con in equalities:
        row = _row((*con.coeffs, con.rhs))
        rows.append(row)
        rows.append(_negated(row))
    for i in range(N_ATOMS):
        rows.append((tuple([-1 if j == i else 0 for j in range(N_ATOMS + 1)]), 1))
    return rows


def _project_to_atom(equalities: list[LinearConstraint], target: int):
    rows = _system_rows(equalities)
    stack = []
    for var in range(N_ATOMS):
        if var == target:
            continue
        rows, used = _eliminate(rows, var)
        stack.append((var, used))
    # Every row left involves the target alone or no atom at all.
    lower, upper = _bounds(rows, target, {})
    violated = next((Fraction(nums[RHS], den) for nums, den in rows if nums[target] == 0 and nums[RHS] < 0), None)
    return lower, upper, violated, stack


def _back_substitute(stack, target: int, target_value: Fraction) -> tuple[Fraction, ...]:
    values: dict[int, Fraction] = {target: target_value}
    for var, used_rows in reversed(stack):
        lo, hi = _bounds(used_rows, var, values)
        if lo is not None and hi is not None:
            values[var] = (lo + hi) / 2
        elif lo is not None:
            values[var] = max(lo, Fraction(0))
        elif hi is not None:
            values[var] = min(hi, Fraction(0))
        else:
            values[var] = Fraction(0)
    return tuple([values[i] for i in range(N_ATOMS)])


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
    equalities = joint_constraints(t)
    lower, upper, violated, stack = _project_to_atom(equalities, _PAPER_TARGET)
    if lower is not None and upper is not None and lower > upper:
        return KolmogorovVerdict(False, certificate=Certificate(lower, upper, atom_label(_PAPER_TARGET)))
    if violated is not None:
        return KolmogorovVerdict(False, certificate=Certificate(Fraction(0), violated, "0"))
    if lower is None or upper is None:  # total mass bounds every atom
        raise RuntimeError(f"the elimination left {atom_label(_PAPER_TARGET)} unbounded")
    witness = _back_substitute(stack, _PAPER_TARGET, (lower + upper) / 2)
    _check_witness(equalities, witness)
    return KolmogorovVerdict(True, witness=witness)


def _check_witness(equalities: list[LinearConstraint], witness: tuple[Fraction, ...]) -> None:
    """Raise unless the witness satisfies every row of the system exactly.
    Over one common denominator den the witness is an integer vector, and
    a row nums . x <= rhs holds iff nums . (den x) <= rhs * den."""
    den = math.lcm(*[x.denominator for x in witness])
    scaled = [x.numerator * (den // x.denominator) for x in witness]
    for i, (nums, _) in enumerate(_system_rows(equalities)):
        if sum([a * w for a, w in zip(nums, scaled)]) > nums[RHS] * den:
            broken = equalities[i // 2].label if i < 2 * len(equalities) else f"{atom_label(i - 2 * len(equalities))} >= 0"
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
