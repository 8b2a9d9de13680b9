"""Exact feasibility checks for a triad of marginals and conditionals.

check_kolmogorov asks whether one joint probability space over three
events can reproduce the given marginals and Bayes-rule conditionals; the
unknowns are the eight atom probabilities of the U/V/W sign table.  It
runs one procedure on every triad:

* a plan, made once per tuple of equality masks: one exact Gauss-Jordan
  over [A | I] writes each atom as an integer affine function of the
  right-hand sides and of the free atoms (those whose columns take no
  pivot; the not-U & V & W target is always one), and leaves the null
  combinations of the masks;
* a null combination y with y . b != 0 is an equality contradiction, and
  certifies infeasibility as a constant row;
* otherwise each x_i >= 0 is one integer row over the free atoms, and
  Fourier-Motzkin pairs those rows to eliminate every free atom but the
  target.  Crossed bounds on the target, or a negative constant row, are
  the certificate; else the witness is back-substituted from midpoints.

A triad with one free atom (every survey triad) runs the same procedure
with zero eliminations: its rows bound the target directly.  The witness comes out as integer numerators over
one denominator and is checked on integers against each equality, then
each atom's sign; only the bounds and witness reported are Fractions.  An
infeasible verdict's certificate is a crossed pair of implied bounds on
the target, or a derived row 0 <= r with r < 0.

check_hilbert2d asks whether the symmetric transition-probability table
(all cyclically adjacent pairs gamma^2, all skew pairs delta^2) can be
realized by three orthonormal bases of a 2-D complex inner-product space;
the five relative phases collapse to one solvability condition on a
cosine, tested on the numerator and denominator of gamma^2.

Everything here is exact rational arithmetic: the interesting verdicts
hinge on strict inequality gaps, and no tolerance should be able to blur
them.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Optional, Union

VARIABLES = ("U", "V", "W")
N_ATOMS = 8

RationalLike = Union[Fraction, int, str]

# An event is a variable name with a truth flag: ("U", False) means "not U".
Event = tuple[str, bool]


def to_fraction(value: RationalLike) -> Fraction:
    """Exact conversion; floats are rejected so no silent rounding sneaks
    in, and bools so that True is not read as the probability 1."""
    if isinstance(value, (float, bool)):
        raise TypeError(f"pass probabilities as str/Fraction/int, not the {type(value).__name__} {value!r}")
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

    All probabilities are exact rationals: marginals and each CondProb's p
    pass through to_fraction, so an int or a str such as '1/2' is taken
    and a float or a bool is refused.
    """

    marginals: Mapping[str, Fraction]
    conditionals: tuple[CondProb, ...]

    def __post_init__(self) -> None:
        self.marginals = {k: to_fraction(v) for k, v in self.marginals.items()}
        self.conditionals = tuple(
            c if isinstance(c.p, Fraction) else replace(c, p=to_fraction(c.p)) for c in self.conditionals
        )
        for name in self.marginals:
            if name not in VARIABLES:
                raise ValueError(f"marginal for unknown variable {name!r}; expected one of {VARIABLES}")
        for c in self.conditionals:
            for name, _ in (c.event, c.given):
                if name not in VARIABLES:
                    raise ValueError(f"conditional on unknown variable {name!r}; expected one of {VARIABLES}")
        for name in VARIABLES:
            if name not in self.marginals:
                raise ValueError(f"missing marginal for {name}")
        for p in list(self.marginals.values()) + [c.p for c in self.conditionals]:
            if not 0 <= p <= 1:
                raise ValueError(f"probability {p} outside [0, 1]")


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


Equality = tuple[tuple[int, ...], int, int]  # (atom mask, rhs numerator, rhs denominator)


# The masks of total mass and of the marginals of U, V and W.
_BASE_MASKS = (_mask(), *[_mask((name, True)) for name in VARIABLES])


def _equalities(t: TriadData) -> list[Equality]:
    """Each equality constraint as (atom mask, rhs numerator, rhs
    denominator) in lowest terms: total mass, the marginals, then each
    conditional P(event | given) = p turned into the intersection mass
    p P(given) on event & given, formed from numerators and denominators
    with one gcd."""
    marginals = t.marginals
    equalities = [(_BASE_MASKS[0], 1, 1)]
    for name, mask in zip(VARIABLES, _BASE_MASKS[1:]):
        equalities.append((mask, *marginals[name].as_integer_ratio()))
    for c in t.conditionals:
        m_num, m_den = marginals[c.given[0]].as_integer_ratio()
        p_num, p_den = c.p.as_integer_ratio()
        num, den = p_num * (m_num if c.given[1] else m_den - m_num), p_den * m_den
        g = math.gcd(num, den)
        equalities.append((_mask(c.event, c.given), num // g, den // g))
    return equalities


def joint_constraints(t: TriadData) -> list[LinearConstraint]:
    """Equality constraints over the eight atoms: total mass, marginals, and
    each conditional turned into an intersection mass using the given
    conditioning marginal (atoms are additionally nonnegative)."""
    labels = ["total mass"] + [f"marginal {name}" for name in VARIABLES]
    labels += [
        f"P({event_label(c.event)} | {event_label(c.given)}) * P({event_label(c.given)})" for c in t.conditionals
    ]
    return [
        LinearConstraint(tuple([Fraction(m) for m in mask]), Fraction(num, den), label)
        for (mask, num, den), label in zip(_equalities(t), labels)
    ]


# ---------------------------------------------------------------------------
# The plan.  One exact Gauss-Jordan over [A | I], A the equality masks with
# the atom columns in index order and the paper target last, writes each
# atom as D x_i = P_i . b + Q_i . x_free over one integer D > 0, for the
# right-hand sides b and the atoms whose columns took no pivot, and leaves
# the null combinations y of the masks (y A = 0), which a consistent b
# must meet with y . b = 0.  Every mask involves at most two variables, so
# the U xor V xor W parity of the atoms is orthogonal to each of them: its
# target entry is nonzero, so the target column is a combination of the
# others and the target is always free, the last free atom.  A triad's
# masks recur, so the plan is kept per tuple of masks, for the last
# _PLAN_CACHE_SIZE tuples: every survey and bench shape stays warm, and a
# process that checks arbitrary triads stays bounded (a plan is about 2 KB).
# Tuples are built from lists: tuple(generator) allocates ten slots and
# shrinks, and the shrunk tuples pile up in size freelists nothing reuses.

Plan = tuple[int, tuple[tuple[tuple[int, ...], tuple[int, ...]], ...], tuple[tuple[int, ...], ...]]
Row = tuple[int, ...]  # (*Q, a): Q . z + a >= 0 over z = L x_free, L the lcm of the rhs denominators
Ratio = tuple[int, int]  # a bound as (numerator, positive denominator)
Witness = tuple[list[int], int]  # the atoms as integer numerators over one denominator > 0
_PLAN_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(masks: tuple[tuple[int, ...], ...]) -> Plan:
    """(D, ((P_i, Q_i) for each atom i), the null combinations y as
    primitive integer rows) for a tuple of equality masks, at any rank.
    The elimination runs on integer rows, each reduced by its gcd: row k is
    combined with pivot row r as r[col] k - k[col] r."""
    n = len(masks)
    cols = [i for i in range(N_ATOMS) if i != _PAPER_TARGET] + [_PAPER_TARGET]
    aug = [[m[i] for i in cols] + [int(j == k) for j in range(n)] for k, m in enumerate(masks)]
    pivots: list[int] = []
    for col in range(N_ATOMS):
        r = len(pivots)
        pivot = next((k for k in range(r, n) if aug[k][col]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        for k in range(n):
            if k != r and aug[k][col]:
                combined = [aug[r][col] * a - aug[k][col] * b for a, b in zip(aug[k], aug[r])]
                g = math.gcd(*combined)
                aug[k] = [v // g for v in combined]
        pivots.append(col)
    # Row r now reads aug[r][p] x_cols[p] = sum_j aug[r][8 + j] b_j - sum_f aug[r][f] x_cols[f], p = pivots[r].
    free = [col for col in range(N_ATOMS) if col not in pivots]
    den = math.lcm(*[aug[r][col] for r, col in enumerate(pivots)])
    atoms: list = [None] * N_ATOMS
    for r, col in enumerate(pivots):
        s = den // aug[r][col]
        atoms[cols[col]] = tuple([v * s for v in aug[r][N_ATOMS:]]), tuple([-aug[r][f] * s for f in free])
    for col in free:
        atoms[cols[col]] = (), tuple([den if f == col else 0 for f in free])  # P_i = 0
    return den, tuple(atoms), tuple([tuple(row[N_ATOMS:]) for row in aug[len(pivots) :]])


def _bounds(rows: list[Row], var: int, known: list[int], den: int) -> tuple[Optional[Ratio], Optional[Ratio]]:
    """(max lower bound, min upper bound) on free atom `var` from the rows
    that involve it, every other free atom a row involves taken at
    known[j] / den, or None where no row bounds that side.  Each row's
    bound is an integer ratio, and the tightest on each side is picked by
    cross-multiplying."""
    lower: Optional[Ratio] = None
    upper: Optional[Ratio] = None
    for row in rows:
        c = row[var]
        if c == 0:
            continue
        num = sum(map(operator.mul, row, known), row[-1] * den) if known else row[-1]  # known[var] is 0
        if c > 0:
            if lower is None or -num * lower[1] > lower[0] * c * den:
                lower = (-num, c * den)
        elif upper is None or num * upper[1] < upper[0] * -c * den:
            upper = (num, -c * den)
    return lower, upper


def _midpoint(lower: Ratio, upper: Ratio) -> Ratio:
    """(lower + upper) / 2 in lowest terms."""
    num, den = lower[0] * upper[1] + upper[0] * lower[1], 2 * lower[1] * upper[1]
    g = math.gcd(num, den)
    return num // g, den // g


def _eliminate(rows: list[Row], var: int) -> tuple[list[Row], list[Row]]:
    """Fourier-Motzkin on free atom `var`: (every row without it plus each
    lower row paired with each upper row, reduced by its gcd; the rows that
    bound `var`, kept for back-substitution)."""
    lowers = [row for row in rows if row[var] > 0]
    uppers = [row for row in rows if row[var] < 0]
    projected = [row for row in rows if row[var] == 0]
    for lo in lowers:
        for up in uppers:
            s, t = -up[var], lo[var]
            combined = [s * a + t * b for a, b in zip(lo, up)]
            g = math.gcd(*combined)  # 0 when the pair cancels to 0 >= 0
            projected.append(tuple(combined) if g < 2 else tuple([v // g for v in combined]))
    return projected, lowers + uppers


def _back_substitute(rows: list[Row], den: int, stack: list[list[Row]], value: Ratio) -> Witness:
    """The joint with the target at `value` and each eliminated free atom,
    last first, at the midpoint of its bounds given the free atoms already
    set, kept as integers over one common denominator; then each atom's
    row (Q . z + a, over den) read at that point."""
    known = [0] * (len(stack) + 1)
    known[-1], value_den = value
    for var in reversed(range(len(stack))):
        # Both bounds exist: on a feasible system the atom's fiber over the
        # free atoms already set is a nonempty interval, bounded since total
        # mass and every x_i >= 0 bound every atom.
        num, var_den = _midpoint(*_bounds(stack[var], var, known, value_den))
        scale = var_den // math.gcd(value_den, var_den)
        if scale != 1:
            known, value_den = [k * scale for k in known], value_den * scale
        known[var] = num * (value_den // var_den)
    values = [row[-1] * value_den for row in rows]
    for j, y in enumerate(known):
        values = [v + row[j] * y for v, row in zip(values, rows)]
    return values, den * value_den


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

    A null combination y of the masks (an integer row of the plan) with
    y . b != 0 breaks 0 = y . b: the certificate is 0 <= -|y . b|.
    Otherwise, with L the lcm of the rhs denominators, each atom gives the
    row D L x_i = P_i . (L b) + Q_i . z >= 0 over z = L x_free, and
    Fourier-Motzkin pairs those rows to eliminate every free atom but the
    not-U & V & W target, matching the order of the flagship derivation:
    the target's crossed bounds are the certificate, else a derived
    constant row r < 0 gives 0 <= r / (D L).  Otherwise the witness is
    back-substituted from the midpoint of the target's bounds, checked
    against the equalities on integers, and only then made Fractions.
    """
    equalities = _equalities(t)
    den, atoms, null = _plan(tuple([m for m, _, _ in equalities]))
    scale = math.lcm(*[d for _, _, d in equalities])
    rhs = [num * (scale // d) for _, num, d in equalities]
    for y in null:
        if c := sum(map(operator.mul, y, rhs)):
            return KolmogorovVerdict(False, certificate=Certificate(Fraction(0), Fraction(-abs(c), scale), "0"))
    atom_rows = [Q + (sum(map(operator.mul, P, rhs)),) for P, Q in atoms]
    rows, stack = atom_rows, []
    for var in range(len(atom_rows[0]) - 2):  # every free atom but the target, the last
        rows, kept = _eliminate(rows, var)
        stack.append(kept)
    # Every row left involves the target alone or no free atom at all.  Both
    # bounds exist: the target's own row bounds it below, and the sum of the
    # other seven (total mass) bounds it above, and every nonnegative
    # combination of rows that cancels the eliminated atoms is a nonnegative
    # combination of the rows left.
    lower, upper = _bounds(rows, len(stack), [], 1)
    if lower[0] * upper[1] > upper[0] * lower[1]:
        lower, upper = Fraction(lower[0], lower[1] * scale), Fraction(upper[0], upper[1] * scale)
        return KolmogorovVerdict(False, certificate=Certificate(lower, upper, atom_label(_PAPER_TARGET)))
    for row in rows:
        if row[-1] < 0 and not row[-2]:
            return KolmogorovVerdict(False, certificate=Certificate(Fraction(0), Fraction(row[-1], den * scale), "0"))
    known, den = _back_substitute(atom_rows, den * scale, stack, _midpoint(lower, upper))
    _check_witness(t, equalities, known, den)
    return KolmogorovVerdict(True, witness=tuple([Fraction(k, den) for k in known]))


def _check_witness(t: TriadData, equalities: list[Equality], known: list[int], den: int) -> None:
    """Raise unless the witness x = known / den satisfies the system
    exactly: each equality mask . x = num / den_e holds, that is
    den_e (mask . known) == num den, and each atom is >= 0 (with total
    mass, known >= 0 also makes den > 0)."""
    for i, (mask, num, den_e) in enumerate(equalities):
        if den_e * sum(itertools.compress(known, mask)) != num * den:
            raise RuntimeError(f"the witness breaks {joint_constraints(t)[i].label}")
    for i, x in enumerate(known):
        if x < 0:
            raise RuntimeError(f"the witness breaks {atom_label(i)} >= 0")


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
    a, b = g.numerator, g.denominator
    if not 0 <= a <= b:
        raise ValueError("gamma^2 must lie in [0, 1]")
    # With g = a / b the cosine is (b - 2a) / (2 (b - a)), within [-1, 1]
    # iff |b - 2a| <= 2 (b - a).
    required = Fraction(b - 2 * a, 2 * (b - a)) if a != b else None
    return HilbertVerdict(a != b and abs(b - 2 * a) <= 2 * (b - a), g, Fraction(b - a, b), required)


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
