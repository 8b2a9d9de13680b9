"""Exact feasibility checks for a triad of marginals and conditionals.

check_kolmogorov asks whether one joint probability space over three
events can reproduce the given marginals and Bayes-rule conditionals; the
unknowns are the eight atom probabilities of the U/V/W sign table.

A triad with three conditionals whose seven equality masks have rank 7
(every survey triad: total mass, the marginals, P(V|W), P(U|W) and
P(not U|V)) leaves a line of joints with one free atom, not-U & V & W,
and its verdict is read off that line: each atom is an integer affine
function of the right-hand sides, each x_i >= 0 bounds the free atom
from one side, and the witness is the line's point at the midpoint of
the tightest bounds.  Fourier-Motzkin on such a system substitutes an
equality at every step and so prints the same bounds, certificate and
witness; the comment above _line_plan says why, and names the one
infeasible case left to the elimination.

Every other triad is decided by exact Fourier-Motzkin elimination over
rationals.  Each equality constraint is substituted when its atom is
eliminated, so the row count stays linear, and back-substitution reads
that atom from the equality alone; inequalities are paired only for
atoms no remaining equality involves.  Rows are canonical integer rows
(numerators over one common denominator, reduced by their gcd), built
once from the triad's numerators and denominators, each event an 8-atom
mask: elimination, back-substitution and the witness check (each
equality once, then each atom's sign) all run on them in Python ints,
and only the bounds and witness reported are Fractions.  An infeasible
verdict's certificate is a crossed pair of implied bounds on one atom,
or a derived row 0 <= r with r < 0.

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

    All probabilities are exact rationals: marginals and each CondProb's p
    pass through to_fraction, so an int or a str such as '1/2' is taken
    and a float is refused.
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


def _equality_masks(t: TriadData) -> tuple[tuple[int, ...], ...]:
    """The atom mask of each equality constraint, in order: total mass, the
    marginals of U, V and W, then each conditional's event & given."""
    return (_mask(), *[_mask((name, True)) for name in VARIABLES], *[_mask(c.event, c.given) for c in t.conditionals])


def _equalities(t: TriadData) -> list[tuple[tuple[int, ...], int, int]]:
    """Each equality constraint as (atom mask, rhs numerator, rhs
    denominator) in lowest terms: total mass, the marginals, then each
    conditional P(event | given) = p turned into the intersection mass
    p P(given), formed from numerators and denominators with one gcd."""
    marginals = t.marginals
    rhs = [(1, 1)] + [(marginals[name].numerator, marginals[name].denominator) for name in VARIABLES]
    for c in t.conditionals:
        m = marginals[c.given[0]]
        num = c.p.numerator * (m.numerator if c.given[1] else m.denominator - m.numerator)
        den = c.p.denominator * m.denominator
        g = math.gcd(num, den)
        rhs.append((num // g, den // g))
    return [(mask, num, den) for mask, (num, den) in zip(_equality_masks(t), rhs)]


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
    for mask, num, den in _equalities(t):
        row = (tuple([den * m for m in mask] + [num]), den)
        rows += [row, _negated(row)]
    return rows + _NONNEGATIVE


def _combination(r: Row, s: int, q: Row, t: int) -> Row:
    """The canonical row with numerators s r + t q over r's and q's
    denominators multiplied."""
    nums = [s * a + t * b for a, b in zip(r[0], q[0])]
    den = r[1] * q[1]
    g = math.gcd(*nums, den)
    return (tuple(nums), den) if g == 1 else (tuple([n // g for n in nums]), den // g)


def _eliminate(rows: list[Row], var: int) -> tuple[list[Row], list[Row]]:
    """Project the system onto the remaining variables; returns (projected
    rows, the rows kept to bound `var` in back-substitution).

    When an equality (a row `up` with coefficient c > 0 on `var` whose
    exact negation `down` is also present) involves `var`, it is
    substituted: every other row r that involves `var` becomes
    c r - r[var] up, which is r paired with `down` for an upper r and with
    `up` for a lower one.  That is the same exact projection as pairing all
    uppers with all lowers, and it keeps the row count linear.  The pair
    alone is kept: on any point of the projection it fixes `var` at the
    one value the other rows allow.  Substitution maps equality pairs to
    equality pairs, so later steps find theirs again.
    """
    uppers, lowers, rest = [], [], []
    for row in rows:
        coeff = row[0][var]
        if coeff > 0:
            uppers.append(row)
        elif coeff < 0:
            lowers.append(row)
        else:
            rest.append(row)
    lower_set = set(lowers)
    for up in uppers:
        down = _negated(up)
        if down in lower_set:
            break
    else:
        return rest + [_combination(u, -lo[0][var], lo, u[0][var]) for u in uppers for lo in lowers], uppers + lowers
    c = up[0][var]
    combined = [_combination(r, c, up, -r[0][var]) for r in uppers + lowers if r != up and r != down]
    return rest + combined, [up, down]


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
        num = nums[RHS] * den - sum(map(operator.mul, nums, known))  # known[var] is 0
        if c > 0:
            if upper is None or num * upper[1] < upper[0] * c * den:
                upper = (num, c * den)
        elif lower is None or num * lower[1] < lower[0] * c * den:  # -num / (-c den) > lower
            lower = (-num, -c * den)
    return lower, upper


def _midpoint(lower: Ratio, upper: Ratio) -> Ratio:
    """(lower + upper) / 2 in lowest terms."""
    num, den = lower[0] * upper[1] + upper[0] * lower[1], 2 * lower[1] * upper[1]
    g = math.gcd(num, den)
    return num // g, den // g


def _project_to_atom(rows: list[Row], target: int):
    """Eliminate every atom but `target`: returns the target's (lower,
    upper) bounds as integer ratios or None, the first violated constant
    row's rhs as a Fraction or None, and the (var, kept rows) stack."""
    stack = []
    for var in range(N_ATOMS):
        if var == target:
            continue
        rows, kept = _eliminate(rows, var)
        stack.append((var, kept))
    # Every row left involves the target alone or no atom at all.
    lower, upper = _bounds(rows, target, [0] * N_ATOMS, 1)
    violated = next((Fraction(nums[RHS], den) for nums, den in rows if nums[target] == 0 and nums[RHS] < 0), None)
    return lower, upper, violated, stack


def _back_substitute(stack, target: int, target_value: Ratio) -> tuple[Fraction, ...]:
    """Set each eliminated atom, last first, to the midpoint of its bounds
    given the atoms already set, keeping the atoms as integers known / den
    over one common denominator; only the witness returned is Fractions."""
    known = [0] * N_ATOMS
    known[target], den = target_value
    for var, rows in reversed(stack):
        # Both bounds exist: the system holds total mass and every x_i >= 0,
        # so each projection is bounded, and on a feasible system the atom's
        # fiber over the atoms already set is a nonempty bounded interval,
        # which the rows kept for it bound from above and from below (a
        # substituted equality pins both ends to the one value it allows).
        num, value_den = _midpoint(*_bounds(rows, var, known, den))
        scale = value_den // math.gcd(den, value_den)
        if scale != 1:
            known, den = [k * scale for k in known], den * scale
        known[var] = num * (den // value_den)
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
_LINE_EQUALITIES = N_ATOMS - 1


def check_kolmogorov(t: TriadData) -> KolmogorovVerdict:
    """Exact feasibility of a joint distribution reproducing the triad.

    The not-U & V & W atom is the one kept to the end, matching the order
    of the flagship derivation; its implied bound pair is the certificate
    when contradictory, else a derived row 0 <= r with r < 0.  A triad
    whose seven equalities leave a line with that atom as its parameter is
    read off the line (_line_verdict says when); every other triad runs
    Fourier-Motzkin.  Either way a feasible verdict's witness is checked
    against the system's rows.
    """
    rows = _system_rows(t)
    masks = _equality_masks(t)
    plan = _line_plan(masks) if len(masks) == _LINE_EQUALITIES else None
    verdict = _line_verdict(plan, rows) if plan is not None else None
    if verdict is None:
        verdict = _elimination_verdict(rows)
    if verdict.feasible:
        _check_witness(t, rows, verdict.witness)
    return verdict


def _crossed(lower: Ratio, upper: Ratio) -> bool:
    return lower[0] * upper[1] > upper[0] * lower[1]


def _target_certificate(lower: Ratio, upper: Ratio) -> KolmogorovVerdict:
    return KolmogorovVerdict(False, certificate=Certificate(Fraction(*lower), Fraction(*upper), atom_label(_PAPER_TARGET)))


def _elimination_verdict(rows: list[Row]) -> KolmogorovVerdict:
    """The verdict by Fourier-Motzkin: eliminate every atom but the paper
    target, then back-substitute from the midpoint of its bounds."""
    lower, upper, violated, stack = _project_to_atom(rows, _PAPER_TARGET)
    if lower is not None and upper is not None and _crossed(lower, upper):
        return _target_certificate(lower, upper)
    if violated is not None:
        return KolmogorovVerdict(False, certificate=Certificate(Fraction(0), violated, "0"))
    if lower is None or upper is None:  # total mass bounds every atom
        raise RuntimeError(f"the elimination left {atom_label(_PAPER_TARGET)} unbounded")
    return KolmogorovVerdict(True, witness=_back_substitute(stack, _PAPER_TARGET, _midpoint(lower, upper)))


# ---------------------------------------------------------------------------
# The one-free-atom line.  Seven independent equalities whose 7 x 7 matrix
# on the atoms other than the paper target is invertible leave a line of
# joints with the target x_t as its parameter: over one integer D > 0,
# D x_i = sum_k P_ik b_k + q_i x_t for the rhs b_k.  A triad's masks each
# involve at most two variables, so the U xor V xor W parity of the atoms
# is orthogonal to all of them: when they have rank 7 it spans the line,
# and every atom moves along it (no q_i is 0).
#
# Fourier-Motzkin on such a system then substitutes an equality at every
# step (an equality left unused would pin x_t), so the rows left on x_t
# are exactly the eight x_i >= 0 carried along the line, and its bounds,
# certificate and witness are the ones read off the line.  One exception:
# when x_i = -lambda x_j all along the line, their two rows can become
# each other's negation, and elimination may substitute that pair in
# place of an equality.  On a feasible system that pair holds, so the
# projection and the witness are still the line's; on an infeasible one
# the certificate can differ, so that case goes to elimination.

Line = tuple[int, tuple[tuple[tuple[int, ...], int], ...]]  # (D, ((P_i, q_i) per atom))


@functools.cache
def _line_plan(masks: tuple[tuple[int, ...], ...]) -> Optional[Line]:
    """(D, ((P_i, q_i) for each atom i)) for seven equality masks, or None
    when their matrix off the target is singular (rank below 7, or the
    target pinned) or some atom does not move along the line.  One exact
    Gauss-Jordan over [A | I | target column], once per tuple of masks."""
    others = [i for i in range(N_ATOMS) if i != _PAPER_TARGET]
    n = len(masks)
    aug = [
        [Fraction(m[i]) for i in others] + [Fraction(int(j == k)) for j in range(n)] + [Fraction(m[_PAPER_TARGET])]
        for k, m in enumerate(masks)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    # Row k now reads x_others[k] = sum_j aug[k][n + j] b_j - aug[k][2 n] x_t.
    if any(row[2 * n] == 0 for row in aug):
        return None
    den = math.lcm(*[v.denominator for row in aug for v in row[n:]])
    atoms: list[tuple[tuple[int, ...], int]] = [((0,) * n, den)] * N_ATOMS  # the target: D x_t = D x_t
    for k, row in enumerate(aug):
        atoms[others[k]] = tuple([int(v * den) for v in row[n : 2 * n]]), int(-row[2 * n] * den)
    return den, tuple(atoms)


def _line_verdict(plan: Line, rows: list[Row]) -> Optional[KolmogorovVerdict]:
    """The verdict read off the line, or None for an infeasible system on
    which two atoms moving in opposite directions vanish at one point.

    Over L, the lcm of the rhs denominators, D L x_i = a_i + c_i x_t with
    integers a_i and c_i = q_i L; x_i >= 0 is the lower bound -a_i / c_i
    on x_t when c_i > 0 and the upper bound a_i / -c_i when c_i < 0 (the
    target's own row gives the lower bound 0).  Total mass keeps the
    line's direction summing to 0, so both sides are bounded."""
    den, atoms = plan
    equalities = rows[: 2 * _LINE_EQUALITIES : 2]
    scale = math.lcm(*[d for _, d in equalities])
    rhs = [nums[RHS] * (scale // d) for nums, d in equalities]
    line = [(sum(map(operator.mul, p, rhs)), q * scale) for p, q in atoms]
    lower: Optional[Ratio] = None
    upper: Optional[Ratio] = None
    for a, c in line:
        if c > 0:
            if lower is None or -a * lower[1] > lower[0] * c:
                lower = (-a, c)
        elif upper is None or a * upper[1] < upper[0] * -c:
            upper = (a, -c)
    if _crossed(lower, upper):
        moving = [ac for i, ac in enumerate(line) if i != _PAPER_TARGET]
        if any(a * d == b * c for a, c in moving if c > 0 for b, d in moving if d < 0):
            return None
        return _target_certificate(lower, upper)
    return KolmogorovVerdict(True, witness=_line_point(den * scale, line, _midpoint(lower, upper)))


def _line_point(den: int, line: list[tuple[int, int]], value: Ratio) -> tuple[Fraction, ...]:
    """The joint on the line at x_t = value, each atom (a_i + c_i x_t) / den."""
    num, value_den = value
    return tuple([Fraction(a * value_den + c * num, den * value_den) for a, c in line])


def _check_witness(t: TriadData, rows: list[Row], witness: tuple[Fraction, ...]) -> None:
    """Raise unless the witness satisfies the system exactly: each equality,
    read from the first of its two rows, holds with ==, and each atom is
    >= 0.  Over one common denominator den the witness is an integer
    vector, and nums . x = rhs holds iff nums . (den x) == rhs * den."""
    den = math.lcm(*[x.denominator for x in witness])
    scaled = [x.numerator * (den // x.denominator) for x in witness]
    for i, (nums, _) in enumerate(rows[:-N_ATOMS:2]):  # equality rows come first, two per constraint
        if sum(map(operator.mul, nums, scaled)) != nums[RHS] * den:
            raise RuntimeError(f"the witness breaks {joint_constraints(t)[i].label}")
    for i, x in enumerate(scaled):
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
