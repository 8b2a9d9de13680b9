import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from scipy.optimize import linprog
from test_checker_families import _triad_families
from test_checker_golden import degenerate_triad, golden_triads

from qmachine import embedding
from qmachine.embedding import (
    _PAPER_TARGET,
    _PLAN_CACHE_SIZE,
    CondProb,
    ModelClass,
    TriadData,
    _equalities,
    _mask,
    _plan,
    atom_label,
    check_hilbert2d,
    check_kolmogorov,
    classify,
    joint_constraints,
    paper_triad,
    parse_event,
    to_fraction,
)
from qmachine.survey import QuestionStats, build_survey_model, classify_survey

HALF = Fraction(1, 2)


def triad(marg, conds):
    return TriadData(marg, tuple(CondProb(parse_event(e), parse_event(g), Fraction(p)) for e, g, p in conds))


def independence_triad():
    return triad(
        {"U": HALF, "V": HALF, "W": HALF},
        [("V", "W", HALF), ("U", "W", HALF), ("not U", "V", HALF)],
    )


def atoms_from_random_joint(rnd):
    raw = [Fraction(rnd.randint(1, 60)) for _ in range(8)]
    total = sum(raw)
    return [r / total for r in raw]


def mass(atoms, *events):
    out = Fraction(0)
    for idx in range(8):
        bits = ((idx >> 2) & 1, (idx >> 1) & 1, idx & 1)
        if all(bool(bits[("U", "V", "W").index(n)]) == pos for n, pos in events):
            out += atoms[idx]
    return out


def triad_from_atoms(atoms):
    marg = {n: mass(atoms, (n, True)) for n in ("U", "V", "W")}
    return TriadData(
        marg,
        (
            CondProb(("V", True), ("W", True), mass(atoms, ("V", True), ("W", True)) / marg["W"]),
            CondProb(("U", True), ("W", True), mass(atoms, ("U", True), ("W", True)) / marg["W"]),
            CondProb(("U", False), ("V", True), mass(atoms, ("U", False), ("V", True)) / marg["V"]),
        ),
    )


def test_to_fraction_rejects_floats():
    with pytest.raises(TypeError):
        to_fraction(0.78)
    assert to_fraction("0.78") == Fraction(39, 50)


def test_to_fraction_rejects_bools():
    # True would read as the probability 1 and False as 0.
    for value in (True, False):
        with pytest.raises(TypeError, match=f"not the bool {value}"):
            to_fraction(value)
        with pytest.raises(TypeError, match=f"not the bool {value}"):
            TriadData({"U": value, "V": "1/2", "W": "1/2"}, ())
        with pytest.raises(TypeError, match=f"not the bool {value}"):
            TriadData({"U": HALF, "V": HALF, "W": HALF}, (CondProb(("V", True), ("W", True), value),))
        with pytest.raises(TypeError, match=f"not the bool {value}"):
            check_hilbert2d(value)
    assert to_fraction(1) == 1 and check_hilbert2d(0).feasible


def test_triad_conditionals_pass_through_to_fraction():
    marginals = {"U": "1/2", "V": "1/2", "W": "1/2"}

    def triad(p):
        return TriadData(marginals, (CondProb(("V", True), ("W", True), p),))

    with pytest.raises(TypeError, match="pass probabilities as str/Fraction/int"):
        triad(0.5)
    for p in ("3/2", -1, "-1/3"):
        with pytest.raises(ValueError, match="outside"):
            triad(p)
    kept = CondProb(("V", True), ("W", True), HALF)
    assert TriadData(marginals, (kept,)).conditionals[0] is kept
    converted = triad("1/2")
    assert converted.conditionals == (kept,) and type(converted.conditionals[0].p) is Fraction
    assert check_kolmogorov(converted) == check_kolmogorov(TriadData(marginals, (kept,)))
    assert triad(1).conditionals[0].p == Fraction(1)


def test_triad_rejects_unknown_variable_names():
    halves = {"U": HALF, "V": HALF, "W": HALF}
    with pytest.raises(ValueError, match="marginal for unknown variable 'X'"):
        TriadData({**halves, "X": "1/3"}, ())
    for event, given in ((("X", True), ("W", True)), (("V", True), ("Y", False))):
        name = event[0] if event[0] != "V" else given[0]
        with pytest.raises(ValueError, match=f"conditional on unknown variable '{name}'"):
            TriadData(halves, (CondProb(event, given, HALF),))


def test_parse_event():
    assert parse_event("U") == ("U", True)
    assert parse_event("not V") == ("V", False)
    with pytest.raises(ValueError):
        parse_event("X")


def test_atom_label():
    assert atom_label(0b111) == "U & V & W"
    assert atom_label(0b011) == "not U & V & W"


def test_paper_triad_constraint_masses():
    cons = {c.label: c.rhs for c in joint_constraints(paper_triad())}
    assert cons["P(V | W) * P(W)"] == Fraction(39, 100)
    assert cons["P(U | W) * P(W)"] == Fraction(11, 100)
    assert cons["P(not U | V) * P(V)"] == Fraction(11, 100)
    assert cons["total mass"] == 1


def test_paper_triad_is_not_kolmogorovian():
    verdict = check_kolmogorov(paper_triad())
    assert not verdict.feasible
    assert verdict.witness is None
    cert = verdict.certificate
    assert cert.expression == "not U & V & W"
    assert cert.lower == Fraction(28, 100)
    assert cert.upper == Fraction(11, 100)
    assert cert.lower > cert.upper


def test_independence_triad_is_feasible_with_valid_witness():
    verdict = check_kolmogorov(independence_triad())
    assert verdict.feasible
    for con in joint_constraints(independence_triad()):
        assert sum(c * x for c, x in zip(con.coeffs, verdict.witness)) == con.rhs
    assert all(x >= 0 for x in verdict.witness)
    # The uniform joint is one witness of these constraints.
    for con in joint_constraints(independence_triad()):
        assert sum(c * Fraction(1, 8) for c in con.coeffs) == con.rhs


@pytest.mark.parametrize(
    "wrong, broken",
    [
        # The uniform joint shifted along one atom: total mass is off.
        ((Fraction(1, 4),) + (Fraction(1, 8),) * 7, "total mass"),
        # Mass moved from one atom to another keeps the total but not a marginal.
        ((Fraction(1, 4), Fraction(0)) + (Fraction(1, 8),) * 6, "marginal W"),
        # Every equality kept (the uniform joint plus a null vector of the
        # system), four atoms negative.
        (tuple(Fraction(1, 8) + Fraction(s, 4) for s in (-1, 1, 1, -1, 1, -1, -1, 1)), "not U & not V & not W >= 0"),
    ],
)
def test_wrong_witness_raises(monkeypatch, wrong, broken):
    # The witness check must hold under python -O, so it raises instead of
    # asserting; a wrong witness is never returned as feasible.
    # _back_substitute, the one function that makes witnesses, hands over
    # the wrong witness, as integers over one denominator, on a triad with
    # one free atom (the independence triad, a line) and on one with two
    # (without its last conditional), which Fourier-Motzkin eliminates first.
    two_conditionals = TriadData(independence_triad().marginals, independence_triad().conditionals[:2])
    for t, free in ((independence_triad(), 1), (two_conditionals, 2)):
        assert free_atoms(t) == free
        with monkeypatch.context() as patch:
            patch.setattr(embedding, "_back_substitute", lambda *args: canonical_row(wrong))
            with pytest.raises(RuntimeError, match=broken):
                check_kolmogorov(t)


# The U xor V xor W parity of each atom: orthogonal to every event mask on
# at most two variables, so adding it to a joint keeps every equality.
PARITY = tuple((-1) ** bin(i).count("1") for i in range(8))


def test_check_witness_names_the_broken_constraint():
    rnd = random.Random(41)
    for _ in range(20):
        t = triad_from_atoms(atoms_from_random_joint(rnd))
        equalities = _equalities(t)
        witness = check_kolmogorov(t).witness
        embedding._check_witness(t, equalities, *canonical_row(witness))
        # Mass moved between two atoms keeps the total but breaks the first
        # constraint, in joint_constraints order, that tells them apart.
        src, dst = rnd.sample(range(8), 2)
        shift = witness[src] or Fraction(1, 1000)
        moved = [x - shift if i == src else x + shift if i == dst else x for i, x in enumerate(witness)]
        broken = [c.label for c in joint_constraints(t) if sum(a * x for a, x in zip(c.coeffs, moved)) != c.rhs]
        assert broken and broken[0] != "total mass"
        with pytest.raises(RuntimeError, match=re.escape(f"the witness breaks {broken[0]}")):
            embedding._check_witness(t, equalities, *canonical_row(moved))
        # The parity vector pushes an atom below 0 and keeps every equality.
        low = min((i for i in range(8) if PARITY[i] < 0), key=lambda i: witness[i])
        step = witness[low] + Fraction(1, 1000)
        negative = tuple(x + step * s for x, s in zip(witness, PARITY))
        first = next(i for i, x in enumerate(negative) if x < 0)
        with pytest.raises(RuntimeError, match=re.escape(f"the witness breaks {atom_label(first)} >= 0")):
            embedding._check_witness(t, equalities, *canonical_row(negative))


def test_random_joint_round_trips_feasible():
    rnd = random.Random(2024)
    for _ in range(25):
        atoms = atoms_from_random_joint(rnd)
        t = triad_from_atoms(atoms)
        verdict = check_kolmogorov(t)
        assert verdict.feasible
        for con in joint_constraints(t):
            assert sum(c * x for c, x in zip(con.coeffs, verdict.witness)) == con.rhs


def test_rank_deficient_random_joints_are_feasible():
    # Fewer than three conditionals leave atoms free: elimination must fall
    # back to pairing inequalities once the equalities run out.
    rnd = random.Random(7)
    for case in range(30):
        atoms = atoms_from_random_joint(rnd)
        full = triad_from_atoms(atoms)
        t = TriadData(full.marginals, tuple(rnd.sample(full.conditionals, case % 3)))
        verdict = check_kolmogorov(t)
        assert verdict.feasible
        for con in joint_constraints(t):
            assert sum(c * x for c, x in zip(con.coeffs, verdict.witness)) == con.rhs
        assert all(x >= 0 for x in verdict.witness)


@pytest.mark.parametrize(
    "marg, conds",
    [
        # P(V | V) must be 1.
        ({"U": HALF, "V": HALF, "W": HALF}, [("V", "V", "39/100")]),
        # One conditional given twice with different values.
        ({"U": HALF, "V": HALF, "W": HALF}, [("V", "W", "1/2"), ("U", "W", "1/2"), ("V", "W", "3/5")]),
        # Near-empty V and parallel equalities: pairing all their rows blows up.
        (
            {"U": "19/25", "V": "1/100", "W": "77/100"},
            [
                ("not W", "V", "2/25"),
                ("V", "V", "39/100"),
                ("not V", "not W", "2/5"),
                ("not U", "not V", "3/5"),
                ("not W", "not U", "7/100"),
            ],
        ),
    ],
)
def test_inconsistent_inputs_are_infeasible_with_certificate(marg, conds):
    verdict = check_kolmogorov(triad(marg, conds))
    assert not verdict.feasible
    assert verdict.witness is None
    assert verdict.certificate.lower > verdict.certificate.upper


def canonical_row(values):
    """A row of Fractions as integer numerators over their lcm denominator."""
    den = math.lcm(*[v.denominator for v in values])
    return tuple(v.numerator * (den // v.denominator) for v in values), den


def half_family_triad(g):
    return TriadData(
        {"U": HALF, "V": HALF, "W": HALF},
        (
            CondProb(("V", True), ("W", True), g),
            CondProb(("U", True), ("W", True), 1 - g),
            CondProb(("U", False), ("V", True), 1 - g),
        ),
    )


def masks_of(t):
    return tuple(mask for mask, _, _ in _equalities(t))


def free_atoms(t):
    """How many atoms the plan of t's equality masks leaves free."""
    _, atoms, _ = _plan(masks_of(t))
    return len(atoms[0][1])


def test_equalities_are_the_conditional_masses_in_lowest_terms():
    # Each conditional P(event | given) = p is the mass p P(given) on
    # event & given, as a reduced numerator over a positive denominator.
    rnd = random.Random(31)
    triads = golden_triads()[:60] + [degenerate_triad(), paper_triad()]
    triads += [triad_from_atoms(atoms_from_random_joint(rnd)) for _ in range(30)]
    for t in triads:
        expected = [(_mask(), Fraction(1))] + [(_mask((n, True)), t.marginals[n]) for n in "UVW"]
        for c in t.conditionals:
            given = t.marginals[c.given[0]] if c.given[1] else 1 - t.marginals[c.given[0]]
            expected.append((_mask(c.event, c.given), c.p * given))
        found = _equalities(t)
        assert [(mask, Fraction(num, den)) for mask, num, den in found] == expected
        assert all(den > 0 and math.gcd(num, den) == 1 for _, num, den in found)


def test_a_check_builds_the_system_once(monkeypatch):
    # The plan is made once per tuple of equality masks, and the labelled
    # constraints are built only to name the one a broken witness violates.
    monkeypatch.setattr(embedding, "joint_constraints", lambda *args: pytest.fail("joint_constraints was built"))
    golden = golden_triads()
    cases = [(independence_triad(), True), (half_family_triad(Fraction(3, 5)), True), (paper_triad(), False)]
    cases += [(golden[1], True), (golden[0], False), (golden[5], False), (SHARED_ZERO_TRIAD, False)]
    for t, feasible in cases:
        check_kolmogorov(t)
        misses = _plan.cache_info().misses
        assert check_kolmogorov(t).feasible is feasible
        assert _plan.cache_info().misses == misses


def test_the_plan_cache_is_bounded():
    # More distinct mask tuples than the cache holds: it keeps at most
    # _PLAN_CACHE_SIZE plans, and a shape whose plan was evicted gets the
    # same verdict when its plan is made again.
    marginals = {"U": HALF, "V": Fraction(1, 3), "W": Fraction(2, 5)}
    pairs = [(event, given) for event in EVENTS for given in EVENTS]
    shapes = {}
    for three in itertools.product(pairs, repeat=3):
        t = TriadData(marginals, tuple(CondProb(e, g, Fraction(1, 4)) for e, g in three))
        shapes.setdefault(masks_of(t), t)
        if len(shapes) > _PLAN_CACHE_SIZE + 100:
            break
    triads = list(shapes.values())
    _plan.cache_clear()
    early = [check_kolmogorov(t) for t in triads[:100]]
    later = [check_kolmogorov(t) for t in triads]
    assert _plan.cache_info().currsize <= _PLAN_CACHE_SIZE
    assert later[:100] == early
    misses = _plan.cache_info().misses
    assert [check_kolmogorov(t) for t in triads[:100]] == early
    assert _plan.cache_info().misses > misses


STANDARD_PAIRS = ((("V", True), ("W", True)), (("U", True), ("W", True)), (("U", False), ("V", True)))
EVENTS = [(name, positive) for name in ("U", "V", "W") for positive in (True, False)]

# Three conditionals with rank-7 masks whose line has U & not V & W and
# U & not V & not W vanish together, moving in opposite directions
# (P(not V | U) = 0), as do the two not U & not W atoms (P(W | not U) = 1).
# The system is infeasible, and the line's own bounds cross: 7/20 > 11/240.
SHARED_ZERO_TRIAD = TriadData(
    {"U": HALF, "V": Fraction(17, 20), "W": Fraction(2, 3)},
    (
        CondProb(("W", True), ("V", True), Fraction(1, 4)),
        CondProb(("W", True), ("U", False), Fraction(1)),
        CondProb(("V", False), ("U", True), Fraction(0)),
    ),
)


def test_a_shared_zero_crossing_is_certified():
    assert free_atoms(SHARED_ZERO_TRIAD) == 1
    cert = check_kolmogorov(SHARED_ZERO_TRIAD).certificate
    assert cert.lower > cert.upper
    assert (cert.lower, cert.upper, cert.expression) == (Fraction(7, 20), Fraction(11, 240), "not U & V & W")


def test_which_shapes_are_a_line():
    halves = {"U": HALF, "V": HALF, "W": HALF}

    def masks(*pairs):
        return masks_of(TriadData(halves, tuple(CondProb(e, g, HALF) for e, g in pairs)))

    # The paper's shape: one free atom, the target, and every atom moves
    # along the parity direction, the target with coefficient 1 and the
    # rest with +-1, over D = 1.
    den, atoms, null = _plan(masks(*STANDARD_PAIRS))
    assert den == 1 and null == () and [q for _, q in atoms] == [(PARITY[i] * PARITY[_PAPER_TARGET],) for i in range(8)]
    # Any three conditionals on three distinct pairs of variables have rank 7.
    assert len(_plan(masks((("U", False), ("W", True)), (("V", True), ("U", True)), (("W", False), ("V", False))))[1][0][1]) == 1
    # Rank below 7: two conditionals on one intersection, or a conditional
    # on one variable (its mask is a marginal's or all 0), leaves two free
    # atoms and one null combination of the masks.
    for second in ((("W", True), ("V", True)), (("V", True), ("V", True)), (("V", False), ("V", True))):
        _, atoms, null = _plan(masks(STANDARD_PAIRS[0], second, STANDARD_PAIRS[2]))
        assert len(atoms[0][1]) == 2 and len(null) == 1
    # Every mask involves at most two variables, so the target is always
    # free, the last free atom: over the golden triads, at every rank.
    counts = {}
    for t in golden_triads():
        den, atoms, null = _plan(masks_of(t))
        k = len(atoms[0][1])
        assert atoms[_PAPER_TARGET] == ((), (0,) * (k - 1) + (den,))
        assert len(null) == len(t.conditionals) + 4 - (8 - k)
        counts[k] = counts.get(k, 0) + 1
    assert counts == {1: 23, 2: 56, 3: 66, 4: 55}
    # Survey triads and the bench's feasible-heavy families are all lines.
    rnd = random.Random(5)
    for family in ("random_joint", "half_family"):
        assert {free_atoms(_triad_families()[family](rnd)) for _ in range(50)} == {1}
    assert masks_of(classify_survey(_flagship_survey()).triad) == masks(*STANDARD_PAIRS)


def _flagship_survey():
    stats = [QuestionStats(label, 0.5, 0.15, 0.15) for label in ("w", "v", "u")]
    return build_survey_model(stats, [math.radians(a) for a in (0, 60, 120)], force_epsilon=math.sqrt(0.5))


def _grid_oracle_finds_feasible(t, steps=200):
    """Brute-force oracle: fix the not-U&V&W atom on a 1/steps grid, solve the
    remaining 7x7 exact linear system, and look for a nonnegative solution.

    The coefficient matrix does not depend on the grid value, so one
    Gauss-Jordan elimination of [A | b0 | -c] serves every grid point: the
    right-hand side at x_t is b0 - c x_t, and the row operations turn it into
    b0' + x_t c', exactly the rationals a separate elimination would give."""
    cons = joint_constraints(t)
    target = 0b011
    others = [i for i in range(8) if i != target]
    n = len(others)
    mat = [[con.coeffs[i] for i in others] + [con.rhs, -con.coeffs[target]] for con in cons]
    # Gaussian elimination over the rationals.
    pivots = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        pv = mat[r][col]
        mat[r] = [v / pv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    zero_rows = [row[n:] for row in mat if all(v == 0 for v in row[:n])]
    for k in range(steps + 1):
        x_t = Fraction(k, steps)
        if any(b0 + x_t * c != 0 for b0, c in zero_rows):
            continue  # inconsistent at this grid value
        if len(pivots) < n:
            continue  # underdetermined; the oracle only reports certain finds
        values = [Fraction(0)] * n
        for row_idx, col in enumerate(pivots):
            values[col] = mat[row_idx][n] + x_t * mat[row_idx][n + 1]
        if all(v >= 0 for v in values):
            return True
    return False


def test_checker_agrees_with_grid_oracle():
    rnd = random.Random(99)
    n_feasible = 0
    for case in range(100):
        if case % 2 == 0:
            t = triad_from_atoms(atoms_from_random_joint(rnd))
        else:
            t = triad(
                {"U": Fraction(rnd.randint(1, 99), 100), "V": Fraction(rnd.randint(1, 99), 100), "W": Fraction(rnd.randint(1, 99), 100)},
                [
                    ("V", "W", Fraction(rnd.randint(0, 100), 100)),
                    ("U", "W", Fraction(rnd.randint(0, 100), 100)),
                    ("not U", "V", Fraction(rnd.randint(0, 100), 100)),
                ],
            )
        verdict = check_kolmogorov(t)
        oracle_feasible = _grid_oracle_finds_feasible(t)
        if verdict.feasible:
            n_feasible += 1
            for con in joint_constraints(t):
                assert sum(c * x for c, x in zip(con.coeffs, verdict.witness)) == con.rhs
            assert all(x >= 0 for x in verdict.witness)
        else:
            cert = verdict.certificate
            assert cert.lower > cert.upper
            # Wherever the grid oracle exhibits a joint, the checker must agree.
            assert not oracle_feasible
        if oracle_feasible:
            assert verdict.feasible
    assert 10 < n_feasible < 90  # the case mix actually exercises both verdicts


def degenerate_value_triad(rnd):
    """Marginals in {1/4, 1/3, 1/2, 2/3} and 0-5 random conditionals with p
    in {0, 1/4, 1/3, 1/2, 2/3, 1}: atoms vanish together and bounds touch."""
    odd = (Fraction(0), Fraction(1, 4), Fraction(1, 3), HALF, Fraction(2, 3), Fraction(1))
    conds = tuple(CondProb(rnd.choice(EVENTS), rnd.choice(EVENTS), rnd.choice(odd)) for _ in range(rnd.randint(0, 5)))
    return TriadData({n: rnd.choice(odd[1:5]) for n in "UVW"}, conds)


def test_feasible_flag_agrees_with_linprog():
    # An oracle independent of the plan at every rank (the grid oracle skips
    # underdetermined systems): maximise s subject to the equalities and
    # x_i >= s with HiGHS.  A joint exists iff s* >= 0, and an infeasible LP
    # means the equalities alone contradict each other.  Cases with |s*|
    # within the LP's tolerance are skipped, and most cases are not.
    rnd = random.Random(27)
    triads = golden_triads() + [degenerate_value_triad(rnd) for _ in range(1000)]
    agreed = skipped = 0
    free = set()
    for t in triads:
        verdict = check_kolmogorov(t)
        if not verdict.feasible:
            assert verdict.certificate.lower > verdict.certificate.upper
        cons = joint_constraints(t)
        result = linprog(
            c=[0] * 8 + [-1],
            A_ub=[[-int(j == i) for j in range(8)] + [1] for i in range(8)],
            b_ub=[0] * 8,
            A_eq=[[float(a) for a in con.coeffs] + [0] for con in cons],
            b_eq=[float(con.rhs) for con in cons],
            bounds=[(None, None)] * 9,
            method="highs",
        )
        if result.status == 2:
            assert not verdict.feasible
        else:
            assert result.status == 0
            if abs(result.fun) <= 1e-9:
                skipped += 1
                continue
            assert verdict.feasible == (-result.fun > 0)
        agreed += 1
        free.add(free_atoms(t))
    assert agreed > 10 * skipped and free == {1, 2, 3, 4}


def test_hilbert_flagship_value():
    verdict = check_hilbert2d(Fraction("0.78"))
    assert not verdict.feasible
    assert verdict.required_cosine == Fraction(-14, 11)
    assert round(float(verdict.required_cosine), 2) == -1.27
    assert verdict.delta2 == Fraction(11, 50)


def test_hilbert_symmetric_and_boundary():
    assert check_hilbert2d(HALF).required_cosine == 0
    boundary = check_hilbert2d(Fraction(3, 4))
    assert boundary.feasible and boundary.required_cosine == -1
    assert not check_hilbert2d(Fraction(3, 4) + Fraction(1, 1000)).feasible
    assert check_hilbert2d(Fraction(3, 4) - Fraction(1, 1000)).feasible


@given(st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(999, 1000)))
def test_hilbert_simplified_form_and_threshold(g):
    verdict = check_hilbert2d(g)
    assert verdict.required_cosine == (1 - 2 * g) / (2 * (1 - g))
    assert verdict.feasible == (g <= Fraction(3, 4))


def test_hilbert_degenerate_inputs():
    # gamma^2 = 0: neighbours orthogonal, so the skew pair coincides.
    assert check_hilbert2d(Fraction(0)) == embedding.HilbertVerdict(True, Fraction(0), Fraction(1), HALF)
    # gamma^2 = 1: neighbours coincide, yet the skew pair must be orthogonal.
    assert check_hilbert2d(Fraction(1)) == embedding.HilbertVerdict(False, Fraction(1), Fraction(0), None)
    for g in (Fraction(-1, 10), Fraction(11, 10)):
        with pytest.raises(ValueError):
            check_hilbert2d(g)


def test_classify_paper_triad():
    assert classify(paper_triad(), Fraction("0.78")) is ModelClass.NEITHER


def test_classify_independence():
    assert classify(independence_triad(), HALF) is ModelClass.BOTH


def test_classify_quantum_triad():
    # Maximal-band conditionals for axes at mutual 120 degrees: 1/4 adjacent.
    quarter = Fraction(1, 4)
    t = triad(
        {"U": HALF, "V": HALF, "W": HALF},
        [("V", "W", quarter), ("U", "W", quarter), ("not U", "V", Fraction(3, 4))],
    )
    assert not check_kolmogorov(t).feasible
    assert classify(t, quarter) is ModelClass.HILBERTIAN_2D
