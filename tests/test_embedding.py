import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from test_checker_golden import degenerate_triad, golden_triads

from qmachine import embedding
from qmachine.embedding import (
    _PAPER_TARGET,
    CondProb,
    ModelClass,
    TriadData,
    _elimination_verdict,
    _equality_masks,
    _line_plan,
    _line_verdict,
    _mask,
    _project_to_atom,
    _system_rows,
    atom_label,
    check_hilbert2d,
    check_kolmogorov,
    classify,
    joint_constraints,
    paper_triad,
    parse_event,
    to_fraction,
)

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
    # asserting; a wrong witness is never returned as feasible.  Each path
    # gets the wrong witness in turn: the independence triad is a line, and
    # without its last conditional it goes to elimination.
    two_conditionals = TriadData(independence_triad().marginals, independence_triad().conditionals[:2])
    for witness_of, t in (("_line_point", independence_triad()), ("_back_substitute", two_conditionals)):
        with monkeypatch.context() as patch:
            patch.setattr(embedding, witness_of, lambda *args: wrong)
            with pytest.raises(RuntimeError, match=broken):
                check_kolmogorov(t)


# The U xor V xor W parity of each atom: orthogonal to every event mask on
# at most two variables, so adding it to a joint keeps every equality.
PARITY = tuple((-1) ** bin(i).count("1") for i in range(8))


def test_check_witness_names_the_broken_constraint():
    rnd = random.Random(41)
    for _ in range(20):
        t = triad_from_atoms(atoms_from_random_joint(rnd))
        rows = _system_rows(t)
        witness = check_kolmogorov(t).witness
        embedding._check_witness(t, rows, witness)
        # Mass moved between two atoms keeps the total but breaks the first
        # constraint, in joint_constraints order, that tells them apart.
        src, dst = rnd.sample(range(8), 2)
        shift = witness[src] or Fraction(1, 1000)
        moved = [x - shift if i == src else x + shift if i == dst else x for i, x in enumerate(witness)]
        broken = [c.label for c in joint_constraints(t) if sum(a * x for a, x in zip(c.coeffs, moved)) != c.rhs]
        assert broken and broken[0] != "total mass"
        with pytest.raises(RuntimeError, match=re.escape(f"the witness breaks {broken[0]}")):
            embedding._check_witness(t, rows, tuple(moved))
        # The parity vector pushes an atom below 0 and keeps every equality.
        low = min((i for i in range(8) if PARITY[i] < 0), key=lambda i: witness[i])
        step = witness[low] + Fraction(1, 1000)
        negative = tuple(x + step * s for x, s in zip(witness, PARITY))
        first = next(i for i, x in enumerate(negative) if x < 0)
        with pytest.raises(RuntimeError, match=re.escape(f"the witness breaks {atom_label(first)} >= 0")):
            embedding._check_witness(t, rows, negative)


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


def test_elimination_rows_are_canonical():
    # Equal rational rows must be equal tuples, or equality pairs go unfound
    # and certificates change: every row the elimination keeps is reduced
    # over a positive denominator.
    rnd = random.Random(11)
    names = ["U", "V", "W", "not U", "not V", "not W"]
    for _ in range(60):
        marg = {n: Fraction(rnd.randint(1, 99), 100) for n in "UVW"}
        conds = [(rnd.choice(names), rnd.choice(names), Fraction(rnd.randint(0, 100), 100)) for _ in range(rnd.randint(0, 5))]
        _, _, _, stack = _project_to_atom(_system_rows(triad(marg, conds)), _PAPER_TARGET)
        for _, rows in stack:
            for nums, den in rows:
                assert den > 0 and math.gcd(*nums, den) == 1
            # A step that substituted an equality keeps exactly that row and
            # its negation; a paired step keeps no row with its negation.
            negations = [(tuple(-n for n in nums), den) for nums, den in rows]
            assert not set(negations) & set(rows) or (len(rows) == 2 and negations[0] == rows[1])


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


def test_system_rows_match_joint_constraints():
    # The rows the checker builds straight from the triad are the canonical
    # rows of joint_constraints, in its order: each equality, then its
    # negation, then the eight rows -x_i <= 0.
    rnd = random.Random(31)
    triads = golden_triads()[:60]
    triads += [triad_from_atoms(atoms_from_random_joint(rnd)) for _ in range(30)]
    triads += [half_family_triad(Fraction(rnd.randint(1, 9999), 10_000)) for _ in range(30)]
    triads += [half_family_triad(Fraction(2, 3)), paper_triad()]
    for t in triads:
        expected = []
        for con in joint_constraints(t):
            values = (*con.coeffs, con.rhs)
            expected += [canonical_row(values), canonical_row([-v for v in values])]
        for i in range(8):
            expected.append(canonical_row([Fraction(-1 if j == i else 0) for j in range(9)]))
        assert _system_rows(t) == expected


def test_a_check_builds_the_system_once(monkeypatch):
    # The line, elimination and the witness check read one set of rows; the
    # labelled constraints are built only to name the one a broken witness
    # violates.
    calls = []
    for name in ("_system_rows", "joint_constraints", "_project_to_atom"):
        build = getattr(embedding, name)
        monkeypatch.setattr(embedding, name, lambda *args, build=build, name=name: calls.append(name) or build(*args))
    line = [(independence_triad(), True), (half_family_triad(Fraction(3, 5)), True), (paper_triad(), False)]
    golden = golden_triads()
    elimination = [(golden[1], True), (golden[0], False), (golden[5], False)]  # golden[5]: a constant-row certificate
    crossing = [(SHARED_ZERO_TRIAD, False)]  # read off the line, then certified by elimination
    for cases, path in ((line, []), (elimination, ["_project_to_atom"]), (crossing, ["_project_to_atom"])):
        for t, feasible in cases:
            calls.clear()
            assert check_kolmogorov(t).feasible is feasible
            assert calls == ["_system_rows"] + path


STANDARD_PAIRS = ((("V", True), ("W", True)), (("U", True), ("W", True)), (("U", False), ("V", True)))
EVENTS = [(name, positive) for name in ("U", "V", "W") for positive in (True, False)]

# Three conditionals with rank-7 masks whose line has U & not V & W and
# U & not V & not W vanish together, moving in opposite directions
# (P(not V | U) = 0), as do the two not U & not W atoms (P(W | not U) = 1).
# The system is infeasible; the line's own bounds are 7/20 > 11/240, while
# elimination takes two of those rows for an equality and certifies
# 7/20 > 17/80.
SHARED_ZERO_TRIAD = TriadData(
    {"U": HALF, "V": Fraction(17, 20), "W": Fraction(2, 3)},
    (
        CondProb(("W", True), ("V", True), Fraction(1, 4)),
        CondProb(("W", True), ("U", False), Fraction(1)),
        CondProb(("V", False), ("U", True), Fraction(0)),
    ),
)


def standard_triad(marginals, ps):
    return TriadData(dict(zip("UVW", marginals)), tuple(CondProb(e, g, p) for (e, g), p in zip(STANDARD_PAIRS, ps)))


def test_line_matches_elimination():
    # The line's verdict, witness and certificate are elimination's, byte for
    # byte: on random joints and the half family (feasible and not), on
    # degenerate standard triads (marginals and p in {0, 1/2, 1} and a few
    # thirds and quarters), and on random three-conditional shapes with
    # degenerate values, where atoms vanish together and some crossings go
    # to elimination.
    rnd = random.Random(24)
    triads = [triad_from_atoms(atoms_from_random_joint(rnd)) for _ in range(60)]
    triads += [half_family_triad(Fraction(rnd.randint(1, 999), 1000)) for _ in range(60)]
    triads += [half_family_triad(Fraction(2, 3)), half_family_triad(Fraction(1)), half_family_triad(Fraction(0))]
    values = (Fraction(0), HALF, Fraction(1))
    triads += [standard_triad(v[:3], v[3:]) for v in itertools.product(values, repeat=6)]
    odd = (Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(2, 3), Fraction(1))
    triads += [standard_triad([rnd.choice(odd) for _ in "UVW"], [rnd.choice(odd) for _ in "abc"]) for _ in range(200)]
    for _ in range(600):
        pairs = [(rnd.choice(EVENTS), rnd.choice(EVENTS)) for _ in range(3)]
        triads.append(
            TriadData({n: rnd.choice(odd[1:4]) for n in "UVW"}, tuple(CondProb(e, g, rnd.choice(odd)) for e, g in pairs))
        )
    triads.append(SHARED_ZERO_TRIAD)
    read = {"line": 0, "crossing": 0}
    for t in triads:
        rows = _system_rows(t)
        plan = _line_plan(_equality_masks(t))
        if plan is None:
            continue
        verdict = _line_verdict(plan, rows)
        elimination = _elimination_verdict(rows)
        read["line" if verdict is not None else "crossing"] += 1
        if verdict is None:
            assert not elimination.feasible
        else:
            assert repr(verdict) == repr(elimination)
        assert repr(check_kolmogorov(t)) == repr(elimination)
    assert read["line"] > 400 and read["crossing"] > 400


def test_a_shared_zero_crossing_is_certified_by_elimination():
    rows = _system_rows(SHARED_ZERO_TRIAD)
    assert _line_verdict(_line_plan(_equality_masks(SHARED_ZERO_TRIAD)), rows) is None
    cert = check_kolmogorov(SHARED_ZERO_TRIAD).certificate
    assert (cert.lower, cert.upper, cert.expression) == (Fraction(7, 20), Fraction(17, 80), "not U & V & W")


def test_which_shapes_are_a_line(monkeypatch):
    halves = {"U": HALF, "V": HALF, "W": HALF}

    def masks(*pairs):
        return _equality_masks(TriadData(halves, tuple(CondProb(e, g, HALF) for e, g in pairs)))

    # The paper's shape: every atom moves along the parity direction, the
    # target with coefficient 1 and the rest with +-1, over D = 1.
    den, atoms = _line_plan(masks(*STANDARD_PAIRS))
    assert den == 1 and [q for _, q in atoms] == [PARITY[i] * PARITY[_PAPER_TARGET] for i in range(8)]
    # Any three conditionals on three distinct pairs of variables have rank 7.
    assert _line_plan(masks((("U", False), ("W", True)), (("V", True), ("U", True)), (("W", False), ("V", False))))
    # Rank below 7: two conditionals on one intersection, or a conditional
    # on one variable (its mask is a marginal's or all 0).
    assert _line_plan(masks(STANDARD_PAIRS[0], (("W", True), ("V", True)), STANDARD_PAIRS[2])) is None
    assert _line_plan(masks(STANDARD_PAIRS[0], (("V", True), ("V", True)), STANDARD_PAIRS[2])) is None
    assert _line_plan(masks(STANDARD_PAIRS[0], (("V", False), ("V", True)), STANDARD_PAIRS[2])) is None
    # No triad mask pins the target or stops an atom, but the plan checks
    # both: a mask of the target alone pins it, and one of atom 0 alone
    # (beside total mass, the marginals, V & W and U & W) leaves every
    # atom with W false fixed.
    six = masks(*STANDARD_PAIRS)[:6]
    assert _line_plan(six + (_mask(("U", False), ("V", True), ("W", True)),)) is None
    assert _line_plan(six + (_mask(("U", False), ("V", False), ("W", False)),)) is None
    # The checker reads the line for 5 of the 201 golden triads, each with
    # three conditionals; the rest go to elimination alone.
    read = []
    line_verdict = embedding._line_verdict
    monkeypatch.setattr(embedding, "_line_verdict", lambda plan, rows: read.append(plan) or line_verdict(plan, rows))
    golden = golden_triads() + [degenerate_triad()]
    for t in golden:
        check_kolmogorov(t)
    assert len(read) == 5 and sum(len(t.conditionals) == 3 for t in golden) > 5


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
