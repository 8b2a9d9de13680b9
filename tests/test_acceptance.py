"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime (pytest -s shows them).  Expected values come from independent
oracles: closed-form identities, brute-force integration of the trial
kernel, seeded Monte Carlo frequencies, and exact rational arithmetic.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from qmachine.conditional import (
    Validity,
    conditional_closed_form,
    conditional_mc,
    conditional_quad,
    symmetric_query,
)
from qmachine.embedding import ModelClass, check_hilbert2d, check_kolmogorov, paper_triad
from qmachine.geometry import Z_AXIS, sample_uniform_sphere, SectorCap, unit_vector_at_angle
from qmachine.machine import EpsilonExperiment, Outcome, estimate_probability_mc, p1_given_projection
from qmachine.measures import CapUniform, Mixture, Uniform, outcome_law, sandwich_check
from qmachine.spin import spin_operator, spin_state, transition_probability
from qmachine.survey import QuestionStats, build_survey_model, classify_survey, fit_epsilon_model, region_census

SQ2 = math.sqrt(2) / 2


class Timer:
    def __init__(self, number, name, budget=None):
        self.number, self.name, self.budget = number, name, budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is not None:
            print(f"ACCEPTANCE {self.number:02d} {self.name}: FAIL ({elapsed:.2f}s)")
            return False
        budget_note = f", budget {self.budget:.0f}s" if self.budget else ""
        print(f"ACCEPTANCE {self.number:02d} {self.name}: PASS ({elapsed:.2f}s{budget_note})")
        if self.budget is not None:
            assert elapsed <= self.budget, f"runtime {elapsed:.2f}s exceeds {self.budget}s"
        return False


def test_01_quantum_machine_law():
    with Timer(1, "quantum-machine-law", budget=5.0):
        e = EpsilonExperiment(Z_AXIS, 1.0, 0.0)
        for k in range(181):
            theta = math.pi * k / 180
            p1 = p1_given_projection(e, unit_vector_at_angle(Z_AXIS, theta).z)
            assert abs(p1 - math.cos(theta / 2) ** 2) <= 1e-12
        for theta, seed in ((math.pi / 3, 101), (math.pi / 2, 102), (2.1, 103)):
            p = math.cos(theta / 2) ** 2
            est, err = estimate_probability_mc(e, unit_vector_at_angle(Z_AXIS, theta), 1_000_000, seed)
            assert abs(est - p) <= 4 * math.sqrt(p * (1 - p) / 1_000_000)
            assert err > 0


def test_02_band_law_against_monte_carlo():
    with Timer(2, "band-law-vs-mc", budget=20.0):
        rng = np.random.default_rng(20240811)
        for i in range(100):
            epsilon = rng.uniform(0.02, 1.0)
            d = rng.uniform(-1 + epsilon, 1 - epsilon)
            x = rng.uniform(d - epsilon, d + epsilon)
            e = EpsilonExperiment(Z_AXIS, epsilon, d)
            p = (x - d + epsilon) / (2 * epsilon)
            assert p1_given_projection(e, x) == pytest.approx(p, abs=1e-15)
            est, _ = estimate_probability_mc(e, unit_vector_at_angle(Z_AXIS, math.acos(x)), 100_000, seed=500 + i)
            sigma = math.sqrt(p * (1 - p) / 100_000)
            assert abs(est - p) <= 4 * sigma + 1e-12


def test_03_sandwich_theorem():
    with Timer(3, "sandwich-theorem"):
        r = sandwich_check(EpsilonExperiment(Z_AXIS, 1.0, 0.0), Outcome.O1, Uniform())
        assert (r.lower, r.mid, r.upper) == (0.0, 0.5, 1.0) and r.holds
        for d in (-0.6, 0.0, 0.35):
            r = sandwich_check(EpsilonExperiment(Z_AXIS, 0.0, d), Outcome.O1, Uniform())
            assert r.holds
            assert abs(r.lower - (1 - d) / 2) <= 1e-9
            assert abs(r.lower - r.mid) <= 1e-9 and abs(r.mid - r.upper) <= 1e-9
        rng = np.random.default_rng(33)
        for _ in range(200):
            epsilon = rng.uniform(0.0, 1.0)
            d = rng.uniform(-1 + epsilon, 1 - epsilon)
            e = EpsilonExperiment(sample_uniform_sphere(rng), epsilon, d)
            kind = rng.integers(0, 3)
            if kind == 0:
                mu = Uniform()
            elif kind == 1:
                mu = CapUniform(SectorCap(sample_uniform_sphere(rng), rng.uniform(0.15, math.pi)))
            else:
                w = rng.uniform(0.1, 0.9)
                mu = Mixture(
                    (
                        (w, CapUniform(SectorCap(sample_uniform_sphere(rng), rng.uniform(0.15, math.pi)))),
                        (1 - w, Uniform()),
                    )
                )
            a = Outcome.O1 if rng.integers(0, 2) else Outcome.O2
            assert sandwich_check(e, a, mu).holds


def test_04_epsilon_independence_of_uniform_probability():
    with Timer(4, "epsilon-independence"):
        for epsilon in np.linspace(0.0, 1.0, 21):
            for frac in np.linspace(-1.0, 1.0, 21):
                d = frac * (1 - epsilon)
                e = EpsilonExperiment(Z_AXIS, float(epsilon), float(d))
                # Independent oracle: integrate the trial kernel against the
                # uniform projection density (hat-box) exactly.  The kernel is
                # a clamped ramp, linear between -1, the band edges and 1, so
                # the midpoint rule on those pieces is exact (and never
                # evaluates the epsilon = 0 tie at d).
                cuts = sorted({-1.0, 1.0} | {b for b in (e.band_low, e.band_high) if -1 < b < 1})
                oracle = 0.5 * sum((b - a) * p1_given_projection(e, 0.5 * (a + b)) for a, b in zip(cuts, cuts[1:]))
                assert abs(oracle - (1 - d) / 2) <= 1e-8
                assert abs(outcome_law(e, Outcome.O1, Uniform())[0] - oracle) <= 1e-8
        for epsilon, d, seed in ((0.25, 0.3, 41), (0.75, -0.1, 42), (1.0, 0.0, 43)):
            e = EpsilonExperiment(Z_AXIS, epsilon, d)
            rng = np.random.default_rng(seed)
            states = rng.uniform(-1.0, 1.0, 200_000)  # hat-box projections
            hits = 0
            breaks = rng.uniform(e.band_low, e.band_high, 200_000)
            hits = int(np.count_nonzero(breaks < states))
            p = (1 - d) / 2
            assert abs(hits / 200_000 - p) <= 4 * math.sqrt(p * (1 - p) / 200_000)


def test_05_conditional_limits():
    with Timer(5, "conditional-limits", budget=30.0):
        for k in range(91):
            alpha = math.pi * k / 90
            quantum = conditional_quad(symmetric_query(1.0, alpha)).value
            assert abs(quantum - math.cos(alpha / 2) ** 2) <= 1e-6
            classical = conditional_quad(symmetric_query(1e-6, alpha)).value
            assert abs(classical - (1 - alpha / math.pi)) <= 1e-3


def test_06_intermediate_flagship_values():
    with Timer(6, "intermediate-flagship", budget=5.0):
        near = conditional_quad(symmetric_query(SQ2, math.pi / 3)).value
        far = conditional_quad(symmetric_query(SQ2, 2 * math.pi / 3)).value
        assert abs(near - 0.78) <= 0.01
        assert abs(far - 0.22) <= 0.01
        print(
            "  geometry note: axes are spaced pi/3 apart (0/60/120 degrees); "
            "that spacing reproduces 0.78 at the adjacent pair and 0.22 at the far pair "
            f"(quad: {near:.4f} / {far:.4f})"
        )


def test_07_kolmogorov_impossibility():
    with Timer(7, "kolmogorov-impossibility", budget=1.0):
        verdict = check_kolmogorov(paper_triad())
        assert not verdict.feasible
        assert verdict.certificate.lower == Fraction(28, 100)
        assert verdict.certificate.upper == Fraction(11, 100)
        assert verdict.certificate.expression == "not U & V & W"


def test_08_hilbert_impossibility():
    with Timer(8, "hilbert-impossibility", budget=1.0):
        verdict = check_hilbert2d(Fraction("0.78"))
        assert not verdict.feasible
        assert verdict.required_cosine == Fraction(-14, 11)
        assert round(float(verdict.required_cosine), 2) == -1.27
        assert check_hilbert2d(Fraction(3, 4)).feasible
        assert check_hilbert2d(Fraction(3, 4)).required_cosine == -1
        assert not check_hilbert2d(Fraction(3, 4) + Fraction(1, 10_000)).feasible
        assert check_hilbert2d(Fraction(3, 4) - Fraction(1, 10_000)).feasible


def test_09_spin_crosscheck():
    with Timer(9, "spin-crosscheck"):
        rng = np.random.default_rng(55)
        for _ in range(500):
            u = sample_uniform_sphere(rng)
            v = sample_uniform_sphere(rng)
            machine = p1_given_projection(EpsilonExperiment(u, 1.0, 0.0), v.dot(u))
            assert abs(transition_probability(u, v) - machine) <= 1e-12
        for _ in range(100):
            u = sample_uniform_sphere(rng)
            h = spin_operator(u)
            psi = spin_state(u)
            hu, hd = h.apply(psi)
            assert abs(hu - 0.5 * psi.up) <= 1e-12 and abs(hd - 0.5 * psi.down) <= 1e-12


def test_10_survey_pipeline():
    with Timer(10, "survey-pipeline", budget=10.0):
        epsilon, d, _ = fit_epsilon_model(QuestionStats("q", 0.5, 0.15, 0.15))
        assert abs(epsilon - 0.70) <= 1e-12 and d == 0.0
        stats = [QuestionStats(label, 0.5, 0.15, 0.15) for label in ("w", "v", "u")]
        angles = [math.radians(a) for a in (0, 60, 120)]
        forced = build_survey_model(stats, angles, force_epsilon=SQ2)
        assert classify_survey(forced).model_class is ModelClass.NEITHER
        census = region_census(forced, 1_000_000, seed=77)
        assert abs(sum(census.fractions.values()) - 1.0) <= 1e-12
        assert len(census.fractions) == 13
        all_pre = [QuestionStats(label, 0.5, 0.5, 0.5) for label in ("w", "v", "u")]
        narrow = build_survey_model(all_pre, [math.radians(a) for a in (0, 30, 60)])
        assert classify_survey(narrow).model_class is ModelClass.KOLMOGOROVIAN


def test_11_oracle_triangulation():
    with Timer(11, "oracle-triangulation"):
        rng = np.random.default_rng(314159)
        for i in range(30):
            epsilon = float(rng.uniform(0.05, 1.0))
            alpha = float(rng.uniform(0.05, math.pi - 0.05))
            q = symmetric_query(epsilon, alpha)
            quad = conditional_quad(q)
            mc = conditional_mc(q, 100_000, seed=[777, i])
            assert abs(mc.value - quad.value) <= 4 * max(mc.error_bound, 1e-9)
            closed = conditional_closed_form(epsilon, alpha)
            assert closed.validity is Validity.VALID
            assert abs(closed.value - quad.value) <= 1e-4
            assert abs(closed.value - mc.value) <= 4 * max(mc.error_bound, 1e-9) + 1e-4
