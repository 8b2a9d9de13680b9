import math
import random

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from qmachine.geometry import (
    SectorCap,
    UnitVector,
    Z_AXIS,
    angle_between,
    cap_area_fraction,
    cap_intersection_fraction,
    cap_lens,
    sample_uniform_cap_array,
    sample_uniform_sphere,
    sample_uniform_sphere_array,
    sector_angles,
    unit_vector_at_angle,
)
from qmachine.machine import EpsilonExperiment, Outcome
from qmachine.measures import eig_set


def test_unit_vector_rejects_non_unit():
    with pytest.raises(ValueError):
        UnitVector(1.0, 1.0, 0.0)


@pytest.mark.parametrize("coords", [(math.nan, 0.0, math.nan), (0.0, 0.0, math.nan), (math.inf, 0.0, 0.0)])
def test_unit_vector_rejects_non_finite(coords):
    # A NaN norm compares false with every bound, so the check must fail closed.
    with pytest.raises(ValueError):
        UnitVector(*coords)


def test_normalized_and_negation():
    v = UnitVector.normalized(3.0, 4.0, 0.0)
    assert v.x == pytest.approx(0.6) and v.y == pytest.approx(0.8)
    n = -v
    assert (n.x, n.y, n.z) == (-v.x, -v.y, -v.z)


@pytest.mark.parametrize(
    "a, b, expected",
    [
        (Z_AXIS, Z_AXIS, 0.0),
        (Z_AXIS, -Z_AXIS, math.pi),
        (UnitVector(1, 0, 0), UnitVector(0, 1, 0), math.pi / 2),
    ],
)
def test_angle_between(a, b, expected):
    assert angle_between(a, b) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("gamma", [1e-8, 1e-6, math.pi - 1e-7])
def test_angle_between_is_accurate_near_0_and_pi(gamma):
    # arccos of the dot product returns 0.0 at 1e-8.
    assert angle_between(Z_AXIS, unit_vector_at_angle(Z_AXIS, gamma)) == pytest.approx(gamma, rel=1e-12)


def test_unit_vector_at_angle_realizes_the_angle():
    rng = np.random.default_rng(1)
    for _ in range(50):
        axis = sample_uniform_sphere(rng)
        polar = rng.uniform(0.0, math.pi)
        v = unit_vector_at_angle(axis, polar, rng.uniform(0.0, 2 * math.pi))
        assert angle_between(axis, v) == pytest.approx(polar, abs=1e-9)


@pytest.mark.parametrize(
    "epsilon, d, expected",
    [
        (1.0, 0.0, (0.0, 0.0)),
        (0.0, 0.0, (math.pi / 2, math.pi / 2)),
        (math.sqrt(2) / 2, 0.0, (math.pi / 4, math.pi / 4)),
    ],
)
def test_sector_angles_values(epsilon, d, expected):
    up, down = sector_angles(epsilon, d)
    assert up == pytest.approx(expected[0], abs=1e-12)
    assert down == pytest.approx(expected[1], abs=1e-12)


@pytest.mark.parametrize("epsilon, d", [(-0.1, 0.0), (1.1, 0.0), (0.5, 0.6), (0.5, -0.6)])
def test_sector_angles_domain(epsilon, d):
    with pytest.raises(ValueError):
        sector_angles(epsilon, d)


@st.composite
def epsilon_d(draw):
    epsilon = draw(st.floats(0.0, 1.0, allow_nan=False))
    d = draw(st.floats(-1.0 + epsilon, 1.0 - epsilon, allow_nan=False))
    return epsilon, d


@given(epsilon_d())
def test_sector_angle_mirror_symmetry(params):
    # Swapping the sign of d swaps the two cap angles exactly.
    epsilon, d = params
    up, down = sector_angles(epsilon, d)
    up_m, down_m = sector_angles(epsilon, -d)
    assert up_m == down and down_m == up


def test_cap_area_fraction_values():
    assert cap_area_fraction(0.0) == 0.0
    assert cap_area_fraction(math.pi) == pytest.approx(1.0, abs=1e-15)
    assert cap_area_fraction(math.pi / 4) == pytest.approx((1 - math.sqrt(2) / 2) / 2, abs=1e-15)


@given(st.floats(0.0, math.pi), st.floats(0.0, math.pi))
def test_cap_area_fraction_monotone(a, b):
    lo, hi = sorted((a, b))
    assert cap_area_fraction(lo) <= cap_area_fraction(hi) + 1e-15


@given(st.floats(0.0, math.pi))
def test_cap_area_complement(half_angle):
    # A cap and the complementary cap of the antipode tile the sphere.
    assert cap_area_fraction(half_angle) + cap_area_fraction(math.pi - half_angle) == pytest.approx(1.0, abs=1e-12)


def test_sphere_sampler_deterministic():
    a = [sample_uniform_sphere(np.random.default_rng(42)) for _ in range(5)]
    b = [sample_uniform_sphere(np.random.default_rng(42)) for _ in range(5)]
    assert a == b


def test_sphere_sampler_hat_box_mean():
    rng = np.random.default_rng(5)
    n = 100_000
    pts = sample_uniform_sphere_array(rng, n)
    u = np.array([0.3, -0.5, math.sqrt(1 - 0.09 - 0.25)])
    proj = pts @ u
    assert abs(proj.mean()) <= 4.0 / math.sqrt(3 * n)


def test_sphere_sampler_projection_uniform():
    # Projection on any axis should be uniform on [-1, 1] (hat-box).
    rng = np.random.default_rng(6)
    proj = sample_uniform_sphere_array(rng, 100_000) @ np.array([0.0, 0.0, 1.0])
    result = stats.kstest(proj, stats.uniform(loc=-1.0, scale=2.0).cdf)
    assert result.pvalue > 0.01


def test_sphere_sampler_cap_frequency():
    rng = np.random.default_rng(7)
    n = 1_000_000
    pts = sample_uniform_sphere_array(rng, n)
    p = cap_area_fraction(math.pi / 4)
    freq = np.count_nonzero(pts @ np.array([0.0, 0.0, 1.0]) > math.cos(math.pi / 4)) / n
    assert abs(freq - p) <= 4 * math.sqrt(p * (1 - p) / n)


def test_cap_sampler_members_and_mean():
    rng = np.random.default_rng(8)
    cap = SectorCap(Z_AXIS, math.pi / 4)
    n = 100_000
    pts = sample_uniform_cap_array(rng, cap, n)
    proj = pts @ np.array([0.0, 0.0, 1.0])
    assert (proj >= math.cos(math.pi / 4) - 1e-12).all()
    # E[cos theta] over the cap = (1 + cos rho) / 2.
    expected = (1 + math.cos(math.pi / 4)) / 2
    sigma = proj.std() / math.sqrt(n)
    assert abs(proj.mean() - expected) <= 4 * sigma


def test_cap_sampler_full_sphere_matches_sphere_stats():
    rng = np.random.default_rng(9)
    cap = SectorCap(Z_AXIS, math.pi)
    pts = sample_uniform_cap_array(rng, cap, 50_000)
    proj = pts @ np.array([0.0, 0.0, 1.0])
    assert abs(proj.mean()) < 4.0 / math.sqrt(3 * 50_000)
    assert stats.kstest(proj, stats.uniform(loc=-1.0, scale=2.0).cdf).pvalue > 0.01


def test_cap_sampler_rejects_zero_radius():
    with pytest.raises(ValueError):
        sample_uniform_cap_array(np.random.default_rng(0), SectorCap(Z_AXIS, 0.0), 10)


def test_boundary_flag_is_data_only():
    # The open/closed flag is carried as data; area and overlap are the
    # same either way (the boundary circle has measure zero).
    inside = SectorCap(unit_vector_at_angle(Z_AXIS, 0.49), 0.5)
    across = SectorCap(unit_vector_at_angle(Z_AXIS, 0.51), 0.5)
    closed, open_ = SectorCap(Z_AXIS, 1.0), SectorCap(Z_AXIS, 1.0, closed=False)
    assert closed.area_fraction == open_.area_fraction
    for other in (inside, across):
        assert cap_intersection_fraction(closed, other) == cap_intersection_fraction(open_, other)


def test_cap_intersection_nested_disjoint_identical():
    a = SectorCap(Z_AXIS, 0.3)
    big = SectorCap(Z_AXIS, 1.0)
    assert cap_intersection_fraction(a, big) == pytest.approx(cap_area_fraction(0.3), abs=1e-12)
    far = SectorCap(-Z_AXIS, 0.3)
    assert cap_intersection_fraction(a, far) == 0.0
    assert cap_intersection_fraction(big, big) == pytest.approx(cap_area_fraction(1.0), abs=1e-12)


def test_cap_intersection_antipodal_overlap():
    # Large cap and a large cap around the antipode overlap in a ring.
    a = SectorCap(Z_AXIS, 3 * math.pi / 4)
    b = SectorCap(-Z_AXIS, 3 * math.pi / 4)
    expected = cap_area_fraction(3 * math.pi / 4) - cap_area_fraction(math.pi / 4)
    assert cap_intersection_fraction(a, b) == pytest.approx(expected, abs=1e-9)


def test_cap_intersection_against_monte_carlo():
    rng = np.random.default_rng(10)
    a = SectorCap(Z_AXIS, 0.9)
    b = SectorCap(unit_vector_at_angle(Z_AXIS, 1.1), 0.7)
    exact = cap_intersection_fraction(a, b)
    n = 200_000
    pts = sample_uniform_sphere_array(rng, n)
    inside = (pts @ a.center.as_array() >= math.cos(a.half_angle)) & (
        pts @ b.center.as_array() >= math.cos(b.half_angle)
    )
    freq = inside.mean()
    assert abs(freq - exact) <= 4 * math.sqrt(exact * (1 - exact) / n)


def test_cap_intersection_symmetric():
    a = SectorCap(Z_AXIS, 0.8)
    b = SectorCap(unit_vector_at_angle(Z_AXIS, 0.9), 1.2)
    assert cap_intersection_fraction(a, b) == pytest.approx(cap_intersection_fraction(b, a), abs=1e-10)


def test_band_range_is_one_rule():
    # sector_angles and EpsilonExperiment share check_band, slack included:
    # 0.3 + 0.7000000000000001 rounds just past 1.
    epsilon, d = 0.3, 0.7000000000000001
    e = EpsilonExperiment(Z_AXIS, epsilon, d)
    up, down = sector_angles(epsilon, d)
    assert (up, down) == (0.0, math.acos(epsilon - d))
    assert (eig_set(e, Outcome.O1).half_angle, eig_set(e, Outcome.O2).half_angle) == (up, down)
    for bad in (0.7 + 1e-14, -0.7 - 1e-14):
        with pytest.raises(ValueError):
            sector_angles(epsilon, bad)
        with pytest.raises(ValueError):
            EpsilonExperiment(Z_AXIS, epsilon, bad)


def _reference_overlap(a: SectorCap, b: SectorCap):
    """cap_intersection_fraction to 30 digits, on the caps as given (the
    angle between the float centers taken exactly), through the
    law-of-cosines arccos form of the lens, which the implementation does
    not use.  With radii of 1e-7 and gaps of 1e-15 that form cancels about
    40 digits, so it runs at 70."""
    with mp.workdps(70):
        return _arccos_overlap(a, b)


def _arccos_overlap(a: SectorCap, b: SectorCap):
    ca = [mp.mpf(v) for v in (a.center.x, a.center.y, a.center.z)]
    cb = [mp.mpf(v) for v in (b.center.x, b.center.y, b.center.z)]
    cross = [ca[1] * cb[2] - ca[2] * cb[1], ca[2] * cb[0] - ca[0] * cb[2], ca[0] * cb[1] - ca[1] * cb[0]]
    gamma = mp.atan2(mp.sqrt(sum(c * c for c in cross)), sum(x * y for x, y in zip(ca, cb)))
    return _arccos_lens(gamma, mp.mpf(a.half_angle), mp.mpf(b.half_angle))


def _arccos_lens(gamma, ra, rb):
    def area(r):
        return (1 - mp.cos(r)) / 2

    if gamma >= ra + rb:
        return mp.mpf(0)
    if gamma <= abs(ra - rb):
        return area(min(ra, rb))
    if gamma >= 2 * mp.pi - ra - rb:
        return area(ra) + area(rb) - 1
    k = (mp.cos(gamma) - mp.cos(ra) * mp.cos(rb)) / (mp.sin(ra) * mp.sin(rb))
    ka = (mp.cos(rb) - mp.cos(gamma) * mp.cos(ra)) / (mp.sin(gamma) * mp.sin(ra))
    kb = (mp.cos(ra) - mp.cos(gamma) * mp.cos(rb)) / (mp.sin(gamma) * mp.sin(rb))
    lens = 2 * mp.pi - 2 * mp.acos(k) - 2 * mp.cos(ra) * mp.acos(ka) - 2 * mp.cos(rb) * mp.acos(kb)
    return lens / (4 * mp.pi)


def _random_unit(rnd: random.Random) -> UnitVector:
    return unit_vector_at_angle(Z_AXIS, math.acos(rnd.uniform(-1.0, 1.0)), rnd.uniform(0.0, 2.0 * math.pi))


def _edge_pairs() -> list[tuple[SectorCap, SectorCap]]:
    """Rims tangent from outside (gamma = ra + rb) and inside (|ra - rb|),
    co-disjoint bands (2 pi - ra - rb), each at and just off the edge, and
    antipodal centers; radii tiny, pi / 2 and pi among them."""
    tiny, half, pi = 1e-7, math.pi / 2, math.pi
    radii = [(tiny, tiny), (tiny, 1.0), (0.5, 0.7), (half, half), (half, 1.0), (half, pi), (pi, tiny), (2.5, 2.0), (3.0, tiny)]
    pairs = []
    for ra, rb in radii:
        for gamma in (ra + rb, abs(ra - rb), 2.0 * math.pi - ra - rb):
            for offset in (0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-8, -1e-8):
                if 0.0 <= gamma + offset <= math.pi:
                    pairs.append((SectorCap(Z_AXIS, ra), SectorCap(unit_vector_at_angle(Z_AXIS, gamma + offset, 0.7), rb)))
        pairs.append((SectorCap(Z_AXIS, ra), SectorCap(-Z_AXIS, rb)))
        pairs.append((SectorCap(Z_AXIS, ra), SectorCap(Z_AXIS, rb)))
    return pairs


def test_cap_intersection_matches_30_digit_reference():
    rnd = random.Random(8)
    pairs = [
        (SectorCap(_random_unit(rnd), rnd.uniform(0.0, math.pi)), SectorCap(_random_unit(rnd), rnd.uniform(0.0, math.pi)))
        for _ in range(400)
    ]
    pairs += _edge_pairs()
    worst = 0.0
    for a, b in pairs:
        ref = _reference_overlap(a, b)
        for x, y in ((a, b), (b, a)):
            err = float(abs(cap_intersection_fraction(x, y) - ref))
            assert err <= 1e-14, (x, y, err)
            worst = max(worst, err)
    assert len(pairs) >= 500 and worst > 0.0  # the edge cases ran, and the check can fail


def test_cap_overlap_error_is_small_against_the_smaller_cap():
    # A small cap's share of its overlap is a ratio of tiny areas, so the
    # overlap's error must scale with the smaller cap.  Rounding the
    # half-perimeter differences costs an ulp of the larger angles, so the
    # bound is an ulp against the smaller cap's area over its radius.
    rnd = random.Random(11)
    for ra in (1e-8, 1e-6, 1e-4, 1e-2):
        for rb in (1e-3, 0.3, 1.2, math.pi / 2, 2.0, math.pi - 1e-3, math.pi - 1e-7):
            lo, hi = abs(ra - rb), min(ra + rb, 2.0 * math.pi - ra - rb, math.pi)
            gammas = [rnd.uniform(lo, hi) for _ in range(12)] + [lo * (1 + 1e-12), min(hi * (1 - 1e-12), math.pi)]
            for gamma in gammas:
                with mp.workdps(70):
                    ref = _arccos_lens(mp.mpf(gamma), mp.mpf(ra), mp.mpf(rb))
                bound = 2e-15 * cap_area_fraction(min(ra, rb)) / min(ra, rb)
                for x, y in ((ra, rb), (rb, ra)):
                    assert float(abs(cap_lens(gamma, x, y)[0] - ref)) <= bound, (gamma, x, y)


def _band_integral_lens(gamma: float, rho: float, beta: float):
    """cap_lens to 30 digits as integrals over the projection s on the axis:
    the area and first moment are (1 / 4 pi) times the integrals of theta(s)
    and s theta(s) over [cos(beta), 1], theta(s) the arc of the circle x = s
    inside the cap (dA = ds dphi).  theta kinks where the circle touches the
    cap's rim, at cos(gamma + rho) (also when gamma + rho > pi) and
    cos(|gamma - rho|), which are breakpoints."""
    with mp.workdps(30):
        g, r, b = mp.mpf(gamma), mp.mpf(rho), mp.mpf(beta)
        cos_g, sin_g, cos_r = mp.cos(g), mp.sin(g), mp.cos(r)

        def theta(s):
            r2 = 1 - s * s
            if r2 <= 0 or sin_g == 0:
                return 2 * mp.pi if s * cos_g >= cos_r else mp.mpf(0)
            return 2 * mp.acos(min(mp.mpf(1), max(mp.mpf(-1), (cos_r - s * cos_g) / (mp.sqrt(r2) * sin_g))))

        low = mp.cos(b)
        cuts = sorted({low, mp.mpf(1)} | {c for c in (mp.cos(g + r), mp.cos(abs(g - r))) if low < c < 1})
        return mp.quad(theta, cuts) / (4 * mp.pi), mp.quad(lambda s: s * theta(s), cuts) / (4 * mp.pi)


def test_cap_lens_matches_the_band_integral():
    # The moment's terms are of order sin(rho) and sin(beta), so its error is
    # a few ulps of the smaller; the area keeps the overlap test's bound.
    rnd = random.Random(13)
    triples = [tuple(rnd.uniform(0.0, math.pi) for _ in range(3)) for _ in range(40)]
    # Wide caps near pi, whose moment is small against their area.
    for k in range(25):
        wide = math.pi - 10 ** rnd.uniform(-7, -1)
        other = math.pi - 10 ** rnd.uniform(-7, -1) if k < 15 else rnd.uniform(0.0, math.pi)
        triples.append((rnd.uniform(0.0, math.pi), wide, other))
    # Small caps straddling the axis cap's edge.
    for _ in range(30):
        rho, beta = 10 ** rnd.uniform(-7, -2), rnd.uniform(0.1, math.pi - 0.1)
        triples.append((beta + rnd.uniform(-rho, rho), rho, beta))
    worst = 0.0
    for gamma, rho, beta in triples:
        area, moment = cap_lens(gamma, rho, beta)
        ref_area, ref_moment = _band_integral_lens(gamma, rho, beta)
        small = min(rho, beta)
        assert float(abs(area - ref_area)) <= 2e-15 * cap_area_fraction(small) / small, (gamma, rho, beta)
        err = float(abs(moment - ref_moment))
        assert err <= 8 * 2.0**-53 * math.sin(small), (gamma, rho, beta, err)
        worst = max(worst, err)
    assert worst > 0.0  # the check can fail


def test_overlap_reference_against_ring_quadrature():
    # The reference itself, against mpmath's 30-digit quadrature of the
    # ring integral: the ring at polar angle t from a's center lies in b
    # over the azimuth arc 2 acos((cos rb - cos t cos gamma) / (sin t sin gamma)).
    for gamma, ra, rb in ((1.1, 0.9, 0.7), (2.0, 1.5, 2.4), (0.4, 2.9, 0.5), (1.2 - 1e-9, 0.5, 0.7)):
        a, b = SectorCap(Z_AXIS, ra), SectorCap(unit_vector_at_angle(Z_AXIS, gamma), rb)
        with mp.workdps(30):
            g = mp.atan2(mp.hypot(b.center.x, b.center.y), b.center.z)  # as the reference takes it

            def ring(t):
                u = (mp.cos(rb) - mp.cos(t) * mp.cos(g)) / (mp.sin(t) * mp.sin(g))
                return 2 * mp.acos(max(-1, min(1, u))) * mp.sin(t)

            cuts = sorted({mp.mpf(0), mp.mpf(ra)} | {t for t in (abs(g - rb), g + rb, 2 * mp.pi - g - rb) if 0 < t < ra})
            assert abs(mp.quad(ring, cuts) / (4 * mp.pi) - _reference_overlap(a, b)) <= 1e-25
