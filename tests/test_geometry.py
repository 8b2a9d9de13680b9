import math

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
    sample_uniform_cap_array,
    sample_uniform_sphere,
    sample_uniform_sphere_array,
    sector_angles,
    unit_vector_at_angle,
)


def test_unit_vector_rejects_non_unit():
    with pytest.raises(ValueError):
        UnitVector(1.0, 1.0, 0.0)


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
    # The open/closed flag is carried as data; numerical membership is the
    # same >= test either way (the boundary circle has measure zero).
    inside = unit_vector_at_angle(Z_AXIS, 0.99)
    outside = unit_vector_at_angle(Z_AXIS, 1.01)
    for closed in (True, False):
        cap = SectorCap(Z_AXIS, 1.0, closed=closed)
        assert cap.contains(inside)
        assert not cap.contains(outside)


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
