"""Adaptive Simpson quadrature for piecewise-smooth 1-D integrands.

The package's integrand, the break-point integral of cap_averaged_p1, is
smooth away from the points where the ring at the break point is tangent
to the cap's rim, so the caller passes those as breakpoints and each
smooth piece converges rapidly.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .errors import QuadratureError

_MAX_DEPTH = 52
# A piece is accepted no shallower than this: at depth 0-1 the two halves
# of a piece that ends at a square-root point can agree by chance.
_MIN_DEPTH = 2


def _simpson(fa: float, fm: float, fb: float, width: float) -> float:
    return width * (fa + 4.0 * fm + fb) / 6.0


def _recurse(
    f: Callable[[float], float],
    a: float,
    b: float,
    fa: float,
    fm: float,
    fb: float,
    whole: float,
    tol: float,
    depth: int,
) -> float:
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(fa, flm, fm, m - a)
    right = _simpson(fm, frm, fb, b - m)
    err = left + right - whole
    if depth >= _MIN_DEPTH and (abs(err) <= 15.0 * tol or (b - a) < 1e-14 * (1.0 + abs(m))):
        return left + right + err / 15.0
    if depth >= _MAX_DEPTH:
        raise QuadratureError(f"tolerance {tol} unreachable on [{a}, {b}] (residual {abs(err) / 15.0:.3e})")
    half = 0.5 * tol
    return _recurse(f, a, m, fa, flm, fm, left, half, depth + 1) + _recurse(
        f, m, b, fm, frm, fb, right, half, depth + 1
    )


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float,
    breakpoints: Iterable[float] = (),
) -> float:
    """Integrate f over [a, b] to absolute tolerance `tol`.

    Interior `breakpoints` split the interval so each piece is smooth.
    """
    if b <= a:
        return 0.0
    cuts = [a] + sorted(t for t in set(breakpoints) if a < t < b) + [b]
    pieces = len(cuts) - 1
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        flo, fhi = f(lo), f(hi)
        fmid = f(0.5 * (lo + hi))
        whole = _simpson(flo, fmid, fhi, hi - lo)
        total += _recurse(f, lo, hi, flo, fmid, fhi, whole, tol / pieces, 0)
    return total
