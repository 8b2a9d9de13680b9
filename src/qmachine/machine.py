"""The breakable-band experiment on the sphere.

An experiment is a band of half-width epsilon around offset d on the axis
through u and -u: the strip where the elastic can break, uniformly.  The
particle at v projects onto the axis at x = v . u; a break strictly below
the projection pulls the particle up to u (outcome 1), otherwise it ends
at -u (outcome 2).  epsilon = 1 reproduces the spin-1/2 probabilities,
epsilon = 0 a deterministic classical experiment.

Monte Carlo draws a state on a cap through its ring term
sqrt(1 - z^2) cos(phi), and float64 cos is most of what such a trial
costs.  ring_into therefore takes the cosine in float32, which is more
than ten times cheaper, and keeps z and phi.  The screened value is
within RING_ERR / 2 of the float64 one, so every comparison a kernel
makes (break < x, x > d, a dot against a band edge) is decided by it
whenever it sits more than RING_ERR from its threshold.  The rare trial
closer than that gets its value recomputed from z and phi in float64,
in the float64 draw's operation order (settle_into), and is decided as
before, so every outcome count is bitwise the one the float64 draw gives.

count_o1 is the one trial kernel: every Monte Carlo path draws its break
points and decides its outcomes there.  Each Monte Carlo path is one
per-chunk step: run_chunks streams the trials MC_CHUNK at a time through
one workspace it allocates per call, and hands the step each chunk's
columns of it, so no other module knows the chunk layout.  count_at runs
n trials at one fixed projection as a one-line step.
A call of at least _SPLIT_MIN trials splits each chunk's columns over
the CPUs the process may use, when every draw it makes fills a whole
chunk row with rng.random (uniform_into).  Part p owns the same columns
of every chunk and reads exactly their draws from the stream (_Window),
so every count, and the caller's generator afterwards, is bitwise the
serial one, in the same memory.  One path stays serial because where a
part's draws start is not known in advance: an epsilon = 0 target settles
ties with rng.integers coins whose number depends on the data.  Smaller
calls stay serial too, since a thread's start and the narrower rows cost
more than they save: on a 2-vCPU VM a forced split ran 0.35x at 1e4
trials and 1.0x at 1e5, against 1.2-1.6x from 2e6 trials up.
"""

from __future__ import annotations

import enum
import math
import os
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import UnitVector, check_band


class Outcome(enum.Enum):
    O1 = "o1"  # particle pulled to the axis point
    O2 = "o2"  # particle pulled to the antipode


@dataclass(frozen=True)
class EpsilonExperiment:
    """Axis u plus band parameters epsilon in [0, 1], d in [-1+eps, 1-eps]."""

    axis: UnitVector
    epsilon: float
    d: float = 0.0

    def __post_init__(self) -> None:
        check_band(self.epsilon, self.d)

    @property
    def band_low(self) -> float:
        return self.d - self.epsilon

    @property
    def band_high(self) -> float:
        return self.d + self.epsilon

    def flipped(self) -> "EpsilonExperiment":
        """Same experiment with outcome labels swapped (axis and d negated)."""
        return EpsilonExperiment(-self.axis, self.epsilon, -self.d)


def p1_given_projection(e: EpsilonExperiment, x: float) -> float:
    """Probability of outcome 1 as a function of the projection x = v . u.

    Clamped-linear ramp across the band for epsilon > 0; a step at d for
    epsilon = 0, with the measure-zero tie x = d split evenly.
    """
    if e.epsilon == 0.0:
        if x > e.d:
            return 1.0
        if x < e.d:
            return 0.0
        return 0.5
    if x <= e.band_low:
        return 0.0
    if x >= e.band_high:
        return 1.0
    return (x - e.d + e.epsilon) / (2.0 * e.epsilon)


# Monte Carlo runs its trials MC_CHUNK at a time, so memory is bounded for
# any trial count.
MC_CHUNK = 65_536


def chunk_sizes(n: int) -> list[int]:
    """n trials as MC_CHUNK-sized pieces, the last one shorter."""
    return [min(MC_CHUNK, n - start) for start in range(0, n, MC_CHUNK)]


# Calls of fewer trials run on the caller alone (see the module docstring);
# a multiple of MC_CHUNK, so every part owns columns of every whole chunk.
_SPLIT_MIN = 2**21
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


class _Window:
    """Stand-in for rng in one part of a split call: columns [lo, hi) of
    every chunk of an n-trial call.  A chunk of width k draws whole rows, so
    columns [lo, hi) of its j-th row sit k j + lo draws past the chunk's
    start, and from the end of one such window to the start of the next
    (in this chunk or the next) lie k - hi + lo draws.  random(out) fills
    `out` and skips those (PCG64.advance, one step per double)."""

    def __init__(self, rng: np.random.Generator, n: int, lo: int, hi: int):
        self.rng, self.n, self.cols = rng, n, (lo, hi)
        self.skip = rng.bit_generator.advance

    def chunks(self):
        """The (lo, hi) of each chunk, hi clipped to the chunk's width."""
        lo, hi = self.cols
        self.skip(lo)
        for k in chunk_sizes(self.n):
            if lo >= k:  # only the last chunk is short, so this part is done
                return
            self.gap = k - min(hi, k) + lo
            yield lo, min(hi, k)

    def random(self, out: np.ndarray) -> np.ndarray:
        self.rng.random(out=out)
        self.skip(self.gap)
        return out


def run_chunks(rng: np.random.Generator, n: int, step: Callable, split: bool, rows: int, flags: int = 1) -> object:
    """Run an n-trial call chunk by chunk in one workspace: `rows` float rows
    and `flags` bool rows, each as long as the longest chunk.  Each chunk
    calls step(stream, work, marks) on the workspace's columns for it, with
    `stream` standing in for rng; returns the sum of the steps' results.
    The call is one part, on rng and whole chunks, unless `split` is set and
    n >= _SPLIT_MIN; `split` promises that the step draws only through
    stream.random(out=row) over whole rows of its columns.  Then part 0
    runs on the caller with rng and parts 1 .. _CPUS - 1 on threads of
    their own, each on a generator at rng's start state and owning the same
    columns of every chunk (_Window).  A part's exception is raised here
    once every part ends."""
    m = min(n, MC_CHUNK)
    work, marks = np.empty((rows, m)), np.empty((flags, m), dtype=bool)
    parts = _CPUS if split and n >= _SPLIT_MIN else 1
    cuts = [m * p // parts for p in range(parts + 1)]
    results: list = [0] * parts
    errors: dict = {}

    def run(p: int, stream) -> None:
        windows = ((0, k) for k in chunk_sizes(n))
        if parts > 1:
            stream = _Window(stream, n, cuts[p], cuts[p + 1])
            windows = stream.chunks()
        try:
            results[p] = sum(step(stream, work[:, lo:hi], marks[:, lo:hi]) for lo, hi in windows)
        except BaseException as exc:  # raised again by the caller
            errors[p] = exc

    threads = []
    for p in range(1, parts):
        bits = np.random.PCG64()
        bits.state = rng.bit_generator.state
        threads.append(threading.Thread(target=run, args=(p, np.random.Generator(bits))))
        threads[-1].start()
    run(0, rng)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[min(errors)]
    return sum(results)


def uniform_into(rng: np.random.Generator, low: float, high: float, out: np.ndarray) -> np.ndarray:
    """Fill `out` with U(low, high) draws in place: bitwise the values and
    the stream use of rng.uniform(low, high, len(out)).  One rng.random(out=)
    fill, so a _Window may stand in for rng."""
    rng.random(out=out)
    out *= high - low
    out += low
    return out


# Screen width of the float32 ring term.  |fl32(phi) - phi| <= 2^-22 for
# phi < 2 pi, the float32 cosine adds a few float32 ulps (2^-24 each near
# 1), and |cos'| <= 1 and sqrt(1 - z^2) <= 1 carry both into the ring term
# unchanged: the worst error measured over 1e8 draws and over phi near
# k pi / 2 is 2.6e-7, under RING_ERR / 2 = 4.8e-7 (tests/test_ring_screen.py
# checks that bound on the installed numpy).  Rescaling by a unit axis
# component and adding an exact term moves it by float64 roundings only, so
# a screened value more than RING_ERR from a threshold is on the same side
# as the float64 one.
RING_ERR = 2.0**-20


def ring_into(
    rng: np.random.Generator, zlow: float, z: np.ndarray, phi: np.ndarray, ring: np.ndarray, scratch: np.ndarray
) -> None:
    """Fill `z` with z ~ U(zlow, 1), `phi` with phi ~ U(0, 2 pi), then `ring`
    with the screened sqrt(1 - z^2) cos(phi): the coordinates along and
    across a pole of points uniform on the cap z >= zlow (zlow = -1: the
    whole sphere).  The cosine is float32's, of phi rounded to float32, so
    `ring` is within RING_ERR / 2 of the float64 term; settle_into recomputes
    that term from the kept z and phi.  `scratch` is a contiguous float
    buffer as long as `z`; its first half, viewed as float32, holds the
    cosines on their way to `ring`, so no cast buffer is allocated (numpy
    takes 64 KB for a cast inside a ufunc, one per concurrent part)."""
    uniform_into(rng, zlow, 1.0, z)
    uniform_into(rng, 0.0, 2.0 * math.pi, phi)
    cos32 = scratch.view(np.float32)[: len(phi)]
    np.copyto(cos32, phi, casting="same_kind")
    np.cos(cos32, out=cos32)
    np.copyto(ring, cos32)
    np.multiply(z, z, out=scratch)
    np.subtract(1.0, scratch, out=scratch)
    np.sqrt(scratch, out=scratch)
    ring *= scratch


def settle_into(out: np.ndarray, idx: np.ndarray, z: np.ndarray, phi: np.ndarray, along: float, across: float) -> None:
    """Set out[idx] to the float64 projection z along + sqrt(1 - z^2) cos(phi)
    across of ring_into's draws at idx, (along, across) the axis's components
    along the pole and along phi = 0, in the operation order the fixed-seed
    counts were recorded with."""
    zi = z[idx]
    out[idx] = zi * along + np.cos(phi[idx]) * np.sqrt(1.0 - zi * zi) * across


def near_threshold(values: np.ndarray, threshold, gap: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """Indices where |values - threshold| <= RING_ERR: the comparisons a
    screened value cannot decide.  `gap` (float) and `flags` (bool) are
    buffers as long as `values`; `gap` may be `values`."""
    np.subtract(values, threshold, out=gap)
    np.abs(gap, out=gap)
    np.less_equal(gap, RING_ERR, out=flags)
    return np.flatnonzero(flags)


def count_o1(e: EpsilonExperiment, x, rng: np.random.Generator, breaks: np.ndarray, up: np.ndarray, settle=None) -> int:
    """Outcome-1 count of hidden-measurement trials at projection(s) x, a
    float or an array, one per slot of the caller's buffers: `breaks` gets
    the break points, uniform on the band, and `up` the outcome-1 flags,
    break < x (the particle then sits at the axis point, otherwise at its
    antipode).  For epsilon = 0 the band is the point d and a tie x = d
    goes to a fair coin.  When x holds screened values (see ring_into),
    `settle(threshold, flags)` makes exact those within RING_ERR of their
    threshold before any is compared; `flags` is bool scratch, here `up`."""
    if e.epsilon > 0.0:
        uniform_into(rng, e.band_low, e.band_high, breaks)
        if settle is not None:
            settle(breaks, up)
        np.less(breaks, x, out=up)
    else:
        breaks.fill(e.d)
        if settle is not None:
            settle(e.d, up)
        np.greater(x, e.d, out=up)
        ties = np.broadcast_to(x, up.shape) == e.d
        up[ties] = rng.integers(0, 2, int(np.count_nonzero(ties))).astype(bool)
    return int(np.count_nonzero(up))


def count_at(e: EpsilonExperiment, x: float, n: int, rng: np.random.Generator) -> int:
    """Outcome-1 count of n trials at the one projection x, split across
    CPUs (run_chunks) unless epsilon = 0."""
    return run_chunks(rng, n, lambda stream, work, marks: count_o1(e, x, stream, work[0], marks[0]), e.epsilon > 0.0, 1)


def estimate_probability_mc(
    e: EpsilonExperiment, state: UnitVector, n: int, seed: int
) -> tuple[float, float]:
    """Outcome-1 frequency over n seeded trials at the state's projection
    (count_at), with its standard error."""
    if n < 1:
        raise ValueError("trial count must be at least 1")
    p_hat = count_at(e, state.dot(e.axis), n, np.random.default_rng(seed)) / n
    return p_hat, math.sqrt(p_hat * (1.0 - p_hat) / n)
