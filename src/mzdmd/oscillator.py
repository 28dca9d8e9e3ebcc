"""Coupled-oscillator benchmark: dynamics, RK4 integration, and the Monte
Carlo projection over unresolved initial conditions.

The system couples two unit oscillators through their positions; the first
oscillator (y1, y2) is measured, the second (y3, y4) is hidden and its
initial state is modeled statistically.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

from .errors import DivergenceError, check_finite

# RK4 sub-steps per grid step of every integration
SUBSTEPS = 10

# spawn-key tags keeping the random streams of the pipeline stages disjoint
TAG_MEASUREMENT = 0
TAG_PROJECTION = 1
TAG_ENSEMBLE = 2


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Counter-based random stream for (seed, key).

    Streams for distinct keys are independent and do not depend on the order
    in which they are created, so per-sample results are reproducible under
    any execution schedule.
    """
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(seq))


def _philox_keys(seed: int, tag: int, n: int) -> np.ndarray:
    """(n, 2) uint64 Philox keys of the streams ``rng_stream(seed, tag, i)``
    for i < n <= 2**32, in one pass over a uint32 array.

    This is ``SeedSequence(seed, spawn_key=(tag, i)).generate_state(2,
    uint64)`` with every stream in a column.  Only the last entropy word, i,
    differs between streams, and ``SeedSequence(seed, spawn_key=(tag,))``
    has mixed every word before it into its 4-word pool: the seed's words,
    padded with zeros to four, then the tag's.  Its hash multiplier has
    advanced once per hash call, 4 of them to fill the pool, 12 to mix it
    and 4 for each word past the fourth, so the pass resumes there, hashes
    i into all four pool words, and four hashed pool words pair up
    little-endian into the two key words.  numpy's uint32 arrays wrap as
    the C code does.
    """
    seed, tag = int(seed), int(tag)
    pool = np.random.SeedSequence(seed, spawn_key=(tag,)).pool * np.uint32(0xCA01F9DD)
    words = max(-(-seed.bit_length() // 32), 4) + max(-(-tag.bit_length() // 32), 1)
    mult, out_mult = 0x43B0D7E5 * pow(0x931E8875, 4 * words, 2**32) & 0xFFFFFFFF, 0x8B51F9DD
    index, shift = np.arange(n, dtype=np.uint32), np.uint32(16)
    state = np.empty((n, 4), np.uint32)
    for k in range(4):
        # hash i, mix it into pool word k (premultiplied above), then hash that into the state
        value = index ^ np.uint32(mult)
        mult = mult * 0x931E8875 & 0xFFFFFFFF
        value *= np.uint32(mult)
        value ^= value >> shift
        value = pool[k] - value * np.uint32(0x4973F715)
        value ^= value >> shift
        value ^= np.uint32(out_mult)
        out_mult = out_mult * 0x58F38DED & 0xFFFFFFFF
        value *= np.uint32(out_mult)
        state[:, k] = value ^ (value >> shift)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def keyed_normals(seed: int, tag: int, n: int, size: int) -> np.ndarray:
    """(n, size) standard normals whose row i is ``rng_stream(seed, tag,
    i).standard_normal(size)`` bit for bit, for n <= 2**32.

    The keys of all n streams come from one ``_philox_keys`` pass, and one
    reused generator draws each row after its state is set to that key, a
    zero counter and an empty buffer, which is the state ``rng_stream``
    starts from.
    """
    rng = rng_stream(seed, tag, 0)
    start = rng.bit_generator.state
    out = np.empty((n, size))
    for key, row in zip(_philox_keys(seed, tag, n), out):
        start["state"]["key"] = key
        rng.bit_generator.state = start
        rng.standard_normal(out=row)
    return out


@dataclass(eq=False)
class Trajectory:
    """Uniformly sampled time series; one state row per time point.

    ``max_imag`` is reconstruction telemetry: spectral reconstructions
    report the largest imaginary residue discarded when taking the real
    part.  Simulated trajectories leave it at None.
    """

    times: np.ndarray
    states: np.ndarray
    max_imag: float | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float).ravel()
        self.states = np.asarray(self.states)
        if self.states.shape[0] != self.times.size:
            raise ValueError("states must have one row per time point")
        if self.times.size > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")


@dataclass(frozen=True)
class SimConfig:
    dt: float = 0.1
    t_max: float = 50.0
    n_points: int = 501
    sigma: float = 1.0
    n_mc: int = 1000
    seed: int = 7

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.n_points < 2:
            raise ValueError("n_points must be at least 2")
        tol = 1e-12 + 4 * np.finfo(float).eps * abs(self.t_max)
        if not abs(self.dt * (self.n_points - 1) - self.t_max) <= tol < np.inf:
            raise ValueError("t_max must equal dt * (n_points - 1) within 1e-12 + 4 eps |t_max|")
        if not 0 <= self.sigma < np.inf:
            raise ValueError("sigma must be nonnegative and finite")
        if self.n_mc < 1:
            raise ValueError("n_mc must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

    def times(self) -> np.ndarray:
        """Time grid with times[k] = k * dt computed as a single product."""
        return np.arange(self.n_points) * self.dt


def hamiltonian(state: np.ndarray) -> np.ndarray | float:
    """Conserved energy (y2^2 + y4^2)/2 + (y1^2 + y3^2 + y1^2 y3^2)/2."""
    y = np.asarray(state, dtype=float)
    return 0.5 * (y[1] ** 2 + y[3] ** 2) + 0.5 * (y[0] ** 2 + y[2] ** 2 + y[0] ** 2 * y[2] ** 2)


def integrate(s0: np.ndarray, cfg: SimConfig) -> Trajectory:
    """Integrate the oscillator from one state ``s0`` (4,) over the cfg time
    grid with classical RK4 at internal step dt/SUBSTEPS, on four Python
    floats; the trajectory's states are (n_points, 4).

    The right-hand side is (y2, -y1(1 + y3^2), y4, -y3(1 + y1^2)): each
    position's derivative is its velocity, and each velocity's is the
    acceleration of its oscillator coupled to the other.  So each stage's
    position derivative is the velocity it starts from, and only the two
    accelerations are computed per stage.  The arithmetic is that of the
    right-hand side and the RK4 update evaluated on a (4,) float64 array, in
    the same order: ``q ** 2`` on a Python float is libm ``pow``, as numpy's
    float64 scalar power is, so each acceleration equals bit for bit its
    value on entries of the array.  The committed references freeze it, for
    the reason ``_rk4_batch`` gives.
    """
    s0 = np.asarray(s0, dtype=float)
    if s0.shape != (4,):
        raise ValueError("s0 must be one state (4,)")
    h = cfg.dt / SUBSTEPS
    hh, h6 = 0.5 * h, h / 6.0
    y1, y2, y3, y4 = s0.tolist()
    rows = [(y1, y2, y3, y4)]
    for step in range(1, cfg.n_points):
        try:
            for _ in range(SUBSTEPS):
                f1, g1 = -y1 * (1.0 + y3 ** 2), -y3 * (1.0 + y1 ** 2)
                a1, a2, a3, a4 = y1 + hh * y2, y2 + hh * f1, y3 + hh * y4, y4 + hh * g1
                f2, g2 = -a1 * (1.0 + a3 ** 2), -a3 * (1.0 + a1 ** 2)
                b1, b2, b3, b4 = y1 + hh * a2, y2 + hh * f2, y3 + hh * a4, y4 + hh * g2
                f3, g3 = -b1 * (1.0 + b3 ** 2), -b3 * (1.0 + b1 ** 2)
                c1, c2, c3, c4 = y1 + h * b2, y2 + h * f3, y3 + h * b4, y4 + h * g3
                f4, g4 = -c1 * (1.0 + c3 ** 2), -c3 * (1.0 + c1 ** 2)
                y1, y2, y3, y4 = (
                    y1 + h6 * (y2 + 2.0 * a2 + 2.0 * b2 + c2),
                    y2 + h6 * (f1 + 2.0 * f2 + 2.0 * f3 + f4),
                    y3 + h6 * (y4 + 2.0 * a4 + 2.0 * b4 + c4),
                    y4 + h6 * (g1 + 2.0 * g2 + 2.0 * g3 + g4),
                )
        except OverflowError:
            # float ** 2 raises where numpy's power returns inf
            raise DivergenceError(f"state overflowed at grid step {step}", step=step) from None
        if not (isfinite(y1) and isfinite(y2) and isfinite(y3) and isfinite(y4)):
            raise DivergenceError(f"state became non-finite at grid step {step}", step=step)
        rows.append((y1, y2, y3, y4))
    return Trajectory(times=cfg.times(), states=np.array(rows))


def _rk4_batch(y0: np.ndarray, cfg: SimConfig):
    """Classical RK4 at internal step dt/SUBSTEPS on a batch of state
    columns (4, n) in the order (y1, y2, y3, y4); yields the batch at grid
    steps 0, ..., n_points - 1 as a (4, n) view with rows (y1, y3, y2, y4).

    Every yield is the same view, updated in place: a consumer copies or
    reduces it before the next step.  The state and stages 2, 3, 4 are the
    (6, n) slabs of one buffer, rows (y1, y3, y2, y4, a1, a3) with a1 and a3
    the accelerations at rows 0..3, so rows 2..5 are the derivative k and
    no velocity is copied.  After stage 4 has read k3, one call doubles k2
    and k3; k1 + 2 k2 + 2 k3 + k4 is summed in the rows of k2.  Views, 0-d
    scalars and the finiteness mask are made once, and each of the 24 ufunc
    calls per substep writes through a positional ``out``.

    The arithmetic is that of the right-hand side (y2, -y1(1 + y3^2), y4,
    -y3(1 + y1^2)) and the RK4 update evaluated on the whole (4, n) batch,
    in the same order, but for one rewrite: an acceleration -p (1 + q^2) is
    computed as p * (-1 - q^2), the second factor by
    ``np.subtract(-1.0, q^2)``.  Negation is exact and rounding is
    symmetric in sign, so the two are the same float, signed zeros
    included.  Positions are squared by ``np.square``, as numpy's array
    ``** 2`` does.  ``integrate`` squares by ``pow`` instead, so a column
    may differ from its ``integrate`` run in the last bits.

    The committed references in ``perfbench/references`` freeze this
    arithmetic, as the oscillator is chaotic at large hidden amplitudes: a
    one-ulp change to an initial y3 moved the worst of 1000 samples by
    1.7e-3 and the projection's mean by 1.9e-6 at t = 50, so a
    reassociation, a fused update or another sub-step count should be
    expected to move the mean beyond their tolerance.  An overflow
    warns unless the caller holds an ``np.errstate``; a non-finite state
    raises :class:`DivergenceError` at its grid step.
    """
    h = cfg.dt / SUBSTEPS
    hh, h, h6, two, minus_one = (np.array(c) for c in (0.5 * h, h, h / 6.0, 2.0, -1.0))
    buf = np.empty((4, 6) + y0.shape[1:])  # the state and stages 2, 3, 4
    buf[0, :2], buf[0, 2:4] = y0[::2], y0[1::2]
    y, z, w, u = buf[:, :4]  # the state rows of each slab
    ys, zs, ws, us = buf[:, 1::-1]  # their positions, swapped to (y3, y1)
    yp, zp, wp, up = buf[:, :2]  # their positions
    ya, za, wa, ua = buf[:, 4:]  # the accelerations at them
    k1, k2, k3, k4 = buf[:, 2:]  # their derivatives
    k23, finite = buf[1:3, 2:], np.empty(y.shape, dtype=bool)
    square, subtract, multiply, add = np.square, np.subtract, np.multiply, np.add
    yield y
    for step in range(1, cfg.n_points):
        for _ in range(SUBSTEPS):
            square(ys, ya)
            subtract(minus_one, ya, ya)
            multiply(yp, ya, ya)
            multiply(hh, k1, z)
            add(y, z, z)
            square(zs, za)
            subtract(minus_one, za, za)
            multiply(zp, za, za)
            multiply(hh, k2, w)
            add(y, w, w)
            square(ws, wa)
            subtract(minus_one, wa, wa)
            multiply(wp, wa, wa)
            multiply(h, k3, u)
            add(y, u, u)
            square(us, ua)
            subtract(minus_one, ua, ua)
            multiply(up, ua, ua)
            multiply(two, k23, k23)
            add(k1, k2, k2)
            add(k2, k3, k2)
            add(k2, k4, k2)
            multiply(h6, k2, k2)
            add(y, k2, y)
        if not np.isfinite(y, finite).all():
            raise DivergenceError(f"state became non-finite at grid step {step}", step=step)
        yield y


def monte_carlo_projection(cfg: SimConfig, x_hat: tuple[float, float]) -> tuple[Trajectory, Trajectory]:
    """Ensemble average of the resolved dynamics over hidden initial conditions.

    Integrates ``cfg.n_mc`` full systems with the resolved initial values
    pinned at ``x_hat`` and (y3, y4) drawn per sample from N(0, sigma^2);
    returns the pointwise mean and pointwise population variance of the
    resolved coordinates.  Sample i draws (y3, y4) = ``sigma *
    rng_stream(seed, TAG_PROJECTION, i).standard_normal(2)`` bit for bit,
    all of them in one ``keyed_normals`` call.  The batch is reduced one
    grid step at a time, so memory is O(n_mc): one sum of the resolved rows
    (0 and 2 of the ``_rk4_batch`` view) serves both moments, each formed
    as numpy's ``mean`` and ``var`` form it.  A state or moment that becomes
    non-finite raises :class:`DivergenceError` with ``step`` set and no
    numpy warning, from :func:`errors.check_finite` for a moment.
    """
    x1, x2 = float(x_hat[0]), float(x_hat[1])
    times = cfg.times()
    if cfg.sigma == 0.0:
        # every sample is identical: one integrate() call is the mean, and
        # the variance is exactly zero
        mean = integrate(np.array([x1, x2, 0.0, 0.0]), cfg).states[:, :2]
        return Trajectory(times, mean), Trajectory(times, np.zeros_like(mean))
    normals = keyed_normals(cfg.seed, TAG_PROJECTION, cfg.n_mc, 2)
    y0 = np.vstack([np.full(cfg.n_mc, x1), np.full(cfg.n_mc, x2), cfg.sigma * normals.T])
    mean, var, dev = np.empty((cfg.n_points, 2)), np.empty((cfg.n_points, 2)), np.empty((2, cfg.n_mc))
    # a diverging state or moment is reported by the checks below, not by a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        for y, m, v in zip(_rk4_batch(y0, cfg), mean, var):
            resolved = y[::2]
            np.true_divide(np.add.reduce(resolved, 1, out=m), cfg.n_mc, out=m)
            np.square(np.subtract(resolved, m[:, None], out=dev), out=dev)
            np.true_divide(np.add.reduce(dev, 1, out=v), cfg.n_mc, out=v)
    # finite states whose moments overflow
    check_finite(np.stack([mean, var], axis=1)[None], "moments became non-finite", steps=True)
    return Trajectory(times, mean), Trajectory(times, var)
