"""Coupled-oscillator benchmark: dynamics, RK4 integration, and the Monte
Carlo projection over unresolved initial conditions.

The system couples two unit oscillators through their positions; the first
oscillator (y1, y2) is measured, the second (y3, y4) is hidden and its
initial state is modeled statistically.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import platform
import shutil
import tempfile
from dataclasses import dataclass
from math import isfinite
from pathlib import Path

import numpy as np

from .errors import DivergenceError, check_finite

# RK4 sub-steps per grid step of every integration
SUBSTEPS = 10

# the compiled stepper of the projection: its source, which ships with the
# package, the flags that keep its arithmetic numpy's, and its build cache,
# which the loader expands, so import looks up no home directory
RK4_SOURCE = Path(__file__).with_name("rk4.c")
RK4_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
RK4_CACHE = Path("~/.cache/mzdmd")

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


def _rk4_substeps(p, v, q, u, h):
    """SUBSTEPS classical RK4 steps of h from the state (y1, y2, y3, y4) =
    (p, v, q, u), positions p, q and velocities v, u; returns the new state.

    The right-hand side is (y2, -y1(1 + y3^2), y4, -y3(1 + y1^2)): each
    position's derivative is its velocity, so only the two accelerations are
    computed per stage, and an acceleration -p (1 + q^2) is computed as
    p * (-1 - q^2).  Negation is exact and rounding is symmetric in sign, so
    the two are the same float, signed zeros included.  The update sums in
    order, y + h/6 (((k1 + 2 k2) + 2 k3) + k4), and each stage starts from
    y + (h/2) k or y + h k: the arithmetic of the right-hand side and the
    RK4 update evaluated on a whole state array.

    Only ``+``, ``-``, ``*`` and ``** 2`` are used, so the same code steps
    Python floats (``integrate``) and numpy rows (``_rk4_batch`` without its
    compiled kernel).  On a float ``q ** 2`` is libm ``pow``, as numpy's
    float64 scalar power is, and an overflowing square raises
    OverflowError; on an array it is ``np.square``, a product, so a batch
    column may differ from its ``integrate`` run in the last bits.
    ``rk4.c`` transliterates this function with products and gives the bits
    of the numpy rows, as each operation is one IEEE double rounding in C
    as in numpy, in each of its AVX-512F, AVX2 and baseline clones, provided
    it is built with ``-ffp-contract=off``, which forbids fusing a product
    and a sum (AVX-512F has fused multiply-adds, and its clone would use
    them), and without ``-ffast-math``, which would reassociate and also
    turn on flush-to-zero for subnormals.

    The committed references in ``perfbench/references`` freeze this
    arithmetic, as the oscillator is chaotic at large hidden amplitudes: a
    one-ulp change to an initial y3 moved the worst of 1000 samples by
    1.7e-3 and the projection's mean by 1.9e-6 at t = 50, so a
    reassociation, a fused update or another sub-step count should be
    expected to move the mean beyond their tolerance.
    """
    hh, h6 = 0.5 * h, h / 6.0
    for _ in range(SUBSTEPS):
        p1, v1, q1, u1 = p, v, q, u
        a1, b1 = p1 * (-1.0 - q1 ** 2), q1 * (-1.0 - p1 ** 2)
        p2, v2, q2, u2 = p1 + hh * v1, v1 + hh * a1, q1 + hh * u1, u1 + hh * b1
        a2, b2 = p2 * (-1.0 - q2 ** 2), q2 * (-1.0 - p2 ** 2)
        p3, v3, q3, u3 = p1 + hh * v2, v1 + hh * a2, q1 + hh * u2, u1 + hh * b2
        a3, b3 = p3 * (-1.0 - q3 ** 2), q3 * (-1.0 - p3 ** 2)
        p4, v4, q4, u4 = p1 + h * v3, v1 + h * a3, q1 + h * u3, u1 + h * b3
        a4, b4 = p4 * (-1.0 - q4 ** 2), q4 * (-1.0 - p4 ** 2)
        p = p1 + h6 * (v1 + 2.0 * v2 + 2.0 * v3 + v4)
        v = v1 + h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        q = q1 + h6 * (u1 + 2.0 * u2 + 2.0 * u3 + u4)
        u = u1 + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
    return p, v, q, u


def integrate(s0: np.ndarray, cfg: SimConfig) -> Trajectory:
    """Integrate the oscillator from one state ``s0`` (4,) over the cfg time
    grid with :func:`_rk4_substeps` on four Python floats; the trajectory's
    states are (n_points, 4).  A state that overflows or becomes non-finite
    raises :class:`DivergenceError` at its grid step."""
    s0 = np.asarray(s0, dtype=float)
    if s0.shape != (4,):
        raise ValueError("s0 must be one state (4,)")
    h = cfg.dt / SUBSTEPS
    rows = [s0.tolist()]
    for step in range(1, cfg.n_points):
        try:
            rows.append(_rk4_substeps(*rows[-1], h))
        except OverflowError:
            # float ** 2 raises where numpy's power returns inf
            raise DivergenceError(f"state overflowed at grid step {step}", step=step) from None
        if not all(map(isfinite, rows[-1])):
            raise DivergenceError(f"state became non-finite at grid step {step}", step=step)
    return Trajectory(times=cfg.times(), states=np.array(rows))


@functools.cache
def _rk4_kernel():
    """``rk4_advance`` of ``rk4.c`` through ctypes, or None; its ``isa``
    attribute names the clone the library resolved as it loaded, from
    ``rk4_isa``: ``"avx512f"``, ``"avx2"`` or ``"default"``.

    The first call builds the library with ``cc`` in a temporary directory
    inside ``RK4_CACHE`` and moves it into the cache, named by a hash of the
    source, the flags and the machine and by a hash of its own bytes: only a
    file whose bytes match its name is loaded, as ``dlopen`` maps a
    truncated library and the process faults on the missing pages.  A new
    build keeps the two most recently modified other ``rk4-*.so``, which
    other versions of the package sharing the cache may load.  With no
    ``cc``, no home directory, a failed build, an unwritable cache or a
    library that fails to load it returns None, and ``_rk4_batch`` steps in
    numpy to the same bits.  Nothing is built or loaded at import.
    """
    # hashlib and subprocess load only here: importing the package needs neither
    import hashlib
    import subprocess

    def digest(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()[:16]

    cc = shutil.which("cc")
    if cc is None:
        return None
    try:
        cache = RK4_CACHE.expanduser()  # RuntimeError without a home directory
        build = (RK4_SOURCE.read_bytes(), RK4_FLAGS, platform.system(), platform.machine())
        key = digest(repr(build).encode())

        def intact(lib: Path) -> bool:
            with contextlib.suppress(OSError):  # a build deleted since the glob
                return lib.stem == f"rk4-{key}-{digest(lib.read_bytes())}"
            return False

        lib = next(filter(intact, cache.glob(f"rk4-{key}-*.so")), None)
        if lib is None:
            cache.mkdir(parents=True, exist_ok=True)
            with tempfile.TemporaryDirectory(prefix="rk4-", dir=cache) as tmp:
                out = Path(tmp) / "rk4.so"
                subprocess.run([cc, *RK4_FLAGS, "-o", str(out), str(RK4_SOURCE)],
                               check=True, capture_output=True, timeout=120)
                lib = cache / f"rk4-{key}-{digest(out.read_bytes())}.so"
                os.replace(out, lib)
            with contextlib.suppress(OSError):  # a build that vanished before its stat
                for stale in sorted(set(cache.glob("rk4-*.so")) - {lib}, key=os.path.getmtime)[:-2]:
                    with contextlib.suppress(OSError):
                        stale.unlink()
        library = ctypes.CDLL(str(lib))
    except (OSError, RuntimeError, subprocess.SubprocessError):
        return None
    advance = library.rk4_advance
    advance.argtypes = (ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_int, ctypes.c_double)
    advance.restype = None
    library.rk4_isa.restype = ctypes.c_char_p
    advance.isa = library.rk4_isa().decode()
    return advance


def _rk4_batch(y0: np.ndarray, cfg: SimConfig):
    """RK4 on a batch of state columns (4, n); yields the batch at grid
    steps 0, ..., n_points - 1 as a (4, n) copy, never ``y0`` itself.

    Every yield is the same array, updated in place: a consumer copies or
    reduces it before the next step.  One call per grid step of the compiled
    ``rk4_advance`` (``rk4.c``, from :func:`_rk4_kernel`) advances it;
    without that kernel :func:`_rk4_substeps` does, on the rows, to the same
    bits and more slowly.  There an overflow warns unless the caller holds
    an ``np.errstate``; the kernel never warns.  A non-finite state raises
    :class:`DivergenceError` at its grid step.
    """
    h = cfg.dt / SUBSTEPS
    y = np.array(y0, dtype=float, order="C")  # C-contiguous rows, as the kernel reads them
    kernel = _rk4_kernel()
    if kernel is None:
        def advance():
            y[0], y[1], y[2], y[3] = _rk4_substeps(*y, h)
    else:
        advance = functools.partial(kernel, y.ctypes.data, y[0].size, SUBSTEPS, h)
    finite = np.empty(y.shape, dtype=bool)
    yield y
    for step in range(1, cfg.n_points):
        advance()
        if not np.isfinite(y, finite).all():
            raise DivergenceError(f"state became non-finite at grid step {step}", step=step)
        yield y


def projection_stepper(cfg: SimConfig) -> dict:
    """What steps :func:`monte_carlo_projection`'s batch under ``cfg``, as
    a run's report names it: nothing at sigma 0, where no batch is stepped
    and nothing is built; else ``{"rk4": "numpy"}`` without the compiled
    kernel, or ``{"rk4": "compiled", "rk4_isa": ...}`` with the clone it runs."""
    if cfg.sigma == 0.0:
        return {}
    kernel = _rk4_kernel()
    return {"rk4": "numpy"} if kernel is None else {"rk4": "compiled", "rk4_isa": kernel.isa}


def monte_carlo_projection(cfg: SimConfig, x_hat: tuple[float, float]) -> tuple[Trajectory, Trajectory]:
    """Ensemble average of the resolved dynamics over hidden initial conditions.

    Integrates ``cfg.n_mc`` full systems with the resolved initial values
    pinned at ``x_hat`` and (y3, y4) drawn per sample from N(0, sigma^2);
    returns the pointwise mean and pointwise population variance of the
    resolved coordinates.  Sample i draws (y3, y4) = ``sigma *
    rng_stream(seed, TAG_PROJECTION, i).standard_normal(2)`` bit for bit,
    all of them in one ``keyed_normals`` call.  The batch is reduced one
    grid step at a time, so memory is O(n_mc): one sum of the resolved rows
    serves both moments, each formed as numpy's ``mean`` and ``var`` form
    it.  A state or moment that becomes non-finite raises
    :class:`DivergenceError` with ``step`` set and no numpy warning, from
    :func:`errors.check_finite` for a moment.
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
            resolved = y[:2]
            np.true_divide(np.add.reduce(resolved, 1, out=m), cfg.n_mc, out=m)
            np.square(np.subtract(resolved, m[:, None], out=dev), out=dev)
            np.true_divide(np.add.reduce(dev, 1, out=v), cfg.n_mc, out=v)
    # finite states whose moments overflow
    check_finite(np.stack([mean, var], axis=1)[None], "moments became non-finite", steps=True)
    return Trajectory(times, mean), Trajectory(times, var)
