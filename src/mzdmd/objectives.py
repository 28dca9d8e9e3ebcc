"""Fitting objectives for one-step transition operators.

Three residual objectives over snapshot pairs: the plain least-squares fit,
the memory-aware objective whose correction columns come from the
discretized memory-kernel recursion, and its first-order-in-time
simplification.  Gradients are reverse mode: each memory term's forward
pass returns its columns together with a pullback, the map from a
cotangent of those columns to a gradient in A, so one forward pass serves
the value, the memory matrices and the gradient.  The pullback walks the
doubling that filled the power chains back, level by level, so it touches
each column once, as the forward pass does.  Every computation runs on
a stack of operators (n_u, d, d), a single operator being a stack of one, so
an ensemble of fits is one array computation.  A central-difference
gradient serves as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import check_finite

PLAIN_DMD = "plain-dmd"
MZ_DMD = "mz-dmd"
T_MODEL = "t-model"
OBJECTIVE_KINDS = (PLAIN_DMD, MZ_DMD, T_MODEL)


@dataclass(frozen=True, eq=False)
class SnapshotPair:
    """Paired snapshot matrices in ascending time order.

    Column k of ``x_minus`` holds snapshot x_k and column k of ``x_plus``
    holds x_{k+1}; both are d x (m-1) for m snapshots sampled every ``dt``.
    The memory corrections vanish at the first step, which is what ties the
    memory column index to the snapshot index.
    """

    x_plus: np.ndarray
    x_minus: np.ndarray
    dt: float

    def __post_init__(self):
        xp = np.asarray(self.x_plus, dtype=float)
        xm = np.asarray(self.x_minus, dtype=float)
        object.__setattr__(self, "x_plus", xp)
        object.__setattr__(self, "x_minus", xm)
        if xp.ndim != 2 or xm.ndim != 2:
            raise ValueError("snapshot matrices must be 2-D")
        if xp.shape != xm.shape:
            raise ValueError("x_plus and x_minus must have the same shape")
        if xp.size == 0:
            raise ValueError("snapshot matrices must be nonempty")
        if not (np.all(np.isfinite(xp)) and np.all(np.isfinite(xm))):
            raise ValueError("snapshots must be finite")
        if not self.dt > 0:
            raise ValueError("dt must be positive")

    @classmethod
    def from_snapshots(cls, snapshots: np.ndarray, dt: float) -> "SnapshotPair":
        """Split a d x m matrix of consecutive snapshots into the pair."""
        x = np.asarray(snapshots, dtype=float)
        if x.ndim != 2 or x.shape[1] < 2:
            raise ValueError("need a 2-D matrix with at least two snapshot columns")
        return cls(x_plus=x[:, 1:], x_minus=x[:, :-1], dt=float(dt))

    @property
    def dim(self) -> int:
        return self.x_minus.shape[0]

    @property
    def cols(self) -> int:
        return self.x_minus.shape[1]


@dataclass(frozen=True, eq=False)
class Objective:
    """One of the three fitting objectives; plain-dmd ignores the memory.

    ``memory`` is the initialization of the memory term: one vector (d,) or
    a stack (n_u, d) of them, one per operator of a stacked fit.

    The memory-aware kinds power one chain a memory row by doubling, about
    log2(cols) batched matmuls a pass, and keep no state between calls.
    mz-dmd powers the block lower-triangular operator ``[[W M(A), 0], [W, W]]``.
    """

    kind: str
    snapshots: SnapshotPair
    memory: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in OBJECTIVE_KINDS:
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if self.memory is None:
            if self.kind != PLAIN_DMD:
                raise ValueError(f"{self.kind} requires a memory initialization")
            return
        n = np.asarray(self.memory, dtype=float)
        object.__setattr__(self, "memory", n)
        if n.ndim not in (1, 2) or n.shape[-1] != self.snapshots.dim:
            raise ValueError("memory must be (d,) or (n_u, d) with d the snapshot dimension")
        if n.size == 0 or not np.all(np.isfinite(n)):
            raise ValueError("memory must be nonempty and finite")


def dmd_fit(s: SnapshotPair) -> np.ndarray:
    """Least-squares one-step operator: the global minimizer of
    ``||x_plus - A x_minus||_F^2``, computed as ``x_plus @ pinv(x_minus)``."""
    return s.x_plus @ linalg.pinv(s.x_minus)


def cayley_M(a: np.ndarray) -> np.ndarray:
    """Transfer map ``I - 2 (A - I)(A + I)^{-1}`` of the memory recursion.

    Algebraically equal to ``(3I - A)(A + I)^{-1}``; singular exactly when A
    has eigenvalue -1.  An (n_u, d, d) stack gives the map of every slice.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError("cayley_M requires a square matrix or a stack of them")
    eye = np.eye(a.shape[-1])
    # right division: X (A + I) = (A - I)  =>  X = solve((A+I)^T, (A-I)^T)^T
    x = linalg.solve((a + eye).mT, (a - eye).mT).mT
    return eye - 2.0 * x


def _stacks(a, n: np.ndarray | None, d: int):
    """A as an (n_u, d, d) stack and the memory as (n_u, d) rows.

    A single operator (d, d) is a stack of one and takes one memory vector
    (d,); a stack (n_u, d, d) takes one memory vector per slice, (n_u, d).
    The operator must be finite.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-2:] != (d, d):
        raise ValueError("operator shape does not match the snapshot dimension")
    if not np.all(np.isfinite(a)):
        raise ValueError("operator must be finite")
    if n is None:
        return a.reshape(-1, d, d), None
    n = np.asarray(n, dtype=float)
    if n.shape != a.shape[:-1]:
        raise ValueError("need one memory vector per operator")
    return a.reshape(-1, d, d), n.reshape(-1, d)


_NO_EXPONENT = -(2**40)  # below any exponent a term of a finite power can reach


def _powers(m: np.ndarray, cols: int):
    """The powers ``M^s`` for s = 1, 2, 4, ... below ``cols`` of a stack
    (..., d, d), each as ``(s, P, e)``: P is ``M^s`` and e None while the
    squares stay finite; from the first square that overflows on,
    ``M^s = 2^e P`` row by row, with integer exponents e (..., d).

    Each power squares the last; no power beyond the last one used is
    formed.  With exponents, row i of the left factor of ``2^e P 2^e P`` is
    scaled by the power of two that brings its largest nonzero term to at
    most 1, and each row of the square to peak in [0.5, 1).  So a row's
    exponent comes from the entries it meets: a chain confined to a block
    of M keeps its own scale where another block's powers overflow, and a
    zero entry of a chain never meets an infinite one.  Scaling by a power
    of two is exact, so this moves no bit a plain square keeps in range.
    The caller holds the ``np.errstate`` under which a square may overflow.
    """
    p, e, s = m, None, 1
    while s < cols:
        yield s, p, e
        s *= 2
        if s >= cols:
            return
        if e is None:
            square = p @ p
            if np.isfinite(square).all():
                p = square
                continue
            e = np.zeros(p.shape[:-1], dtype=np.int64)
        mant, ex = np.frexp(p)
        top = np.max(ex + e[..., None, :], axis=-1, where=mant != 0, initial=_NO_EXPONENT)
        r = np.ldexp(p, e[..., None, :] - top[..., None]) @ p
        peak = np.frexp(np.abs(r).max(axis=-1))[1]
        p, e = np.ldexp(r, -peak[..., None]), e + top + peak


def _power_columns(m: np.ndarray, v: np.ndarray, cols: int) -> np.ndarray:
    """The chains ``x_j = M^j v`` for j = 0..cols-1 over a stack: M is
    (..., d, d), the rows v (..., d) broadcast against it, and the columns
    come back as (..., d, cols).  Doubling fills them: with columns 0..s-1
    in place, one product by ``M^s`` from :func:`_powers` writes columns
    s..2s-1, its rows scaled by ``2^e`` where the power carries exponents,
    so there are about log2(cols) levels."""
    x = np.empty(m.shape[:-1] + (cols,))
    x[..., 0] = v
    for s, p, e in _powers(m, cols):
        level = x[..., s:2 * s]
        np.matmul(p, x[..., :level.shape[-1]], out=level)
        if e is not None:
            np.ldexp(level, e[..., None], out=level)
    return x


def _power_pullback(m: np.ndarray, x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Gradient in M of ``<c, x>`` for the chains ``x = _power_columns(M, v, cols)``.

    Reverse mode through the doubling.  Walking its levels from the last,
    level s takes the cotangent ``y = x_bar[s:s+n]`` of the columns it wrote,
    adds the direct adjoint ``y x[:n]^T`` of its power ``M^s`` and pushes
    ``(M^s)^T y`` back onto the cotangent of the first n columns; the
    power's adjoint then passes down the squaring that formed it, ``G_s =
    direct + G_2s (M^s)^T + (M^s)^T G_2s``, and G_1 is the gradient.  So
    each column is touched once, as in the forward pass.  Where a power from
    :func:`_powers` carries row exponents, ``2^e`` scales the cotangent
    side, ``P^T (2^e y)``, ``(G P^T) 2^e`` by column and ``P^T (2^e G)`` by
    row, never P, so a zero of the adjoint never meets an overflowing power.

    It runs for every slice of the stack (..., d, d); the cotangent c
    (..., r, cols) broadcasts against it and fills the last r rows of each
    chain, the others starting at zero.  A slice whose chains are all zero
    has an exactly zero gradient, even where its cotangent overflows.
    """
    cols, rows = c.shape[-1], c.shape[-2]
    x_bar = np.zeros(m.shape[:-1] + (cols,))
    x_bar[..., -rows:, :] = c
    g = np.zeros(m.shape)
    for s, p, e in reversed(list(_powers(m, cols))):
        y = x_bar[..., s:2 * s]
        n, pt = y.shape[-1], p.mT
        if e is None:
            g = y @ x[..., :n].mT + g @ pt + pt @ g
        else:
            g = y @ x[..., :n].mT + np.ldexp(g @ pt, e[..., None, :]) + pt @ np.ldexp(g, e[..., None])
            y = np.ldexp(y, e[..., None])
        x_bar[..., :n] += pt @ y
    g[~x.any(axis=(-2, -1))] = 0.0  # a pushed cotangent may overflow to inf, and inf * 0 is NaN
    return g


def _mz_memory(a, n, cols):
    """Columns of :func:`mz_memory_matrix` for a stack A (n_u, d, d) and
    memory rows n (n_u, d), and their pullback, the map from a cotangent of
    the columns to a gradient in A.  Column j is ``-2 B z_j``, with
    ``B = (A + I)^{-1} = (I + M) / 4`` and z the last d rows of the chain of
    ``[[W M, 0], [W, W]]`` from the row (n, 0), ``z_{j+1} = W (z_j + (W M)^j n)``."""
    d = a.shape[-1]
    a_shift = a - np.eye(d)
    w = linalg.expm(a_shift)
    m_map = cayley_M(a)
    b = 0.25 * (np.eye(d) + m_map)
    k = np.zeros(a.shape[:-2] + (2 * d, 2 * d))
    k[..., :d, :d] = w @ m_map
    k[..., d:, :d] = k[..., d:, d:] = w
    uz = _power_columns(k, np.concatenate([n, np.zeros_like(n)], axis=-1), cols)
    z = uz[..., d:, :]

    def pullback(c):
        g = _power_pullback(k, uz, (-2.0 * b.mT) @ c)
        g_uu = g[..., :d, :d]
        g_w = g_uu @ m_map.mT + g[..., d:, :d] + g[..., d:, d:]
        # B = (A + I)^{-1} gives the columns and M = 4 B - I: dB = -B dA B
        g_b = -2.0 * (c @ z.mT) + 4.0 * (w.mT @ g_uu)
        return linalg.expm_frechet(a_shift.mT, g_w) - b.mT @ g_b @ b.mT

    return (-2.0 * b) @ z, pullback


def _tmodel_memory(a, n, dt, cols):
    """Columns of :func:`tmodel_memory_matrix` for a stack and their pullback,
    which weights its cotangent in place."""
    a_shift = a - np.eye(a.shape[-1])
    w = linalg.expm(a_shift)
    x = _power_columns(w, n, cols)
    weights = dt * np.arange(cols)

    def pullback(c):
        g_w = _power_pullback(w, x, np.multiply(c, weights, out=c))
        return linalg.expm_frechet(a_shift.mT, g_w)

    return x * weights, pullback


def _memory_matrix(columns, a, n, cols: int) -> np.ndarray:
    """``columns(A, n)`` on stacks from a caller's raw memory, which must be
    finite; columns that overflow raise :func:`errors.check_finite`'s
    :class:`DivergenceError`, not a numpy warning."""
    if cols < 1:
        raise ValueError("cols must be at least 1")
    a_stack, n = _stacks(a, n, np.shape(a)[-1])
    if not np.all(np.isfinite(n)):
        raise ValueError("memory must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        f = columns(a_stack, n)
    check_finite(f, "memory columns are not finite")
    return f[0] if np.ndim(a) == 2 else f


def mz_memory_matrix(a: np.ndarray, n: np.ndarray, cols: int) -> np.ndarray:
    """Memory-correction columns of the memory-aware objective.

    Column j (j >= 1) is ``(A - I)^{-1} W^j (M(A)^j - I) n`` with
    ``W = expm(A - I)`` and ``M`` the transfer map of :func:`cayley_M`;
    column 0 is exactly zero.  As ``M - I = -2 (A - I)(A + I)^{-1}``, the
    columns are the telescoped sums ``-2 (A + I)^{-1} W^j sum_{k<j} M^k n``,
    finite at an eigenvalue 1 of A, where they take their limit.  The sum is
    powered through ``(W M)^k``: powering W and M apart loses every digit
    where their spectra pull apart.  A stack A (n_u, d, d) gives (n_u, d, cols).
    Columns that overflow raise :class:`DivergenceError` naming their slices.
    """
    return _memory_matrix(lambda a, n: _mz_memory(a, n, cols)[0], a, n, cols)


def tmodel_memory_matrix(a: np.ndarray, n: np.ndarray, dt: float, cols: int) -> np.ndarray:
    """First-order memory columns ``g_j = j dt W^j n``; column 0 is zero.

    No transfer map, so no solve, is involved, and the chain has d rows
    where the full memory recursion's has 2d, which is what makes this
    objective cheaper.  A stack A (n_u, d, d) gives (n_u, d, cols).
    Columns that overflow raise :class:`DivergenceError` naming their slices.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    return _memory_matrix(lambda a, n: _tmodel_memory(a, n, dt, cols)[0], a, n, cols)


def _forward(obj: Objective, a: np.ndarray):
    """Snapshot residuals of ``obj`` at A, as (n_u, d, cols) with n_u = 1
    for a 2-D A, the pullback of their memory term, and the per-slice
    values: squared Frobenius norms, summed in the order a flat sum over one
    slice takes.  Overflow raises no numpy warning; a non-finite value
    raises :class:`DivergenceError` naming its slices instead.

    The pullback maps a cotangent of the residuals to the gradient of the
    memory term in A, scaling the cotangent in place, so it takes an array
    the caller no longer needs; it is None for the plain objective.
    """
    s = obj.snapshots
    a, n = _stacks(a, None if obj.kind == PLAIN_DMD else obj.memory, s.dim)
    pullback = None
    with np.errstate(over="ignore", invalid="ignore"):
        r = s.x_plus - a @ s.x_minus
        if obj.kind == MZ_DMD:
            scale, (cols, memory) = s.dt**2, _mz_memory(a, n, s.cols)
        elif obj.kind == T_MODEL:
            scale, (cols, memory) = -s.dt, _tmodel_memory(a, n, s.dt, s.cols)
        if obj.kind != PLAIN_DMD:
            r += scale * cols
            pullback = lambda c: memory(np.multiply(c, scale, out=c))  # noqa: E731
        value = np.sum((r * r).reshape(r.shape[0], -1), axis=1)
    check_finite(value, "objective value is not finite")
    return r, pullback, value


def objective_value(obj: Objective, a: np.ndarray) -> float | np.ndarray:
    """Squared Frobenius norm of the snapshot residual of ``obj`` at A.

    A 2-D operator gives a float; a stack (n_u, d, d) gives one value per
    slice as an (n_u,) array.  A non-finite value raises
    :class:`DivergenceError` naming its slices, with no numpy warning.
    """
    value = _forward(obj, a)[2]
    return float(value[0]) if np.ndim(a) == 2 else value


def objective_value_and_gradient(
    obj: Objective, a: np.ndarray
) -> tuple[float | np.ndarray, np.ndarray]:
    """Objective value and its exact gradient from one forward pass.

    Reverse mode: the forward pass builds the residual r; the gradient of
    ``||r||^2`` is ``-2 r x_minus^T`` plus the memory term's pullback of the
    cotangent 2r, formed by doubling r in place once the value is taken.
    The pullback runs the doubling of its power chains in reverse, uses the
    inverse rule ``d(B^{-1}) = -B^{-1} dB B^{-1}`` for the (A + I) inverse
    of the forward pass, so it solves nothing, and takes the adjoint of the
    Frechet derivative of ``expm(A - I)``, which is that derivative at the
    transpose, in one :func:`linalg.expm_frechet` call.

    A 2-D operator gives a float and a (d, d) gradient.  A stack (n_u, d, d),
    with one memory vector per slice, is evaluated as one computation and
    gives (n_u,) values and (n_u, d, d) gradients, each slice independent
    of the others.  :func:`errors.check_finite` raises a non-finite value's
    :class:`DivergenceError`, naming its slices, before the pullback runs,
    and a non-finite gradient's after, with no numpy warning.  The errors of
    :mod:`linalg` pass through: an overflowing exponential, in the forward
    pass or its Frechet derivative alike, raises :func:`linalg.expm`'s
    :class:`NumericalError` naming its slices, and the solve against (A + I)
    is the only source of a :class:`SingularMatrixError`.

    The forward chain writes each doubling level into its one array with
    ``out=``, and the reverse pass gathers the chain's cotangent in one array
    of the same size: (n_u, 2d, cols) floats for mz-dmd's block chain, (n_u,
    d, cols) for t-model's.  mz-dmd peaks at about 7.3 arrays of (n_u, d,
    cols) floats, 7.3 * n_u * d * cols * 8 bytes (5.9 MB traced at n_u = 100,
    d = 2 and 500 columns), t-model at about 4.0 (3.2 MB).
    """
    s = obj.snapshots
    r, pullback, value = _forward(obj, a)
    with np.errstate(over="ignore", invalid="ignore"):
        grad = -2.0 * (r @ s.x_minus.T)
        if pullback is not None:
            r *= 2.0
            grad += pullback(r)
    check_finite(grad, "objective gradient is not finite")
    if np.ndim(a) == 2:
        return float(value[0]), grad[0]
    return value, grad


def fd_gradient(obj, a: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Entrywise central-difference gradient.

    ``obj`` may be an :class:`Objective` or any callable mapping a matrix to
    a scalar; this is the verification oracle for the analytic gradients and
    is never used inside the optimizer.
    """
    if not h > 0:
        raise ValueError("h must be positive")
    f = obj if callable(obj) else (lambda x: objective_value(obj, x))
    a = np.asarray(a, dtype=float)
    g = np.zeros_like(a)
    for idx in np.ndindex(*a.shape):
        e = np.zeros_like(a)
        e[idx] = h
        g[idx] = (f(a + e) - f(a - e)) / (2.0 * h)
    return g
