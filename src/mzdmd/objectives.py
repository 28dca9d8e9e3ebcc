"""Fitting objectives for one-step transition operators.

Three residual objectives over snapshot pairs: the plain least-squares fit,
the memory-aware objective whose correction columns come from the
discretized memory-kernel recursion, and its first-order-in-time
simplification.  Gradients are reverse mode: each memory term's forward
pass returns its columns together with a pullback, the map from a
cotangent of those columns to a gradient in A, so one forward pass serves
the value, the memory matrices and the gradient.  Every computation runs on
a stack of operators (n_u, d, d), a single operator being a stack of one, so
an ensemble of fits is one array computation.  A central-difference
gradient and a direct quadrature evaluation of the memory kernel serve as
independent oracles.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DivergenceError, NumericalError, SingularMatrixError, failing_slices

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

    The memory-aware kinds power their chains in one buffer, built at the
    first evaluation and kept for the objective's life, so one objective is
    not for concurrent calls.  mz-dmd powers one chain of the block
    lower-triangular operator ``[[W M(A), 0], [W, W]]``.
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

    @functools.cached_property
    def _chains(self) -> _Chains:
        """The power-chain buffer of the memory term: one chain per memory
        row, of length 2d for mz-dmd's block operator and d for t-model."""
        n_u, d = self.memory.reshape(-1, self.snapshots.dim).shape
        return _Chains((n_u, 2 * d if self.kind == MZ_DMD else d), self.snapshots.cols)


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
    """
    a = np.asarray(a, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-2:] != (d, d):
        raise ValueError("operator shape does not match the snapshot dimension")
    if n is None:
        return a.reshape(-1, d, d), None
    n = np.asarray(n, dtype=float)
    if n.shape != a.shape[:-1]:
        raise ValueError("need one memory vector per operator")
    if not np.all(np.isfinite(n)):
        raise ValueError("memory must be finite")
    return a.reshape(-1, d, d), n.reshape(-1, d)


def _columns(chain: np.ndarray) -> np.ndarray:
    """A chain laid out (cols, ..., d) as a C-contiguous copy in (..., d, cols)."""
    return np.moveaxis(chain, 0, -1).copy()


class _Chains:
    """Working buffer of the power chains for one stack shape (..., d) and
    one column count: (cols + 1, ..., d) rows that the forward chains and the
    backward sweep share, their row views already paired for each loop, and
    the sweep's scratch vector.  Nothing a chain returns aliases it.

    The views and the scratch vector drop the stack's size-1 axes, and the
    (..., d, d) matrices take ``matrix_shape`` to match, since numpy's
    per-call set-up grows with the loop axes.  ``matvec`` makes each step:
    ``np.dot`` for one d >= 2 matrix, the same BLAS gemv with less set-up,
    and ``np.matvec`` otherwise (numpy's ``dot`` takes a 1 x 1 matrix as a
    scalar, which keeps a -0.0 that gemv makes +0.0)."""

    def __init__(self, stack: tuple[int, ...], cols: int):
        self.rows = np.empty((cols + 1,) + stack)
        lead, d = tuple(k for k in stack[:-1] if k != 1), stack[-1]
        self.matrix_shape = lead + (d, d)
        views = list(self.rows.reshape((cols + 1,) + lead + (d,)))
        self.forward = list(zip(views[:cols - 1], views[1:cols]))
        self.backward = list(zip(views[cols:1:-1], views[cols - 1:0:-1]))
        self.step = np.empty(lead + (d,))
        self.matvec = np.dot if not lead and d > 1 else np.matvec


def _power_columns(m: np.ndarray, v: np.ndarray, cols: int,
                   chains: _Chains | None = None) -> np.ndarray:
    """The chains ``x_j = M^j v`` for j = 0..cols-1 over a stack: M is
    (..., d, d), the rows v (..., d) broadcast against it, and the columns
    come back as (..., d, cols).  Each step is one gemv, ``chains.matvec``,
    between rows of ``chains``, a fresh buffer when None."""
    chains = chains or _Chains(m.shape[:-1], cols)
    chains.rows[0] = v
    matvec, m = chains.matvec, m.reshape(chains.matrix_shape)
    for prev, cur in chains.forward:
        matvec(m, prev, cur)
    return _columns(chains.rows[:cols])


def _power_pullback(m: np.ndarray, x: np.ndarray, c: np.ndarray,
                    chains: _Chains | None = None) -> np.ndarray:
    """Gradient in M of ``<c, x>`` for the chains ``x = _power_columns(M, v, cols)``.

    One backward sweep ``p_j = c_j + M^T p_{j+1}`` gives
    ``sum_{j >= 1} p_j x_{j-1}^T`` for every slice of the stack (..., d, d);
    the cotangent c (..., e, cols) broadcasts against it and fills the last
    e rows of each chain, the others starting at zero.  The rows of
    ``chains`` (a fresh buffer when None) start out holding the cotangent,
    so each step is one gemv, ``chains.matvec``, into the scratch vector
    and one contiguous add into ``p_j``.  A slice whose chains are all zero
    has an exactly zero gradient, even where its sweep overflows.
    """
    cols, e = c.shape[-1], c.shape[-2]
    chains = chains or _Chains(m.shape[:-1], cols)
    p, step = chains.rows, chains.step
    rows = np.moveaxis(p[:cols], 0, -1)
    rows[..., :-e, :] = 0.0
    rows[..., -e:, :] = c
    p[cols] = 0.0  # starts the sweep
    matvec, add, mt = chains.matvec, np.add, m.reshape(chains.matrix_shape).mT
    for nxt, cur in chains.backward:
        matvec(mt, nxt, step)
        add(step, cur, cur)
    g = _columns(p[:cols])[..., 1:] @ x[..., :-1].mT
    g[~x.any(axis=(-2, -1))] = 0.0  # the sweep may overflow to inf, and inf * 0 is NaN
    return g


def _mz_memory(a, n, cols, chains=None):
    """Columns of :func:`mz_memory_matrix` for a stack A (n_u, d, d) and
    memory rows n (n_u, d), and their pullback, the map from a cotangent of
    the columns to a gradient in A.  Column j is ``-2 B z_j``, with
    ``B = (A + I)^{-1} = (I + M) / 4`` and z the last d rows of the chain of
    ``[[W M, 0], [W, W]]`` from the row (n, 0), ``z_{j+1} = W (z_j + (W M)^j n)``,
    in ``chains`` (n_u, 2d) when given."""
    d = a.shape[-1]
    a_shift = a - np.eye(d)
    w = linalg.expm(a_shift)
    m_map = cayley_M(a)
    b = 0.25 * (np.eye(d) + m_map)
    k = np.zeros(a.shape[:-2] + (2 * d, 2 * d))
    k[..., :d, :d] = w @ m_map
    k[..., d:, :d] = k[..., d:, d:] = w
    uz = _power_columns(k, np.concatenate([n, np.zeros_like(n)], axis=-1), cols, chains)
    z = uz[..., d:, :]

    def pullback(c):
        g = _power_pullback(k, uz, (-2.0 * b.mT) @ c, chains)
        g_uu = g[..., :d, :d]
        g_w = g_uu @ m_map.mT + g[..., d:, :d] + g[..., d:, d:]
        # B = (A + I)^{-1} gives the columns and M = 4 B - I: dB = -B dA B
        g_b = -2.0 * (c @ z.mT) + 4.0 * (w.mT @ g_uu)
        return linalg.expm_frechet(a_shift.mT, g_w)[1] - b.mT @ g_b @ b.mT

    return (-2.0 * b) @ z, pullback


def _tmodel_memory(a, n, dt, cols, chains=None):
    """Columns of :func:`tmodel_memory_matrix` for a stack and their pullback,
    which weights its cotangent in place; the chain runs in ``chains``
    (n_u, d) when given."""
    a_shift = a - np.eye(a.shape[-1])
    w = linalg.expm(a_shift)
    x = _power_columns(w, n, cols, chains)
    weights = dt * np.arange(cols)

    def pullback(c):
        g_w = _power_pullback(w, x, np.multiply(c, weights, out=c), chains)
        return linalg.expm_frechet(a_shift.mT, g_w)[1]

    return x * weights, pullback


def mz_memory_matrix(a: np.ndarray, n: np.ndarray, cols: int) -> np.ndarray:
    """Memory-correction columns of the memory-aware objective.

    Column j (j >= 1) is ``(A - I)^{-1} W^j (M(A)^j - I) n`` with
    ``W = expm(A - I)`` and ``M`` the transfer map of :func:`cayley_M`;
    column 0 is exactly zero.  As ``M - I = -2 (A - I)(A + I)^{-1}``, the
    columns are the telescoped sums ``-2 (A + I)^{-1} W^j sum_{k<j} M^k n``,
    finite at an eigenvalue 1 of A, where they take their limit.  The sum is
    powered through ``(W M)^k``: powering W and M apart loses every digit
    where their spectra pull apart.  A stack A (n_u, d, d) gives (n_u, d, cols).
    """
    if cols < 1:
        raise ValueError("cols must be at least 1")
    f = _mz_memory(*_stacks(a, n, np.shape(a)[-1]), cols)[0]
    return f[0] if np.ndim(a) == 2 else f


def tmodel_memory_matrix(a: np.ndarray, n: np.ndarray, dt: float, cols: int) -> np.ndarray:
    """First-order memory columns ``g_j = j dt W^j n``; column 0 is zero.

    No transfer map, so no solve, is involved, and the chain has d rows
    where the full memory recursion's has 2d, which is what makes this
    objective cheaper.  A stack A (n_u, d, d) gives (n_u, d, cols).
    """
    if cols < 1:
        raise ValueError("cols must be at least 1")
    if not dt > 0:
        raise ValueError("dt must be positive")
    g = _tmodel_memory(*_stacks(a, n, np.shape(a)[-1]), dt, cols)[0]
    return g[0] if np.ndim(a) == 2 else g


def _residual(obj: Objective, a: np.ndarray):
    """Snapshot residuals at A, as (n_u, d, cols) with n_u = 1 for a 2-D A,
    and the pullback of their memory term.

    The pullback maps a cotangent of the residuals to the gradient of the
    memory term in A, scaling the cotangent in place, so it takes an array
    the caller no longer needs; it is None for the plain objective.
    """
    s = obj.snapshots
    a, n = _stacks(a, None if obj.kind == PLAIN_DMD else obj.memory, s.dim)
    r = s.x_plus - a @ s.x_minus
    if obj.kind == MZ_DMD:
        scale = s.dt**2
        cols, pullback = _mz_memory(a, n, s.cols, obj._chains)
    elif obj.kind == T_MODEL:
        scale = -s.dt
        cols, pullback = _tmodel_memory(a, n, s.dt, s.cols, obj._chains)
    else:
        return r, None
    return r + scale * cols, lambda c: pullback(np.multiply(c, scale, out=c))


def _check_finite(x: np.ndarray, a: np.ndarray, what: str) -> None:
    """Raise :class:`DivergenceError` naming the slices of an (n_u, ...)
    result that hold a non-finite entry; for a 2-D A it names none."""
    bad = ~np.isfinite(x.reshape(len(x), -1)).all(axis=1)
    if np.any(bad):
        where, indices = failing_slices(bad if np.ndim(a) == 3 else bad[0])
        raise DivergenceError(f"objective {what} is not finite{where}", indices=indices)


def _forward(obj: Objective, a: np.ndarray):
    """Residuals, memory pullback and per-slice values of ``obj`` at A.

    The values are squared Frobenius norms, summed in the order a flat sum
    over one slice takes.  Overflow raises no numpy warning; a non-finite
    value raises :class:`DivergenceError` naming its slices instead.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        r, pullback = _residual(obj, a)
        value = np.sum((r * r).reshape(r.shape[0], -1), axis=1)
    _check_finite(value, a, "value")
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
    The pullback runs one backward sweep over its power chains, uses the
    inverse rule ``d(B^{-1}) = -B^{-1} dB B^{-1}`` for the (A + I) inverse
    of the forward pass, so it solves nothing, and takes the adjoint of the
    Frechet derivative of ``expm(A - I)``, which is that derivative at the
    transpose, in one :func:`linalg.expm_frechet` call.

    A 2-D operator gives a float and a (d, d) gradient.  A stack (n_u, d, d),
    with one memory vector per slice, is evaluated as one computation and
    gives (n_u,) values and (n_u, d, d) gradients, each slice independent
    of the others.  A non-finite value raises :class:`DivergenceError`
    naming its slices before the pullback runs, and a non-finite gradient
    raises it after, neither with a numpy warning; an overflow of the
    exponential's Frechet derivative counts as a non-finite gradient, while
    a :class:`SingularMatrixError` passes through.

    The forward chain and the sweep take turns in the objective's one
    buffer, kept between calls: (cols + 1, n_u, 2d) floats for mz-dmd's
    block chain, (cols + 1, n_u, d) for t-model's; each step is one BLAS
    gemv.  Counting that buffer, mz-dmd peaks at about 8 arrays of
    (cols, n_u, d) floats, 8 * n_u * d * cols * 8 bytes (6.5 MB traced at
    n_u = 100, d = 2 and 500 columns, 1.6 MB of it the buffer), t-model at
    about 5 (4.1 MB, 0.8 MB of it the buffer).
    """
    s = obj.snapshots
    r, pullback, value = _forward(obj, a)
    with np.errstate(over="ignore", invalid="ignore"):
        grad = -2.0 * (r @ s.x_minus.T)
        if pullback is not None:
            r *= 2.0
            try:
                grad += pullback(r)
            except NumericalError as exc:
                if isinstance(exc, SingularMatrixError):
                    raise
                # the exponential's Frechet derivative overflowed in these slices
                grad[exc.indices] = np.inf
    _check_finite(grad, a, "gradient")
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


def _kernel_inputs(lambda_bar, m0_hat, steps, dt):
    lam = np.asarray(lambda_bar, dtype=complex).ravel()
    m0 = np.asarray(m0_hat, dtype=complex).ravel()
    if lam.size != m0.size:
        raise ValueError("lambda_bar and m0_hat must have the same length")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if not dt > 0:
        raise ValueError("dt must be positive")
    denom = 1.0 + 0.5 * dt * lam
    if np.any(np.abs(denom) < 1e-14):
        raise SingularMatrixError("I + dt/2 Lambda is singular")
    return lam, m0, denom


def memory_kernel_closed(lambda_bar, m0_hat, steps: int, dt: float) -> np.ndarray:
    """Memory coefficients by the closed one-step recursion in the eigenbasis.

    Applies ``m_hat_k = exp(dt Lambda) M(Lambda) m_hat_{k-1}`` with the
    diagonal transfer map ``M(Lambda) = I - dt Lambda (I + dt/2 Lambda)^{-1}``
    and returns the stacked vectors for k = 1..steps.
    """
    lam, m0, denom = _kernel_inputs(lambda_bar, m0_hat, steps, dt)
    step_factor = np.exp(dt * lam) * (1.0 - dt * lam / denom)
    out = np.empty((steps, lam.size), dtype=complex)
    cur = m0
    for k in range(steps):
        cur = step_factor * cur
        out[k] = cur
    return out


def memory_kernel_trapezoid(lambda_bar, m0_hat, steps: int, dt: float) -> np.ndarray:
    """Memory coefficients by direct evaluation of the discretized kernel
    equation, re-summing the full history at every step.

    Quadratic-cost oracle for :func:`memory_kernel_closed`; the two must
    agree to roundoff.
    """
    lam, m0, denom = _kernel_inputs(lambda_bar, m0_hat, steps, dt)
    inv = 1.0 / denom
    hist = np.empty((steps + 1, lam.size), dtype=complex)
    hist[0] = m0
    for k in range(1, steps + 1):
        acc = np.zeros(lam.size, dtype=complex)
        for i in range(1, k):
            acc += np.exp(lam * (k - i) * dt) * hist[i]
        hist[k] = inv * (np.exp(lam * k * dt) * (1.0 - 0.5 * dt * lam) * m0 - dt * lam * acc)
    return hist[1:]
