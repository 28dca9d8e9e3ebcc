"""Fitting objectives for one-step transition operators.

Three residual objectives over snapshot pairs: the plain least-squares fit,
the memory-aware objective whose correction columns come from the
discretized memory-kernel recursion, and its first-order-in-time
simplification.  Gradients are reverse mode: each memory term's forward
pass returns its columns together with a pullback, the map from a
cotangent of those columns to a gradient in A, so one forward pass serves
the value, the memory matrices and the gradient.  A central-difference
gradient and a direct quadrature evaluation of the memory kernel serve as
independent oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import SingularMatrixError

PLAIN_DMD = "plain-dmd"
MZ_DMD = "mz-dmd"
T_MODEL = "t-model"
OBJECTIVE_KINDS = (PLAIN_DMD, MZ_DMD, T_MODEL)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class MemoryInit:
    """Initialization vector for the memory term, with the scale it was drawn at."""

    n: np.ndarray
    sigma: float = 0.0

    def __post_init__(self):
        n = np.asarray(self.n, dtype=float).ravel()
        object.__setattr__(self, "n", n)
        if n.size == 0 or not np.all(np.isfinite(n)):
            raise ValueError("memory vector must be nonempty and finite")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")

    @classmethod
    def zero(cls, dim: int) -> "MemoryInit":
        return cls(n=np.zeros(dim), sigma=0.0)

    @classmethod
    def sample(cls, dim: int, sigma: float, rng: np.random.Generator) -> "MemoryInit":
        """Draw n from the centered normal with standard deviation sigma."""
        if sigma < 0:
            raise ValueError("sigma must be nonnegative")
        return cls(n=sigma * rng.standard_normal(dim), sigma=float(sigma))


@dataclass(frozen=True)
class Objective:
    """One of the three fitting objectives; plain-dmd ignores the memory."""

    kind: str
    snapshots: SnapshotPair
    memory: MemoryInit | None = None

    def __post_init__(self):
        if self.kind not in OBJECTIVE_KINDS:
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if self.kind != PLAIN_DMD:
            if self.memory is None:
                raise ValueError(f"{self.kind} requires a memory initialization")
            if self.memory.n.size != self.snapshots.dim:
                raise ValueError("memory vector length must match the snapshot dimension")


def dmd_fit(s: SnapshotPair, rtol: float = linalg.PINV_RTOL) -> np.ndarray:
    """Least-squares one-step operator: the global minimizer of
    ``||x_plus - A x_minus||_F^2``, computed as ``x_plus @ pinv(x_minus)``."""
    return s.x_plus @ linalg.pinv(s.x_minus, rtol)


def cayley_M(a: np.ndarray) -> np.ndarray:
    """Transfer map ``I - 2 (A - I)(A + I)^{-1}`` of the memory recursion.

    Algebraically equal to ``(3I - A)(A + I)^{-1}``; singular exactly when A
    has eigenvalue -1.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("cayley_M requires a square matrix")
    eye = np.eye(a.shape[0])
    # right division: X (A + I) = (A - I)  =>  X = solve((A+I)^T, (A-I)^T)^T
    x = linalg.solve((a + eye).T, (a - eye).T).T
    return eye - 2.0 * x


def _power_columns(m: np.ndarray, v: np.ndarray, cols: int) -> np.ndarray:
    """The chain ``x_j = M^j v`` for j = 0..cols-1 as the columns of a matrix."""
    x = np.empty((v.size, cols))
    x[:, 0] = v
    for j in range(1, cols):
        x[:, j] = m @ x[:, j - 1]
    return x


def _power_pullback(m: np.ndarray, x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Gradient in M of ``<c, x>`` for the chain ``x = _power_columns(M, v, cols)``.

    One backward sweep ``p_j = c_j + M^T p_{j+1}`` gives
    ``sum_{j >= 1} p_j x_{j-1}^T``.
    """
    p = np.empty_like(c)
    acc = np.zeros(c.shape[0])
    for j in range(c.shape[1] - 1, 0, -1):
        acc = c[:, j] + m.T @ acc
        p[:, j] = acc
    return p[:, 1:] @ x[:, :-1].T


def _mz_memory(a, mem, cols):
    """Columns of :func:`mz_memory_matrix` and their pullback, the map from a
    cotangent of the columns to a gradient in A."""
    eye = np.eye(a.shape[0])
    a_shift = a - eye
    w = linalg.expm(a_shift)
    m_map = cayley_M(a)
    k = w @ m_map
    y = _power_columns(k, mem.n, cols)
    x = _power_columns(w, mem.n, cols)
    f = linalg.solve(a_shift, y - x)

    def pullback(c):
        # columns S (y - x) with S = (A - I)^{-1}: dS = -S dA S
        c_hat = linalg.solve(a_shift.T, c)
        g_k = _power_pullback(k, y, c_hat)
        g_w = g_k @ m_map.T - _power_pullback(w, x, c_hat)
        # M = 4 B - I with B = (A + I)^{-1}, so dM = -4 B dA B
        b = linalg.solve(a + eye, eye)
        grad = -(c_hat @ f.T) - 4.0 * (b.T @ (w.T @ g_k) @ b.T)
        return grad + linalg.expm_frechet(a_shift.T, g_w)[1]

    return f, pullback


def _tmodel_memory(a, mem, dt, cols):
    """Columns of :func:`tmodel_memory_matrix` and their pullback."""
    a_shift = a - np.eye(a.shape[0])
    w = linalg.expm(a_shift)
    x = _power_columns(w, mem.n, cols)
    weights = dt * np.arange(cols)

    def pullback(c):
        g_w = _power_pullback(w, x, c * weights)
        return linalg.expm_frechet(a_shift.T, g_w)[1]

    return x * weights, pullback


def mz_memory_matrix(a: np.ndarray, mem: MemoryInit, cols: int) -> np.ndarray:
    """Memory-correction columns of the memory-aware objective.

    Column j (j >= 1) is ``(A - I)^{-1} W^j (M(A)^j - I) n`` with
    ``W = expm(A - I)`` and ``M`` the transfer map of :func:`cayley_M`;
    column 0 is exactly zero.  W and M(A) commute, so the columns are
    computed as ``(A - I)^{-1} ((W M)^j n - W^j n)``.  Powering the product
    stays accurate when the spectra of W and M pull apart; powering the two
    factors apart and multiplying them loses every digit there.
    """
    a = np.asarray(a, dtype=float)
    if cols < 1:
        raise ValueError("cols must be at least 1")
    return _mz_memory(a, mem, cols)[0]


def tmodel_memory_matrix(a: np.ndarray, mem: MemoryInit, dt: float, cols: int) -> np.ndarray:
    """First-order memory columns ``g_j = j dt W^j n``; column 0 is zero.

    No inverse of (A - I) is involved, which is what makes this objective
    cheaper than the full memory recursion.
    """
    a = np.asarray(a, dtype=float)
    if cols < 1:
        raise ValueError("cols must be at least 1")
    if not dt > 0:
        raise ValueError("dt must be positive")
    return _tmodel_memory(a, mem, dt, cols)[0]


def _residual(obj: Objective, a: np.ndarray):
    """Snapshot residual at A and the pullback of its memory term.

    The pullback maps a cotangent of the residual to the gradient of the
    memory term in A; it is None for the plain objective.
    """
    s = obj.snapshots
    r = s.x_plus - a @ s.x_minus
    if obj.kind == MZ_DMD:
        scale = s.dt**2
        cols, pullback = _mz_memory(a, obj.memory, s.cols)
    elif obj.kind == T_MODEL:
        scale = -s.dt
        cols, pullback = _tmodel_memory(a, obj.memory, s.dt, s.cols)
    else:
        return r, None
    return r + scale * cols, lambda c: pullback(scale * c)


def objective_value(obj: Objective, a: np.ndarray) -> float:
    """Squared Frobenius norm of the snapshot residual of ``obj`` at A."""
    a = np.asarray(a, dtype=float)
    r, _ = _residual(obj, a)
    return float(np.sum(r * r))


def objective_gradient(obj: Objective, a: np.ndarray) -> np.ndarray:
    """Exact gradient of :func:`objective_value` with respect to A."""
    return objective_value_and_gradient(obj, a)[1]


def objective_value_and_gradient(obj: Objective, a: np.ndarray) -> tuple[float, np.ndarray]:
    """Objective value and its exact gradient from one forward pass.

    Reverse mode: the forward pass builds the residual r; the gradient of
    ``||r||^2`` is ``-2 r x_minus^T`` plus the memory term's pullback of the
    cotangent 2r.  The pullback runs one backward sweep per power chain,
    uses the inverse rule ``d(B^{-1}) = -B^{-1} dB B^{-1}`` for the (A - I)
    and (A + I) inverses, and takes the adjoint of the Frechet derivative of
    ``expm(A - I)``, which is that derivative at the transpose, in one
    :func:`linalg.expm_frechet` call.
    """
    a = np.asarray(a, dtype=float)
    s = obj.snapshots
    if a.shape != (s.dim, s.dim):
        raise ValueError("operator shape does not match the snapshot dimension")
    r, pullback = _residual(obj, a)
    value = float(np.sum(r * r))
    grad = -2.0 * (r @ s.x_minus.T)
    if pullback is not None:
        grad = grad + pullback(2.0 * r)
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
