"""The three fitting objectives for one-step transition operators (plain
DMD, the memory-aware mz-dmd and its first-order simplification, t-model),
and the derivation they implement.  Every computation runs on a stack of
operators (n_u, d, d), a single operator being a stack of one.

The derivation goes from the Liouville equation, through the Mori-Zwanzig
memory kernel, to an optimization problem over the transition operator A,
then to its first-order approximation.  Each step names the functions that
compute it and the checks that hold it: rows of ``selfcheck.CHECKS``, or
tests as ``file::name``.  L = V Lam V^{-1} generates the resolved dynamics,
and n is the memory initialization.

1. Kernel recursion in the eigenbasis, off the path a fit takes: ``m_k =
   e^{dt Lam} M(Lam) m_{k-1}``, ``M(Lam) = I - dt Lam (I + dt/2 Lam)^{-1}``.
   computed by: tests/memory_kernels.py::memory_kernel_closed
   checked by: tests/test_acceptance.py::test_criterion_3_memory_kernel_equivalence
2. Operator form.  ``A = V diag(1 + dt Lam) V^{-1}``, so A - I = dt L; ``W =
   expm(A - I)`` and ``M(A) = I - 2 (A - I)(A + I)^{-1} = (3I - A)(A + I)^{-1}``.
   computed by: cayley_M
   checked by: cayley_form,
       tests/test_objectives.py::TestMemoryKernels::test_oracles_are_the_transfer_chain
3. Memory columns.  ``C_j = (A - I)^{-1} W^j (M^j - I) n = -2 (A + I)^{-1} W^j
   sum_{k<j} M^k n``, as W, M and A commute and ``M - I = -2 (A - I)(A +
   I)^{-1}``: C_0 = 0, and an eigenvalue 1 of A gives the column's limit.
   computed by: mz_memory_matrix
   checked by: mz_closed_form, tests/test_acceptance.py::test_criterion_4_telescoping_identity,
       tests/test_objectives.py::TestMemoryMatrices::test_mz_column_at_eigenvalue_one_is_its_limit
4. Block chain.  ``z_j = W^j sum_{k<j} M^k n`` is the last d rows of the chain
   ``z_{j+1} = W (z_j + (W M)^j n)`` of ``[[W M, 0], [W, W]]`` from (n, 0),
   and ``(A + I)^{-1} = (I + M) / 4``.  Powering W M keeps the digits that
   powering W and M apart loses where their spectra pull apart.
   computed by: _mz_memory, _power_columns
   checked by: tests/test_objectives.py::TestStackedMzChainsMatchReference,
       tests/test_objectives.py::TestPowerColumnsMatchReference
5. Objectives, column j of C(A) and G(A) going with snapshot x_j: mz-dmd
   minimizes ``||X+ - A X- + dt^2 C(A)||_F^2``, t-model ``||X+ - A X- - dt
   G(A)||_F^2`` and plain DMD ``||X+ - A X-||_F^2``, whose minimizer is
   :func:`dmd_fit`.  Zero memory gives the plain objective.
   computed by: _forward
   checked by: zero_memory, tests/test_acceptance.py::test_criterion_9_zero_memory_regression
6. First order.  ``G_j = j dt W^j n``.  At t = j dt, ``W^j = e^{tL}``, ``M(A) ~
   e^{-dt L}`` and ``-2 (A + I)^{-1} ~ -I``, so ``dt^2 C_j ~ -dt e^{tL}
   int_0^t e^{-sL} ds n``, whose first-order term is ``-dt G_j = -dt e^{tL}
   t n``; the relative gap, ``t |L n| / (2 |n|)`` to first order, halves
   with t.  G's chain has d rows, not 2d, and takes no solve.
   computed by: tmodel_memory_matrix
   checked by: tmodel_first_order
7. Gradient.  Reverse mode: a memory term's pullback runs the doubling of its
   chain backwards, ``d(B^{-1}) = -B^{-1} dB B^{-1}`` at B = A + I takes no
   solve, and expm's Frechet derivative ``L(A - I, .)`` has the adjoint
   ``L(A^T - I, .)``.
   computed by: objective_value_and_gradient, _power_pullback, linalg.expm_frechet
   checked by: gradient_fd, stacked_gradient, expm_frechet_fd
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
    """One of the three objectives of derivation step 5.  ``memory``, which
    plain-dmd ignores, is the initialization n of the memory term: one vector
    (d,) or a stack (n_u, d) of them, one per operator of a stacked fit."""

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
    """Transfer map M(A) (derivation step 2) of a matrix or of each slice of
    an (n_u, d, d) stack; raises :class:`SingularMatrixError` where A + I is
    singular or ill-conditioned."""
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
    direct + G_2s (M^s)^T + (M^s)^T G_2s``, and G_1 is the gradient.  Where
    a power from :func:`_powers` carries row exponents, ``2^e`` scales the
    cotangent side, ``P^T (2^e y)``, ``(G P^T) 2^e`` by column and ``P^T
    (2^e G)`` by row, never P, so a zero of the adjoint never meets an
    overflowing power.

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
    memory rows n (n_u, d), by the block chain of derivation step 4, and
    their pullback, the map from a cotangent of the columns to a gradient in A."""
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
    """Memory columns C_0..C_{cols-1} of mz-dmd (derivation step 3), (d, cols)
    or, for a stack A (n_u, d, d), (n_u, d, cols); columns that overflow
    raise :class:`DivergenceError` naming their slices."""
    return _memory_matrix(lambda a, n: _mz_memory(a, n, cols)[0], a, n, cols)


def tmodel_memory_matrix(a: np.ndarray, n: np.ndarray, dt: float, cols: int) -> np.ndarray:
    """Memory columns G_0..G_{cols-1} of t-model (derivation step 6), (d, cols)
    or, for a stack A (n_u, d, d), (n_u, d, cols); columns that overflow
    raise :class:`DivergenceError` naming their slices."""
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
    """Objective value and exact gradient, reverse mode (derivation step 7).

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
