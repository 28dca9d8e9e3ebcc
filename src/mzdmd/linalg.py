"""Dense matrix primitives used by the fitting and reconstruction code.

Thin wrappers around LAPACK-backed numpy/scipy routines that add the
normalization and failure semantics the rest of the package relies on:
phase-fixed eigenvectors, condition-checked solves, and the directional
(Frechet) derivative of the matrix exponential.

``expm`` alone names scipy, and imports ``scipy.linalg`` on its first call:
only the memory-aware fits take a matrix exponential, so importing the
package, plain DMD, simulation and the projection never pay for loading it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NumericalError, SingularMatrixError, failing_slices

# Singular values below PINV_RTOL * sigma_max are treated as zero.
PINV_RTOL = 1e-12
# Solves are refused above this condition estimate: a matrix near singular,
# such as (A + I) for an operator with an eigenvalue near -1, must fail
# loudly instead of being regularized silently.
COND_MAX = 1e12


class EigDecomposition(NamedTuple):
    """Eigenvalues and unit-norm, phase-normalized eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


def pinv(m: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values below ``PINV_RTOL`` times the largest one are treated as
    exactly zero, so rank-deficient inputs are handled gracefully.
    """
    m = np.asarray(m, dtype=float)
    if m.size == 0:
        raise ValueError("pinv requires a nonempty matrix")
    try:
        return np.linalg.pinv(m, rcond=PINV_RTOL)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge in pinv: {exc}") from exc


def phase_normalize(vectors: np.ndarray) -> np.ndarray:
    """Scale the columns of a matrix, or of each matrix in a stack, to unit
    norm and rotate each so its largest-modulus entry (the first, among
    equal moduli) is real and positive.

    Without a fixed phase convention, eigenvectors from repeated runs can
    differ by arbitrary complex factors and cannot be averaged meaningfully.
    """
    v = np.array(vectors, dtype=complex)
    norms = np.linalg.norm(v, axis=-2, keepdims=True)
    if np.any(norms == 0):
        raise ValueError("cannot phase-normalize a zero column")
    v /= norms
    k = np.argmax(np.abs(v), axis=-2, keepdims=True)
    pivot = np.take_along_axis(v, k, axis=-2)
    # hypot, not np.abs: numpy's vectorized complex abs can differ from it
    # in the last bit
    modulus = np.hypot(pivot.real, pivot.imag)
    v *= np.conj(pivot) / modulus
    np.put_along_axis(v, k, modulus, axis=-2)
    return v


def eig(a: np.ndarray) -> EigDecomposition:
    """Eigendecomposition with unit-norm, phase-normalized eigenvectors, of
    a matrix or of each slice of an (n, d, d) stack.

    Each slice gives the values and vectors a call on it alone gives, with
    one exception of dtype: the values are real only when the whole stack's
    spectrum is, so one complex pair makes every slice's values complex.
    Raises :class:`NumericalError` when the QR iteration fails, as it does
    on non-finite input.
    """
    a = np.asarray(a)
    _square(a, "eig")
    try:
        values, vectors = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue iteration did not converge: {exc}") from exc
    return EigDecomposition(values=values, vectors=phase_normalize(vectors))


def _square(a: np.ndarray, name: str) -> None:
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} requires a square matrix or a stack of them")


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring with Pade approximants) of a
    matrix or of each slice of an (n, d, d) stack."""
    a = np.asarray(a)
    _square(a, "expm")
    import scipy.linalg
    result = scipy.linalg.expm(a)
    bad = ~np.isfinite(result).all(axis=(-2, -1))
    if np.any(bad):
        where, indices = failing_slices(bad)
        raise NumericalError(
            f"matrix exponential overflowed{where}; input norm too large", indices=indices
        )
    return result


def expm_frechet(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Matrix exponential together with its directional derivative along e.

    Uses the block-augmented identity: the exponential of ``[[A, E], [0, A]]``
    has ``expm(A)`` on the diagonal and the Frechet derivative ``L(A, E)`` in
    the upper-right block, so one expm call yields both to expm's accuracy.
    Stacks (n, d, d) of A and E give stacks of both, from one expm call.
    """
    a = np.asarray(a, dtype=float)
    e = np.asarray(e, dtype=float)
    _square(a, "expm_frechet")
    if a.shape != e.shape:
        raise ValueError("expm_frechet requires square matrices of the same shape")
    d = a.shape[-1]
    block = np.zeros(a.shape[:-2] + (2 * d, 2 * d))
    block[..., :d, :d] = a
    block[..., :d, d:] = e
    block[..., d:, d:] = a
    p = expm(block)
    return p[..., :d, :d], p[..., :d, d:]


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A X = B, refusing matrices with condition estimate above COND_MAX.

    A may be an (n, d, d) stack with B an (n, d, k) stack; every slice is
    condition-checked and a refusal names the slices that failed.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    _square(a, "solve")
    if b.shape[: a.ndim - 1] != a.shape[:-1] or (a.ndim == 3 and b.ndim != 3):
        raise ValueError("right-hand side has incompatible leading dimension")
    try:
        cond = np.linalg.cond(a)
    except np.linalg.LinAlgError as exc:
        where, indices = failing_slices(~np.isfinite(a).all(axis=(-2, -1)))
        raise NumericalError(f"condition estimate failed{where}: {exc}", indices=indices) from exc
    bad = ~np.isfinite(cond) | (cond > COND_MAX)
    if np.any(bad):
        where, indices = failing_slices(bad)
        first = float(np.asarray(cond)[bad][0])
        raise SingularMatrixError(
            f"matrix is singular or ill-conditioned{where} (cond ~ {first:.3e})",
            cond=first,
            indices=indices,
        )
    # LU meets an exact zero pivot only at a condition number near 1/eps
    return np.linalg.solve(a, b)
