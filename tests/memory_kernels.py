"""The memory kernel in the eigenbasis of a continuous generator, two ways.

Test oracles for the discretized memory-kernel recursion: its closed
one-step form and a direct evaluation of the discretized kernel equation,
which must agree to roundoff.  Neither is on the path a fit takes; the
objectives compute their memory columns from the transition operator.
"""

import numpy as np

from mzdmd import SingularMatrixError


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
        raise SingularMatrixError("I + dt/2 Lambda is singular", cond=np.inf)
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
