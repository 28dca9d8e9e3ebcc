"""Adam optimizer over transition-operator entries.

Fixed iteration budget, no stopping rule: the fitting protocol runs a small
number of full-gradient steps from the plain least-squares solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, failing_slices
from .objectives import Objective, objective_value, objective_value_and_gradient

# Adam's published defaults (Kingma & Ba, "Adam", ICLR 2015)
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass(frozen=True)
class AdamConfig:
    learning_rate: float = 1e-3
    iterations: int = 5

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")


def adam_step(params: np.ndarray, m: np.ndarray, v: np.ndarray, step: int,
              grad: np.ndarray, cfg: AdamConfig) -> None:
    """Bias-corrected Adam update number ``step`` (from 1): advances
    ``params`` and its moment estimates ``m`` and ``v`` in place.  A
    non-finite gradient raises ``ValueError`` before any of the three moves.
    A gradient whose square overflows the bias-corrected second moment,
    which would stall the step, raises :class:`DivergenceError` before
    ``params`` moves, with no numpy warning."""
    grad = np.asarray(grad, dtype=float)
    if grad.shape != params.shape:
        raise ValueError("gradient shape does not match the parameters")
    if step < 1:
        raise ValueError("step counts from 1")
    if not np.isfinite(grad).all():
        raise ValueError("gradient must be finite")
    m *= BETA1
    m += (1.0 - BETA1) * grad
    with np.errstate(over="ignore"):
        v *= BETA2
        v += (1.0 - BETA2) * grad * grad
        v_hat = v / (1.0 - BETA2**step)
    if not np.isfinite(v_hat).all():
        raise DivergenceError("Adam's second moment overflowed")
    m_hat = m / (1.0 - BETA1**step)
    params -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + EPSILON)


def fit_transition(obj: Objective, a0: np.ndarray, cfg: AdamConfig) -> tuple[np.ndarray, np.ndarray]:
    """Run ``cfg.iterations`` Adam steps on ``obj`` starting from ``a0``.

    A 2-D ``a0`` fits one operator.  A stack (n_u, d, d), with ``obj``
    holding one memory vector per slice (n_u, d), fits the n_u operators
    with one value+gradient call per iteration for the whole stack.  Each
    operator takes its own :func:`adam_step` on its slice of the parameter
    and moment arrays, so every slice takes exactly the steps it would take
    alone.  ``a0`` is copied, never written.  The working set is that of
    :func:`objective_value_and_gradient` on the stack.

    Returns the final operator(s), shaped like ``a0``, and the objective
    value at every iterate, the initial loss first: shape
    ``(iterations + 1,)`` for one operator, ``(n_u, iterations + 1)`` for a
    stack.  A non-finite loss or gradient, or a gradient whose square
    overflows Adam's bias-corrected second moment and would stall its step,
    raises :class:`DivergenceError` naming its slices, with ``step`` set to
    the iteration and no numpy warning.
    """
    params = np.array(a0, dtype=float)
    d = obj.snapshots.dim
    if params.ndim not in (2, 3) or params.shape[-2:] != (d, d):
        raise ValueError("a0 shape does not match the snapshot dimension")
    m, v = np.zeros_like(params), np.zeros_like(params)
    slices = list(zip(params.reshape(-1, d, d), m.reshape(-1, d, d), v.reshape(-1, d, d)))
    trace = np.empty(params.shape[:-2] + (cfg.iterations + 1,))
    for it in range(cfg.iterations):
        value, grad = _at_step(it, objective_value_and_gradient, obj, params)
        trace[..., it] = value
        bad = np.zeros(len(slices), dtype=bool)
        # one call per slice, as perfbench/spans.py counts them; goes with ROADMAP items 1-2
        for i, ((p, ms, vs), g) in enumerate(zip(slices, grad.reshape(-1, d, d))):
            try:
                adam_step(p, ms, vs, it + 1, g, cfg)
            except DivergenceError:
                bad[i] = True
        if np.any(bad):
            where, indices = failing_slices(bad)
            raise DivergenceError(f"Adam's second moment overflowed{where}", step=it, indices=indices)
    trace[..., -1] = _at_step(cfg.iterations, objective_value, obj, params)
    return params, trace


def _at_step(step: int, evaluate, obj: Objective, params: np.ndarray):
    """``evaluate(obj, params)``, its divergence stamped with the iteration."""
    try:
        return evaluate(obj, params)
    except DivergenceError as exc:
        exc.step = step
        raise
