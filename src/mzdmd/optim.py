"""Adam optimizer over transition-operator entries.

Fixed iteration budget, no stopping rule: the fitting protocol runs a small
number of full-gradient steps from the plain least-squares solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, failing_slices
from .objectives import Objective, objective_value, objective_value_and_gradient


@dataclass(frozen=True)
class AdamConfig:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    iterations: int = 5

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not 0 <= self.beta1 < 1:
            raise ValueError("beta1 must lie in [0, 1)")
        if not 0 <= self.beta2 < 1:
            raise ValueError("beta2 must lie in [0, 1)")
        if not 0 < self.epsilon < np.inf:
            raise ValueError("epsilon must be positive and finite")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")


@dataclass(frozen=True, eq=False)
class OptState:
    params: np.ndarray
    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0

    def __post_init__(self):
        if not (self.params.shape == self.first_moment.shape == self.second_moment.shape):
            raise ValueError("params and moment estimates must share one shape")
        if self.step_count < 0:
            raise ValueError("step_count must be nonnegative")

    @classmethod
    def initial(cls, params: np.ndarray) -> "OptState":
        params = np.asarray(params, dtype=float)
        return cls(
            params=params,
            first_moment=np.zeros_like(params),
            second_moment=np.zeros_like(params),
            step_count=0,
        )


def adam_step(state: OptState, grad: np.ndarray, cfg: AdamConfig) -> OptState:
    """One bias-corrected Adam update; returns the advanced state."""
    grad = np.asarray(grad, dtype=float)
    if grad.shape != state.params.shape:
        raise ValueError("gradient shape does not match the parameters")
    t = state.step_count + 1
    m = cfg.beta1 * state.first_moment + (1.0 - cfg.beta1) * grad
    v = cfg.beta2 * state.second_moment + (1.0 - cfg.beta2) * grad * grad
    m_hat = m / (1.0 - cfg.beta1**t)
    v_hat = v / (1.0 - cfg.beta2**t)
    params = state.params - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
    return OptState(params=params, first_moment=m, second_moment=v, step_count=t)


def fit_transition(obj: Objective, a0: np.ndarray, cfg: AdamConfig) -> tuple[np.ndarray, np.ndarray]:
    """Run ``cfg.iterations`` Adam steps on ``obj`` starting from ``a0``.

    A 2-D ``a0`` fits one operator.  A stack (n_u, d, d), with ``obj``
    holding one memory vector per slice (n_u, d), fits the n_u operators
    with one value+gradient call per iteration for the whole stack.  Each
    operator keeps its own :class:`OptState` and takes its own
    :func:`adam_step`, so every slice takes exactly the steps it would take
    alone.  The working set is that of :func:`objective_value_and_gradient`
    on the stack.

    Returns the final operator(s), shaped like ``a0``, and the objective
    value at every iterate, the initial loss first: shape
    ``(iterations + 1,)`` for one operator, ``(n_u, iterations + 1)`` for a
    stack.  A non-finite loss raises :class:`DivergenceError` naming the
    slices it occurred in.
    """
    params = np.array(a0, dtype=float)
    d = obj.snapshots.dim
    if params.ndim not in (2, 3) or params.shape[-2:] != (d, d):
        raise ValueError("a0 shape does not match the snapshot dimension")
    states = [OptState.initial(a) for a in params.reshape(-1, d, d)]
    trace = np.empty(params.shape[:-2] + (cfg.iterations + 1,))
    for it in range(cfg.iterations):
        value, grad = objective_value_and_gradient(obj, params)
        trace[..., it] = value
        _check_finite(value, f"at iteration {it}", it)
        states = [adam_step(st, g, cfg) for st, g in zip(states, grad.reshape(-1, d, d))]
        params = np.stack([st.params for st in states]).reshape(params.shape)
    final = objective_value(obj, params)
    trace[..., -1] = final
    _check_finite(final, f"after {cfg.iterations} iterations", cfg.iterations)
    return params, trace


def _check_finite(value, when: str, step: int) -> None:
    bad = ~np.isfinite(value)
    if np.any(bad):
        where, indices = failing_slices(bad)
        raise DivergenceError(
            f"objective became non-finite{where} {when}", step=step, indices=indices
        )
