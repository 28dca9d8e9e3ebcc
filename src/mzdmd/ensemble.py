"""Ensemble fitting over random memory initializations, spectral alignment
and averaging, continuous-time reconstruction, and its empirical variance.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import EnsembleError
from .objectives import MZ_DMD, T_MODEL, MemoryInit, Objective, SnapshotPair, dmd_fit
from .optim import AdamConfig, fit_transition
from .oscillator import TAG_ENSEMBLE, Trajectory, rng_stream

# two matchings closer in cost than this are reported as degenerate
DEGENERACY_TOL = 1e-12
# the assignment searches all d! permutations (40 320 at d = 8)
ASSIGNMENT_MAX_DIM = 8
IMAG_RESIDUE_RTOL = 1e-6


class MatchingDegeneracyWarning(UserWarning):
    """Two eigenpair matchings were (nearly) equally good."""


@dataclass(frozen=True)
class SpectralModel:
    """Eigenvalues and phase-normalized eigenvectors of a fitted operator,
    together with the snapshot step the operator was fitted at."""

    values: np.ndarray
    vectors: np.ndarray
    dt: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex).ravel()
        vectors = np.asarray(self.vectors, dtype=complex)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "vectors", vectors)
        d = values.size
        if vectors.shape != (d, d):
            raise ValueError("vectors must be square with one column per eigenvalue")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        cond = float(np.linalg.cond(vectors))
        if not np.isfinite(cond) or cond > linalg.COND_MAX:
            raise ValueError(f"eigenvector matrix is not invertible (cond ~ {cond:.3e})")

    @property
    def dim(self) -> int:
        return self.values.size


@dataclass(eq=False)
class EnsembleResult:
    """Per-sample spectra, their average, and the reconstructed mean and
    variance trajectories."""

    per_sample: list[SpectralModel]
    averaged: SpectralModel
    mean_traj: Trajectory
    variance_traj: Trajectory


def fit_ensemble(
    kind: str,
    s: SnapshotPair,
    sigma: float,
    n_u: int,
    cfg: AdamConfig,
    seed: int,
    trace_sink: list | None = None,
) -> list[SpectralModel]:
    """Fit ``n_u`` operators from independently sampled memory initializations.

    Every fit starts from the plain least-squares solution; sample i draws
    its memory vector from the stream (seed, ensemble, i).  The n_u fits run
    as one stacked computation over (n_u, d, d) operators and (n_u, d)
    memory vectors; its working set is at most about 11 * n_u * d * (m - 1)
    * 8 bytes for m snapshots (9 MB for mz-dmd at the default n_u = 100,
    d = 2, m = 501).
    The result holds the phase-normalized eigendecomposition of each fitted
    operator.

    The slices are independent, so a sample whose fit fails is recorded
    with its error and dropped, and the survivors are fitted again.  Any
    failure then aborts the ensemble with an :class:`EnsembleError` that
    aggregates all failed sample indices.  ``trace_sink``, when given,
    collects the per-sample loss traces.
    """
    if kind not in (MZ_DMD, T_MODEL):
        raise ValueError(f"fit_ensemble expects '{MZ_DMD}' or '{T_MODEL}', got {kind!r}")
    if n_u < 1:
        raise ValueError("n_u must be at least 1")
    a0 = dmd_fit(s)
    n = np.stack(
        [MemoryInit.sample(s.dim, sigma, rng_stream(seed, TAG_ENSEMBLE, i)).n for i in range(n_u)]
    )
    failures: list[tuple[int, Exception]] = []
    alive = np.arange(n_u)
    fitted = traces = ()
    while alive.size:
        mem = MemoryInit(n[alive])
        a_stack = np.broadcast_to(a0, (alive.size,) + a0.shape)
        try:
            fitted, traces = fit_transition(Objective(kind, s, mem), a_stack, cfg)
            break
        except Exception as exc:  # noqa: BLE001 - aggregated and re-raised below
            # an error that names no slices fails every sample still in the fit
            indices = getattr(exc, "indices", None)
            failed = alive[indices] if indices else alive
            failures.extend((int(i), exc) for i in failed)
            alive = np.setdiff1d(alive, failed)
    models: list[SpectralModel] = []
    for i, a_fit, trace in zip(alive, fitted, traces):
        try:
            dec = linalg.eig(a_fit)
        except Exception as exc:  # noqa: BLE001 - aggregated and re-raised below
            failures.append((int(i), exc))
            continue
        if trace_sink is not None:
            trace_sink.append(trace)
        models.append(SpectralModel(values=dec.values, vectors=dec.vectors, dt=s.dt))
    if failures:
        failures.sort(key=lambda f: f[0])
        indices = ", ".join(str(i) for i, _ in failures)
        raise EnsembleError(
            f"{len(failures)} of {n_u} ensemble samples failed (indices: {indices}); "
            f"first failure: {failures[0][1]}",
            failures=failures,
        )
    return models


@functools.cache
def _permutation_table(d: int) -> np.ndarray:
    """The d! permutations of range(d) as read-only (d!, d) rows, in
    lexicographic order; built once per dimension."""
    perms = np.array(list(itertools.permutations(range(d))), dtype=np.intp).reshape(-1, d)
    perms.flags.writeable = False
    return perms


def min_cost_assignment(cost: np.ndarray) -> np.ndarray:
    """Column index assigned to each row of a square cost matrix, minimizing
    the total cost, by exhaustive search over the d! permutations.

    Among equal totals the lexicographically first permutation wins, so a
    tie that includes the identity keeps it.  Returns a fresh array the
    caller may change.  Raises ``ValueError`` above ``ASSIGNMENT_MAX_DIM``
    rows.
    """
    d = cost.shape[0]
    if d > ASSIGNMENT_MAX_DIM:
        raise ValueError(
            f"exact assignment searches d! permutations; d = {d} exceeds the bound "
            f"d <= {ASSIGNMENT_MAX_DIM}"
        )
    perms = _permutation_table(d)
    return perms[np.argmin(cost[np.arange(d), perms].sum(axis=1))].copy()


def match_and_average(models: list[SpectralModel]) -> SpectralModel:
    """Average eigenpairs across models after aligning them to the first model.

    Alignment is the optimal assignment on eigenvalue distance, found exactly
    by :func:`min_cost_assignment` for dimensions up to ``ASSIGNMENT_MAX_DIM``
    (a larger dimension raises ``ValueError``); a tie that includes the
    identity keeps it.  Assignments whose pairwise swap changes the total cost
    by less than ``DEGENERACY_TOL`` are reported as degenerate and oriented by
    eigenvector overlap.  The averaged eigenvectors are re-normalized.
    """
    if not models:
        raise ValueError("need at least one model to average")
    ref = models[0]
    for model in models[1:]:
        if model.dim != ref.dim:
            raise ValueError("all models must have the same dimension")
        if model.dt != ref.dt:
            raise ValueError("all models must share the same dt")
    d = ref.dim
    sum_values = np.zeros(d, dtype=complex)
    sum_vectors = np.zeros((d, d), dtype=complex)
    for model in models:
        cost = np.abs(ref.values[:, None] - model.values[None, :])
        perm = min_cost_assignment(cost)
        overlap = np.abs(ref.vectors.conj().T @ model.vectors)
        for i in range(d):
            for j in range(i + 1, d):
                kept = cost[i, perm[i]] + cost[j, perm[j]]
                swapped = cost[i, perm[j]] + cost[j, perm[i]]
                if abs(swapped - kept) < DEGENERACY_TOL:
                    warnings.warn(
                        "eigenvalue matching is degenerate; breaking the tie by "
                        "eigenvector overlap",
                        MatchingDegeneracyWarning,
                        stacklevel=2,
                    )
                    if overlap[i, perm[j]] + overlap[j, perm[i]] > (
                        overlap[i, perm[i]] + overlap[j, perm[j]]
                    ):
                        perm[i], perm[j] = perm[j], perm[i]
        sum_values += model.values[perm]
        sum_vectors += linalg.phase_normalize(model.vectors[:, perm])
    avg_values = sum_values / len(models)
    avg_vectors = linalg.phase_normalize(sum_vectors / len(models))
    return SpectralModel(values=avg_values, vectors=avg_vectors, dt=ref.dt)


def reconstruct(model: SpectralModel, x0: np.ndarray, times: np.ndarray) -> Trajectory:
    """Continuous-time reconstruction from a spectral model.

    Maps eigenvalues to rates with the elementwise principal logarithm,
    ``omega = log(values) / dt``, and propagates x0 in the eigenbasis.  The
    returned trajectory is the real part; the largest discarded imaginary
    magnitude is recorded on the result and flagged when it exceeds
    ``IMAG_RESIDUE_RTOL`` times the trajectory scale.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    times = np.asarray(times, dtype=float).ravel()
    if x0.size != model.dim:
        raise ValueError("x0 length must match the model dimension")
    if np.any(model.values == 0):
        raise ValueError("zero eigenvalue has no logarithm; cannot reconstruct")
    omega = np.log(model.values) / model.dt
    b = linalg.solve(model.vectors, x0.astype(complex))
    coords = np.exp(np.outer(times, omega)) * b[None, :]
    complex_states = coords @ model.vectors.T
    states = complex_states.real.copy()
    max_imag = float(np.abs(complex_states.imag).max()) if times.size else 0.0
    scale = float(np.abs(states).max()) if times.size else 0.0
    warning = max_imag > IMAG_RESIDUE_RTOL * max(scale, np.finfo(float).tiny)
    return Trajectory(times=times, states=states, max_imag=max_imag, imag_warning=warning)


def ensemble_variance(
    per_sample: list[SpectralModel],
    mean_traj: Trajectory,
    x0: np.ndarray,
    times: np.ndarray,
) -> Trajectory:
    """Pointwise squared deviation of per-sample reconstructions around the
    mean trajectory, averaged with the population normalization 1/N."""
    if not per_sample:
        raise ValueError("need at least one sample model")
    acc = np.zeros_like(np.asarray(mean_traj.states, dtype=float))
    for model in per_sample:
        traj = reconstruct(model, x0, times)
        dev = traj.states - mean_traj.states
        acc += dev * dev
    return Trajectory(times=np.asarray(times, dtype=float).ravel(), states=acc / len(per_sample))


def run_ensemble(
    kind: str,
    s: SnapshotPair,
    sigma: float,
    n_u: int,
    cfg: AdamConfig,
    seed: int,
    x0: np.ndarray,
    times: np.ndarray,
    trace_sink: list | None = None,
) -> EnsembleResult:
    """Full ensemble pipeline: fit, align and average the spectra, then
    reconstruct the expected dynamics and its empirical variance."""
    models = fit_ensemble(kind, s, sigma, n_u, cfg, seed, trace_sink=trace_sink)
    averaged = match_and_average(models)
    mean_traj = reconstruct(averaged, x0, times)
    variance_traj = ensemble_variance(models, mean_traj, x0, times)
    return EnsembleResult(
        per_sample=models,
        averaged=averaged,
        mean_traj=mean_traj,
        variance_traj=variance_traj,
    )
