"""Ensemble fitting over random memory initializations, spectral alignment
and averaging, continuous-time reconstruction, and its empirical variance.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import EnsembleError, NumericalError, check_finite, failing_slices
from .objectives import MZ_DMD, T_MODEL, Objective, SnapshotPair, dmd_fit
from .optim import AdamConfig, fit_transition
from .oscillator import TAG_ENSEMBLE, Trajectory, keyed_normals

# two matchings closer in cost than this are reported as degenerate
DEGENERACY_TOL = 1e-12
# the assignment searches all d! permutations (40 320 at d = 8)
ASSIGNMENT_MAX_DIM = 8


class MatchingDegeneracyWarning(UserWarning):
    """Two eigenpair matchings were (nearly) equally good."""


@dataclass(frozen=True, eq=False)
class SpectralModel:
    """Eigenvalues (..., d) and phase-normalized eigenvectors (..., d, d) of
    a fitted operator, or of each operator in a stack, together with the
    snapshot step they were fitted at.  A single model is a stack of one."""

    values: np.ndarray
    vectors: np.ndarray
    dt: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        vectors = np.asarray(self.vectors, dtype=complex)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "vectors", vectors)
        if values.size == 0 or vectors.shape != values.shape + values.shape[-1:]:
            raise ValueError("need a nonempty stack of square vectors, one column per eigenvalue")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        cond = np.linalg.cond(vectors)
        bad = ~np.isfinite(cond) | (cond > linalg.COND_MAX)
        if np.any(bad):
            raise ValueError(f"eigenvector matrix is not invertible{failing_slices(bad)[0]} "
                             f"(cond ~ {np.max(cond):.3e})")

    @property
    def dim(self) -> int:
        return self.values.shape[-1]


@dataclass(eq=False)
class EnsembleResult:
    """Per-sample spectra as one (n_u, d) stack, their average, the
    reconstructed mean and variance trajectories, and each sample's loss
    trace as one (n_u, iterations + 1) array."""

    per_sample: SpectralModel
    averaged: SpectralModel
    mean_traj: Trajectory
    variance_traj: Trajectory
    loss_traces: np.ndarray


def fit_ensemble(
    kind: str,
    s: SnapshotPair,
    sigma: float,
    n_u: int,
    cfg: AdamConfig,
    seed: int,
) -> tuple[SpectralModel, np.ndarray]:
    """Fit ``n_u`` operators from independently sampled memory initializations.

    Every fit starts from the plain least-squares solution; sample i draws
    its memory vector, sigma times standard normals, from the stream (seed,
    ensemble, i), and one ``keyed_normals`` call draws them all.  The n_u
    fits run as one stacked computation over (n_u, d, d) operators and
    (n_u, d) memory vectors.  Returns the phase-normalized
    eigendecomposition of each fitted operator as one stack, in sample
    order, and the (n_u, iterations + 1) loss traces of the fit.

    The slices are independent, so a sample whose fit or ``eig`` raises a
    :class:`NumericalError` is dropped, and the survivors are fitted again.
    Any such failure then aborts the ensemble with an :class:`EnsembleError`
    aggregating the failed samples and their errors; others propagate.
    """
    if kind not in (MZ_DMD, T_MODEL):
        raise ValueError(f"fit_ensemble expects '{MZ_DMD}' or '{T_MODEL}', got {kind!r}")
    if n_u < 1:
        raise ValueError("n_u must be at least 1")
    if not 0 <= sigma < np.inf:
        raise ValueError("sigma must be nonnegative and finite")
    a0 = dmd_fit(s)
    n = sigma * keyed_normals(seed, TAG_ENSEMBLE, n_u, s.dim)
    failures: list[tuple[int, NumericalError]] = []
    alive = np.arange(n_u)
    fitted = traces = ()
    while alive.size:
        obj = Objective(kind, s, n[alive])
        a_stack = np.broadcast_to(a0, (alive.size,) + a0.shape)
        try:
            fitted, traces = fit_transition(obj, a_stack, cfg)
            break
        except NumericalError as exc:
            # an error that names no slices fails every sample still in the fit
            failed = alive[exc.indices] if exc.indices else alive
            failures.extend((int(i), exc) for i in failed)
            alive = np.setdiff1d(alive, failed)
    decs = []
    # one eig per sample, as perfbench/spans.py counts them; goes with ROADMAP items 1-2
    for i, a_fit in zip(alive, fitted):
        try:
            decs.append(linalg.eig(a_fit))
        except NumericalError as exc:
            failures.append((int(i), exc))
    if failures:
        failures.sort(key=lambda f: f[0])
        indices = ", ".join(str(i) for i, _ in failures)
        raise EnsembleError(
            f"{len(failures)} of {n_u} ensemble samples failed (indices: {indices}); "
            f"first failure: {failures[0][1]}",
            failures=failures,
        )
    values, vectors = zip(*decs)
    return SpectralModel(values=np.stack(values), vectors=np.stack(vectors), dt=s.dt), traces


def min_cost_assignment(cost: np.ndarray) -> np.ndarray:
    """Column index assigned to each row of a square cost matrix, or of each
    matrix in a (..., d, d) stack, minimizing the total cost, by exhaustive
    search over the d! permutations.

    Among equal totals the lexicographically first permutation wins, so a
    tie that includes the identity keeps it.  The totals are summed row by
    row in arrays of n * d! for a stack of n (32 MB each for n = 100 at
    d = 8).  Returns a fresh (..., d) array the caller may change.  Raises
    ``ValueError`` above ``ASSIGNMENT_MAX_DIM`` rows.
    """
    d = cost.shape[-1]
    if d > ASSIGNMENT_MAX_DIM:
        raise ValueError(
            f"exact assignment searches d! permutations; d = {d} exceeds the bound "
            f"d <= {ASSIGNMENT_MAX_DIM}"
        )
    perms = np.array(list(itertools.permutations(range(d))), dtype=np.intp).reshape(-1, d)
    totals = sum(cost[..., k, perms[:, k]] for k in range(d))
    return np.take(perms, np.argmin(totals, axis=-1), axis=0)


def match_and_average(models: SpectralModel) -> SpectralModel:
    """Average a stack of eigenpairs after aligning each slice to the first.

    Alignment is the optimal assignment on eigenvalue distance, found exactly
    by :func:`min_cost_assignment` for dimensions up to ``ASSIGNMENT_MAX_DIM``
    (a larger dimension raises ``ValueError``); a tie that includes the
    identity keeps it.  Assignments whose pairwise swap changes the total cost
    by less than ``DEGENERACY_TOL`` are reported as degenerate, once per
    eigenpair pair, and oriented by eigenvector overlap.  The averaged
    eigenvectors are re-normalized.
    """
    d = models.dim
    values = models.values.reshape(-1, d)
    vectors = models.vectors.reshape(-1, d, d)
    cost = np.abs(values[0][:, None] - values[:, None, :])
    perm = min_cost_assignment(cost)
    overlap = np.abs(vectors[0].conj().T @ vectors)
    rows = np.arange(len(values))
    for i, j in itertools.combinations(range(d), 2):
        pi, pj = perm[:, i], perm[:, j]
        ci, cj, oi, oj = cost[:, i], cost[:, j], overlap[:, i], overlap[:, j]
        kept, swapped = ci[rows, pi] + cj[rows, pj], ci[rows, pj] + cj[rows, pi]
        degenerate = np.abs(swapped - kept) < DEGENERACY_TOL
        if degenerate.any():
            warnings.warn("eigenvalue matching is degenerate; breaking the tie by "
                          "eigenvector overlap", MatchingDegeneracyWarning, stacklevel=2)
        swap = degenerate & (oi[rows, pj] + oj[rows, pi] > oi[rows, pi] + oj[rows, pj])
        perm[swap, i], perm[swap, j] = pj[swap], pi[swap]
    matched = linalg.phase_normalize(np.take_along_axis(vectors, perm[:, None, :], axis=-1))
    avg_values = np.take_along_axis(values, perm, axis=-1).sum(axis=0) / len(values)
    avg_vectors = linalg.phase_normalize(matched.sum(axis=0) / len(values))
    return SpectralModel(values=avg_values, vectors=avg_vectors, dt=models.dt)


def reconstruct(model: SpectralModel, x0: np.ndarray, times: np.ndarray) -> Trajectory:
    """Continuous-time reconstruction from a spectral model, or from each
    model in a stack.

    Maps eigenvalues to rates with the elementwise principal logarithm,
    ``omega = log(values) / dt``, and propagates x0 in the eigenbasis.  The
    returned trajectory is the real part, with states (len(times), ..., d)
    for a (..., d) stack; the largest discarded imaginary magnitude is
    recorded on the result.  The model has refused eigenvectors above
    ``linalg.COND_MAX`` already, so the solve for x0's coordinates is plain.
    A state that grows past the largest float raises :class:`DivergenceError`
    from :func:`errors.check_finite`, with no numpy warning: ``step`` is the
    first grid index holding one and ``indices`` the failing slices of a
    stack of two or more models.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    times = np.asarray(times, dtype=float).ravel()
    if x0.size != model.dim:
        raise ValueError("x0 length must match the model dimension")
    if np.any(model.values == 0):
        raise ValueError("zero eigenvalue has no logarithm; cannot reconstruct")
    d = model.dim
    vectors = model.vectors.reshape(-1, d, d)
    b = np.linalg.solve(vectors, np.broadcast_to(x0.astype(complex)[:, None], (len(vectors), d, 1)))
    # a growing mode is reported by the check below, not by a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        omega = np.log(model.values.reshape(-1, 1, d)) / model.dt
        coords = np.exp(times[:, None] * omega) * b.mT
        complex_states = coords @ vectors.mT
    check_finite(complex_states, "reconstructed state became non-finite", steps=True)
    states = complex_states.real.transpose(1, 0, 2).copy().reshape(times.shape + model.values.shape)
    max_imag = float(np.abs(complex_states.imag).max()) if times.size else 0.0
    return Trajectory(times=times, states=states, max_imag=max_imag)


def ensemble_variance(
    per_sample: SpectralModel,
    mean_traj: Trajectory,
    x0: np.ndarray,
    times: np.ndarray,
) -> Trajectory:
    """Pointwise squared deviation of per-sample reconstructions around the
    mean trajectory, averaged with the population normalization 1/N.  A
    non-finite variance raises :class:`DivergenceError` (no numpy warning)
    from :func:`errors.check_finite`, ``step`` its first grid index."""
    times = np.asarray(times, dtype=float).ravel()
    mean = np.asarray(mean_traj.states, dtype=float)
    d = per_sample.dim
    if mean.shape != (times.size, d):
        raise ValueError(f"mean states must be (len(times), d), got {mean.shape}")
    n = per_sample.values.size // d
    with np.errstate(over="ignore"):
        dev = reconstruct(per_sample, x0, times).states.reshape(times.size, n, d) - mean[:, None, :]
        variance = (dev * dev).sum(axis=1) / n
    check_finite(variance[None], "ensemble variance became non-finite", steps=True)
    return Trajectory(times=times, states=variance)


def run_ensemble(
    kind: str,
    s: SnapshotPair,
    sigma: float,
    n_u: int,
    cfg: AdamConfig,
    seed: int,
    x0: np.ndarray,
    times: np.ndarray,
) -> EnsembleResult:
    """Full ensemble pipeline: fit, align and average the spectra, then
    reconstruct the expected dynamics and its empirical variance."""
    per_sample, loss_traces = fit_ensemble(kind, s, sigma, n_u, cfg, seed)
    averaged = match_and_average(per_sample)
    mean_traj = reconstruct(averaged, x0, times)
    variance_traj = ensemble_variance(per_sample, mean_traj, x0, times)
    return EnsembleResult(
        per_sample=per_sample,
        averaged=averaged,
        mean_traj=mean_traj,
        variance_traj=variance_traj,
        loss_traces=loss_traces,
    )
