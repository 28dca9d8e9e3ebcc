"""Shared helpers for the test suite."""

from pathlib import Path

import numpy as np

from mzdmd import DivergenceError, Objective, SnapshotPair


def read_csv(path):
    """Read back a CSV written by ``harness.write_csv``; returns (header, data)."""
    text = Path(path).read_text().strip().splitlines()
    header = text[0].split(",")
    data = np.array([[float(c) for c in line.split(",")] for line in text[1:]])
    return header, data


def oscillator_rhs(state):
    """Time derivative (y2, -y1(1 + y3^2), y4, -y3(1 + y1^2)) of the
    package's coupled oscillator: the right-hand side of the RK4 oracle.

    Accepts a state vector of length 4 or a (4, k) batch of state columns.
    """
    y = np.asarray(state, dtype=float)
    return np.stack([y[1], -y[0] * (1.0 + y[2] ** 2), y[3], -y[2] * (1.0 + y[0] ** 2)])


def reference_integrate(rhs, y0, cfg, substeps):
    """Generic classical RK4 on ``rhs`` at internal step dt/substeps, sampled
    on the cfg grid: the bitwise reference for ``integrate`` on a single
    state and for ``oscillator._rk4_batch`` on a batch.  With
    ``oscillator_rhs`` a single state squares by numpy's scalar power
    (``pow``) and a batch by numpy's array power (multiplication)."""
    h = cfg.dt / substeps
    out = np.empty((cfg.n_points,) + y0.shape)
    y = y0.copy()
    out[0] = y
    for k in range(1, cfg.n_points):
        for _ in range(substeps):
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * h * k1)
            k3 = rhs(y + 0.5 * h * k2)
            k4 = rhs(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise DivergenceError(f"state became non-finite at grid step {k}", step=k)
        out[k] = y
    return out


def random_operator(rng, d, margin=0.3, scale=0.3):
    """Random operator whose spectrum stays away from +1 and -1, so the
    memory-aware objective and its solves are well posed."""
    while True:
        a = scale * rng.standard_normal((d, d))
        lam = np.linalg.eigvals(a)
        if np.abs(lam - 1).min() > margin and np.abs(lam + 1).min() > margin:
            return a


def random_snapshots(rng, d=2, cols=9, dt=0.1):
    return SnapshotPair(
        x_plus=rng.standard_normal((d, cols)),
        x_minus=rng.standard_normal((d, cols)),
        dt=dt,
    )


def all_kind_objectives(rng, d=2, cols=9, dt=0.1):
    snaps = random_snapshots(rng, d, cols, dt)
    mem = rng.standard_normal(d)
    return [
        Objective("plain-dmd", snaps),
        Objective("mz-dmd", snaps, mem),
        Objective("t-model", snaps, mem),
    ]


def rotation_snapshots(n_snapshots=3, dt=0.1, x0=(1.0, 0.0)):
    """Snapshots generated by the quarter-turn rotation [[0, -1], [1, 0]]."""
    a_true = np.array([[0.0, -1.0], [1.0, 0.0]])
    x = np.empty((2, n_snapshots))
    x[:, 0] = x0
    for k in range(1, n_snapshots):
        x[:, k] = a_true @ x[:, k - 1]
    return SnapshotPair.from_snapshots(x, dt), a_true


def overflowing_mz_snapshots(n_points):
    """Noisy snapshots of an operator with eigenvalues -0.95 and 0.3.  Their
    plain fit has eigenvalues near those, where the mz-dmd memory chain
    grows about elevenfold a step."""
    rng = np.random.default_rng(90)
    v = np.array([[1.0, 0.4], [0.3, 1.0]])
    a_true = v @ np.diag([-0.95, 0.3]) @ np.linalg.inv(v)
    x = np.ones((2, n_points))
    for k in range(1, n_points):
        x[:, k] = a_true @ x[:, k - 1] + 0.05 * rng.standard_normal(2)
    return SnapshotPair.from_snapshots(x, 0.1)


def reference_phase_normalize(vectors):
    """The per-column phase normalization, kept as the reference for the
    vectorized ``linalg.phase_normalize``."""
    v = np.array(vectors, dtype=complex)
    norms = np.linalg.norm(v, axis=0)
    if np.any(norms == 0):
        raise ValueError("cannot phase-normalize a zero column")
    v /= norms
    for c in range(v.shape[1]):
        k = int(np.argmax(np.abs(v[:, c])))
        pivot = v[k, c]
        v[:, c] *= np.conj(pivot) / abs(pivot)
        v[k, c] = abs(pivot)
    return v


def assert_bitwise(got, want):
    """Equal shapes and equal bits, signed zeros included."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))
