"""Shared helpers for the test suite."""

import numpy as np

from mzdmd import MemoryInit, Objective, SnapshotPair


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
    mem = MemoryInit.sample(d, 1.0, rng)
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
