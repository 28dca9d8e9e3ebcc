"""Fast invariant suite behind the ``check`` subcommand.

Each check exercises one structural identity the package depends on; the
suite prints one line per check and is meant to finish in a few seconds.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .objectives import (
    MZ_DMD,
    PLAIN_DMD,
    T_MODEL,
    MemoryInit,
    Objective,
    SnapshotPair,
    cayley_M,
    fd_gradient,
    memory_kernel_closed,
    memory_kernel_trapezoid,
    objective_value,
    objective_value_and_gradient,
)
from .oscillator import SimConfig, hamiltonian, integrate, rng_stream


def _random_operator(rng, d, margin=0.3):
    """Random operator whose spectrum stays away from +1 and -1."""
    while True:
        a = 0.3 * rng.standard_normal((d, d))
        lam = np.linalg.eigvals(a)
        if np.abs(lam - 1).min() > margin and np.abs(lam + 1).min() > margin:
            return a


def _random_objectives(rng, d=2, cols=9):
    snaps = SnapshotPair(
        x_plus=rng.standard_normal((d, cols)),
        x_minus=rng.standard_normal((d, cols)),
        dt=0.1,
    )
    mem = MemoryInit.sample(d, 1.0, rng)
    return [
        Objective(PLAIN_DMD, snaps),
        Objective(MZ_DMD, snaps, mem),
        Objective(T_MODEL, snaps, mem),
    ]


def check_pinv(rng):
    m = rng.standard_normal((4, 3))
    p = linalg.pinv(m)
    return np.linalg.norm(m @ p @ m - m) <= 1e-10


def check_eig(rng):
    a = rng.standard_normal((4, 4))
    values, vectors = linalg.eig(a)
    return np.linalg.norm(a @ vectors - vectors * values) <= 1e-9 * np.linalg.norm(a, "fro")


def check_expm_inverse(rng):
    a = rng.standard_normal((3, 3))
    a *= 4.0 / np.linalg.norm(a, "fro")
    return np.linalg.norm(linalg.expm(a) @ linalg.expm(-a) - np.eye(3)) <= 1e-10


def check_expm_frechet(rng):
    a = rng.standard_normal((3, 3)) * 0.5
    e = rng.standard_normal((3, 3))
    _, l_analytic = linalg.expm_frechet(a, e)
    h = 1e-6
    l_fd = (linalg.expm(a + h * e) - linalg.expm(a - h * e)) / (2 * h)
    return np.linalg.norm(l_analytic - l_fd) <= 1e-6 * max(np.linalg.norm(l_fd), 1e-30)


def check_cayley_identity(rng):
    a = _random_operator(rng, 3)
    eye = np.eye(3)
    direct = cayley_M(a)
    alt = linalg.solve((a + eye).T, (3 * eye - a).T).T
    return np.abs(direct - alt).max() <= 1e-12


def check_telescoping(rng):
    dt = 0.1
    lam = -rng.uniform(0.2, 1.0, 4) + 1j * rng.uniform(-1.0, 1.0, 4)
    m = 1.0 - dt * lam / (1.0 + 0.5 * dt * lam)
    ok = True
    partial = np.zeros(4, dtype=complex)
    for k in range(1, 50):
        partial += m**k
        n = k + 1
        lhs = m**n + 1.0 + 2.0 * partial
        rhs = (m**n - 1.0) * (-2.0 / (dt * lam))
        ok = ok and np.abs(lhs - rhs).max() <= 1e-10
    return ok


def check_memory_kernel(rng):
    dt = 0.1
    lam = -rng.uniform(0.2, 1.0, 4) + 1j * rng.uniform(-1.0, 1.0, 4)
    m0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    closed = memory_kernel_closed(lam, m0, 50, dt)
    direct = memory_kernel_trapezoid(lam, m0, 50, dt)
    return np.abs(closed - direct).max() <= 1e-10


def check_gradients(rng):
    ok = True
    for obj in _random_objectives(rng):
        a = _random_operator(rng, 2)
        analytic = objective_value_and_gradient(obj, a)[1]
        numeric = fd_gradient(obj, a)
        scale = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-30)
        ok = ok and np.linalg.norm(analytic - numeric) / scale <= 1e-5
    return ok


def check_batched_gradient(rng):
    snaps = _random_objectives(rng)[0].snapshots
    a = np.stack([_random_operator(rng, 2) for _ in range(3)])
    mem = MemoryInit(rng.standard_normal((3, 2)), 1.0)
    ok = True
    for kind in (MZ_DMD, T_MODEL):
        values, grads = objective_value_and_gradient(Objective(kind, snaps, mem), a)
        for i in range(3):
            value, grad = objective_value_and_gradient(Objective(kind, snaps, MemoryInit(mem.n[i])), a[i])
            ok = ok and abs(values[i] - value) <= 1e-12 * abs(value)
            ok = ok and np.abs(grads[i] - grad).max() <= 1e-12 * np.abs(grad).max()
    return ok


def check_zero_memory_reduction(rng):
    plain, mz, tmod = _random_objectives(rng)
    zero = MemoryInit.zero(2)
    mz = Objective(MZ_DMD, plain.snapshots, zero)
    tmod = Objective(T_MODEL, plain.snapshots, zero)
    a = _random_operator(rng, 2)
    base = objective_value(plain, a)
    base_grad = objective_value_and_gradient(plain, a)[1]
    return (
        objective_value(mz, a) == base
        and objective_value(tmod, a) == base
        and np.array_equal(objective_value_and_gradient(mz, a)[1], base_grad)
        and np.array_equal(objective_value_and_gradient(tmod, a)[1], base_grad)
    )


def check_energy_conservation(rng):
    cfg = SimConfig(dt=0.1, t_max=10.0, n_points=101, sigma=1.0, n_mc=1, seed=3)
    y0 = np.array([1.0, 0.0, *rng.standard_normal(2)])
    traj = integrate(y0, cfg, substeps=10)
    h = hamiltonian(traj.states.T)
    return np.abs(h - h[0]).max() <= 1e-6 * abs(h[0])


def check_grid_exactness(_rng):
    cfg = SimConfig()
    times = cfg.times()
    return abs(times[-1] - cfg.t_max) <= 1e-9 and np.array_equal(
        times, np.arange(cfg.n_points) * cfg.dt
    )


def check_stream_determinism(_rng):
    a = rng_stream(11, 2, 5).standard_normal(4)
    b = rng_stream(11, 2, 5).standard_normal(4)
    c = rng_stream(11, 2, 6).standard_normal(4)
    return np.array_equal(a, b) and not np.array_equal(a, c)


CHECKS = (
    ("pinv satisfies the Penrose identity", check_pinv),
    ("eig residual within tolerance", check_eig),
    ("expm(A) expm(-A) = I", check_expm_inverse),
    ("expm Frechet derivative matches central differences", check_expm_frechet),
    ("transfer map equals (3I - A)(A + I)^-1", check_cayley_identity),
    ("telescoped power sum identity", check_telescoping),
    ("closed kernel recursion matches direct quadrature", check_memory_kernel),
    ("analytic gradients match finite differences", check_gradients),
    ("zero memory reduces both objectives to the plain fit", check_zero_memory_reduction),
    ("RK4 conserves the oscillator energy", check_energy_conservation),
    ("time grid is exact", check_grid_exactness),
    ("random streams are keyed and reproducible", check_stream_determinism),
    ("stacked value and gradient equal the per-slice calls", check_batched_gradient),
)


def run_checks(echo=print) -> bool:
    """Run every check; prints one PASS/FAIL line each, returns overall status."""
    rng = np.random.default_rng(2024)
    all_ok = True
    for label, fn in CHECKS:
        try:
            ok = bool(fn(rng))
        except Exception as exc:  # noqa: BLE001 - a failing check must not abort the suite
            echo(f"FAIL {label} (raised {type(exc).__name__}: {exc})")
            all_ok = False
            continue
        echo(f"{'PASS' if ok else 'FAIL'} {label}")
        all_ok = all_ok and ok
    return all_ok
