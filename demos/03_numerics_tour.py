#!/usr/bin/env python3
"""Tour of the numerical identities the fitting machinery rests on.

Everything here is checked automatically by the test suite; this script
walks through the same identities verbosely, printing each residual so the
orders of magnitude are visible.
"""

import numpy as np

import mzdmd

rng = np.random.default_rng(1)
dt = 0.1

print("1. memory-kernel recursion against the direct quadrature oracle")
lam = -rng.uniform(0.2, 1.0, 4) + 1j * rng.uniform(-1.0, 1.0, 4)
m0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
closed = mzdmd.memory_kernel_closed(lam, m0, 50, dt)
direct = mzdmd.memory_kernel_trapezoid(lam, m0, 50, dt)
print(f"   one-step recursion vs full-history sums over 50 steps: "
      f"max diff {np.abs(closed - direct).max():.2e}")

print("\n2. telescoped power sum of the transfer map")
m = 1.0 - dt * lam / (1.0 + 0.5 * dt * lam)
partial = np.zeros(4, dtype=complex)
worst = 0.0
for k in range(1, 50):
    partial += m**k
    n = k + 1
    lhs = m**n + 1.0 + 2.0 * partial
    rhs = (m**n - 1.0) * (-2.0 / (dt * lam))
    worst = max(worst, np.abs(lhs - rhs).max())
print(f"   M^n + I + 2 sum M^k == (M^n - I)(-2/(dt L)) up to n = 50: "
      f"max diff {worst:.2e}")

print("\n3. the two algebraic forms of the transfer map")
a = 0.3 * rng.standard_normal((3, 3))
eye = np.eye(3)
direct_map = mzdmd.cayley_M(a)
alt = mzdmd.solve((a + eye).T, (3 * eye - a).T).T
print(f"   I - 2(A-I)(A+I)^-1 vs (3I-A)(A+I)^-1: max diff "
      f"{np.abs(direct_map - alt).max():.2e}")

print("\n4. directional derivative of the matrix exponential")
e = rng.standard_normal((3, 3))
_, deriv = mzdmd.expm_frechet(a, e)
h = 1e-6
fd = (mzdmd.expm(a + h * e) - mzdmd.expm(a - h * e)) / (2 * h)
print(f"   block-augmented derivative vs central differences: rel diff "
      f"{np.linalg.norm(deriv - fd) / np.linalg.norm(fd):.2e}")

print("\n5. analytic objective gradients against entrywise differences")
snaps = mzdmd.SnapshotPair(rng.standard_normal((2, 9)), rng.standard_normal((2, 9)), dt)
mem = rng.standard_normal(2)
a2 = 0.3 * rng.standard_normal((2, 2))
for kind in ("plain-dmd", "mz-dmd", "t-model"):
    obj = mzdmd.Objective(kind, snaps, mem)
    analytic = mzdmd.objective_value_and_gradient(obj, a2)[1]
    numeric = mzdmd.fd_gradient(obj, a2)
    rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
    print(f"   {kind:10s}: rel diff {rel:.2e}")

print("\n6. zero memory collapses both objectives to the plain fit, exactly")
zero = np.zeros(2)
plain = mzdmd.Objective("plain-dmd", snaps)
for kind in ("mz-dmd", "t-model"):
    obj = mzdmd.Objective(kind, snaps, zero)
    same_value = mzdmd.objective_value(obj, a2) == mzdmd.objective_value(plain, a2)
    same_grad = np.array_equal(
        mzdmd.objective_value_and_gradient(obj, a2)[1],
        mzdmd.objective_value_and_gradient(plain, a2)[1],
    )
    print(f"   {kind:10s}: value equal {same_value}, gradient equal {same_grad}")

print("\n7. energy conservation of the benchmark integrator")
cfg = mzdmd.SimConfig()
y0 = np.array([1.0, 0.0, *rng.standard_normal(2)])
traj = mzdmd.integrate(y0, cfg, substeps=10)
h_vals = mzdmd.hamiltonian(traj.states.T)
print(f"   relative Hamiltonian drift over t in [0, 50]: "
      f"{np.abs(h_vals - h_vals[0]).max() / abs(h_vals[0]):.2e}")
