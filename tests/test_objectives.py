import copy
from unittest import mock

import numpy as np
import pytest
from conftest import all_kind_objectives, random_operator, random_snapshots, rotation_snapshots
from hypothesis import given, settings
from hypothesis import strategies as st

from mzdmd import (
    Objective,
    SingularMatrixError,
    SnapshotPair,
    SpectralModel,
    cayley_M,
    default_config,
    dmd_fit,
    expm,
    expm_frechet,
    fd_gradient,
    memory_kernel_closed,
    memory_kernel_trapezoid,
    mz_memory_matrix,
    objective_value,
    objective_value_and_gradient,
    simulate_measurement,
    solve,
    tmodel_memory_matrix,
)
from mzdmd import objectives
from mzdmd.config import build_config
from mzdmd.objectives import _mT, _power_columns, _power_pullback


class TestSnapshotPair:
    def test_from_snapshots_shapes(self):
        x = np.arange(8.0).reshape(2, 4)
        s = SnapshotPair.from_snapshots(x, 0.1)
        np.testing.assert_array_equal(s.x_minus, x[:, :-1])
        np.testing.assert_array_equal(s.x_plus, x[:, 1:])
        assert s.dim == 2 and s.cols == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            SnapshotPair(np.ones((2, 3)), np.ones((2, 4)), 0.1)
        with pytest.raises(ValueError):
            SnapshotPair(np.ones((2, 3)), np.ones((2, 3)), 0.0)
        with pytest.raises(ValueError):
            SnapshotPair(np.full((2, 2), np.nan), np.ones((2, 2)), 0.1)

    def test_objective_requires_memory(self):
        s = SnapshotPair(np.ones((2, 3)), np.ones((2, 3)), 0.1)
        with pytest.raises(ValueError):
            Objective("mz-dmd", s)
        with pytest.raises(ValueError):
            Objective("bogus", s)
        Objective("plain-dmd", s)  # memory optional for the plain kind

    @pytest.mark.parametrize("memory", [
        [1.0, np.nan], [np.inf, 0.0], [[1.0, 2.0], [-np.inf, 0.0]],  # non-finite
        np.empty(0), np.empty((0, 2)),  # empty
        np.ones(3), np.ones((4, 1)), 1.0,  # wrong width
        np.ones((1, 1, 2)),  # 3-D
    ])
    def test_objective_rejects_bad_memory(self, memory):
        s = SnapshotPair(np.ones((2, 3)), np.ones((2, 3)), 0.1)
        for kind in ("mz-dmd", "t-model"):
            with pytest.raises(ValueError, match="memory"):
                Objective(kind, s, memory)

    def test_objective_memory_is_a_float_array(self):
        s = SnapshotPair(np.ones((2, 3)), np.ones((2, 3)), 0.1)
        assert Objective("mz-dmd", s, [1, 2]).memory.dtype == float
        assert Objective("t-model", s, np.ones((3, 2))).memory.shape == (3, 2)


class TestDmdFit:
    def test_constant_data_fixed_point(self):
        e1 = np.array([1.0, 0.0])
        x = np.tile(e1[:, None], (1, 5))
        a = dmd_fit(SnapshotPair.from_snapshots(x, 0.1))
        np.testing.assert_allclose(a @ e1, e1, atol=1e-12)

    def test_recovers_rotation_on_data_span(self):
        s, a_true = rotation_snapshots(n_snapshots=3)
        a = dmd_fit(s)
        np.testing.assert_allclose(a, a_true, atol=1e-12)

    def test_minimizes_least_squares(self):
        rng = np.random.default_rng(0)
        s = random_snapshots(rng, d=2, cols=20)
        a = dmd_fit(s)
        base = objective_value(Objective("plain-dmd", s), a)
        for _ in range(10):
            perturbed = a + 1e-3 * rng.standard_normal((2, 2))
            assert objective_value(Objective("plain-dmd", s), perturbed) >= base


class TestCayleyMap:
    def test_fixed_points(self):
        np.testing.assert_allclose(cayley_M(np.eye(2)), np.eye(2), atol=1e-14)
        np.testing.assert_allclose(cayley_M(np.zeros((2, 2))), 3 * np.eye(2), atol=1e-14)
        np.testing.assert_allclose(cayley_M(3 * np.eye(2)), np.zeros((2, 2)), atol=1e-14)

    def test_eigenvalue_minus_one_is_singular(self):
        with pytest.raises(SingularMatrixError):
            cayley_M(np.diag([-1.0, 2.0]))


class TestMemoryMatrices:
    def test_zero_memory_gives_zero_matrix(self):
        a = np.array([[0.5, 0.1], [-0.2, 0.4]])
        mem = np.zeros(2)
        np.testing.assert_array_equal(mz_memory_matrix(a, mem, 6), np.zeros((2, 6)))
        np.testing.assert_array_equal(
            tmodel_memory_matrix(a, mem, 0.1, 6), np.zeros((2, 6))
        )

    def test_stack_needs_one_memory_vector_per_operator(self):
        rng = np.random.default_rng(2)
        a = np.stack([random_operator(rng, 2) for _ in range(3)])
        for n in (np.ones(2), np.ones((1, 2)), np.ones((2, 2))):
            with pytest.raises(ValueError, match="one memory vector per operator"):
                mz_memory_matrix(a, n, 4)
        with pytest.raises(ValueError, match="one memory vector per operator"):
            tmodel_memory_matrix(a[0], np.ones((3, 2)), 0.1, 4)

    def test_non_finite_memory_is_refused(self):
        a = np.array([[0.5, 0.1], [-0.2, 0.4]])
        for n in (np.array([np.nan, 0.0]), np.array([[1.0, np.inf]])):
            with pytest.raises(ValueError, match="finite"):
                mz_memory_matrix(a if n.ndim == 1 else a[None], n, 4)
            with pytest.raises(ValueError, match="finite"):
                tmodel_memory_matrix(a if n.ndim == 1 else a[None], n, 0.1, 4)

    def test_first_column_exactly_zero(self):
        rng = np.random.default_rng(1)
        a = random_operator(rng, 2)
        mem = rng.standard_normal(2)
        assert np.all(mz_memory_matrix(a, mem, 5)[:, 0] == 0.0)
        assert np.all(tmodel_memory_matrix(a, mem, 0.1, 5)[:, 0] == 0.0)

    def test_scalar_memory_column(self):
        # A = [3]: the transfer map vanishes, so column 1 is -e^2 before the
        # (A - I)^{-1} = 1/2 factor
        mem = np.array([1.0])
        mtil = mz_memory_matrix(np.array([[3.0]]), mem, 2)
        assert mtil[0, 1] == pytest.approx(-np.exp(2.0) / 2.0, rel=1e-12)

    def test_tmodel_identity_operator(self):
        mem = np.array([1.0, 0.0])
        g = tmodel_memory_matrix(np.eye(2), mem, 0.1, 3)
        np.testing.assert_allclose(g[:, 2], [0.2, 0.0], atol=1e-15)

    def test_tmodel_scalar_column(self):
        mem = np.array([1.0])
        g = tmodel_memory_matrix(np.array([[2.0]]), mem, 0.1, 4)
        assert g[0, 3] == pytest.approx(0.3 * np.exp(3.0), rel=1e-12)

    @pytest.mark.parametrize("cols", [200, 500])
    def test_mz_columns_match_eigenbasis_closed_form(self, cols):
        # eigenvalues 0.5 and 0.9: W^j decays like e^{-j/2} while M(A)^j grows
        # like (5/3)^j, so powering the two factors apart loses every digit
        v = np.array([[1.0, 0.6], [0.8, 1.0]])
        lam = np.array([0.5, 0.9])
        a = v @ np.diag(lam) @ np.linalg.inv(v)
        n = np.ones(2)
        j = np.arange(cols)[None, :]
        mu = (3.0 - lam) / (1.0 + lam)
        coef = np.exp(j * (lam[:, None] - 1.0)) * (mu[:, None] ** j - 1.0) / (lam[:, None] - 1.0)
        closed = v @ (coef * np.linalg.solve(v, n)[:, None])
        mtil = mz_memory_matrix(a, n, cols)
        assert np.linalg.norm(mtil - closed) / np.linalg.norm(closed) <= 1e-10

    def test_mz_singular_at_eigenvalue_one(self):
        mem = np.array([1.0, 1.0])
        with pytest.raises(SingularMatrixError):
            mz_memory_matrix(np.diag([1.0, 0.5]), mem, 4)


def _naive_objective(kind, s, mem, a):
    """Elementwise recomputation used as an independent oracle: fresh expm
    per column, matrix powers by np.linalg.matrix_power, explicit double loop for the norm."""
    d, cols = s.dim, s.cols
    eye = np.eye(d)
    residual = np.zeros((d, cols))
    for j in range(cols):
        residual[:, j] = s.x_plus[:, j] - a @ s.x_minus[:, j]
        if j >= 1 and kind != "plain-dmd":
            wj = expm(float(j) * (a - eye))
            if kind == "mz-dmd":
                col = np.linalg.solve(a - eye, wj @ ((np.linalg.matrix_power(cayley_M(a), j) - eye) @ mem))
                residual[:, j] += s.dt**2 * col
            else:
                residual[:, j] -= s.dt * (j * s.dt) * (wj @ mem)
    total = 0.0
    for i in range(d):
        for j in range(cols):
            total += residual[i, j] ** 2
    return total


def _complex_pair_operator(rng, pairs):
    """4 x 4 operator with eigenvalues radius * exp(+-i angle) for each pair."""
    blocks = np.zeros((4, 4))
    for k, (radius, angle) in enumerate(pairs):
        c, s = radius * np.cos(angle), radius * np.sin(angle)
        blocks[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[c, -s], [s, c]]
    v = np.eye(4) + 0.3 * rng.standard_normal((4, 4))
    return v @ blocks @ np.linalg.inv(v)


def _forward_mode_gradient(obj, a):
    """Slow reference gradient of a memory objective, built one operator entry
    at a time: for each direction E_pq, a Frechet derivative of expm(A - I)
    and a forward sweep of the directional derivative over every column.
    The memory columns are powered factor by factor, W^j and M(A)^j n apart."""
    s, n = obj.snapshots, obj.memory
    d, cols, dt = s.dim, s.cols, s.dt
    eye = np.eye(d)
    w = expm(a - eye)
    m_map = cayley_M(a)
    b = solve(a + eye, eye)  # (A + I)^{-1}; M(A) = 4B - I so dM = -4 B e B
    w_pows = np.empty((cols, d, d))
    w_pows[0] = eye
    m_vecs = np.empty((cols, d))
    m_vecs[0] = n
    for j in range(1, cols):
        w_pows[j] = w_pows[j - 1] @ w
        m_vecs[j] = m_map @ m_vecs[j - 1]
    r = s.x_plus - a @ s.x_minus
    if obj.kind == "mz-dmd":
        f = np.zeros((d, cols))
        for j in range(1, cols):
            f[:, j] = w_pows[j] @ (m_vecs[j] - n)
        mtil = solve(a - eye, f)
        r = r + dt**2 * mtil
        st_r = solve((a - eye).T, r)  # <r_j, S x> = <S^T r_j, x>, S = (A - I)^{-1}
    else:
        r = r - dt * np.stack([(j * dt) * (w_pows[j] @ n) for j in range(cols)], axis=1)
    term = np.zeros((d, d))
    for p in range(d):
        for q in range(d):
            e = np.zeros((d, d))
            e[p, q] = 1.0
            _, dw = expm_frechet(a - eye, e)
            dm_map = -4.0 * np.outer(b[:, p], b[q, :])
            dwj = np.zeros((d, d))
            dmv = np.zeros(d)
            for j in range(1, cols):
                dwj = dw @ w_pows[j - 1] + w @ dwj
                if obj.kind == "mz-dmd":
                    dmv = dm_map @ m_vecs[j - 1] + m_map @ dmv
                    df_col = dwj @ (m_vecs[j] - n) + w_pows[j] @ dmv
                    # d(S f_j) = S (df_j - e S f_j)
                    term[p, q] += dt**2 * float(st_r[:, j] @ (df_col - e @ mtil[:, j]))
                else:
                    term[p, q] -= dt * (j * dt) * float(r[:, j] @ (dwj @ n))
    return -2.0 * (r @ s.x_minus.T) + 2.0 * term


class TestObjectiveValue:
    def test_mz_with_zero_memory_equals_plain(self):
        rng = np.random.default_rng(2)
        s = random_snapshots(rng)
        a = random_operator(rng, 2)
        plain = objective_value(Objective("plain-dmd", s), a)
        assert objective_value(Objective("mz-dmd", s, np.zeros(2)), a) == plain
        assert objective_value(Objective("t-model", s, np.zeros(2)), a) == plain

    def test_exact_linear_data_is_zero(self):
        s, a_true = rotation_snapshots(n_snapshots=6)
        value = objective_value(Objective("mz-dmd", s, np.zeros(2)), a_true)
        assert value <= 1e-28

    @pytest.mark.parametrize("kind", ["plain-dmd", "mz-dmd", "t-model"])
    def test_matches_naive_recomputation(self, kind):
        rng = np.random.default_rng(3)
        s = random_snapshots(rng, cols=7)
        mem = rng.standard_normal(2)
        a = random_operator(rng, 2)
        obj = Objective(kind, s, mem)
        naive = _naive_objective(kind, s, mem, a)
        assert objective_value(obj, a) == pytest.approx(naive, rel=1e-10)


class TestObjectiveGradient:
    def test_stationary_at_least_squares_solution(self):
        rng = np.random.default_rng(4)
        s = random_snapshots(rng, d=2, cols=30)
        a = dmd_fit(s)
        grad = objective_value_and_gradient(Objective("plain-dmd", s), a)[1]
        bound = 1e-8 * np.linalg.norm(s.x_minus, "fro") ** 2
        assert np.linalg.norm(grad, "fro") <= bound

    @pytest.mark.parametrize("kind", ["mz-dmd", "t-model"])
    def test_matches_central_differences_4x4(self, kind):
        rng = np.random.default_rng(11)
        snaps = random_snapshots(rng, d=4, cols=8)
        obj = Objective(kind, snaps, rng.standard_normal(4))
        a = random_operator(rng, 4)
        analytic = objective_value_and_gradient(obj, a)[1]
        numeric = fd_gradient(obj, a, h=1e-6)
        scale = max(np.linalg.norm(analytic), np.linalg.norm(numeric))
        assert np.linalg.norm(analytic - numeric) / scale <= 1e-5

    def test_protocol_size_matches_forward_mode_reference(self):
        # d = 2, 500 columns, at the plain fit of the default measurement
        _, snaps = simulate_measurement(default_config())
        a = dmd_fit(snaps)
        mem = np.random.default_rng(12).standard_normal(2)
        for kind in ("mz-dmd", "t-model"):
            obj = Objective(kind, snaps, mem)
            reference = _forward_mode_gradient(obj, a)
            grad = objective_value_and_gradient(obj, a)[1]
            rel = np.linalg.norm(grad - reference) / np.linalg.norm(reference)
            assert rel <= 1e-9, kind

    def test_complex_pair_spectrum_matches_forward_mode_reference(self):
        # the reference powers W and M(A) apart, so it is only accurate where
        # their spectra stay close: complex pairs near the unit circle
        rng = np.random.default_rng(13)
        a = _complex_pair_operator(rng, [(0.98, 0.15), (0.9, 0.4)])
        snaps = random_snapshots(rng, d=4, cols=50)
        mem = rng.standard_normal(4)
        for kind in ("mz-dmd", "t-model"):
            obj = Objective(kind, snaps, mem)
            reference = _forward_mode_gradient(obj, a)
            grad = objective_value_and_gradient(obj, a)[1]
            rel = np.linalg.norm(grad - reference) / np.linalg.norm(reference)
            assert rel <= 1e-9, kind

    def test_spread_spectra_match_central_differences(self):
        # M(A) has a pair of modulus 2 and W one of modulus 0.47: over 50
        # columns powering them apart leaves the gradient 2e-5 off
        rng = np.random.default_rng(13)
        a = _complex_pair_operator(rng, [(0.95, 0.3), (0.7, 1.2)])
        obj = Objective("mz-dmd", random_snapshots(rng, d=4, cols=50), rng.standard_normal(4))
        analytic = objective_value_and_gradient(obj, a)[1]
        numeric = fd_gradient(obj, a, h=1e-6)
        scale = max(np.linalg.norm(analytic), np.linalg.norm(numeric))
        assert np.linalg.norm(analytic - numeric) / scale <= 1e-5


class TestStackedChains:
    """The power chains and their sweeps over a leading stack axis."""

    @pytest.mark.parametrize("cols", [1, 2, 7])
    def test_stack_equals_separate_chains(self, cols):
        rng = np.random.default_rng(cols)
        k = np.stack([random_operator(rng, 3) for _ in range(4)])
        w = np.stack([random_operator(rng, 3) for _ in range(4)])
        n = rng.standard_normal((4, 3))
        c = rng.standard_normal((4, 3, cols))
        kw = np.stack([k, w])
        yx = _power_columns(kw, n, cols)
        assert yx.shape == (2, 4, 3, cols)
        assert np.array_equal(yx[0], _power_columns(k, n, cols))
        assert np.array_equal(yx[1], _power_columns(w, n, cols))
        g = _power_pullback(kw, yx, c)
        assert g.shape == (2, 4, 3, 3)
        assert np.array_equal(g[0], _power_pullback(k, yx[0], c))
        assert np.array_equal(g[1], _power_pullback(w, yx[1], c))

    @pytest.mark.parametrize("cols", [1, 2, 7])
    def test_rows_and_cotangent_broadcast_over_the_stack(self, cols):
        rng = np.random.default_rng(10 + cols)
        kw = np.stack([[random_operator(rng, 2) for _ in range(3)] for _ in range(2)])
        n = rng.standard_normal((3, 2))
        c = rng.standard_normal((3, 2, cols))
        yx = _power_columns(kw, n, cols)
        assert np.array_equal(yx, _power_columns(kw, np.stack([n, n]), cols))
        assert np.array_equal(_power_pullback(kw, yx, c), _power_pullback(kw, yx, np.stack([c, c])))

    def test_columns_are_matrix_powers(self):
        rng = np.random.default_rng(20)
        kw = np.stack([[random_operator(rng, 3) for _ in range(2)] for _ in range(2)])
        n = rng.standard_normal((2, 3))
        yx = _power_columns(kw, n, 6)
        for i, u in np.ndindex(2, 2):
            for j in range(6):
                np.testing.assert_allclose(yx[i, u, :, j], np.linalg.matrix_power(kw[i, u], j) @ n[u], rtol=1e-13)

    def test_single_column_has_no_gradient(self):
        rng = np.random.default_rng(21)
        kw = np.stack([[random_operator(rng, 2)], [random_operator(rng, 2)]])
        yx = _power_columns(kw, rng.standard_normal((1, 2)), 1)
        g = _power_pullback(kw, yx, rng.standard_normal((1, 2, 1)))
        assert np.array_equal(g, np.zeros((2, 1, 2, 2)))


def _reference_mz_memory(a, n, cols):
    """The memory term with its two chains apart: ``(W M)^j n`` and ``W^j n``
    each powered by its own loop and swept back by its own loop.  Bitwise
    reference for the stacked chains of ``objectives._mz_memory``."""
    eye = np.eye(a.shape[-1])
    a_shift = a - eye
    w = expm(a_shift)
    m_map = cayley_M(a)
    k = w @ m_map
    y = _power_columns(k, n, cols)
    x = _power_columns(w, n, cols)
    f = solve(a_shift, y - x)

    def pullback(c):
        c_hat = solve(_mT(a_shift), c)
        g_k = _power_pullback(k, y, c_hat)
        g_w = g_k @ _mT(m_map) - _power_pullback(w, x, c_hat)
        b = solve(a + eye, np.broadcast_to(eye, a.shape))
        grad = -(c_hat @ _mT(f)) - 4.0 * (_mT(b) @ (_mT(w) @ g_k) @ _mT(b))
        return grad + expm_frechet(_mT(a_shift), g_w)[1]

    return f, pullback


def _assert_mz_matches_reference(snaps, mem, a):
    obj = Objective("mz-dmd", snaps, mem)
    got = (mz_memory_matrix(a, mem, snaps.cols),) + objective_value_and_gradient(obj, a)
    with mock.patch.object(objectives, "_mz_memory", _reference_mz_memory):
        want = (mz_memory_matrix(a, mem, snaps.cols),) + objective_value_and_gradient(obj, a)
    assert all(np.all(np.isfinite(x)) for x in want)
    for name, g, w in zip(("columns", "value", "gradient"), got, want):
        assert np.array_equal(g, w), name


class TestStackedMzChainsMatchReference:
    def test_long_fit_shape(self):
        # n_u 1 and 2000 columns, at the plain fit of the long record
        cfg = build_config({"t_max": 200.0, "n_points": 2001})
        _, snaps = simulate_measurement(cfg)
        a = dmd_fit(snaps)[None]
        mem = np.random.default_rng(30).standard_normal((1, 2))
        _assert_mz_matches_reference(snaps, mem, a)

    def test_protocol_shape(self):
        # n_u 100 and 500 columns, around the plain fit of the default record
        _, snaps = simulate_measurement(default_config())
        rng = np.random.default_rng(31)
        a = dmd_fit(snaps) + 1e-3 * rng.standard_normal((100, 2, 2))
        mem = rng.standard_normal((100, 2))
        _assert_mz_matches_reference(snaps, mem, a)

    def test_complex_pair_spectra(self):
        rng = np.random.default_rng(13)
        pairs = ([(0.98, 0.15), (0.9, 0.4)], [(0.95, 0.3), (0.7, 1.2)])
        a = np.stack([_complex_pair_operator(rng, p) for p in pairs])
        snaps = random_snapshots(rng, d=4, cols=50)
        mem = rng.standard_normal((2, 4))
        _assert_mz_matches_reference(snaps, mem, a)
        _assert_mz_matches_reference(snaps, mem[0], a[0])

    @settings(deadline=None)
    @given(
        d=st.integers(1, 4),
        n_u=st.integers(1, 5),
        cols=st.integers(1, 60),
        seed=st.integers(0, 2**16),
    )
    def test_matches_reference(self, d, n_u, cols, seed):
        # spectra at least 0.5 from +1 and -1, so no chain overflows in 60 columns
        rng = np.random.default_rng(seed)
        a = np.stack([random_operator(rng, d, margin=0.5) for _ in range(n_u)])
        mem = rng.standard_normal((n_u, d))
        _assert_mz_matches_reference(random_snapshots(rng, d, cols), mem, a)


class TestFdGradient:
    def test_quadratic_callable(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((3, 3))
        grad = fd_gradient(lambda x: float(np.sum(x * x)), a, h=1e-6)
        assert np.abs(grad - 2 * a).max() <= 1e-8

    def test_plain_dmd_matches_closed_form(self):
        rng = np.random.default_rng(7)
        s = random_snapshots(rng, cols=12)
        a = random_operator(rng, 2)
        numeric = fd_gradient(Objective("plain-dmd", s), a)
        closed = -2.0 * (s.x_plus - a @ s.x_minus) @ s.x_minus.T
        assert np.abs(numeric - closed).max() <= 1e-6

    def test_step_size_consistency(self):
        rng = np.random.default_rng(8)
        obj = all_kind_objectives(rng)[2]
        a = random_operator(rng, 2)
        coarse = fd_gradient(obj, a, h=1e-4)
        fine = fd_gradient(obj, a, h=1e-6)
        assert np.abs(coarse - fine).max() <= 1e-4


class TestMemoryKernels:
    def test_zero_start_stays_zero(self):
        lam = np.array([0.3 + 0.2j, -0.5 + 0.0j])
        for fn in (memory_kernel_closed, memory_kernel_trapezoid):
            out = fn(lam, np.zeros(2), 10, 0.1)
            np.testing.assert_array_equal(out, np.zeros((10, 2), dtype=complex))

    def test_zero_generator_is_constant(self):
        m0 = np.array([1.0 + 1.0j, -2.0 + 0.0j])
        for fn in (memory_kernel_closed, memory_kernel_trapezoid):
            out = fn(np.zeros(2), m0, 7, 0.1)
            np.testing.assert_allclose(out, np.tile(m0, (7, 1)), atol=1e-14)

    def test_scalar_first_step(self):
        out = memory_kernel_closed(np.array([1.0]), np.array([1.0]), 1, 0.1)
        expected = np.exp(0.1) * (1.0 - 0.1 / 1.05)
        assert out[0, 0] == pytest.approx(expected, rel=1e-14)
        assert abs(out[0, 0] - 1.0) < 1e-4  # the scalar oracle lands near 1

    def test_singular_denominator(self):
        with pytest.raises(SingularMatrixError):
            memory_kernel_closed(np.array([-20.0]), np.array([1.0]), 3, 0.1)


_PAIR = SnapshotPair.from_snapshots(np.arange(6.0).reshape(2, 3), 0.1)


@pytest.mark.parametrize("record", [
    _PAIR,
    Objective("mz-dmd", _PAIR, np.ones(2)),
    SpectralModel(np.array([1.0, 0.5]), np.eye(2), 0.1),
], ids=lambda record: type(record).__name__)
def test_array_records_compare_by_identity(record):
    # a generated __eq__ would compare the ndarray fields as a tuple, which
    # raises; identity equality also gives a working hash
    twin = copy.deepcopy(record)
    assert record == record
    assert record != twin
    assert hash(record) == hash(record)
    assert len({record, twin}) == 2
