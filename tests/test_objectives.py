import copy
import itertools
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from conftest import all_kind_objectives, assert_bitwise, random_operator, random_snapshots, rotation_snapshots
from hypothesis import example, given, settings
from hypothesis import strategies as st
from memory_kernels import memory_kernel_closed, memory_kernel_trapezoid

from mzdmd import (
    AdamConfig,
    DivergenceError,
    NumericalError,
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
    fit_transition,
    mz_memory_matrix,
    objective_value,
    objective_value_and_gradient,
    simulate_measurement,
    solve,
    tmodel_memory_matrix,
)
from mzdmd import objectives
from mzdmd.config import build_config
from mzdmd.objectives import _power_columns, _power_pullback
from mzdmd.selfcheck import mz_closed_form_deviation


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
        for n in (0, 1):
            with pytest.raises(ValueError, match="two snapshot columns"):
                SnapshotPair.from_snapshots(np.zeros((2, n)), 0.1)

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


_PAIR = SnapshotPair(np.ones((2, 3)), np.ones((2, 3)), 0.1)


@pytest.mark.parametrize("call, match", [
    (lambda: SnapshotPair(np.ones(3), np.ones(3), 0.1), "^snapshot matrices must be 2-D$"),
    (lambda: SnapshotPair(np.ones((2, 0)), np.ones((2, 0)), 0.1), "^snapshot matrices must be nonempty$"),
    (lambda: cayley_M(np.ones((2, 3))), "^cayley_M requires a square matrix"),
    (lambda: objective_value(Objective("plain-dmd", _PAIR), np.eye(3)), "^operator shape does not match"),
    (lambda: tmodel_memory_matrix(np.eye(2), np.ones(2), 0.0, 4), "^dt must be positive$"),
    (lambda: tmodel_memory_matrix(np.eye(2), np.ones(2), -0.1, 4), "^dt must be positive$"),
    (lambda: fd_gradient(lambda x: 0.0, np.eye(2), h=0.0), "^h must be positive$"),
    (lambda: fd_gradient(lambda x: 0.0, np.eye(2), h=-1e-6), "^h must be positive$"),
], ids=["1-D snapshots", "empty snapshots", "non-square cayley_M", "wrong operator shape",
        "zero t-model dt", "negative t-model dt", "zero fd step", "negative fd step"])
def test_invalid_input_is_refused(call, match):
    with pytest.raises(ValueError, match=match):
        call()


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

    @pytest.mark.parametrize("kind", ["mz-dmd", "t-model"])
    def test_non_finite_operator_is_refused(self, kind):
        for a in (np.array([[np.nan, 0.0], [0.0, 0.5]]), np.stack([0.5 * np.eye(2), np.diag([np.inf, 0.5])])):
            with pytest.raises(ValueError, match="^operator must be finite$"):
                _memory_columns(kind, a, np.ones(a.shape[:-1]), 4)

    @pytest.mark.parametrize("kind", ["mz-dmd", "t-model"])
    def test_cols_below_one_is_refused(self, kind):
        a = np.array([[0.5, 0.1], [-0.2, 0.4]])
        for cols in (0, -1):
            with pytest.raises(ValueError, match="cols must be at least 1"):
                _memory_columns(kind, a, np.ones(2), cols)

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

    def test_mz_column_at_eigenvalue_one_is_its_limit(self):
        # (A - I)^{-1} (M^j - I) = -2 (A + I)^{-1} sum_{k<j} M^k, so the
        # singularity at eigenvalue 1 is removable: the first row is -j
        j = np.arange(40)
        mtil = mz_memory_matrix(np.diag([1.0, 0.5]), np.ones(2), 40)
        second = ((np.exp(-0.5) * 5.0 / 3.0) ** j - np.exp(-0.5 * j)) / -0.5
        np.testing.assert_array_equal(mtil[0], -j)
        assert np.abs(mtil[1] - second).max() <= 1e-14 * np.abs(second).max()

    @pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8])
    def test_mz_columns_near_eigenvalue_one_match_closed_form(self, eps):
        v = np.array([[1.0, 0.6], [0.8, 1.0]])
        lam = np.array([1.0 - eps, 0.5])
        assert mz_closed_form_deviation(v, lam, np.ones(2), 400) <= 1e-12


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
            dw = expm_frechet(a - eye, e)
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


    @pytest.mark.parametrize("evaluate", [objective_value, objective_value_and_gradient])
    @pytest.mark.parametrize("kind", ["plain-dmd", "mz-dmd", "t-model"])
    def test_non_finite_operator_is_refused(self, kind, evaluate):
        # refused as non-finite memory is, before the exponential or the
        # residual can report it as an overflow or a divergence
        s = random_snapshots(np.random.default_rng(5))
        for a in (np.array([[np.nan, 0.0], [0.0, 0.5]]), np.stack([0.5 * np.eye(2), np.diag([np.inf, 0.5])])):
            obj = Objective(kind, s, None if kind == "plain-dmd" else np.ones(a.shape[:-1]))
            with pytest.raises(ValueError, match="^operator must be finite$"):
                evaluate(obj, a)


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
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n_u", [1, 4])
    def test_stack_equals_separate_chains(self, n_u, d, cols):
        # a stack and each of its slices on its own run the same batched
        # matmuls; the bytes must agree, signed zeros included
        rng = np.random.default_rng([n_u, d, cols])
        k = np.stack([random_operator(rng, d) for _ in range(n_u)])
        w = np.stack([random_operator(rng, d) for _ in range(n_u)])
        n = rng.standard_normal((n_u, d))
        c = rng.standard_normal((n_u, d, cols))
        n[0, 0] = c[0, 0, -1] = -0.0
        kw = np.stack([k, w])
        yx, levels = _power_columns(kw, n, cols)
        assert yx.shape == (2, n_u, d, cols)
        g = _power_pullback(yx, levels, c)
        assert g.shape == (2, n_u, d, d)
        for i, m in enumerate((k, w)):
            x, levels = _power_columns(m, n, cols)
            assert yx[i].tobytes() == x.tobytes()
            assert g[i].tobytes() == _power_pullback(x, levels, c).tobytes()
            for u in range(n_u):
                x, levels = _power_columns(m[u], n[u], cols)
                assert yx[i, u].tobytes() == x.tobytes()
                assert g[i, u].tobytes() == _power_pullback(x, levels, c[u]).tobytes()

    @pytest.mark.parametrize("cols", [1, 2, 7])
    def test_rows_and_cotangent_broadcast_over_the_stack(self, cols):
        rng = np.random.default_rng(10 + cols)
        kw = np.stack([[random_operator(rng, 2) for _ in range(3)] for _ in range(2)])
        n = rng.standard_normal((3, 2))
        c = rng.standard_normal((3, 2, cols))
        yx, levels = _power_columns(kw, n, cols)
        assert np.array_equal(yx, _power_columns(kw, np.stack([n, n]), cols)[0])
        assert np.array_equal(_power_pullback(yx, levels, c), _power_pullback(yx, levels, np.stack([c, c])))

    def test_columns_are_matrix_powers(self):
        rng = np.random.default_rng(20)
        kw = np.stack([[random_operator(rng, 3) for _ in range(2)] for _ in range(2)])
        n = rng.standard_normal((2, 3))
        yx, _ = _power_columns(kw, n, 6)
        for i, u in np.ndindex(2, 2):
            for j in range(6):
                np.testing.assert_allclose(yx[i, u, :, j], np.linalg.matrix_power(kw[i, u], j) @ n[u], rtol=1e-13)

    def test_zero_chains_have_zero_gradient_where_the_sweep_overflows(self):
        # spectral radius 12.95 over 400 columns: a finite cotangent pushed
        # back through the powers overflows, but chains that start from a
        # zero row are all zero, so their gradient is exactly zero and not
        # inf * 0 = NaN
        m = np.stack([12.95 * np.array([[0.0, -1.0], [1.0, 0.0]]), 0.5 * np.eye(2)])
        v = np.array([[0.0, 0.0], [1.0, -2.0]])
        x, levels = _power_columns(m, v, 400)
        c = np.ones((2, 2, 400))
        with np.errstate(over="ignore", invalid="ignore"):
            g = _power_pullback(x, levels, c)
        assert not x[0].any()
        assert g[0].tobytes() == np.zeros((2, 2)).tobytes()
        assert g[1].tobytes() == _reference_power_pullback(m[1], x[1], c[1]).tobytes()

    def test_single_column_has_no_gradient(self):
        rng = np.random.default_rng(21)
        kw = np.stack([[random_operator(rng, 2)], [random_operator(rng, 2)]])
        yx, levels = _power_columns(kw, rng.standard_normal((1, 2)), 1)
        g = _power_pullback(yx, levels, rng.standard_normal((1, 2, 1)))
        assert np.array_equal(g, np.zeros((2, 1, 2, 2)))


def _reference_columns(chain):
    """A chain laid out (cols, ..., d, 1) as C-contiguous (..., d, cols) columns."""
    return np.ascontiguousarray(np.moveaxis(chain[..., 0], 0, -1))


def _reference_power_columns(m, v, cols):
    """The forward chain as one ``matmul`` a step on (..., d, 1) columns:
    the sequential oracle for ``objectives._power_columns``."""
    x = np.empty((cols,) + m.shape[:-1] + (1,))
    x[0] = v[..., None]
    steps = list(x)
    for prev, cur in zip(steps, steps[1:]):
        np.matmul(m, prev, cur)
    return _reference_columns(x)


def _reference_power_pullback(m, x, c):
    """The sweep with a zeroed sweep array of (..., d, 1) columns, one
    ``matmul`` a step and a broadcasting add of each cotangent column: the
    sequential oracle for ``objectives._power_pullback``."""
    cols = c.shape[-1]
    mt = m.mT
    p = np.zeros((cols + 1,) + m.shape[:-1] + (1,))  # p[cols] = 0 starts the sweep
    ps, cs = list(p), list(np.moveaxis(c, -1, 0)[..., None])
    for nxt, cur, cj in zip(ps[cols:1:-1], ps[cols - 1:0:-1], cs[cols - 1:0:-1]):
        np.matmul(mt, nxt, cur)
        np.add(cur, cj, cur)
    return _reference_columns(p[:cols])[..., 1:] @ x[..., :-1].mT


def _contracting_stack(rng, shape):
    """Random (..., d, d) operators scaled to spectral radius 0.95, so a
    chain stays finite over thousands of columns."""
    m = rng.standard_normal(shape)
    radius = np.abs(np.linalg.eigvals(m)).max(axis=-1)
    return m * (0.95 / radius)[..., None, None]


# layout of the stack and cotangent, dimension, stack size and column count
_CHAIN_GRID = pytest.mark.parametrize("layout, d, n_u, cols", list(itertools.product(
    ["stacked, broadcast cotangent", "stacked, full cotangent", "plain"], [1, 2, 3], [1, 5], [1, 2, 7, 2000])))


def _assert_within_rounding(got, want, bound, axis):
    """``got`` finite and within ``bound`` of ``want`` relative to the largest
    magnitude of ``want`` over ``axis``; where that magnitude is zero or
    subnormal, within the smallest normal float."""
    scale = np.abs(want).max(axis=axis, keepdims=True)
    assert np.all(np.isfinite(got))
    assert np.all(np.abs(got - want) <= np.maximum(bound * scale, np.finfo(float).tiny))


class TestPowerColumnsMatchReference:
    """The doubling chain against the sequential one.  On this grid the
    columns were at most 8.1e-16 of each slice's largest magnitude apart."""

    @_CHAIN_GRID
    def test_matches_sequential_chain(self, layout, d, n_u, cols):
        rng = np.random.default_rng([d, n_u, cols])
        lead = (n_u,) if layout == "plain" else (2, n_u)
        m = _contracting_stack(rng, lead + (d, d))
        v = rng.standard_normal((n_u, d))
        v[0, 0] = -0.0
        got, want = _power_columns(m, v, cols)[0], _reference_power_columns(m, v, cols)
        assert got.shape == want.shape == lead + (d, cols)
        assert got.flags.c_contiguous
        _assert_within_rounding(got, want, 4e-15, axis=(-2, -1))


class TestPowerPullbackMatchesReference:
    """Reverse mode through the doubling against the sequential sweep.  On
    this grid the gradients were at most 1.3e-15 of the stack's largest
    magnitude apart; a slice's own scale would not do, as its terms may
    cancel.  A zero cotangent gives the sequential sweep's bytes, signed
    zeros included."""

    @_CHAIN_GRID
    def test_matches_sequential_sweep(self, layout, d, n_u, cols):
        rng = np.random.default_rng([d, n_u, cols])
        lead = (n_u,) if layout == "plain" else (2, n_u)
        m = _contracting_stack(rng, lead + (d, d))
        x, levels = _power_columns(m, rng.standard_normal((n_u, d)), cols)
        c = rng.standard_normal((lead if layout == "stacked, full cotangent" else (n_u,)) + (d, cols))
        c[..., -1] = -0.0
        c[..., cols // 2] = -0.0
        c_before = c.copy()
        got, want = _power_pullback(x, levels, c), _reference_power_pullback(m, x, c)
        assert got.shape == want.shape == lead + (d, d)
        _assert_within_rounding(got, want, 4e-15, axis=None)
        assert c.tobytes() == c_before.tobytes()

    @pytest.mark.parametrize("cols", [1, 2, 7])
    def test_zero_cotangent(self, cols):
        rng = np.random.default_rng(50 + cols)
        m = _contracting_stack(rng, (2, 3, 2, 2))
        x, levels = _power_columns(m, rng.standard_normal((3, 2)), cols)
        c = np.full((3, 2, cols), -0.0)
        assert _power_pullback(x, levels, c).tobytes() == _reference_power_pullback(m, x, c).tobytes()


# at A = diag(-0.5, 0.3) mz-dmd's W M has eigenvalues 1.56 and 1.03, so
# (W M)^2048 leaves float range, and so does the chain of any memory with a
# component along the first axis; t-model's W = expm(A - I) decays
_GROWING = np.diag([-0.5, 0.3])
# a chain that neither grows nor decays much, to stack with an overflowing one
_STEADY = 0.999 * np.array([[np.cos(0.1), -np.sin(0.1)], [np.sin(0.1), np.cos(0.1)]])


def _memory_columns(kind, a, n, cols):
    if kind == "mz-dmd":
        return mz_memory_matrix(a, n, cols)
    return tmodel_memory_matrix(a, n, 0.1, cols)


class TestDoublingRisks:
    """Where powering by doubling could part from the sequential chain: powers
    that leave float range before the chain does, non-normal operators, and
    chains that overflow on their own."""

    @pytest.mark.parametrize("cols", [3000, 5000])
    @pytest.mark.parametrize("kind", ["mz-dmd", "t-model"])
    def test_zero_memory_is_the_plain_objective(self, kind, cols):
        # 0 times an overflowing power would be NaN; the powers' exponents
        # keep them finite, so the columns are exactly zero
        rng = np.random.default_rng(90)
        snaps = random_snapshots(rng, cols=cols)
        obj, plain = Objective(kind, snaps, np.zeros(2)), Objective("plain-dmd", snaps)
        assert_bitwise(_memory_columns(kind, _GROWING, np.zeros(2), cols), np.zeros((2, cols)))
        value, grad = objective_value_and_gradient(obj, _GROWING)
        plain_value, plain_grad = objective_value_and_gradient(plain, _GROWING)
        assert np.isfinite(value) and value == plain_value == objective_value(obj, _GROWING)
        np.testing.assert_array_equal(grad, plain_grad)

    @pytest.mark.parametrize("cols", [3000, 5000])
    @pytest.mark.parametrize("kind", ["mz-dmd", "t-model"])
    def test_memory_in_an_invariant_subspace_matches_the_sequential_chain(self, kind, cols):
        # the chain stays on the second axis, where it grows 1.03-fold a
        # step, while the powers' entries on the first axis leave float
        # range: one exponent per row keeps both.  The chains' rounding grows
        # with the column: at 5000 columns mz-dmd's columns were 3.3e-13 of
        # a column's scale apart, and its values 6.6e-13 of the value
        n = np.array([0.0, 1.0])
        snaps = random_snapshots(np.random.default_rng(91), cols=cols)
        got = _memory_columns(kind, _GROWING, n, cols), objective_value(Objective(kind, snaps, n), _GROWING)
        def sequential(m, v, cols):  # objective values take no levels
            return _reference_power_columns(m, v, cols), None

        with mock.patch.object(objectives, "_power_columns", sequential):
            want = _memory_columns(kind, _GROWING, n, cols), objective_value(Objective(kind, snaps, n), _GROWING)
        assert np.all(np.isfinite(want[0]))
        _assert_within_rounding(got[0], want[0], 1e-12, axis=-2)
        assert abs(got[1] - want[1]) <= 2e-12 * want[1]

    def test_non_normal_operator_matches_the_sequential_chain(self):
        # the powers peak at 194 in norm near the 10th and then decay
        # 0.9-fold a step: measured 4.6e-14 of a column's scale apart, and
        # the gradients 6.0e-16 of theirs
        rng = np.random.default_rng(92)
        m = np.array([[0.9, 50.0], [0.0, 0.9]])
        v, c = rng.standard_normal(2), rng.standard_normal((2, 2000))
        x, levels = _power_columns(m, v, 2000)
        _assert_within_rounding(x, _reference_power_columns(m, v, 2000), 2e-13, axis=-2)
        _assert_within_rounding(_power_pullback(x, levels, c), _reference_power_pullback(m, x, c), 1e-15, axis=None)

    def test_ill_conditioned_complex_pairs_match_the_sequential_chain(self):
        # pairs 0.999 e^{+-0.05 i} and 0.99 e^{+-0.3 i} with nearly parallel
        # eigenvectors: cond(V) 880, and powers that peak at 830 in norm.
        # Squaring rounds at the square of that peak where the sequential
        # chain rounds at the peak, so the doubling loses more digits:
        # against a 40-digit chain it was 4.8e-10 of scale off, the
        # sequential chain 2.1e-12.  The two were 4.8e-10 apart, and their
        # gradients 9.6e-10
        rng = np.random.default_rng(6)
        v = np.eye(4) + 0.3 * rng.standard_normal((4, 4))
        v[:, 2] = v[:, 0] + 0.03 * rng.standard_normal(4)
        blocks = np.zeros((4, 4))
        for k, (radius, angle) in enumerate([(0.999, 0.05), (0.99, 0.3)]):
            c, s = radius * np.cos(angle), radius * np.sin(angle)
            blocks[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[c, -s], [s, c]]
        m = v @ blocks @ np.linalg.inv(v)
        start, c = rng.standard_normal(4), rng.standard_normal((4, 2000))
        x, levels = _power_columns(m, start, 2000)
        _assert_within_rounding(x, _reference_power_columns(m, start, 2000), 2e-9, axis=None)
        _assert_within_rounding(_power_pullback(x, levels, c), _reference_power_pullback(m, x, c), 4e-9, axis=None)

    def test_row_exponents_reach_the_adjoint(self):
        # the chain stays on the second axis and decays 0.9-fold a step,
        # while the powers past M^1024 leave float range on the first axis
        # and carry row exponents.  The cotangent is zero on the first row,
        # so the gradient is finite, [[0, 0], [0, -11.191027968...]]; it
        # stays so only while 2^e scales the cotangent side, as scaling the
        # powers themselves makes an inf that meets a zero.  Measured 6.3e-16
        # of scale off the sequential sweep
        m, v = np.diag([1.56, 0.9]), np.array([0.0, 1.0])
        c = np.zeros((2, 3000))
        c[1] = np.random.default_rng(0).standard_normal(3000)
        with np.errstate(over="ignore"):
            x, levels = _power_columns(m, v, 3000)
            got = _power_pullback(x, levels, c)
        want = _reference_power_pullback(m, x, c)
        assert want[1, 1] == pytest.approx(-11.19102797)
        _assert_within_rounding(got, want, 4e-15, axis=None)

    @pytest.mark.parametrize("evaluate", [objective_value, objective_value_and_gradient])
    @pytest.mark.parametrize("kind, bad", [("mz-dmd", _GROWING), ("t-model", np.diag([1.5, 0.3]))])
    def test_overflowing_chain_names_only_its_slice(self, kind, bad, evaluate):
        # the first slice's chain overflows within 3000 columns: mz-dmd's
        # grows 1.56-fold a step, t-model's W = expm(A - I) 1.65-fold
        rng = np.random.default_rng(93)
        obj = Objective(kind, random_snapshots(rng, cols=3000), rng.standard_normal((2, 2)))
        a = np.stack([bad, _STEADY])
        with pytest.raises(DivergenceError, match=r"objective value is not finite in slices \[0\]$") as excinfo:
            evaluate(obj, a)
        assert excinfo.value.indices == [0]
        # the first slice's powers overflow, so the stack's carry exponents;
        # they move no bit of the second slice, whose chain neither grows
        # nor decays much.  The public matrices refuse the stack, so its
        # columns come from the memory term itself
        with np.errstate(over="ignore", invalid="ignore"):
            if kind == "mz-dmd":
                columns = objectives._mz_memory(a, obj.memory, 3000)[0]
            else:
                columns = objectives._tmodel_memory(a, obj.memory, 0.1, 3000)[0]
        assert np.abs(columns[1, :, 2048:]).max() > 1e-6
        assert_bitwise(columns[1], _memory_columns(kind, a[1], obj.memory[1], 3000))

    @pytest.mark.parametrize("kind, bad", [("mz-dmd", _GROWING), ("t-model", np.diag([1.5, 0.3]))])
    def test_overflowing_memory_matrix_names_only_its_slice(self, kind, bad):
        # the public matrices fail as the objective does: a typed error
        # naming the slice, and no numpy warning
        rng = np.random.default_rng(93)
        memory = rng.standard_normal((2, 2))
        a = np.stack([bad, _STEADY])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match=r"^memory columns are not finite in slices \[0\]$") as excinfo:
                _memory_columns(kind, a, memory, 3000)
            with pytest.raises(DivergenceError, match=r"^memory columns are not finite$"):
                _memory_columns(kind, bad, memory[0], 3000)
        assert excinfo.value.indices == [0]


class TestValueAndGradientLeavesItsInputs:
    """The cotangent is scaled in place inside one call; a second call on the
    same objective and operator must see the same inputs."""

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("kind", ["mz-dmd", "t-model"])
    def test_repeat_call_is_bitwise_equal(self, kind, stacked):
        rng = np.random.default_rng(60)
        snaps = random_snapshots(rng, d=3, cols=20)
        a = np.stack([random_operator(rng, 3) for _ in range(4)])
        a = a if stacked else a[0]
        obj = Objective(kind, snaps, rng.standard_normal(a.shape[:-1]))
        inputs = (a, snaps.x_plus, snaps.x_minus, obj.memory)
        before = [x.copy() for x in inputs]
        first = objective_value_and_gradient(obj, a)
        second = objective_value_and_gradient(obj, a)
        for got, want in zip(second, first):
            assert_bitwise(got, want)
        for got, want in zip(inputs, before):
            assert_bitwise(got, want)


def test_one_column_gradient_is_exact():
    # at one column no power is formed and the pullback takes no step
    rng = np.random.default_rng(74)
    snaps = random_snapshots(rng, d=4, cols=1)
    a = np.stack([random_operator(rng, 4) for _ in range(4)])
    mem = rng.standard_normal((4, 4))
    grad = objective_value_and_gradient(Objective("mz-dmd", snaps, mem), a)[1]
    exact = _complex_step_mz_gradient(snaps, mem, a)
    assert np.abs(grad - exact).max() <= 1e-14 * np.abs(exact).max()


@pytest.mark.parametrize("stacked", [False, True])
def test_mz_evaluation_makes_one_solve(stacked):
    # cayley_M's (A + I) is the only matrix a value or a value and gradient
    # solves against; none solves against A - I
    rng = np.random.default_rng(75)
    snaps = random_snapshots(rng, d=3, cols=20)
    a = np.stack([random_operator(rng, 3) for _ in range(4)])
    a = a if stacked else a[0]
    obj = Objective("mz-dmd", snaps, rng.standard_normal(a.shape[:-1]))
    with mock.patch.object(objectives.linalg, "solve", wraps=objectives.linalg.solve) as solve:
        objective_value(obj, a)
        assert solve.call_count == 1
        objective_value_and_gradient(obj, a)
        assert solve.call_count == 2


def _overflowing_operator():
    """A 2 x 2 operator with eigenvalues -0.95 and 0.3.  M(A) has eigenvalue
    79 there, so the mz-dmd memory chain grows about elevenfold a step and
    its residual overflows within 200 columns."""
    v = np.array([[1.0, 0.4], [0.3, 1.0]])
    return v @ np.diag([-0.95, 0.3]) @ np.linalg.inv(v)


class TestNonFiniteObjective:
    """An overflowing objective raises a typed error naming its slices, and
    numpy warns nothing on the way."""

    @pytest.mark.parametrize("evaluate", [objective_value, objective_value_and_gradient])
    @pytest.mark.parametrize("action", ["default", "error"])
    def test_single_operator(self, action, evaluate):
        rng = np.random.default_rng(80)
        obj = Objective("mz-dmd", random_snapshots(rng, cols=200), rng.standard_normal(2))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action, RuntimeWarning)
            with pytest.raises(DivergenceError, match="objective value is not finite$") as excinfo:
                evaluate(obj, _overflowing_operator())
        assert caught == []
        assert excinfo.value.indices is None and excinfo.value.step is None

    @pytest.mark.parametrize("evaluate", [objective_value, objective_value_and_gradient])
    def test_stack_names_only_the_bad_slice(self, evaluate):
        rng = np.random.default_rng(81)
        obj = Objective("mz-dmd", random_snapshots(rng, cols=200), rng.standard_normal((2, 2)))
        a = np.stack([_overflowing_operator(), random_operator(rng, 2)])
        with pytest.raises(DivergenceError, match=r"in slices \[0\]$") as excinfo:
            evaluate(obj, a)
        assert excinfo.value.indices == [0]

    @pytest.mark.parametrize("cols", [100, 150])
    @pytest.mark.parametrize("action", ["default", "error"])
    def test_exponential_overflow_in_the_gradient(self, action, cols):
        # over 100 to 150 columns the value is finite, but the Frechet
        # derivative of expm(A - I) along the chains' gradient overflows, and
        # the exponential's own error passes through
        rng = np.random.default_rng(80)
        obj = Objective("mz-dmd", random_snapshots(rng, cols=cols), rng.standard_normal(2))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action, RuntimeWarning)
            assert np.isfinite(objective_value(obj, _overflowing_operator()))
            with pytest.raises(NumericalError, match="^matrix exponential overflowed; input norm too large$") as excinfo:
                objective_value_and_gradient(obj, _overflowing_operator())
        assert caught == []
        assert excinfo.value.indices is None and excinfo.value.step is None

    def test_exponential_overflow_names_only_the_bad_slice(self):
        rng = np.random.default_rng(80)
        snaps, mem = random_snapshots(rng, cols=100), rng.standard_normal(2)
        obj = Objective("mz-dmd", snaps, np.stack([mem, mem]))
        a = np.stack([_overflowing_operator(), random_operator(rng, 2)])
        with pytest.raises(NumericalError, match=r"^matrix exponential overflowed in slices \[0\];") as excinfo:
            objective_value_and_gradient(obj, a)
        assert excinfo.value.indices == [0]
        assert np.isfinite(objective_value_and_gradient(Objective("mz-dmd", snaps, mem), a[1])[1]).all()

    def test_exponential_overflow_is_stamped_with_the_iteration(self):
        rng = np.random.default_rng(80)
        obj = Objective("mz-dmd", random_snapshots(rng, cols=100), rng.standard_normal(2))
        with pytest.raises(NumericalError, match="^matrix exponential overflowed;") as excinfo:
            fit_transition(obj, _overflowing_operator(), AdamConfig())
        assert excinfo.value.step == 0 and excinfo.value.indices is None

    @pytest.mark.parametrize("kind", ["mz-dmd", "t-model"])
    def test_forward_exponential_overflow_is_stamped_with_the_iteration(self, kind):
        # expm(A - I) overflows in the forward pass at the first iterate; the
        # fit stamps the exponential's own error as it does the gradient's
        rng = np.random.default_rng(83)
        obj = Objective(kind, random_snapshots(rng), rng.standard_normal(2))
        with pytest.raises(NumericalError, match="^matrix exponential overflowed;") as excinfo:
            fit_transition(obj, np.diag([800.0, 0.5]), AdamConfig())
        assert excinfo.value.step == 0 and excinfo.value.indices is None

    @pytest.mark.parametrize("evaluate", [objective_value, objective_value_and_gradient])
    def test_singular_transfer_map_names_only_its_slice(self, evaluate):
        # A + I is singular in the second slice, so the forward pass's one
        # solve refuses it, before any value or gradient is formed
        rng = np.random.default_rng(82)
        obj = Objective("mz-dmd", random_snapshots(rng), rng.standard_normal((2, 2)))
        a = np.stack([0.5 * np.eye(2), np.diag([-1.0, 0.3])])
        with pytest.raises(SingularMatrixError, match="cond ~ inf") as excinfo:
            evaluate(obj, a)
        assert excinfo.value.indices == [1]

    @pytest.mark.parametrize("evaluate", [objective_value, objective_value_and_gradient])
    def test_singular_transfer_map_at_one_operator_passes_through(self, evaluate):
        # a single operator takes the same forward solve as a stack of one
        rng = np.random.default_rng(82)
        obj = Objective("mz-dmd", random_snapshots(rng), rng.standard_normal(2))
        with pytest.raises(SingularMatrixError, match="cond ~ inf") as excinfo:
            evaluate(obj, np.diag([-1.0, 0.3]))
        assert excinfo.value.indices is None

    @pytest.mark.parametrize("call", ["value", "value and gradient", "memory matrix"])
    @pytest.mark.parametrize("kind, bad, error", [
        ("mz-dmd", np.diag([800.0, 0.3]), NumericalError),  # expm(A - I) overflows
        ("t-model", np.diag([800.0, 0.3]), NumericalError),
        ("mz-dmd", np.diag([-1.0, 0.3]), SingularMatrixError),  # A + I is singular
    ])
    def test_single_operator_fails_like_a_stack_of_one(self, kind, bad, error, call):
        # only a stack of two or more names slices, on every route to a
        # failure of the forward pass
        rng = np.random.default_rng(84)
        snaps, mem = random_snapshots(rng), rng.standard_normal((2, 2))

        def run(a, n):
            if call == "memory matrix":
                return _memory_columns(kind, a, n, snaps.cols)
            evaluate = objective_value if call == "value" else objective_value_and_gradient
            return evaluate(Objective(kind, snaps, n), a)

        failures = []
        for a, n in [(bad, mem[0]), (bad[None], mem[:1])]:
            with pytest.raises(error) as excinfo:
                run(a, n)
            failures.append(excinfo.value)
        single, stack_of_one = failures
        assert type(single) is type(stack_of_one) is error
        assert str(single) == str(stack_of_one) and "in slices" not in str(single)
        assert single.indices is None and stack_of_one.indices is None
        with pytest.raises(error, match=r"in slices \[1\]") as excinfo:
            run(np.stack([0.5 * np.eye(2), bad]), mem)
        assert excinfo.value.indices == [1]

    def test_gradient_overflow_at_a_finite_value(self):
        # slice 1 leaves residuals of 1e150, whose squares sum to a finite
        # value while their product with snapshots of 1e200 overflows
        s = SnapshotPair(np.full((2, 3), 1e150), np.full((2, 3), 1e200), 0.1)
        a = np.stack([np.full((2, 2), 0.5e-50), np.zeros((2, 2))])
        assert np.all(np.isfinite(objective_value(Objective("plain-dmd", s), a)))
        with pytest.raises(DivergenceError, match=r"objective gradient is not finite in slices \[1\]$"):
            objective_value_and_gradient(Objective("plain-dmd", s), a)


def _reference_mz_memory(a, n, cols):
    """The memory term with its two chains apart: ``(W M)^j n`` and ``W^j n``
    each powered by its own chain and swept back by its own scan, and
    ``(A - I)^{-1}`` applied by solves.
    Reference for the telescoped chain of ``objectives._mz_memory``."""
    eye = np.eye(a.shape[-1])
    a_shift = a - eye
    w = expm(a_shift)
    m_map = cayley_M(a)
    k = w @ m_map
    y, y_levels = _power_columns(k, n, cols)
    x, x_levels = _power_columns(w, n, cols)
    f = solve(a_shift, y - x)

    def pullback(c):
        c_hat = solve(a_shift.mT, c)
        g_k = _power_pullback(y, y_levels, c_hat)
        g_w = g_k @ m_map.mT - _power_pullback(x, x_levels, c_hat)
        b = solve(a + eye, np.broadcast_to(eye, a.shape))
        grad = -(c_hat @ f.mT) - 4.0 * (b.mT @ (w.mT @ g_k) @ b.mT)
        return grad + expm_frechet(a_shift.mT, g_w)

    return f, pullback


def _complex_step_mz_gradient(snaps, mem, a, h=1e-30):
    """The mz-dmd objective's gradient at each slice of a stack A (n_u, d, d)
    by complex steps ``Im f(A + i h E_kl) / h``, with the memory columns
    ``(A - I)^{-1} ((W M)^j n - W^j n)`` from matrix products on the
    perturbed operators.  No two values are subtracted and no pullback
    sweeps back, so it keeps the digits the chain pullbacks lose: where they
    lost the most, it agreed with a 60-digit evaluation to 5e-15."""
    n_u, d = mem.shape
    eye = np.eye(d)
    ac = (a[:, None] + 1j * h * np.eye(d * d).reshape(d * d, d, d)).reshape(-1, d, d)
    w = expm(ac - eye)
    k = w @ (eye - 2.0 * (ac - eye) @ np.linalg.inv(ac + eye))
    y = x = np.broadcast_to(mem.astype(complex)[:, None, :, None], (n_u, d * d, d, 1)).reshape(-1, d, 1)
    diffs = []
    for _ in range(snaps.cols):
        diffs.append(y - x)
        y, x = k @ y, w @ x
    f = np.linalg.solve(ac - eye, np.concatenate(diffs, axis=-1))
    r = snaps.x_plus - ac @ snaps.x_minus + snaps.dt**2 * f
    return (r * r).sum(axis=(-2, -1)).imag.reshape(n_u, d, d) / h


def _mpmath_mz(snaps, mem, a, dps=40):
    """The mz-dmd memory columns ``(A - I)^{-1} ((W M)^j n - W^j n)`` and
    the objective's value at each slice of a stack A (n_u, d, d), evaluated
    by mpmath at ``dps`` digits from the float inputs: (n_u, d, cols)
    columns and (n_u,) values, rounded to float."""
    d, cols = snaps.dim, snaps.cols
    columns, values = [], []
    with mpmath.workdps(dps):
        eye = mpmath.eye(d)
        x_plus, x_minus = mpmath.matrix(snaps.x_plus.tolist()), mpmath.matrix(snaps.x_minus.tolist())
        for a_u, n_u in zip(a, mem):
            am = mpmath.matrix(a_u.tolist())
            w = mpmath.expm(am - eye)
            k = w * (eye - 2 * (am - eye) * mpmath.inverse(am + eye))
            s = mpmath.inverse(am - eye)
            y = x = mpmath.matrix(n_u.tolist())
            f = mpmath.zeros(d, cols)
            for j in range(cols):
                f[:, j] = s * (y - x)
                y, x = k * y, w * x
            r = x_plus - am * x_minus + mpmath.mpf(snaps.dt) ** 2 * f
            columns.append(np.array(f.tolist(), dtype=float))
            values.append(float(mpmath.fsum(r[i, j] ** 2 for i in range(d) for j in range(cols))))
    return np.array(columns), np.array(values)


def _assert_mz_matches_reference(snaps, mem, a, exact_gradient=False):
    """The telescoped chain against the two-chain reference, relative to the
    reference's largest magnitude: columns and value within 1e-13, and the
    gradient, which sums many more rounded terms, within 1e-11.

    Columns or a value that differ by more are held to the 40-digit
    evaluation of :func:`_mpmath_mz` instead: within 1e-13 of the
    reference's largest magnitude plus the reference's own error.  With
    ``exact_gradient`` the gradient is held to the exact one of
    :func:`_complex_step_mz_gradient` instead: within 1e-11 of its largest
    magnitude plus 1000 times the reference's own error.  Where the chains
    grow, both forms lose digits of the gradient in the Frechet derivative
    of the exponential, taken along a direction up to 1e16 in size: in 402
    draws the worst was 6.8e-2 of scale for the telescoped chain and 7.6e-3
    for the reference, at the same draw.
    """
    obj = Objective("mz-dmd", snaps, mem)
    got = (mz_memory_matrix(a, mem, snaps.cols),) + objective_value_and_gradient(obj, a)
    with mock.patch.object(objectives, "_mz_memory", _reference_mz_memory):
        want = (mz_memory_matrix(a, mem, snaps.cols),) + objective_value_and_gradient(obj, a)
    assert all(np.all(np.isfinite(x)) for x in want)
    exact = None
    for i, name in enumerate(("columns", "value")):
        g, w = got[i], want[i]
        bound = 1e-13 * np.abs(w).max()
        if np.abs(g - w).max() > bound:
            exact = exact or _mpmath_mz(snaps, mem.reshape(-1, snaps.dim), a.reshape(-1, snaps.dim, snaps.dim))
            e = exact[i].reshape(np.shape(w))
            assert np.abs(g - e).max() <= bound + np.abs(w - e).max(), name
    if exact_gradient:
        exact = _complex_step_mz_gradient(snaps, mem, a)
        allowed = 1e-11 * np.abs(exact).max() + 1e3 * np.abs(want[2] - exact).max()
        assert np.abs(got[2] - exact).max() <= allowed, "gradient"
    else:
        assert np.abs(got[2] - want[2]).max() <= 1e-11 * np.abs(want[2]).max(), "gradient"


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
    # here the columns are 8.1e-13 of scale from a 60-digit evaluation and
    # the reference's 1.3e-12, so the two differ by more than 1e-13
    @example(d=3, n_u=1, cols=53, seed=230)
    # two draws where expm_frechet loses many digits: the gradient reads
    # 1.9e-5 of scale off the complex-step gradient against an allowance of
    # 4.1e-5, the closest draw found, and 4.9e-2 against 12.4, the largest
    # deviation found
    @example(d=4, n_u=1, cols=55, seed=27884)
    @example(d=4, n_u=3, cols=52, seed=4756)
    def test_matches_reference(self, d, n_u, cols, seed):
        # spectra at least 0.5 from +1 and -1, so no chain overflows in 60 columns
        rng = np.random.default_rng(seed)
        a = np.stack([random_operator(rng, d, margin=0.5) for _ in range(n_u)])
        mem = rng.standard_normal((n_u, d))
        _assert_mz_matches_reference(random_snapshots(rng, d, cols), mem, a, exact_gradient=True)

    @pytest.mark.parametrize("cols", [1, 2, 30])
    def test_stack_slices_equal_single_calls(self, cols):
        rng = np.random.default_rng(40 + cols)
        snaps = random_snapshots(rng, d=2, cols=cols)
        a = np.stack([random_operator(rng, 2) for _ in range(4)])
        mem = rng.standard_normal((4, 2))
        value, grad = objective_value_and_gradient(Objective("mz-dmd", snaps, mem), a)
        assert_bitwise(objective_value(Objective("mz-dmd", snaps, mem), a), value)
        for u in range(4):
            single = Objective("mz-dmd", snaps, mem[u])
            single_value, single_grad = objective_value_and_gradient(single, a[u])
            assert_bitwise(np.float64(single_value), value[u])
            assert_bitwise(single_grad, grad[u])
            assert_bitwise(np.float64(objective_value(single, a[u])), value[u])


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

    @pytest.mark.parametrize("kind", ["real", "pair"])
    def test_oracles_are_the_transfer_chain(self, kind):
        # step 2 of the derivation in mzdmd.objectives: the chain (W M(A))^k n
        # is V times either oracle's coefficients of V^-1 n
        dt, steps, rng = 0.1, 50, np.random.default_rng(35)
        for _ in range(20):
            if kind == "real":
                lam = rng.uniform(-2.0, 0.5, 2)
                v = np.array([[2.0, 1.0], [1.0, 1.0]])
            else:
                alpha, omega = rng.uniform(-2.0, 0.5), rng.uniform(0.1, 3.0)
                lam = np.array([alpha + 1j * omega, alpha - 1j * omega])
                v = np.array([[1, 1], [-1j, 1j]])
            v_inv = np.linalg.inv(v)
            a = (v * (1 + dt * lam)) @ v_inv
            assert np.abs(np.imag(a)).max() <= 1e-15
            a, n = np.real(a), rng.standard_normal(2)
            chain = _power_columns(expm(a - np.eye(2)) @ cayley_M(a), n, steps + 1)[0][:, 1:]
            scale = np.abs(chain).max()
            for oracle in (memory_kernel_closed, memory_kernel_trapezoid):
                side = v @ oracle(lam, v_inv @ n, steps, dt).T
                assert np.abs(side.imag).max() <= 1e-12 * scale, oracle.__name__
                assert np.abs(chain - side.real).max() <= 1e-12 * scale, oracle.__name__


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
