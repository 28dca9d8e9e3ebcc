import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import reference_integrate

from mzdmd import (
    DivergenceError,
    SimConfig,
    Trajectory,
    hamiltonian,
    integrate,
    monte_carlo_projection,
    oscillator_rhs,
    rng_stream,
)
from mzdmd import oscillator


def _reference_outcome(y0, cfg, substeps):
    """The reference's states, or the grid step at which it diverges."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return reference_integrate(oscillator_rhs, y0, cfg, substeps)
        except DivergenceError as exc:
            return exc.step


def _integrate_batch(y0, cfg, substeps):
    """The (n_points, 4, n) states of ``oscillator._rk4_batch`` on the state
    columns ``y0`` (4, n), each yield stacked with its rows reordered from
    (y1, y3, y2, y4) to (y1, y2, y3, y4)."""
    states = np.empty((cfg.n_points,) + y0.shape)
    for step, y in enumerate(oscillator._rk4_batch(y0, cfg, substeps)):
        states[step, ::2], states[step, 1::2] = y[:2], y[2:]
    return states


def _outcome(y0, cfg, substeps):
    """The states of ``integrate`` on one state (4,) or of the batch kernel
    on state columns (4, n), or the grid step at which they diverge."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            if y0.ndim == 1:
                return integrate(y0, cfg, substeps).states
            return _integrate_batch(y0, cfg, substeps)
        except DivergenceError as exc:
            return exc.step


def _assert_same_outcome(got, want):
    if isinstance(want, int):
        assert got == want
    else:
        np.testing.assert_array_equal(got, want)


def _projection_start(cfg, x_hat):
    """The (4, n_mc) initial states ``monte_carlo_projection`` integrates."""
    draws = [cfg.sigma * rng_stream(cfg.seed, 1, i).standard_normal(2) for i in range(cfg.n_mc)]
    return np.vstack([np.full(cfg.n_mc, x_hat[0]), np.full(cfg.n_mc, x_hat[1]), np.array(draws).T])


def _grid(dt, n_points):
    return SimConfig(dt=dt, t_max=dt * (n_points - 1), n_points=n_points, sigma=1.0, n_mc=1)


class TestRhs:
    def test_unit_displacement(self):
        np.testing.assert_array_equal(
            oscillator_rhs(np.array([1.0, 0.0, 0.0, 0.0])), [0.0, -1.0, 0.0, 0.0]
        )

    def test_generic_point(self):
        np.testing.assert_array_equal(
            oscillator_rhs(np.array([1.0, 2.0, 3.0, 4.0])), [2.0, -10.0, 4.0, -6.0]
        )

    def test_equilibrium(self):
        np.testing.assert_array_equal(oscillator_rhs(np.zeros(4)), np.zeros(4))

    def test_batch_matches_single_bitwise(self):
        rng = np.random.default_rng(0)
        batch = rng.standard_normal((4, 5))
        out = oscillator_rhs(batch)
        for i in range(5):
            np.testing.assert_array_equal(out[:, i], oscillator_rhs(batch[:, i]))


class TestSimConfig:
    def test_defaults_consistent(self):
        cfg = SimConfig()
        assert cfg.n_points == 501 and cfg.t_max == 50.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dt": -1.0},
            {"n_points": 1},
            {"t_max": 49.0},
            {"sigma": -0.5},
            {"n_mc": 0},
            {"dt": np.nan},
            {"t_max": np.nan},
            {"t_max": np.inf},
            {"dt": np.inf},
            {"sigma": np.nan},
            {"sigma": np.inf},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)

    def test_grid_one_ulp_off_above_1e_12_is_accepted(self):
        # the product lands one ulp (1.8e-12) above t_max
        assert 1.1 * 8999 - 9898.9 > 1e-12
        cfg = SimConfig(dt=1.1, n_points=9000, t_max=9898.9)
        assert cfg.times()[-1] == 1.1 * 8999

    @pytest.mark.parametrize("dt, n_points, t_max", [(0.1, 501, 50.0), (1.1, 9000, 9898.9)])
    @pytest.mark.parametrize("offset", [-1e-9, 1e-9])
    def test_t_max_off_by_1e_9_is_refused(self, dt, n_points, t_max, offset):
        with pytest.raises(ValueError, match="t_max"):
            SimConfig(dt=dt, n_points=n_points, t_max=t_max + offset)


class TestIntegrate:
    def test_linear_decay_single_step(self):
        # the reference itself takes a correct RK4 step
        cfg = SimConfig(dt=0.1, t_max=0.1, n_points=2, sigma=0.0, n_mc=1)
        states = reference_integrate(lambda y: -y, np.array([1.0]), cfg, substeps=1)
        assert states[1, 0] == pytest.approx(np.exp(-0.1), abs=1e-7)

    def test_harmonic_single_step(self):
        cfg = SimConfig(dt=0.1, t_max=0.1, n_points=2, sigma=0.0, n_mc=1)
        traj = integrate(np.array([1.0, 0.0, 0.0, 0.0]), cfg, substeps=1)
        assert traj.states[1, 0] == pytest.approx(np.cos(0.1), abs=1e-7)
        assert traj.states[1, 1] == pytest.approx(-np.sin(0.1), abs=1e-7)

    def test_decoupled_harmonic(self):
        cfg = SimConfig()
        traj = integrate(np.array([1.0, 0.0, 0.0, 0.0]), cfg, substeps=10)
        np.testing.assert_allclose(traj.states[:, 0], np.cos(traj.times), atol=1e-6)
        np.testing.assert_allclose(traj.states[:, 1], -np.sin(traj.times), atol=1e-6)
        # the hidden oscillator never leaves its equilibrium
        assert np.all(traj.states[:, 2:] == 0.0)

    def test_divergence_reports_step(self):
        cfg = SimConfig(dt=1.0, t_max=60.0, n_points=61, sigma=0.0, n_mc=1)
        y0 = np.array([50.0, 0.0, 50.0, 0.0])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as excinfo:
            integrate(y0, cfg, substeps=1)
        assert excinfo.value.step is not None
        assert excinfo.value.step == _reference_outcome(y0, cfg, 1)

    def test_substeps_validation(self):
        with pytest.raises(ValueError):
            integrate(np.array([1.0, 0.0, 0.0, 0.0]), SimConfig(), substeps=0)

    @pytest.mark.parametrize("shape", [(3,), (4, 3), (4, 2, 2), (2, 5)])
    def test_state_shape_validation(self, shape):
        with pytest.raises(ValueError):
            integrate(np.zeros(shape), SimConfig())

    def test_batch_columns_match_single_runs(self):
        cfg = SimConfig(dt=0.1, t_max=2.0, n_points=21, sigma=1.0, n_mc=1)
        rng = np.random.default_rng(2)
        batch = rng.standard_normal((4, 3))
        stacked = _integrate_batch(batch, cfg, 10)
        for i in range(3):
            single = integrate(batch[:, i], cfg, 10).states
            np.testing.assert_array_equal(stacked[:, :, i], single)

    def test_batch_columns_near_single_runs(self):
        # a single state squares by pow and a batch by multiplication; the
        # two disagree in the last bit on some inputs (here column 5 ends
        # up 2.8e-17 away), so columns are close, not bitwise equal
        cfg = SimConfig(dt=0.1, t_max=20.0, n_points=201, sigma=1.0, n_mc=1)
        rng = np.random.default_rng(2)
        batch = np.vstack([np.ones(40), np.zeros(40), rng.standard_normal((2, 40))])
        stacked = _integrate_batch(batch, cfg, 10)
        for i in range(40):
            single = integrate(batch[:, i], cfg, 10).states
            assert np.abs(stacked[:, :, i] - single).max() <= 1e-15


class TestIntegrateMatchesReference:
    def test_single_states(self):
        rng = np.random.default_rng(3)
        cfg = SimConfig()
        for _ in range(5):
            y0 = rng.normal(0.0, 2.0, 4)
            np.testing.assert_array_equal(
                integrate(y0, cfg, 10).states, reference_integrate(oscillator_rhs, y0, cfg, 10)
            )

    def test_batch(self):
        rng = np.random.default_rng(4)
        cfg = SimConfig()
        y0 = rng.normal(0.0, 1.0, (4, 50))
        np.testing.assert_array_equal(
            _integrate_batch(y0, cfg, 10), reference_integrate(oscillator_rhs, y0, cfg, 10)
        )
        # a projection-sized batch of odd width, so every SIMD loop has a tail
        cfg = _grid(0.1, 21)
        y0 = rng.normal(0.0, 1.0, (4, 1003))
        np.testing.assert_array_equal(
            _integrate_batch(y0, cfg, 10), reference_integrate(oscillator_rhs, y0, cfg, 10)
        )

    @pytest.mark.parametrize("y0", [(1e160, 0.0, 0.0, 0.0), (50.0, 0.0, 50.0, 0.0)])
    @pytest.mark.parametrize("batch", [False, True])
    def test_divergence_step(self, y0, batch):
        # 1e160 overflows in the square (OverflowError on a Python float),
        # (50, 0, 50, 0) through repeated multiplication
        cfg = _grid(1.0, 11)
        y0 = np.array(y0)
        if batch:
            y0 = np.column_stack([y0, [1.0, 0.0, 0.5, 0.0]])
        want = _reference_outcome(y0, cfg, 1)
        assert isinstance(want, int)
        assert _outcome(y0, cfg, 1) == want

    @settings(deadline=None)
    @given(
        dt=st.floats(0.01, 0.5),
        substeps=st.integers(1, 12),
        n_points=st.integers(2, 60),
        width=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property(self, dt, substeps, n_points, width, seed):
        cfg = _grid(dt, n_points)
        batch = np.random.default_rng(seed).normal(0.0, 2.0, (4, width))
        _assert_same_outcome(_outcome(batch, cfg, substeps), _reference_outcome(batch, cfg, substeps))
        single = batch[:, 0]
        _assert_same_outcome(_outcome(single, cfg, substeps), _reference_outcome(single, cfg, substeps))


class TestBatchEdgeCases:
    """Signed zeros, squares near overflow and divergence, against the
    reference bit for bit (signs of zeros included)."""

    # zero positions of either sign beside squares of 1e308, a -0 position
    # under a nonzero coupling, a -0 hidden position under a moving first
    # one, and an all-zero state whose -0 velocity stays -0
    COLUMNS = [
        (0.0, 0.0, 1e154, 0.0),
        (-0.0, 0.0, -1e154, 0.0),
        (-0.0, -0.0, 0.5, -0.0),
        (1.0, 0.0, -0.0, 0.0),
        (0.0, -0.0, 0.0, -0.0),
    ]

    def test_signed_zeros_and_large_squares_bitwise(self):
        cfg = _grid(0.1, 31)
        y0 = np.array(self.COLUMNS).T
        got = _integrate_batch(y0, cfg, 10)
        want = reference_integrate(oscillator_rhs, y0, cfg, 10)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
        # the inputs do reach negative zeros and squares near overflow
        assert np.signbit(got[got == 0.0]).any()
        assert np.abs(got[:, 2, :2]).max() ** 2 > 1e307

    @pytest.mark.parametrize("diverging", [(1e-160, 0.0, 1e154, 0.0), (0.0, 0.0, 2e154, 0.0)])
    def test_one_diverging_column_sets_the_step(self, diverging):
        # the first column's acceleration is 1e148 and the second's square
        # overflows, so 0 * -inf is NaN
        cfg = _grid(0.1, 31)
        y0 = np.array(self.COLUMNS + [diverging]).T
        want = _reference_outcome(y0, cfg, 10)
        assert isinstance(want, int)
        assert _outcome(y0, cfg, 10) == want


class TestPhiloxKeys:
    INDICES = [0, 1, 255, 65_535, 9_999]

    # seeds of 1 to 7 words, three of them at the 4-word pool's edge, and
    # tags of 1 to 3 words: the resumed hash multiplier counts both
    @pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**64 + 3, 2**96, 2**128 - 1, 2**128,
                                      2**200 + 12_345])
    @pytest.mark.parametrize("tag", [0, 1, 2, 2**32, 2**70 + 1])
    def test_keys_equal_seed_sequence(self, seed, tag):
        keys = oscillator._philox_keys(seed, tag, 65_536)
        assert keys.shape == (65_536, 2) and keys.dtype == np.uint64
        for i in self.INDICES:
            want = np.random.SeedSequence(seed, spawn_key=(tag, i)).generate_state(2, np.uint64)
            np.testing.assert_array_equal(keys[i], want)

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 300])
    @pytest.mark.parametrize("tag", [1, 2])
    @pytest.mark.parametrize("seed", [7, 2**40 + 5])
    def test_keyed_normals_equal_rng_stream(self, seed, tag, n, size):
        got = oscillator.keyed_normals(seed, tag, n, size)
        want = np.array([rng_stream(seed, tag, i).standard_normal(size) for i in range(n)])
        assert got.shape == (n, size) and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("sigma", [1.0, 0.3])
    def test_projection_draws_equal_rng_stream(self, sigma, monkeypatch):
        cfg = SimConfig(dt=0.1, t_max=0.2, n_points=3, sigma=sigma, n_mc=300, seed=2**40 + 5)
        starts, real = [], oscillator._rk4_batch

        def recording(y0, *args):
            starts.append(np.array(y0))
            return real(y0, *args)

        monkeypatch.setattr(oscillator, "_rk4_batch", recording)
        monte_carlo_projection(cfg, (0.25, -1.5))
        (y0,) = starts
        want = np.array([sigma * rng_stream(cfg.seed, 1, i).standard_normal(2) for i in range(cfg.n_mc)])
        assert y0.tobytes() == _projection_start(cfg, (0.25, -1.5)).tobytes()
        assert y0[2:].T.tobytes() == want.tobytes()


class TestMonteCarloProjection:
    def test_zero_sigma_degenerates(self):
        cfg = SimConfig(dt=0.1, t_max=5.0, n_points=51, sigma=0.0, n_mc=50, seed=3)
        mean, var = monte_carlo_projection(cfg, (1.0, 0.0))
        assert np.all(var.states == 0.0)
        reference = integrate(np.array([1.0, 0.0, 0.0, 0.0]), cfg, 10)
        np.testing.assert_array_equal(mean.states, reference.states[:, :2])

    def test_seeded_runs_identical(self):
        cfg = SimConfig(dt=0.1, t_max=2.0, n_points=21, sigma=1.0, n_mc=8, seed=11)
        m1, v1 = monte_carlo_projection(cfg, (1.0, 0.0))
        m2, v2 = monte_carlo_projection(cfg, (1.0, 0.0))
        np.testing.assert_array_equal(m1.states, m2.states)
        np.testing.assert_array_equal(v1.states, v2.states)

    def test_variance_nonnegative_and_energy_per_sample(self):
        cfg = SimConfig(dt=0.1, t_max=2.0, n_points=21, sigma=1.0, n_mc=5, seed=4)
        _, var = monte_carlo_projection(cfg, (1.0, 0.0))
        assert np.all(var.states >= 0.0)
        for i in range(cfg.n_mc):
            y3, y4 = cfg.sigma * rng_stream(cfg.seed, 1, i).standard_normal(2)
            traj = integrate(np.array([1.0, 0.0, y3, y4]), cfg, 10)
            h = hamiltonian(traj.states.T)
            assert np.abs(h - h[0]).max() <= 1e-6 * abs(h[0])

    def test_streamed_moments_match_stored_reference(self):
        cfg = SimConfig(dt=0.1, t_max=10.0, n_points=101, sigma=1.0, n_mc=64, seed=9)
        mean, var = monte_carlo_projection(cfg, (1.0, 0.5))
        resolved = reference_integrate(oscillator_rhs, _projection_start(cfg, (1.0, 0.5)), cfg, 10)[:, :2, :]
        np.testing.assert_array_equal(mean.states, resolved.mean(axis=2))
        np.testing.assert_array_equal(var.states, resolved.var(axis=2))

    # widths on both sides of numpy's pairwise-sum blocks (8 and 128), and
    # a start whose resolved rows are -0.0
    @pytest.mark.parametrize("n_mc", [1, 2, 7, 8, 9, 127, 129, 1000])
    @pytest.mark.parametrize("x_hat", [(1.0, 0.5), (-0.0, -0.0)])
    def test_moments_equal_numpy_mean_and_var_bitwise(self, n_mc, x_hat):
        cfg = SimConfig(dt=0.1, t_max=2.0, n_points=21, sigma=1.0, n_mc=n_mc, seed=5)
        mean, var = monte_carlo_projection(cfg, x_hat)
        resolved = reference_integrate(oscillator_rhs, _projection_start(cfg, x_hat), cfg, 10)[:, :2, :]
        assert mean.states.tobytes() == resolved.mean(axis=2).tobytes()
        assert var.states.tobytes() == resolved.var(axis=2).tobytes()
        if x_hat[0] == 0.0:
            assert np.signbit(resolved[0]).all()

    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    @pytest.mark.parametrize("substeps", [0, -1])
    def test_substeps_validation(self, sigma, substeps):
        cfg = SimConfig(dt=0.1, t_max=0.2, n_points=3, sigma=sigma, n_mc=4, seed=2)
        with pytest.raises(ValueError, match="substeps"):
            monte_carlo_projection(cfg, (1.0, 0.0), substeps=substeps)

    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    def test_divergence_raises(self, sigma):
        cfg = SimConfig(dt=1.0, t_max=10.0, n_points=11, sigma=sigma, n_mc=4, seed=2)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as excinfo:
            monte_carlo_projection(cfg, (1e160, 0.0), substeps=1)
        assert excinfo.value.step == 1

    def test_overflowing_moments_raise(self):
        # every state stays finite, but y2 reaches about 5e196 at step 1 and
        # its variance overflows
        cfg = SimConfig(dt=1.0, t_max=1.0, n_points=2, sigma=1.0, n_mc=8, seed=2)
        with np.errstate(over="ignore", invalid="ignore"):
            states = reference_integrate(oscillator_rhs, _projection_start(cfg, (0.0, 1e40)), cfg, 1)
            assert np.isfinite(states).all()
            with pytest.raises(DivergenceError) as excinfo:
                monte_carlo_projection(cfg, (0.0, 1e40), substeps=1)
        assert excinfo.value.step == 1


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.0]), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0]), np.zeros((3, 2)))
