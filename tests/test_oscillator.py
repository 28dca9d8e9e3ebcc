import os
import shutil
import subprocess
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from conftest import oscillator_rhs, reference_integrate

from mzdmd import (
    DivergenceError,
    SimConfig,
    Trajectory,
    hamiltonian,
    integrate,
    monte_carlo_projection,
    rng_stream,
)
from mzdmd import oscillator


def _compiled_kernel():
    """The compiled stepper, built if need be; skips when no ``cc`` is found,
    and fails when one is but the kernel does not build or load."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler `cc` on PATH to build the compiled stepper")
    kernel = oscillator._rk4_kernel()
    assert kernel is not None, "`cc` is on PATH, but the compiled stepper did not build or load"
    return kernel


@pytest.fixture(params=["compiled", "numpy"])
def stepper(request, monkeypatch):
    """Runs a test once with each stepper of ``_rk4_batch``: the compiled
    kernel, and the numpy stepper its loader falls back to."""
    if request.param == "compiled":
        _compiled_kernel()
    else:
        monkeypatch.setattr(oscillator, "_rk4_kernel", lambda: None)
    return request.param


def _reference(y0, cfg):
    """The reference's states at the package's sub-step count."""
    return reference_integrate(oscillator_rhs, y0, cfg, oscillator.SUBSTEPS)


def _reference_outcome(y0, cfg):
    """The reference's states, or the grid step at which it diverges."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return _reference(y0, cfg)
        except DivergenceError as exc:
            return exc.step


def _integrate_batch(y0, cfg):
    """The (n_points, 4, n) states of ``oscillator._rk4_batch`` on the state
    columns ``y0`` (4, n)."""
    states = np.empty((cfg.n_points,) + y0.shape)
    for step, y in enumerate(oscillator._rk4_batch(y0, cfg)):
        states[step] = y
    return states


def _outcome(y0, cfg):
    """The states of ``integrate`` on one state (4,) or of the batch kernel
    on state columns (4, n), or the grid step at which they diverge."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            if y0.ndim == 1:
                return integrate(y0, cfg).states
            return _integrate_batch(y0, cfg)
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
    """The right-hand side of the RK4 oracle in ``conftest``."""

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
        traj = integrate(np.array([1.0, 0.0, 0.0, 0.0]), cfg)
        assert traj.states[1, 0] == pytest.approx(np.cos(0.1), abs=1e-7)
        assert traj.states[1, 1] == pytest.approx(-np.sin(0.1), abs=1e-7)

    def test_decoupled_harmonic(self):
        cfg = SimConfig()
        traj = integrate(np.array([1.0, 0.0, 0.0, 0.0]), cfg)
        np.testing.assert_allclose(traj.states[:, 0], np.cos(traj.times), atol=1e-6)
        np.testing.assert_allclose(traj.states[:, 1], -np.sin(traj.times), atol=1e-6)
        # the hidden oscillator never leaves its equilibrium
        assert np.all(traj.states[:, 2:] == 0.0)

    def test_divergence_reports_step(self):
        cfg = SimConfig(dt=1.0, t_max=60.0, n_points=61, sigma=0.0, n_mc=1)
        y0 = np.array([50.0, 0.0, 50.0, 0.0])
        with pytest.raises(DivergenceError) as excinfo:
            integrate(y0, cfg)
        assert excinfo.value.step is not None
        assert excinfo.value.step == _reference_outcome(y0, cfg)

    @pytest.mark.parametrize("shape", [(3,), (4, 3), (4, 2, 2), (2, 5)])
    def test_state_shape_validation(self, shape):
        with pytest.raises(ValueError):
            integrate(np.zeros(shape), SimConfig())

    def test_batch_columns_match_single_runs(self):
        cfg = SimConfig(dt=0.1, t_max=2.0, n_points=21, sigma=1.0, n_mc=1)
        rng = np.random.default_rng(2)
        batch = rng.standard_normal((4, 3))
        stacked = _integrate_batch(batch, cfg)
        for i in range(3):
            single = integrate(batch[:, i], cfg).states
            np.testing.assert_array_equal(stacked[:, :, i], single)

    def test_batch_columns_near_single_runs(self):
        # a single state squares by pow and a batch by multiplication; the
        # two disagree in the last bit on some inputs (here column 5 ends
        # up 2.8e-17 away), so columns are close, not bitwise equal
        cfg = SimConfig(dt=0.1, t_max=20.0, n_points=201, sigma=1.0, n_mc=1)
        rng = np.random.default_rng(2)
        batch = np.vstack([np.ones(40), np.zeros(40), rng.standard_normal((2, 40))])
        stacked = _integrate_batch(batch, cfg)
        for i in range(40):
            single = integrate(batch[:, i], cfg).states
            assert np.abs(stacked[:, :, i] - single).max() <= 1e-15


class TestIntegrateMatchesReference:
    def test_single_states(self):
        rng = np.random.default_rng(3)
        cfg = SimConfig()
        for _ in range(5):
            y0 = rng.normal(0.0, 2.0, 4)
            np.testing.assert_array_equal(integrate(y0, cfg).states, _reference(y0, cfg))

    @pytest.mark.usefixtures("stepper")
    def test_batch(self):
        rng = np.random.default_rng(4)
        cfg = SimConfig()
        y0 = rng.normal(0.0, 1.0, (4, 50))
        np.testing.assert_array_equal(_integrate_batch(y0, cfg), _reference(y0, cfg))
        # a projection-sized batch of odd width, so every SIMD loop has a tail
        cfg = _grid(0.1, 21)
        y0 = rng.normal(0.0, 1.0, (4, 1003))
        np.testing.assert_array_equal(_integrate_batch(y0, cfg), _reference(y0, cfg))

    @pytest.mark.parametrize(
        "y0", [(1e160, 0.0, 0.0, 0.0), (50.0, 0.0, 50.0, 0.0), (1e154, 0.0, 1e154, 0.0)]
    )
    @pytest.mark.parametrize("batch", [False, True])
    @pytest.mark.usefixtures("stepper")
    def test_divergence_step(self, y0, batch):
        # 1e160 overflows in the square (OverflowError on a Python float),
        # (50, 0, 50, 0) grows over the sub-steps until a square overflows,
        # and 1e154 * (1 + 1e308) overflows in a product of finite factors,
        # which a Python float turns into inf without an OverflowError
        cfg = _grid(1.0, 11)
        y0 = np.array(y0)
        if batch:
            y0 = np.column_stack([y0, [1.0, 0.0, 0.5, 0.0]])
        want = _reference_outcome(y0, cfg)
        assert isinstance(want, int)
        assert _outcome(y0, cfg) == want

    # the stepper is patched once for every example
    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        dt=st.floats(0.01, 0.5),
        n_points=st.integers(2, 60),
        width=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    @pytest.mark.usefixtures("stepper")
    def test_property(self, dt, n_points, width, seed):
        cfg = _grid(dt, n_points)
        batch = np.random.default_rng(seed).normal(0.0, 2.0, (4, width))
        _assert_same_outcome(_outcome(batch, cfg), _reference_outcome(batch, cfg))
        single = batch[:, 0]
        _assert_same_outcome(_outcome(single, cfg), _reference_outcome(single, cfg))


@pytest.mark.usefixtures("stepper")
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
        got = _integrate_batch(y0, cfg)
        want = _reference(y0, cfg)
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
        want = _reference_outcome(y0, cfg)
        assert isinstance(want, int)
        assert _outcome(y0, cfg) == want

    def test_never_writes_the_callers_batch(self):
        # an F-ordered, an integer and a C-ordered float batch of the same
        # values step to the same bits, and each is left as it was: a
        # C-ordered float batch is the one that np.ascontiguousarray would
        # hand back uncopied
        cfg = _grid(0.1, 6)
        ints = np.random.default_rng(6).integers(-3, 4, (4, 9))
        batches = [np.asfortranarray(ints, dtype=float), ints.copy(), ints.astype(float)]
        before = [batch.copy() for batch in batches]
        (steps, diverged), *others = (_bit_steps(batch, cfg) for batch in batches)
        assert diverged is None and len(steps) == cfg.n_points
        for other in others:
            assert other[1] is None
            np.testing.assert_array_equal(other[0], steps)
        for batch, was in zip(batches, before):
            assert batch.dtype == was.dtype and np.array_equal(batch, was)


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
        reference = integrate(np.array([1.0, 0.0, 0.0, 0.0]), cfg)
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
            traj = integrate(np.array([1.0, 0.0, y3, y4]), cfg)
            h = hamiltonian(traj.states.T)
            assert np.abs(h - h[0]).max() <= 1e-6 * abs(h[0])

    @pytest.mark.usefixtures("stepper")
    def test_streamed_moments_match_stored_reference(self):
        cfg = SimConfig(dt=0.1, t_max=10.0, n_points=101, sigma=1.0, n_mc=64, seed=9)
        mean, var = monte_carlo_projection(cfg, (1.0, 0.5))
        resolved = _reference(_projection_start(cfg, (1.0, 0.5)), cfg)[:, :2, :]
        np.testing.assert_array_equal(mean.states, resolved.mean(axis=2))
        np.testing.assert_array_equal(var.states, resolved.var(axis=2))

    # widths on both sides of numpy's pairwise-sum blocks (8 and 128), and
    # a start whose resolved rows are -0.0
    @pytest.mark.parametrize("n_mc", [1, 2, 7, 8, 9, 127, 129, 1000])
    @pytest.mark.parametrize("x_hat", [(1.0, 0.5), (-0.0, -0.0)])
    @pytest.mark.usefixtures("stepper")
    def test_moments_equal_numpy_mean_and_var_bitwise(self, n_mc, x_hat):
        cfg = SimConfig(dt=0.1, t_max=2.0, n_points=21, sigma=1.0, n_mc=n_mc, seed=5)
        mean, var = monte_carlo_projection(cfg, x_hat)
        resolved = _reference(_projection_start(cfg, x_hat), cfg)[:, :2, :]
        assert mean.states.tobytes() == resolved.mean(axis=2).tobytes()
        assert var.states.tobytes() == resolved.var(axis=2).tobytes()
        if x_hat[0] == 0.0:
            assert np.signbit(resolved[0]).all()

    @pytest.mark.parametrize("action", ["default", "error"])
    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    @pytest.mark.usefixtures("stepper")
    def test_divergence_raises(self, sigma, action):
        cfg = SimConfig(dt=1.0, t_max=10.0, n_points=11, sigma=sigma, n_mc=4, seed=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action, RuntimeWarning)
            with pytest.raises(DivergenceError, match="state") as excinfo:
                monte_carlo_projection(cfg, (1e160, 0.0))
        assert caught == []
        assert excinfo.value.step == 1

    @pytest.mark.parametrize("action", ["default", "error"])
    @pytest.mark.usefixtures("stepper")
    def test_overflowing_moments_raise(self, action):
        # every state stays finite, but sixteen velocities of 2e307 overflow
        # the sum behind the mean at step 0
        cfg = SimConfig(dt=1e-300, t_max=1e-300, n_points=2, sigma=1.0, n_mc=16, seed=2)
        states = _reference(_projection_start(cfg, (0.0, 2e307)), cfg)
        assert np.isfinite(states).all()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action, RuntimeWarning)
            with pytest.raises(DivergenceError, match="moments") as excinfo:
                monte_carlo_projection(cfg, (0.0, 2e307))
        assert caught == []
        assert excinfo.value.step == 0


def _bit_steps(y0, cfg):
    """Each grid step's states of ``_rk4_batch`` as uint64 bit patterns, and
    the grid step at which they diverge, or None."""
    steps = []
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for y in oscillator._rk4_batch(y0, cfg):
                steps.append(y.view(np.uint64).copy())
        except DivergenceError as exc:
            return steps, exc.step
    return steps, None


class TestCompiledStepper:
    @pytest.fixture
    def kernel(self):
        # a fixture, so a missing compiler skips before hypothesis draws
        return _compiled_kernel()

    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        n=st.sampled_from([1, 7, 8, 9, 37]),
        dt=st.floats(1e-3, 3.1),
        n_points=st.integers(2, 30),
        log_amplitude=st.floats(-310.0, 160.0),
        zeros=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    # subnormal states, every entry a signed zero, and squares that overflow
    @example(n=9, dt=0.1, n_points=5, log_amplitude=-310.0, zeros=0.0, seed=0)
    @example(n=8, dt=3.1, n_points=5, log_amplitude=0.0, zeros=1.0, seed=1)
    @example(n=37, dt=3.1, n_points=5, log_amplitude=160.0, zeros=0.5, seed=2)
    @pytest.mark.usefixtures("kernel")
    def test_steppers_agree_bitwise(self, monkeypatch, n, dt, n_points, log_amplitude, zeros, seed):
        # each grid step's states and the divergence step, compiled against numpy
        rng = np.random.default_rng(seed)
        y0 = rng.standard_normal((4, n)) * 10.0**log_amplitude
        mask = rng.random(y0.shape) < zeros
        y0[mask] = np.copysign(0.0, rng.standard_normal(mask.sum()))
        cfg = _grid(dt, n_points)
        compiled = _bit_steps(y0, cfg)
        with monkeypatch.context() as patch:
            patch.setattr(oscillator, "_rk4_kernel", lambda: None)
            numpy = _bit_steps(y0, cfg)
        assert compiled[1] == numpy[1]
        assert len(compiled[0]) == len(numpy[0])
        for got, want in zip(*(steps for steps, _ in (compiled, numpy))):
            np.testing.assert_array_equal(got, want)


class TestKernelLoader:
    """Every way the compiled stepper can be missing gives the numpy stepper,
    silently and with the same bits; a built kernel is reused."""

    CFG = SimConfig(dt=0.1, t_max=2.0, n_points=21, sigma=1.0, n_mc=9, seed=5)

    @pytest.fixture
    def loader(self, tmp_path, monkeypatch):
        """The loader, building into ``tmp_path``, its cache cleared before
        and after, so no other test sees what it loaded here."""
        monkeypatch.setattr(oscillator, "RK4_CACHE", tmp_path / "cache")
        oscillator._rk4_kernel.cache_clear()
        yield oscillator._rk4_kernel
        oscillator._rk4_kernel.cache_clear()

    def _assert_numpy_projection(self, loader):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert loader() is None
            mean, var = monte_carlo_projection(self.CFG, (1.0, 0.5))
        assert caught == []
        resolved = _reference(_projection_start(self.CFG, (1.0, 0.5)), self.CFG)[:, :2, :]
        assert mean.states.tobytes() == resolved.mean(axis=2).tobytes()
        assert var.states.tobytes() == resolved.var(axis=2).tobytes()

    def test_no_compiler(self, loader, monkeypatch):
        monkeypatch.setattr(shutil, "which", lambda name: None)
        self._assert_numpy_projection(loader)

    def test_failing_compiler(self, loader, monkeypatch, tmp_path):
        failing = tmp_path / "cc"
        failing.write_text("#!/bin/sh\nexit 1\n")
        failing.chmod(0o755)
        monkeypatch.setattr(shutil, "which", lambda name: str(failing))
        self._assert_numpy_projection(loader)
        # the failed build leaves no file behind
        assert list(oscillator.RK4_CACHE.iterdir()) == []

    def test_unwritable_cache(self, loader, monkeypatch, tmp_path):
        # a regular file where a parent directory should be: no directory
        # can be made there, whatever the user's permissions
        (tmp_path / "file").write_text("")
        monkeypatch.setattr(oscillator, "RK4_CACHE", tmp_path / "file" / "cache")
        self._assert_numpy_projection(loader)

    def test_truncated_library_is_built_again(self, loader, monkeypatch, tmp_path):
        # dlopen maps a truncated library and faults on its missing pages; the
        # copy is a new file, as this process has the first build mapped
        _compiled_kernel()
        (lib,) = oscillator.RK4_CACHE.iterdir()
        monkeypatch.setattr(oscillator, "RK4_CACHE", tmp_path / "truncated")
        oscillator.RK4_CACHE.mkdir()
        (oscillator.RK4_CACHE / lib.name).write_bytes(lib.read_bytes()[:1000])
        loader.cache_clear()
        assert loader() is not None
        (rebuilt,) = oscillator.RK4_CACHE.iterdir()
        assert rebuilt.stat().st_size == lib.stat().st_size

    @staticmethod
    def _assert_reloads_without_compiling(loader, monkeypatch):
        built = sorted(oscillator.RK4_CACHE.iterdir())

        def no_compiler(*args, **kwargs):
            raise AssertionError(f"the compiler ran again: {args}")

        loader.cache_clear()
        monkeypatch.setattr(subprocess, "run", no_compiler)
        assert loader() is not None
        assert sorted(oscillator.RK4_CACHE.iterdir()) == built

    def test_second_load_reuses_the_build(self, loader, monkeypatch):
        _compiled_kernel()
        assert [path.suffix for path in oscillator.RK4_CACHE.iterdir()] == [".so"]
        self._assert_reloads_without_compiling(loader, monkeypatch)

    @staticmethod
    def _plant_builds(*names):
        """Files under build names in the cache, the first the oldest, as
        other versions of the package leave them."""
        oscillator.RK4_CACHE.mkdir()
        builds = [oscillator.RK4_CACHE / f"rk4-{name}.so" for name in names]
        for age, build in enumerate(builds, start=1):
            build.write_bytes(b"another version's build")
            os.utime(build, (age * 1e8, age * 1e8))
        return builds

    @staticmethod
    def _assert_only_new_build_added(kept):
        (built,) = set(oscillator.RK4_CACHE.iterdir()) - set(kept)
        assert built.suffix == ".so"

    def test_a_new_build_keeps_the_two_newest_others(self, loader, monkeypatch):
        oldest, *newest = self._plant_builds("1-1", "2-2", "3-3")
        _compiled_kernel()
        assert not oldest.exists() and all(build.exists() for build in newest)
        self._assert_only_new_build_added(newest)
        self._assert_reloads_without_compiling(loader, monkeypatch)

    def test_a_new_build_deletes_the_stale_ones(self, loader, monkeypatch):
        # beyond the two newest other builds: a stale build, and a directory
        # under a build's name, which cannot be unlinked and must not turn
        # the new build into the numpy stepper
        stale, *newest = self._plant_builds("1-1", "2-2", "3-3")
        undeletable = oscillator.RK4_CACHE / "rk4-0-0.so"
        undeletable.mkdir()
        os.utime(undeletable, (0, 0))
        _compiled_kernel()
        assert undeletable.is_dir() and not stale.exists() and all(build.exists() for build in newest)
        self._assert_only_new_build_added([undeletable, *newest])
        self._assert_reloads_without_compiling(loader, monkeypatch)

    def test_a_build_that_vanishes_leaves_the_new_one_loaded(self, loader, monkeypatch):
        # another process deletes a listed build before its stat
        self._plant_builds("1-1", "2-2", "3-3")
        vanished, listing = oscillator.RK4_CACHE / "rk4-9-9.so", Path.glob

        def glob(path, pattern):
            return [*listing(path, pattern), *([vanished] if pattern == "rk4-*.so" else [])]

        monkeypatch.setattr(Path, "glob", glob)
        _compiled_kernel()
        self._assert_reloads_without_compiling(loader, monkeypatch)

    def test_two_versions_build_once_each(self, loader, monkeypatch, tmp_path):
        # two sources that differ by one comment, as two versions of the
        # package that share the cache, loaded in turn: neither deletes the
        # other's build, so each compiles once
        sources = [tmp_path / "a" / "rk4.c", tmp_path / "b" / "rk4.c"]
        for source, comment in zip(sources, ["", "/* another version */\n"]):
            source.parent.mkdir()
            source.write_text(oscillator.RK4_SOURCE.read_text() + comment)
        compiled, run = [], subprocess.run

        def counting_run(command, **kwargs):
            compiled.append(command[-1])
            return run(command, **kwargs)

        monkeypatch.setattr(subprocess, "run", counting_run)
        for source in sources * 3:
            monkeypatch.setattr(oscillator, "RK4_SOURCE", source)
            loader.cache_clear()
            _compiled_kernel()
        assert compiled == [str(source) for source in sources]
        assert len(list(oscillator.RK4_CACHE.iterdir())) == 2

    def test_source_ships_with_the_package(self):
        tomllib = pytest.importorskip("tomllib")
        package = Path(oscillator.__file__).parent
        assert oscillator.RK4_SOURCE.parent == package and oscillator.RK4_SOURCE.is_file()
        pyproject = tomllib.loads((package.parents[1] / "pyproject.toml").read_text())
        assert oscillator.RK4_SOURCE.name in pyproject["tool"]["setuptools"]["package-data"]["mzdmd"]


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.0]), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0]), np.zeros((3, 2)))
