import os
import re
import shutil
import subprocess
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from conftest import numpy_ships_ziggurat, oscillator_rhs, reference_integrate

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


def _compiled_normals():
    """The compiled kernel, whose ``philox_normals`` fills ``keyed_normals``;
    skips where no ``cc`` is found or numpy ships no ``libnpyrandom.a`` and
    ``bitgen.h``, and fails where all are but the build has no fill."""
    kernel = _compiled_kernel()
    if not numpy_ships_ziggurat():
        pytest.skip("numpy ships no libnpyrandom.a and bitgen.h for the compiled normals to link")
    assert kernel.normals is not None, "numpy ships its ziggurat, but the build did not link it"
    return kernel


def _normals_stamp():
    """What draws the keyed normals where ``cc`` builds the kernel."""
    return "compiled" if numpy_ships_ziggurat() else "numpy"


def _ar_member(name, data):
    """One member of a Unix ``ar`` archive: its 60-byte header, then the
    data padded to an even length."""
    data += b"\n" * (len(data) % 2)
    return f"{name + '/':<16}{0:<12}{0:<6}{0:<6}{0o644:<8o}{len(data):<10}`\n".encode() + data


@pytest.fixture(params=["compiled", "numpy"])
def stepper(request, monkeypatch):
    """Runs a test once with each stepper of ``_rk4_batch`` and
    ``keyed_normals``: the compiled kernel, and the numpy code its loader
    falls back to."""
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
    return np.concatenate([chunk.copy() for chunk in oscillator._rk4_batch(y0, cfg)])


def _projection_start(cfg, x_hat):
    """The (4, n_mc) initial states ``monte_carlo_projection`` integrates."""
    draws = [cfg.sigma * rng_stream(cfg.seed, 1, i).standard_normal(2) for i in range(cfg.n_mc)]
    return np.vstack([np.full(cfg.n_mc, x_hat[0]), np.full(cfg.n_mc, x_hat[1]), np.array(draws).T])


def _grid(dt, n_points):
    return SimConfig(dt=dt, t_max=dt * (n_points - 1), n_points=n_points, sigma=1.0, n_mc=1)


def _chunked(monkeypatch, n, chunk):
    """Makes ``_rk4_batch`` step ``chunk`` grid steps a call on n columns."""
    monkeypatch.setattr(oscillator, "_CHUNK_BYTES", 32 * n * chunk)


def _bit_steps(y0, cfg):
    """The grid steps' states of ``integrate`` on one state (4,) or of
    ``_rk4_batch`` on state columns (4, n), as uint64 bit patterns, and the
    grid step at which they diverge, or None.  On divergence ``integrate``
    gives no state and ``_rk4_batch`` those of the chunks before."""
    steps = []
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            if y0.ndim == 1:
                steps = integrate(y0, cfg).states
            else:
                for chunk in oscillator._rk4_batch(y0, cfg):
                    steps.extend(chunk.copy())
        except DivergenceError as exc:
            return np.array(steps).reshape((-1, *y0.shape)).view(np.uint64), exc.step
    return np.array(steps).reshape((-1, *y0.shape)).view(np.uint64), None


def _reference_bits(y0, cfg):
    """The reference's states as uint64 bit patterns, and the grid step at
    which they diverge, or None; on divergence, every grid step's before."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return _reference(y0, cfg).view(np.uint64), None
        except DivergenceError as exc:
            before = _reference(y0, _grid(cfg.dt, exc.step)) if exc.step > 1 else y0[None]
            return before.view(np.uint64), exc.step


def _drawn_batch(n, log_amplitude, zeros, seed):
    rng = np.random.default_rng(seed)
    y0 = rng.standard_normal((4, n)) * 10.0**log_amplitude
    mask = rng.random(y0.shape) < zeros
    y0[mask] = np.copysign(0.0, rng.standard_normal(mask.sum()))
    return y0


def _columns(*states):
    return np.array(states).T


def _one_diverging_column(column):
    """37 columns near 1e-100, which stay finite over a grid of dt 30, but
    for one whose hidden position of 1e136 grows about 60-fold a grid step
    and overflows its square at step 10."""
    y0 = np.random.default_rng(column).standard_normal((4, 37)) * 1e-100
    y0[:, column] = (0.0, 0.0, 1e136, 0.0)
    return y0


# zero positions of either sign beside squares of 1e308, a -0 position
# under a nonzero coupling, a -0 hidden position under a moving first one,
# and an all-zero state whose -0 velocity stays -0
_SIGNED_ZEROS = [
    (0.0, 0.0, 1e154, 0.0),
    (-0.0, 0.0, -1e154, 0.0),
    (-0.0, -0.0, 0.5, -0.0),
    (1.0, 0.0, -0.0, 0.0),
    (0.0, -0.0, 0.0, -0.0),
]
_RNG = np.random.default_rng(4)
# (y0, dt, n_points, chunk) cases that random draws would rarely reach, by name
_EDGE_CASES = {
    # 50 columns over the default grid, and a projection-sized batch of odd
    # width, so every SIMD loop has a tail
    "50-columns": (_RNG.normal(0.0, 1.0, (4, 50)), 0.1, 501, None),
    "1003-columns": (_RNG.normal(0.0, 1.0, (4, 1003)), 0.1, 21, None),
    # beside a column that stays finite: 1e160 overflows in the square
    # (OverflowError on a Python float), (50, 0, 50, 0) grows over the
    # sub-steps until a square overflows, and 1e154 * (1 + 1e308) overflows
    # in a product of finite factors, which a Python float turns into inf
    # without an OverflowError
    "square-overflows": (_columns((1e160, 0.0, 0.0, 0.0), (1.0, 0.0, 0.5, 0.0)), 1.0, 11, None),
    "substeps-overflow": (_columns((50.0, 0.0, 50.0, 0.0), (1.0, 0.0, 0.5, 0.0)), 1.0, 11, None),
    "product-overflows": (_columns((1e154, 0.0, 1e154, 0.0), (1.0, 0.0, 0.5, 0.0)), 1.0, 11, None),
    # signed zeros and squares near overflow, alone and beside a column
    # whose acceleration is 1e148, or whose square overflows, so 0 * -inf is NaN
    "signed-zeros": (_columns(*_SIGNED_ZEROS), 0.1, 31, None),
    "signed-zeros-large-acceleration": (_columns(*_SIGNED_ZEROS, (1e-160, 0.0, 1e154, 0.0)), 0.1, 31, None),
    "signed-zeros-nan": (_columns(*_SIGNED_ZEROS, (0.0, 0.0, 2e154, 0.0)), 0.1, 31, None),
    # subnormal states, every entry a signed zero, squares that overflow,
    # and calls of several steps, the last one shorter
    "subnormal": (_drawn_batch(9, -310.0, 0.0, 0), 0.1, 5, 1),
    "all-signed-zeros": (_drawn_batch(8, 0.0, 1.0, 1), 3.1, 5, 3),
    "overflowing-squares": (_drawn_batch(37, 160.0, 0.5, 2), 3.1, 5, 2),
    "short-last-call": (_drawn_batch(17, 0.5, 0.1, 3), 0.3, 30, 4),
    # n 37 is two full blocks of 16 columns and a ragged one of 5, column 3
    # lies in the first and column 36 in the ragged one: a divergence in
    # the third call of 4 steps, and the 9 grid steps before it
    **{f"diverging-column-{column}-{n_points}-points": (_one_diverging_column(column), 30.0, n_points, 4)
       for column in (3, 36) for n_points in (17, 10)},
}


def _stepper_cases(*edge_cases):
    """Draws ``case``, (y0, dt, n_points, chunk): state columns y0 (4, n), a
    grid, and the grid steps of one ``_rk4_batch`` call, None for its own.
    Either a few moderate columns over a fine grid, or a batch whose width
    brackets partial and full blocks of the compiled stepper's 16 columns,
    of any amplitude from subnormal to overflowing and any share of signed
    zeros, over a coarse grid in short calls; and ``edge_cases`` as examples."""
    seeds = st.integers(0, 2**32 - 1)
    moderate = st.tuples(
        st.builds(lambda width, seed: np.random.default_rng(seed).normal(0.0, 2.0, (4, width)),
                  st.integers(1, 9), seeds),
        st.floats(0.01, 0.5), st.integers(2, 60), st.none())
    blocks = st.tuples(
        st.builds(_drawn_batch, st.sampled_from([1, 7, 8, 9, 15, 16, 17, 32, 33, 37]), st.floats(-310.0, 160.0),
                  st.floats(0.0, 1.0), seeds),
        st.floats(1e-3, 3.1), st.integers(2, 30), st.integers(1, 8))

    def drawn(test):
        # the stepper and the clone are patched once for every example
        for case in reversed(edge_cases):
            test = example(case=case)(test)
        test = given(case=st.one_of(moderate, blocks))(test)
        return settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])(test)
    return drawn


def _case_grid(monkeypatch, y0, dt, n_points, chunk):
    """The grid of a drawn case, with its chunk patched in."""
    if chunk is not None:
        _chunked(monkeypatch, y0.shape[1], chunk)
    return _grid(dt, n_points)


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


def _assert_equals_reference(monkeypatch, case):
    """Column 0 through ``integrate``, the batch through ``_rk4_batch``: bits and divergence step."""
    with monkeypatch.context() as patch:
        cfg = _case_grid(patch, *case)
        for start in (case[0][:, 0], case[0]):
            (got, step), (want, want_step) = _bit_steps(start, cfg), _reference_bits(start, cfg)
            assert step == want_step
            np.testing.assert_array_equal(got, want if step is None else want[:len(got)])


class TestIntegrateMatchesReference:
    def test_single_states(self):
        rng = np.random.default_rng(3)
        cfg = SimConfig()
        for _ in range(5):
            y0 = rng.normal(0.0, 2.0, 4)
            np.testing.assert_array_equal(integrate(y0, cfg).states, _reference(y0, cfg))

    @_stepper_cases()
    @pytest.mark.usefixtures("stepper")
    def test_steppers_equal_the_reference_bitwise(self, monkeypatch, case):
        _assert_equals_reference(monkeypatch, case)

    @pytest.mark.parametrize("case", _EDGE_CASES.values(), ids=_EDGE_CASES.keys())
    @pytest.mark.usefixtures("stepper")
    def test_edge_cases_equal_the_reference_bitwise(self, monkeypatch, case):
        _assert_equals_reference(monkeypatch, case)


@pytest.mark.usefixtures("stepper")
class TestBatchEdgeCases:
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
    @pytest.mark.usefixtures("stepper")
    def test_keyed_normals_equal_rng_stream(self, seed, tag, n, size):
        got = oscillator.keyed_normals(seed, tag, n, size)
        want = np.array([rng_stream(seed, tag, i).standard_normal(size) for i in range(n)])
        assert got.shape == (n, size) and got.tobytes() == want.tobytes()

    @pytest.fixture
    def normals(self):
        # a fixture, so a missing compiler skips before hypothesis draws
        return _compiled_normals()

    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**200), tag=st.integers(0, 2**70), n=st.integers(0, 40),
           size=st.integers(0, 300))
    @example(seed=2**64, tag=1, n=0, size=2)
    @example(seed=2**64 - 1, tag=2, n=3, size=0)
    @example(seed=2**70, tag=1, n=17, size=1)
    @pytest.mark.usefixtures("normals")
    def test_compiled_normals_equal_rng_stream(self, seed, tag, n, size):
        got = oscillator.keyed_normals(seed, tag, n, size)
        want = np.array([rng_stream(seed, tag, i).standard_normal(size) for i in range(n)]).reshape(n, size)
        assert got.shape == (n, size) and got.tobytes() == want.tobytes()

    @pytest.mark.usefixtures("normals")
    def test_compiled_normals_reach_the_ziggurat_tail(self):
        # 2**20 normals: about 1 in 140 leaves the ziggurat's rectangles for
        # a wedge's rejection test, and about 1 in 3900 lies past its tail's
        # start r, where a second loop of uniforms draws it
        got = oscillator.keyed_normals(2**64 + 1, 1, 2, 2**19 + 3)
        want = np.array([rng_stream(2**64 + 1, 1, i).standard_normal(2**19 + 3) for i in range(2)])
        assert got.tobytes() == want.tobytes()
        assert np.abs(got).max() > 3.6541528853610088

    @pytest.mark.parametrize("n", [2**32 + 1, 2**64, -1])
    def test_more_streams_than_indices_raise_before_allocating(self, monkeypatch, n):
        # past 2**32 the uint32 index wraps, and row 2**32 + i would repeat
        # stream i; the check comes before any array of n rows is made
        def allocating(*args, **kwargs):
            raise AssertionError("an array was made before n was checked")

        for name in ("arange", "empty", "zeros"):
            monkeypatch.setattr(np, name, allocating)
        with pytest.raises(ValueError, match=r"2\*\*32"):
            oscillator._philox_keys(7, 1, n)
        with pytest.raises(ValueError, match=r"2\*\*32"):
            oscillator.keyed_normals(7, 1, n, 2)

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


# the clones of rk4_advance, in the order rk4_isa tries them
ISAS = ("avx512f", "avx2", "default")


class TestCompiledStepper:
    @pytest.fixture
    def kernel(self):
        # a fixture, so a missing compiler skips before hypothesis draws
        return _compiled_kernel()

    @pytest.mark.parametrize("n", [5, 16, 17, 32, 33, 37])
    def test_advance_writes_only_its_columns(self, kernel, n):
        # the output ends where a guard of one block's 16 doubles begins, so
        # a block stored past column n fails here, where past the end of a
        # buffer it could corrupt the heap and abort the run
        steps, h, guard = 3, 0.01, 16
        y = np.random.default_rng(n).standard_normal((4, n))
        out = np.full(steps * 4 * n + guard, -1.0)
        kernel.advance(y.ctypes.data, n, steps, oscillator.SUBSTEPS, h, out.ctypes.data)
        want = [y]
        for _ in range(steps):
            want.append(np.array(oscillator._rk4_substeps(*want[-1], h)))
        assert out[:-guard].tobytes() == np.array(want[1:]).tobytes()
        assert (out[-guard:] == -1.0).all()

    def test_clones_are_the_isas_compared(self):
        # a clone added in C without its bitwise comparison fails here
        source = oscillator.RK4_SOURCE.read_text()
        clones = re.search(r"target_clones\(([^)]*)\)", source).group(1)
        isa = re.search(r"rk4_isa\(void\)\n\{(.*?)\n\}", source, re.S).group(1)
        assert re.findall(r'"(\w+)"', clones) == list(ISAS)
        assert re.findall(r'return "(\w+)"', isa) == list(ISAS)
        assert re.findall(r'__builtin_cpu_supports\("(\w+)"\)', isa) == list(ISAS[:-1])

    @pytest.fixture(params=ISAS[::-1])
    def clone(self, request, monkeypatch, tmp_path):
        """The dispatched kernel, and ``rk4.c`` built into ``tmp_path`` with
        dispatch off for one clone's ISA: the code that clone runs, whichever
        clone this CPU selects."""
        dispatched, isa = _compiled_kernel(), request.param
        if ISAS.index(isa) < ISAS.index(dispatched.isa):
            pytest.skip(f"the dispatched kernel selected {dispatched.isa!r}: this host's CPU or compiler offers no {isa}")
        flags = ("-DRK4_NO_DISPATCH", *(() if isa == "default" else (f"-m{isa}",)))
        with monkeypatch.context() as patch:
            patch.setattr(oscillator, "RK4_CACHE", tmp_path)
            patch.setattr(oscillator, "RK4_FLAGS", (*oscillator.RK4_FLAGS, *flags))
            oscillator._rk4_kernel.cache_clear()
            built = oscillator._rk4_kernel()
            oscillator._rk4_kernel.cache_clear()
        assert built is not None and built.isa == "default"
        return dispatched, built

    @_stepper_cases(*_EDGE_CASES.values())
    def test_each_clone_agrees_bitwise(self, monkeypatch, clone, case):
        # CI and any one host run only the clone their CPU selects; the
        # one-state rk4_integrate of each build, which has no clones, too
        y0, runs = case[0], []
        for kernel in clone:
            with monkeypatch.context() as patch:
                cfg = _case_grid(patch, *case)
                patch.setattr(oscillator, "_rk4_kernel", lambda: kernel)
                runs.append([_bit_steps(start, cfg) for start in (y0[:, 0], y0)])
        for (got, step), (want, want_step) in zip(*runs):
            assert step == want_step
            np.testing.assert_array_equal(got, want)


def _float_integrate(y0, cfg):
    """``integrate``'s states on Python floats, or its DivergenceError."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oscillator, "_rk4_kernel", lambda: None)
        try:
            return integrate(y0, cfg).states
        except DivergenceError as exc:
            return exc


class TestCompiledIntegrate:
    """``rk4_integrate``, which squares with libm pow, against
    ``_rk4_substeps`` on Python floats, whose ``** 2`` is that pow."""

    @pytest.fixture(autouse=True)
    def kernel(self):
        return _compiled_kernel()

    def test_random_starts_agree_bitwise(self):
        # a product in place of pow changes 101 of these 200 trajectories
        cfg = SimConfig(dt=0.1, t_max=200.0, n_points=2001, sigma=1.0, n_mc=1)
        for y0 in np.random.default_rng(21).normal(0.0, 2.0, (200, 4)):
            want = _float_integrate(y0, cfg)
            assert isinstance(want, np.ndarray), f"{y0} diverged"
            assert integrate(y0, cfg).states.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_points", [11, 2001])
    @pytest.mark.parametrize(
        "y0", [(1e160, 0.0, 0.0, 0.0), (50.0, 0.0, 50.0, 0.0), (1e154, 0.0, 1e154, 0.0)]
    )
    def test_divergence_step(self, y0, n_points):
        # in the first two pow overflows, which raises OverflowError on a
        # Python float and returns inf in C, and in the last a product of
        # finite factors overflows: each path stops at the same grid step,
        # with the same message
        cfg = _grid(1.0, n_points)
        want = _float_integrate(np.array(y0), cfg)
        assert isinstance(want, DivergenceError)
        with pytest.raises(DivergenceError, match="became non-finite") as got:
            integrate(np.array(y0), cfg)
        assert (str(got.value), got.value.step) == (str(want), want.step)
        if want.step > 1:
            # the grid steps before it agree bit for bit
            before = _grid(1.0, want.step)
            assert integrate(np.array(y0), before).states.tobytes() == _float_integrate(np.array(y0), before).tobytes()


def _per_step_projection(cfg, x_hat):
    """The projection's moments as the loop before chunks formed them: the
    batch stepped by ``_rk4_substeps`` one grid step at a time, its states
    checked and its moments reduced from that step alone.  Returns (mean,
    var), or the grid step at which the states diverge."""
    y, h = _projection_start(cfg, x_hat), cfg.dt / oscillator.SUBSTEPS
    mean, var, dev = np.empty((cfg.n_points, 2)), np.empty((cfg.n_points, 2)), np.empty((2, cfg.n_mc))
    with np.errstate(over="ignore", invalid="ignore"):
        for step, m, v in zip(range(cfg.n_points), mean, var):
            if step:
                y = np.array(oscillator._rk4_substeps(*y, h))
                if not np.isfinite(y).all():
                    return step
            resolved = y[:2]
            np.true_divide(np.add.reduce(resolved, 1, out=m), cfg.n_mc, out=m)
            np.square(np.subtract(resolved, m[:, None], out=dev), out=dev)
            np.true_divide(np.add.reduce(dev, 1, out=v), cfg.n_mc, out=v)
    return mean, var


def _projection_outcome(cfg, x_hat):
    """``monte_carlo_projection``'s (mean, var), or the grid step at which
    its states diverge."""
    try:
        mean, var = monte_carlo_projection(cfg, x_hat)
    except DivergenceError as exc:
        assert "state" in str(exc)
        return exc.step
    return mean.states, var.states


@pytest.mark.usefixtures("stepper")
class TestChunks:
    """The projection's chunks of grid steps against the per-step loop."""

    @staticmethod
    def _assert_same(got, want):
        if isinstance(want, int):
            assert got == want
        else:
            assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()

    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        n_mc=st.sampled_from([1, 7, 8, 9, 16, 17, 129]),
        chunk=st.integers(1, 9),
        n_points=st.integers(2, 60),
        dt=st.floats(0.01, 0.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_moments_equal_the_per_step_loop(self, monkeypatch, n_mc, chunk, n_points, dt, seed):
        cfg = SimConfig(dt=dt, t_max=dt * (n_points - 1), n_points=n_points, sigma=1.0, n_mc=n_mc, seed=seed)
        with monkeypatch.context() as patch:
            _chunked(patch, n_mc, chunk)
            got = _projection_outcome(cfg, (1.0, 0.5))
        self._assert_same(got, _per_step_projection(cfg, (1.0, 0.5)))

    # at dt 30 the hidden oscillator, linear while the resolved one rests at
    # 0, grows about 60-fold a grid step, so the log of sigma sets the step
    # at which its square overflows: 87, 59, 31 and 8 at these sigmas
    @pytest.mark.parametrize("chunk, log_sigma", [(1, 100.0), (7, 100.0), (8, 50.0), (5, 140.0), (81, 0.0)])
    def test_a_divergence_in_a_later_chunk(self, monkeypatch, chunk, log_sigma):
        cfg = SimConfig(dt=30.0, t_max=30.0 * 99, n_points=100, sigma=10.0**log_sigma, n_mc=9, seed=3)
        want = _per_step_projection(cfg, (0.0, 0.0))
        assert isinstance(want, int) and want > chunk
        with monkeypatch.context() as patch:
            _chunked(patch, cfg.n_mc, chunk)
            assert _projection_outcome(cfg, (0.0, 0.0)) == want

    def test_long_fit_chunks(self):
        # n_mc 100 takes 81 grid steps a call, and 2000 steps are 24 calls
        # of 81 and one of 56
        cfg = SimConfig(dt=0.1, t_max=200.0, n_points=2001, sigma=1.0, n_mc=100, seed=4)
        assert oscillator._CHUNK_BYTES // (32 * cfg.n_mc) == 81
        self._assert_same(_projection_outcome(cfg, (1.0, 0.0)), _per_step_projection(cfg, (1.0, 0.0)))
        diverging = SimConfig(dt=30.0, t_max=30.0 * 99, n_points=100, sigma=1.0, n_mc=100, seed=3)
        want = _per_step_projection(diverging, (0.0, 0.0))
        assert isinstance(want, int) and want > 81
        assert _projection_outcome(diverging, (0.0, 0.0)) == want


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

    def test_a_build_that_cannot_be_moved_leaves_nothing(self, loader, monkeypatch):
        # the compiler ran, but its output cannot be moved into the cache:
        # the temporary directory goes, with the output in it
        if shutil.which("cc") is None:
            pytest.skip("no C compiler `cc` on PATH to build the compiled stepper")
        compiled = []

        def failing_replace(src, dst):
            compiled.append(Path(src).stat().st_size > 0)
            raise OSError("the move failed")

        monkeypatch.setattr(os, "replace", failing_replace)
        self._assert_numpy_projection(loader)
        assert compiled == [True]
        assert list(oscillator.RK4_CACHE.iterdir()) == []

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

    def test_a_candidate_that_vanishes_is_passed_over(self, loader, monkeypatch):
        # another process deletes a listed build of the current key before
        # its read: the good build is still loaded, so a run stamps "compiled"
        _compiled_kernel()
        (built,) = oscillator.RK4_CACHE.iterdir()
        key = built.stem.split("-")[1]
        vanished, listing = oscillator.RK4_CACHE / f"rk4-{key}-0000000000000000.so", Path.glob

        def glob(path, pattern):
            return [*([vanished] if pattern == f"rk4-{key}-*.so" else []), *listing(path, pattern)]

        monkeypatch.setattr(Path, "glob", glob)
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
            compiled.append(next(arg for arg in command if arg.endswith("rk4.c")))
            return run(command, **kwargs)

        monkeypatch.setattr(subprocess, "run", counting_run)
        for source in sources * 3:
            monkeypatch.setattr(oscillator, "RK4_SOURCE", source)
            loader.cache_clear()
            _compiled_kernel()
        assert compiled == [str(source) for source in sources]
        assert len(list(oscillator.RK4_CACHE.iterdir())) == 2

    def test_without_numpys_archive_the_normals_are_drawn_in_numpy(self, loader, monkeypatch, tmp_path):
        # numpy ships no libnpyrandom.a: the kernel still builds, without
        # philox_normals, and keyed_normals draws row by row from one
        # generator, to the bytes of the linked fill
        key = (2**64 + 5, 1, 300, 3)
        linked = oscillator.keyed_normals(*key)
        monkeypatch.setattr(oscillator, "NPYRANDOM", tmp_path / "missing" / "libnpyrandom.a")
        loader.cache_clear()
        kernel = _compiled_kernel()
        assert kernel.normals is None
        assert oscillator.stepper() == {"rk4": "compiled", "rk4_isa": kernel.isa, "normals": "numpy"}
        streams, real = [], oscillator.rng_stream

        def counting(*args):
            streams.append(args)
            return real(*args)

        monkeypatch.setattr(oscillator, "rng_stream", counting)
        drawn = oscillator.keyed_normals(*key)
        assert streams == [key[:2] + (0,)]
        want = np.array([real(*key[:2], i).standard_normal(key[3]) for i in range(key[2])])
        assert drawn.tobytes() == want.tobytes() == linked.tobytes()

    def test_two_archives_build_once_each(self, loader, monkeypatch, tmp_path):
        # numpy's archive, and a copy with one member more, as two numpy
        # releases sharing the cache, loaded in turn: the archive's digest
        # keys the build, so each compiles once and links its own archive
        if not numpy_ships_ziggurat():
            pytest.skip("numpy ships no libnpyrandom.a and bitgen.h for the compiled normals to link")
        archives = [tmp_path / "a" / "libnpyrandom.a", tmp_path / "b" / "libnpyrandom.a"]
        shipped = oscillator.NPYRANDOM.read_bytes()
        for archive, extra in zip(archives, [b"", _ar_member("note.txt", b"another numpy release")]):
            archive.parent.mkdir()
            archive.write_bytes(shipped + extra)
        linked, run = [], subprocess.run

        def counting_run(command, **kwargs):
            linked.append(next(arg for arg in command if arg.endswith(".a")))
            return run(command, **kwargs)

        monkeypatch.setattr(subprocess, "run", counting_run)
        for archive in archives * 3:
            monkeypatch.setattr(oscillator, "NPYRANDOM", archive)
            loader.cache_clear()
            assert _compiled_kernel().normals is not None
        assert linked == [str(archive) for archive in archives]
        assert len(list(oscillator.RK4_CACHE.iterdir())) == 2

    def test_source_ships_with_the_package(self):
        tomllib = pytest.importorskip("tomllib")
        package = Path(oscillator.__file__).parent
        assert oscillator.RK4_SOURCE.parent == package and oscillator.RK4_SOURCE.is_file()
        pyproject = tomllib.loads((package.parents[1] / "pyproject.toml").read_text())
        assert oscillator.RK4_SOURCE.name in pyproject["tool"]["setuptools"]["package-data"]["mzdmd"]


class TestStepper:
    """What a run's report names as the stepper of its integrations and the
    drawer of its keyed normals."""

    def test_a_sigma_zero_projection_builds_the_kernel_it_names(self, tmp_path, monkeypatch):
        # at sigma 0 the projection is one integrate() run, which steps in
        # the kernel: under a fresh cache it builds exactly one, loads it
        # once, and the stamp names that build's clone
        if shutil.which("cc") is None:
            pytest.skip("no C compiler `cc` on PATH to build the compiled stepper")
        monkeypatch.setattr(oscillator, "RK4_CACHE", tmp_path / "cache")
        oscillator._rk4_kernel.cache_clear()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(oscillator, "_rk4_substeps", None)  # nothing steps on floats
                monte_carlo_projection(_grid(0.1, 21), (1.0, 0.0))
                kernel = _compiled_kernel()
            assert oscillator._rk4_kernel.cache_info().misses == 1
            assert len(list(oscillator.RK4_CACHE.glob("rk4-*.so"))) == 1
            assert kernel.isa in ISAS
            assert oscillator.stepper() == {"rk4": "compiled", "rk4_isa": kernel.isa, "normals": _normals_stamp()}
        finally:
            oscillator._rk4_kernel.cache_clear()

    def test_a_missing_kernel_names_numpy(self, monkeypatch):
        monkeypatch.setattr(oscillator, "_rk4_kernel", lambda: None)
        assert oscillator.stepper() == {"rk4": "numpy", "normals": "numpy"}

    def test_the_compiled_kernel_names_its_clone(self):
        kernel = _compiled_kernel()
        assert oscillator.stepper() == {"rk4": "compiled", "rk4_isa": kernel.isa, "normals": _normals_stamp()}


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.0]), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0]), np.zeros((3, 2)))
