import contextlib
import functools
import itertools
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from conftest import rotation_snapshots
from hypothesis import given, settings
from hypothesis import strategies as st

from mzdmd import (
    AdamConfig,
    EnsembleError,
    MatchingDegeneracyWarning,
    MemoryInit,
    NumericalError,
    Objective,
    SpectralModel,
    Trajectory,
    dmd_fit,
    eig,
    ensemble,
    ensemble_variance,
    fit_ensemble,
    fit_transition,
    linalg,
    match_and_average,
    phase_normalize,
    reconstruct,
    run_ensemble,
)
from mzdmd.config import build_config, default_config
from mzdmd.ensemble import ASSIGNMENT_MAX_DIM, min_cost_assignment
from mzdmd.harness import simulate_measurement
from mzdmd.oscillator import TAG_ENSEMBLE


def _sim_snapshots(sigma=1.0, seed=7, n_points=81):
    import dataclasses

    cfg = default_config()
    cfg = dataclasses.replace(
        cfg,
        sim=dataclasses.replace(
            cfg.sim, sigma=sigma, seed=seed, n_points=n_points, t_max=(n_points - 1) * 0.1
        ),
    )
    return simulate_measurement(cfg)[1]


def _random_model(rng, d=3, dt=0.1):
    values = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    vectors = phase_normalize(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return SpectralModel(values=values, vectors=vectors, dt=dt)


class TestSpectralModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            SpectralModel(np.ones(2), np.ones((3, 3)), 0.1)
        with pytest.raises(ValueError):
            SpectralModel(np.ones(2), np.eye(2), 0.0)
        with pytest.raises(ValueError):  # rank-deficient eigenvector matrix
            SpectralModel(np.ones(2), np.ones((2, 2)), 0.1)


class TestFitEnsemble:
    def test_zero_sigma_reduces_to_plain_fit(self):
        s = _sim_snapshots(sigma=0.0)
        models = fit_ensemble("mz-dmd", s, 0.0, 4, AdamConfig(), seed=0)
        # all samples see the same zero memory vector, hence identical fits
        for model in models[1:]:
            np.testing.assert_array_equal(model.values, models[0].values)
            np.testing.assert_array_equal(model.vectors, models[0].vectors)
        # the optimizer wanders at most lr*iterations from the analytic
        # least-squares solution it starts from
        reference = eig(dmd_fit(s))
        drift = AdamConfig().learning_rate * AdamConfig().iterations
        assert np.abs(np.sort_complex(models[0].values) - np.sort_complex(reference.values)).max() <= drift

    def test_single_sample_average_is_identity(self):
        s = _sim_snapshots()
        models = fit_ensemble("t-model", s, 1.0, 1, AdamConfig(), seed=1)
        averaged = match_and_average(models)
        np.testing.assert_allclose(averaged.values, models[0].values, atol=1e-14)
        np.testing.assert_allclose(averaged.vectors, models[0].vectors, atol=1e-12)

    def test_rejects_plain_kind_and_bad_counts(self):
        s = _sim_snapshots()
        with pytest.raises(ValueError):
            fit_ensemble("plain-dmd", s, 1.0, 2, AdamConfig(), seed=0)
        with pytest.raises(ValueError):
            fit_ensemble("mz-dmd", s, 1.0, 0, AdamConfig(), seed=0)

    def test_deterministic_given_seed(self):
        s = _sim_snapshots()
        a = fit_ensemble("t-model", s, 1.0, 3, AdamConfig(), seed=5)
        b = fit_ensemble("t-model", s, 1.0, 3, AdamConfig(), seed=5)
        for ma, mb in zip(a, b):
            np.testing.assert_array_equal(ma.values, mb.values)
            np.testing.assert_array_equal(ma.vectors, mb.vectors)

    def test_sample_failures_aggregate(self):
        s = _sim_snapshots()
        cfg = AdamConfig(learning_rate=1e150, iterations=3)  # every sample diverges
        with pytest.raises(EnsembleError) as excinfo:
            fit_ensemble("t-model", s, 1.0, 3, cfg, seed=2)
        assert len(excinfo.value.failures) == 3
        assert "0" in str(excinfo.value)

    def test_trace_sink_collects_all_samples(self):
        s = _sim_snapshots()
        sink = []
        fit_ensemble("t-model", s, 1.0, 4, AdamConfig(), seed=3, trace_sink=sink)
        assert len(sink) == 4
        assert all(t.shape == (6,) for t in sink)


def _reference_fit_ensemble(kind, s, sigma, n_u, cfg, seed, trace_sink=None):
    """The per-sample ensemble loop: one 2-D fit_transition per sample, kept
    as the reference for the stacked fit."""
    a0 = dmd_fit(s)
    models, failures = [], []
    for i in range(n_u):
        rng = ensemble.rng_stream(seed, TAG_ENSEMBLE, i)
        mem = MemoryInit.sample(s.dim, sigma, rng)
        try:
            a_fit, trace = fit_transition(Objective(kind, s, mem), a0, cfg)
            dec = linalg.eig(a_fit)
        except Exception as exc:  # noqa: BLE001 - aggregated and re-raised below
            failures.append((i, exc))
            continue
        if trace_sink is not None:
            trace_sink.append(trace)
        models.append(SpectralModel(values=dec.values, vectors=dec.vectors, dt=s.dt))
    if failures:
        raise EnsembleError(f"{len(failures)} of {n_u} samples failed", failures=failures)
    return models


@contextlib.contextmanager
def _fitted_operators():
    """Record every operator whose eigendecomposition an ensemble takes."""
    seen, real = [], linalg.eig

    def record(a, *args, **kwargs):
        seen.append(np.array(a))
        return real(a, *args, **kwargs)

    with mock.patch.object(linalg, "eig", record):
        yield seen


class Fits(NamedTuple):
    operators: list
    traces: list
    models: list
    failures: list  # (sample index, error type)


def _run(fit, kind, s, sigma, n_u, cfg, seed) -> Fits:
    """Fitted operators, loss traces, models and failures of one ensemble."""
    traces = []
    with _fitted_operators() as ops, np.errstate(over="ignore", invalid="ignore"):
        try:
            models, failures = fit(kind, s, sigma, n_u, cfg, seed, trace_sink=traces), []
        except EnsembleError as exc:
            models, failures = [], [(i, type(e)) for i, e in exc.failures]
    return Fits(ops, traces, models, failures)


def _assert_same_fits(got: Fits, want: Fits, rtol: float) -> None:
    """Same failures, and operators and traces equal to ``rtol`` (0: bitwise)."""
    assert got.failures == want.failures
    assert len(got.operators) == len(want.operators) and len(got.traces) == len(want.traces)
    for a, b in zip(got.operators + got.traces, want.operators + want.traces):
        if rtol == 0:
            np.testing.assert_array_equal(a, b)
        else:
            assert np.abs(a - b).max() <= rtol * np.abs(b).max()


@functools.cache
def _benchmark_case(name):
    """Snapshots and Adam settings of the default protocol or of the long
    record (2001 points, 100 Adam steps)."""
    long_fit = {"t_max": 200.0, "n_points": 2001, "iterations": 100, "n_u": 1}
    cfg = build_config(long_fit if name == "long-fit" else {})
    return simulate_measurement(cfg)[1], cfg.adam


@functools.cache
def _reference_fits(kind, case):
    """The per-sample reference of seed 1 on a benchmark case at the largest
    size its tests use (100 samples on the protocol, one on the long
    record), computed once per session.  Samples are fitted independently,
    so its first n samples are the reference of an n-sample ensemble."""
    s, cfg = _benchmark_case(case)
    return _run(_reference_fit_ensemble, kind, s, 1.0, 100 if case == "protocol" else 1, cfg, 1)


class TestStackedEnsemble:
    @pytest.mark.parametrize("kind", ["mz-dmd", "t-model"])
    @pytest.mark.parametrize("case", ["protocol", "long-fit"])
    def test_single_sample_bitwise_equals_reference(self, kind, case):
        s, cfg = _benchmark_case(case)
        got = _run(fit_ensemble, kind, s, 1.0, 1, cfg, 1)
        ref = _reference_fits(kind, case)
        want = Fits(ref.operators[:1], ref.traces[:1], ref.models[:1], ref.failures)
        _assert_same_fits(got, want, rtol=0)
        for a, b in zip(got.models, want.models):
            np.testing.assert_array_equal(a.values, b.values)
            np.testing.assert_array_equal(a.vectors, b.vectors)

    @pytest.mark.parametrize("kind", ["mz-dmd", "t-model"])
    def test_full_ensemble_matches_reference_and_repeats(self, kind):
        s, cfg = _benchmark_case("protocol")
        got = _run(fit_ensemble, kind, s, 1.0, 100, cfg, 1)
        want = _reference_fits(kind, "protocol")
        assert len(got.operators) == len(want.operators) == 100
        _assert_same_fits(got, want, rtol=1e-12)
        _assert_same_fits(_run(fit_ensemble, kind, s, 1.0, 100, cfg, 1), got, rtol=0)

    @pytest.mark.parametrize("kind", ["mz-dmd", "t-model"])
    def test_partial_failure_drops_only_the_failing_samples(self, kind, monkeypatch):
        # rows 1 and 3 draw memory vectors of 1e200, so their objectives overflow
        s, real = _sim_snapshots(), ensemble.rng_stream

        class Overflowing:
            def standard_normal(self, size):
                return np.full(size, 1e200)

        clean = _run(fit_ensemble, kind, s, 1.0, 5, AdamConfig(), 4)
        monkeypatch.setattr(
            ensemble, "rng_stream", lambda seed, tag, i: Overflowing() if i in (1, 3) else real(seed, tag, i)
        )
        got = _run(fit_ensemble, kind, s, 1.0, 5, AdamConfig(), 4)
        want = _run(_reference_fit_ensemble, kind, s, 1.0, 5, AdamConfig(), 4)
        assert [i for i, _ in got.failures] == [1, 3]
        _assert_same_fits(got, want, rtol=1e-12)
        kept = (0, 2, 4)
        survivors = Fits([clean.operators[i] for i in kept], [clean.traces[i] for i in kept], [], got.failures)
        _assert_same_fits(got, survivors, rtol=0)

    def test_refits_map_slices_back_to_samples(self, monkeypatch):
        # the second round fits samples 0, 2, 3 and 4, so its slice 1 is sample 2
        s, real, sizes = _sim_snapshots(), ensemble.fit_transition, []

        def flaky(obj, a0, cfg):
            sizes.append(len(a0))
            if len(sizes) <= 2:
                raise NumericalError(f"round {len(sizes)}", indices=[1])
            return real(obj, a0, cfg)

        clean = _run(fit_ensemble, "t-model", s, 1.0, 5, AdamConfig(), 6)
        monkeypatch.setattr(ensemble, "fit_transition", flaky)
        got = _run(fit_ensemble, "t-model", s, 1.0, 5, AdamConfig(), 6)
        assert sizes == [5, 4, 3]
        assert got.failures == [(1, NumericalError), (2, NumericalError)]
        kept = (0, 3, 4)
        survivors = Fits([clean.operators[i] for i in kept], [clean.traces[i] for i in kept], [], got.failures)
        _assert_same_fits(got, survivors, rtol=0)

    @settings(deadline=None)
    @given(
        kind=st.sampled_from(["mz-dmd", "t-model"]),
        n_u=st.integers(1, 6),
        sigma=st.floats(0.0, 2.0),
        seed=st.integers(0, 2**16),
        n_points=st.integers(5, 41),
        iterations=st.integers(1, 3),
    )
    def test_stacked_equals_per_sample_reference(self, kind, n_u, sigma, seed, n_points, iterations):
        s = _sim_snapshots(sigma=1.0, seed=seed, n_points=n_points)
        cfg = AdamConfig(iterations=iterations)
        got = _run(fit_ensemble, kind, s, sigma, n_u, cfg, seed)
        want = _run(_reference_fit_ensemble, kind, s, sigma, n_u, cfg, seed)
        _assert_same_fits(got, want, rtol=1e-12)


class TestMatchAndAverage:
    def test_identical_models_round_trip(self):
        rng = np.random.default_rng(0)
        model = _random_model(rng)
        averaged = match_and_average([model, model, model])
        np.testing.assert_allclose(averaged.values, model.values, atol=1e-14)
        np.testing.assert_allclose(averaged.vectors, model.vectors, atol=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        model = _random_model(rng)
        perm = np.array([2, 0, 1])
        shuffled = SpectralModel(model.values[perm], model.vectors[:, perm], model.dt)
        averaged = match_and_average([model, shuffled])
        np.testing.assert_allclose(
            np.sort_complex(averaged.values), np.sort_complex(model.values), atol=1e-12
        )

    def test_concentration_of_perturbed_copies(self):
        rng = np.random.default_rng(2)
        base = _random_model(rng)
        models = []
        for _ in range(100):
            values = base.values + 1e-3 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
            vectors = phase_normalize(
                base.vectors + 1e-3 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
            )
            models.append(SpectralModel(values, vectors, base.dt))
        averaged = match_and_average(models)
        matched = np.sort_complex(averaged.values)
        np.testing.assert_allclose(matched, np.sort_complex(base.values), atol=2e-4)

    def test_conjugate_symmetry_preserved(self):
        # every sample keeps a genuinely complex pair, so matching must not
        # split the pair across slots and the average stays conjugate-closed
        rng = np.random.default_rng(3)
        models = []
        for _ in range(20):
            a = 0.05 * rng.standard_normal((2, 2)) + np.array([[0.9, -0.4], [0.4, 0.9]])
            dec = eig(a)
            assert np.abs(dec.values.imag).min() > 0.1
            models.append(SpectralModel(dec.values, dec.vectors, 0.1))
        averaged = match_and_average(models)
        assert np.abs(np.sort_complex(averaged.values) - np.sort_complex(np.conj(averaged.values))).max() <= 1e-10

    def test_order_invariance_with_fixed_reference(self):
        rng = np.random.default_rng(4)
        models = [_random_model(rng) for _ in range(6)]
        averaged = match_and_average(models)
        shuffled = [models[0]] + [models[i] for i in (3, 5, 1, 4, 2)]
        averaged2 = match_and_average(shuffled)
        np.testing.assert_allclose(averaged.values, averaged2.values, atol=1e-12)
        np.testing.assert_allclose(averaged.vectors, averaged2.vectors, atol=1e-12)

    def test_degenerate_matching_warns(self):
        values = np.array([0.5 + 0.0j, 0.5 + 0.0j])  # exactly tied distances
        vectors = np.eye(2, dtype=complex)
        model = SpectralModel(values, vectors, 0.1)
        with pytest.warns(MatchingDegeneracyWarning):
            match_and_average([model, model])

    def test_dimension_and_dt_mismatch(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            match_and_average([_random_model(rng, d=2), _random_model(rng, d=3)])
        with pytest.raises(ValueError):
            match_and_average([_random_model(rng, dt=0.1), _random_model(rng, dt=0.2)])

    def test_empty_list(self):
        with pytest.raises(ValueError):
            match_and_average([])


class TestMinCostAssignment:
    """The exhaustive search against scipy's Hungarian solver as the oracle."""

    @pytest.mark.parametrize("d", range(1, 7))
    def test_agrees_with_linear_sum_assignment(self, d):
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(100 + d)
        for _ in range(2000):
            cost = rng.random((d, d))
            rows, cols = linear_sum_assignment(cost)
            np.testing.assert_array_equal(rows, np.arange(d))
            np.testing.assert_array_equal(min_cost_assignment(cost), cols)

    @pytest.mark.parametrize(
        "case",
        [
            np.full((4, 4), 0.7),
            np.abs(np.array([0.5, 0.5, 0.2])[:, None] - np.array([0.5, 0.5, 0.2])[None, :]),
            np.abs(
                np.array([0.9 + 0.4j, 0.9 - 0.4j])[:, None]
                - np.array([0.9 + 0.4j, 0.9 - 0.4j])[None, :]
            ),
        ],
        ids=["all-equal", "repeated-eigenvalue", "conjugate-pair-to-itself"],
    )
    def test_exact_ties_keep_the_identity(self, case):
        from scipy.optimize import linear_sum_assignment

        d = case.shape[0]
        perm = min_cost_assignment(case)
        _, cols = linear_sum_assignment(case)
        np.testing.assert_array_equal(perm, np.arange(d))
        assert case[np.arange(d), perm].sum() == case[np.arange(d), cols].sum()

    def test_dimension_bound(self):
        rng = np.random.default_rng(6)
        d = ASSIGNMENT_MAX_DIM + 1
        assert d == 9
        with pytest.raises(ValueError, match="d <= 8"):
            min_cost_assignment(np.zeros((d, d)))
        model = _random_model(rng, d=d)
        with pytest.raises(ValueError, match="d <= 8"):
            match_and_average([model, model])
        assert min_cost_assignment(rng.random((8, 8))).shape == (8,)

    def test_table_is_built_once_per_dimension(self, monkeypatch):
        built = []
        real = ensemble.itertools.permutations

        def counting(items):
            built.append(len(items))
            return real(items)

        ensemble._permutation_table.cache_clear()
        monkeypatch.setattr(ensemble.itertools, "permutations", counting)
        rng = np.random.default_rng(7)
        for _ in range(5):
            for d in (3, 4):
                min_cost_assignment(rng.random((d, d)))
        ensemble._permutation_table.cache_clear()
        assert built == [3, 4]

    def test_table_is_read_only_and_results_are_copies(self):
        table = ensemble._permutation_table(3)
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 2
        # match_and_average swaps entries of the assignment in place
        cost = np.eye(3)
        perm = min_cost_assignment(cost)
        want = perm.copy()
        perm[0], perm[1] = perm[1], perm[0]
        np.testing.assert_array_equal(min_cost_assignment(cost), want)
        np.testing.assert_array_equal(table, list(itertools.permutations(range(3))))

    def test_repeated_calls_agree_with_linear_sum_assignment(self):
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(8)
        for _ in range(300):
            cost = rng.random((4, 4))
            perm = min_cost_assignment(cost)
            np.testing.assert_array_equal(perm, linear_sum_assignment(cost)[1])
            perm[:] = perm[::-1]  # a caller's write reaches no later call


class TestReconstruct:
    def test_unit_eigenvalues_give_constant(self):
        model = SpectralModel(np.array([1.0, 1.0]), np.eye(2, dtype=complex), 0.1)
        traj = reconstruct(model, np.array([1.0, 0.0]), np.arange(10) * 0.1)
        np.testing.assert_allclose(traj.states, np.tile([1.0, 0.0], (10, 1)), atol=1e-14)

    def test_scalar_exponential_decay(self):
        model = SpectralModel(np.array([np.exp(0.1 * -0.2)]), np.eye(1, dtype=complex), 0.1)
        times = np.arange(0.0, 5.1, 0.5)
        traj = reconstruct(model, np.array([1.0]), times)
        np.testing.assert_allclose(traj.states[:, 0], np.exp(-0.2 * times), rtol=1e-12)
        assert traj.states[-1, 0] == pytest.approx(0.367879, abs=1e-6)

    def test_unit_circle_pair_is_bounded(self):
        theta = 0.3
        a = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        dec = eig(a)
        model = SpectralModel(dec.values, dec.vectors, 0.1)
        x0 = np.array([1.0, 0.0])
        traj = reconstruct(model, x0, np.arange(200) * 0.1)
        bound = np.linalg.cond(model.vectors) * np.linalg.norm(x0)
        assert np.abs(traj.states).max() <= bound + 1e-9

    def test_returns_x0_at_time_zero(self):
        rng = np.random.default_rng(6)
        a = 0.4 * rng.standard_normal((3, 3))
        dec = eig(a + np.eye(3))
        model = SpectralModel(dec.values, dec.vectors, 0.1)
        x0 = rng.standard_normal(3)
        traj = reconstruct(model, x0, np.arange(5) * 0.1)
        assert np.abs(traj.states[0] - x0).max() <= 1e-10

    def test_zero_eigenvalue_rejected(self):
        model = SpectralModel(np.array([0.0 + 0.0j, 1.0]), np.eye(2, dtype=complex), 0.1)
        with pytest.raises(ValueError):
            reconstruct(model, np.array([1.0, 0.0]), np.arange(3) * 0.1)

    def test_imaginary_residue_telemetry(self):
        # a spectrum that is not conjugate-closed leaks an imaginary part
        model = SpectralModel(
            np.array([np.exp(0.05j), np.exp(-0.049j)]),
            phase_normalize(np.array([[1.0, 1.0], [1.0j, -1.0j]])),
            0.1,
        )
        traj = reconstruct(model, np.array([1.0, 0.0]), np.arange(100) * 0.1)
        assert traj.max_imag > 0.0
        assert traj.imag_warning

    def test_clean_conjugate_pair_has_tiny_residue(self):
        s, _ = rotation_snapshots(n_snapshots=10)
        dec = eig(dmd_fit(s))
        model = SpectralModel(dec.values, dec.vectors, s.dt)
        traj = reconstruct(model, np.array([1.0, 0.0]), np.arange(50) * 0.1)
        assert traj.max_imag <= 1e-10
        assert not traj.imag_warning


class TestEnsembleVariance:
    def test_identical_samples_zero_variance(self):
        rng = np.random.default_rng(7)
        model = _random_model(rng, d=2)
        times = np.arange(20) * 0.1
        x0 = np.array([1.0, 0.0])
        mean = reconstruct(model, x0, times)
        var = ensemble_variance([model, model, model], mean, x0, times)
        np.testing.assert_array_equal(var.states, np.zeros_like(mean.states))

    def test_symmetric_pair_gives_square_offset(self):
        times = np.arange(5) * 0.1
        x0 = np.array([2.0])
        up = SpectralModel(np.array([1.1]), np.eye(1, dtype=complex), 0.1)
        down = SpectralModel(np.array([1.0 / 1.1]), np.eye(1, dtype=complex), 0.1)
        mean_states = 0.5 * (
            reconstruct(up, x0, times).states + reconstruct(down, x0, times).states
        )
        mean = Trajectory(times, mean_states)
        var = ensemble_variance([up, down], mean, x0, times)
        offset = reconstruct(up, x0, times).states - mean_states
        np.testing.assert_allclose(var.states, offset**2, rtol=1e-12)

    def test_nonnegative(self):
        s = _sim_snapshots()
        result = run_ensemble(
            "t-model", s, 1.0, 5, AdamConfig(), 0, np.array([1.0, 0.0]), np.arange(81) * 0.1
        )
        assert np.all(result.variance_traj.states >= 0.0)
        assert len(result.per_sample) == 5

    def test_empty_list(self):
        times = np.arange(3) * 0.1
        mean = Trajectory(times, np.zeros((3, 2)))
        with pytest.raises(ValueError):
            ensemble_variance([], mean, np.array([1.0, 0.0]), times)
