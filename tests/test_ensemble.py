import contextlib
import functools
import itertools
import warnings
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from conftest import assert_bitwise, overflowing_mz_snapshots, reference_phase_normalize, rotation_snapshots
from hypothesis import given, settings
from hypothesis import strategies as st

from mzdmd import (
    AdamConfig,
    DivergenceError,
    EnsembleError,
    MatchingDegeneracyWarning,
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
    oscillator,
    phase_normalize,
    reconstruct,
    run_ensemble,
)
from mzdmd.config import build_config, default_config
from mzdmd.ensemble import ASSIGNMENT_MAX_DIM, min_cost_assignment
from mzdmd.harness import simulate_measurement
from mzdmd.oscillator import TAG_ENSEMBLE, rng_stream


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


def _random_model(rng, d=3, dt=0.1, n=None):
    """One random model, or a stack of n."""
    shape = () if n is None else (n,)
    values = rng.standard_normal(shape + (d,)) + 1j * rng.standard_normal(shape + (d,))
    vectors = phase_normalize(
        rng.standard_normal(shape + (d, d)) + 1j * rng.standard_normal(shape + (d, d))
    )
    return SpectralModel(values=values, vectors=vectors, dt=dt)


def _stack(models):
    return SpectralModel(
        np.stack([m.values for m in models]), np.stack([m.vectors for m in models]), models[0].dt
    )


def _slices(model):
    """The single models of a (n, d) stack."""
    return [SpectralModel(v, w, model.dt) for v, w in zip(model.values, model.vectors)]


class TestSpectralModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            SpectralModel(np.ones(2), np.ones((3, 3)), 0.1)
        with pytest.raises(ValueError):
            SpectralModel(np.ones(2), np.eye(2), 0.0)
        with pytest.raises(ValueError):  # rank-deficient eigenvector matrix
            SpectralModel(np.ones(2), np.ones((2, 2)), 0.1)
        with pytest.raises(ValueError):  # one vector matrix for two slices
            SpectralModel(np.ones((2, 2)), np.eye(2), 0.1)

    def test_a_stack_of_one_fails_like_a_single_model(self):
        with pytest.raises(ValueError) as single:
            SpectralModel(np.ones(2), np.ones((2, 2)), 0.1)
        with pytest.raises(ValueError) as stack_of_one:
            SpectralModel(np.ones((1, 2)), np.ones((1, 2, 2)), 0.1)
        assert str(single.value) == str(stack_of_one.value)
        assert "in slices" not in str(single.value)

    def test_stack_names_its_singular_slices(self):
        vectors = np.stack([np.eye(2), np.ones((2, 2)), np.eye(2), np.ones((2, 2))])
        with pytest.raises(ValueError, match=r"in slices \[1, 3\]"):
            SpectralModel(np.ones((4, 2)), vectors, 0.1)
        model = SpectralModel(np.ones((4, 2)), np.stack([np.eye(2)] * 4), 0.1)
        assert model.dim == 2 and model.values.shape == (4, 2)


class TestFitEnsemble:
    def test_zero_sigma_reduces_to_plain_fit(self):
        s = _sim_snapshots(sigma=0.0)
        models, _ = fit_ensemble("mz-dmd", s, 0.0, 4, AdamConfig(), seed=0)
        assert models.values.shape == (4, 2) and models.vectors.shape == (4, 2, 2)
        # all samples see the same zero memory vector, hence identical fits
        for i in range(1, 4):
            np.testing.assert_array_equal(models.values[i], models.values[0])
            np.testing.assert_array_equal(models.vectors[i], models.vectors[0])
        # the optimizer wanders at most lr*iterations from the analytic
        # least-squares solution it starts from
        reference = eig(dmd_fit(s))
        drift = AdamConfig().learning_rate * AdamConfig().iterations
        assert np.abs(np.sort_complex(models.values[0]) - np.sort_complex(reference.values)).max() <= drift

    def test_single_sample_average_is_identity(self):
        s = _sim_snapshots()
        models, _ = fit_ensemble("t-model", s, 1.0, 1, AdamConfig(), seed=1)
        averaged = match_and_average(models)
        np.testing.assert_allclose(averaged.values, models.values[0], atol=1e-14)
        np.testing.assert_allclose(averaged.vectors, models.vectors[0], atol=1e-12)

    def test_rejects_plain_kind_and_bad_counts(self):
        s = _sim_snapshots()
        with pytest.raises(ValueError):
            fit_ensemble("plain-dmd", s, 1.0, 2, AdamConfig(), seed=0)
        with pytest.raises(ValueError):
            fit_ensemble("mz-dmd", s, 1.0, 0, AdamConfig(), seed=0)
        for sigma in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="sigma"):
                fit_ensemble("mz-dmd", s, sigma, 2, AdamConfig(), seed=0)

    def test_deterministic_given_seed(self):
        s = _sim_snapshots()
        (a, a_traces), (b, b_traces) = (
            fit_ensemble("t-model", s, 1.0, 3, AdamConfig(), seed=5) for _ in range(2)
        )
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.vectors, b.vectors)
        np.testing.assert_array_equal(a_traces, b_traces)

    def test_sample_failures_aggregate(self):
        s = _sim_snapshots()
        cfg = AdamConfig(learning_rate=1e150, iterations=3)  # every sample diverges
        with pytest.raises(EnsembleError) as excinfo:
            fit_ensemble("t-model", s, 1.0, 3, cfg, seed=2)
        assert len(excinfo.value.failures) == 3
        assert "0" in str(excinfo.value)

    def test_failed_eig_names_only_its_sample(self, monkeypatch):
        real, calls = ensemble.linalg.eig, []

        def failing_second(a):
            calls.append(a)
            if len(calls) == 2:
                raise NumericalError("eigenvalue iteration did not converge")
            return real(a)

        monkeypatch.setattr(ensemble.linalg, "eig", failing_second)
        with pytest.raises(EnsembleError, match=r"^1 of 3 ensemble samples failed \(indices: 1\); ") as excinfo:
            fit_ensemble("t-model", _sim_snapshots(), 1.0, 3, AdamConfig(), seed=0)
        assert len(calls) == 3
        [(index, error)] = excinfo.value.failures
        assert index == 1 and isinstance(error, NumericalError)

    def test_returns_one_loss_trace_per_sample(self):
        s = _sim_snapshots()
        _, traces = fit_ensemble("t-model", s, 1.0, 4, AdamConfig(), seed=3)
        assert traces.shape == (4, AdamConfig().iterations + 1)

    @pytest.mark.parametrize("sigma", [1.0, 0.3, 0.0])
    def test_memory_rows_are_sigma_times_each_samples_stream(self, sigma, monkeypatch):
        s, real, seen = _sim_snapshots(), ensemble.fit_transition, []

        def recording(obj, a0, cfg):
            seen.append(obj.memory)
            return real(obj, a0, cfg)

        monkeypatch.setattr(ensemble, "fit_transition", recording)
        seed = 2**33 + 9
        fit_ensemble("t-model", s, sigma, 7, AdamConfig(), seed=seed)
        # 2 is the ensemble's tag; at sigma 0 the negative draws give -0.0
        want = np.array([sigma * rng_stream(seed, 2, i).standard_normal(s.dim) for i in range(7)])
        assert np.signbit(want).any()
        (got,) = seen
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_one_generator_per_ensemble(self, monkeypatch):
        s, real, keys = _sim_snapshots(), oscillator.rng_stream, []

        def counting(*key):
            keys.append(key)
            return real(*key)

        monkeypatch.setattr(oscillator, "rng_stream", counting)
        fit_ensemble("t-model", s, 1.0, 6, AdamConfig(), seed=3)
        assert keys == [(3, TAG_ENSEMBLE, 0)]


def _reference_fit_ensemble(kind, s, sigma, n_u, cfg, seed, stream=rng_stream):
    """The per-sample ensemble loop: one 2-D fit_transition per sample, each
    memory vector drawn from its own ``stream(seed, ensemble, i)``, kept as
    the reference for the stacked fit; its models are stacked at the end,
    and so are its loss traces."""
    a0 = dmd_fit(s)
    models, traces, failures = [], [], []
    for i in range(n_u):
        mem = sigma * stream(seed, TAG_ENSEMBLE, i).standard_normal(s.dim)
        try:
            # looked up on the module, as the stacked fit does, so _recorded sees the call
            a_fit, trace = ensemble.fit_transition(Objective(kind, s, mem), a0, cfg)
            dec = linalg.eig(a_fit)
        except Exception as exc:  # noqa: BLE001 - aggregated and re-raised below
            failures.append((i, exc))
            continue
        traces.append(trace)
        models.append(SpectralModel(values=dec.values, vectors=dec.vectors, dt=s.dt))
    if failures:
        raise EnsembleError(f"{len(failures)} of {n_u} samples failed", failures=failures)
    return _stack(models), np.stack(traces)


@contextlib.contextmanager
def _recorded():
    """Record every operator whose eigendecomposition an ensemble takes, and
    the loss-trace rows of every ``ensemble.fit_transition`` call that
    returns: a stacked fit's last call, which holds the survivors' traces,
    or each surviving sample's call in the per-sample reference."""
    operators, traces = [], []
    real_eig, real_fit = linalg.eig, ensemble.fit_transition

    def eig(a, *args, **kwargs):
        operators.append(np.array(a))
        return real_eig(a, *args, **kwargs)

    def fit(obj, a0, cfg):
        fitted, trace = real_fit(obj, a0, cfg)
        traces.extend(trace.reshape(-1, trace.shape[-1]))
        return fitted, trace

    with mock.patch.object(linalg, "eig", eig), mock.patch.object(ensemble, "fit_transition", fit):
        yield operators, traces


class Fits(NamedTuple):
    operators: list
    traces: list
    models: SpectralModel | None
    failures: list  # (sample index, error type)


def _run(fit, kind, s, sigma, n_u, cfg, seed) -> Fits:
    """Fitted operators, loss traces, models and failures of one ensemble.
    The traces are the fit's return value, which must equal the recorded
    rows; when the ensemble fails, they are the recorded survivors' rows."""
    with _recorded() as (ops, recorded), np.errstate(over="ignore", invalid="ignore"):
        try:
            models, traces = fit(kind, s, sigma, n_u, cfg, seed)
        except EnsembleError as exc:
            return Fits(ops, recorded, None, [(i, type(e)) for i, e in exc.failures])
    assert traces.shape == (n_u, cfg.iterations + 1)
    np.testing.assert_array_equal(traces, recorded)
    return Fits(ops, list(traces), models, [])


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
        want = Fits(ref.operators[:1], ref.traces[:1], None, ref.failures)
        _assert_same_fits(got, want, rtol=0)
        np.testing.assert_array_equal(got.models.values, ref.models.values[:1])
        np.testing.assert_array_equal(got.models.vectors, ref.models.vectors[:1])

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
        s, real = _sim_snapshots(), ensemble.keyed_normals

        def overflowing_rows(seed, tag, n, size):
            rows = real(seed, tag, n, size)
            rows[[1, 3]] = 1e200
            return rows

        class Overflowing:
            def standard_normal(self, size):
                return np.full(size, 1e200)

        def overflowing_stream(seed, tag, i):
            return Overflowing() if i in (1, 3) else rng_stream(seed, tag, i)

        clean = _run(fit_ensemble, kind, s, 1.0, 5, AdamConfig(), 4)
        monkeypatch.setattr(ensemble, "keyed_normals", overflowing_rows)
        got = _run(fit_ensemble, kind, s, 1.0, 5, AdamConfig(), 4)
        reference = functools.partial(_reference_fit_ensemble, stream=overflowing_stream)
        want = _run(reference, kind, s, 1.0, 5, AdamConfig(), 4)
        assert [i for i, _ in got.failures] == [1, 3]
        _assert_same_fits(got, want, rtol=1e-12)
        kept = (0, 2, 4)
        survivors = Fits([clean.operators[i] for i in kept], [clean.traces[i] for i in kept], None, got.failures)
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
        survivors = Fits([clean.operators[i] for i in kept], [clean.traces[i] for i in kept], None, got.failures)
        _assert_same_fits(got, survivors, rtol=0)

    def test_overflowing_sample_is_dropped_and_the_other_fitted(self, monkeypatch):
        # sample 0's residual overflows over 200 columns
        _assert_overflowing_sample_dropped(monkeypatch, 201, "objective value is not finite")

    def test_sample_whose_gradient_overflows_is_dropped_and_the_other_fitted(self, monkeypatch):
        # over 100 columns sample 0's residual is finite, but the Frechet
        # derivative of the exponential in its gradient overflows
        _assert_overflowing_sample_dropped(monkeypatch, 101, "objective gradient is not finite")

    @pytest.mark.parametrize("action", ["default", "error"])
    def test_sample_whose_adam_moment_overflows_is_dropped_and_the_other_fitted(self, monkeypatch, action):
        # over 90 columns sample 0's value and gradient are finite, the
        # gradient at 8.4e157, but the gradient's square overflows Adam's
        # second moment, which would stall the step without a word
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action, RuntimeWarning)
            _assert_overflowing_sample_dropped(monkeypatch, 91, "Adam's second moment overflowed")
        assert caught == []

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


def _assert_overflowing_sample_dropped(monkeypatch, n_points, message):
    """Fit a two-sample mz-dmd ensemble on ``overflowing_mz_snapshots``,
    whose plain fit is the start of every sample.  Sample 0 has memory
    (1, 1) and must fail at iteration 0 with ``message``, naming its slice;
    sample 1 has zero memory and must fit bitwise like a lone fit."""
    s = overflowing_mz_snapshots(n_points)
    monkeypatch.setattr(ensemble, "keyed_normals", lambda *key: np.array([[1.0, 1.0], [0.0, 0.0]]))
    with _recorded() as (operators, traces), pytest.raises(EnsembleError) as excinfo:
        fit_ensemble("mz-dmd", s, 1.0, 2, AdamConfig(), seed=0)
    ((index, exc),) = excinfo.value.failures
    assert index == 0 and isinstance(exc, DivergenceError)
    assert str(exc) == f"{message} in slices [0]"
    assert exc.indices == [0] and exc.step == 0
    fitted, want = fit_transition(Objective("mz-dmd", s, np.zeros(2)), dmd_fit(s), AdamConfig())
    assert len(operators) == len(traces) == 1
    assert_bitwise(operators[0], fitted)
    assert_bitwise(traces[0], want)


def _reference_match_and_average(models):
    """The per-model matching loop, kept as the reference for the stacked
    ``match_and_average``; takes a list of single models."""
    ref = models[0]
    d = ref.dim
    sum_values = np.zeros(d, dtype=complex)
    sum_vectors = np.zeros((d, d), dtype=complex)
    for model in models:
        cost = np.abs(ref.values[:, None] - model.values[None, :])
        perm = min_cost_assignment(cost)
        overlap = np.abs(ref.vectors.conj().T @ model.vectors)
        for i in range(d):
            for j in range(i + 1, d):
                kept = cost[i, perm[i]] + cost[j, perm[j]]
                swapped = cost[i, perm[j]] + cost[j, perm[i]]
                if abs(swapped - kept) < ensemble.DEGENERACY_TOL:
                    warnings.warn("degenerate", MatchingDegeneracyWarning)
                    if overlap[i, perm[j]] + overlap[j, perm[i]] > (
                        overlap[i, perm[i]] + overlap[j, perm[j]]
                    ):
                        perm[i], perm[j] = perm[j], perm[i]
        sum_values += model.values[perm]
        sum_vectors += reference_phase_normalize(model.vectors[:, perm])
    avg_values = sum_values / len(models)
    avg_vectors = reference_phase_normalize(sum_vectors / len(models))
    return SpectralModel(values=avg_values, vectors=avg_vectors, dt=ref.dt)


def _degenerate_stack():
    """Four models of one twice-repeated eigenvalue; slices 1 and 3 hold the
    eigenvectors in swapped order, so the overlap tie-break swaps them back."""
    swapped = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    vectors = np.stack([np.eye(2), swapped, np.eye(2), swapped])
    return SpectralModel(np.full((4, 2), 0.5 + 0.0j), vectors, 0.1)


def _assert_same_model(got, want):
    assert_bitwise(got.values, want.values)
    assert_bitwise(got.vectors, want.vectors)
    assert got.dt == want.dt


class TestMatchAndAverage:
    def test_identical_models_round_trip(self):
        rng = np.random.default_rng(0)
        model = _random_model(rng)
        averaged = match_and_average(_stack([model, model, model]))
        np.testing.assert_allclose(averaged.values, model.values, atol=1e-14)
        np.testing.assert_allclose(averaged.vectors, model.vectors, atol=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        model = _random_model(rng)
        perm = np.array([2, 0, 1])
        shuffled = SpectralModel(model.values[perm], model.vectors[:, perm], model.dt)
        averaged = match_and_average(_stack([model, shuffled]))
        np.testing.assert_allclose(
            np.sort_complex(averaged.values), np.sort_complex(model.values), atol=1e-12
        )

    def test_concentration_of_perturbed_copies(self):
        rng = np.random.default_rng(2)
        base = _random_model(rng)
        values = base.values + 1e-3 * (rng.standard_normal((100, 3)) + 1j * rng.standard_normal((100, 3)))
        vectors = phase_normalize(
            base.vectors + 1e-3 * (rng.standard_normal((100, 3, 3)) + 1j * rng.standard_normal((100, 3, 3)))
        )
        averaged = match_and_average(SpectralModel(values, vectors, base.dt))
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
        averaged = match_and_average(_stack(models))
        assert np.abs(np.sort_complex(averaged.values) - np.sort_complex(np.conj(averaged.values))).max() <= 1e-10

    def test_order_invariance_with_fixed_reference(self):
        rng = np.random.default_rng(4)
        models = _random_model(rng, n=6)
        averaged = match_and_average(models)
        order = [0, 3, 5, 1, 4, 2]
        averaged2 = match_and_average(SpectralModel(models.values[order], models.vectors[order], models.dt))
        np.testing.assert_allclose(averaged.values, averaged2.values, atol=1e-12)
        np.testing.assert_allclose(averaged.vectors, averaged2.vectors, atol=1e-12)

    def test_degenerate_matching_warns(self):
        values = np.array([0.5 + 0.0j, 0.5 + 0.0j])  # exactly tied distances
        vectors = np.eye(2, dtype=complex)
        model = SpectralModel(values, vectors, 0.1)
        with pytest.warns(MatchingDegeneracyWarning):
            match_and_average(_stack([model, model]))

    def test_empty_list(self):
        # an empty stack cannot be built, so nothing reaches the average
        with pytest.raises(ValueError):
            SpectralModel(np.zeros((0, 2)), np.zeros((0, 2, 2)), 0.1)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_stack_equals_per_model_reference(self, d):
        rng = np.random.default_rng(30 + d)
        cases = [_random_model(rng, d=d, n=n) for n in (1, 2, 7, 40)]
        # spectra of real operators: conjugate pairs, as the ensembles fit
        decs = [eig(rng.standard_normal((d, d))) for _ in range(25)]
        cases.append(_stack([SpectralModel(dec.values, dec.vectors, 0.1) for dec in decs]))
        # repeated eigenvalues make some of the pairwise swaps degenerate
        tied = _random_model(rng, d=d, n=12)
        values = tied.values.copy()
        values[:, -1] = values[:, 0]
        values[5:] = values[0]
        cases.append(SpectralModel(values, tied.vectors, 0.1))
        for models in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", MatchingDegeneracyWarning)
                got = match_and_average(models)
                want = _reference_match_and_average(_slices(models))
            if d > 1:
                _assert_same_model(got, want)
            else:
                # numpy sums a contiguous axis pairwise, and at d = 1 the
                # sample axis is one, so the average rounds differently
                np.testing.assert_allclose(got.values, want.values, rtol=1e-15)
                np.testing.assert_allclose(got.vectors, want.vectors, rtol=1e-15)

    def test_degenerate_stack_equals_reference_and_warns_once_per_pair(self):
        models = _degenerate_stack()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = match_and_average(models)
            assert len(caught) == 1  # one degenerate pair (0, 1), four samples
            want = _reference_match_and_average(_slices(models))
        assert issubclass(caught[0].category, MatchingDegeneracyWarning)
        _assert_same_model(got, want)
        # the tie-break swapped slices 1 and 3 back, so all four agree
        np.testing.assert_array_equal(got.vectors, np.eye(2))


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
        with pytest.raises(ValueError, match="d <= 8"):
            match_and_average(_random_model(rng, d=d, n=2))
        with pytest.raises(ValueError, match="d <= 8"):
            min_cost_assignment(np.zeros((3, d, d)))
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

    @pytest.mark.parametrize("d", range(1, 7))
    def test_stack_equals_per_matrix_calls(self, d):
        rng = np.random.default_rng(200 + d)
        values = rng.standard_normal((50, d))
        # random costs, and distances between spectra with repeated values
        for cost in (rng.random((50, d, d)), np.abs(values[0][:, None] - values[:, None, :].round(1))):
            perms = min_cost_assignment(cost)
            assert perms.shape == (50, d)
            for c, perm in zip(cost, perms):
                np.testing.assert_array_equal(perm, min_cost_assignment(c))
        assert min_cost_assignment(rng.random((2, 3, d, d))).shape == (2, 3, d)

    def test_repeated_calls_agree_with_linear_sum_assignment(self):
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(8)
        for _ in range(300):
            cost = rng.random((4, 4))
            perm = min_cost_assignment(cost)
            np.testing.assert_array_equal(perm, linear_sum_assignment(cost)[1])
            perm[:] = perm[::-1]  # a caller's write reaches no later call


def _reference_reconstruct(model, x0, times):
    """The single-model reconstruction, kept as the reference for the
    stacked ``reconstruct``."""
    x0 = np.asarray(x0, dtype=float).ravel()
    times = np.asarray(times, dtype=float).ravel()
    omega = np.log(model.values) / model.dt
    b = linalg.solve(model.vectors, x0.astype(complex))
    coords = np.exp(np.outer(times, omega)) * b[None, :]
    complex_states = coords @ model.vectors.T
    return complex_states.real.copy(), float(np.abs(complex_states.imag).max())


def _reference_ensemble_variance(per_sample, mean_traj, x0, times):
    """The looped variance: one reconstruction per single model, accumulated
    in sample order."""
    acc = np.zeros_like(np.asarray(mean_traj.states, dtype=float))
    for model in per_sample:
        dev = _reference_reconstruct(model, x0, times)[0] - mean_traj.states
        acc += dev * dev
    return acc / len(per_sample)


def _fitted_stack(rng, d, n):
    """Spectra of n random operators near the identity, as fits give."""
    decs = [eig(np.eye(d) + 0.2 * rng.standard_normal((d, d))) for _ in range(n)]
    return _stack([SpectralModel(dec.values, dec.vectors, 0.1) for dec in decs])


class TestReconstruct:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_stack_equals_per_slice_reference(self, d):
        rng = np.random.default_rng(40 + d)
        times = np.arange(101) * 0.1
        x0 = rng.standard_normal(d)
        for models in (_fitted_stack(rng, d, 1), _fitted_stack(rng, d, 30), _random_model(rng, d=d, n=5)):
            traj = reconstruct(models, x0, times)
            assert traj.states.shape == (101, len(models.values), d) and traj.states.flags.c_contiguous
            imag = []
            for i, model in enumerate(_slices(models)):
                states, max_imag = _reference_reconstruct(model, x0, times)
                assert_bitwise(traj.states[:, i], states)
                single = reconstruct(model, x0, times)
                assert_bitwise(single.states, states)
                assert single.max_imag == max_imag
                imag.append(max_imag)
            assert traj.max_imag == max(imag)

    def test_nested_stack_puts_time_first(self):
        rng = np.random.default_rng(45)
        models = _random_model(rng, d=2, n=6)
        nested = SpectralModel(models.values.reshape(2, 3, 2), models.vectors.reshape(2, 3, 2, 2), 0.1)
        times = np.arange(7) * 0.1
        flat = reconstruct(models, np.array([1.0, 0.0]), times).states
        got = reconstruct(nested, np.array([1.0, 0.0]), times).states
        assert got.shape == (7, 2, 3, 2)
        assert_bitwise(got.reshape(7, 6, 2), flat)

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

    @pytest.mark.parametrize("x0", [np.ones(1), np.ones(3)], ids=["short", "long"])
    def test_x0_of_the_wrong_length_is_refused(self, x0):
        model = SpectralModel(np.array([0.5, 0.9]), np.eye(2, dtype=complex), 0.1)
        with pytest.raises(ValueError, match="^x0 length must match the model dimension$"):
            reconstruct(model, x0, np.arange(3) * 0.1)

    def test_imaginary_residue_telemetry(self):
        # a spectrum that is not conjugate-closed leaks an imaginary part
        model = SpectralModel(
            np.array([np.exp(0.05j), np.exp(-0.049j)]),
            phase_normalize(np.array([[1.0, 1.0], [1.0j, -1.0j]])),
            0.1,
        )
        traj = reconstruct(model, np.array([1.0, 0.0]), np.arange(100) * 0.1)
        assert traj.max_imag > 0.0

    def test_clean_conjugate_pair_has_tiny_residue(self):
        s, _ = rotation_snapshots(n_snapshots=10)
        dec = eig(dmd_fit(s))
        model = SpectralModel(dec.values, dec.vectors, s.dt)
        traj = reconstruct(model, np.array([1.0, 0.0]), np.arange(50) * 0.1)
        assert traj.max_imag <= 1e-10

    @pytest.mark.parametrize("action", ["default", "error"])
    def test_growing_mode_raises_at_its_first_non_finite_step(self, action):
        # exp(log(10) t / 0.01) passes the largest float between t = 3.08 and 3.09
        model = SpectralModel(np.array([10.0, 0.5]), np.eye(2, dtype=complex), 0.01)
        times = np.arange(5001) * 0.01
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action, RuntimeWarning)
            with pytest.raises(DivergenceError, match="^reconstructed state became non-finite "
                                                      "at grid step 309$") as excinfo:
                reconstruct(model, np.array([1.0, 1.0]), times)
        assert caught == []
        assert excinfo.value.step == 309 and excinfo.value.indices is None
        assert np.isfinite(reconstruct(model, np.array([1.0, 1.0]), times[:309]).states).all()

    def test_growing_slices_are_named_by_the_reconstruction_and_the_variance(self):
        values = np.array([[0.5, 0.9], [10.0, 0.5], [0.9, 0.9], [0.9, 20.0]])
        models = SpectralModel(values, np.broadcast_to(np.eye(2, dtype=complex), (4, 2, 2)), 0.01)
        times = np.arange(501) * 0.01
        x0 = np.array([1.0, 1.0])
        mean = Trajectory(times, np.zeros((times.size, 2)))
        # exp(log(20) t / 0.01) overflows first, at t = 2.37
        for call in (lambda: reconstruct(models, x0, times),
                     lambda: ensemble_variance(models, mean, x0, times)):
            with pytest.raises(DivergenceError, match=r"at grid step 237 in slices \[1, 3\]$") as excinfo:
                call()
            assert excinfo.value.step == 237 and excinfo.value.indices == [1, 3]
        # a stack of one fails like a single model
        with pytest.raises(DivergenceError, match="at grid step 237$") as excinfo:
            reconstruct(SpectralModel(values[3:], models.vectors[3:], 0.01), x0, times)
        assert excinfo.value.indices is None

    @settings(max_examples=200, deadline=None)
    @given(
        log_moduli=st.lists(st.one_of(
            st.floats(-3.0, 3.0),
            # within a few ulps to 1e-3 of the unit circle
            st.sampled_from([-1e-3, -1e-8, -1e-15, 0.0, 1e-15, 1e-8, 1e-3]),
        ), min_size=2, max_size=2),
        angles=st.lists(st.one_of(
            st.sampled_from([0.0, np.pi, -np.pi]),  # the real axis, both halves
            st.floats(-np.pi, np.pi),
        ), min_size=2, max_size=2),
        vector_seed=st.integers(0, 2**32 - 1),
        x0=st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=2),
        dt=st.floats(1e-3, 10.0),
        n_points=st.integers(1, 5000),
    )
    def test_property_finite_or_typed_error(self, log_moduli, angles, vector_seed, x0, dt, n_points):
        """Every reconstruction either returns finite states or raises a typed
        error, and no call warns."""
        values = 10.0 ** np.array(log_moduli) * np.exp(1j * np.array(angles))
        rng = np.random.default_rng(vector_seed)
        vectors = phase_normalize(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        times = np.arange(n_points) * dt
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                traj = reconstruct(SpectralModel(values, vectors, dt), np.array(x0), times)
            except ValueError:
                return
            except DivergenceError as exc:
                assert 0 <= exc.step < n_points and exc.indices is None
                head = reconstruct(SpectralModel(values, vectors, dt), np.array(x0), times[:exc.step])
                assert np.isfinite(head.states).all()
                return
        assert traj.states.shape == (n_points, 2)
        assert np.isfinite(traj.states).all() and np.isfinite(traj.max_imag)

    def test_makes_no_condition_checked_solve(self):
        # SpectralModel has refused ill-conditioned eigenvectors already, so
        # neither the reconstruction nor the variance checks them again
        rng = np.random.default_rng(9)
        models = _random_model(rng, d=2, n=3)
        times = np.arange(4) * 0.1
        x0 = np.array([1.0, 0.0])
        with mock.patch.object(ensemble.linalg, "solve", wraps=ensemble.linalg.solve) as solve:
            mean = reconstruct(models, x0, times)
            ensemble_variance(models, Trajectory(times, mean.states[:, 0]), x0, times)
        assert solve.call_count == 0


class TestEnsembleVariance:
    def test_identical_samples_zero_variance(self):
        rng = np.random.default_rng(7)
        model = _random_model(rng, d=2)
        times = np.arange(20) * 0.1
        x0 = np.array([1.0, 0.0])
        mean = reconstruct(model, x0, times)
        var = ensemble_variance(_stack([model, model, model]), mean, x0, times)
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
        var = ensemble_variance(_stack([up, down]), mean, x0, times)
        offset = reconstruct(up, x0, times).states - mean_states
        np.testing.assert_allclose(var.states, offset**2, rtol=1e-12)

    def test_nonnegative(self):
        s = _sim_snapshots()
        result = run_ensemble(
            "t-model", s, 1.0, 5, AdamConfig(), 0, np.array([1.0, 0.0]), np.arange(81) * 0.1
        )
        assert np.all(result.variance_traj.states >= 0.0)
        assert result.per_sample.values.shape == (5, 2)

    def test_empty_list(self):
        # an empty stack cannot be built, so no variance divides by zero
        with pytest.raises(ValueError):
            SpectralModel(np.zeros((0, 2)), np.zeros((0, 2, 2)), 0.1)

    def test_mean_shape_is_checked(self):
        rng = np.random.default_rng(8)
        models = _random_model(rng, d=2, n=3)
        times = np.arange(4) * 0.1
        x0 = np.array([1.0, 0.0])
        # (1, d) and (len(times), 1) would broadcast; a stack of means is no mean
        for states in (np.zeros((1, 2)), np.zeros((4, 1)), np.zeros((4, 3, 2)), np.zeros((4, 3))):
            mean = Trajectory(times[: len(states)], states)
            with pytest.raises(ValueError, match="mean states"):
                ensemble_variance(models, mean, x0, times)
        empty = ensemble_variance(models, Trajectory(times[:0], np.zeros((0, 2))), x0, times[:0])
        assert empty.states.shape == (0, 2)

    # real and complex spectra in one stack make some matchings degenerate
    @pytest.mark.filterwarnings("ignore::mzdmd.MatchingDegeneracyWarning")
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_equals_looped_reference(self, d):
        rng = np.random.default_rng(50 + d)
        times = np.arange(201) * 0.1
        x0 = rng.standard_normal(d)
        for n in (1, 2, 9, 100):
            models = _fitted_stack(rng, d, n)
            mean = reconstruct(match_and_average(models), x0, times)
            got = ensemble_variance(models, mean, x0, times)
            want = _reference_ensemble_variance(_slices(models), mean, x0, times)
            if d > 1 or n < 8:
                assert_bitwise(got.states, want)
            else:
                # at d = 1 the sample axis is the contiguous one, which numpy
                # sums pairwise from eight samples on
                np.testing.assert_allclose(got.states, want, rtol=1e-14)
