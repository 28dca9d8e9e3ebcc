import numpy as np
import pytest
from conftest import random_snapshots

from mzdmd import (
    AdamConfig,
    DivergenceError,
    Objective,
    OptState,
    adam_step,
    dmd_fit,
    fit_transition,
)


class TestAdamConfig:
    def test_defaults(self):
        cfg = AdamConfig()
        assert cfg.learning_rate == 1e-3
        assert cfg.beta1 == 0.9 and cfg.beta2 == 0.999
        assert cfg.epsilon == 1e-8 and cfg.iterations == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"beta1": 1.0},
            {"beta2": -0.1},
            {"epsilon": 0.0},
            {"iterations": 0},
            {"learning_rate": np.nan},
            {"learning_rate": np.inf},
            {"epsilon": np.nan},
            {"epsilon": np.inf},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            AdamConfig(**kwargs)


class TestAdamStep:
    def test_zero_gradient_leaves_params(self):
        params = np.array([[1.0, -2.0], [0.5, 3.0]])
        state = OptState.initial(params)
        new = adam_step(state, np.zeros((2, 2)), AdamConfig())
        np.testing.assert_array_equal(new.params, params)
        assert new.step_count == 1

    def test_scalar_first_step(self):
        state = OptState.initial(np.array([[0.0]]))
        new = adam_step(state, np.array([[2.0]]), AdamConfig())
        # bias-corrected first step is -lr * g / (|g| + eps), essentially -lr
        assert new.params[0, 0] == pytest.approx(-1e-3, abs=1e-10)

    def test_step_magnitude_bound(self):
        cfg = AdamConfig()
        state = OptState.initial(np.zeros((2, 2)))
        grad = np.array([[5.0, -3.0], [0.25, 100.0]])
        bound = cfg.learning_rate / (1 - cfg.beta1) * (1 + 1e-9)
        for _ in range(6):
            prev = state.params
            state = adam_step(state, grad, cfg)
            assert np.abs(state.params - prev).max() <= bound

    def test_two_constant_steps(self):
        cfg = AdamConfig()
        state = OptState.initial(np.array([[0.0]]))
        grad = np.array([[7.0]])
        before = state.params.copy()
        state = adam_step(state, grad, cfg)
        state = adam_step(state, grad, cfg)
        per_step = np.abs(state.params - before).max() / 2
        assert per_step <= cfg.learning_rate * (1 + 1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        params = rng.standard_normal((3, 3))
        grad = rng.standard_normal((3, 3))
        a = adam_step(OptState.initial(params), grad, AdamConfig())
        b = adam_step(OptState.initial(params), grad, AdamConfig())
        np.testing.assert_array_equal(a.params, b.params)
        np.testing.assert_array_equal(a.second_moment, b.second_moment)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            adam_step(OptState.initial(np.zeros((2, 2))), np.zeros(3), AdamConfig())


class TestFitTransition:
    def test_plain_stays_near_optimum(self):
        rng = np.random.default_rng(1)
        s = random_snapshots(rng, cols=40)
        a0 = dmd_fit(s)
        cfg = AdamConfig()
        a_fit, trace = fit_transition(Objective("plain-dmd", s), a0, cfg)
        assert np.abs(a_fit - a0).max() <= cfg.learning_rate * cfg.iterations
        assert trace.shape == (cfg.iterations + 1,)

    def test_zero_memory_matches_plain_bitwise(self):
        rng = np.random.default_rng(2)
        s = random_snapshots(rng, cols=15)
        a0 = dmd_fit(s)
        cfg = AdamConfig()
        plain, plain_trace = fit_transition(Objective("plain-dmd", s), a0, cfg)
        for kind in ("t-model", "mz-dmd"):
            fitted, trace = fit_transition(Objective(kind, s, np.zeros(2)), a0, cfg)
            np.testing.assert_array_equal(fitted, plain)
            np.testing.assert_array_equal(trace, plain_trace)

    def test_loss_trace_decreases_on_benchmark_data(self):
        # the memory term shifts the optimum away from the plain solution,
        # so the budgeted steps descend on the benchmark workload
        from mzdmd import default_config, simulate_measurement

        rng = np.random.default_rng(3)
        _, s = simulate_measurement(default_config())
        mem = rng.standard_normal(2)
        a0 = dmd_fit(s)
        _, trace = fit_transition(Objective("t-model", s, mem), a0, AdamConfig())
        assert np.all(np.diff(trace) <= 1e-6)

    def test_divergence_raises(self):
        # Adam steps are bounded by the learning rate, so divergence needs a
        # rate large enough to overflow the squared residual
        rng = np.random.default_rng(4)
        s = random_snapshots(rng, cols=10)
        cfg = AdamConfig(learning_rate=1e200, iterations=4)
        with np.errstate(over="ignore"), pytest.raises(DivergenceError):
            fit_transition(Objective("plain-dmd", s), dmd_fit(s), cfg)

    def test_stacked_divergence_names_its_slices(self):
        rng = np.random.default_rng(6)
        s = random_snapshots(rng, cols=10)
        a0 = np.stack([dmd_fit(s), np.full((2, 2), 1e200), dmd_fit(s)])
        with np.errstate(over="ignore"), pytest.raises(DivergenceError) as excinfo:
            fit_transition(Objective("plain-dmd", s), a0, AdamConfig())
        assert excinfo.value.indices == [1]
        assert excinfo.value.step == 0

    def test_stack_takes_one_adam_step_per_operator(self, monkeypatch):
        import mzdmd.optim

        rng = np.random.default_rng(7)
        s = random_snapshots(rng, cols=10)
        mem = rng.standard_normal((3, 2))
        a0 = np.stack([dmd_fit(s)] * 3)
        steps = []

        def counting_step(state, grad, cfg):
            steps.append(grad.shape)
            return adam_step(state, grad, cfg)

        monkeypatch.setattr(mzdmd.optim, "adam_step", counting_step)
        fit_transition(Objective("t-model", s, mem), a0, AdamConfig(iterations=2))
        assert steps == [(2, 2)] * 6

    def test_wrong_initial_shape(self):
        rng = np.random.default_rng(5)
        s = random_snapshots(rng)
        with pytest.raises(ValueError):
            fit_transition(Objective("plain-dmd", s), np.eye(3), AdamConfig())
