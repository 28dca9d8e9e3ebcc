import dataclasses
import warnings

import numpy as np
import pytest
from conftest import assert_bitwise, overflowing_mz_snapshots, random_snapshots
from hypothesis import given, settings
from hypothesis import strategies as st

from mzdmd import (
    AdamConfig,
    DivergenceError,
    Objective,
    adam_step,
    dmd_fit,
    fit_transition,
    objective_value_and_gradient,
)
from mzdmd.optim import BETA1, BETA2, EPSILON


def reference_adam_step(params, m, v, step, grad, cfg):
    """The functional Adam update that the in-place one replaced, with the
    same expression order; returns the new (params, m, v)."""
    m = BETA1 * m + (1.0 - BETA1) * grad
    v = BETA2 * v + (1.0 - BETA2) * grad * grad
    m_hat = m / (1.0 - BETA1**step)
    v_hat = v / (1.0 - BETA2**step)
    return params - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + EPSILON), m, v


def reference_fit(obj, a0, cfg):
    """One operator fitted by the reference update."""
    params, m, v = np.array(a0, dtype=float), np.zeros_like(a0), np.zeros_like(a0)
    for it in range(cfg.iterations):
        _, grad = objective_value_and_gradient(obj, params)
        params, m, v = reference_adam_step(params, m, v, it + 1, grad, cfg)
    return params


def fresh(params):
    """A writable copy of ``params`` and zero moments of its shape."""
    params = np.array(params, dtype=float)
    return params, np.zeros_like(params), np.zeros_like(params)


class TestAdamConfig:
    def test_defaults(self):
        cfg = AdamConfig()
        assert cfg.learning_rate == 1e-3 and cfg.iterations == 5
        assert (BETA1, BETA2, EPSILON) == (0.9, 0.999, 1e-8)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"learning_rate": -1e-3},
            {"iterations": -1},
            {"learning_rate": -np.inf},
            {"iterations": 0},
            {"learning_rate": np.nan},
            {"learning_rate": np.inf},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            AdamConfig(**kwargs)

    def test_only_the_rate_and_budget_are_fields(self):
        assert [f.name for f in dataclasses.fields(AdamConfig)] == ["learning_rate", "iterations"]


class TestAdamStep:
    def test_zero_gradient_leaves_params(self):
        params = np.array([[1.0, -2.0], [0.5, 3.0]])
        p, m, v = fresh(params)
        adam_step(p, m, v, 1, np.zeros((2, 2)), AdamConfig())
        np.testing.assert_array_equal(p, params)

    def test_scalar_first_step(self):
        p, m, v = fresh([[0.0]])
        adam_step(p, m, v, 1, np.array([[2.0]]), AdamConfig())
        # bias-corrected first step is -lr * g / (|g| + eps), essentially -lr
        assert p[0, 0] == pytest.approx(-1e-3, abs=1e-10)

    def test_step_magnitude_bound(self):
        cfg = AdamConfig()
        p, m, v = fresh(np.zeros((2, 2)))
        grad = np.array([[5.0, -3.0], [0.25, 100.0]])
        bound = cfg.learning_rate / (1 - BETA1) * (1 + 1e-9)
        for step in range(1, 7):
            prev = p.copy()
            adam_step(p, m, v, step, grad, cfg)
            assert np.abs(p - prev).max() <= bound

    def test_two_constant_steps(self):
        cfg = AdamConfig()
        p, m, v = fresh([[0.0]])
        grad = np.array([[7.0]])
        before = p.copy()
        adam_step(p, m, v, 1, grad, cfg)
        adam_step(p, m, v, 2, grad, cfg)
        per_step = np.abs(p - before).max() / 2
        assert per_step <= cfg.learning_rate * (1 + 1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        params = rng.standard_normal((3, 3))
        grad = rng.standard_normal((3, 3))
        a, b = fresh(params), fresh(params)
        adam_step(*a, 1, grad, AdamConfig())
        adam_step(*b, 1, grad, AdamConfig())
        for x, y in zip(a, b):
            assert_bitwise(x, y)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            adam_step(*fresh(np.zeros((2, 2))), 1, np.zeros(3), AdamConfig())

    def test_step_counts_from_one(self):
        with pytest.raises(ValueError, match="step"):
            adam_step(*fresh(np.zeros((2, 2))), 0, np.ones((2, 2)), AdamConfig())

    @pytest.mark.parametrize("action", ["default", "error"])
    @pytest.mark.parametrize("g", [1e160, 1e155])
    def test_overflowing_second_moment_raises_before_the_step(self, action, g):
        # at 1e160 the square overflows v itself; at 1e155 v = 0.001 g^2 is
        # finite and only the bias-corrected 1000 v overflows.  Either way
        # the step would divide by inf and leave the parameters where they are
        p, m, v = fresh(np.eye(2))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action, RuntimeWarning)
            with pytest.raises(DivergenceError, match="^Adam's second moment overflowed$"):
                adam_step(p, m, v, 1, np.full((2, 2), g), AdamConfig())
        assert caught == []
        assert_bitwise(p, np.eye(2))

    @pytest.mark.parametrize("action", ["default", "error"])
    @pytest.mark.parametrize("g", [np.nan, np.inf])
    def test_non_finite_gradient_is_refused_before_anything_moves(self, action, g):
        p, m, v = fresh(np.eye(2))
        adam_step(p, m, v, 1, np.ones((2, 2)), AdamConfig())
        before = [x.copy() for x in (p, m, v)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action, RuntimeWarning)
            with pytest.raises(ValueError, match="^gradient must be finite$"):
                adam_step(p, m, v, 2, np.array([[g, 0.0], [0.0, 0.0]]), AdamConfig())
        assert caught == []
        for got, want in zip((p, m, v), before):
            assert_bitwise(got, want)

    @pytest.mark.parametrize("action", ["default", "error"])
    def test_overflowing_step_raises_before_the_parameters_move(self, action):
        # the bias-corrected first step is about lr in every entry, but
        # lr * m_hat, formed first, passes the largest float at g = 100
        p, m, v = fresh(np.eye(2))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action, RuntimeWarning)
            with pytest.raises(DivergenceError, match="^Adam's step overflowed the parameters$"):
                adam_step(p, m, v, 1, np.full((2, 2), 100.0), AdamConfig(learning_rate=1e307))
        assert caught == []
        assert_bitwise(p, np.eye(2))

    @settings(max_examples=200, deadline=None)
    @given(
        log_lr=st.floats(-4.0, 308.0),
        log_grads=st.lists(st.floats(-300.0, 300.0), min_size=12, max_size=12),
        signs=st.lists(st.booleans(), min_size=12, max_size=12),
    )
    def test_property_finite_parameters_or_a_typed_error_with_them_unmoved(self, log_lr, log_grads, signs):
        # three steps of a 2 x 2 operator, each with its own gradient of
        # entries 10^[-300, 300], at a rate 10^[-4, 308]; any warning fails
        cfg = AdamConfig(learning_rate=10.0**log_lr)
        grads = np.where(signs, -1.0, 1.0) * 10.0 ** np.array(log_grads)
        p, m, v = fresh(np.array([[0.5, -1.0], [2.0, 0.25]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for step, grad in enumerate(grads.reshape(3, 2, 2), start=1):
                before = p.copy()
                try:
                    adam_step(p, m, v, step, grad, cfg)
                except DivergenceError:
                    assert_bitwise(p, before)
                    return
                assert np.isfinite(p).all()

    @pytest.mark.parametrize("shape", [(1, 1, 1), (3, 2, 2), (5, 4, 4)])
    def test_in_place_update_matches_the_reference_bitwise(self, shape):
        rng = np.random.default_rng(sum(shape))
        cfg = AdamConfig(learning_rate=0.05)
        params = rng.standard_normal(shape)
        p, m, v = fresh(params)
        want = fresh(params)
        for step in range(1, 6):
            grad = rng.standard_normal(shape)
            grad.flat[::3] = 0.0  # zero and negative zero gradients
            grad.flat[1::5] = -0.0
            adam_step(p, m, v, step, grad, cfg)
            want = reference_adam_step(*want, step, grad, cfg)
            for got, ref in zip((p, m, v), want):
                assert_bitwise(got, ref)


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

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("action", ["default", "error"])
    def test_overflowing_second_moment_raises(self, action, stacked):
        # the value (2.9e154) and gradient (8.4e157) are finite, but the
        # gradient's square overflows Adam's second moment: without a check
        # the step stalls, and numpy only warns.  A stack of one fails like
        # a single operator
        s = overflowing_mz_snapshots(91)
        a0, mem = dmd_fit(s), np.ones(2)
        if stacked:
            a0, mem = a0[None], mem[None]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action, RuntimeWarning)
            with pytest.raises(DivergenceError, match="^Adam's second moment overflowed$") as excinfo:
                fit_transition(Objective("mz-dmd", s, mem), a0, AdamConfig())
        assert caught == []
        assert excinfo.value.step == 0 and excinfo.value.indices is None

    def test_bias_corrected_moment_is_checked(self, monkeypatch):
        # at g = 1e155 the first step's second moment v = 0.001 g^2 is
        # finite, but its bias-corrected 1000 v, whose root the step
        # divides by, is not
        import mzdmd.optim

        monkeypatch.setattr(mzdmd.optim, "objective_value_and_gradient",
                            lambda obj, a: (np.zeros(len(a)), np.full(a.shape, 1e155)))
        s = random_snapshots(np.random.default_rng(10))
        a0 = np.stack([np.zeros((2, 2)), np.eye(2)])
        with pytest.raises(DivergenceError, match=r"^Adam's second moment overflowed in slices \[0, 1\]$") as excinfo:
            fit_transition(Objective("t-model", s, np.ones((2, 2))), a0, AdamConfig())
        assert excinfo.value.step == 0 and excinfo.value.indices == [0, 1]

    def test_adam_failures_carry_their_own_messages(self, monkeypatch):
        # slice 0's square overflows the second moment, slice 1's step at
        # lr 1e307 overflows the parameters, and slice 2 steps to about -1e307
        import mzdmd.optim

        grad = np.stack([np.full((2, 2), g) for g in (1e155, 100.0, 1e-3)])
        monkeypatch.setattr(mzdmd.optim, "objective_value_and_gradient", lambda obj, a: (np.zeros(len(a)), grad))
        s = random_snapshots(np.random.default_rng(10))
        cfg = AdamConfig(learning_rate=1e307, iterations=1)
        message = r"^Adam's second moment overflowed; Adam's step overflowed the parameters in slices \[0, 1\]$"
        with pytest.raises(DivergenceError, match=message) as excinfo:
            fit_transition(Objective("t-model", s, np.ones((3, 2))), np.zeros((3, 2, 2)), cfg)
        assert excinfo.value.step == 0 and excinfo.value.indices == [0, 1]

    def test_stack_takes_one_adam_step_per_operator(self, monkeypatch):
        import mzdmd.optim

        rng = np.random.default_rng(7)
        s = random_snapshots(rng, cols=10)
        mem = rng.standard_normal((3, 2))
        a0 = np.stack([dmd_fit(s)] * 3)
        steps = []

        def counting_step(params, m, v, step, grad, cfg):
            steps.append(grad.shape)
            adam_step(params, m, v, step, grad, cfg)

        monkeypatch.setattr(mzdmd.optim, "adam_step", counting_step)
        fit_transition(Objective("t-model", s, mem), a0, AdamConfig(iterations=2))
        assert steps == [(2, 2)] * 6

    def test_wrong_initial_shape(self):
        rng = np.random.default_rng(5)
        s = random_snapshots(rng)
        with pytest.raises(ValueError):
            fit_transition(Objective("plain-dmd", s), np.eye(3), AdamConfig())

    @pytest.mark.parametrize("kind", ["mz-dmd", "t-model"])
    def test_stack_matches_a_per_slice_reference_loop_bitwise(self, kind):
        # a lone fit and its stack power their chains by the same batched
        # matmuls; a -0.0 memory entry must come out the same in both
        rng = np.random.default_rng(8)
        s = random_snapshots(rng, cols=12)
        mem = rng.standard_normal((4, 2))
        mem[1, 0] = -0.0
        a0 = np.stack([dmd_fit(s) + 0.01 * rng.standard_normal((2, 2)) for _ in range(4)])
        cfg = AdamConfig(learning_rate=0.01, iterations=5)
        fitted, _ = fit_transition(Objective(kind, s, mem), a0, cfg)
        want = np.stack([reference_fit(Objective(kind, s, mem[i]), a0[i], cfg)
                         for i in range(4)])
        assert_bitwise(fitted, want)

    @pytest.mark.parametrize("n_u", [None, 3])
    def test_leaves_a0_unchanged(self, n_u):
        rng = np.random.default_rng(9)
        s = random_snapshots(rng, cols=10)
        a0 = dmd_fit(s) if n_u is None else np.stack([dmd_fit(s)] * n_u)
        mem = rng.standard_normal(2 if n_u is None else (n_u, 2))
        before = a0.copy()
        assert a0.flags.writeable
        fitted, _ = fit_transition(Objective("t-model", s, mem), a0, AdamConfig())
        assert_bitwise(a0, before)
        assert not np.shares_memory(fitted, a0)
