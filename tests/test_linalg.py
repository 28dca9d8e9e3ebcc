import numpy as np
import pytest
from conftest import assert_bitwise, reference_phase_normalize

from mzdmd import (
    NumericalError,
    SingularMatrixError,
    eig,
    expm,
    expm_frechet,
    phase_normalize,
    pinv,
    solve,
)
from mzdmd.errors import failing_slices


class TestPinv:
    def test_identity(self):
        np.testing.assert_allclose(pinv(np.eye(3)), np.eye(3), atol=1e-14)

    def test_rank_deficient_diagonal(self):
        np.testing.assert_allclose(
            pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-14
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_penrose_conditions_up_to_8x8(self, seed):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        m = rng.standard_normal((rows, cols))
        p = pinv(m)
        assert np.linalg.norm(m @ p @ m - m) <= 1e-10
        assert np.linalg.norm(p @ m @ p - p) <= 1e-10
        assert np.linalg.norm((m @ p).T - m @ p) <= 1e-10
        assert np.linalg.norm((p @ m).T - p @ m) <= 1e-10

    def test_non_finite_input_raises(self):
        with pytest.raises(NumericalError, match="SVD did not converge in pinv"):
            pinv(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            pinv(np.empty((0, 0)))


class TestEig:
    def test_diagonal(self):
        values, vectors = eig(np.diag([1.0, 2.0]))
        # a real spectrum comes back complex, as every spectrum does
        assert values.dtype == vectors.dtype == complex
        assert sorted(values.real) == pytest.approx([1.0, 2.0])
        # axis-aligned eigenvectors with the positive-pivot phase convention
        np.testing.assert_allclose(np.abs(vectors), np.eye(2), atol=1e-14)
        assert np.all(np.diag(vectors[np.argsort(values.real)]).real > 0)

    def test_rotation_generator(self):
        values, _ = eig(np.array([[0.0, -1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(sorted(values.imag), [-1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(values.real, 0.0, atol=1e-14)

    @pytest.mark.parametrize("seed", range(4))
    def test_real_spectra_conjugate_closed(self, seed):
        rng = np.random.default_rng(seed)
        values, _ = eig(rng.standard_normal((5, 5)))
        np.testing.assert_allclose(
            np.sort_complex(values), np.sort_complex(np.conj(values)), atol=1e-10
        )

    def test_phase_convention(self):
        rng = np.random.default_rng(2)
        _, vectors = eig(rng.standard_normal((4, 4)))
        for c in range(4):
            k = np.argmax(np.abs(vectors[:, c]))
            assert vectors[k, c].imag == 0.0
            assert vectors[k, c].real > 0.0
            assert np.linalg.norm(vectors[:, c]) == pytest.approx(1.0, abs=1e-12)

    def test_non_finite_input_raises(self):
        with pytest.raises(NumericalError, match="eigenvalue iteration did not converge"):
            eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_requires_square(self):
        with pytest.raises(ValueError):
            eig(np.ones((2, 3)))


class TestExpm:
    def test_zero(self):
        np.testing.assert_array_equal(expm(np.zeros((3, 3))), np.eye(3))

    def test_nilpotent(self):
        np.testing.assert_allclose(
            expm(np.array([[0.0, 1.0], [0.0, 0.0]])),
            np.array([[1.0, 1.0], [0.0, 1.0]]),
            atol=1e-15,
        )

    def test_diagonal(self):
        result = expm(np.diag([1.0, -1.0]))
        np.testing.assert_allclose(
            result, np.diag([np.e, 1.0 / np.e]), rtol=1e-12
        )

    def test_overflow_raises(self):
        with np.errstate(over="ignore"), pytest.raises(NumericalError):
            expm(np.diag([1e6, 1e6]))


class TestExpmFrechet:
    def test_at_zero_is_identity_map(self):
        e = np.array([[1.0, 2.0], [3.0, 4.0]])
        deriv = expm_frechet(np.zeros((2, 2)), e)
        np.testing.assert_allclose(deriv, e, atol=1e-13)

    def test_scalar_chain_rule(self):
        a, e = 0.7, 1.3
        deriv = expm_frechet(np.array([[a]]), np.array([[e]]))
        assert deriv[0, 0] == pytest.approx(e * np.exp(a), rel=1e-13)

    def test_linear_in_direction(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 3))
        e1 = rng.standard_normal((3, 3))
        e2 = rng.standard_normal((3, 3))
        alpha = 1.7
        l1 = expm_frechet(a, e1)
        l2 = expm_frechet(a, e2)
        combined = expm_frechet(a, alpha * e1 + e2)
        assert np.linalg.norm(combined - (alpha * l1 + l2)) <= 1e-10 * max(
            1.0, np.linalg.norm(combined)
        )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            expm_frechet(np.eye(2), np.eye(3))


class TestSolve:
    def test_identity(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(solve(np.eye(2), b), b)

    def test_diagonal(self):
        np.testing.assert_allclose(
            solve(np.diag([2.0, 4.0]), np.eye(2)), np.diag([0.5, 0.25]), atol=1e-15
        )

    def test_singular_shifted_operator(self):
        # an operator with eigenvalue 1 makes (A - I) exactly singular
        a = np.diag([1.0, 2.0])
        with pytest.raises(SingularMatrixError, match=r"\(cond ~ \S+\)$"):
            solve(a - np.eye(2), np.eye(2))

    def test_condition_ceiling(self):
        with pytest.raises(SingularMatrixError):
            solve(np.diag([1.0, 1e-15]), np.eye(2))

    def test_incompatible_shapes(self):
        with pytest.raises(ValueError):
            solve(np.eye(2), np.ones((3, 1)))


def test_phase_normalize_unit_columns():
    rng = np.random.default_rng(8)
    v = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    normalized = phase_normalize(v)
    np.testing.assert_allclose(np.linalg.norm(normalized, axis=0), 1.0, atol=1e-12)
    for c in range(4):
        k = np.argmax(np.abs(normalized[:, c]))
        assert normalized[k, c].imag == 0.0 and normalized[k, c].real > 0


@pytest.mark.parametrize("d", range(1, 9))
def test_phase_normalize_stack_equals_per_column_reference(d):
    rng = np.random.default_rng(20 + d)
    cases = [
        rng.standard_normal((5, d, d)) + 1j * rng.standard_normal((5, d, d)),
        rng.standard_normal((3, d, d)) + 0j,  # real columns
        1e-100 * rng.standard_normal((2, d, d)),
        # unit moduli times 1 or 2: most columns tie for their largest modulus
        np.exp(1j * rng.uniform(0, 2 * np.pi, (4, d, d))) * rng.integers(1, 3, (4, d, d)),
        np.ones((2, d, d)),  # every entry of every column ties
    ]
    for v in cases:
        got = phase_normalize(v)
        for i in range(len(v)):
            assert_bitwise(got[i], reference_phase_normalize(v[i]))
        assert_bitwise(phase_normalize(v[0]), got[0])


def test_phase_normalize_rejects_a_zero_column_in_a_stack():
    v = np.ones((3, 2, 2), dtype=complex)
    v[2, :, 1] = 0
    with pytest.raises(ValueError, match="zero column"):
        phase_normalize(v)


class TestStacks:
    def test_slices_match_single_calls(self):
        rng = np.random.default_rng(9)
        a = 0.5 * rng.standard_normal((3, 3, 3))
        e = rng.standard_normal((3, 3, 3))
        b = rng.standard_normal((3, 3, 2))
        shifted = a + 3.0 * np.eye(3)
        exp_a = expm(a)
        deriv = expm_frechet(a, e)
        x = solve(shifted, b)
        values, vectors = eig(a)
        for i in range(3):
            np.testing.assert_array_equal(exp_a[i], expm(a[i]))
            np.testing.assert_array_equal(deriv[i], expm_frechet(a[i], e[i]))
            np.testing.assert_array_equal(x[i], solve(shifted[i], b[i]))
            single_values, single_vectors = eig(a[i])
            assert_bitwise(vectors[i], single_vectors)
            assert_bitwise(values[i], single_values)

    def test_eig_stack_mixing_real_and_complex_spectra_equals_the_single_calls(self):
        # a real spectrum is complex alone and in a stack with a complex pair
        real, rotation = np.diag([1.0, 2.0]), np.array([[0.0, -1.0], [1.0, 0.0]])
        values, vectors = eig(np.stack([real, rotation]))
        for i, a in enumerate([real, rotation]):
            single_values, single_vectors = eig(a)
            assert_bitwise(values[i], single_values)
            assert_bitwise(vectors[i], single_vectors)

    def test_failures_name_their_slices(self):
        big = np.stack([np.eye(2), np.diag([1e6, 1e6]), np.eye(2)])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError) as excinfo:
            expm(big)
        assert excinfo.value.indices == [1]
        singular = np.stack([np.eye(2), np.eye(2), np.diag([1.0, 0.0])])
        with pytest.raises(SingularMatrixError) as excinfo:
            solve(singular, np.ones((3, 2, 1)))
        assert excinfo.value.indices == [2]

    def test_failed_condition_estimate_names_its_slices(self):
        a = np.stack([np.eye(2), np.diag([np.nan, 1.0]), np.eye(2)])
        with pytest.raises(NumericalError, match=r"^condition estimate failed in slices \[1\]: SVD did not converge") as excinfo:
            solve(a, np.ones((3, 2, 1)))
        assert excinfo.value.indices == [1]

    def test_a_stack_of_one_fails_like_a_single_matrix(self):
        # only a stack of two or more names its failing slices
        for call, error in [(lambda a: expm(1e6 * a), NumericalError),
                            (lambda a: solve(a - np.eye(2), np.ones(a.shape[:-1] + (1,))), SingularMatrixError)]:
            failures = []
            for a in (np.diag([1.0, 2.0]), np.diag([1.0, 2.0])[None]):
                with np.errstate(over="ignore", invalid="ignore"), pytest.raises(error) as excinfo:
                    call(a)
                failures.append(excinfo.value)
            single, stack_of_one = failures
            assert str(single) == str(stack_of_one) and "in slices" not in str(single)
            assert single.indices is None and stack_of_one.indices is None

    def test_stacked_right_hand_side_required(self):
        with pytest.raises(ValueError):
            solve(np.stack([np.eye(2)] * 3), np.ones((3, 2)))

    def test_a_mask_naming_no_slice_gives_no_indices(self):
        assert failing_slices(np.array([False, True, True])) == (" in slices [1, 2]", [1, 2])
        assert failing_slices(np.zeros(3, dtype=bool)) == ("", None)
        assert failing_slices(np.array([True])) == ("", None)
        assert failing_slices(np.bool_(True)) == ("", None)
