import warnings

import numpy as np
import pytest

from mzdmd import DivergenceError
from mzdmd.errors import check_finite


class TestCheckFinite:
    def test_all_finite_returns_none(self):
        assert check_finite(np.ones((3, 4, 2)), "x", steps=True) is None
        assert check_finite(np.zeros(1), "x") is None

    def test_a_stack_names_its_bad_slices(self):
        x = np.ones((4, 2, 2))
        x[1, 0, 1] = np.inf
        x[3, 1, 0] = np.nan
        with pytest.raises(DivergenceError) as excinfo:
            check_finite(x, "x is not finite")
        assert str(excinfo.value) == "x is not finite in slices [1, 3]"
        assert excinfo.value.indices == [1, 3] and excinfo.value.step is None

    def test_a_stack_of_one_names_no_slice(self):
        x = np.ones((1, 2, 2))
        x[0, 1, 1] = np.nan
        with pytest.raises(DivergenceError) as excinfo:
            check_finite(x, "x is not finite")
        assert str(excinfo.value) == "x is not finite"
        assert excinfo.value.indices is None and excinfo.value.step is None

    def test_steps_give_the_first_non_finite_grid_step_then_the_slices(self):
        x = np.ones((3, 6, 2), dtype=complex)
        x[2, 4, 1] = np.inf
        x[0, 2, 0] = complex(0.0, np.nan)
        with pytest.raises(DivergenceError) as excinfo:
            check_finite(x, "state became non-finite", steps=True)
        assert str(excinfo.value) == "state became non-finite at grid step 2 in slices [0, 2]"
        assert excinfo.value.step == 2 and excinfo.value.indices == [0, 2]

    def test_steps_of_a_single_trajectory(self):
        x = np.ones((5, 2))
        x[3:] = np.inf
        with pytest.raises(DivergenceError) as excinfo:
            check_finite(x[None], "variance became non-finite", steps=True)
        assert str(excinfo.value) == "variance became non-finite at grid step 3"
        assert excinfo.value.step == 3 and excinfo.value.indices is None

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_raises_with_no_numpy_warning(self, bad):
        x = np.ones((2, 3, 2))
        x[1, 1, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match=r"^x at grid step 1 in slices \[1\]$"):
                check_finite(x, "x", steps=True)
