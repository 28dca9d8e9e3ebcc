"""Every row of the invariant table behind ``mzdmd check``, over six seeds."""

import numpy as np
import pytest

from mzdmd import selfcheck
from mzdmd.selfcheck import CHECKS, Check


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("check", CHECKS, ids=[check.deviation.__name__ for check in CHECKS])
def test_deviation_within_bound(check, seed):
    assert check.deviation(np.random.default_rng(seed)) <= check.bound


def test_nan_deviation_fails(capsys, monkeypatch):
    monkeypatch.setattr(selfcheck, "CHECKS", (Check("undefined", lambda rng: np.nan, 1.0),))
    assert not selfcheck.run_checks(0)
    assert capsys.readouterr().out == "FAIL undefined (deviation nan, bound 1)\n"
