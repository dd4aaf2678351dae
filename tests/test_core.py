"""Guards of the shared value types: spin parameters and time grids."""

import math

import numpy as np
import pytest

from spinfid.core import SpinParams, TimeGrid
from spinfid.errors import InvalidSpecError


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at", [0, 2, -1])
def test_time_grid_rejects_non_finite_times(bad, at):
    times = np.linspace(0.0, 1.0, 5)
    times[at] = bad
    with pytest.raises(InvalidSpecError, match="finite"):
        TimeGrid(times)


@pytest.mark.parametrize("t_max", [math.inf, math.nan, 0.0, -1.0])
def test_linspace_rejects_bad_t_max(t_max):
    with pytest.raises(InvalidSpecError, match="t_max"):
        TimeGrid.linspace(t_max, 5)


@pytest.mark.parametrize("n_points", [10.7, 2.5, math.nan, math.inf, 1, 0])
def test_linspace_rejects_bad_n_points(n_points):
    with pytest.raises(InvalidSpecError, match="n_points"):
        TimeGrid.linspace(1.0, n_points)


def test_linspace_takes_integral_n_points():
    assert len(TimeGrid.linspace(1.0, 10.0)) == len(TimeGrid.linspace(1.0, np.int64(10))) == 10


@pytest.mark.parametrize("beta", [math.inf, math.nan, 0.0])
def test_spin_params_reject_bad_beta(beta):
    with pytest.raises(InvalidSpecError, match="beta"):
        SpinParams(two_s=1, beta=beta)
