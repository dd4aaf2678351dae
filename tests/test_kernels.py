"""Numerical edge cases for the hot kernels."""

import numpy as np
import pytest

from spinfid import _kernels as K


@pytest.mark.parametrize("d", [2, 3, 4])
def test_dirichlet_singular_points(d):
    # at x = k*pi each factor takes the limit value (-1)^(k(d-1))
    for k in (-2, -1, 1, 2, 3):
        x = np.array([k * np.pi])
        expect = (-1.0) ** (k * (d - 1))
        assert K.dirichlet_ratio(d, x)[0] == pytest.approx(expect, abs=1e-9)
    near = np.array([np.pi - 1e-8, np.pi + 1e-8])
    assert np.all(np.isfinite(K.dirichlet_ratio(d, near)))


def test_dirichlet_m1_consistency():
    x = np.linspace(1e-9, 0.5, 200)
    for d in (2, 3, 6):
        direct = K.dirichlet_ratio(d, x) - 1.0
        stable = K.dirichlet_ratio_m1(d, x)
        np.testing.assert_allclose(stable, direct, rtol=1e-6, atol=1e-15)


@pytest.mark.parametrize("d", [2, 3, 5, 8, 10])
def test_dirichlet_accurate_around_poles(d):
    # reference: the exact magnetic-number sum 1 - (2/d) sum_m sin^2(m x),
    # whose absolute error stays at ~d*eps for any argument; the ratio
    # implementation must track it through the branch switch
    xs = []
    for k in range(1, 10):
        for eps in np.geomspace(1e-13, 5e-3, 15):
            xs += [k * np.pi + eps, k * np.pi - eps]
        xs.append(k * np.pi)
    xs = np.array(xs)
    ref = 1.0 + K.dirichlet_ratio_m1(d, xs)
    np.testing.assert_allclose(K.dirichlet_ratio(d, xs), ref, rtol=0, atol=5e-12)
