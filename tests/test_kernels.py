"""Numerical edge cases for the hot kernels."""

import tracemalloc

import numpy as np
import pytest

from spinfid import _kernels as K
from spinfid.core import TimeGrid


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


# -- cos_sum -------------------------------------------------------------------------

def brute_cos_sum(weights, freqs, times):
    return np.array([np.sum(weights * np.cos(freqs * t)) for t in times])


def lines(n_lines, times, seed=0):
    """Random signed weights and frequencies reaching |omega t| ~ 1e3."""
    rng = np.random.default_rng(seed)
    top = 1e3 / np.max(np.abs(times))
    return rng.uniform(-1.0, 1.0, n_lines), rng.uniform(-top, top, n_lines)


def assert_matches_brute(weights, freqs, times):
    got = K.cos_sum(weights, freqs, times)
    ref = brute_cos_sum(weights, freqs, times)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * max(np.sum(np.abs(weights)), 1.0))


@pytest.mark.parametrize("n", [2, 3, 41, 4001])
@pytest.mark.parametrize("t0", [-3.7, 0.0, 2.5])
def test_cos_sum_uniform_grid(n, t0):
    times = t0 + 0.013 * np.arange(n)
    assert K._uniform_step(times) is not None
    assert_matches_brute(*lines(300, times), times)


@pytest.mark.parametrize("t_max, n", [(20.0, 4001), (7.3, 41), (1e-3, 3)])
def test_cos_sum_linspace_grid(t_max, n):
    # the last point is t_max exactly, not t_0 + (n - 1) dt
    times = TimeGrid.linspace(t_max, n).times
    assert K._uniform_step(times) is not None
    assert_matches_brute(*lines(500, times, seed=1), times)


@pytest.mark.parametrize("n_lines", [0, 1, K._LINE_BLOCK + 1])
def test_cos_sum_line_counts(n_lines):
    times = np.linspace(-1.0, 4.0, 401)
    weights, freqs = lines(n_lines, times, seed=2)
    assert_matches_brute(weights, freqs, times)
    if n_lines == 0:
        assert np.all(K.cos_sum(weights, freqs, times) == 0.0)


def test_cos_sum_non_uniform_grids():
    geometric = np.geomspace(1e-3, 10.0, 500)
    moved = np.linspace(0.0, 10.0, 501)
    moved[250] += 1e-9
    for times in (geometric, moved):
        assert K._uniform_step(times) is None
        # on the moved grid the uniform path would be off by ~|omega| 1e-9
        assert_matches_brute(*lines(2000, times, seed=3), times)


def test_cos_sum_memory_bound():
    rng = np.random.default_rng(4)
    weights, freqs = rng.random(50_000), rng.normal(0.0, 5.0, 50_000)
    times = TimeGrid.linspace(20.0, 4001).times
    tracemalloc.start()
    try:
        K.cos_sum(weights, freqs, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32e6
