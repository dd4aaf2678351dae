"""Closed-form Ising results: FID, moments, and the correlation split."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinfid.core import SpinParams, TimeGrid
from spinfid.errors import NonEquivalentSitesError, UnsupportedSpinError
from spinfid.ising import (
    PairContext,
    correlation_series,
    coupling_fid_factor,
    environment_factor,
    fid_gaussian,
    fid_zz,
    fid_zz_deficit,
    moments_zz,
    mutual_info_ising,
    povm_overlap_factor,
    povm_split,
    richardson_moments,
    small_time_expansions,
    von_neumann_split,
)

LN2 = math.log(2.0)

HALF = SpinParams(two_s=1, beta=1e-3)
ONE = SpinParams(two_s=2, beta=1e-3)


def isolated_pair(spin, b=1.0):
    return PairContext(spin=spin, b_ij=b)


# 40-digit references, built from the definitions only: call them inside
# mpmath.workdps(40) with mpf arguments

def mp_factor(d, x):
    """sin(d x)/(d sin x), 1 at x = 0."""
    return mpmath.sin(d * x) / (d * mpmath.sin(x)) if x else mpmath.mpf(1)


def mp_overlap(two_s, x):
    """The POVM overlap sum_n C(2S,n) (2n)!!/(2n+1)!! (-sin^2 x)^n."""
    return mpmath.fsum(math.comb(two_s, n) * mpmath.fac2(2 * n) / mpmath.fac2(2 * n + 1)
                       * (-mpmath.sin(x) ** 2) ** n for n in range(two_s + 1))


# -- single factors -------------------------------------------------------------

def test_factor_is_cosine_for_spin_half():
    t = np.linspace(0, 12, 400)
    np.testing.assert_allclose(coupling_fid_factor(HALF, 1.0, t), np.cos(t), atol=1e-14)


def test_factor_at_zero_and_spin_one_value():
    assert coupling_fid_factor(ONE, 1.0, 0.0) == 1.0
    # sin(3x)/(3 sin x) at x = pi/2 is -1/3
    assert coupling_fid_factor(ONE, 1.0, np.pi / 2) == pytest.approx(-1.0 / 3.0, abs=1e-15)


def test_factor_bounded_on_dense_grid():
    x = np.linspace(0.0, 2 * np.pi, 20001)
    for spin in (HALF, ONE, SpinParams(3), SpinParams(4)):
        g = coupling_fid_factor(spin, 1.0, x)
        f = povm_overlap_factor(spin, 1.0, x)
        assert np.max(np.abs(g)) <= 1.0 + 1e-12
        assert np.max(np.abs(f)) <= 1.0 + 1e-12


def test_povm_overlap_values():
    assert povm_overlap_factor(ONE, 1.0, 0.0) == 1.0
    t = np.linspace(0, 5, 100)
    np.testing.assert_allclose(povm_overlap_factor(HALF, 1.0, t),
                               1.0 - (2.0 / 3.0) * np.sin(t) ** 2, atol=1e-15)
    # finite sum 1 - 4/3 + 8/15 = 1/5 at the sine maximum
    assert povm_overlap_factor(ONE, 1.0, np.pi / 2) == pytest.approx(0.2, abs=1e-15)


# -- FID ------------------------------------------------------------------------

def test_fid_spin_half_is_cosine_product():
    rng = np.random.default_rng(5)
    bs = rng.uniform(-1, 1, 6)
    t = np.linspace(0, 10, 500)
    expect = np.prod(np.cos(np.outer(bs, t)), axis=0)
    np.testing.assert_allclose(fid_zz(HALF, bs, t), expect, atol=1e-12)


def test_fid_at_zero_is_one():
    assert fid_zz(SpinParams(3), [0.3, -0.8, 0.5], 0.0) == 1.0


def test_fid_deficit_matches_direct():
    bs = [0.3, -0.8, 0.5]
    t = np.linspace(1e-4, 0.5, 50)
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.fprod(mp_factor(3, mpmath.mpf(b) * mpmath.mpf(v)) for b in bs) - 1)
                        for v in t])
    np.testing.assert_allclose(fid_zz_deficit(ONE, bs, t), ref, rtol=1e-14, atol=0)


def test_gaussian_fid_shape_is_spin_free():
    # versus scaled time tau = t sqrt(M2) all spins collapse onto exp(-tau^2/2)
    tau = np.linspace(0, 3, 50)
    for spin in (HALF, ONE, SpinParams(3)):
        m2 = 4.0 * spin.casimir / 3.0  # sum b^2 = 1
        vals = fid_gaussian(spin, 1.0, tau / np.sqrt(m2))
        np.testing.assert_allclose(vals, np.exp(-(tau**2) / 2), atol=1e-14)
    assert fid_gaussian(HALF, 1.0, 0.0) == 1.0


# -- moments ----------------------------------------------------------------------

def test_moments_single_neighbor_spin_half():
    m2, m4, m4g = moments_zz(HALF, 1.0, 1.0)
    assert m2 == 1.0 and m4 == 1.0 and m4g == 3.0


def test_moments_gaussian_limit():
    m2, m4, m4g = moments_zz(ONE, 2.0, 0.0)
    assert m4 == m4g == 3.0 * m2**2


def test_fourth_moment_defect_shrinks_like_one_over_v():
    ratios = []
    for v in (2, 6, 12):
        m2, m4, m4g = moments_zz(HALF, float(v), float(v))  # v equal unit couplings
        ratios.append((m4g - m4) / m4)
    assert ratios[0] > ratios[1] > ratios[2]
    # ~1/V: doubling V should roughly halve the defect ratio
    assert ratios[0] / ratios[1] == pytest.approx(3.0, rel=0.35)


def test_richardson_moments_recover_analytic():
    rng = np.random.default_rng(11)
    for _ in range(10):
        spin = SpinParams(int(rng.integers(1, 5)))
        bs = rng.uniform(-1, 1, int(rng.integers(1, 8)))
        m2, m4, _ = moments_zz(spin, float(np.sum(bs**2)), float(np.sum(bs**4)))
        num2, num4 = richardson_moments(lambda t: fid_zz_deficit(spin, bs, t))
        assert num2 == pytest.approx(m2, rel=1e-6)
        assert num4 == pytest.approx(m4, rel=1e-6)


# -- correlation split ------------------------------------------------------------

def test_mutual_info_isolated_pair():
    t = np.linspace(0.1, 3, 20)
    expect = HALF.beta**2 / (4 * LN2) * np.sin(t) ** 2
    np.testing.assert_allclose(mutual_info_ising(isolated_pair(HALF), t), expect, rtol=1e-13)
    assert mutual_info_ising(isolated_pair(HALF), 0.0) == 0.0


def test_von_neumann_split_values():
    ctx = isolated_pair(HALF)
    t = 0.9
    c, d = von_neumann_split(ctx, t)
    expect = HALF.beta**2 * np.sin(t) ** 2 / (8 * LN2)
    assert c == pytest.approx(expect, rel=1e-14)
    assert c == d
    assert von_neumann_split(ctx, 0.0) == (0.0, 0.0)
    assert c + d == pytest.approx(mutual_info_ising(ctx, t), rel=1e-14)


def test_von_neumann_split_needs_spin_half():
    with pytest.raises(UnsupportedSpinError):
        von_neumann_split(isolated_pair(ONE), 0.5)


def test_povm_split_spin_half_values():
    ctx = isolated_pair(HALF)
    t = 1.3
    j, q = povm_split(ctx, t)
    assert j == pytest.approx(HALF.beta**2 * np.sin(t) ** 2 / (12 * LN2), rel=1e-13)
    assert q == pytest.approx(HALF.beta**2 * np.sin(t) ** 2 / (6 * LN2), rel=1e-13)
    assert povm_split(ctx, 0.0) == (0.0, 0.0)


def test_povm_ratio_two_thirds_at_all_times():
    ctx = isolated_pair(HALF, b=0.8)
    t = np.linspace(0.05, 9, 300)
    j, q = povm_split(ctx, t)
    i = mutual_info_ising(ctx, t)
    keep = i > 1e-18  # stay away from the zeros of sin
    np.testing.assert_allclose(q[keep] / i[keep], 2.0 / 3.0, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.floats(-8, 8), st.floats(-1, 1),
       st.lists(st.floats(-1, 1), max_size=3))
def test_povm_additivity_property(two_s, t, b, env):
    spin = SpinParams(two_s=two_s, beta=1.0)
    ctx = PairContext(spin=spin, b_ij=b, other_couplings_i=env, other_couplings_j=env)
    j, q = povm_split(ctx, t)
    i = mutual_info_ising(ctx, t)
    assert j >= -1e-15 and q >= -1e-15
    assert j + q == pytest.approx(i, abs=1e-12)


@pytest.mark.parametrize("two_s", [1, 2, 3, 4])
def test_quantum_share_follows_its_small_time_trend(two_s):
    # Q/I - 1/(S+1) grows as (b t)^2 from ~1e-11 at b t = 1e-5 (it is 0 for
    # spin 1/2): Q/I must be right to the roundoff of 1/(S+1) for the trend
    # to show rather than the cancellation noise of 1 - g^2 and 1 - f
    spin = SpinParams(two_s)
    ctx = isolated_pair(spin)
    x = np.geomspace(1e-5, 1e-2, 13)
    share = povm_split(ctx, x)[1] / mutual_info_ising(ctx, x)
    ref = []
    with mpmath.workdps(40):
        s, c = mpmath.mpf(spin.s), mpmath.mpf(spin.casimir)
        for v in map(mpmath.mpf, x):
            loss_g = 1 - mp_factor(spin.d, v) ** 2
            ref.append(float((c * (1 - mp_overlap(two_s, v)) + s * loss_g) / (2 * c * loss_g)))
    np.testing.assert_allclose(share, ref, rtol=0, atol=4 * np.finfo(float).eps)


def test_small_time_expansions():
    ctx = isolated_pair(HALF)
    i_a, q_a, ratio = small_time_expansions(ctx, 0.01)
    assert ratio == pytest.approx(2.0 / 3.0)
    _, _, ratio1 = small_time_expansions(isolated_pair(ONE), 0.01)
    assert ratio1 == pytest.approx(0.5)
    assert i_a / mutual_info_ising(ctx, 0.01) == pytest.approx(1.0, abs=1e-4)
    assert q_a / povm_split(ctx, 0.01)[1] == pytest.approx(1.0, abs=1e-4)
    with pytest.warns(UserWarning):
        small_time_expansions(ctx, 2.0)


# -- environments -----------------------------------------------------------------

def test_environment_factor():
    ctx = PairContext(spin=HALF, b_ij=1.0, other_couplings_i=(1.0,), other_couplings_j=(1.0,))
    t = np.linspace(0, 5, 40)
    np.testing.assert_allclose(environment_factor(ctx, t), np.cos(t), atol=1e-14)
    assert environment_factor(isolated_pair(HALF), 1.7) == 1.0


def test_environment_factor_refuses_nonequivalent():
    ctx = PairContext(spin=HALF, b_ij=1.0, other_couplings_i=(0.5,), other_couplings_j=(0.9,))
    with pytest.raises(NonEquivalentSitesError):
        environment_factor(ctx, 0.3)
    with pytest.raises(NonEquivalentSitesError):
        mutual_info_ising(ctx, 0.3)
    # each one-sided factor is the product FID over that spin's own couplings
    assert fid_zz(HALF, ctx.other_couplings_i, 0.3) == pytest.approx(np.cos(0.15))
    assert fid_zz(HALF, ctx.other_couplings_j, 0.3) == pytest.approx(np.cos(0.27))


def test_concurrent_evaluation_over_time_chunks():
    # pure functions: concurrent evaluation at distinct times agrees with
    # the single-threaded result
    from concurrent.futures import ThreadPoolExecutor

    ctx = isolated_pair(ONE, b=0.7)
    t = np.linspace(0, 10, 800)
    serial = mutual_info_ising(ctx, t)
    chunks = np.array_split(t, 8)
    with ThreadPoolExecutor(max_workers=4) as pool:
        parts = list(pool.map(lambda c: mutual_info_ising(ctx, c), chunks))
    np.testing.assert_array_equal(np.concatenate(parts), serial)


# -- series ------------------------------------------------------------------------

@pytest.mark.parametrize("two_s", [1, 2, 3, 4])
def test_correlation_series_matches_mpmath(two_s):
    # small times, and b t within 1e-3 of the poles k pi of sin(d x)/(d sin x)
    spin = SpinParams(two_s)
    env = (0.05, -0.12)
    ctx = PairContext(spin=spin, b_ij=1.0, other_couplings_i=env, other_couplings_j=env)
    poles = np.pi * np.array([1.0, 2.0, 3.0])
    t = np.sort(np.concatenate([[1e-6, 1e-5, 1e-4, 1e-3],
                                (poles[:, None] + [-1e-3, -1e-6, 1e-6, 1e-3]).ravel()]))
    series = correlation_series(ctx, TimeGrid(times=t), "povm")
    fid, info = [], []
    with mpmath.workdps(40):
        for v in map(mpmath.mpf, t):
            e = mpmath.fprod(mp_factor(spin.d, mpmath.mpf(b) * v) for b in env)
            g = mp_factor(spin.d, v)
            fid.append(float(e * g))
            info.append(float((spin.beta * e) ** 2 * spin.casimir * (1 - g**2) / (3 * mpmath.log(2))))
    np.testing.assert_allclose(series.fid, fid, rtol=1e-13, atol=0)
    # near a pole I ~ (b t - k pi)^2, so a relative eps in b t moves it by
    # 2 eps b t / |b t - k pi|: the size of the rounding of m b t in the
    # sines for m = 3/2 (spin 3/2; the other m b t here are exact)
    k = np.round(t / np.pi)
    cond = 2.0 * np.finfo(float).eps * t / np.abs(t - k * np.pi)
    assert np.all(np.abs(series.mutual_info / info - 1.0) <= 1e-13 + cond)


def test_correlation_series_roundtrip():
    ctx = isolated_pair(HALF)
    grid = TimeGrid.linspace(5.0, 21)
    series = correlation_series(ctx, grid, "von_neumann")
    assert series.header == ["t", "fid", "I", "C", "Q"]
    np.testing.assert_allclose(series.fid, np.cos(grid.times), atol=1e-14)
    series_povm = correlation_series(isolated_pair(ONE), grid, "povm")
    assert series_povm.header == ["t", "fid", "I", "J", "Q"]
    np.testing.assert_allclose(series_povm.classical + series_povm.quantum,
                               series_povm.mutual_info, atol=1e-15)
