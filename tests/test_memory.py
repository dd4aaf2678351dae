"""Amplitude-chain hierarchy: coefficients, exact chain solutions, information."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from spinfid.core import SpinParams, TimeGrid
from spinfid.errors import ClusterTooLargeError, InvalidSpecError, NonPhysicalMomentsError
from spinfid.ising import fid_gaussian, moments_zz
from spinfid.memory import (
    AmplitudeSolution,
    Hierarchy,
    MomentSet,
    dipolar_m2,
    fid_derivative,
    fid_dipolar,
    mutual_info_dipolar,
    reduced_pair_matrix_dipolar,
    solve_amplitudes,
    total_information,
    vk_from_moments,
)
from spinfid import oracle
from spinfid.oracle import DIM_GUARD

LN2 = math.log(2.0)
HALF = SpinParams(two_s=1, beta=1e-3)


# -- coefficients from moments -----------------------------------------------------

def test_gaussian_moments_give_linear_chain():
    m2 = 1.7
    h = vk_from_moments(HALF, 0.0, MomentSet.gaussian(m2))
    assert h.vk2 == pytest.approx((m2, 2 * m2, 3 * m2), rel=1e-13)


def test_delta_line_truncates():
    h = vk_from_moments(HALF, 0.0, MomentSet(m2=2.0, m4=4.0, m6=8.0))
    assert h.vk2 == (2.0, 0.0)
    assert h.closure == "truncate_zero"


def test_default_moments_use_dipolar_m2():
    h = vk_from_moments(HALF, 1.0)
    assert h.vk2[0] == pytest.approx(9.0 / 4.0, rel=1e-15)
    assert dipolar_m2(HALF, 1.0) == pytest.approx(2.25)


def test_moment_inequalities_enforced():
    with pytest.raises(NonPhysicalMomentsError):
        MomentSet(m2=1.0, m4=0.5, m6=10.0)
    with pytest.raises(NonPhysicalMomentsError):
        MomentSet(m2=1.0, m4=3.0, m6=8.0)
    with pytest.raises(NonPhysicalMomentsError):
        MomentSet(m2=-1.0, m4=3.0, m6=100.0)


def test_hierarchy_validation():
    with pytest.raises(InvalidSpecError):
        Hierarchy(vk2=(1.0,))
    with pytest.raises(InvalidSpecError):
        Hierarchy(vk2=(1.0, -0.5))
    with pytest.raises(InvalidSpecError):
        Hierarchy(vk2=(1.0, 1.0), closure="bogus")


def test_gaussian_tail_extension_continues_increment():
    h = Hierarchy(vk2=(1.0, 2.0, 3.0))
    ext = h.extended(6)
    np.testing.assert_allclose(ext, [1, 2, 3, 4, 5, 6])
    h0 = Hierarchy(vk2=(1.0, 2.0, 3.0), closure="truncate_zero")
    np.testing.assert_allclose(h0.extended(6), [1, 2, 3])


# -- chain solutions ----------------------------------------------------------------

def grid(t_max=3.0, n=61):
    return TimeGrid.linspace(t_max, n)


def test_single_level_truncation_is_cosine():
    v0 = 1.9
    sol = solve_amplitudes(Hierarchy(vk2=(v0**2, 123.0), closure="truncate_zero"), grid())
    t = sol.grid.times
    np.testing.assert_allclose(sol.a[0], np.cos(v0 * t), atol=1e-11)
    np.testing.assert_allclose(sol.a[1], -np.sin(v0 * t) / v0, atol=1e-11)


def test_gaussian_chain_reproduces_gaussian():
    m2 = 1.3
    h = Hierarchy(vk2=(m2, 2 * m2, 3 * m2))
    g = grid(3.0 / np.sqrt(m2), 101)
    sol = solve_amplitudes(h, g, k_ext=64)
    np.testing.assert_allclose(sol.a[0], np.exp(-m2 * g.times**2 / 2), atol=1e-9)
    # derivative channel: F' = -m2 t F
    np.testing.assert_allclose(fid_derivative(sol),
                               -m2 * g.times * np.exp(-m2 * g.times**2 / 2), atol=1e-8)


def test_gaussian_chain_series_oracle():
    # Taylor coefficients of A_0 from the raw recurrence, through t^10,
    # against the series of exp(-v0^2 t^2 / 2)
    m2 = 1.0
    levels = 8
    gen = np.zeros((levels, levels))
    gen[0, 1] = m2  # dA_0 = v_0^2 A_1
    for k in range(1, levels):
        gen[k, k - 1] = -1.0
        if k + 1 < levels:
            gen[k, k + 1] = (k + 1) * m2  # v_k^2 = (k+1) m2
    vec = np.zeros(levels)
    vec[0] = 1.0
    coeffs = []
    for order in range(11):
        coeffs.append(vec[0] / math.factorial(order))
        vec = gen @ vec
    expect = [1, 0, -m2 / 2, 0, m2**2 / 8, 0, -(m2**3) / 48, 0, m2**4 / 384, 0, -(m2**5) / 3840]
    np.testing.assert_allclose(coeffs, expect, atol=1e-14)


def test_initial_conditions_and_bound():
    sol = solve_amplitudes(Hierarchy(vk2=(2.0, 4.0, 6.0)), grid())
    assert sol.a[0, 0] == pytest.approx(1.0, abs=1e-13)
    assert np.max(np.abs(sol.a[1:, 0])) < 1e-13
    assert np.max(np.abs(sol.a[0])) <= 1.0 + 1e-9


def test_initial_conditions_exact_for_tiny_couplings():
    # the plain line sum would leave A_2(0) = sum_p U_2p U_0p / (v_0 v_1),
    # roundoff over 1e-8, at ~1e-8
    g = grid()
    t = g.times
    sol = solve_amplitudes(Hierarchy(vk2=(1e-8, 1e-8, 1e-8)), g)
    assert sol.a[:, 0].tolist() == [1.0, 0.0, 0.0]
    # weak coupling: A_0 ~ 1, A_1 ~ -t, A_2 ~ t^2 / 2
    np.testing.assert_allclose(sol.a[0], 1.0, rtol=0, atol=1e-7)
    np.testing.assert_allclose(sol.a[1], -t, rtol=0, atol=1e-6)
    np.testing.assert_allclose(sol.a[2], t**2 / 2.0, rtol=0, atol=1e-6)


def dop853_amplitudes(h, grid, k_ext):
    """Reference: the chain integrated by DOP853 in normalized variables."""
    vk2 = h.extended(k_ext)
    c = np.sqrt(vk2[:-1])

    def rhs(_t, y):
        out = np.empty_like(y)
        out[0] = c[0] * y[1]
        out[1:-1] = -c[:-1] * y[:-2] + c[1:] * y[2:]
        out[-1] = -c[-1] * y[-2]
        return out

    y0 = np.zeros(vk2.size)
    y0[0] = 1.0
    t = grid.times
    sol = solve_ivp(rhs, (t[0], t[-1]), y0, method="DOP853", t_eval=t, rtol=1e-12, atol=1e-14)
    assert sol.success
    norms = np.concatenate([[1.0], np.cumprod(c[: h.K])])[:, None]
    return np.divide(sol.y[: h.K + 1], norms, out=np.zeros((h.K + 1, t.size)),
                     where=norms > 0.0)


@pytest.mark.parametrize("vk2, closure, k_ext", [
    ((1.0, 2.0, 3.0), "gaussian_tail", 64),
    ((1.0, 2.0, 3.0), "gaussian_tail", 128),
    ((1.0, 2.0, 3.0), "gaussian_tail", 256),
    ((9.0, 18.0, 27.0), "gaussian_tail", 64),
    ((9.0, 18.0, 27.0), "gaussian_tail", 128),
    ((9.0, 18.0, 27.0), "gaussian_tail", 256),
    ((3.1, 1.1, 0.7), "gaussian_tail", 64),  # tail clipped at zero from k = 4
    ((1.5, 2.0, 0.0, 1.0), "truncate_zero", 64),  # A_3 decoupled, reported as 0
])
def test_exact_chain_matches_dop853(vk2, closure, k_ext):
    h = Hierarchy(vk2=vk2, closure=closure)
    g = grid(3.0, 61)
    sol = solve_amplitudes(h, g, k_ext=k_ext)
    np.testing.assert_allclose(sol.a, dop853_amplitudes(h, g, k_ext), rtol=0, atol=1e-10)


def test_chain_longer_than_guard_rejected():
    g = grid(1.0, 5)
    with pytest.raises(ClusterTooLargeError):
        solve_amplitudes(Hierarchy(vk2=(1.0, 2.0, 3.0)), g, k_ext=DIM_GUARD + 1)
    # a truncated chain ignores k_ext; one at the guard runs
    solve_amplitudes(Hierarchy(vk2=(1.0, 2.0, 3.0), closure="truncate_zero"), g,
                     k_ext=DIM_GUARD + 1)
    assert Hierarchy(vk2=(1.0, 2.0)).extended(DIM_GUARD).size == DIM_GUARD


def test_fid_curvature_at_zero_is_minus_v0_squared():
    # arbitrary (non-Gaussian) chain: Richardson second difference of the
    # level-0 amplitude recovers -v_0^2
    v0sq = 3.1
    h = 1e-3
    sol = solve_amplitudes(Hierarchy(vk2=(v0sq, 1.1, 0.7)),
                           TimeGrid(np.array([0.0, h, 2 * h])))
    a0 = sol.a[0]
    d_h = 2.0 * (a0[1] - a0[0]) / h**2
    d_2h = 2.0 * (a0[2] - a0[0]) / (2 * h) ** 2
    assert (4 * d_h - d_2h) / 3.0 == pytest.approx(-v0sq, rel=1e-7)


def test_closure_convergence_doubling_k_ext():
    # the steep chain's full coefficient product overflows at k_ext = 256
    g = grid(3.0, 61)
    for vk2, k_exts in (((1.0, 2.0, 3.0), (64, 128)), ((9.0, 18.0, 27.0), (64, 128, 256))):
        a0 = [solve_amplitudes(Hierarchy(vk2=vk2), g, k_ext=k).a[0] for k in k_exts]
        for coarse, fine in zip(a0, a0[1:]):
            assert np.max(np.abs(coarse - fine)) < 1e-9


def test_ising_gaussian_moments_reproduce_gaussian_fid():
    # Ising-limit M2 with gaussian-ratio higher moments through the full
    # pipeline lands on the closed-form Gaussian FID
    spin = SpinParams(two_s=2, beta=1e-3)
    sum_b2 = 1.4
    m2, _, m4g = moments_zz(spin, sum_b2, 0.0)
    moments = MomentSet(m2=m2, m4=m4g, m6=15.0 * m2**3)
    h = vk_from_moments(spin, sum_b2, moments)
    g = grid(2.5 / np.sqrt(m2), 81)
    sol = solve_amplitudes(h, g, k_ext=32)
    np.testing.assert_allclose(sol.a[0], fid_gaussian(spin, sum_b2, g.times), atol=1e-4)


def test_grid_must_start_at_zero():
    with pytest.raises(InvalidSpecError):
        solve_amplitudes(Hierarchy(vk2=(1.0, 2.0)), TimeGrid(np.linspace(1.0, 2.0, 5)))


# -- information from the FID slope -------------------------------------------------

def test_slope_info_example_value():
    val = mutual_info_dipolar(HALF, 1.0, 2.25, -0.5, 1e-3)
    assert val == pytest.approx(1e-6 / (36 * LN2), rel=1e-12)


def test_slope_info_zero_at_extrema():
    assert mutual_info_dipolar(HALF, 1.0, 2.25, 0.0, 1e-3) == 0.0


def test_slope_info_double_form_randomized():
    # the slope form equals the amplitude form with A_1 = F'/M2, B = -3 b
    rng = np.random.default_rng(17)
    for _ in range(50):
        spin = SpinParams(int(rng.integers(1, 5)), beta=float(rng.uniform(1e-4, 1e-2)))
        b, m2, fdot = rng.uniform(-2, 2), rng.uniform(0.1, 5), rng.uniform(-1, 1)
        val = mutual_info_dipolar(spin, float(b), float(m2), float(fdot), spin.beta)
        alt = spin.beta**2 / (9.0 * LN2) * (spin.casimir * (-3.0 * b) * fdot / m2) ** 2
        assert val >= 0.0
        assert val == pytest.approx(alt, rel=1e-12)


def test_total_information_endpoints():
    spin = SpinParams(two_s=3, beta=2e-3)
    assert total_information(spin, spin.beta, 1.0) == 0.0
    assert total_information(spin, spin.beta, 0.0) == pytest.approx(
        spin.beta**2 * spin.casimir / (3 * LN2), rel=1e-15)
    vals = total_information(spin, spin.beta, np.linspace(0, 1, 11))
    assert np.all(np.diff(vals) <= 0)


def test_reduced_pair_matrix_dipolar():
    spin = SpinParams(two_s=2, beta=1e-3)
    d = spin.d
    rho = reduced_pair_matrix_dipolar(spin, a0=0.7, a1=-0.2, b_ij=0.9, beta=spin.beta)
    assert abs(np.trace(rho.entries) - 1.0) < 1e-14
    np.testing.assert_allclose(rho.entries, rho.entries.conj().T, atol=1e-15)
    # tracing out the partner leaves (1/d)(1 + beta A0 Sx)
    one = oracle._marginals(rho.entries, d)[0]
    from spinfid.oracle import build_spin_operators

    sx = build_spin_operators(spin).sx
    np.testing.assert_allclose(one, (np.eye(d) + spin.beta * 0.7 * sx) / d, atol=1e-15)
    # zero amplitudes give the maximally mixed pair
    flat = reduced_pair_matrix_dipolar(spin, 0.0, 0.0, 0.9, spin.beta)
    np.testing.assert_allclose(flat.entries, np.eye(d * d) / d**2, atol=1e-16)


@pytest.mark.parametrize("two_s", [1, 2, 3])
def test_dipolar_pair_state_reproduces_share_ratios(two_s):
    # feeding the truncated pair matrix to the exact measurement machinery
    # recovers the slope-form information and the same share ratios as the
    # Ising small-time limit: Q/I = 1/(S+1), C/I = 1/2 for spin 1/2
    from spinfid.oracle import (
        SphereQuadrature,
        classical_info_von_neumann,
        mutual_info_numeric,
        povm_measure_and_classical_info,
    )

    spin = SpinParams(two_s, beta=1e-3)
    m2, fdot = 2.25, -0.08
    rho = reduced_pair_matrix_dipolar(spin, a0=0.997, a1=fdot / m2, b_ij=1.0, beta=spin.beta)
    i_exact = float(mutual_info_numeric(rho))
    i_slope = mutual_info_dipolar(spin, 1.0, m2, fdot, spin.beta)
    assert i_exact == pytest.approx(i_slope, rel=1e-3)
    quad = SphereQuadrature()
    j = povm_measure_and_classical_info(rho, spin, quad)
    assert 1.0 - j / i_exact == pytest.approx(1.0 / (spin.s + 1.0), abs=1e-4)
    if two_s == 1:
        c, _ = classical_info_von_neumann(rho)
        assert c / i_exact == pytest.approx(0.5, abs=1e-4)


def test_amplitude_solution_validation():
    bad = np.zeros((2, 3))
    bad[0] = [0.9, 0.5, 0.1]  # A0(0) != 1
    with pytest.raises(Exception):
        AmplitudeSolution(grid=TimeGrid(np.array([0.0, 0.5, 1.0])), a=bad, vk2=(1.0,))
