"""Acceptance criteria, one test per criterion, with pass/fail reporting.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Every tolerance below is fixed; nothing is calibrated at
runtime.
"""

import math
import time

import numpy as np
import pytest

from spinfid.core import SpinParams, TimeGrid
from spinfid.ising import (
    PairContext,
    fid_zz_deficit,
    fid_zz_lattice,
    moments_zz,
    mutual_info_ising,
    povm_split,
    richardson_moments,
)
from spinfid.lattice import CouplingTable
from spinfid.memory import (
    Hierarchy,
    mutual_info_dipolar,
    solve_amplitudes,
    total_information,
)
from spinfid.oracle import (
    EvolvedCluster,
    SphereQuadrature,
    classical_info_von_neumann,
    mutual_info_numeric,
    povm_measure_and_classical_info,
    scs_completeness_check,
)

LN2 = math.log(2.0)


def report(criterion, passed, detail):
    print(f"\ncriterion {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {criterion}: {detail}"


def random_table(rng, n):
    b = rng.uniform(-1.0, 1.0, (n, n))
    b = (b + b.T) / 2.0
    np.fill_diagonal(b, 0.0)
    return CouplingTable(b=b)


def pair_plus_neighbor():
    # pair coupling 1 with one extra neighbor coupled 0.5 to both members
    b = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 0.5], [0.5, 0.5, 0.0]])
    return CouplingTable(b=b)


@pytest.fixture(scope="module")
def quad():
    return SphereQuadrature(64, 128)


def test_criterion_1_oracle_fid_equivalence():
    rng = np.random.default_rng(2024)
    grid = TimeGrid.linspace(10.0, 101)
    start = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 4):
        for two_s in (1, 2, 3):
            spin = SpinParams(two_s=two_s, beta=1e-3)
            table = random_table(rng, n)
            f_oracle = EvolvedCluster.build(spin, table, "ising").fid(grid)
            f_analytic = fid_zz_lattice(spin, table, grid.times)
            worst = max(worst, float(np.max(np.abs(f_oracle - f_analytic))))
    elapsed = time.perf_counter() - start
    report(1, worst < 1e-10 and elapsed < 60.0,
           f"max dev {worst:.2e} over N in 2..4, 2S in 1..3; {elapsed:.1f}s")


def test_criterion_2_high_t_consistency():
    spin_base = 1  # S = 1/2
    table = pair_plus_neighbor()
    t = 0.7
    betas = (1e-2, 1e-3, 1e-4)
    cluster = EvolvedCluster.build(SpinParams(spin_base, betas[0]), table, "ising")
    discrepancies = []
    ok_each = True
    for beta in betas:
        spin = SpinParams(spin_base, beta)
        rho = cluster.pair_density(t, (0, 1), beta)
        i_oracle = float(mutual_info_numeric(rho))
        ctx = PairContext(spin=spin, b_ij=1.0,
                          other_couplings_i=(0.5,), other_couplings_j=(0.5,))
        i_analytic = mutual_info_ising(ctx, t)
        disc = abs(i_oracle / i_analytic - 1.0)
        discrepancies.append(disc)
        ok_each &= disc < 10.0 * beta
    slope = float(np.polyfit(np.log10(betas), np.log10(discrepancies), 1)[0])
    order_ok = 0.8 <= slope <= 1.2
    report(2, ok_each and order_ok,
           f"discrepancies {['%.2e' % d for d in discrepancies]}, measured order {slope:.2f}")


def test_criterion_3_von_neumann_split():
    beta = 1e-3
    spin = SpinParams(1, beta)
    cluster = EvolvedCluster.build(spin, pair_plus_neighbor(), "ising")
    worst = 0.0
    for t in (0.3, 0.7, 1.1):
        rho = cluster.pair_density(t, (0, 1), beta)
        c, _ = classical_info_von_neumann(rho)
        i = float(mutual_info_numeric(rho))
        worst = max(worst, abs(c / i - 0.5))
    report(3, worst < 1e-3, f"max |C/I - 1/2| = {worst:.2e} at beta={beta}")


def test_criterion_4_povm_ratio(quad):
    beta = 1e-3
    worst = 0.0
    details = []
    for two_s in (1, 2, 3):
        spin = SpinParams(two_s, beta)
        table = CouplingTable(b=np.array([[0.0, 1.0], [1.0, 0.0]]))
        cluster = EvolvedCluster.build(spin, table, "ising")
        vals = []
        for t in (0.05, 0.025):
            rho = cluster.pair_density(t, (0, 1), beta)
            j = povm_measure_and_classical_info(rho, spin, quad)
            vals.append(1.0 - j / float(mutual_info_numeric(rho)))
        ratio = (4.0 * vals[1] - vals[0]) / 3.0  # Richardson in t^2
        target = 1.0 / (two_s / 2.0 + 1.0)
        worst = max(worst, abs(ratio - target))
        details.append(f"2S={two_s}: {ratio:.5f} vs {target:.5f}")
    oracle_ok = worst < 5e-3

    # analytic ratio for the spin-1/2 isolated pair holds at every time
    ctx = PairContext(spin=SpinParams(1, beta), b_ij=1.0)
    t = np.linspace(0.01, 9.0, 400)
    j, q = povm_split(ctx, t)
    i = mutual_info_ising(ctx, t)
    keep = i > 1e-3 * beta**2  # exclude the zeros of sin where 0/0
    exact_dev = float(np.max(np.abs(q[keep] / i[keep] - 2.0 / 3.0)))
    report(4, oracle_ok and exact_dev < 1e-12,
           f"{'; '.join(details)}; analytic |Q/I - 2/3| max {exact_dev:.1e}")


def test_criterion_5_additivity():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        two_s = int(rng.integers(1, 5))  # S <= 2
        spin = SpinParams(two_s, beta=1.0)
        env = tuple(rng.uniform(-1, 1, int(rng.integers(0, 3))))
        ctx = PairContext(spin=spin, b_ij=float(rng.uniform(-1, 1)),
                          other_couplings_i=env, other_couplings_j=env)
        t = float(rng.uniform(0.0, 8.0))
        j, q = povm_split(ctx, t)
        i = mutual_info_ising(ctx, t)
        worst = max(worst, abs(j + q - i))
    report(5, worst < 1e-12, f"max |J + Q - I| = {worst:.2e} over 1000 samples")


def test_criterion_6_moment_checks():
    rng = np.random.default_rng(7)
    worst2 = worst4 = 0.0
    for _ in range(20):
        spin = SpinParams(int(rng.integers(1, 5)))
        couplings = rng.uniform(-1, 1, int(rng.integers(1, 9)))
        m2, m4, _ = moments_zz(spin, float(np.sum(couplings**2)), float(np.sum(couplings**4)))
        n2, n4 = richardson_moments(lambda x: fid_zz_deficit(spin, couplings, x), step=1e-3)
        worst2 = max(worst2, abs(n2 / m2 - 1.0))
        worst4 = max(worst4, abs(n4 / m4 - 1.0))
    rich_ok = worst2 < 1e-6 and worst4 < 1e-6

    # single neighbor, S = 1/2: the FID is cos(bt), so M2 = b^2, M4 = b^4
    half = SpinParams(1)
    exact_ok = True
    for b in (1.0, 0.5, 2.0):
        m2, m4, _ = moments_zz(half, b * b, b**4)
        exact_ok &= (m2 == b * b) and (m4 == b**4)

    # Gaussian defect shrinks like 1/V with equal neighbor shells
    ratios = []
    for v in (2, 6, 12):
        m2, m4, m4g = moments_zz(half, float(v), float(v))
        ratios.append((m4g - m4) / m4)
    shrink_ok = ratios[0] > ratios[1] > ratios[2]
    report(6, rich_ok and exact_ok and shrink_ok,
           f"worst rel M2 {worst2:.1e}, M4 {worst4:.1e}; exact single-neighbor {exact_ok}; "
           f"defect ratios {['%.3f' % r for r in ratios]}")


def test_criterion_7_memory_hierarchy():
    v0sq = 1.9
    grid = TimeGrid.linspace(3.0 / math.sqrt(v0sq), 121)
    chain = Hierarchy(vk2=(v0sq, 2 * v0sq, 3 * v0sq), closure="gaussian_tail")
    sol = solve_amplitudes(chain, grid, k_ext=64)
    gauss_dev = float(np.max(np.abs(sol.a[0] - np.exp(-v0sq * grid.times**2 / 2.0))))

    single = Hierarchy(vk2=(v0sq, 7.7), closure="truncate_zero")
    sol1 = solve_amplitudes(single, grid)
    cos_dev = float(np.max(np.abs(sol1.a[0] - np.cos(math.sqrt(v0sq) * grid.times))))
    report(7, gauss_dev < 1e-6 and cos_dev < 1e-10,
           f"gaussian chain dev {gauss_dev:.1e}; single-level cos dev {cos_dev:.1e}")


def test_criterion_8_slope_info_and_total():
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(200):
        spin = SpinParams(int(rng.integers(1, 5)), beta=float(rng.uniform(1e-4, 1e-2)))
        b = float(rng.uniform(-2, 2))
        m2 = float(rng.uniform(0.1, 5))
        fdot = float(rng.uniform(-1, 1))
        direct = spin.beta**2 * b**2 / (m2**2 * LN2) * (spin.casimir * fdot) ** 2
        alt = spin.beta**2 / (9 * LN2) * (spin.casimir * (-3.0 * b) * (fdot / m2)) ** 2
        val = mutual_info_dipolar(spin, b, m2, fdot, spin.beta)
        scale = max(abs(direct), 1e-300)
        worst = max(worst, abs(direct - alt) / scale, abs(val - direct) / scale)
    forms_ok = worst < 1e-12

    spin = SpinParams(2, beta=3e-3)
    zero = total_information(spin, spin.beta, 1.0)
    lim = total_information(spin, spin.beta, 0.0)
    expect = spin.beta**2 * spin.casimir / (3.0 * LN2)
    endpoints_ok = (zero == 0.0) and (lim == expect)
    report(8, forms_ok and endpoints_ok,
           f"max double-form rel dev {worst:.1e}; endpoints exact {endpoints_ok}")


def test_criterion_9_scs_completeness(quad):
    worst = 0.0
    for two_s in (1, 2, 3, 4):  # S <= 2
        worst = max(worst, scs_completeness_check(SpinParams(two_s), quad))
    report(9, worst < 1e-10, f"max completeness deviation {worst:.2e} at 64x128")
