"""Exact-simulation oracle: operators, evolution, reduction, measurement."""

import math

import numpy as np
import pytest

from spinfid.core import SpinParams, TimeGrid
from spinfid.errors import (
    BetaTooLargeError,
    ClusterTooLargeError,
    InvalidBasisError,
    InvalidPairError,
    NonPhysicalStateError,
    QuadratureTooCoarseError,
)
from spinfid.ising import (
    PairContext,
    coupling_fid_factor,
    fid_zz_lattice,
    mutual_info_ising,
    pair_deviation_matrix,
    povm_split,
)
from spinfid.lattice import CouplingTable
from spinfid.oracle import (
    DIM_GUARD,
    DensityMatrix,
    EvolvedCluster,
    SphereQuadrature,
    build_hamiltonian,
    build_initial_density,
    build_spin_operators,
    classical_info_von_neumann,
    entropy_exact,
    mutual_info_numeric,
    partial_trace,
    povm_entropy_terms,
    povm_measure_and_classical_info,
    scs_amplitudes,
    scs_completeness_check,
    total_sx,
    von_neumann_measure,
)

HALF = SpinParams(two_s=1, beta=1e-3)
ONE = SpinParams(two_s=2, beta=1e-3)

PAIR = CouplingTable(b=np.array([[0.0, 1.0], [1.0, 0.0]]))


def triangle(b12=1.0, b13=1.0, b23=1.0):
    b = np.array([[0.0, b12, b13], [b12, 0.0, b23], [b13, b23, 0.0]])
    return CouplingTable(b=b)


@pytest.fixture(scope="module")
def quad():
    return SphereQuadrature.build()


def kron_sites(op, n):
    """Dense embedding of a one-spin operator at each of n sites."""
    d = op.shape[0]
    return [np.kron(np.kron(np.eye(d**i), op), np.eye(d ** (n - i - 1))) for i in range(n)]


def dense_hamiltonian(spin, table, mode):
    """Reference assembly: Kronecker embeddings and one matmul per pair."""
    ops = build_spin_operators(spin)
    n = table.n_sites
    sz, sp = kron_sites(ops.sz, n), kron_sites(ops.s_plus, n)
    ham = np.zeros((spin.d**n,) * 2)
    for i in range(n):
        for j in range(i + 1, n):
            ham += 2.0 * table.b[i, j] * sz[i] @ sz[j]
            if mode == "dipolar":
                flip = sp[i] @ sp[j].T
                ham += table.a[i, j] * (flip + flip.T)
    return ham


# -- spin operators -----------------------------------------------------------------

def test_spin_half_is_half_pauli():
    ops = build_spin_operators(HALF)
    np.testing.assert_allclose(ops.sx, [[0, 0.5], [0.5, 0]], atol=1e-16)
    np.testing.assert_allclose(ops.sy, [[0, -0.5j], [0.5j, 0]], atol=1e-16)
    np.testing.assert_allclose(ops.sz, [[0.5, 0], [0, -0.5]], atol=1e-16)


def test_spin_one_sz_diagonal():
    ops = build_spin_operators(ONE)
    np.testing.assert_allclose(ops.sz, np.diag([1.0, 0.0, -1.0]), atol=1e-16)


@pytest.mark.parametrize("two_s", [1, 2, 3, 4])
def test_commutators_and_casimir(two_s):
    spin = SpinParams(two_s)
    ops = build_spin_operators(spin)
    comm = ops.sx @ ops.sy - ops.sy @ ops.sx
    np.testing.assert_allclose(comm, 1j * ops.sz, atol=1e-13)
    total = ops.sx @ ops.sx + ops.sy @ ops.sy + ops.sz @ ops.sz
    np.testing.assert_allclose(total, spin.casimir * np.eye(spin.d), atol=1e-13)


# -- Hamiltonian -------------------------------------------------------------------

def test_pair_hamiltonian_consistent_with_product_fid():
    # the ordered-pair sum puts 2b on each unordered pair; the resulting
    # pair FID is cos(b t), matching the product formula with one neighbor
    ham = build_hamiltonian(HALF, PAIR, "ising")
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(ham)),
                               [-0.5, -0.5, 0.5, 0.5], atol=1e-14)
    grid = TimeGrid.linspace(8.0, 81)
    fid = EvolvedCluster.build(HALF, PAIR, "ising").fid(grid)
    np.testing.assert_allclose(fid, np.cos(grid.times), atol=1e-13)


@pytest.mark.parametrize("two_s, n", [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4),
                                      (3, 3), (4, 3)])
def test_assembly_matches_dense_reference(two_s, n):
    rng = np.random.default_rng(10 * two_s + n)
    b, a = (np.triu(rng.normal(size=(n, n)), 1) for _ in range(2))
    table = CouplingTable(b=b + b.T, a=a + a.T)
    spin = SpinParams(two_s)
    for mode in ("ising", "dipolar"):
        ham = build_hamiltonian(spin, table, mode)
        assert ham.dtype == np.float64
        np.testing.assert_allclose(ham, dense_hamiltonian(spin, table, mode), rtol=0, atol=1e-12)
    sx = total_sx(spin, n)
    assert sx.dtype == np.float64
    np.testing.assert_allclose(sx, sum(kron_sites(build_spin_operators(spin).sx, n)),
                               rtol=0, atol=1e-12)


def test_hamiltonian_commutes_with_total_sz():
    for mode in ("ising", "dipolar"):
        ham = build_hamiltonian(ONE, triangle(0.7, -0.4, 0.2), mode)
        sz_tot = sum(kron_sites(build_spin_operators(ONE).sz, 3))
        np.testing.assert_allclose(ham @ sz_tot - sz_tot @ ham,
                                   np.zeros_like(ham), atol=1e-13)


@pytest.mark.parametrize("mode", ["ising", "dipolar"])
def test_hamiltonian_at_dimension_guard(mode):
    # 12 spin-1/2 sites: d^N equals the guard exactly
    n = 12
    rng = np.random.default_rng(12)
    b, a = (np.triu(rng.normal(size=(n, n)), 1) for _ in range(2))
    ham = build_hamiltonian(HALF, CouplingTable(b=b + b.T, a=a + a.T), mode)
    assert ham.shape == (DIM_GUARD, DIM_GUARD)
    assert ham.dtype == np.float64
    row, col = np.nonzero(ham)
    np.testing.assert_array_equal(ham[row, col], ham[col, row])  # symmetric
    # bit s of the state index is 1 when site n-1-s points down
    down = (np.arange(DIM_GUARD)[:, None] >> np.arange(n)) & 1
    total_mz = n / 2 - down.sum(axis=1)
    np.testing.assert_array_equal(total_mz[row], total_mz[col])
    assert (row != col).any() == (mode == "dipolar")


def test_modes_agree_when_flipflop_zero():
    table = CouplingTable(b=triangle().b, a=np.zeros((3, 3)))
    h1 = build_hamiltonian(HALF, table, "ising")
    h2 = build_hamiltonian(HALF, table, "dipolar")
    np.testing.assert_allclose(h1, h2, atol=1e-16)


def test_dimension_guard():
    big = CouplingTable(b=np.ones((7, 7)) - np.eye(7))
    with pytest.raises(ClusterTooLargeError):
        build_hamiltonian(SpinParams(3), big, "ising")  # 4^7 = 16384


# -- FID ----------------------------------------------------------------------------

def test_three_equivalent_spins_fid_is_cos_squared():
    grid = TimeGrid.linspace(6.0, 61)
    fid = EvolvedCluster.build(HALF, triangle(), "ising").fid(grid)
    np.testing.assert_allclose(fid, np.cos(grid.times) ** 2, atol=1e-12)
    assert fid[0] == pytest.approx(1.0, abs=1e-14)


def test_eleven_site_ising_chain_matches_lattice_fid():
    # open nearest-neighbour chain of unequal couplings, dim 2048
    n = 11
    b = np.diag(np.linspace(0.5, 1.5, n - 1), 1)
    table = CouplingTable(b=b + b.T)
    grid = TimeGrid.linspace(6.0, 61)
    fid = EvolvedCluster.build(HALF, table, "ising").fid(grid)
    np.testing.assert_allclose(fid, fid_zz_lattice(HALF, table, grid.times), rtol=0, atol=1e-10)


def test_fid_beta_independent_by_construction():
    # evolve the full initial state at two temperatures; the normalized
    # Tr{S_x rho(t)} must equal the beta-free spectral FID. Tr S_x = 0, so
    # the maximally mixed part is dropped before rotating; kept, its
    # roundoff would enter the signal at ~eps/beta
    grid = TimeGrid.linspace(4.0, 21)
    cluster = EvolvedCluster.build(ONE, triangle(0.3, 0.9, -0.5), "dipolar")
    v = cluster.eigvecs
    sx = v.T @ total_sx(ONE, 3) @ v
    for beta in (1e-3, 1e-5):
        rho = build_initial_density(ONE, 3, beta).entries
        rho0 = v.T @ (rho - np.eye(27) / 27) @ v
        signal = np.empty(grid.times.size)
        for k, t in enumerate(grid.times):
            phase = np.exp(-1j * cluster.eigvals * t)
            rho_t = phase[:, None] * rho0 * phase.conj()[None, :]
            signal[k] = np.trace(sx @ rho_t).real
        np.testing.assert_allclose(signal / signal[0], cluster.fid(grid), rtol=0, atol=1e-12)


@pytest.mark.parametrize("spin", [HALF, ONE])
def test_dipolar_fid_even_with_dipolar_second_moment(spin):
    # 4-site complete graph of equal couplings: every site sees sum b^2 = 3
    b = np.ones((4, 4)) - np.eye(4)
    cluster = EvolvedCluster.build(spin, CouplingTable(b=b), "dipolar")
    h = 1e-3
    grid = TimeGrid(np.array([0.0, h, 2 * h]))
    f = cluster.fid(grid)
    neg = cluster.fid(TimeGrid(-grid.times[::-1]))
    np.testing.assert_allclose(f, neg[::-1], atol=1e-15)  # even in t
    # Richardson quadratic fit at zero recovers M2 = 3 S(S+1) sum b^2
    d_h = 2.0 * (f[1] - f[0]) / h**2
    d_2h = 2.0 * (f[2] - f[0]) / (2 * h) ** 2
    d2 = (4 * d_h - d_2h) / 3.0
    m2 = 3.0 * spin.casimir * 3.0
    assert -d2 == pytest.approx(m2, rel=1e-6)


# -- reduction ---------------------------------------------------------------------

def test_partial_trace_product_state():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho_a = a @ a.conj().T
    rho_a /= np.trace(rho_a)
    rho_b = np.diag([0.7, 0.2, 0.1]).astype(complex)
    joint = np.kron(rho_a, rho_b)
    np.testing.assert_allclose(partial_trace(joint, [2, 3], keep=(0,)), rho_a, atol=1e-14)
    np.testing.assert_allclose(partial_trace(joint, [2, 3], keep=(1,)), rho_b, atol=1e-14)


@pytest.mark.parametrize("pair", [(1, 1), (-1, 0), (0, 3)])
def test_pair_density_rejects_bad_pairs(pair):
    cluster = EvolvedCluster.build(HALF, triangle(), "ising")
    with pytest.raises(InvalidPairError):
        cluster.pair_density(0.5, pair, HALF.beta)


def test_oracle_pair_reduction_matches_closed_form():
    # evolved + reduced 3-spin cluster against the closed-form deviation
    # matrix, including the environment attenuation factor
    for spin, b12, bf in ((HALF, 1.0, 0.5), (ONE, 0.7, 0.3)):
        cluster = EvolvedCluster.build(spin, triangle(b12, bf, bf), "ising")
        for t in (0.35, 1.2):
            dev = cluster.pair_deviation(t, (0, 1))
            env = coupling_fid_factor(spin, bf, t)
            expect = pair_deviation_matrix(spin, b12, t, env_i=env)
            np.testing.assert_allclose(dev, expect, atol=1e-12)


def test_oracle_pair_reduction_asymmetric_environments():
    # non-equivalent pair: each member carries its own attenuation built
    # from its own outside couplings
    spin = HALF
    cluster = EvolvedCluster.build(spin, triangle(1.0, 0.25, 0.8), "ising")
    t = 0.9
    dev = cluster.pair_deviation(t, (0, 1))
    expect = pair_deviation_matrix(spin, 1.0, t,
                                   env_i=coupling_fid_factor(spin, 0.25, t),
                                   env_j=coupling_fid_factor(spin, 0.8, t))
    np.testing.assert_allclose(dev, expect, atol=1e-12)


# -- entropy and mutual information ---------------------------------------------------

def test_entropy_pure_and_mixed():
    pure = np.zeros((4, 4), dtype=complex)
    pure[0, 0] = 1.0
    assert entropy_exact(DensityMatrix(entries=pure)) == 0.0
    assert entropy_exact(DensityMatrix(entries=np.eye(4) / 4)) == pytest.approx(2.0, abs=1e-14)


def test_entropy_rejects_negative_eigenvalues():
    mat = np.diag([1.1, -0.1, 0.0, 0.0]).astype(complex)
    with pytest.raises(NonPhysicalStateError):
        entropy_exact(DensityMatrix(entries=mat))


def test_entropy_high_t_expansion_order():
    # exact entropy minus the quadratic expansion shrinks at least as beta^3
    cluster = EvolvedCluster.build(HALF, triangle(1.0, 0.5, 0.5), "ising")
    diffs = []
    for beta in (1e-2, 5e-3):
        dev = cluster.pair_deviation(0.7, (0, 1))
        d2 = 4
        rho = DensityMatrix(entries=(np.eye(d2) + beta * dev) / d2)
        expansion = math.log2(d2) - beta**2 / (2 * d2 * math.log(2)) * np.trace(dev @ dev).real
        diffs.append(abs(entropy_exact(rho) - expansion))
    assert diffs[0] < 1e-6
    assert diffs[0] / diffs[1] > 7.5  # at least cubic: >= 8x per halving


def test_mutual_info_product_state_zero():
    rho = DensityMatrix(entries=np.kron(np.diag([0.6, 0.4]), np.diag([0.3, 0.7])).astype(complex))
    assert abs(float(mutual_info_numeric(rho))) < 1e-14
    # the trace form is an expansion around the maximally mixed state, so
    # it only vanishes for high-temperature product states
    beta = 1e-3
    sx = build_spin_operators(HALF).sx
    hot = np.kron((np.eye(2) + beta * sx) / 2, (np.eye(2) + 0.5 * beta * sx) / 2)
    hot_info = mutual_info_numeric(DensityMatrix(entries=hot))
    assert abs(float(hot_info)) < 1e-14
    assert abs(hot_info.high_t) < beta**3


def test_mutual_info_exact_vs_trace_form():
    cluster = EvolvedCluster.build(HALF, triangle(1.0, 0.5, 0.5), "ising")
    for beta in (1e-2, 1e-3):
        rho = cluster.pair_density(0.7, (0, 1), beta)
        info = mutual_info_numeric(rho)
        assert float(info) >= 0.0
        assert info.high_t == pytest.approx(float(info), rel=30 * beta)


def test_mutual_info_matches_closed_form():
    cluster = EvolvedCluster.build(HALF, triangle(1.0, 0.5, 0.5), "ising")
    ctx = PairContext(spin=HALF, b_ij=1.0, other_couplings_i=(0.5,), other_couplings_j=(0.5,))
    rho = cluster.pair_density(0.7, (0, 1), HALF.beta)
    assert float(mutual_info_numeric(rho)) == pytest.approx(
        mutual_info_ising(ctx, 0.7), rel=1e-4)


# -- initial state -------------------------------------------------------------------

def test_initial_density_properties():
    rho = build_initial_density(ONE, 3, 1e-3)
    assert abs(np.trace(rho.entries) - 1.0) < 1e-14
    sx = total_sx(ONE, 3)
    # Tr{Sx rho(0)} = beta N S(S+1)/3
    val = np.trace(sx @ rho.entries).real
    assert val == pytest.approx(1e-3 * 3 * ONE.casimir / 3.0, rel=1e-12)
    flat = build_initial_density(HALF, 2, 1e-9)
    np.testing.assert_allclose(flat.entries, np.eye(4) / 4, atol=1e-9)


def test_initial_density_beta_guard():
    with pytest.raises(BetaTooLargeError):
        build_initial_density(SpinParams(4, beta=0.9), 3, 0.9)


# -- orthogonal measurement -----------------------------------------------------------

def test_projectors_complete_and_idempotent():
    cluster = EvolvedCluster.build(HALF, PAIR, "ising")
    rho = cluster.pair_density(0.7, (0, 1), 1e-3)
    n = np.array([0.3, -0.5, np.sqrt(1 - 0.09 - 0.25)])
    sigma_sum = 0.5 * (np.eye(2) + n[0] * np.array([[0, 1], [1, 0]])
                       + n[1] * np.array([[0, -1j], [1j, 0]]) + n[2] * np.diag([1, -1]))
    np.testing.assert_allclose(sigma_sum + (np.eye(2) - sigma_sum), np.eye(2), atol=1e-14)
    once = von_neumann_measure(rho, n)
    twice = von_neumann_measure(once, n)
    np.testing.assert_allclose(once.entries, twice.entries, atol=1e-14)
    # post-measurement state has no coherence between the two sectors
    sigma_n = n[0] * np.array([[0, 1], [1, 0]]) + n[1] * np.array([[0, -1j], [1j, 0]]) + n[2] * np.diag([1, -1])
    p_up = np.kron(0.5 * (np.eye(2) + sigma_n), np.eye(2))
    cross = p_up @ once.entries @ (np.eye(4) - p_up)
    np.testing.assert_allclose(cross, np.zeros((4, 4)), atol=1e-14)


def test_measure_product_state_leaves_partner():
    rho_b = np.diag([0.8, 0.2]).astype(complex)
    joint = DensityMatrix(entries=np.kron(np.eye(2) / 2, rho_b))
    measured = von_neumann_measure(joint, np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(partial_trace(measured.entries, [2, 2], keep=(1,)),
                               rho_b, atol=1e-14)


def test_invalid_direction_rejected():
    rho = DensityMatrix(entries=np.eye(4) / 4)
    with pytest.raises(InvalidBasisError):
        von_neumann_measure(rho, np.array([1.0, 1.0, 0.0]))


def test_classical_info_maximization():
    cluster = EvolvedCluster.build(HALF, triangle(1.0, 0.5, 0.5), "ising")
    rho = cluster.pair_density(0.7, (0, 1), 1e-3)
    c, direction = classical_info_von_neumann(rho)
    info = float(mutual_info_numeric(rho))
    assert c / info == pytest.approx(0.5, abs=1e-3)
    assert info - c >= 0.0  # discord nonnegative here
    assert np.linalg.norm(direction) == pytest.approx(1.0, abs=1e-12)
    flat = DensityMatrix(entries=np.kron(np.diag([0.6, 0.4]), np.diag([0.3, 0.7])).astype(complex))
    c0, _ = classical_info_von_neumann(flat, n_theta=8, n_phi=16)
    assert abs(c0) < 1e-12


# -- coherent states and the POVM ------------------------------------------------------

def test_scs_poles_and_equator():
    np.testing.assert_allclose(scs_amplitudes(ONE, 0.0, 0.0), [1.0, 0.0, 0.0], atol=1e-16)
    np.testing.assert_allclose(scs_amplitudes(HALF, np.pi / 2, 0.0),
                               [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-15)


@pytest.mark.parametrize("two_s", [1, 2, 3])
def test_scs_expectation_values(two_s):
    spin = SpinParams(two_s)
    ops = build_spin_operators(spin)
    theta, phi = 1.1, 2.3
    amp = scs_amplitudes(spin, theta, phi)
    assert np.linalg.norm(amp) == pytest.approx(1.0, abs=1e-12)
    s = spin.s
    assert np.vdot(amp, ops.sz @ amp).real == pytest.approx(s * math.cos(theta), abs=1e-10)
    assert np.vdot(amp, ops.sx @ amp).real == pytest.approx(
        s * math.sin(theta) * math.cos(phi), abs=1e-10)
    assert np.vdot(amp, ops.sy @ amp).real == pytest.approx(
        s * math.sin(theta) * math.sin(phi), abs=1e-10)


def test_completeness_levels(quad):
    for two_s, tol in ((1, 1e-12), (4, 1e-10)):
        assert scs_completeness_check(SpinParams(two_s), quad) < tol


def test_completeness_improves_with_order():
    spin = SpinParams(4)  # projector degree 2S = 4 needs 3 Gauss nodes
    devs = [scs_completeness_check(spin, SphereQuadrature.build(n, 16))
            for n in (1, 2, 3)]
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 1e-12


def test_povm_product_state_no_information(quad):
    rho = DensityMatrix(entries=np.kron(np.eye(3) / 3, np.diag([0.5, 0.3, 0.2])).astype(complex))
    assert abs(povm_measure_and_classical_info(rho, ONE, quad)) < 1e-12


def test_povm_quadrature_guard():
    # two Gauss nodes are exact only through degree 3 < 2S for S = 2
    coarse = SphereQuadrature.build(2, 16)
    spin = SpinParams(4, beta=1e-3)
    rho = DensityMatrix(entries=np.eye(25) / 25)
    with pytest.raises(QuadratureTooCoarseError):
        povm_measure_and_classical_info(rho, spin, coarse)


def test_povm_matches_closed_form_and_additivity(quad):
    for spin in (HALF, ONE, SpinParams(3, beta=1e-3)):
        cluster = EvolvedCluster.build(spin, PAIR, "ising")
        t = 0.7
        rho = cluster.pair_density(t, (0, 1), spin.beta)
        j = povm_measure_and_classical_info(rho, spin, quad)
        ctx = PairContext(spin=spin, b_ij=1.0)
        j_an, q_an = povm_split(ctx, t)
        assert j == pytest.approx(j_an, rel=2e-3)
        info = float(mutual_info_numeric(rho))
        assert info - j >= -1e-12  # quantum share nonnegative
        assert info - j == pytest.approx(q_an, rel=2e-3)


def test_povm_reference_constant_invariance(quad):
    cluster = EvolvedCluster.build(ONE, PAIR, "ising")
    rho = cluster.pair_density(0.6, (0, 1), 1e-3)
    combos = []
    for scale in (1.0, 4.0 * np.pi, 0.01):
        h_angle, s2, s_joint = povm_entropy_terms(rho, ONE, quad, scale=scale)
        combos.append(h_angle + s2 - s_joint)
    np.testing.assert_allclose(combos, combos[0], atol=1e-10)
    # and the printed three-term combination equals the direct evaluation
    assert combos[0] == pytest.approx(
        povm_measure_and_classical_info(rho, ONE, quad), abs=1e-10)
