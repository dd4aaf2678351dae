"""Exact-simulation oracle: operators, evolution, reduction, measurement."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import reduce

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import minimize

from spinfid import _kernels as K
from spinfid import oracle
from spinfid.core import SpinParams, TimeGrid
from spinfid.errors import (
    BetaTooLargeError,
    ClusterTooLargeError,
    InvalidPairError,
    InvalidSpecError,
    NonPhysicalStateError,
    QuadratureTooCoarseError,
    QuadratureTooLargeError,
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
from spinfid.memory import dipolar_m2
from spinfid.oracle import (
    DIM_GUARD,
    DensityMatrix,
    EvolvedCluster,
    SphereQuadrature,
    build_hamiltonian,
    build_spin_operators,
    classical_info_von_neumann,
    entropy_exact,
    mutual_info_numeric,
    povm_measure_and_classical_info,
    scs_amplitudes,
    scs_completeness_check,
    total_sx,
)

HALF = SpinParams(two_s=1, beta=1e-3)
ONE = SpinParams(two_s=2, beta=1e-3)

PAIR = CouplingTable(b=np.array([[0.0, 1.0], [1.0, 0.0]]))


def triangle(b12=1.0, b13=1.0, b23=1.0):
    b = np.array([[0.0, b12, b13], [b12, 0.0, b23], [b13, b23, 0.0]])
    return CouplingTable(b=b)


@pytest.fixture(scope="module")
def quad():
    return SphereQuadrature(64, 128)


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


def partial_trace(mat, dims, keep):
    """Reference n-partite partial trace: trace out every subsystem not in
    ``keep``, keeping the order of ``keep``."""
    n = len(dims)
    keep = tuple(keep)
    traced = [k for k in range(n) if k not in keep]
    tensor = mat.reshape(dims + dims)
    perm = list(keep) + traced + [k + n for k in keep] + [k + n for k in traced]
    dk = int(np.prod([dims[k] for k in keep]))
    dt = int(np.prod([dims[k] for k in traced])) if traced else 1
    tensor = tensor.transpose(perm).reshape(dk, dt, dk, dt)
    return np.trace(tensor, axis1=1, axis2=3)


def second_marginal_entropy(rho12):
    d = math.isqrt(rho12.dim)
    return entropy_exact(DensityMatrix(entries=oracle._marginals(rho12.entries, d)[1]))


def angles_of(n):
    """Polar angle and azimuth of a unit vector."""
    return np.array([math.acos(n[2])]), np.array([math.atan2(n[1], n[0])])


def trace_form_info(rho12):
    """Reference second-order (high-temperature) pair mutual information,
    (d^2 Tr rho12^2 + 1 - d Tr rho1^2 - d Tr rho2^2)/(2 ln 2) in bits."""
    mat = rho12.entries
    d = math.isqrt(mat.shape[0])
    pur12, pur1, pur2 = (float(np.sum(np.abs(m) ** 2))
                         for m in (mat, *oracle._marginals(mat, d)))
    return (d * d * pur12 + 1.0 - d * pur1 - d * pur2) / (2.0 * math.log(2.0))


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


@pytest.mark.parametrize("two_s, n", [(1, 6), (2, 4), (3, 3)])
def test_dipolar_hamiltonian_is_block_diagonal_in_total_mz(two_s, n):
    # the invariant EvolvedCluster's sector path rests on: no entry of H,
    # not even a roundoff-sized one, links states of different total M_z
    spin = SpinParams(two_s)
    ham = build_hamiltonian(spin, random_flipflop(n, seed=two_s), "dipolar")
    total_mz = np.diag(sum(kron_sites(build_spin_operators(spin).sz, n)))
    other_sector = total_mz[:, None] != total_mz[None, :]
    assert not ham[other_sector].any()
    assert (ham - np.diag(np.diag(ham)))[~other_sector].any()  # flip-flops present
    # the sectors partition the basis; sector q has total M_z = N S - q
    sectors = oracle._mz_sectors(spin.d, n)
    np.testing.assert_array_equal(np.sort(np.concatenate(sectors)), np.arange(spin.d**n))
    for q, states in enumerate(sectors):
        np.testing.assert_array_equal(total_mz[states], n * spin.s - q)


def flipped_entries(rows, cols, vals, dim):
    """The symmetric entries (rows, cols, vals) and (cols, rows, vals) in
    basis order, as they are and under the flip x -> dim - 1 - x."""
    both = (np.concatenate([rows, cols]), np.concatenate([cols, rows]),
            np.concatenate([vals, vals]))

    def in_order(r, c, v):
        order = np.lexsort((c, r))
        return r[order], c[order], v[order]

    return in_order(*both), in_order(dim - 1 - both[0], dim - 1 - both[1], both[2])


@pytest.mark.parametrize("mode", ["ising", "dipolar"])
@pytest.mark.parametrize("two_s, n", [(1, 7), (2, 4), (3, 4)])
def test_spin_flip_maps_every_entry_onto_itself(mode, two_s, n):
    # the invariant the sector build's mirror rests on: F x = dim - 1 - x
    # (m -> -m on every site) maps each entry of H and of S_x onto an entry
    # of equal value, bit for bit, also for a flip-flop a != -b/2
    spin = SpinParams(two_s)
    dim = spin.d**n
    diag, rows, cols, vals = oracle._hamiltonian_terms(spin, random_flipflop(n, seed=n), mode)
    assert np.array_equal(diag[::-1], diag)
    assert (rows.size > 0) == (mode == "dipolar")
    for entries in ((rows, cols, vals), oracle._sx_nonzeros(spin, n)):
        kept, flipped = flipped_entries(*entries, dim)
        for a, b in zip(kept, flipped):
            assert np.array_equal(a, b)
    # sector q maps onto sector Q - q, in reversed basis order
    sectors = oracle._mz_sectors(spin.d, n)
    top = n * (spin.d - 1)
    assert len(sectors) == top + 1
    for q, states in enumerate(sectors):
        np.testing.assert_array_equal(sectors[top - q], (dim - 1 - states)[::-1])


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


@pytest.mark.parametrize("n", [11, 12])
def test_open_ising_chain_matches_lattice_fid(n):
    # open nearest-neighbour chain of unequal couplings, dim 2048 and, at
    # n = 12, exactly the guard: the FID, and the (0, 1) pair reduction over
    # the whole grid, where site 0 has no outside neighbour and site 1 one
    b = np.diag(np.linspace(0.5, 1.5, n - 1), 1)
    table = CouplingTable(b=b + b.T)
    grid = TimeGrid.linspace(6.0, 61)
    cluster = EvolvedCluster.build(HALF, table, "ising")
    np.testing.assert_allclose(cluster.fid(grid), fid_zz_lattice(HALF, table, grid.times),
                               rtol=0, atol=1e-10)
    b01, b12 = table.b[0, 1], table.b[1, 2]
    expect = [pair_deviation_matrix(HALF, b01, t, env_i=1.0,
                                    env_j=coupling_fid_factor(HALF, b12, t)) for t in grid.times]
    np.testing.assert_allclose(cluster.pair_deviation(grid.times, (0, 1)), expect,
                               rtol=0, atol=1e-12)


def test_fid_beta_independent_by_construction():
    # evolve the full initial state at two temperatures in a dense eigenbasis
    # of the reference H; the normalized Tr{S_x rho(t)} must equal the
    # beta-free spectral FID. Tr S_x = 0, so the maximally mixed part is
    # dropped before rotating; kept, its roundoff would enter the signal
    # at ~eps/beta
    grid = TimeGrid.linspace(4.0, 21)
    table = triangle(0.3, 0.9, -0.5)
    sx_prod = sum(kron_sites(build_spin_operators(ONE).sx, 3))
    for mode in ("dipolar", "ising"):
        w, v = np.linalg.eigh(dense_hamiltonian(ONE, table, mode))
        sx = v.T @ sx_prod @ v
        cluster = EvolvedCluster.build(ONE, table, mode)
        for beta in (1e-3, 1e-5):
            rho = (np.eye(27) + beta * sx_prod) / 27
            rho0 = v.T @ (rho - np.eye(27) / 27) @ v
            signal = np.empty(grid.times.size)
            for k, t in enumerate(grid.times):
                phase = np.exp(-1j * w * t)
                rho_t = phase[:, None] * rho0 * phase.conj()[None, :]
                signal[k] = np.trace(sx @ rho_t).real
            np.testing.assert_allclose(signal / signal[0], cluster.fid(grid),
                                       rtol=0, atol=1e-12)


@pytest.mark.parametrize("two_s, n", [(1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4),
                                      (3, 3), (4, 3)])
def test_ising_evolution_matches_dense_propagator(two_s, n):
    # reference: expm of the Kronecker-assembled H, and each pair element
    # <a|D_red|c> as Tr{D (|c><a| on the pair, identity elsewhere)}
    rng = np.random.default_rng(20 * two_s + n)
    b = np.triu(rng.normal(size=(n, n)), 1)
    table = CouplingTable(b=b + b.T)
    spin = SpinParams(two_s)
    d = spin.d
    ham = dense_hamiltonian(spin, table, "ising")
    sx = sum(kron_sites(build_spin_operators(spin).sx, n))
    cluster = EvolvedCluster.build(spin, table, "ising")
    times = (-0.8, 0.45, 1.7)
    devs = []
    for t in times:
        u = expm(-1j * ham * t)
        devs.append(u @ sx @ u.conj().T)
        np.testing.assert_allclose(cluster.deviation(t), devs[-1], rtol=0, atol=1e-12)
    unit = np.eye(d)
    for i, j in ((0, 1), (0, 2), (2, 0)):
        probes = np.empty((d * d, d * d) + ham.shape)
        for a in range(d * d):
            for c in range(d * d):
                ops = [unit] * n
                ops[i] = np.outer(unit[a // d], unit[c // d])
                ops[j] = np.outer(unit[a % d], unit[c % d])
                probes[a, c] = reduce(np.kron, ops)
        for t, dev in zip(times, devs):
            ref = np.einsum("acxy,xy->ac", probes, dev) / d ** (n - 2)
            np.testing.assert_allclose(cluster.pair_deviation(t, (i, j)), ref,
                                       rtol=0, atol=1e-12)


def test_ising_build_never_diagonalizes(monkeypatch):
    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh called")

    monkeypatch.setattr(oracle.np.linalg, "eigh", no_eigh)
    table = triangle(0.7, -0.4, 0.2)
    cluster = EvolvedCluster.build(ONE, table, "ising")
    cluster.fid(TimeGrid.linspace(2.0, 5))
    cluster.pair_density(0.5, (0, 1), ONE.beta)
    with pytest.raises(AssertionError, match="eigh called"):
        EvolvedCluster.build(ONE, table, "dipolar")


def richardson_m2(cluster, h=1e-3):
    """Second moment -F''(0) from the FID at t = 0, h and 2h by the
    Richardson quadratic fit at zero."""
    f = cluster.fid(TimeGrid(np.array([0.0, h, 2 * h])))
    d_h = 2.0 * (f[1] - f[0]) / h**2
    d_2h = 2.0 * (f[2] - f[0]) / (2 * h) ** 2
    return -(4 * d_h - d_2h) / 3.0


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
    # M2 = 3 S(S+1) sum b^2
    assert richardson_m2(cluster, h) == pytest.approx(3.0 * spin.casimir * 3.0, rel=1e-6)


@pytest.mark.parametrize("two_s, n", [(1, 12), (2, 6), (3, 5)])
def test_dipolar_m2_matches_oracle(two_s, n):
    # circulant rings, where every site sees the same sum_j b_0j^2; the
    # spin-1/2 ring builds at exactly DIM_GUARD
    spin = SpinParams(two_s)
    table = circulant_couplings(n, seed=n)
    cluster = EvolvedCluster.build(spin, table, "dipolar")
    sum_b2 = float(np.sum(table.b[0] ** 2))
    assert richardson_m2(cluster) == pytest.approx(dipolar_m2(spin, sum_b2), rel=1e-6)


def random_couplings(n, seed):
    b = np.triu(np.random.default_rng(seed).uniform(-1.0, 1.0, (n, n)), 1)
    return CouplingTable(b=b + b.T)


def random_flipflop(n, seed):
    """Random b with an independent random a in place of the default -b/2."""
    rng = np.random.default_rng(seed)
    b, a = (np.triu(rng.uniform(-1.0, 1.0, (n, n)), 1) for _ in range(2))
    return CouplingTable(b=b + b.T, a=a + a.T)


def circulant_couplings(n, seed):
    """Ring couplings that depend only on the ring distance: every site is
    equivalent, so H has translation and spin-flip degeneracies."""
    rng = np.random.default_rng(seed)
    per_distance = rng.uniform(0.2, 1.0, n // 2 + 1) * rng.choice([-1.0, 1.0], n // 2 + 1)
    gap = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    b = per_distance[np.minimum(gap, n - gap)]
    np.fill_diagonal(b, 0.0)
    return CouplingTable(b=b)


@pytest.mark.parametrize("spin, n", [(HALF, 8), (ONE, 4)], ids=["half-n8", "one-n4"])
@pytest.mark.parametrize("grid", [TimeGrid.linspace(25.0, 4001),
                                  TimeGrid(1.7 + 0.011 * np.arange(1500))],
                         ids=["linspace", "offset"])
def test_dipolar_fid_matches_trace_of_deviation(spin, n, grid):
    # the spectral line sum against Tr(S_x D(t)) / Tr(S_x^2) from the
    # evolved operator itself, at three sampled times including the last
    cluster = EvolvedCluster.build(spin, random_couplings(n, seed=n), "dipolar")
    fid = cluster.fid(grid)
    sx = total_sx(spin, n)
    norm = float(np.trace(sx @ sx))
    for k in (1, len(grid) // 3, len(grid) - 1):
        t = float(grid.times[k])
        direct = float(np.trace(sx @ cluster.deviation(t)).real) / norm
        assert fid[k] == pytest.approx(direct, abs=1e-10)


SECTOR_CASES = [(1, circulant_couplings, 10), (2, circulant_couplings, 6),
                (3, circulant_couplings, 5), (1, random_flipflop, 9),
                (2, random_couplings, 5), (3, random_flipflop, 4)]


@pytest.fixture(scope="module", params=SECTOR_CASES,
                ids=lambda c: f"2s{c[0]}-{c[1].__name__}-n{c[2]}")
def sector_case(request):
    """A dipolar cluster, dim <= 1024, and its dense reference: one ``eigh``
    of the whole H and S_x rotated into that eigenbasis."""
    two_s, couplings, n = request.param
    spin = SpinParams(two_s)
    table = couplings(n, seed=10 * two_s + n)
    w, v = np.linalg.eigh(build_hamiltonian(spin, table, "dipolar"))
    return EvolvedCluster.build(spin, table, "dipolar"), w, v, v.T @ total_sx(spin, n) @ v


# every grid here is uniform, so cos_sum takes its NUFFT on each, from the
# 97 points of "negoffset-short" to the 4001 of "linspace4001-nufft"
@pytest.mark.parametrize("grid", [TimeGrid.linspace(20.0, 401),
                                  TimeGrid(1.7 + 0.011 * np.arange(300)),
                                  TimeGrid.linspace(30.0, 4001),
                                  TimeGrid(-2.3 + 0.013 * np.arange(500)),
                                  TimeGrid(-2.3 + 0.05 * np.arange(97))],
                         ids=["linspace", "offset", "linspace4001-nufft",
                              "negoffset-nufft", "negoffset-short"])
def test_sector_fid_matches_dense_eigh(sector_case, grid):
    # reference: sum over every pair of eigenstates, sum_xy w2[x, y]
    # cos((E_x - E_y) t) = Re p^T w2 p* with p = exp(-i E t), time by time,
    # at <= 401 of the grid's times
    cluster, w, _, sx = sector_case
    w2 = sx**2
    at = np.unique(np.linspace(0, len(grid) - 1, 401).astype(int))
    phase = np.exp(-1j * np.multiply.outer(w, grid.times[at]))
    ref = np.einsum("xt,xt->t", phase, w2 @ phase.conj()).real / np.sum(w2)
    np.testing.assert_allclose(cluster.fid(grid)[at], ref, rtol=0, atol=1e-12)


def base_array(a):
    """The array that owns the memory a views."""
    while a.base is not None:
        a = a.base
    return a


def test_sector_deviation_matches_dense_eigh(sector_case):
    cluster, w, v, sx = sector_case
    spin, n = cluster.spin, cluster.n_sites
    dim = spin.d**n
    top = n * (spin.d - 1)
    # per-sector storage only: no dense eigenvector matrix or rotated S_x,
    # which together held 2 dim^2 entries. Adjacent links share a sector's
    # V, and a sector past Q/2 is a reversed view of its mirror's, so
    # eigh ran on sectors 0..Q/2 alone
    sector_vecs = {id(base_array(vec)): base_array(vec) for pair in cluster.vecs for vec in pair}
    assert len(sector_vecs) == top // 2 + 1
    stored = [*sector_vecs.values(), *cluster.sx_blocks]
    assert max(max(a.shape) for a in stored) < dim
    # the flip halves what is held: sectors q <= Q/2 and links q <= Q - 1 - q
    sizes = [s.size for s in oracle._mz_sectors(spin.d, n)]
    held = (sum(m**2 for m in sizes[:top // 2 + 1])
            + sum(sizes[q] * sizes[q + 1] for q in range((top + 1) // 2)))
    assert sum(a.size for a in stored) == held < dim**2 / 4
    assert cluster.mirrored == tuple(q != top - 1 - q for q in range((top + 1) // 2))
    for t in (0.37, 2.9):
        phase = np.exp(-1j * w * t)
        ref = v @ (phase[:, None] * sx * phase.conj()[None, :]) @ v.T
        np.testing.assert_allclose(cluster.deviation(t), ref, rtol=0, atol=1e-12)
        # pairs on both sides of the flip, which maps site order onto itself
        # but pair slots s onto d^4 - 1 - s
        for pair in ((0, 1), (2, 0), (n - 1, n - 2), (1, 0)):
            reduced = partial_trace(ref, [spin.d] * n, keep=pair) / spin.d ** (n - 2)
            np.testing.assert_allclose(cluster.pair_deviation(t, pair), reduced,
                                       rtol=0, atol=1e-12)


# -- reduction ---------------------------------------------------------------------

def test_partial_trace_product_state():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho_a = a @ a.conj().T
    rho_a /= np.trace(rho_a)
    rho_b = np.diag([0.7, 0.2, 0.1]).astype(complex)
    one, two = oracle._marginals(np.kron(rho_a, rho_b), 3)
    np.testing.assert_allclose(one, rho_a, atol=1e-14)
    np.testing.assert_allclose(two, rho_b, atol=1e-14)
    # the pair marginals add the terms of the n-partite trace in its order
    for d in (2, 3, 4):
        mat = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        for k, marginal in enumerate(oracle._marginals(mat, d)):
            assert np.array_equal(marginal, partial_trace(mat, [d, d], keep=(k,)))


@pytest.mark.parametrize("pair", [(1, 1), (-1, 0), (0, 3)])
def test_pair_density_rejects_bad_pairs(pair):
    cluster = EvolvedCluster.build(HALF, triangle(), "ising")
    with pytest.raises(InvalidPairError):
        cluster.pair_density(0.5, pair, HALF.beta)


def test_pair_density_beta_guard_before_reduction(monkeypatch):
    cluster = EvolvedCluster.build(HALF, triangle(), "ising")

    def no_reduction(*args):
        raise AssertionError("reduced before the beta guard")

    monkeypatch.setattr(EvolvedCluster, "pair_deviation", no_reduction)
    with pytest.raises(BetaTooLargeError):
        cluster.pair_density(0.5, (0, 1), 1.0)  # beta * S * 2 = 1


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


@pytest.mark.parametrize("mode, two_s, n", [("ising", 1, 10), ("ising", 2, 6), ("ising", 3, 5),
                                            ("dipolar", 1, 6), ("dipolar", 2, 4),
                                            ("dipolar", 3, 3)])
def test_pair_density_over_times_equals_per_time_calls(mode, two_s, n):
    # a 1-D array of times gives the stack of the one-time states, bit for
    # bit; the Ising rings (dim 1024) take several chunks of times
    spin = SpinParams(two_s)
    cluster = EvolvedCluster.build(spin, circulant_couplings(n, seed=n), mode)
    times = TimeGrid.linspace(6.0, 41).times
    for pair in ((0, 1), (2, 0)):
        stack = cluster.pair_density(times, pair, spin.beta).entries
        assert stack.shape == (41, spin.d**2, spin.d**2)
        for k, t in enumerate(times):
            assert np.array_equal(stack[k], cluster.pair_density(t, pair, spin.beta).entries)


@pytest.mark.parametrize("n", [11, 12])
def test_dipolar_pair_reduction_sums_to_fid_at_guard_sizes(n):
    # spin-1/2 dipolar rings of dim 2048 and 4096 (odd and even Q), where no
    # dense reference fits: Tr(S_x D(t)) = sum_i Tr((S_x (x) 1) D_(i, i+1)(t))
    # over the ring's nearest-neighbour pairs, each reduced deviation being
    # the partial trace over the other n - 2 sites divided by d^(n - 2)
    spin = HALF
    cluster = EvolvedCluster.build(spin, circulant_couplings(n, seed=n), "dipolar")
    times = np.array([0.8, 3.1])
    sx_first = np.kron(build_spin_operators(spin).sx, np.eye(spin.d))
    traced = sum(np.einsum("ab,tba->t", sx_first, cluster.pair_deviation(times, (i, (i + 1) % n)))
                 for i in range(n))
    vals = oracle._sx_nonzeros(spin, n)[2]
    norm = 2.0 * float(np.sum(vals**2))  # Tr S_x^2
    np.testing.assert_allclose(spin.d ** (n - 2) * traced / norm, cluster.fid(TimeGrid(times)),
                               rtol=0, atol=1e-10)


# -- entropy and mutual information ---------------------------------------------------

@pytest.mark.parametrize("two_s", [1, 2, 3])
def test_measures_of_a_stack_equal_per_state_values(two_s, quad):
    # the rule's order batches several states per entropy_norm_batch call,
    # 64 x 128 one state per call
    spin = SpinParams(two_s)
    cluster = EvolvedCluster.build(spin, circulant_couplings(4, seed=two_s), "ising")
    states = [cluster.pair_density(t, (0, 1), spin.beta) for t in TimeGrid.linspace(6.0, 41).times]
    stack = DensityMatrix(entries=np.stack([rho.entries for rho in states]))
    info = mutual_info_numeric(stack)
    assert info.shape == (41,)
    assert np.array_equal(info, [mutual_info_numeric(rho) for rho in states])
    for order in (SphereQuadrature.for_spin(spin), quad):
        j = povm_measure_and_classical_info(stack, spin, order)
        assert np.array_equal(j, [povm_measure_and_classical_info(rho, spin, order)
                                  for rho in states])


def test_density_stack_checks_every_member():
    good = np.eye(4, dtype=complex) / 4
    skew = good.copy()
    skew[0, 1] = 1e-9
    for bad in (skew, good * (1.0 + 1e-9)):
        with pytest.raises(NonPhysicalStateError):
            DensityMatrix(entries=np.stack([good, bad, good]))
    # a Hermitian unit-trace member whose smallest eigenvalue is twice the floor
    low = 2.0 * oracle._EIG_FLOOR
    stack = DensityMatrix(entries=np.stack([good, np.diag([0.6, 0.4 - low, 0.0, low]), good]))
    for measure in (entropy_exact, mutual_info_numeric):
        with pytest.raises(NonPhysicalStateError, match="negative eigenvalue"):
            measure(stack)


def test_direction_search_takes_one_state():
    cluster = EvolvedCluster.build(HALF, triangle(), "ising")
    stack = cluster.pair_density(np.array([0.3, 0.6]), (0, 1), HALF.beta)
    with pytest.raises(InvalidSpecError, match="one state"):
        classical_info_von_neumann(stack)


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
    assert abs(mutual_info_numeric(rho)) < 1e-14
    # the trace form is an expansion around the maximally mixed state, so
    # it only vanishes for high-temperature product states
    beta = 1e-3
    sx = build_spin_operators(HALF).sx
    hot = np.kron((np.eye(2) + beta * sx) / 2, (np.eye(2) + 0.5 * beta * sx) / 2)
    assert abs(mutual_info_numeric(DensityMatrix(entries=hot))) < 1e-14
    assert abs(trace_form_info(DensityMatrix(entries=hot))) < beta**3


def test_mutual_info_exact_vs_trace_form():
    cluster = EvolvedCluster.build(HALF, triangle(1.0, 0.5, 0.5), "ising")
    for beta in (1e-2, 1e-3):
        rho = cluster.pair_density(0.7, (0, 1), beta)
        info = mutual_info_numeric(rho)
        assert info >= 0.0
        assert trace_form_info(rho) == pytest.approx(info, rel=30 * beta)


def test_mutual_info_converges_as_beta_squared():
    # acceptance criterion 2's cluster: the exact I is (beta^2 closed form)
    # x (1 + O(beta^2)); odd orders vanish because H commutes with the pi
    # rotation about z, a product of one-site rotations mapping beta to
    # -beta. One decade of beta shrinks the relative gap ~100x (at 1e-4 it
    # would reach the entropy roundoff floor, so that point is left out)
    cluster = EvolvedCluster.build(HALF, triangle(1.0, 0.5, 0.5), "ising")
    gaps = []
    for beta in (1e-2, 1e-3):
        ctx = PairContext(spin=SpinParams(1, beta), b_ij=1.0,
                          other_couplings_i=(0.5,), other_couplings_j=(0.5,))
        info = mutual_info_numeric(cluster.pair_density(0.7, (0, 1), beta))
        gaps.append(abs(info / mutual_info_ising(ctx, 0.7) - 1.0))
    assert gaps[0] / gaps[1] >= 50.0


def test_mutual_info_matches_closed_form():
    cluster = EvolvedCluster.build(HALF, triangle(1.0, 0.5, 0.5), "ising")
    ctx = PairContext(spin=HALF, b_ij=1.0, other_couplings_i=(0.5,), other_couplings_j=(0.5,))
    rho = cluster.pair_density(0.7, (0, 1), HALF.beta)
    assert mutual_info_numeric(rho) == pytest.approx(
        mutual_info_ising(ctx, 0.7), rel=1e-4)


# -- initial state -------------------------------------------------------------------

def test_initial_density_properties():
    # Tr{S_x rho(0)} = beta N S(S+1)/3 for rho(0) = (1 + beta S_x)/d^N, so
    # Tr S_x^2 = N d^N S(S+1)/3, the normalization EvolvedCluster.fid divides by
    for spin, n in ((HALF, 2), (HALF, 5), (ONE, 3), (SpinParams(3), 3)):
        sx = total_sx(spin, n)
        assert np.trace(sx) == 0.0
        assert np.sum(sx**2) == pytest.approx(n * spin.d**n * spin.casimir / 3.0, rel=1e-14)


# -- orthogonal measurement -----------------------------------------------------------

@pytest.mark.parametrize("state", ["ising", "dipolar", "random"])
def test_axis_info_matches_dense_projection(state):
    # reference: project the first spin onto +-n with Kronecker products,
    # (P+ x 1) rho (P+ x 1) + (P- x 1) rho (P- x 1), and take the exact
    # mutual information of the measured state
    if state == "random":
        # no symmetry, so a mirrored axis would show
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        gram = a @ a.conj().T
        rho = DensityMatrix(entries=gram / np.trace(gram).real)
    else:
        # unequal environments, so measuring the wrong member would show
        cluster = EvolvedCluster.build(HALF, triangle(1.0, 0.3, 0.8), state)
        rho = cluster.pair_density(0.7, (0, 1), 1e-2)
    s2 = second_marginal_entropy(rho)
    pauli = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))
    dirs = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                     [0.3, -0.5, math.sqrt(0.66)], [-0.6, 0.0, 0.8]])
    theta, phi = np.concatenate([angles_of(n) for n in dirs], axis=1)
    info = oracle._axis_info(rho.entries.reshape(2, 2, 2, 2), s2, theta, phi)
    for n, got in zip(dirs, info):
        sigma_n = sum(c * p for c, p in zip(n, pauli))
        proj = [np.kron((np.eye(2) + sign * sigma_n) / 2, np.eye(2)) for sign in (1, -1)]
        measured = DensityMatrix(entries=sum(p @ rho.entries @ p for p in proj))
        assert got == pytest.approx(mutual_info_numeric(measured), rel=0, abs=1e-12)
    assert np.ptp(info) > 1e-6  # the directions do differ


def test_classical_info_maximization():
    cluster = EvolvedCluster.build(HALF, triangle(1.0, 0.5, 0.5), "ising")
    rho = cluster.pair_density(0.7, (0, 1), 1e-3)
    c, direction = classical_info_von_neumann(rho)
    info = mutual_info_numeric(rho)
    assert c / info == pytest.approx(0.5, abs=1e-3)
    assert info - c >= 0.0  # discord nonnegative here
    assert np.linalg.norm(direction) == pytest.approx(1.0, abs=1e-12)
    flat = DensityMatrix(entries=np.kron(np.diag([0.6, 0.4]), np.diag([0.3, 0.7])).astype(complex))
    c0, _ = classical_info_von_neumann(flat)
    assert abs(c0) < 1e-12


def test_axis_info_near_zero_outcome():
    # a pure first marginal: at theta = 0 one outcome has probability
    # cos(pi/2)^2 ~ 4e-33 (|up>) or exactly 0 (|down>)
    for first, p_tiny in ((np.diag([1.0, 0.0]), 1e-32), (np.diag([0.0, 1.0]), 0.0)):
        rho = DensityMatrix(entries=np.kron(first, np.diag([0.3, 0.7])).astype(complex))
        c, direction = classical_info_von_neumann(rho)
        assert abs(c) < 1e-12
        assert np.linalg.norm(direction) == pytest.approx(1.0, abs=1e-15)
        rho4 = rho.entries.reshape(2, 2, 2, 2)
        amps = oracle.scs_amplitudes(HALF, np.array([0.0, np.pi]), np.array([0.0, np.pi]))
        assert np.min(np.einsum("ncc->n", K.scs_overlaps(rho4, amps)).real) <= p_tiny
        info = oracle._axis_info(rho4, second_marginal_entropy(rho), np.array([0.0]),
                                 np.array([0.0]))
        assert np.isfinite(info[0]) and abs(info[0]) < 1e-12


def nelder_mead_classical_info(rho12):
    """Reference: the same coarse scan refined by scipy's Nelder-Mead."""
    rho4 = rho12.entries.reshape(2, 2, 2, 2)
    s2 = second_marginal_entropy(rho12)
    n_theta, n_phi = oracle._AXIS_SCAN
    thetas = (np.arange(n_theta) + 0.5) * np.pi / n_theta
    phis = 2.0 * np.pi * np.arange(n_phi) / n_phi
    th, ph = (a.ravel() for a in np.meshgrid(thetas, phis, indexing="ij"))
    best = int(np.argmax(oracle._axis_info(rho4, s2, th, ph)))

    def objective(angles):
        t, p = angles
        return -float(oracle._axis_info(rho4, s2, np.array([t]), np.array([p]))[0])

    res = minimize(objective, (th[best], ph[best]), method="Nelder-Mead",
                   options={"xatol": 1e-7, "fatol": 1e-10, "maxiter": 400})
    return -float(res.fun)


def axis_search_states():
    """Ising and dipolar oracle pairs, and random two-qubit states."""
    rng = np.random.default_rng(5)
    states = []
    for mode in ("ising", "dipolar"):
        for n in (3, 4):
            b = rng.uniform(-1.0, 1.0, (n, n))
            b = b + b.T
            np.fill_diagonal(b, 0.0)
            cluster = EvolvedCluster.build(HALF, CouplingTable(b=b), mode)
            states += [cluster.pair_density(t, (0, 1), 1e-2) for t in (0.3, 0.7, 1.3)]
    for _ in range(12):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = g @ g.conj().T
        states.append(DensityMatrix(entries=m / np.trace(m).real))
    return states


def test_axis_search_matches_nelder_mead():
    states = axis_search_states()
    assert len(states) >= 20
    for rho in states:
        c, direction = classical_info_von_neumann(rho)
        assert c >= nelder_mead_classical_info(rho) - 1e-15
        assert np.linalg.norm(direction) == pytest.approx(1.0, abs=1e-15)
        # the returned axis is the one whose information is reported
        info = oracle._axis_info(rho.entries.reshape(2, 2, 2, 2), second_marginal_entropy(rho),
                                 *angles_of(direction))[0]
        assert info == pytest.approx(c, rel=0, abs=1e-15)


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
    devs = [scs_completeness_check(spin, SphereQuadrature(n, 16))
            for n in (1, 2, 3)]
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 1e-12


def test_povm_product_state_no_information(quad):
    rho = DensityMatrix(entries=np.kron(np.eye(3) / 3, np.diag([0.5, 0.3, 0.2])).astype(complex))
    assert abs(povm_measure_and_classical_info(rho, ONE, quad)) < 1e-12


def test_povm_rejects_state_of_another_spin(quad):
    rho = DensityMatrix(entries=np.eye(9) / 9)
    with pytest.raises(InvalidSpecError, match="does not fit spin"):
        povm_measure_and_classical_info(rho, HALF, quad)


def test_povm_quadrature_guard():
    # two Gauss nodes are exact only through degree 3 < 2S for S = 2
    coarse = SphereQuadrature(2, 16)
    spin = SpinParams(4, beta=1e-3)
    rho = DensityMatrix(entries=np.eye(25) / 25)
    with pytest.raises(QuadratureTooCoarseError):
        povm_measure_and_classical_info(rho, spin, coarse)


def test_povm_shared_caches_are_safe_under_threads(quad):
    # library callers may measure from several threads, which share the
    # module-level node and amplitude caches: start them empty and switch
    # threads often, so that the workers race to fill them
    cases = []
    for two_s in (1, 2, 3, 4):
        spin = SpinParams(two_s, beta=1e-3)
        rho = EvolvedCluster.build(spin, PAIR, "ising").pair_density(0.05, (0, 1), spin.beta)
        cases += [(rho, spin, SphereQuadrature.for_spin(spin)), (rho, spin, quad)]
    results = []
    for workers in (1, 4):
        oracle._sphere_nodes.cache_clear()
        oracle._scs_basis.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results.append(list(pool.map(lambda case: povm_measure_and_classical_info(*case),
                                             cases)))
        finally:
            sys.setswitchinterval(interval)
    assert results[0] == results[1]


def rule_clusters(two_s, seed):
    """The two-site pair, the rule's worst case, then three random circulant
    Ising clusters and one random dipolar cluster of dimension <= 512."""
    rng = np.random.default_rng(seed)
    n_max = max(3, int(math.log(512) / math.log(two_s + 1)))
    *ising, dipolar = rng.integers(3, n_max + 1, 4)
    return ([("ising", PAIR)]
            + [("ising", circulant_couplings(n, seed + k)) for k, n in enumerate(ising)]
            + [("dipolar", random_couplings(dipolar, seed))])


@pytest.mark.parametrize("two_s", [1, 2, 3, 4, 5, 6])
def test_povm_rule_matches_64x128(two_s):
    # the per-spin rule scores J as 64 x 128 does, at beta = 1e-3 and at half
    # and 0.9 of the beta guard, where it needs the most nodes
    ref = SphereQuadrature(64, 128)
    rng = np.random.default_rng(two_s)
    for p in [two_s * 1e-3, 0.5, 0.9] + ([0.95] if two_s == 1 else []):
        spin = SpinParams(two_s, beta=p / two_s)
        rule = SphereQuadrature.for_spin(spin)
        assert rule.n_phi == 2 * rule.n_theta < 128
        worst = 0.0
        for mode, table in rule_clusters(two_s, seed=10 * two_s):
            cluster = EvolvedCluster.build(spin, table, mode)
            for t in rng.uniform(0.05, 6.0, 3):
                rho = cluster.pair_density(t, (0, 1), spin.beta)
                worst = max(worst, abs(povm_measure_and_classical_info(rho, spin, rule)
                                       - povm_measure_and_classical_info(rho, spin, ref)))
        assert worst <= 1e-14, (p, worst)


def test_povm_rule_resolves_the_identity_for_every_spin():
    # exact in exact arithmetic (n_theta > S, n_phi >= 2S + 1); what is left
    # is the amplitudes' roundoff, which grows with 2S to ~1e-13 at 2S = 35-40,
    # as at 64 x 128 (9e-14 at 2S = 40)
    for two_s in range(1, 41):
        spin = SpinParams(two_s, beta=1e-3)
        assert scs_completeness_check(spin, SphereQuadrature.for_spin(spin)) <= 2e-13, two_s


def test_quadrature_cap():
    # orders over the cap are refused before leggauss builds its n_theta^2
    # matrix or any node array exists
    for n_theta, n_phi in ((100000, 1), (257, 1), (128, 1024), (2**20, 2**20)):
        with pytest.raises(InvalidSpecError, match="cap"):
            SphereQuadrature(n_theta, n_phi)
    assert SphereQuadrature(256, 256).n_theta == 256
    # the rule refuses rather than run a coarser order
    with pytest.raises(QuadratureTooLargeError, match="cap"):
        SphereQuadrature.for_spin(SpinParams(1, beta=1.0 - 1e-5))
    with pytest.raises(BetaTooLargeError):
        SphereQuadrature.for_spin(SpinParams(2, beta=0.5))


def test_povm_matches_closed_form_and_additivity(quad):
    for spin in (HALF, ONE, SpinParams(3, beta=1e-3)):
        cluster = EvolvedCluster.build(spin, PAIR, "ising")
        t = 0.7
        rho = cluster.pair_density(t, (0, 1), spin.beta)
        j = povm_measure_and_classical_info(rho, spin, quad)
        ctx = PairContext(spin=spin, b_ij=1.0)
        j_an, q_an = povm_split(ctx, t)
        assert j == pytest.approx(j_an, rel=2e-3)
        info = mutual_info_numeric(rho)
        assert info - j >= -1e-12  # quantum share nonnegative
        assert info - j == pytest.approx(q_an, rel=2e-3)
