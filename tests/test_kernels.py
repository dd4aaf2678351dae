"""Numerical edge cases for the hot kernels."""

import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from spinfid import _kernels as K
from spinfid import oracle
from spinfid.core import SpinParams, TimeGrid
from spinfid.lattice import CouplingTable
from spinfid.oracle import (
    DensityMatrix,
    EvolvedCluster,
    SphereQuadrature,
    entropy_exact,
    povm_measure_and_classical_info,
)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_dirichlet_singular_points(d):
    # at x = k*pi each factor takes the limit value (-1)^(k(d-1))
    for k in (-2, -1, 1, 2, 3):
        x = np.array([k * np.pi])
        expect = (-1.0) ** (k * (d - 1))
        assert K.dirichlet_ratio(d, x)[0] == pytest.approx(expect, abs=1e-9)
    near = np.array([np.pi - 1e-8, np.pi + 1e-8])
    assert np.all(np.isfinite(K.dirichlet_ratio(d, near)))


def mp_dirichlet(d, x):
    """sin(d x)/(d sin x) at 40 digits for a float x, 1 at x = 0."""
    with mpmath.workdps(40):
        x = mpmath.mpf(float(x))
        return mpmath.sin(d * x) / (d * mpmath.sin(x)) if x else mpmath.mpf(1)


def test_dirichlet_m1_consistency():
    x = np.linspace(1e-9, 0.5, 200)
    for d in (2, 3, 6):
        with mpmath.workdps(40):
            ref = np.array([float(mp_dirichlet(d, v) - 1) for v in x])
        np.testing.assert_allclose(K.dirichlet_ratio_m1(d, x), ref, rtol=2e-15, atol=0)


@pytest.mark.parametrize("d", [2, 3, 5, 8, 10])
def test_dirichlet_accurate_around_poles(d):
    # the ratio and its deficit through the removable singularities x = k pi
    xs = []
    for k in range(1, 10):
        for eps in np.geomspace(1e-13, 5e-3, 15):
            xs += [k * np.pi + eps, k * np.pi - eps]
        xs.append(k * np.pi)
    xs = np.array(xs)
    with mpmath.workdps(40):
        ref = [mp_dirichlet(d, x) for x in xs]
        ref_m1 = np.array([float(g - 1) for g in ref])
    np.testing.assert_allclose(K.dirichlet_ratio(d, xs), np.array(ref, dtype=float),
                               rtol=0, atol=2e-15)
    np.testing.assert_allclose(K.dirichlet_ratio_m1(d, xs), ref_m1, rtol=0, atol=2e-15)


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


@pytest.fixture
def nufft_calls(monkeypatch):
    """Counts cos_sum's calls of its NUFFT path."""
    calls = []
    nufft = K._nufft_cos_sum
    monkeypatch.setattr(K, "_nufft_cos_sum", lambda *args: calls.append(1) or nufft(*args))
    return calls


@pytest.mark.parametrize("n", [2, 3, 41, 4001])
@pytest.mark.parametrize("t0", [-3.7, 0.0, 2.5])
def test_cos_sum_uniform_grid(n, t0, nufft_calls):
    # every uniform grid takes the NUFFT, whatever its size
    times = t0 + 0.013 * np.arange(n)
    assert K._uniform_step(times) is not None
    assert_matches_brute(*lines(300, times), times)
    assert nufft_calls == [1]


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


def test_cos_sum_non_uniform_grids(nufft_calls):
    geometric = np.geomspace(1e-3, 10.0, 500)
    moved = np.linspace(0.0, 10.0, 501)
    moved[250] += 1e-9
    for times in (geometric, moved, np.array([0.7])):
        assert K._uniform_step(times) is None
        # on the moved grid the uniform path would be off by ~|omega| 1e-9
        assert_matches_brute(*lines(2000, times, seed=3), times)
    assert not nufft_calls


def longdouble_cos_sum(weights, freqs, times):
    w, f = weights.astype(np.longdouble), freqs.astype(np.longdouble)
    return np.array([np.sum(w * np.cos(f * np.longdouble(t))) for t in times], dtype=float)


def nufft_bound(weights, freqs, times):
    """cos_sum's stated bound: 1e-14 sum |w| for the NUFFT, plus each line's
    phase roundoff of a few eps |omega| max|t|, which every path shares."""
    eps = np.finfo(float).eps
    phase = 4.0 * eps * np.max(np.abs(times)) * np.sum(np.abs(weights * freqs))
    return 1e-14 * np.sum(np.abs(weights)) + phase


NUFFT_GRIDS = {
    "odd-4001": -3.7 + 0.0021 * np.arange(4001),
    "even-4000": -2.0 + 0.001 * np.arange(4000),
    "decreasing": 2.0 - 0.0137 * np.arange(301),
    "constant": np.full(200, 1.3),
    # short grids: the oracle's 41- and 61-point linspace grids, and the
    # fewest points a uniform grid can have
    "linspace-61": TimeGrid.linspace(6.0, 61).times,
    "linspace-41": TimeGrid.linspace(5.3, 41).times,
    "three": -1.2 + 0.37 * np.arange(3),
    "two": 0.4 + 0.9 * np.arange(2),
}


@pytest.mark.parametrize("grid", NUFFT_GRIDS, ids=NUFFT_GRIDS)
@pytest.mark.parametrize("band", ["low", "aliased", "one-line"])
def test_cos_sum_nufft_matches_longdouble(grid, band):
    # low: |omega| max|t| <= 10, so the phase roundoff stays below 1e-14
    # sum |w| and the bound checks the NUFFT itself; aliased: |omega dt| up
    # to 3 pi, folded onto [-pi, pi] before spreading
    times = NUFFT_GRIDS[grid]
    assert K._uniform_step(times) is not None
    rng = np.random.default_rng(90)
    dt = abs(times[1] - times[0])
    top = 10.0 / np.max(np.abs(times)) if band == "low" else 3.0 * np.pi / max(dt, 0.01)
    count = 1 if band == "one-line" else 600
    weights, freqs = rng.uniform(-1.0, 1.0, count), rng.uniform(-top, top, count)
    err = np.max(np.abs(K.cos_sum(weights, freqs, times) - longdouble_cos_sum(weights, freqs, times)))
    assert err <= nufft_bound(weights, freqs, times)


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


# -- scs_overlaps ---------------------------------------------------------------------

@pytest.mark.parametrize("d", [2, 4, 7])
def test_scs_overlaps_match_definition(d):
    # M_ce(n) = sum_ab conj(c_na) rho_acbe c_nb, across a chunk boundary
    rng = np.random.default_rng(80 + d)
    rho4 = rng.normal(size=(d,) * 4) + 1j * rng.normal(size=(d,) * 4)
    amps = rng.normal(size=(K._CHUNK + 3, d)) + 1j * rng.normal(size=(K._CHUNK + 3, d))
    ref = np.einsum("na,acbe,nb->nce", amps.conj(), rho4, amps)
    np.testing.assert_allclose(K.scs_overlaps(rho4, amps), ref, rtol=0, atol=1e-12)
    # a stack gives each member's matrices in turn, bit for bit
    stack = np.stack([rho4, rho4.conj(), 2.0 * rho4])
    np.testing.assert_array_equal(K.scs_overlaps(stack, amps),
                                  np.concatenate([K.scs_overlaps(r, amps) for r in stack]))


# -- entropy_norm_batch ---------------------------------------------------------------

def mp_entropy(mat):
    """Entropy in bits of mat / Tr mat from 40-digit eigenvalues (0 log 0 = 0)."""
    with mpmath.workdps(40):
        a = mpmath.matrix([[mpmath.mpc(z.real, z.imag) for z in row] for row in mat])
        tr = mpmath.fsum(a[k, k].real for k in range(a.rows))
        probs = [w / tr for w in mpmath.eigh(a, eigvals_only=True)]
        return -mpmath.fsum(p * mpmath.log(p, 2) for p in probs if p > 0)


def kernel_entropies(mats):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return K.entropy_norm_batch(np.asarray(mats, dtype=complex))[1]


def assert_matches_mp(mats, tol=1e-15):
    for s, mat in zip(kernel_entropies(mats), mats):
        with mpmath.workdps(40):
            assert abs(mpmath.mpf(float(s)) - mp_entropy(mat)) <= tol


def proj(v):
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj())


def unitary(d, rng):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def with_spectrum(spectrum, rng):
    u = unitary(len(spectrum), rng)
    return u @ np.diag(spectrum) @ u.conj().T


@pytest.mark.parametrize("d", [2, 3, 4])
def test_entropy_near_maximally_mixed(d):
    # the POVM's conditional states: c (1 + delta G) with |G| = 1
    rng = np.random.default_rng(10 + d)
    mats = []
    for delta in np.geomspace(1e-1, 1e-8, 8):
        for _ in range(4):
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            g = g + g.conj().T
            mats.append(rng.uniform(0.1, 10.0) * (np.eye(d) + delta * g / np.linalg.norm(g, 2)))
    assert_matches_mp(mats)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_entropy_degenerate_spectra(d):
    rng = np.random.default_rng(20 + d)
    ones = np.ones(d)
    # multiples of 1 (p = 0 in the d = 3 roots), double roots, gaps of 1e-10
    spectra = [ones, 0.7 * ones, 1e-3 * ones,
               np.r_[ones[:-1], 2.0], np.r_[1.0, 2.0 * ones[1:]],
               np.r_[ones[:-1], 1.0 + 1e-10], np.r_[1.0, 1.0 + 1e-10, 1.5 * ones[2:]]]
    mats = [np.eye(d), 3.0 * np.eye(d), 0.7 * np.eye(d)] + [with_spectrum(s, rng) for s in spectra]
    assert_matches_mp(mats)


@pytest.mark.parametrize("vectors", [
    [[1, 0], [0, 2.5], [1, 1], [1, 1j], [1, 2 + 2j], [3, 4j]],
    [[0, 0, 1], [1, 1, 1], [1, 2, 2], [1, 1j, 0], [1, 1 + 1j, 2j], [1, 2, 3]],
    [[0, 0, 1j, 0], [1, 1, 0, 0], [0, 2, 0, 2j]],
])
def test_entropy_pure_states_exactly_zero(vectors):
    assert np.all(kernel_entropies([proj(v) for v in vectors]) == 0.0)


def test_entropy_pure_state_floor_above_three_levels():
    # d >= 4 runs eigvalsh, which leaves eigenvalues of ~eps |M| where a
    # non-diagonal projector has exact zeros; p log p keeps ~1e-14 bits
    assert np.all(np.abs(kernel_entropies([proj([1, 1, 1, 1]), proj([1, 2, 2, 4])])) < 2e-14)


@pytest.mark.parametrize("mats", [
    [np.diag([1.0, 0.0]), np.diag([0.0, 2.5])],
    [np.diag([3.0, 3.0, 0.0]), np.diag([1.0, 2.0, 0.0]), proj([1, 2, 2]) + proj([2, 1, -2]),
     proj([1, 1, 0]) + 2.0 * proj([1, -1, 1]), proj([1, 1j, 0]) + proj([0, 0, 1])],
    [np.diag([1.0, 2.0, 0.0, 0.0]), proj([1, 1, 0, 0]) + proj([0, 0, 1, 1]),
     proj([1, 2, 2, 0]) + proj([2, 1, -2, 0])],
])
def test_entropy_rank_deficient(mats):
    assert_matches_mp(mats)


@pytest.mark.parametrize("pair", [[1, 1], [1, 2], [1, 1.5]])
def test_entropy_nearly_pure_three_levels(pair):
    # rounding the entries fixes eigenvalues near 0 only to ~eps, so the
    # entropy floor is ~eps log2(1/eps); the trigonometric roots alone would
    # split the small pair by ~sqrt(eps) and miss by up to 1e-7 bits
    rng = np.random.default_rng(30)
    mats = [with_spectrum([1.0, pair[0] * mu, pair[1] * mu], rng)
            for mu in np.geomspace(1e-2, 1e-12, 6)]
    assert_matches_mp(mats, tol=5e-15)


def near_mixed(d, nus, rng):
    """c (1 + nu G) with G traceless Hermitian and ||G||_F = 1, so that the
    deviation d M / Tr M - 1 has Frobenius norm nu."""
    mats = []
    for nu in nus:
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        g = g + g.conj().T
        g -= np.trace(g).real / d * np.eye(d)
        mats.append(rng.uniform(0.1, 10.0) * (np.eye(d) + nu * g / np.linalg.norm(g)))
    return mats


def no_eigvalsh(*args, **kwargs):
    raise AssertionError("eigvalsh called")


@pytest.mark.parametrize("d", [4, 5, 6, 7])
def test_entropy_series_near_mixed(d, monkeypatch):
    # the power-sum series alone, from nu = 1e-8 up to just below its radius
    monkeypatch.setattr(K.np.linalg, "eigvalsh", no_eigvalsh)
    rng = np.random.default_rng(40 + d)
    assert_matches_mp(near_mixed(d, np.repeat(np.geomspace(1e-8, 0.99 * K._NU_MAX, 9), 3), rng))


@pytest.mark.parametrize("d", [4, 5, 6, 7])
def test_entropy_rows_beyond_series_take_eigvalsh(d, monkeypatch):
    seen = []

    def counting_eigvalsh(mats):
        seen.append(len(mats))
        return np.linalg.eigh(mats)[0]

    monkeypatch.setattr(K.np.linalg, "eigvalsh", counting_eigvalsh)
    rng = np.random.default_rng(60 + d)
    above = near_mixed(d, np.geomspace(1.01 * K._NU_MAX, 0.5, 6), rng)
    assert_matches_mp(above)
    assert seen == [len(above)]


@pytest.mark.parametrize("d", [4, 5, 6, 7])
def test_entropy_rows_do_not_depend_on_their_batch(d):
    rng = np.random.default_rng(70 + d)
    rows = (near_mixed(d, [1e-8, 1e-4, 1e-2, 0.99 * K._NU_MAX, 1.01 * K._NU_MAX, 0.5], rng)
            + [proj(rng.normal(size=d) + 1j * rng.normal(size=d)), proj(np.eye(d)[0]),
               with_spectrum(np.r_[np.zeros(d - 2), 1.0, 2.0], rng)])
    single = np.array([K.entropy_norm_batch(np.array([m]))[1][0] for m in rows])
    order = rng.integers(0, len(rows), 2 * K._CHUNK + 5)
    _, ent = K.entropy_norm_batch(np.array(rows)[order])
    assert np.array_equal(ent, single[order])


@pytest.mark.parametrize("two_s", [1, 2, 3, 4, 5, 6])
def test_povm_information_matches_eigvalsh_reference(two_s):
    spin = SpinParams(two_s=two_s, beta=1e-3)
    d = spin.d
    quad = SphereQuadrature(64, 128)
    table = CouplingTable(b=np.array([[0.0, 1.0], [1.0, 0.0]]))
    rho = EvolvedCluster.build(spin, table, "ising").pair_density(0.7, (0, 1), spin.beta)
    theta, phi, weights = oracle._sphere_nodes(quad.n_theta, quad.n_phi)
    amps = oracle.scs_amplitudes(spin, theta, phi)
    mats = K.scs_overlaps(rho.entries.reshape(d, d, d, d), amps)
    traces = np.einsum("ncc->n", mats).real
    p = np.clip(np.linalg.eigvalsh(mats), 0.0, None) / traces[:, None]
    s_cond = -np.sum(np.where(p > 0.0, p * np.log2(np.where(p > 0.0, p, 1.0)), 0.0), axis=1)
    rho2 = oracle._marginals(rho.entries, d)[1]
    density = d / (4.0 * np.pi) * traces
    j_ref = entropy_exact(DensityMatrix(entries=rho2)) - np.sum(weights * density * s_cond)
    assert abs(povm_measure_and_classical_info(rho, spin, quad) - j_ref) <= 1e-14
