"""Exact quantum simulation of small spin-S clusters.

Brute-force validation backend for every closed-form result: builds the
cluster Hamiltonian, evolves the deviation density matrix by full
Hermitian eigendecomposition (exactly unitary at all sampled times),
reduces to pairs, and measures entropies, orthogonal-measurement and
coherent-state-POVM classical information.

Because the evolved state is exactly (1 + beta * D(t))/Z with D(t)
independent of beta, the FID is beta-independent and all beta scalings
can be probed from a single diagonalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from . import _kernels as K
from .core import SpinParams, TimeGrid
from .errors import (
    BetaTooLargeError,
    ClusterTooLargeError,
    InvalidBasisError,
    InvalidPairError,
    InvalidSpecError,
    NonPhysicalStateError,
    QuadratureTooCoarseError,
    UnsupportedSpinError,
)
from .lattice import CouplingTable

DIM_GUARD = 4096
HAMILTONIAN_MODES = ("ising", "dipolar")

_HERM_TOL = 1e-12
_EIG_FLOOR = -1e-8


@dataclass(frozen=True, eq=False)
class SpinOperators:
    """Dense spin matrices in the |m> basis ordered m = S..-S."""

    sx: np.ndarray = field(repr=False)
    sy: np.ndarray = field(repr=False)
    sz: np.ndarray = field(repr=False)
    s_plus: np.ndarray = field(repr=False)
    s_minus: np.ndarray = field(repr=False)


def build_spin_operators(spin: SpinParams) -> SpinOperators:
    """Standard (2S+1)-dimensional spin representation; only S_y is complex."""
    d = spin.d
    m = spin.s - np.arange(d)
    sz = np.diag(m)
    s_plus = np.zeros((d, d))
    idx = np.arange(1, d)
    s_plus[idx - 1, idx] = np.sqrt(spin.casimir - m[idx] * (m[idx] + 1.0))
    s_minus = s_plus.T
    sx = (s_plus + s_minus) / 2.0
    sy = (s_plus - s_minus) / 2.0j
    return SpinOperators(sx=sx, sy=sy, sz=sz, s_plus=s_plus, s_minus=s_minus)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Dense Hermitian unit-trace matrix with lightweight validation."""

    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        mat = np.asarray(self.entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InvalidSpecError("density matrix must be square")
        if np.max(np.abs(mat - mat.conj().T)) > _HERM_TOL:
            raise NonPhysicalStateError("density matrix is not Hermitian")
        if abs(np.trace(mat).real - 1.0) > _HERM_TOL:
            raise NonPhysicalStateError("density matrix trace differs from 1")
        object.__setattr__(self, "entries", mat)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _site_indices(d: int, n_sites: int) -> tuple[np.ndarray, np.ndarray]:
    """Index k (m = S - k) of every site in every product state, and the
    basis-index stride of each site (site 0 is the most significant)."""
    k = np.indices((d,) * n_sites).reshape(n_sites, -1)
    return k, d ** np.arange(n_sites - 1, -1, -1)


def build_hamiltonian(spin: SpinParams, table: CouplingTable, mode: str) -> np.ndarray:
    """Secular coupling Hamiltonian of the cluster, real and dense.

    The pair sum runs over ordered index pairs, so each unordered pair
    {i, j} contributes 2 b_ij S_zi S_zj (plus the flip-flop part with
    a_ij in dipolar mode). This convention is what makes the product FID
    formula hold with the stored b matrix.

    Entries are written by basis-state index: the Ising part is diagonal,
    and S+_i S-_j links only the two states whose indices at sites i and j
    differ by one step each.
    """
    if mode not in HAMILTONIAN_MODES:
        raise InvalidSpecError(f"mode must be one of {HAMILTONIAN_MODES}, got {mode!r}")
    n = table.n_sites
    d = spin.d
    dim = d**n
    if dim > DIM_GUARD:
        raise ClusterTooLargeError(f"d^N = {dim} exceeds the guard {DIM_GUARD}")
    ops = build_spin_operators(spin)
    k, strides = _site_indices(d, n)
    m = np.diag(ops.sz)[k]
    ham = np.zeros((dim, dim))
    diag = np.zeros(dim)
    for i in range(n):
        for j in range(i + 1, n):
            diag += 2.0 * table.b[i, j] * m[i] * m[j]
            if mode == "dipolar":
                # columns where site i can be raised and site j lowered
                col = np.flatnonzero((k[i] > 0) & (k[j] < d - 1))
                row = col - strides[i] + strides[j]
                ki, kj = k[i, col], k[j, col]
                ham[row, col] = ham[col, row] = (
                    table.a[i, j] * (ops.s_plus[ki - 1, ki] * ops.s_minus[kj + 1, kj]))
    np.fill_diagonal(ham, diag)
    return ham


def total_sx(spin: SpinParams, n_sites: int) -> np.ndarray:
    """Total transverse spin sum_i S_xi, real and dense."""
    ops = build_spin_operators(spin)
    k, strides = _site_indices(spin.d, n_sites)
    sx = np.zeros((spin.d**n_sites,) * 2)
    for i in range(n_sites):
        col = np.flatnonzero(k[i] > 0)
        ki = k[i, col]
        sx[col - strides[i], col] = sx[col, col - strides[i]] = ops.sx[ki - 1, ki]
    return sx


@dataclass(frozen=True, eq=False)
class EvolvedCluster:
    """One diagonalized cluster, reusable across times and observables."""

    spin: SpinParams
    table: CouplingTable
    mode: str
    eigvals: np.ndarray = field(repr=False)
    eigvecs: np.ndarray = field(repr=False)
    sx_eigbasis: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, spin: SpinParams, table: CouplingTable, mode: str) -> "EvolvedCluster":
        ham = build_hamiltonian(spin, table, mode)
        w, v = np.linalg.eigh(ham)
        sx = total_sx(spin, table.n_sites)
        return cls(spin=spin, table=table, mode=mode, eigvals=w, eigvecs=v,
                   sx_eigbasis=v.T @ sx @ v)

    @property
    def n_sites(self) -> int:
        return self.table.n_sites

    def deviation(self, t: float) -> np.ndarray:
        """Evolved transverse magnetization exp(-iHt) S_x exp(iHt)."""
        phase = np.exp(-1j * self.eigvals * t)
        mat = (phase[:, None] * self.sx_eigbasis) * phase.conj()[None, :]
        # two real products: faster than one complex-by-real product
        v = self.eigvecs
        return v @ mat.real @ v.T + 1j * (v @ mat.imag @ v.T)

    def fid(self, grid: TimeGrid) -> np.ndarray:
        """Normalized Tr{S_x rho(t)} / Tr{S_x rho(0)}; beta-independent."""
        w2 = self.sx_eigbasis**2
        diag_w = float(np.sum(np.diag(w2)))
        iu, ju = np.triu_indices(w2.shape[0], k=1)
        weights = 2.0 * w2[iu, ju]
        freqs = self.eigvals[iu] - self.eigvals[ju]
        keep = weights > 1e-18
        total = diag_w + float(np.sum(weights))
        series = diag_w + K.cos_sum(weights[keep], freqs[keep], grid.times)
        return series / total

    def pair_deviation(self, t: float, pair: tuple[int, int]) -> np.ndarray:
        """Reduced deviation matrix: the pair state is (1 + beta D)/d^2."""
        i, j = pair
        if i == j:
            raise InvalidPairError("pair indices must differ")
        if not (0 <= i < self.n_sites and 0 <= j < self.n_sites):
            raise InvalidPairError("pair index out of range")
        dev = self.deviation(t)
        dims = [self.spin.d] * self.n_sites
        reduced = partial_trace(dev, dims, keep=(i, j))
        return reduced / self.spin.d ** (self.n_sites - 2)

    def pair_density(self, t: float, pair: tuple[int, int], beta: float) -> DensityMatrix:
        dev = self.pair_deviation(t, pair)
        _beta_guard(self.spin, 2, beta)
        d2 = self.spin.d ** 2
        return DensityMatrix(entries=(np.eye(d2) + beta * dev) / d2)


def _beta_guard(spin: SpinParams, n_sites: int, beta: float) -> None:
    if beta * spin.s * n_sites >= 1.0:
        raise BetaTooLargeError(
            f"beta*S*N = {beta * spin.s * n_sites:.3g} >= 1 would break positivity")


def build_initial_density(spin: SpinParams, n_sites: int, beta: float) -> DensityMatrix:
    """High-temperature state (1 + beta sum_i S_xi)/d^N after the pulse."""
    _beta_guard(spin, n_sites, beta)
    dim = spin.d**n_sites
    if dim > DIM_GUARD:
        raise ClusterTooLargeError(f"d^N = {dim} exceeds the guard {DIM_GUARD}")
    mat = (np.eye(dim, dtype=complex) + beta * total_sx(spin, n_sites)) / dim
    return DensityMatrix(entries=mat)


def partial_trace(mat: np.ndarray, dims: list[int], keep: tuple[int, ...]) -> np.ndarray:
    """Trace out all subsystems not in ``keep`` (order of ``keep`` kept)."""
    n = len(dims)
    keep = tuple(keep)
    traced = [k for k in range(n) if k not in keep]
    tensor = mat.reshape(dims + dims)
    perm = list(keep) + traced + [k + n for k in keep] + [k + n for k in traced]
    dk = int(np.prod([dims[k] for k in keep]))
    dt = int(np.prod([dims[k] for k in traced])) if traced else 1
    tensor = tensor.transpose(perm).reshape(dk, dt, dk, dt)
    return np.trace(tensor, axis1=1, axis2=3)


def entropy_exact(rho: DensityMatrix) -> float:
    """Eigenvalue-based von Neumann entropy in bits (0 log 0 = 0)."""
    w = np.linalg.eigvalsh(rho.entries)
    if w[0] < _EIG_FLOOR:
        raise NonPhysicalStateError(f"negative eigenvalue {w[0]:.3e}")
    w = w[w > 0.0]
    return float(-np.sum(w * np.log2(w)))


class MutualInfo(float):
    """Mutual information; ``high_t`` carries the purity-based value.

    Behaves as the exact eigenvalue-based number; the second-order
    trace-form evaluation (which only assumes the state is a small
    perturbation of the maximally mixed one) is kept alongside so the two
    can be compared order by order in beta.
    """

    high_t: float

    def __new__(cls, exact: float, high_t: float):
        obj = super().__new__(cls, exact)
        obj.high_t = high_t
        return obj


def mutual_info_numeric(rho12: DensityMatrix, dims: tuple[int, int] | None = None) -> MutualInfo:
    """Exact pair mutual information plus its high-temperature trace form.

    The trace form is (1/2 ln 2)[d^2 Tr rho12^2 + 1 - d Tr rho1^2
    - d Tr rho2^2], the second-order expansion of the entropy
    combination; the two agree to third order in the polarization.
    """
    mat = rho12.entries
    if dims is None:
        d = math.isqrt(mat.shape[0])
        if d * d != mat.shape[0]:
            raise InvalidSpecError("pair matrix dimension is not a perfect square")
        dims = (d, d)
    d1, d2 = dims
    rho1 = partial_trace(mat, [d1, d2], keep=(0,))
    rho2 = partial_trace(mat, [d1, d2], keep=(1,))
    exact = (
        entropy_exact(DensityMatrix(entries=rho1))
        + entropy_exact(DensityMatrix(entries=rho2))
        - entropy_exact(rho12)
    )
    pur12 = float(np.sum(np.abs(mat) ** 2))
    pur1 = float(np.sum(np.abs(rho1) ** 2))
    pur2 = float(np.sum(np.abs(rho2) ** 2))
    high_t = (d1 * d2 * pur12 + 1.0 - d1 * pur1 - d2 * pur2) / (2.0 * math.log(2.0))
    return MutualInfo(exact, high_t)


# -- orthogonal (von Neumann) measurement on spin 1/2 --------------------------

def _check_direction(direction) -> np.ndarray:
    n = np.asarray(direction, dtype=float)
    if n.shape != (3,) or abs(np.linalg.norm(n) - 1.0) > 1e-10:
        raise InvalidBasisError("measurement direction must be a unit 3-vector")
    return n


def von_neumann_measure(rho12: DensityMatrix, direction) -> DensityMatrix:
    """Project the first (spin-1/2) member onto the +-n axis states."""
    n = _check_direction(direction)
    d2 = rho12.dim // 2
    if rho12.dim != 2 * d2:
        raise InvalidSpecError("first subsystem must be two-dimensional")
    sigma_n = np.array([[n[2], n[0] - 1j * n[1]], [n[0] + 1j * n[1], -n[2]]])
    p_up = np.kron(0.5 * (np.eye(2) + sigma_n), np.eye(d2))
    p_dn = np.kron(0.5 * (np.eye(2) - sigma_n), np.eye(d2))
    mat = p_up @ rho12.entries @ p_up + p_dn @ rho12.entries @ p_dn
    return DensityMatrix(entries=mat)


def classical_info_von_neumann(rho12: DensityMatrix, n_theta: int = 32,
                               n_phi: int = 64) -> tuple[float, np.ndarray]:
    """Maximize post-measurement mutual information over the unit sphere.

    Coarse (n_theta x n_phi) scan followed by Nelder-Mead refinement to
    1e-10 in the information; returns (classical info, best direction).
    """
    if rho12.dim != 4:
        raise UnsupportedSpinError("direction search is implemented for a spin-1/2 pair (dim 4)")
    rho4 = rho12.entries.reshape(2, 2, 2, 2)
    rho2 = partial_trace(rho12.entries, [2, 2], keep=(1,))
    s2 = entropy_exact(DensityMatrix(entries=rho2))

    thetas = (np.arange(n_theta) + 0.5) * np.pi / n_theta
    phis = 2.0 * np.pi * np.arange(n_phi) / n_phi
    th, ph = np.meshgrid(thetas, phis, indexing="ij")
    dirs = np.column_stack([
        (np.sin(th) * np.cos(ph)).ravel(),
        (np.sin(th) * np.sin(ph)).ravel(),
        np.cos(th).ravel(),
    ])
    info = K.vn_info_grid(rho4, dirs, s2)
    best = int(np.argmax(info))

    def objective(angles):
        t, p = angles
        nv = np.array([[math.sin(t) * math.cos(p), math.sin(t) * math.sin(p), math.cos(t)]])
        return -float(K.vn_info_grid(rho4, nv, s2)[0])

    start = (float(th.ravel()[best]), float(ph.ravel()[best]))
    res = minimize(objective, start, method="Nelder-Mead",
                   options={"xatol": 1e-7, "fatol": 1e-10, "maxiter": 400})
    t, p = res.x
    direction = np.array([math.sin(t) * math.cos(p), math.sin(t) * math.sin(p), math.cos(t)])
    return -float(res.fun), direction


# -- spin coherent states and the POVM ----------------------------------------

def scs_amplitudes(spin: SpinParams, theta, phi) -> np.ndarray:
    """Amplitude vectors of |theta, phi>, broadcasting over angle arrays.

    Component m carries sqrt(C(2S, S+m)) cos(theta/2)^(S+m)
    sin(theta/2)^(S-m) e^(i phi (S-m)) in the descending-m basis.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    two_s = spin.two_s
    k = np.arange(spin.d)  # m = S - k
    binom = np.sqrt([math.comb(two_s, two_s - int(kk)) for kk in k])
    c = np.cos(theta / 2.0)[..., None] ** (two_s - k)
    s = np.sin(theta / 2.0)[..., None] ** k
    return binom * c * s * np.exp(1j * phi[..., None] * k)


@dataclass(frozen=True, eq=False)
class SphereQuadrature:
    """Gauss-Legendre (in cos theta) x uniform-phi product quadrature.

    Exact for trigonometric polynomials of degree < 2 n_theta in cos
    theta and below n_phi in the azimuth, which covers coherent-state
    projectors up to S ~ 15 at the 64 x 128 default.
    """

    theta: np.ndarray = field(repr=False)
    phi: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    n_theta: int = 64
    n_phi: int = 128
    _basis_cache: dict = field(default_factory=dict, repr=False)

    @classmethod
    def build(cls, n_theta: int = 64, n_phi: int = 128) -> "SphereQuadrature":
        if n_theta < 1 or n_phi < 1:
            raise InvalidSpecError("quadrature orders must be positive")
        u, wu = np.polynomial.legendre.leggauss(n_theta)
        theta = np.arccos(u)
        phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
        th = np.repeat(theta, n_phi)
        ph = np.tile(phi, n_theta)
        w = np.repeat(wu, n_phi) * (2.0 * np.pi / n_phi)
        return cls(theta=th, phi=ph, weights=w, n_theta=n_theta, n_phi=n_phi)

    def scs_basis(self, spin: SpinParams):
        """Cached coherent-state amplitudes and completeness deviation."""
        hit = self._basis_cache.get(spin.two_s)
        if hit is None:
            amps = scs_amplitudes(spin, self.theta, self.phi)
            gram = np.einsum("n,na,nb->ab", self.weights, amps, amps.conj())
            gram *= spin.d / (4.0 * np.pi)
            dev = float(np.max(np.abs(gram - np.eye(spin.d))))
            hit = (amps, dev)
            self._basis_cache[spin.two_s] = hit
        return hit


def scs_completeness_check(spin: SpinParams, quadrature: SphereQuadrature) -> float:
    """Max-norm deviation of the quadrature resolution of identity."""
    return quadrature.scs_basis(spin)[1]


def povm_conditional_states(rho12: DensityMatrix, spin: SpinParams,
                            quadrature: SphereQuadrature):
    """Angle density p(Omega) and conditional second-spin states.

    p(Omega) = (d/4pi) <Omega|rho12|Omega> traced over spin 2; the
    conditional matrices are the corresponding normalized d x d states.
    """
    d = spin.d
    amps, _ = quadrature.scs_basis(spin)
    mats = K.scs_overlaps(rho12.entries.reshape(d, d, d, d), amps)
    traces, cond_entropy = K.entropy_norm_batch(mats)
    density = d / (4.0 * np.pi) * traces
    return density, traces, cond_entropy, mats


def povm_entropy_terms(rho12: DensityMatrix, spin: SpinParams,
                       quadrature: SphereQuadrature, scale: float = 1.0):
    """The three printed hybrid-entropy pieces (angle, spin-2, joint).

    ``scale`` rescales the angle density; the mutual-information
    combination below is invariant under it, which the tests assert.
    """
    density, traces, cond_entropy, _ = povm_conditional_states(rho12, spin, quadrature)
    w = quadrature.weights
    p = scale * density
    h_angle = float(-np.sum(w * p * np.log2(p)) / scale)
    rho2 = partial_trace(rho12.entries, [spin.d, spin.d], keep=(1,))
    s_spin2 = entropy_exact(DensityMatrix(entries=rho2))
    s_joint = float(np.sum(w * p * (-np.log2(p) + cond_entropy)) / scale)
    return h_angle, s_spin2, s_joint


def povm_measure_and_classical_info(rho12: DensityMatrix, spin: SpinParams,
                                    quadrature: SphereQuadrature,
                                    completeness_tol: float = 1e-10) -> float:
    """Classical information extracted by the coherent-state POVM (bits).

    Computed as S(rho2) - integral of p(Omega) S(rho2|Omega): the angle
    entropy cancels identically between the joint and marginal terms, so
    the quadrature reference constants drop out exactly.
    """
    dev = scs_completeness_check(spin, quadrature)
    if dev > completeness_tol:
        raise QuadratureTooCoarseError(
            f"completeness deviation {dev:.3e} exceeds {completeness_tol:.1e}")
    density, _, cond_entropy, _ = povm_conditional_states(rho12, spin, quadrature)
    rho2 = partial_trace(rho12.entries, [spin.d, spin.d], keep=(1,))
    s2 = entropy_exact(DensityMatrix(entries=rho2))
    return float(s2 - np.sum(quadrature.weights * density * cond_entropy))
