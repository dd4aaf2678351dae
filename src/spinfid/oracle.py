"""Exact quantum simulation of small spin-S clusters.

Brute-force validation backend for every closed-form result: builds the
cluster Hamiltonian, evolves the deviation density matrix exactly (unitary
at all sampled times), reduces to pairs, and measures entropies,
orthogonal-measurement and coherent-state-POVM classical information.
Each quantity has one path: the oracle evolves the deviation S_x and never
forms rho(0), the pair mutual information is the exact entropy sum of
``mutual_info_numeric``, and both measurements on the first spin are
rank-1 POVMs scored by one formula, J = S(rho2) - sum_k p_k S(rho2 | k)
(Henderson & Vedral, J. Phys. A 34, 6899 (2001)). The orthogonal
measurement along an axis is the two-outcome POVM of the spin-1/2
coherent states at the axis and at its antipode.

The secular H conserves total M_z, so the oracle works in total-M_z
sectors: ``eigh`` runs on each diagonal block of a dipolar H, and S_x,
which links only adjacent sectors, is kept as rotated adjacent-sector
blocks (the symmetry-block method of QuSpin, Weinberg & Bukov, SciPost
Phys. 2, 003, 2017). An Ising H is already diagonal in the product basis,
where D(t)[x, y] = S_x[x, y] exp(-i (E_x - E_y) t), and no ``eigh`` runs.

The coherent-state POVM integrates the entropy of one conditional d x d
state per quadrature node. ``SphereQuadrature.for_spin`` sizes the rule by
the spin and its polarization: 200 nodes for spin 1/2 and 288 for spin 1
at beta = 1e-3, against 8192 at a fixed 64 x 128. The orthogonal
measurement takes two per axis. ``_kernels.scs_overlaps`` forms the
states as one GEMM per chunk of nodes,
and ``_kernels.entropy_norm_batch`` takes their entropies from closed-form
eigenvalues for d = 2 and 3 and, for d >= 4, from a power-sum series on
states near the maximally mixed one (``eigvalsh`` only for the rest).
These are generic Hermitian spectral formulas and share nothing with the
analytic modules they check.

Because the evolved state is exactly (1 + beta * D(t))/Z with D(t)
independent of beta, the FID is beta-independent and all beta scalings
can be probed from a single spectrum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels as K
from .core import SpinParams, TimeGrid
from .errors import (
    BetaTooLargeError,
    ClusterTooLargeError,
    InvalidPairError,
    InvalidSpecError,
    NonPhysicalStateError,
    QuadratureTooCoarseError,
    QuadratureTooLargeError,
    UnsupportedSpinError,
)
from .lattice import CouplingTable

DIM_GUARD = 4096
HAMILTONIAN_MODES = ("ising", "dipolar")

_HERM_TOL = 1e-12
_EIG_FLOOR = -1e-8

# axis search: the (theta, phi) orders of the coarse scan, the step
# offsets of the eight compass neighbours, and the step (rad) at which the
# search stops
_AXIS_SCAN = (32, 64)
_COMPASS = np.array([(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1) if i or j], dtype=float)
_AXIS_STEP = 1e-9
_HALF = SpinParams(1)

# largest max-norm deviation of the coherent-state resolution of identity
# that the POVM accepts from its quadrature
_COMPLETENESS_TOL = 1e-10

# most entries that a sphere quadrature may hold in its node arrays
# (n_theta * n_phi) and in the n_theta x n_theta companion matrix that
# numpy's leggauss diagonalizes: 8x the nodes of 64 x 128, a few MB
QUADRATURE_CAP = 2**16

# per-spin quadrature rule of SphereQuadrature.for_spin: n_theta = d + c
# with c = ceil(k sqrt(d / (1 - p))), d = 2S + 1, p = 2S beta, and
# n_phi = 2 n_theta; k is a measured fit. The smallest c at which
# |J_c - J_ref| stays within 3e-15 bits at every larger c was, worst over
# the two-site Ising pair and 3 random circulant Ising clusters and 1
# random dipolar cluster of dimension <= 600 (the pair alone for 2S >= 8),
# 4-5 random times in [0.05, 6] each; J_ref is at 64 x 128, or at
# (d + 46) x 2(d + 46) for 2S >= 8:
#
#   2S \ p   3e-3  0.1  0.3  0.5  0.7  0.9  0.95  0.98
#   1         1     2    4    6    9    16   22    36
#   2         1     4    6    8    10   13   19    21
#   3         1     5    6    10   12   12   20    24
#   4         0     4    9    11   13   16   15    17
#   5         0     5    8    12   14   17   18    18
#   6         0     6    10   12   15   18   17    23
#   8         0     5    9    14   14   19   20 (p = 0.97)
#   10        0     5    11   13   17   19   22 (p = 0.97)
#   14        0     -    11   14   17   19   -
#
# The worst state is mostly the two-site pair. No fixed offset fits: near
# the guard c grows as 1/sqrt(1 - p) (c sqrt(1 - p) = 5.1 for spin 1/2 at
# p = 0.9-0.98), and at p = 0.3-0.7 it grows with S. Every entry is at
# most 3.6 sqrt(d / (1 - p)), so k = 5 puts each c at least 39% above it.
_RULE_K = 5.0
QUADRATURE_RULE = f"2S + 1 + ceil({_RULE_K:g} sqrt((2S + 1) / (1 - 2S beta)))"


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


def _hamiltonian_terms(spin: SpinParams, table: CouplingTable,
                       mode: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Diagonal of the secular coupling Hamiltonian, and the rows, columns
    and values of its flip-flop nonzeros above the diagonal (none in Ising
    mode).

    The pair sum runs over ordered index pairs, so each unordered pair
    {i, j} contributes 2 b_ij S_zi S_zj (plus the flip-flop part with
    a_ij in dipolar mode). This convention is what makes the product FID
    formula hold with the stored b matrix.

    Entries are found by basis-state index: the Ising part is diagonal,
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
    diag = np.zeros(dim)
    rows, cols, vals = [np.empty(0, dtype=int)], [np.empty(0, dtype=int)], [np.empty(0)]
    for i in range(n):
        for j in range(i + 1, n):
            diag += 2.0 * table.b[i, j] * m[i] * m[j]
            if mode == "dipolar":
                # columns where site i can be raised and site j lowered
                col = np.flatnonzero((k[i] > 0) & (k[j] < d - 1))
                ki, kj = k[i, col], k[j, col]
                rows.append(col - strides[i] + strides[j])
                cols.append(col)
                vals.append(table.a[i, j] * (ops.s_plus[ki - 1, ki] * ops.s_minus[kj + 1, kj]))
    return diag, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def build_hamiltonian(spin: SpinParams, table: CouplingTable, mode: str) -> np.ndarray:
    """Secular coupling Hamiltonian of the cluster, real and dense, from
    the entries of ``_hamiltonian_terms``."""
    diag, rows, cols, vals = _hamiltonian_terms(spin, table, mode)
    ham = np.diag(diag)
    ham[rows, cols] = ham[cols, rows] = vals
    return ham


def _sx_nonzeros(spin: SpinParams, n_sites: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and values of the nonzeros of sum_i S_xi above the
    diagonal: S_xi links each state whose site i can be raised (k > 0) to
    the state one index stride of site i lower."""
    ops = build_spin_operators(spin)
    k, strides = _site_indices(spin.d, n_sites)
    cols = [np.flatnonzero(k[i] > 0) for i in range(n_sites)]
    rows = [col - stride for col, stride in zip(cols, strides)]
    vals = [ops.sx[k[i, col] - 1, k[i, col]] for i, col in enumerate(cols)]
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def total_sx(spin: SpinParams, n_sites: int) -> np.ndarray:
    """Total transverse spin sum_i S_xi, real and dense."""
    rows, cols, vals = _sx_nonzeros(spin, n_sites)
    sx = np.zeros((spin.d**n_sites,) * 2)
    sx[rows, cols] = sx[cols, rows] = vals
    return sx


def _mz_sectors(d: int, n_sites: int) -> list[np.ndarray]:
    """Product-basis indices of each total-M_z sector, in basis order.

    Sector q holds the states whose site indices k (m = S - k) sum to q,
    so its total M_z is N S - q; q runs from 0 to N (d - 1).
    """
    q = _site_indices(d, n_sites)[0].sum(axis=0)
    return np.split(np.argsort(q, kind="stable"), np.cumsum(np.bincount(q))[:-1])


def _sector_blocks(sectors: list[np.ndarray], rows: np.ndarray, cols: np.ndarray,
                   vals: np.ndarray, shift: int) -> list[np.ndarray]:
    """Dense blocks [q, q + shift] of a matrix given by its nonzeros, each
    of which links a row in some sector q to a column in sector q + shift;
    rows and columns of a block are in basis order, as in ``_mz_sectors``."""
    sector = np.empty(sum(s.size for s in sectors), dtype=int)
    place = np.empty_like(sector)
    for q, s in enumerate(sectors):
        sector[s], place[s] = q, np.arange(s.size)
    blocks = []
    for q in range(len(sectors) - shift):
        blk = np.zeros((sectors[q].size, sectors[q + shift].size))
        mine = sector[rows] == q
        blk[place[rows[mine]], place[cols[mine]]] = vals[mine]
        blocks.append(blk)
    return blocks


@dataclass(frozen=True, eq=False)
class EvolvedCluster:
    """One cluster in an eigenbasis of H, reusable across times and observables.

    S_x is held only as blocks B between eigenstates of H: with
    p = exp(-i E t) on a block's row and column eigenstates, the evolved
    exp(-iHt) S_x exp(iHt) is the sum over blocks of V_r (p_r B p_c^*) V_c^T
    and of its conjugate transpose.

    - Dipolar: H conserves total M_z, so it is block diagonal over the
      sectors of ``_mz_sectors``, and S_x links only sectors q and q + 1.
      ``eigh`` runs on each sector, and each adjacent pair holds one dense
      block B_q = V_q^T S_x[q, q+1] V_{q+1}. No dense dim x dim eigenvector
      matrix or rotated S_x is held.
    - Ising: H is diagonal in the product basis, so no diagonalization runs
      and there is no V. The one block is the list of nonzeros of the upper
      triangle of S_x, each evolved by its own phase.
    """

    spin: SpinParams
    table: CouplingTable
    mode: str
    # product-basis row and column indices of each block, and their
    # energies, shaped to broadcast to the block: as from np.ix_ for a dense
    # block, as aligned 1-D arrays for a list of nonzeros
    index: tuple[tuple[np.ndarray, np.ndarray], ...] = field(repr=False)
    energies: tuple[tuple[np.ndarray, np.ndarray], ...] = field(repr=False)
    # eigenvectors (V_r, V_c) of each block's row and column sectors; None
    # when H is diagonal in the product basis (Ising mode)
    vecs: tuple[tuple[np.ndarray, np.ndarray], ...] | None = field(repr=False)
    sx_blocks: tuple[np.ndarray, ...] = field(repr=False)

    @classmethod
    def build(cls, spin: SpinParams, table: CouplingTable, mode: str) -> "EvolvedCluster":
        diag, rows, cols, vals = _hamiltonian_terms(spin, table, mode)
        if mode == "ising":
            rows, cols, vals = _sx_nonzeros(spin, table.n_sites)
            return cls(spin=spin, table=table, mode=mode, index=((rows, cols),),
                       energies=((diag[rows], diag[cols]),), vecs=None, sx_blocks=(vals,))
        # H's sector blocks and S_x's adjacent-sector blocks are filled from
        # their nonzeros; neither matrix is formed densely
        sectors = _mz_sectors(spin.d, table.n_sites)
        every = np.arange(diag.size)
        ham = _sector_blocks(sectors, np.concatenate([every, rows, cols]),
                             np.concatenate([every, cols, rows]),
                             np.concatenate([diag, vals, vals]), shift=0)
        sx = _sector_blocks(sectors, *_sx_nonzeros(spin, table.n_sites), shift=1)
        eigs = [np.linalg.eigh(h) for h in ham]
        links = range(len(sectors) - 1)
        vecs = tuple((eigs[q][1], eigs[q + 1][1]) for q in links)
        return cls(spin=spin, table=table, mode=mode,
                   index=tuple(np.ix_(sectors[q], sectors[q + 1]) for q in links),
                   energies=tuple((eigs[q][0][:, None], eigs[q + 1][0][None, :]) for q in links),
                   vecs=vecs,
                   sx_blocks=tuple(v_r.T @ blk @ v_c for (v_r, v_c), blk in zip(vecs, sx)))

    @property
    def n_sites(self) -> int:
        return self.table.n_sites

    def _evolved_blocks(self, t: float):
        """Each block of exp(-iHt) S_x exp(iHt) in the product basis, with its
        row and column indices; the conjugate transposes are not listed."""
        for k, ((rows, cols), (e_r, e_c), blk) in enumerate(
                zip(self.index, self.energies, self.sx_blocks)):
            mat = np.exp(-1j * t * e_r) * blk * np.exp(1j * t * e_c)
            if self.vecs is not None:
                # two real products: faster than one complex-by-real product
                v_r, v_c = self.vecs[k]
                mat = v_r @ mat.real @ v_c.T + 1j * (v_r @ mat.imag @ v_c.T)
            yield rows, cols, mat

    def deviation(self, t: float) -> np.ndarray:
        """Evolved transverse magnetization exp(-iHt) S_x exp(iHt), dense in
        the product basis."""
        dim = self.spin.d ** self.n_sites
        dev = np.zeros((dim, dim), dtype=complex)
        for rows, cols, mat in self._evolved_blocks(t):
            dev[rows, cols] = mat
            dev[cols.T, rows.T] = mat.T.conj()
        return dev

    def fid(self, grid: TimeGrid) -> np.ndarray:
        """Normalized Tr{S_x rho(t)} / Tr{S_x rho(0)}; beta-independent."""
        weights, freqs, norm = [], [], 0.0
        for (e_r, e_c), blk in zip(self.energies, self.sx_blocks):
            w2 = blk**2
            norm += 2.0 * float(np.sum(w2))  # Tr S_x^2: each block and its transpose
            # each entry is one line of weight 2 w2; lines of weight <= 1e-18
            # are dropped
            keep = w2 > 1e-18 / 2
            weights.append(2.0 * w2[keep])
            freqs.append((e_r - e_c)[keep])
        return K.cos_sum(np.concatenate(weights), np.concatenate(freqs), grid.times) / norm

    def pair_deviation(self, t: float, pair: tuple[int, int]) -> np.ndarray:
        """Reduced deviation matrix: the pair state is (1 + beta D)/d^2.

        The trace over the other sites is taken block by block: an entry
        of D(t) contributes only where its row and column states agree on
        every site outside the pair. The dense D(t) is never formed.
        """
        i, j = pair
        if i == j:
            raise InvalidPairError("pair indices must differ")
        if not (0 <= i < self.n_sites and 0 <= j < self.n_sites):
            raise InvalidPairError("pair index out of range")
        d = self.spin.d
        k, strides = _site_indices(d, self.n_sites)
        # each basis state's index in the pair space, and in the rest
        inner = k[i] * d + k[j]
        outer = np.arange(k.shape[1]) - k[i] * strides[i] - k[j] * strides[j]
        size = d**4
        reduced = np.zeros(size, dtype=complex)
        for rows, cols, mat in self._evolved_blocks(t):
            same = outer[rows] == outer[cols]
            slot = (inner[rows] * d**2 + inner[cols])[same]
            kept = mat[same]
            reduced += (np.bincount(slot, kept.real, size)
                        + 1j * np.bincount(slot, kept.imag, size))
        reduced = reduced.reshape(d**2, d**2)
        return (reduced + reduced.conj().T) / d ** (self.n_sites - 2)

    def pair_density(self, t: float, pair: tuple[int, int], beta: float) -> DensityMatrix:
        _beta_guard(self.spin, 2, beta)
        dev = self.pair_deviation(t, pair)
        d2 = self.spin.d ** 2
        return DensityMatrix(entries=(np.eye(d2) + beta * dev) / d2)


def _beta_guard(spin: SpinParams, n_sites: int, beta: float) -> None:
    if beta * spin.s * n_sites >= 1.0:
        raise BetaTooLargeError(
            f"beta*S*N = {beta * spin.s * n_sites:.3g} >= 1 would break positivity")


def _marginals(mat: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The two one-site marginals of a d^2 x d^2 pair matrix."""
    pair = mat.reshape(d, d, d, d)
    return np.trace(pair, axis1=1, axis2=3), np.trace(pair, axis1=0, axis2=2)


def entropy_exact(rho: DensityMatrix) -> float:
    """Eigenvalue-based von Neumann entropy in bits (0 log 0 = 0)."""
    w = np.linalg.eigvalsh(rho.entries)
    if w[0] < _EIG_FLOOR:
        raise NonPhysicalStateError(f"negative eigenvalue {w[0]:.3e}")
    w = w[w > 0.0]
    return float(-np.sum(w * np.log2(w)))


def mutual_info_numeric(rho12: DensityMatrix) -> float:
    """Exact pair mutual information S(rho1) + S(rho2) - S(rho12) in bits.

    Both members have the same dimension d, so rho12 is d^2 x d^2.
    """
    mat = rho12.entries
    d = math.isqrt(mat.shape[0])
    if d * d != mat.shape[0]:
        raise InvalidSpecError("pair matrix dimension is not a perfect square")
    rho1, rho2 = _marginals(mat, d)
    return (
        entropy_exact(DensityMatrix(entries=rho1))
        + entropy_exact(DensityMatrix(entries=rho2))
        - entropy_exact(rho12)
    )


# -- orthogonal (von Neumann) measurement on spin 1/2 --------------------------

def _axis_info(rho4: np.ndarray, s2: float, theta, phi) -> np.ndarray:
    """Information J(n) gained on the second spin by measuring the first
    along each axis n at polar angles theta and azimuths phi.

    The measurement is the two-outcome POVM of the spin-1/2 coherent states
    at n and at its antipode (pi - theta, phi + pi), so J(n) = S(rho2) -
    sum_(+-) p_(+-) S(rho2 | +-n). An outcome of probability zero (theta = 0
    on a pure first marginal) adds nothing.
    """
    amps = scs_amplitudes(_HALF, np.concatenate([theta, np.pi - theta]),
                          np.concatenate([phi, phi + np.pi]))
    mats = K.scs_overlaps(rho4, amps)
    live = np.einsum("ncc->n", mats).real > 0.0
    terms = np.zeros(live.size)
    terms[live] = np.prod(K.entropy_norm_batch(mats[live]), axis=0)
    return s2 - terms.reshape(2, -1).sum(axis=0)


def classical_info_von_neumann(rho12: DensityMatrix) -> tuple[float, np.ndarray]:
    """Maximize post-measurement mutual information over the unit sphere.

    A coarse _AXIS_SCAN (theta x phi) scan, then a compass search on
    (theta, phi): it moves to the best of the eight neighbours one step
    away while one beats the current axis, else halves the steps, down to
    _AXIS_STEP rad. Every axis is scored by ``_axis_info``. Returns
    (classical info, best direction).
    """
    if rho12.dim != 4:
        raise UnsupportedSpinError("direction search is implemented for a spin-1/2 pair (dim 4)")
    rho4 = rho12.entries.reshape(2, 2, 2, 2)
    s2 = entropy_exact(DensityMatrix(entries=_marginals(rho12.entries, 2)[1]))

    n_theta, n_phi = _AXIS_SCAN
    thetas = (np.arange(n_theta) + 0.5) * np.pi / n_theta
    phis = 2.0 * np.pi * np.arange(n_phi) / n_phi
    th, ph = (a.ravel() for a in np.meshgrid(thetas, phis, indexing="ij"))
    info = _axis_info(rho4, s2, th, ph)
    best = int(np.argmax(info))
    angles, value = np.array([th[best], ph[best]]), info[best]

    step = np.array([np.pi / n_theta, 2.0 * np.pi / n_phi])
    while step.max() > _AXIS_STEP:
        cand = angles + _COMPASS * step
        vals = _axis_info(rho4, s2, cand[:, 0], cand[:, 1])
        k = int(np.argmax(vals))
        if vals[k] > value:
            angles, value = cand[k], vals[k]
        else:
            step /= 2.0
    theta, phi = angles
    return float(value), np.array([np.sin(theta) * np.cos(phi),
                                   np.sin(theta) * np.sin(phi), np.cos(theta)])


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


@functools.lru_cache(maxsize=8)
def _sphere_nodes(n_theta: int, n_phi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (theta, phi, weight) arrays of the product quadrature."""
    u, wu = np.polynomial.legendre.leggauss(n_theta)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    nodes = (np.repeat(np.arccos(u), n_phi), np.tile(phi, n_theta),
             np.repeat(wu, n_phi) * (2.0 * np.pi / n_phi))
    for a in nodes:
        a.flags.writeable = False
    return nodes


@functools.lru_cache(maxsize=32)
def _scs_basis(n_theta: int, n_phi: int, two_s: int) -> tuple[np.ndarray, float]:
    """Read-only coherent-state amplitudes on the nodes, and the max-norm
    deviation of their quadrature resolution of identity."""
    spin = SpinParams(two_s)
    theta, phi, weights = _sphere_nodes(n_theta, n_phi)
    amps = scs_amplitudes(spin, theta, phi)
    gram = np.einsum("n,na,nb->ab", weights, amps, amps.conj())
    gram *= spin.d / (4.0 * np.pi)
    amps.flags.writeable = False
    return amps, float(np.max(np.abs(gram - np.eye(spin.d))))


@dataclass(frozen=True)
class SphereQuadrature:
    """Gauss-Legendre (in cos theta) x uniform-phi product quadrature.

    Exact for trigonometric polynomials of degree < 2 n_theta in cos
    theta and below n_phi in the azimuth, so it resolves the identity with
    coherent-state projectors (degree 2S) once n_theta > S and
    n_phi >= 2S + 1; ``for_spin`` always meets both. Orders are capped by
    QUADRATURE_CAP. Nodes and coherent-state amplitudes are cached per
    (n_theta, n_phi, 2S) at module level, as read-only arrays, so threads
    can share one quadrature.
    """

    n_theta: int
    n_phi: int

    def __post_init__(self):
        if self.n_theta < 1 or self.n_phi < 1:
            raise InvalidSpecError("quadrature orders must be positive")
        if self.n_theta * max(self.n_theta, self.n_phi) > QUADRATURE_CAP:
            raise InvalidSpecError(
                f"quadrature {self.n_theta} x {self.n_phi} exceeds the cap of {QUADRATURE_CAP} "
                "entries in n_theta * max(n_theta, n_phi)")

    @classmethod
    def for_spin(cls, spin: SpinParams) -> "SphereQuadrature":
        """The order that scores the POVM on a pair state (1 + beta D)/d^2 at
        beta = spin.beta to roundoff: the QUADRATURE_RULE.

        It is sized by d = 2S + 1 and by p = 2S beta, the product that
        ``_beta_guard`` bounds. p bounds the polarization beta ||D(t)|| of
        the oracle's pair states. A coherent-state projector has angular
        degree 2S (Agarwal, Phys. Rev. A 24, 2889 (1981)), and the
        conditional entropy is analytic on the sphere, so the product rule
        converges geometrically (Atkinson, J. Austral. Math. Soc. B 23, 332
        (1982)), the more slowly the closer p is to 1. A rule over
        QUADRATURE_CAP (p within a few 1e-3 of the guard for 2S <= 6)
        raises QuadratureTooLargeError; no coarser order stands in.
        """
        _beta_guard(spin, 2, spin.beta)
        d = spin.d
        n_theta = d + math.ceil(_RULE_K * math.sqrt(d / (1.0 - spin.two_s * spin.beta)))
        if 2 * n_theta**2 > QUADRATURE_CAP:
            raise QuadratureTooLargeError(
                f"the quadrature rule {n_theta} x {2 * n_theta} for 2S = {spin.two_s}, "
                f"beta = {spin.beta:.6g} exceeds the cap of {QUADRATURE_CAP} nodes")
        return cls(n_theta, 2 * n_theta)


def scs_completeness_check(spin: SpinParams, quadrature: SphereQuadrature) -> float:
    """Max-norm deviation of the quadrature resolution of identity."""
    return _scs_basis(quadrature.n_theta, quadrature.n_phi, spin.two_s)[1]


def povm_measure_and_classical_info(rho12: DensityMatrix, spin: SpinParams,
                                    quadrature: SphereQuadrature) -> float:
    """Classical information extracted by the coherent-state POVM (bits).

    Computed as S(rho2) - integral of p(Omega) S(rho2|Omega), with the
    angle density p(Omega) = (d/4pi) Tr <Omega|rho12|Omega> and the
    normalized conditional d x d states of spin 2: the angle entropy
    cancels identically between the joint and marginal terms, so the
    quadrature reference constants drop out exactly.
    """
    d = spin.d
    if rho12.dim != d * d:
        raise InvalidSpecError(f"pair matrix dimension {rho12.dim} does not fit spin "
                               f"{spin.s:g} (needs {d * d})")
    amps, dev = _scs_basis(quadrature.n_theta, quadrature.n_phi, spin.two_s)
    if dev > _COMPLETENESS_TOL:
        raise QuadratureTooCoarseError(
            f"completeness deviation {dev:.3e} exceeds {_COMPLETENESS_TOL:.1e}")
    mats = K.scs_overlaps(rho12.entries.reshape(d, d, d, d), amps)
    traces, cond_entropy = K.entropy_norm_batch(mats)
    density = d / (4.0 * np.pi) * traces
    s2 = entropy_exact(DensityMatrix(entries=_marginals(rho12.entries, d)[1]))
    weights = _sphere_nodes(quadrature.n_theta, quadrature.n_phi)[2]
    return float(s2 - np.sum(weights * density * cond_entropy))
