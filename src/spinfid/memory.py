"""Memory-function machinery for the full dipolar Hamiltonian.

The transverse magnetization is expanded over a chain of orthogonal
operators; the expansion amplitudes obey a closed tridiagonal linear
system whose coefficients v_k^2 follow from the spectral moments. The FID
is the k = 0 amplitude, and the pair mutual information follows from its
derivative.

Sign convention: with A_0(0) = 1 the consistent system is

    dA_0/dt = v_0^2 A_1,      dA_k/dt = -A_{k-1} + v_k^2 A_{k+1},

fixed by requiring A_0''(0) = -v_0^2 (so A_0 = 1 - M2 t^2/2 + ...), which
for a single-level truncation gives A_0 = cos(v_0 t). In the normalized
variables y_k = A_k prod_{j<k} v_j the generator is skew symmetric, i times
the tridiagonal T with off-diagonals v_k up to a diagonal similarity, so
one eigendecomposition of T solves it exactly as a sum of spectral lines
(the recursion method: Viswanath and Mueller, Springer 1994), and
|A_0| <= 1 is structural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import SpinParams, TimeGrid
from .errors import (
    ClusterTooLargeError,
    InvalidSpecError,
    NonPhysicalMomentsError,
    NumericalError,
)
from .oracle import DIM_GUARD, DensityMatrix, build_spin_operators

LN2 = math.log(2.0)

CLOSURES = ("truncate_zero", "gaussian_tail")
DEFAULT_K_EXT = 64


@dataclass(frozen=True)
class MomentSet:
    """Second, fourth, and sixth moments of the absorption line.

    Positivity of the underlying spectral density requires m4 >= m2^2 and
    m2 m6 >= m4^2; violations would yield negative chain coefficients.
    """

    m2: float
    m4: float
    m6: float

    def __post_init__(self):
        if not self.m2 > 0:
            raise NonPhysicalMomentsError(f"m2 must be positive, got {self.m2!r}")
        if self.m4 < self.m2**2:
            raise NonPhysicalMomentsError("m4 < m2^2 violates spectral positivity")
        if self.m2 * self.m6 < self.m4**2:
            raise NonPhysicalMomentsError("m2*m6 < m4^2 violates spectral positivity")

    @classmethod
    def gaussian(cls, m2: float) -> "MomentSet":
        """Moments of a Gaussian line with second moment m2."""
        return cls(m2=m2, m4=3.0 * m2**2, m6=15.0 * m2**3)


@dataclass(frozen=True)
class Hierarchy:
    """Chain coefficients v_k^2 (k = 0..K) plus the closure rule."""

    vk2: tuple
    closure: str = "gaussian_tail"

    def __post_init__(self):
        vk2 = tuple(float(v) for v in self.vk2)
        if len(vk2) < 2:
            raise InvalidSpecError("hierarchy needs at least v_0^2 and v_1^2 (K >= 1)")
        if any(v < 0 for v in vk2):
            raise InvalidSpecError("all v_k^2 must be nonnegative")
        if self.closure not in CLOSURES:
            raise InvalidSpecError(f"closure must be one of {CLOSURES}, got {self.closure!r}")
        object.__setattr__(self, "vk2", vk2)

    @property
    def K(self) -> int:
        return len(self.vk2) - 1

    def extended(self, k_ext: int = DEFAULT_K_EXT) -> np.ndarray:
        """Coefficient list actually solved, per the closure rule.

        ``truncate_zero`` keeps the list as is (the next amplitude is
        pinned to zero); ``gaussian_tail`` continues the last increment
        linearly up to k_ext entries, clipped at zero, matching the
        asymptotically linear growth of Gaussian-like lines. A chain of
        more than DIM_GUARD levels raises ClusterTooLargeError.
        """
        base = np.asarray(self.vk2, dtype=float)
        size = base.size if self.closure == "truncate_zero" else max(base.size, k_ext)
        if size > DIM_GUARD:
            raise ClusterTooLargeError(f"chain of {size} levels exceeds the guard {DIM_GUARD}")
        step = base[-1] - base[-2]
        tail = base[-1] + step * np.arange(1, size - base.size + 1)
        return np.concatenate([base, np.clip(tail, 0.0, None)])


def dipolar_m2(spin: SpinParams, sum_b2: float) -> float:
    """Second moment 3 S(S+1) sum_j b_ij^2 of the full dipolar line."""
    return 3.0 * spin.casimir * sum_b2


def vk_from_moments(moments: MomentSet, closure: str = "gaussian_tail") -> Hierarchy:
    """Chain coefficients v_0^2, v_1^2, v_2^2 from spectral moments.

    The moments are used verbatim, so Ising-limit moment sets feed through
    unchanged.
    """
    m2, m4, m6 = moments.m2, moments.m4, moments.m6
    v0 = m2
    v1 = (m4 - m2**2) / m2
    if v1 == 0.0:
        # delta-like line: the chain ends; keep a zero coefficient
        return Hierarchy(vk2=(v0, 0.0), closure="truncate_zero")
    v2 = (m2 * m6 - m4**2) / ((m4 - m2**2) * m2)
    if v2 < 0:
        raise NonPhysicalMomentsError("moments give a negative v_2^2")
    return Hierarchy(vk2=(v0, v1, v2), closure=closure)


@dataclass
class AmplitudeSolution:
    """Amplitudes A_k(t) on a time grid; row 0 is the FID."""

    grid: TimeGrid
    a: np.ndarray = field(repr=False)
    vk2: tuple = ()

    def __post_init__(self):
        if abs(self.a[0, 0] - 1.0) > 1e-12 or np.max(np.abs(self.a[1:, 0])) > 1e-12:
            raise NumericalError("amplitude initial conditions violated")
        if np.max(np.abs(self.a[0])) > 1.0 + 1e-9:
            raise NumericalError("|A_0| exceeded 1 beyond tolerance")


def solve_amplitudes(h: Hierarchy, grid: TimeGrid,
                     k_ext: int = DEFAULT_K_EXT) -> AmplitudeSolution:
    """Exact amplitudes of the chain on the grid.

    With T = U diag(lambda) U^T the tridiagonal matrix with off-diagonals
    v_k of ``h.extended(k_ext)`` (at most DIM_GUARD levels, one dense
    ``eigh``), y_k(t) = Re(i^k sum_p U_kp U_0p exp(i lambda_p t)). Even rows
    take the form delta_k0 - 2 sum_p U_kp U_0p sin^2(lambda_p t / 2), so
    A(0) = e_0 holds exactly however small the v_k are. Rows 0..K of the
    result hold the amplitudes of the user-visible hierarchy levels.
    """
    t = grid.times
    if t[0] != 0.0:
        raise InvalidSpecError("amplitude grid must start at t = 0")
    vk2 = h.extended(k_ext)
    # levels 0..len(vk2)-1 are kept and the next amplitude is pinned to
    # zero, so the last v_k^2 never acts as a coupling
    c = np.sqrt(vk2[:-1])
    lam, u = np.linalg.eigh(np.diag(c, 1) + np.diag(c, -1))
    weights = u[: h.K + 1] * u[0]
    y = np.empty((h.K + 1, t.size))
    chunk = max(1, int(4e6) // lam.size)
    for lo in range(0, t.size, chunk):
        half = np.multiply.outer(lam / 2.0, t[lo:lo + chunk])
        y[0::2, lo:lo + chunk] = -2.0 * (weights[0::2] @ np.sin(half) ** 2)
        y[1::2, lo:lo + chunk] = weights[1::2] @ np.sin(2.0 * half)
    y[0] += 1.0
    # the sums are Re z_k (even k) and Im z_k (odd k); y_k = Re(i^k z_k)
    # adds the signs +, -, -, + for k = 0, 1, 2, 3 (mod 4)
    y *= (-1.0) ** ((np.arange(h.K + 1)[:, None] + 1) // 2)
    # back to the unnormalized amplitudes: A_k = y_k / prod_{j<k} v_j, for
    # the returned rows only (the full product overflows at large k_ext)
    norms = np.concatenate([[1.0], np.cumprod(c[: h.K])])[:, None]
    amp = np.divide(y, norms, out=np.zeros_like(y), where=norms > 0.0)
    return AmplitudeSolution(grid=grid, a=amp, vk2=tuple(vk2))


def fid_dipolar(sol: AmplitudeSolution) -> np.ndarray:
    """The FID is the level-0 amplitude."""
    return sol.a[0]


def fid_derivative(sol: AmplitudeSolution) -> np.ndarray:
    """dF/dt from the chain state (v_0^2 A_1)."""
    return sol.vk2[0] * sol.a[1]


def mutual_info_dipolar(spin: SpinParams, b_ij: float, m2: float,
                        fid_derivative: float, beta: float):
    """Pair mutual information from the FID slope (bits).

    Evaluates beta^2 b^2 / (M2^2 ln 2) * [S(S+1) F'(t)]^2, which is the
    amplitude form beta^2/(9 ln 2) * [S(S+1) B A_1]^2 with A_1 = F'/M2 and
    pair constant B = -3 b.
    """
    if not m2 > 0:
        raise InvalidSpecError("m2 must be positive")
    fdot = np.asarray(fid_derivative, dtype=float)
    val = beta**2 * b_ij**2 / (m2**2 * LN2) * (spin.casimir * fdot) ** 2
    return val if fdot.ndim else float(val)


def total_information(spin: SpinParams, beta: float, a0):
    """All-order correlation measure (beta^2/3 ln 2) S(S+1) (1 - A_0^2).

    Computed per spin; zero at t = 0 and saturating once the FID has
    decayed. ``a0`` may be scalar or an array of FID values.
    """
    a0 = np.asarray(a0, dtype=float)
    if np.max(np.abs(a0)) > 1.0 + 1e-9:
        raise InvalidSpecError("|A_0| must not exceed 1")
    val = beta**2 / (3.0 * LN2) * spin.casimir * (1.0 - a0**2)
    return val if a0.ndim else float(val)


def reduced_pair_matrix_dipolar(spin: SpinParams, a0: float, a1: float,
                                b_ij: float, beta: float) -> DensityMatrix:
    """Two-level-truncated reduced pair density matrix.

    Assembles (1/d^2){1 + beta A_0 (S_xi + S_xj) + beta A_1 B (S_yi S_zj +
    S_yj S_zi)} with B = -3 b_ij; tracing out either spin leaves the
    one-spin matrix (1/d){1 + beta A_0 S_x}.
    """
    ops = build_spin_operators(spin)
    d = spin.d
    eye = np.eye(d)
    big = -3.0 * b_ij
    mat = (
        np.eye(d * d, dtype=complex)
        + beta * a0 * (np.kron(ops.sx, eye) + np.kron(eye, ops.sx))
        + beta * a1 * big * (np.kron(ops.sy, ops.sz) + np.kron(ops.sz, ops.sy))
    ) / d**2
    return DensityMatrix(entries=mat)
