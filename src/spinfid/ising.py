"""Closed-form results for the Ising limit (flip-flop couplings off).

With only z-z couplings the evolution factorizes, the probe-spin FID is a
product of Dirichlet-kernel factors, and the induced pair correlations
split into classical and quantum parts in closed form for any spin S.
All correlation outputs carry the explicit beta^2 prefactor so they can
be compared with the exact-simulation oracle without renormalization.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _kernels as K
from .core import SpinParams, TimeGrid, double_factorial
from .errors import (
    InvalidSpecError,
    NonEquivalentSitesError,
    UnsupportedSpinError,
)
from .oracle import build_spin_operators

LN2 = math.log(2.0)

_SMALL_TIME_WARN = 0.3  # |b t| beyond this makes the leading-order formulas poor


def _as_grid(t):
    return np.atleast_1d(np.asarray(t, dtype=float)), np.isscalar(t) or np.ndim(t) == 0


def _ret(values, scalar):
    return float(values[0]) if scalar else values


@dataclass(frozen=True)
class PairContext:
    """A chosen spin pair with its direct coupling and environments.

    ``other_couplings_i``/``_j`` list the couplings of each pair member to
    every spin outside the pair; for equivalent lattice sites the two lists
    agree as multisets and the symmetric formulas apply.
    """

    spin: SpinParams
    b_ij: float
    other_couplings_i: tuple = ()
    other_couplings_j: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "other_couplings_i", tuple(float(b) for b in self.other_couplings_i))
        object.__setattr__(self, "other_couplings_j", tuple(float(b) for b in self.other_couplings_j))

    @classmethod
    def from_table(cls, spin: SpinParams, table, i: int, j: int) -> "PairContext":
        if i == j:
            raise InvalidSpecError("pair needs two distinct sites")
        bi, bj = table.pair_environment(i, j)
        return cls(spin=spin, b_ij=float(table.b[i, j]),
                   other_couplings_i=tuple(bi), other_couplings_j=tuple(bj))

    @property
    def equivalent(self) -> bool:
        """Whether both environments agree as multisets, to 1e-12 of the largest |b|."""
        a = np.sort(np.asarray(self.other_couplings_i))
        b = np.sort(np.asarray(self.other_couplings_j))
        scale = np.max(np.abs(np.concatenate([[self.b_ij], a, b])))
        return a.shape == b.shape and bool(np.all(np.abs(a - b) <= 1e-12 * scale))


def coupling_fid_factor(spin: SpinParams, b_ij: float, t):
    """Single-neighbor FID factor sin(d b t)/(d sin b t).

    Evaluated as 1 - (4/d) sum_{0 < m <= S} sin^2(m b t), which is regular
    everywhere: at the removable singularities b t = k pi it gives the limit
    (-1)^(k(d-1)) without a special case. For spin 1/2 it is cos(b t).
    """
    x, scalar = _as_grid(t)
    return _ret(K.dirichlet_ratio(spin.d, b_ij * x), scalar)


def environment_factor(ctx: PairContext, t):
    """Attenuation from all spins outside the pair (empty product = 1).

    Requires equivalent environments; otherwise the symmetric pair
    formulas do not apply and NonEquivalentSitesError is raised.
    """
    if not ctx.equivalent:
        raise NonEquivalentSitesError(
            "pair environments differ (other_couplings_i and _j are not the same "
            "multiset); the symmetric pair formulas need equivalent sites")
    x, scalar = _as_grid(t)
    return _ret(K.fid_product(ctx.spin.d, np.asarray(ctx.other_couplings_i), x), scalar)


def _povm_overlap_coeffs(two_s: int) -> np.ndarray:
    # coefficients of sum_n C(2S,n) (2n)!!/(2n+1)!! (-1)^n s^(2n)
    return np.array([
        math.comb(two_s, n) * double_factorial(2 * n) / double_factorial(2 * n + 1) * (-1.0) ** n
        for n in range(two_s + 1)
    ])


def povm_overlap_factor(spin: SpinParams, b_ij: float, t):
    """Finite overlap sum entering the coherent-state classical share.

    A degree-2S polynomial in sin^2(b t); equals 1 - (2/3) sin^2(b t) for
    spin 1/2.
    """
    x, scalar = _as_grid(t)
    coeffs = _povm_overlap_coeffs(spin.two_s)
    return _ret(K.poly_in_sin2(coeffs, b_ij * x), scalar)


def fid_zz(spin: SpinParams, couplings, t):
    """Probe-spin FID: product of single-neighbor factors over couplings."""
    couplings = np.atleast_1d(np.asarray(couplings, dtype=float))
    if couplings.size == 0:
        raise InvalidSpecError("fid_zz needs at least one coupling")
    x, scalar = _as_grid(t)
    return _ret(K.fid_product(spin.d, couplings, x), scalar)


def fid_zz_deficit(spin: SpinParams, couplings, t):
    """fid_zz(t) - 1 evaluated without cancellation near t = 0.

    Used for extracting spectral moments by finite differences, where the
    direct form loses all significant digits.
    """
    couplings = np.atleast_1d(np.asarray(couplings, dtype=float))
    x, scalar = _as_grid(t)
    return _ret(K.fid_deficit(spin.d, couplings, x), scalar)


def fid_zz_lattice(spin: SpinParams, table, t):
    """Site-averaged FID over all probe choices.

    Equals the single product formula when all sites are equivalent; this
    is the quantity the total-magnetization oracle measures for arbitrary
    coupling tables.
    """
    x, scalar = _as_grid(t)
    return _ret(K.lattice_fid(spin.d, table.b, x), scalar)


def fid_gaussian(spin: SpinParams, sum_b2: float, t):
    """Large-neighbor-number Gaussian FID exp(-M2 t^2 / 2)."""
    if sum_b2 < 0:
        raise InvalidSpecError("sum of squared couplings must be nonnegative")
    x, scalar = _as_grid(t)
    m2 = 4.0 * spin.casimir / 3.0 * sum_b2
    return _ret(np.exp(-0.5 * m2 * x**2), scalar)


def moments_zz(spin: SpinParams, sum_b2: float, sum_b4: float):
    """Second and fourth FID moments, plus the Gaussian reference 3*M2^2.

    Returns (m2, m4, m4_gauss). The fourth-moment defect m4_gauss - m4 is
    a single lattice sum, so its relative size shrinks like 1/V with the
    number of equivalent neighbors.
    """
    if sum_b2 < 0 or sum_b4 < 0:
        raise InvalidSpecError("lattice sums must be nonnegative")
    c = spin.casimir
    coef = 4.0 * c / 3.0
    m2 = coef * sum_b2
    m4_gauss = 3.0 * m2 * m2
    defect = coef**2 * (6.0 + 3.0 / c) / 5.0 * sum_b4
    return m2, m4_gauss - defect, m4_gauss


def mutual_info_ising(ctx: PairContext, t):
    """Pair mutual information (bits), exact to second order in beta."""
    x, scalar = _as_grid(t)
    return _ret(_pair_series(ctx, x, "povm")[1], scalar)  # I is the same under any measurement


def von_neumann_split(ctx: PairContext, t):
    """Classical/quantum split under the optimal orthogonal measurement.

    Only defined for spin 1/2, where both shares equal half the mutual
    information. Returns (classical, discord).
    """
    x, scalar = _as_grid(t)
    _, _, c, q = _pair_series(ctx, x, "von_neumann")
    return _ret(c, scalar), _ret(q, scalar)


def povm_split(ctx: PairContext, t):
    """Classical/quantum split under the coherent-state POVM, any S.

    Both parts are evaluated from their own closed forms; their sum equals
    mutual_info_ising identically, which the tests exploit as a cross
    check. Returns (classical, quantum).
    """
    x, scalar = _as_grid(t)
    _, _, j, q = _pair_series(ctx, x, "povm")
    return _ret(j, scalar), _ret(q, scalar)


def _pair_series(ctx: PairContext, x, measurement: str):
    """(FID, I, classical, quantum) at the times x, to second order in beta.

    The environment product env and m = g(b_ij t) - 1 are formed once; the
    FID is env (1 + m). 1 - g^2 = -m (1 + g) and, for the POVM overlap f,
    1 - f = -sin^2(b t) sum_{n >= 1} c_n sin^(2(n-1))(b t) cancel neither at
    small t nor at the poles b t = k pi:
        I = (beta env)^2 S(S+1) (1 - g^2) / (3 ln 2),
        Q = (beta env)^2 [S(S+1) (1 - f) + S (1 - g^2)] / (6 ln 2),
        J = (beta env)^2 [S(S+1) (f - g^2) + S^2 (1 - g^2)] / (6 ln 2),
    and the orthogonal measurement (spin 1/2) splits I in halves.
    """
    spin, bx = ctx.spin, ctx.b_ij * x
    env = environment_factor(ctx, x)
    m = K.dirichlet_ratio_m1(spin.d, bx)
    loss_g = -m * K.dirichlet_ratio_p1(spin.d, bx)
    weight = (spin.beta * env) ** 2 / LN2
    info = weight * spin.casimir / 3.0 * loss_g
    if measurement == "von_neumann":
        if spin.two_s != 1:
            raise UnsupportedSpinError("orthogonal-measurement split is only given for spin 1/2")
        classical, quantum = 0.5 * info, 0.5 * info
    else:
        coeffs = _povm_overlap_coeffs(spin.two_s)
        loss_f = K.poly_in_sin2(np.concatenate([[0.0], -coeffs[1:]]), bx)
        quantum = weight / 6.0 * (spin.casimir * loss_f + spin.s * loss_g)
        classical = weight / 6.0 * (spin.casimir * (loss_g - loss_f) + spin.s**2 * loss_g)
    return env + m * env, info, classical, quantum


def small_time_expansions(ctx: PairContext, t):
    """Leading-order mutual information, quantum share, and their ratio.

    The ratio of quantum correlations to total is 1/(S+1) in this limit,
    independent of couplings. Warns when |b_ij t| exceeds 0.3, where the
    leading order is no longer meaningful.
    """
    x, scalar = _as_grid(t)
    env = environment_factor(ctx, x)
    if np.max(np.abs(ctx.b_ij * x)) > _SMALL_TIME_WARN:
        warnings.warn("small-time formulas requested at |b_ij t| > 0.3", stacklevel=2)
    spin = ctx.spin
    pref = (spin.beta * env) ** 2 / (9.0 * LN2) * 4.0
    i_approx = pref * (spin.casimir * ctx.b_ij * x) ** 2
    q_approx = pref * (spin.s * ctx.b_ij * x) ** 2 * (spin.s + 1.0)
    ratio = 1.0 / (spin.s + 1.0)
    return _ret(i_approx, scalar), _ret(q_approx, scalar), ratio


def pair_deviation_matrix(spin: SpinParams, b_ij: float, t: float,
                          env_i: float = 1.0, env_j: float | None = None) -> np.ndarray:
    """Deviation part of the reduced pair density matrix (Ising evolution).

    Returns the traceless d^2 x d^2 Hermitian matrix D such that the pair
    state is (1 + beta * D)/d^2. ``env_i``/``env_j`` are the attenuation
    factors multiplying the raising/lowering terms of each pair member;
    they coincide for equivalent sites.
    """
    if env_j is None:
        env_j = env_i
    ops = build_spin_operators(spin)
    s_plus, s_minus = ops.s_plus, ops.s_minus
    phase = np.diag(np.exp(-2j * b_ij * t * np.diag(ops.sz)))
    dev = 0.5 * (
        env_i * (np.kron(s_plus, phase) + np.kron(s_minus, phase.conj()))
        + env_j * (np.kron(phase, s_plus) + np.kron(phase.conj(), s_minus))
    )
    return dev


def richardson_moments(deficit_fn, step: float = 1e-3) -> tuple[float, float]:
    """Extract (m2, m4) from a FID via Richardson-extrapolated differences.

    ``deficit_fn`` must return F(t) - 1 accurately near t = 0 (see
    fid_zz_deficit). ``step`` is the smallest stride used; extrapolation
    runs over (h, 2h, 4h) because the fourth-difference numerator at the
    smallest step is what roundoff attacks. m2 = -F''(0) uses one
    extrapolation level, m4 = F''''(0) two.
    """
    h = float(step)

    def second(hh):
        v = deficit_fn(np.array([-hh, hh]))
        return (v[0] + v[1]) / hh**2

    def fourth(hh):
        v = deficit_fn(np.array([-2 * hh, -hh, hh, 2 * hh]))
        return (v[0] - 4 * v[1] - 4 * v[2] + v[3]) / hh**4

    d2 = (4.0 * second(h) - second(2 * h)) / 3.0
    r_small = (4.0 * fourth(h) - fourth(2 * h)) / 3.0
    r_large = (4.0 * fourth(2 * h) - fourth(4 * h)) / 3.0
    d4 = (16.0 * r_small - r_large) / 15.0
    return -d2, d4


@dataclass
class CorrelationSeries:
    """Per-time FID and correlation decomposition for one pair.

    ``classical + quantum`` must reproduce ``mutual_info`` at every time;
    construction enforces this to 1e-10.
    """

    grid: TimeGrid
    fid: np.ndarray = field(repr=False)
    mutual_info: np.ndarray = field(repr=False)
    classical: np.ndarray = field(repr=False)
    quantum: np.ndarray = field(repr=False)
    measurement: str = "povm"

    def __post_init__(self):
        n = len(self.grid)
        for name in ("fid", "mutual_info", "classical", "quantum"):
            if np.asarray(getattr(self, name)).shape != (n,):
                raise InvalidSpecError(f"{name} must match the time grid length")
        gap = np.max(np.abs(self.classical + self.quantum - self.mutual_info))
        if gap > 1e-10:
            raise InvalidSpecError(f"classical + quantum != mutual_info (max gap {gap:.3e})")

    @property
    def header(self) -> list[str]:
        split = ("J", "Q") if self.measurement == "povm" else ("C", "Q")
        return ["t", "fid", "I", split[0], split[1]]

    def rows(self):
        for k, t in enumerate(self.grid.times):
            yield (t, self.fid[k], self.mutual_info[k], self.classical[k], self.quantum[k])


def correlation_series(ctx: PairContext, grid: TimeGrid, measurement: str = "povm") -> CorrelationSeries:
    """FID (``fid_zz`` over b_ij and the environment), I and the split on a grid.

    All come from one environment product; see ``_pair_series``.
    """
    if measurement not in ("povm", "von_neumann"):
        raise InvalidSpecError(f"unknown measurement kind {measurement!r}")
    fid, info, classical, quantum = _pair_series(ctx, grid.times, measurement)
    return CorrelationSeries(grid=grid, fid=fid, mutual_info=info,
                             classical=classical, quantum=quantum, measurement=measurement)
