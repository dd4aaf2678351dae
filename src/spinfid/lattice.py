"""Site geometries, dipolar coupling constants, and lattice sums.

Couplings follow the secular dipole-dipole form: for sites i, j separated
by r_ij at angle theta_ij to the static field,

    b_ij = scale * (1 - 3 cos^2 theta_ij) / (2 r_ij^3),    a_ij = -b_ij / 2.

Only products b_ij * t are physical; positions are dimensionless and the
overall scale is the caller's choice (default 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateGeometryError,
    InvalidSpecError,
    UnsupportedPowerError,
)

_SYM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class LatticeSpec:
    """Finite list of site positions plus the static-field direction.

    The field direction is normalized on construction; a zero-length
    vector is rejected. Site coincidence is checked when couplings are
    built.
    """

    site_positions: np.ndarray = field(repr=False)
    field_direction: np.ndarray = field(default=None, repr=False)
    coupling_scale: float = 1.0

    def __post_init__(self):
        pos = np.asarray(self.site_positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 2:
            raise InvalidSpecError("site_positions must be an (N>=2, 3) array")
        direction = self.field_direction
        if direction is None:
            direction = np.array([0.0, 0.0, 1.0])
        direction = np.asarray(direction, dtype=float)
        if direction.shape != (3,):
            raise InvalidSpecError("field_direction must be a 3-vector")
        norm = np.linalg.norm(direction)
        if norm < 1e-12:
            raise InvalidSpecError("field_direction has zero length")
        object.__setattr__(self, "site_positions", pos)
        object.__setattr__(self, "field_direction", direction / norm)
        if not self.coupling_scale > 0:
            raise InvalidSpecError("coupling_scale must be positive")

    @property
    def n_sites(self) -> int:
        return self.site_positions.shape[0]


def _asymmetric(m: np.ndarray) -> bool:
    """m differs from its transpose by more than _SYM_TOL * max |m|; only b t is physical."""
    return bool(np.max(np.abs(m - m.T)) > _SYM_TOL * np.max(np.abs(m)))


@dataclass(frozen=True, eq=False)
class CouplingTable:
    """Symmetric zero-diagonal matrices of b_ij and a_ij couplings."""

    b: np.ndarray = field(repr=False)
    a: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        if b.ndim != 2 or b.shape[0] != b.shape[1] or b.shape[0] < 2:
            raise InvalidSpecError("b must be a square matrix over >= 2 sites")
        if not np.all(np.isfinite(b)):
            raise InvalidSpecError("b matrix must be finite")
        if _asymmetric(b):
            raise InvalidSpecError("b matrix must be symmetric")
        if np.max(np.abs(np.diag(b))) > 0:
            raise InvalidSpecError("b matrix must have zero diagonal")
        a = self.a
        if a is None:
            a = -b / 2.0
        a = np.asarray(a, dtype=float)
        if not np.all(np.isfinite(a)):
            raise InvalidSpecError("a matrix must be finite")
        if a.shape != b.shape or _asymmetric(a):
            raise InvalidSpecError("a matrix must be symmetric and match b in shape")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "a", a)

    @property
    def n_sites(self) -> int:
        return self.b.shape[0]

    def couplings_of(self, i: int) -> np.ndarray:
        """Off-diagonal couplings b_ij for fixed probe i."""
        return np.delete(self.b[i], i)

    def pair_environment(self, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Couplings of i and of j to every site outside the pair {i, j}."""
        rest = [k for k in range(self.n_sites) if k not in (i, j)]
        return self.b[i, rest], self.b[j, rest]


def build_couplings(spec: LatticeSpec) -> CouplingTable:
    """Fill b_ij (and a_ij = -b_ij/2) from the site geometry."""
    pos = spec.site_positions
    n = spec.n_sites
    rij = pos[None, :, :] - pos[:, None, :]
    r = np.linalg.norm(rij, axis=2)
    close = (r < 1e-12) & ~np.eye(n, dtype=bool)
    if np.any(close):
        i, j = np.argwhere(close)[0]
        raise DegenerateGeometryError(f"sites {i} and {j} coincide")
    np.fill_diagonal(r, 1.0)
    cos_theta = rij @ spec.field_direction / r
    b = spec.coupling_scale * (1.0 - 3.0 * cos_theta**2) / (2.0 * r**3)
    np.fill_diagonal(b, 0.0)
    b = (b + b.T) / 2.0  # kill roundoff asymmetry
    return CouplingTable(b=b, a=-b / 2.0)


def lattice_sum(table: CouplingTable, probe: int, p: int) -> float:
    """Sum over neighbors of b_probe,j to an even power p."""
    if p < 2 or p % 2 != 0:
        raise UnsupportedPowerError(f"only positive even powers appear in moments, got p={p}")
    if not 0 <= probe < table.n_sites:
        raise InvalidSpecError(f"probe index {probe} out of range")
    return float(np.sum(table.couplings_of(probe) ** p))


def equivalent_sites_check(table: CouplingTable, tol: float = _SYM_TOL) -> bool:
    """True iff every site sees the same multiset of couplings, to tol * max |b|.

    Gates the symmetric pair formulas where both spins of a pair carry the
    same environment attenuation factor; only b t is physical.
    """
    rows = np.sort(np.array([table.couplings_of(i) for i in range(table.n_sites)]), axis=1)
    return bool(np.max(np.abs(rows - rows[0])) <= tol * np.max(np.abs(rows)))


def _reject_extra_keys(cfg: dict, main: str, optional: tuple[str, ...]) -> None:
    extra = sorted(set(cfg) - {main, *optional})
    if extra:
        raise InvalidSpecError(f"{', '.join(map(repr, extra))} not allowed with {main!r}")


def lattice_from_config(cfg: dict) -> CouplingTable:
    """Build a CouplingTable from config keys.

    Accepts either a prebuilt ``b_matrix`` alone or ``sites`` (list of
    3-vectors) with optional ``field_direction`` and ``coupling_scale``;
    any other key is rejected.
    """
    if "b_matrix" in cfg:
        if "sites" in cfg:
            raise InvalidSpecError("give either 'sites' or 'b_matrix', not both")
        _reject_extra_keys(cfg, "b_matrix", ())
        return CouplingTable(b=np.asarray(cfg["b_matrix"], dtype=float))
    if "sites" not in cfg:
        raise InvalidSpecError("lattice config needs 'sites' or 'b_matrix'")
    _reject_extra_keys(cfg, "sites", ("field_direction", "coupling_scale"))
    spec = LatticeSpec(
        site_positions=np.asarray(cfg["sites"], dtype=float),
        field_direction=np.asarray(cfg.get("field_direction", [0.0, 0.0, 1.0]), dtype=float),
        coupling_scale=float(cfg.get("coupling_scale", 1.0)),
    )
    return build_couplings(spec)


def coupling_rows(table: CouplingTable):
    """Iterate (i, j, b_ij) over all ordered off-diagonal pairs, for CSV."""
    n = table.n_sites
    for i in range(n):
        for j in range(n):
            if i != j:
                yield i, j, table.b[i, j]
