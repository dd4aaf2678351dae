"""Shared value types: spin quantum numbers and sample-time grids."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpecError


@dataclass(frozen=True)
class SpinParams:
    """Spin quantum number and polarization of the lattice nuclei.

    ``two_s`` stores 2S so half-integer spins are exact integers. ``beta``
    is the dimensionless high-temperature polarization; analytic-vs-oracle
    comparisons assume ``beta <= 1e-2`` so cubic corrections are negligible.
    """

    two_s: int
    beta: float = 1e-3

    def __post_init__(self):
        if int(self.two_s) != self.two_s or self.two_s < 1:
            raise InvalidSpecError(f"two_s must be a positive integer, got {self.two_s!r}")
        if not 0 < self.beta < math.inf:
            raise InvalidSpecError(f"beta must be positive and finite, got {self.beta!r}")

    @property
    def d(self) -> int:
        """Single-spin Hilbert dimension 2S + 1."""
        return self.two_s + 1

    @property
    def s(self) -> float:
        """Spin quantum number S as a float."""
        return self.two_s / 2.0

    @property
    def casimir(self) -> float:
        """S(S + 1)."""
        return self.s * (self.s + 1.0)


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Ordered sample times, in units of the inverse reference coupling."""

    times: np.ndarray = field(repr=False)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise InvalidSpecError("time grid needs at least two samples")
        if not np.all(np.isfinite(t)):
            raise InvalidSpecError("time grid must be finite")
        if np.any(np.diff(t) <= 0):
            raise InvalidSpecError("time grid must be strictly increasing")
        object.__setattr__(self, "times", t)

    @classmethod
    def linspace(cls, t_max: float, n_points: int) -> "TimeGrid":
        if not 0 < t_max < math.inf:
            raise InvalidSpecError(f"t_max must be positive and finite, got {t_max!r}")
        if not float(n_points).is_integer() or n_points < 2:
            raise InvalidSpecError(f"n_points must be an integer of at least 2, got {n_points!r}")
        return cls(np.linspace(0.0, float(t_max), int(n_points)))

    def __len__(self) -> int:
        return self.times.size


def double_factorial(n: int) -> float:
    """n!! with the convention 0!! = (-1)!! = 1."""
    out = 1.0
    k = n
    while k > 1:
        out *= k
        k -= 2
    return out
