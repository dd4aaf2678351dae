"""Exception hierarchy.

Three top-level buckets map one-to-one onto CLI exit codes:
``ConfigError`` -> 2, ``GuardError`` -> 3, ``NumericalError`` -> 4.
"""


class SpinFidError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SpinFidError, ValueError):
    """Invalid input: bad config keys, malformed specs, contract misuse."""


class GuardError(SpinFidError):
    """A resource or applicability guard was violated."""


class NumericalError(SpinFidError):
    """A numerical procedure failed to converge or produced garbage."""


# -- config-level -------------------------------------------------------------

class InvalidSpecError(ConfigError):
    """Lattice or run specification is structurally invalid."""


class DegenerateGeometryError(ConfigError):
    """Two or more lattice sites coincide."""


class UnsupportedPowerError(ConfigError):
    """Lattice sums are only defined for positive even powers."""


class UnsupportedSpinError(ConfigError):
    """Operation is only defined for spin 1/2."""


class InvalidPairError(ConfigError):
    """Pair reduction requires two distinct site indices."""


# -- guards -------------------------------------------------------------------

class ClusterTooLargeError(GuardError):
    """Hilbert-space dimension or amplitude-chain length exceeds DIM_GUARD."""


class BetaTooLargeError(GuardError):
    """Polarization too large for the linearized density matrix to stay PSD."""


class QuadratureTooCoarseError(GuardError):
    """Sphere quadrature fails the coherent-state completeness check."""


class QuadratureTooLargeError(GuardError):
    """The per-spin sphere quadrature rule needs more nodes than the cap."""


class NonPhysicalMomentsError(GuardError):
    """Spectral moments violate positivity inequalities."""


class NonEquivalentSitesError(GuardError):
    """Symmetric pair formulas require all sites to see identical couplings."""


# -- numerics -----------------------------------------------------------------

class NonPhysicalStateError(NumericalError):
    """A density matrix has a significantly negative eigenvalue."""
