"""spinfid: FID curves and correlation splitting for spin lattices.

Analytic free-induction-decay shapes and the classical/quantum
decomposition of pair correlations for Ising and dipolar spin systems at
high temperature, validated against an exact small-cluster quantum
simulation oracle.
"""

from .core import SpinParams, TimeGrid
from .errors import (
    ConfigError,
    GuardError,
    NumericalError,
    SpinFidError,
)
from .ising import (
    CorrelationSeries,
    PairContext,
    correlation_series,
    coupling_fid_factor,
    environment_factor,
    fid_gaussian,
    fid_zz,
    fid_zz_deficit,
    fid_zz_lattice,
    moments_zz,
    mutual_info_ising,
    pair_deviation_matrix,
    povm_overlap_factor,
    povm_split,
    richardson_moments,
    small_time_expansions,
    von_neumann_split,
)
from .lattice import (
    CouplingTable,
    LatticeSpec,
    build_couplings,
    equivalent_sites_check,
    lattice_from_config,
    lattice_sum,
)
from .memory import (
    AmplitudeSolution,
    Hierarchy,
    MomentSet,
    dipolar_m2,
    fid_dipolar,
    mutual_info_dipolar,
    reduced_pair_matrix_dipolar,
    solve_amplitudes,
    total_information,
    vk_from_moments,
)
from .oracle import (
    DensityMatrix,
    EvolvedCluster,
    SphereQuadrature,
    SpinOperators,
    build_hamiltonian,
    build_spin_operators,
    classical_info_von_neumann,
    entropy_exact,
    mutual_info_numeric,
    partial_trace,
    povm_measure_and_classical_info,
    scs_completeness_check,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
