"""n-level atoms under multi-laser drive: closed-form and numerical propagators."""

from types import ModuleType as _ModuleType

from .errors import (
    ConditionError,
    DegenerateSpectrumError,
    IntegrationError,
    InvalidInputError,
)
from .model import (
    ConditionReport,
    CouplingMatrix,
    LevelSystem,
    StateVector,
    Trajectory,
    build_q,
    check_consistency,
    check_resonance,
    default_condition_tolerance,
    frame_matrix,
    full_solution,
    hamiltonian_full,
    hamiltonian_rwa,
    rotating_frame_hamiltonian,
    trajectory,
)
from .oracle import (
    IntegrationConfig,
    TimeSeries,
    integrate_schrodinger,
    reference_expm,
    rk4_step,
    rwa_error,
)
from .propagator import (
    EigenDecomposition,
    LagrangeCoeffs,
    Method,
    Propagator,
    SpectralPlan,
    eigenvectors_three_level,
    jacobi_eigendecompose,
    lagrange_coeffs,
    propagator,
    propagator_equal_coupling,
    propagator_from_eigen,
    propagator_lagrange,
    propagator_two_level,
    spectral_plan,
)
from .roots import (
    CubicCoeffs,
    QuarticCoeffs,
    Spectrum,
    char_poly_3,
    char_poly_4,
    closed_form_spectrum,
    solve_cubic_depressed,
    solve_quartic,
)

__version__ = "0.1.0"

# every name imported above, in sorted order: a public name is added or dropped in one place
__all__ = [name for name, value in sorted(globals().items()) if not name.startswith("_") and not isinstance(value, _ModuleType)]
__all__.append("__version__")
