"""Phase-space dynamics for systems with linear nonholonomic constraints.

The engine represents a constraint-adapted frame on the configuration
space, builds the induced skew/Dirac algebroid structure in coordinates,
and integrates the reduced phase equations for arbitrary Hamiltonians.
Two independent transcriptions of the classical constrained dynamics
(mechanical and magnetic) are kept alongside as oracles.
"""

from .errors import (
    BindingError,
    CatalogError,
    DegenerateHamiltonianError,
    DegenerateParameterError,
    DimensionError,
    EngineError,
    ExprError,
    NonConvergenceError,
    NumericDomainError,
    SingularMatrixError,
    TruncatedTrajectoryError,
    UnsupportedError,
    ValidationError,
)
from .numcore import (
    DualScalar,
    ScalarField,
    grad,
    hessian_block,
    mat_inverse,
    newton_solve,
    solve_linear,
)
from .frame import FrameField, frame_matrix, structure_functions_tangent
from .algebroid import (
    PhaseState,
    SkewAlgebroid,
    VelocityState,
    change_frame,
    from_tangent_frame,
    hamiltonian_vector_field,
    lagrangian_dynamics,
    legendre_map,
    product_with_lie_algebra,
    restrict_to_constraint,
)
from .dirac import (
    ConsistencySolution,
    DiracAlgebroid,
    DiracElement,
    consistency_residual,
    evaluate_reduced,
    make_element,
    oracle_magnetic,
    oracle_mechanical,
    pairing,
    reduced_vector_field,
    solve_consistency,
)
from .systems import SystemSpec, build, catalog_names, hamiltonian_with_potential
from .integrate import Trajectory, observables, rk4_step, simulate

__version__ = "0.1.0"

__all__ = [
    "BindingError",
    "CatalogError",
    "ConsistencySolution",
    "DegenerateHamiltonianError",
    "DegenerateParameterError",
    "DimensionError",
    "DiracAlgebroid",
    "DiracElement",
    "DualScalar",
    "EngineError",
    "ExprError",
    "FrameField",
    "NonConvergenceError",
    "NumericDomainError",
    "PhaseState",
    "ScalarField",
    "SingularMatrixError",
    "SkewAlgebroid",
    "SystemSpec",
    "Trajectory",
    "TruncatedTrajectoryError",
    "UnsupportedError",
    "ValidationError",
    "VelocityState",
    "build",
    "catalog_names",
    "change_frame",
    "consistency_residual",
    "evaluate_reduced",
    "frame_matrix",
    "from_tangent_frame",
    "grad",
    "hamiltonian_vector_field",
    "hamiltonian_with_potential",
    "hessian_block",
    "lagrangian_dynamics",
    "legendre_map",
    "make_element",
    "mat_inverse",
    "newton_solve",
    "observables",
    "oracle_magnetic",
    "oracle_mechanical",
    "pairing",
    "product_with_lie_algebra",
    "reduced_vector_field",
    "restrict_to_constraint",
    "rk4_step",
    "simulate",
    "solve_consistency",
    "solve_linear",
    "structure_functions_tangent",
]
